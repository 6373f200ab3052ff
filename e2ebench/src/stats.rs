//! Process counters, order statistics and the result line.

use std::fmt::Write as _;

/// Process user+sys CPU time in nanoseconds, from `/proc/self/stat`
/// (fields 14 and 15, in `USER_HZ` = 100 ticks per second on Linux).
pub fn process_cpu_ns() -> u64 {
    cpu_ns_of("/proc/self/stat")
}

/// User+sys CPU time of the calling thread in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns_of("/proc/thread-self/stat")
}

/// The kernel's id of the calling thread (`/proc/thread-self` names it).
pub fn current_tid() -> Option<u32> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// CPU time of thread `tid` of this process in nanoseconds: the exact
/// run time from its `schedstat`, or its tick-counted user+sys time where
/// the kernel keeps no scheduler statistics.
pub fn task_cpu_ns(tid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| cpu_ns_of(&format!("/proc/self/task/{tid}/stat")))
}

fn cpu_ns_of(path: &str) -> u64 {
    let stat = std::fs::read_to_string(path).expect("proc stat file is readable");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks * 10_000_000
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t` of 1024 CPUs.
type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// lowest CPU it may run on, and returns that CPU; `None` leaves it
/// unpinned.
///
/// On a virtual machine whose CPUs share a busy host, a CPU that idles
/// between short bursts of work pays the host's scheduling delay on every
/// wake-up, and that delay (the guest's steal time) varied more from run
/// to run than anything the program did: on a 2-vCPU guest, two CPUs
/// waking each other ran bulk ingest 20 % slower than one busy CPU, with
/// about half of the CPU time they wanted stolen instead of 5 %. With one CPU
/// the hub runs one worker and the generators share that CPU, so the
/// figures are those of the program on one core.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().first()?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: a readable buffer of the size passed, naming one allowed CPU.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), one.as_ptr()) } == 0)
        .then_some(cpu)
}

/// Time the hypervisor ran other guests while this guest's CPU wanted to
/// run (the `steal` column of `/proc/stat`): of the one CPU the calling
/// thread is pinned to, or summed over all CPUs when it is not pinned.
pub fn cpu_steal_ns() -> u64 {
    let cpus = allowed_cpus();
    let label = match cpus.as_slice() {
        [one] => format!("cpu{one}"),
        _ => "cpu".to_owned(),
    };
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat
                .lines()
                .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
            line.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .map_or(0, |ticks| ticks * 10_000_000)
}

/// The host's steal time of the benchmark's CPU, sampled through a timed
/// window. `/proc/stat` counts it in 10 ms ticks.
#[derive(Debug, Default, Clone)]
pub struct StealLog {
    /// Sample times, ns since the load epoch, ascending.
    pub at: Vec<u64>,
    /// Cumulative steal at each sample (ns).
    pub steal: Vec<u64>,
}

impl StealLog {
    pub fn sample(&mut self, at: u64) {
        self.at.push(at);
        self.steal.push(cpu_steal_ns());
    }

    /// Steal between the first and the last sample.
    pub fn total(&self) -> u64 {
        match (self.steal.first(), self.steal.last()) {
            (Some(a), Some(b)) => b.saturating_sub(*a),
            _ => 0,
        }
    }

    /// Index of the sampling interval holding time `t` (ns since the load
    /// epoch), if any.
    pub fn interval_of(&self, t: u64) -> Option<usize> {
        let i = self.at.partition_point(|&a| a <= t);
        (i > 0 && i < self.at.len()).then(|| i - 1)
    }

    /// Steal within each sampling interval.
    pub fn per_interval(&self) -> Vec<u64> {
        self.steal
            .windows(2)
            .map(|w| w[1].saturating_sub(w[0]))
            .collect()
    }
}

/// Quantile `q` of the values of the calmest intervals: `values` holds
/// `(interval, value)` pairs and `stolen[i]` the host's steal in interval
/// `i`. The intervals are taken in order of increasing steal, every
/// interval with the same steal as the last one taken included, until they
/// hold at least half of the values; a run without steal keeps all of
/// them. Returns the quantile and the share of values kept.
pub fn calm_quantile(values: &[(usize, f64)], stolen: &[u64], q: f64) -> (f64, f64) {
    let mut counts = vec![0usize; stolen.len()];
    for &(i, _) in values {
        counts[i] += 1;
    }
    let mut order: Vec<usize> = (0..stolen.len()).collect();
    order.sort_by_key(|&i| stolen[i]);
    let mut held = 0;
    let mut limit = 0;
    for &i in &order {
        if 2 * held >= values.len() && stolen[i] > limit {
            break;
        }
        held += counts[i];
        limit = stolen[i];
    }
    let kept: Vec<f64> = values
        .iter()
        .filter(|&&(i, _)| stolen[i] <= limit)
        .map(|&(_, v)| v)
        .collect();
    (
        quantile_of(&kept, q),
        ratio(kept.len() as f64, values.len() as f64),
    )
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
/// Infinite entries (failed beats) sort last and propagate.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[hi].is_infinite() {
        return sorted[if sorted[hi].is_infinite() { hi } else { lo }];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy and returns `quantile(q)`.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. JSON has no infinity, so an unbounded value (a percentile
/// landing on a failed beat) is written as the largest finite double.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let v = if m.value.is_finite() {
            m.value
        } else {
            f64::MAX
        };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_keep_failures_unbounded() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let w = [1.0, 2.0, f64::INFINITY];
        assert!(quantile(&w, 0.99).is_infinite());
        assert_eq!(quantile(&w, 0.25), 1.5);
    }

    #[test]
    fn calm_quantile_keeps_the_calmest_half() {
        // Intervals 0 and 2 had no steal, 1 had a lot, 3 a little.
        let stolen = [0, 50, 0, 10];
        let values = [(0, 1.0), (1, 9.0), (1, 9.0), (2, 2.0), (3, 5.0), (3, 5.0)];
        // Intervals 0 and 2 hold 2 of 6 values; adding 3 reaches half.
        let (p50, kept) = calm_quantile(&values, &stolen, 0.5);
        assert_eq!(kept, 4.0 / 6.0);
        assert_eq!(p50, 3.5);
        // Without steal every value counts.
        let (p50, kept) = calm_quantile(&values, &[0; 4], 0.5);
        assert_eq!(kept, 1.0);
        assert_eq!(p50, 5.0);
    }

    #[test]
    fn steal_log_intervals() {
        let log = StealLog {
            at: vec![100, 200, 300],
            steal: vec![5, 5, 25],
        };
        assert_eq!(log.total(), 20);
        assert_eq!(log.per_interval(), vec![0, 20]);
        assert_eq!(log.interval_of(99), None);
        assert_eq!(log.interval_of(100), Some(0));
        assert_eq!(log.interval_of(250), Some(1));
        assert_eq!(log.interval_of(300), None);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("a", "ms", 1.5);
        m.put("b", "s", f64::INFINITY);
        let line = result_line(true, 3, 0, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(line.contains(&format!("{:?}", f64::MAX)));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let _ = process_cpu_ns();
        let tid = current_tid().expect("the calling thread has an id");
        let before = task_cpu_ns(tid);
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(task_cpu_ns(tid) > before, "spinning costs CPU ({x})");
    }
}
