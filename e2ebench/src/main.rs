//! End-to-end benchmark of the ADC-code-to-outcome path.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <bulk_ingest|fleet_paced|replay_rescore> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run; `--trace 1`
//! runs the workload untraced and then traced, re-drives the captured
//! inputs layer by layer and prints the per-layer metrics. Every delivered
//! outcome is checked against an in-process reference; the last stdout line
//! is the JSON result. See `e2ebench/README.md` for the workloads and the
//! layer-to-metric predictions.

mod ledger;
mod net;
mod replay;
mod setup;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use heartbeat_rp::hbc_embedded::WbsnFirmware;

use crate::ledger::{Captured, Ledger, WalUse};
use crate::net::{NetShape, Pacing};
use crate::replay::LogShape;
use crate::setup::{PoolShape, Stream};
use crate::stats::{median, quantile_of, ratio, Metrics};
use crate::trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Most samples the layer re-drive replays.
const REDRIVE_SAMPLES: usize = 600_000;

const BULK_POOL: PoolShape = PoolShape {
    records: 16,
    beats: (600, 800),
    p_v: 0.05,
    p_l: 0.03,
};
const FLEET_POOL: PoolShape = PoolShape {
    records: 64,
    beats: (25, 75),
    p_v: 0.20,
    p_l: 0.10,
};
const REPLAY_POOL: PoolShape = PoolShape {
    records: 48,
    beats: (20, 45),
    p_v: 0.10,
    p_l: 0.05,
};
const REPLAY_LOG: LogShape = LogShape {
    sessions: 240,
    chunk: 360,
    concurrent: 32,
};

/// `fleet_paced`: sessions, aggregate rate and frame size. Each session
/// sends a 90-sample frame every `FLEET_FRAME * FLEET_SESSIONS /
/// FLEET_RATE` seconds.
const FLEET_SESSIONS: usize = 256;
const FLEET_RATE: f64 = 300_000.0;
const FLEET_FRAME: usize = 90;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Bulk,
    Fleet,
    Replay,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk_ingest",
            Workload::Fleet => "fleet_paced",
            Workload::Replay => "replay_rescore",
        }
    }

    fn pool(self) -> (PoolShape, u64) {
        match self {
            Workload::Bulk => (BULK_POOL, 1),
            Workload::Fleet => (FLEET_POOL, 2),
            Workload::Replay => (REPLAY_POOL, 3),
        }
    }

    fn net_shape(self, threads: usize) -> NetShape {
        match self {
            Workload::Bulk => NetShape {
                connections: threads,
                sessions_per_conn: 4,
                frame: 4096,
                pacing: Pacing::Closed,
                wal: false,
                warmup: Duration::from_secs(1),
                tail: Duration::from_millis(500),
            },
            _ => NetShape {
                connections: threads,
                sessions_per_conn: FLEET_SESSIONS / threads,
                frame: FLEET_FRAME,
                pacing: Pacing::Paced {
                    period: Duration::from_secs_f64(
                        (FLEET_FRAME * FLEET_SESSIONS) as f64 / FLEET_RATE,
                    ),
                    stagger: Duration::from_secs(1),
                },
                wal: true,
                warmup: Duration::from_secs(3),
                tail: Duration::from_millis(500),
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "bulk_ingest" => Workload::Bulk,
                    "fleet_paced" => Workload::Fleet,
                    "replay_rescore" => Workload::Replay,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one set-up produces (the gateway, for network workloads, is bound
/// on top of it).
struct Prepared {
    firmware: WbsnFirmware,
    pool: Vec<Stream>,
    /// Samples in the replay log (replay only).
    log_samples: usize,
}

fn prepare(workload: Workload, seed: u64, threads: usize, log_dir: &Path) -> Prepared {
    let firmware = setup::firmware();
    let (shape, tag) = workload.pool();
    let pool = setup::pool(&firmware, seed, tag, &shape, threads);
    let log_samples = if workload == Workload::Replay {
        replay::write_log(log_dir, &pool, &REPLAY_LOG)
    } else {
        0
    };
    Prepared {
        firmware,
        pool,
        log_samples,
    }
}

/// The outcome of a workload run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    tracer: Option<Tracer>,
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <bulk_ingest|fleet_paced|replay_rescore> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let pinned = stats::pin_to_one_cpu();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 4);
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).expect("work directory under the checkout");
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads} cpu {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinned.map_or_else(|| "unpinned".to_owned(), |c| c.to_string())
    );
    let out = match (args.workload, args.trace) {
        (Workload::Replay, false) => replay_untraced(&args, threads, &work, process_start),
        (Workload::Replay, true) => replay_traced(&args, threads, &work),
        (w, false) => net_untraced(w, &args, threads, &work, process_start),
        (w, true) => net_traced(w, &args, threads, &work),
    };
    if let Some(tr) = &out.tracer {
        let path = root.join(format!(
            "trace-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match tr.write_tsv(&path) {
            Ok(()) => println!("spans: {} written to {}", tr.spans.len(), path.display()),
            Err(e) => eprintln!("e2ebench: could not write spans: {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    println!(
        "{}",
        stats::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
}

fn print_inputs(workload: Workload, seed: u64, pool: &[Stream]) {
    let mut all = 0u64;
    for (i, s) in pool.iter().enumerate() {
        println!(
            "input {} seed {seed} record {i} samples {} fnv1a {:016x}",
            workload.name(),
            s.codes.len(),
            s.hash
        );
        all = setup::mix(all ^ s.hash);
    }
    println!("inputs {} seed {seed} combined {all:016x}", workload.name());
}

/// Runs `SETUP_REPS` full set-ups (the first one timed from process
/// start) and keeps the last; returns it with the median set-up time.
fn repeated_setup(
    workload: Workload,
    seed: u64,
    threads: usize,
    work: &Path,
    process_start: Instant,
    bind: impl Fn(&Prepared, &Path),
) -> (Prepared, f64, PathBuf) {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("setup{rep}"));
        if let Some((_, old)) = kept.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let prep = prepare(workload, seed, threads, &dir);
        bind(&prep, &dir);
        times.push(started.elapsed().as_secs_f64());
        kept = Some((prep, dir));
    }
    let (prep, dir) = kept.expect("at least one set-up");
    (prep, median(&times), dir)
}

fn net_untraced(
    workload: Workload,
    args: &Args,
    threads: usize,
    work: &Path,
    process_start: Instant,
) -> Outcome {
    let shape = workload.net_shape(threads);
    // Every set-up includes a gateway bind; the run binds a fresh one.
    let (prep, setup_s, dir) = repeated_setup(
        workload,
        args.seed,
        threads,
        work,
        process_start,
        |prep, dir| drop(net::bind(&prep.firmware, &shape, &dir.join("wal"))),
    );
    let wal_dir = dir.join("run-wal");
    let gateway = net::bind(&prep.firmware, &shape, &wal_dir);
    print_inputs(workload, args.seed, &prep.pool);
    let mut pass = net::run_pass(
        gateway,
        &prep.pool,
        &shape,
        Duration::from_secs_f64(args.seconds),
        false,
        &wal_dir,
    );
    let ev = net::evaluate(&mut pass, &prep.pool, &shape, &prep.firmware);
    let window_s = (pass.t_end - pass.t_warm) as f64 / 1e9;
    let ran_s = window_s - pass.steal.total() as f64 / 1e9;
    // A closed loop keeps the benchmark's CPU busy, so its rate is per
    // second the host ran that CPU; a paced rate is set by the schedule.
    let rate_s = match shape.pacing {
        Pacing::Closed => ran_s,
        Pacing::Paced { .. } => window_s,
    };
    let (p50_ms, calm_share) = ev.calm_quantile(&pass, 0.5);
    let lag_p99_ms = quantile_of(&pass.gen.lags, 0.99) / 1e6;
    report_generator(&shape, lag_p99_ms, &pass.gen.errors);
    report_verify(ev.attempted, ev.missing, ev.mismatched);
    let mut m = Metrics::default();
    m.put("setup_s", "s", setup_s);
    m.put(
        "throughput_samples_per_s",
        "samples/s",
        ev.verified_window_samples as f64 / rate_s,
    );
    m.put(
        "cpu_ns_per_sample",
        "ns",
        ratio(pass.cpu_ns as f64, ev.verified_window_samples as f64),
    );
    m.put("peak_rss_mb", "MiB", stats::peak_rss_mb());
    let all: Vec<f64> = ev.latencies.iter().map(|l| f64::from(l.1)).collect();
    println!(
        "host steal of the benchmark's CPU: {:.0} ms of the {window_s:.3} s window; \
         {:.0} samples/s per wall second; latency p50 {:.3} ms over all beats, \
         {p50_ms:.3} ms over the calmest {:.0} %",
        pass.steal.total() as f64 / 1e6,
        ev.verified_window_samples as f64 / window_s,
        quantile_of(&all, 0.5),
        calm_share * 100.0
    );
    println!(
        "latency p99 per window (ms): {:.3?}",
        ev.window_quantiles(&pass, shape.tail, 0.99)
    );
    println!(
        "latency: {} beats in the window (whole-window p99 {:.3} ms); timed window {window_s:.3} s; \
         generator cpu {:.3} s of wall {:.3} s",
        ev.latencies.len(),
        quantile_of(&all, 0.99),
        pass.gen.cpu_ns as f64 / 1e9,
        pass.gen.wall_ns as f64 / 1e9
    );
    Outcome {
        correct: ev.mismatched == 0,
        attempted: ev.attempted,
        failed: ev.missing + ev.mismatched,
        metrics: m,
        tracer: None,
    }
}

/// Marks a run invalid on stdout when its generator fell behind: a paced
/// run whose sends are later than half a frame period at p99 measures the
/// load generator, not the gateway. A transport error also invalidates a
/// run (its lost beats already count as failed). Validity is about the
/// measurement, not the program's outputs, so it does not touch `correct`.
fn report_generator(shape: &NetShape, lag_p99_ms: f64, errors: &[String]) {
    for e in errors {
        eprintln!("e2ebench: generator error: {e}");
    }
    let limit_ms = match shape.pacing {
        Pacing::Paced { period, .. } => period.as_secs_f64() * 1e3 / 2.0,
        Pacing::Closed => f64::INFINITY,
    };
    let valid = lag_p99_ms <= limit_ms && errors.is_empty();
    println!(
        "generator: {} (send lag p99 {lag_p99_ms:.3} ms, limit {limit_ms:.1} ms; {} errors)",
        if valid { "valid" } else { "INVALID" },
        errors.len()
    );
}

fn report_verify(attempted: u64, missing: u64, mismatched: u64) {
    println!(
        "verify: {attempted} expected beats, {missing} missing, {mismatched} mismatched; \
         failed_frac {}",
        ratio((missing + mismatched) as f64, attempted as f64)
    );
}

fn replay_untraced(args: &Args, threads: usize, work: &Path, process_start: Instant) -> Outcome {
    let (prep, setup_s, dir) = repeated_setup(
        Workload::Replay,
        args.seed,
        threads,
        work,
        process_start,
        |_, _| {},
    );
    print_inputs(Workload::Replay, args.seed, &prep.pool);
    let run = replay::run(
        &dir,
        &prep.firmware,
        &prep.pool,
        &REPLAY_LOG,
        args.seconds,
        None,
    );
    report_verify(run.attempted, run.missing, run.mismatched);
    // The replay runs in one thread on the benchmark's one CPU, so a call
    // takes its wall time less what the host stole from that CPU.
    let per_call_s: Vec<f64> = run
        .calls
        .iter()
        .zip(&run.stolen)
        .map(|(&ns, &stolen)| ns.saturating_sub(stolen) as f64 / 1e9)
        .collect();
    let rates: Vec<f64> = per_call_s
        .iter()
        .map(|s| run.samples_per_call as f64 / s)
        .collect();
    let total_samples = (run.samples_per_call * run.calls.len()) as f64;
    let mut m = Metrics::default();
    m.put("setup_s", "s", setup_s);
    m.put("throughput_samples_per_s", "samples/s", median(&rates));
    m.put(
        "cpu_ns_per_sample",
        "ns",
        ratio(run.cpu_ns as f64, total_samples),
    );
    m.put("peak_rss_mb", "MiB", stats::peak_rss_mb());
    println!(
        "host steal of the benchmark's CPU: {:.0} ms over the calls; median call {:.3} s \
         of wall time, {:.3} s less steal",
        run.stolen.iter().sum::<u64>() as f64 / 1e6,
        median(
            &run.calls
                .iter()
                .map(|&ns| ns as f64 / 1e9)
                .collect::<Vec<_>>()
        ),
        median(&per_call_s)
    );
    println!(
        "replay: {} calls of {} samples / {} beats; log holds {} samples",
        run.calls.len(),
        run.samples_per_call,
        run.beats_per_call,
        prep.log_samples
    );
    Outcome {
        correct: run.mismatched == 0,
        attempted: run.attempted,
        failed: run.missing + run.mismatched,
        metrics: m,
        tracer: None,
    }
}

/// Picks re-drive sessions: whole streams, in order, up to the sample cap.
fn captured<'a>(items: impl Iterator<Item = (u32, &'a Stream)>) -> Vec<Captured<'a>> {
    let mut out = Vec::new();
    let mut total = 0;
    for (wire, s) in items {
        if total >= REDRIVE_SAMPLES {
            break;
        }
        total += s.codes.len();
        out.push(Captured {
            wire,
            codes: &s.codes,
            expected: &s.reference,
            anchors: &s.anchors,
        });
    }
    out
}

fn net_traced(workload: Workload, args: &Args, threads: usize, work: &Path) -> Outcome {
    let shape = workload.net_shape(threads);
    let prep = prepare(workload, args.seed, threads, work);
    print_inputs(workload, args.seed, &prep.pool);
    let half = Duration::from_secs_f64(args.seconds / 2.0);

    // Untraced half: the reference cost, and the gateway's own telemetry
    // from `run_with_report`.
    let wal_a = work.join("wal-a");
    let mut pass_a = net::run_pass(
        net::bind(&prep.firmware, &shape, &wal_a),
        &prep.pool,
        &shape,
        half,
        false,
        &wal_a,
    );
    let ev_a = net::evaluate(&mut pass_a, &prep.pool, &shape, &prep.firmware);

    // Traced half: spans on the client and on every reactor sweep.
    let wal_b = work.join("wal-b");
    let mut pass_b = net::run_pass(
        net::bind(&prep.firmware, &shape, &wal_b),
        &prep.pool,
        &shape,
        half,
        true,
        &wal_b,
    );
    let ev_b = net::evaluate(&mut pass_b, &prep.pool, &shape, &prep.firmware);

    let caps = captured(
        pass_b
            .completed
            .iter()
            .map(|&(wire, rec)| (wire, &prep.pool[rec])),
    );
    let mut tracer = pass_b.tracer.take().expect("traced pass records spans");
    let redrive_wal = work.join("wal-redrive");
    let wal_use = if shape.wal {
        WalUse::Append(&redrive_wal)
    } else {
        WalUse::Off
    };
    let l = ledger::redrive(
        &prep.firmware,
        &caps,
        Some(shape.frame),
        wal_use,
        &mut tracer,
    );

    let lag_p99_ms = quantile_of(&pass_b.gen.lags, 0.99) / 1e6;
    report_generator(
        &shape,
        quantile_of(&pass_a.gen.lags, 0.99) / 1e6,
        &pass_a.gen.errors,
    );
    report_generator(&shape, lag_p99_ms, &pass_b.gen.errors);
    let attempted = ev_a.attempted + ev_b.attempted;
    let missing = ev_a.missing + ev_b.missing;
    let mismatched = ev_a.mismatched + ev_b.mismatched;
    report_verify(attempted, missing, mismatched);

    let cost = |pass: &net::Pass, ev: &net::Eval| match shape.pacing {
        // Fixed offered rate: wall time is set by the schedule, so the
        // cost is CPU per sample.
        Pacing::Paced { .. } => ratio(pass.cpu_ns as f64, ev.verified_window_samples as f64),
        Pacing::Closed => ratio(
            (pass.t_end - pass.t_warm).saturating_sub(pass.steal.total()) as f64,
            ev.verified_window_samples as f64,
        ),
    };
    let cpu_a = ratio(pass_a.cpu_ns as f64, ev_a.verified_window_samples as f64);
    let mut m = Metrics::default();
    client_and_gateway_metrics(&mut m, &pass_b, &tracer);
    m.put(
        "gateway.ingest_calls",
        "count",
        hist_count(&pass_b, "hbc_hub_ingest_micros"),
    );
    for (name, q) in [
        ("client.beat_latency_p50_ms", 0.5),
        ("client.beat_latency_p99_ms", 0.99),
    ] {
        m.put(name, "ms", ev_a.calm_quantile(&pass_a, q).0);
    }
    ledger_metrics(&mut m, &l, shape.wal.then_some(pass_b.gateway.wal_segments));
    let a = &pass_a.gateway;
    let beats_out = a.stats.beats_out as f64;
    m.put(
        "obs.headline_count_ratio",
        "ratio",
        ratio(
            hist_count(&pass_a, "hbc_gateway_beat_to_outcome_micros"),
            beats_out,
        ),
    );
    obs_stage_metrics(&mut m, &a.metrics, a.stats.samples_in as f64);
    m.put(
        "ledger.closure",
        "ratio",
        ratio(l.ledger_ns_per_sample, cpu_a),
    );
    m.put(
        "trace.overhead_frac",
        "ratio",
        ratio(cost(&pass_b, &ev_b), cost(&pass_a, &ev_a)) - 1.0,
    );
    let correct = mismatched == 0 && l.mismatched_layers.is_empty();
    if !l.mismatched_layers.is_empty() {
        eprintln!(
            "e2ebench: re-drive layers disagree with the reference: {:?}",
            l.mismatched_layers
        );
    }
    Outcome {
        correct,
        attempted,
        failed: missing + mismatched,
        metrics: m,
        tracer: Some(tracer),
    }
}

fn hist_count(pass: &net::Pass, name: &str) -> f64 {
    pass.gateway
        .metrics
        .histogram(name)
        .map_or(0.0, |h| h.count() as f64)
}

fn client_and_gateway_metrics(m: &mut Metrics, pass: &net::Pass, tracer: &Tracer) {
    let gen = &pass.gen;
    m.put(
        "client.send_lag_p99_ms",
        "ms",
        quantile_of(&gen.lags, 0.99) / 1e6,
    );
    m.put(
        "client.credit_wait_frac",
        "ratio",
        ratio(gen.credit_wait_ns as f64, gen.wall_ns as f64),
    );
    let polls = &pass.gateway.polls;
    let durations: Vec<f64> = polls.iter().map(|&(ns, _)| ns as f64).collect();
    let busy: u64 = polls.iter().filter(|p| p.1).map(|p| p.0).sum();
    let spans: Vec<_> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "gateway.poll")
        .collect();
    let wall = match (spans.first(), spans.last()) {
        (Some(a), Some(b)) => (b.end - a.start) as f64,
        _ => 0.0,
    };
    m.put("gateway.sweeps", "count", polls.len() as f64);
    m.put(
        "gateway.sweep_p50_us",
        "us",
        quantile_of(&durations, 0.5) / 1e3,
    );
    m.put(
        "gateway.sweep_p99_us",
        "us",
        quantile_of(&durations, 0.99) / 1e3,
    );
    m.put(
        "gateway.idle_sweep_frac",
        "ratio",
        ratio(
            polls.iter().filter(|p| !p.1).count() as f64,
            polls.len() as f64,
        ),
    );
    m.put("gateway.busy_frac", "ratio", ratio(busy as f64, wall));
    let s = &pass.gateway.stats;
    m.put("gateway.frames_in", "count", s.frames_in as f64);
    m.put("gateway.frames_out", "count", s.frames_out as f64);
    m.put("gateway.samples_shed", "count", s.samples_shed as f64);
    m.put("gateway.busy_replies", "count", s.busy_denials as f64);
    m.put(
        "session.open_ms_p50",
        "ms",
        quantile_of(&gen.opens, 0.5) / 1e6,
    );
    m.put(
        "session.close_ms_p99",
        "ms",
        quantile_of(&gen.closes, 0.99) / 1e6,
    );
}

/// The per-layer rows of a re-drive. `wal_segments` is the segment count
/// the live log reached (each rotation is an fsync), when the workload
/// logs.
fn ledger_metrics(m: &mut Metrics, l: &Ledger, wal_segments: Option<usize>) {
    m.put("proto.decode_ns_per_byte", "ns/B", l.decode_ns_per_byte);
    m.put("proto.bytes_in_per_sample", "B", l.bytes_in_per_sample);
    m.put(
        "proto.dequantize_ns_per_sample",
        "ns",
        l.dequantize_ns_per_sample,
    );
    m.put(
        "proto.outcome_encode_ns_per_beat",
        "ns",
        l.outcome_encode_ns_per_beat,
    );
    m.put("proto.bytes_out_per_beat", "B", l.bytes_out_per_beat);
    m.put("wal.append_ns_per_sample", "ns", l.wal_append_ns_per_sample);
    m.put(
        "wal.syncs",
        "count",
        wal_segments.map_or(0.0, |n| n.saturating_sub(1) as f64),
    );
    m.put("wal.sync_p99_us", "us", l.wal_sync_p99_us);
    m.put("wal.bytes_per_sample", "B", l.wal_bytes_per_sample);
    m.put("wal.scan_ns_per_sample", "ns", l.wal_scan_ns_per_sample);
    m.put("hub.ingest_ns_per_sample", "ns", l.hub_ingest_ns_per_sample);
    m.put("hub.ingest_calls", "count", l.hub_ingest_calls as f64);
    m.put(
        "hub.sessions_per_ingest",
        "count",
        l.hub_sessions_per_ingest,
    );
    m.put("hub.parallel_speedup", "ratio", l.hub_parallel_speedup);
    m.put(
        "hub.calibrate_us_per_session",
        "us",
        l.hub_calibrate_us_per_session,
    );
    m.put("hub.close_us_per_session", "us", l.hub_close_us_per_session);
    m.put(
        "firmware.push_ns_per_sample",
        "ns",
        l.firmware_push_ns_per_sample,
    );
    m.put(
        "firmware.beats_per_ksample",
        "count",
        ratio(l.beats as f64 * 1e3, l.samples as f64),
    );
    m.put(
        "firmware.forwarded_frac",
        "ratio",
        ratio(l.forwarded as f64, l.beats as f64),
    );
    m.put("dsp.baseline_ns_per_sample", "ns", l.baseline_ns_per_sample);
    m.put("dsp.wavelet_ns_per_sample", "ns", l.wavelet_ns_per_sample);
    m.put(
        "dsp.peak_scan_ns_per_sample",
        "ns",
        l.peak_scan_ns_per_sample,
    );
    m.put(
        "dsp.windowing_ns_per_sample",
        "ns",
        l.windowing_ns_per_sample,
    );
    m.put("rp.prepare_ns_per_beat", "ns", l.prepare_ns_per_beat);
    m.put("rp.project_ns_per_beat", "ns", l.project_ns_per_beat);
    m.put("nfc.classify_ns_per_beat", "ns", l.classify_ns_per_beat);
    m.put(
        "delin.ns_per_forwarded_beat",
        "ns",
        l.delin_ns_per_forwarded_beat,
    );
    m.put("ledger.ns_per_sample", "ns", l.ledger_ns_per_sample);
}

/// The gateway's own stage telemetry (`hbc_stage_*`), normalised like the
/// benchmark's rows so the two can be compared.
fn obs_stage_metrics(m: &mut Metrics, snap: &heartbeat_rp::hbc_obs::MetricsSnapshot, samples: f64) {
    let sum = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum() as f64);
    let per = |name: &str| {
        snap.histogram(name)
            .map_or(0.0, |h| ratio(h.sum() as f64, h.count() as f64))
    };
    m.put(
        "obs.stage_conditioning_ns_per_sample",
        "ns",
        ratio(sum("hbc_stage_conditioning_nanos"), samples),
    );
    m.put(
        "obs.stage_projection_ns_per_beat",
        "ns",
        per("hbc_stage_projection_nanos"),
    );
    m.put(
        "obs.stage_classify_ns_per_beat",
        "ns",
        per("hbc_stage_classify_nanos"),
    );
    m.put(
        "obs.stage_delineation_ns_per_forwarded_beat",
        "ns",
        per("hbc_stage_delineation_nanos"),
    );
}

/// Per-layer metrics that the offline workload does not touch (network,
/// reactor, sessions, log writes) are reported as 0.
fn replay_traced(args: &Args, threads: usize, work: &Path) -> Outcome {
    let prep = prepare(Workload::Replay, args.seed, threads, work);
    print_inputs(Workload::Replay, args.seed, &prep.pool);
    let half = args.seconds / 2.0;
    let run_a = replay::run(work, &prep.firmware, &prep.pool, &REPLAY_LOG, half, None);
    let mut tracer = Tracer::new(Instant::now());
    let run_b = replay::run(
        work,
        &prep.firmware,
        &prep.pool,
        &REPLAY_LOG,
        half,
        Some(&mut tracer),
    );
    let caps =
        captured((0..REPLAY_LOG.sessions).map(|i| (i as u32 + 1, &prep.pool[i % prep.pool.len()])));
    let l = ledger::redrive(
        &prep.firmware,
        &caps,
        None,
        WalUse::Scan(work, prep.log_samples),
        &mut tracer,
    );
    let attempted = run_a.attempted + run_b.attempted;
    let missing = run_a.missing + run_b.missing;
    let mismatched = run_a.mismatched + run_b.mismatched;
    report_verify(attempted, missing, mismatched);
    let call =
        |r: &replay::ReplayRun| median(&r.calls.iter().map(|&c| c as f64).collect::<Vec<_>>());
    let cpu_a = ratio(
        run_a.cpu_ns as f64,
        (run_a.samples_per_call * run_a.calls.len()) as f64,
    );
    let mut m = Metrics::default();
    for name in [
        "client.send_lag_p99_ms",
        "client.credit_wait_frac",
        "gateway.sweeps",
        "gateway.sweep_p50_us",
        "gateway.sweep_p99_us",
        "gateway.idle_sweep_frac",
        "gateway.busy_frac",
        "gateway.frames_in",
        "gateway.frames_out",
        "gateway.samples_shed",
        "gateway.busy_replies",
        "session.open_ms_p50",
        "session.close_ms_p99",
        "gateway.ingest_calls",
    ] {
        m.put(name, unit_of(name), 0.0);
    }
    // Every beat of a call is delivered when the call returns.
    let calls_ms: Vec<f64> = run_a.calls.iter().map(|&ns| ns as f64 / 1e6).collect();
    m.put("client.beat_latency_p50_ms", "ms", median(&calls_ms));
    m.put(
        "client.beat_latency_p99_ms",
        "ms",
        quantile_of(&calls_ms, 0.99),
    );
    ledger_metrics(&mut m, &l, None);
    m.put("obs.headline_count_ratio", "ratio", 0.0);
    obs_stage_metrics(&mut m, &heartbeat_rp::hbc_obs::MetricsSnapshot::new(), 0.0);
    m.put(
        "ledger.closure",
        "ratio",
        ratio(l.ledger_ns_per_sample, cpu_a),
    );
    m.put(
        "trace.overhead_frac",
        "ratio",
        ratio(call(&run_b), call(&run_a)) - 1.0,
    );
    if !l.mismatched_layers.is_empty() {
        eprintln!(
            "e2ebench: re-drive layers disagree with the reference: {:?}",
            l.mismatched_layers
        );
    }
    Outcome {
        correct: mismatched == 0 && l.mismatched_layers.is_empty(),
        attempted,
        failed: missing + mismatched,
        metrics: m,
        tracer: Some(tracer),
    }
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.ends_with("_ms_p50") || name.ends_with("_ms_p99") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_frac") {
        "ratio"
    } else {
        "count"
    }
}
