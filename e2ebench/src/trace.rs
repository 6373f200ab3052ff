//! The benchmark's own spans: recorded around calls into each layer, kept
//! in memory and written out once the run ends.

use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the shared epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Session (or beat) the span belongs to; 0 when none.
    pub id: u64,
}

/// A single-threaded span recorder. Each thread owns one; they share an
/// epoch so their spans merge onto one timeline.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn end(&mut self) -> u64 {
        let idx = self.stack.pop().expect("end matches a begin");
        let end = self.now();
        self.spans[idx].end = end;
        end - self.spans[idx].start
    }

    /// Records a span that was timed by the caller.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, id: u64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.stack.last().copied(),
            id,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Durations of the spans called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Self time of the spans called `name`: their durations minus the
    /// time their direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end - s.start).saturating_sub(*c))
            .sum()
    }

    /// Writes the spans as tab-separated lines
    /// (`index name start_ns end_ns parent id`).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.begin("outer", 0);
        t.record("inner", 10, 30, 0);
        t.record("inner", 40, 45, 0);
        t.end();
        t.spans[0].start = 0;
        t.spans[0].end = 100;
        assert_eq!(t.self_ns("outer"), 75);
        assert_eq!(t.self_ns("inner"), 25);
        assert_eq!(t.total_ns("outer"), 100);
        let mut u = Tracer::new(Instant::now());
        u.absorb(t);
        assert_eq!(u.spans[1].parent, Some(0));
    }
}
