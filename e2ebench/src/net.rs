//! The loopback workloads: a real `hbc_net::Gateway` fed by `NodeClient`
//! generator threads, one connection each, several sessions per connection.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use heartbeat_rp::hbc_embedded::WbsnFirmware;
use heartbeat_rp::hbc_net::{
    Gateway, GatewayConfig, GatewayStats, NetError, NodeClient, WireOutcome,
};
use heartbeat_rp::hbc_obs::MetricsSnapshot;
use heartbeat_rp::hbc_wal::WalConfig;

use crate::setup::{Stream, CALIB_LEN, FS};
use crate::stats::{task_cpu_ns, StealLog};
use crate::trace::Tracer;

/// How generators pace their frames.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Closed loop: each sender streams as fast as credit allows.
    Closed,
    /// Open loop: every session sends one frame per `period`, on a fixed
    /// schedule; first opens are spread evenly over `stagger`.
    Paced { period: Duration, stagger: Duration },
}

/// Load shape of one network workload.
#[derive(Debug, Clone, Copy)]
pub struct NetShape {
    /// Connections, one generator thread each.
    pub connections: usize,
    /// Sessions multiplexed per connection.
    pub sessions_per_conn: usize,
    /// Samples per `Samples` frame.
    pub frame: usize,
    pub pacing: Pacing,
    /// Durable ingest log on, with the default sync policy.
    pub wal: bool,
    /// Load before the timed window opens (calibration and first-open
    /// transients are left out of every statistic).
    pub warmup: Duration,
    /// Latency statistics stop this long before the load stops, so beats
    /// delivered by the final closes are not counted as slow.
    pub tail: Duration,
}

/// One session as a generator saw it.
#[derive(Debug, Clone)]
pub struct SessionLog {
    /// Pool record streamed.
    pub rec: usize,
    /// Wire session id.
    pub wire: u32,
    /// Samples sent (a whole number of frames, or the whole record).
    pub sent: usize,
    /// Closed before the end of its record because the load stopped.
    pub truncated: bool,
    /// Per frame: its scheduled send time (paced) or actual send start
    /// (closed), in ns since the load epoch.
    pub frame_times: Vec<u64>,
    /// Outcomes delivered over the wire, in order.
    pub delivered: Vec<WireOutcome>,
    /// Per delivered outcome: when the generator first saw it.
    pub receipts: Vec<u64>,
    /// The gateway's final report arrived.
    pub clean: bool,
}

/// Generator-side counters of one pass.
#[derive(Debug, Default)]
pub struct GenStats {
    /// Lateness of each send against its schedule (ns), for sends due in
    /// the timed window.
    pub lags: Vec<f64>,
    /// Time spent in sends that started without enough credit.
    pub credit_wait_ns: u64,
    /// Wall time the generator threads ran, summed.
    pub wall_ns: u64,
    /// `open_session` / `close_session` round trips (ns).
    pub opens: Vec<f64>,
    pub closes: Vec<f64>,
    /// CPU the generator threads used.
    pub cpu_ns: u64,
    /// Transport errors (each ends its generator early).
    pub errors: Vec<String>,
}

/// Gateway-side result of one pass.
#[derive(Debug)]
pub struct GatewaySide {
    pub stats: GatewayStats,
    pub metrics: MetricsSnapshot,
    /// Traced passes only: per `Gateway::poll` call, (duration ns, progress).
    pub polls: Vec<(u64, bool)>,
    /// Durable-log segment files at the end of the pass.
    pub wal_segments: usize,
}

/// Everything one loopback pass produced.
#[derive(Debug)]
pub struct Pass {
    /// Sessions scored as they closed over their whole record, so their
    /// outcome streams are not kept (peak memory stays that of the
    /// gateway, not of the benchmark's bookkeeping).
    pub scored: Eval,
    /// `(wire id, pool record)` of those sessions.
    pub completed: Vec<(u32, usize)>,
    /// Sessions left to score: cut short by the end of the load, or by a
    /// transport error.
    pub sessions: Vec<SessionLog>,
    pub gen: GenStats,
    pub gateway: GatewaySide,
    /// Timed window, ns since the load epoch.
    pub t_warm: u64,
    pub t_end: u64,
    /// CPU the gateway thread used over the timed window. It is all the
    /// CPU the program under test uses: the process runs on one CPU, where
    /// the hub's `hbc-par` runner works in the calling thread.
    pub cpu_ns: u64,
    /// The host's steal time of the benchmark's CPU through the timed
    /// window, sampled every `STEAL_SAMPLE`.
    pub steal: StealLog,
    /// Spans of every thread (traced passes only).
    pub tracer: Option<Tracer>,
}

/// Binds a gateway on an ephemeral loopback port, logging to `wal_dir`
/// when the shape logs.
pub fn bind<'fw>(firmware: &'fw WbsnFirmware, shape: &NetShape, wal_dir: &Path) -> Gateway<'fw> {
    let config = GatewayConfig {
        wal: shape.wal.then(|| WalConfig::new(wal_dir)),
        ..GatewayConfig::default()
    };
    Gateway::bind("127.0.0.1:0", firmware, FS, config).expect("loopback gateway binds")
}

/// Runs one pass of `timed` seconds after the shape's warm-up against an
/// already bound gateway.
pub fn run_pass(
    gateway: Gateway<'_>,
    pool: &[Stream],
    shape: &NetShape,
    timed: Duration,
    traced: bool,
    wal_dir: &Path,
) -> Pass {
    let addr = gateway.local_addr().expect("bound gateway has an address");
    let shutdown = AtomicBool::new(false);
    let gateway_tid = AtomicU32::new(0);
    let t_warm = shape.warmup.as_nanos() as u64;
    let t_end = t_warm + timed.as_nanos() as u64;
    std::thread::scope(|scope| {
        let gateway_thread = scope.spawn(|| {
            let tid = crate::stats::current_tid().expect("the gateway thread has an id");
            gateway_tid.store(tid, Ordering::Release);
            serve(gateway, &shutdown, traced)
        });
        let clients: Vec<NodeClient> = (0..shape.connections)
            .map(|_| NodeClient::connect(addr).expect("generator connects"))
            .collect();
        let epoch = Instant::now();
        let total_slots = shape.connections * shape.sessions_per_conn;
        let generators: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let slots: Vec<usize> =
                    (c * shape.sessions_per_conn..(c + 1) * shape.sessions_per_conn).collect();
                let gen = Generator {
                    client,
                    pool,
                    shape: *shape,
                    tracer: Tracer::new(epoch),
                    traced,
                    t_warm,
                    t_end,
                    total_slots,
                    next_session: slots.clone(),
                    slots,
                    live: HashMap::new(),
                    done: Done::default(),
                    stats: GenStats::default(),
                };
                scope.spawn(move || gen.run())
            })
            .collect();
        sleep_until(epoch, t_warm);
        let tid = gateway_tid.load(Ordering::Acquire);
        assert_ne!(tid, 0, "the gateway thread started during the warm-up");
        let cpu0 = task_cpu_ns(tid);
        let mut steal = StealLog::default();
        steal.sample(t_warm);
        let mut at = t_warm;
        while at < t_end {
            at = (at + STEAL_SAMPLE.as_nanos() as u64).min(t_end);
            sleep_until(epoch, at);
            steal.sample(at);
        }
        let cpu1 = task_cpu_ns(tid);
        let mut sessions = Vec::new();
        let mut scored = Eval::default();
        let mut completed = Vec::new();
        let mut gen = GenStats::default();
        let mut tracer = Tracer::new(epoch);
        for g in generators {
            let (done, stats, tr) = g.join().expect("generator thread");
            sessions.extend(done.logs);
            scored.merge(done.scored);
            completed.extend(done.completed);
            gen.lags.extend(stats.lags);
            gen.credit_wait_ns += stats.credit_wait_ns;
            gen.wall_ns += stats.wall_ns;
            gen.cpu_ns += stats.cpu_ns;
            gen.opens.extend(stats.opens);
            gen.closes.extend(stats.closes);
            gen.errors.extend(stats.errors);
            tracer.absorb(tr);
        }
        shutdown.store(true, Ordering::Release);
        let (mut side, gw_tracer) = gateway_thread.join().expect("gateway thread");
        side.wal_segments = count_segments(wal_dir);
        if let Some(t) = gw_tracer {
            tracer.absorb(t);
        }
        Pass {
            scored,
            completed,
            sessions,
            gen,
            gateway: side,
            t_warm,
            t_end,
            cpu_ns: cpu1.saturating_sub(cpu0),
            steal,
            tracer: traced.then_some(tracer),
        }
    })
}

/// How often a pass samples the host's steal time.
const STEAL_SAMPLE: Duration = Duration::from_millis(50);

fn sleep_until(epoch: Instant, at_ns: u64) {
    let now = epoch.elapsed().as_nanos() as u64;
    if at_ns > now {
        std::thread::sleep(Duration::from_nanos(at_ns - now));
    }
}

fn count_segments(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
            .count()
    })
}

/// The reactor thread. Untraced passes use `run_with_report`; traced ones
/// drive `Gateway::poll` from here, with `run`'s idle sleep, so every
/// sweep gets a span.
fn serve(
    mut gateway: Gateway<'_>,
    shutdown: &AtomicBool,
    traced: bool,
) -> (GatewaySide, Option<Tracer>) {
    if !traced {
        let report = gateway
            .run_with_report(shutdown)
            .expect("gateway reactor runs");
        return (
            GatewaySide {
                stats: report.stats,
                metrics: report.metrics,
                polls: Vec::new(),
                wal_segments: 0,
            },
            None,
        );
    }
    let mut tracer = Tracer::new(Instant::now());
    let mut polls = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        tracer.begin("gateway.poll", 0);
        let progress = gateway.poll().expect("gateway sweep");
        let ns = tracer.end();
        polls.push((ns, progress));
        if !progress {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    (
        GatewaySide {
            stats: gateway.stats().clone(),
            metrics: gateway.metrics_snapshot(),
            polls,
            wal_segments: 0,
        },
        Some(tracer),
    )
}

/// A live session inside a generator.
struct Live {
    log: SessionLog,
    pos: usize,
}

struct Generator<'a> {
    client: NodeClient,
    pool: &'a [Stream],
    shape: NetShape,
    tracer: Tracer,
    traced: bool,
    t_warm: u64,
    t_end: u64,
    total_slots: usize,
    /// Global slot ids this generator owns.
    slots: Vec<usize>,
    /// Per local slot: the next session number (slot, slot + total, ...)
    /// which picks its pool record.
    next_session: Vec<usize>,
    live: HashMap<usize, Live>,
    done: Done,
    stats: GenStats,
}

/// Sessions a generator finished.
#[derive(Debug, Default)]
struct Done {
    scored: Eval,
    completed: Vec<(u32, usize)>,
    logs: Vec<SessionLog>,
}

impl Generator<'_> {
    fn run(mut self) -> (Done, GenStats, Tracer) {
        let started = self.tracer.now();
        let cpu0 = crate::stats::thread_cpu_ns();
        let result = match self.shape.pacing {
            Pacing::Closed => self.run_closed(),
            Pacing::Paced { period, stagger } => self.run_paced(period, stagger),
        };
        let stopped = match result {
            Ok(()) => self.close_all(),
            Err(e) => Err(e),
        };
        if let Err(e) = stopped {
            self.stats.errors.push(e.to_string());
            // Whatever arrived before the error is all the session got.
            for (_, mut l) in std::mem::take(&mut self.live) {
                l.log.truncated = l.pos < self.pool[l.log.rec].codes.len();
                l.log.delivered = self
                    .client
                    .outcomes(l.log.wire)
                    .iter()
                    .map(WireOutcome::from_outcome)
                    .collect();
                l.log.receipts.resize(l.log.delivered.len(), u64::MAX);
                self.done.logs.push(l.log);
            }
        }
        self.stats.wall_ns = self.tracer.now() - started;
        self.stats.cpu_ns = crate::stats::thread_cpu_ns() - cpu0;
        (self.done, self.stats, self.tracer)
    }

    fn open(&mut self, local: usize) -> Result<(), NetError> {
        let rec = self.next_session[local] % self.pool.len();
        self.next_session[local] += self.total_slots;
        let t0 = self.tracer.now();
        let wire = self
            .client
            .open_session(self.slots[local] as u32, FS, CALIB_LEN as u32)?;
        let t1 = self.tracer.now();
        self.stats.opens.push((t1 - t0) as f64);
        if self.traced {
            self.tracer.record("client.open", t0, t1, u64::from(wire));
        }
        self.live.insert(
            local,
            Live {
                log: SessionLog {
                    rec,
                    wire,
                    sent: 0,
                    truncated: false,
                    frame_times: Vec::new(),
                    delivered: Vec::new(),
                    receipts: Vec::new(),
                    clean: false,
                },
                pos: 0,
            },
        );
        Ok(())
    }

    /// Sends the session's next frame; `due` is its schedule (or `None` in
    /// a closed loop). Closes the session after its last frame.
    fn send(&mut self, local: usize, due: Option<u64>) -> Result<bool, NetError> {
        let frame = self.shape.frame;
        let pool = self.pool;
        let l = self.live.get_mut(&local).expect("sending on a live slot");
        let codes = &pool[l.log.rec].codes;
        let end = (l.pos + frame).min(codes.len());
        let chunk = &codes[l.pos..end];
        let wire = l.log.wire;
        let short_of_credit = self.client.credit(wire) < chunk.len();
        let t0 = self.tracer.now();
        let scheduled = due.unwrap_or(t0);
        if due.is_some() && scheduled >= self.t_warm && scheduled < self.t_end {
            self.stats.lags.push(t0.saturating_sub(scheduled) as f64);
        }
        l.log.frame_times.push(scheduled);
        l.pos = end;
        l.log.sent = end;
        let done = end == codes.len();
        self.client.send_adc(wire, chunk)?;
        let t1 = self.tracer.now();
        if short_of_credit {
            self.stats.credit_wait_ns += t1 - t0;
        }
        if self.traced {
            self.tracer.record("client.send", t0, t1, u64::from(wire));
        }
        self.note_receipts();
        if done {
            self.close(local)?;
        }
        Ok(done)
    }

    fn close(&mut self, local: usize) -> Result<(), NetError> {
        let l = self.live.get(&local).expect("closing a live slot");
        let wire = l.log.wire;
        let t0 = self.tracer.now();
        let summary = self.client.close_session(wire)?;
        let t1 = self.tracer.now();
        self.stats.closes.push((t1 - t0) as f64);
        if self.traced {
            self.tracer.record("client.close", t0, t1, u64::from(wire));
        }
        let mut l = self.live.remove(&local).expect("checked above");
        l.log.truncated = l.pos < self.pool[l.log.rec].codes.len();
        l.log.delivered = summary
            .outcomes
            .iter()
            .map(WireOutcome::from_outcome)
            .collect();
        l.log.receipts.resize(l.log.delivered.len(), t1);
        l.log.clean = true;
        if l.log.truncated {
            self.done.logs.push(l.log);
        } else {
            let stream = &self.pool[l.log.rec];
            let window = Window::of(&self.shape, self.t_warm, self.t_end);
            window.score(
                &l.log,
                stream,
                &stream.reference,
                &stream.anchors,
                &mut self.done.scored,
            );
            self.done.completed.push((l.log.wire, l.log.rec));
        }
        Ok(())
    }

    /// Stamps outcomes that arrived since the last look.
    fn note_receipts(&mut self) {
        let now = self.tracer.now();
        for l in self.live.values_mut() {
            let n = self.client.outcomes(l.log.wire).len();
            if n > l.log.receipts.len() {
                if self.traced {
                    self.tracer
                        .record("client.receipt", now, now, u64::from(l.log.wire));
                }
                l.log.receipts.resize(n, now);
            }
        }
    }

    fn close_all(&mut self) -> Result<(), NetError> {
        let mut locals: Vec<usize> = self.live.keys().copied().collect();
        locals.sort_unstable();
        for local in locals {
            self.close(local)?;
        }
        Ok(())
    }

    fn run_closed(&mut self) -> Result<(), NetError> {
        for local in 0..self.slots.len() {
            self.open(local)?;
        }
        while self.tracer.now() < self.t_end {
            for local in 0..self.slots.len() {
                if self.send(local, None)? {
                    self.open(local)?;
                }
            }
        }
        Ok(())
    }

    fn run_paced(&mut self, period: Duration, stagger: Duration) -> Result<(), NetError> {
        let period = period.as_nanos() as u64;
        let stagger = stagger.as_nanos() as u64;
        let mut due: BinaryHeap<Reverse<(u64, usize)>> = (0..self.slots.len())
            .map(|local| {
                Reverse((
                    stagger * self.slots[local] as u64 / self.total_slots as u64,
                    local,
                ))
            })
            .collect();
        while let Some(&Reverse((at, local))) = due.peek() {
            if at >= self.t_end {
                break;
            }
            let now = self.tracer.now();
            if now < at {
                self.client.pump()?;
                self.note_receipts();
                // Wait by yielding, not sleeping: the CPU never idles, so
                // neither the gateway's wake-ups nor the sends pay a
                // virtual CPU's wake-up delay on a busy host, and the
                // gateway runs the moment it is ready.
                std::thread::yield_now();
                continue;
            }
            due.pop();
            if !self.live.contains_key(&local) {
                // A new session's first frame is due the moment it opens.
                self.open(local)?;
                due.push(Reverse((at, local)));
            } else {
                // After a session's last frame it closes; the slot reopens
                // one period later.
                self.send(local, Some(at))?;
                due.push(Reverse((at + period, local)));
            }
        }
        Ok(())
    }
}

/// Verification and latency of one pass.
#[derive(Debug, Default)]
pub struct Eval {
    /// Beats the reference expects over every session of the pass.
    pub attempted: u64,
    /// Expected beats never delivered.
    pub missing: u64,
    /// Delivered beats that differ from the reference (or were not
    /// expected at all).
    pub mismatched: u64,
    /// `(anchor frame time in µs after the window opens, latency ms)` for
    /// beats anchored in the latency window; a failed beat is infinitely
    /// late.
    pub latencies: Vec<(u32, f32)>,
    /// Samples sent in the timed window by sessions whose every outcome was
    /// delivered and verified.
    pub verified_window_samples: u64,
}

impl Eval {
    fn merge(&mut self, other: Eval) {
        self.attempted += other.attempted;
        self.missing += other.missing;
        self.mismatched += other.mismatched;
        self.latencies.extend(other.latencies);
        self.verified_window_samples += other.verified_window_samples;
    }
}

/// The timed window a session is scored against.
struct Window {
    t_warm: u64,
    t_end: u64,
    /// Latency statistics end here.
    latency_end: u64,
    frame: usize,
}

impl Window {
    fn of(shape: &NetShape, t_warm: u64, t_end: u64) -> Self {
        Window {
            t_warm,
            t_end,
            latency_end: t_end.saturating_sub(shape.tail.as_nanos() as u64),
            frame: shape.frame,
        }
    }

    /// Checks one session's delivered outcomes against `expected` (with
    /// its beats' raw anchors) and adds its beats and latencies to `ev`.
    fn score(
        &self,
        s: &SessionLog,
        stream: &Stream,
        expected: &[WireOutcome],
        anchors: &[usize],
        ev: &mut Eval,
    ) {
        let good = |j: usize| s.delivered.get(j) == expected.get(j);
        let missing = expected.len().saturating_sub(s.delivered.len());
        let mismatched = (0..s.delivered.len()).filter(|&j| !good(j)).count();
        ev.attempted += expected.len() as u64;
        ev.missing += missing as u64;
        ev.mismatched += mismatched as u64;
        for (j, &raw) in anchors.iter().enumerate() {
            let frame = crate::setup::latency_anchor(raw) / self.frame;
            let Some(&at) = s.frame_times.get(frame) else {
                continue;
            };
            if at < self.t_warm || at >= self.latency_end {
                continue;
            }
            let latency = match s.receipts.get(j) {
                Some(&r) if good(j) && r != u64::MAX => r.saturating_sub(at) as f32 / 1e6,
                _ => f32::INFINITY,
            };
            ev.latencies
                .push((((at - self.t_warm) / 1_000) as u32, latency));
        }
        if missing == 0 && mismatched == 0 && s.clean {
            let codes = stream.codes.len();
            ev.verified_window_samples += s
                .frame_times
                .iter()
                .enumerate()
                .filter(|(_, &t)| t >= self.t_warm && t < self.t_end)
                .map(|(k, _)| (codes.min((k + 1) * self.frame) - k * self.frame) as u64)
                .sum::<u64>();
        }
    }
}

/// Completes the pass's verification: the sessions scored as they closed,
/// plus the rest. A session the load cut short is checked against an exact
/// reference of the prefix it sent.
pub fn evaluate(
    pass: &mut Pass,
    pool: &[Stream],
    shape: &NetShape,
    firmware: &WbsnFirmware,
) -> Eval {
    let mut prefixes: Vec<(usize, usize)> = pass
        .sessions
        .iter()
        .filter(|s| s.truncated)
        .map(|s| (s.rec, s.sent))
        .collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    let refs = prefix_references(firmware, pool, &prefixes);
    let window = Window::of(shape, pass.t_warm, pass.t_end);
    let mut ev = std::mem::take(&mut pass.scored);
    for s in &pass.sessions {
        let stream = &pool[s.rec];
        if s.truncated {
            let (o, a) = &refs[&(s.rec, s.sent)];
            window.score(s, stream, o, a, &mut ev);
        } else {
            window.score(s, stream, &stream.reference, &stream.anchors, &mut ev);
        }
    }
    ev
}

/// Exact references for the `(record, prefix length)` pairs, computed on
/// two workers.
fn prefix_references(
    firmware: &WbsnFirmware,
    pool: &[Stream],
    prefixes: &[(usize, usize)],
) -> HashMap<(usize, usize), (Vec<WireOutcome>, Vec<usize>)> {
    let mut out = HashMap::new();
    if prefixes.is_empty() {
        return out;
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = prefixes
            .chunks(prefixes.len().div_ceil(2))
            .map(|part| {
                scope.spawn(move || {
                    let hub = heartbeat_rp::StreamHub::with_threads(
                        firmware,
                        FS,
                        std::num::NonZeroUsize::new(1),
                    );
                    part.iter()
                        .map(|&(rec, sent)| {
                            (
                                (rec, sent),
                                crate::setup::reference(&hub, &pool[rec].codes[..sent]),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            out.extend(w.join().expect("reference worker"));
        }
    });
    out
}

/// Width of one latency window.
const LATENCY_WINDOW_NS: u64 = 1_000_000_000;

impl Eval {
    /// Latency quantile `q` over the beats anchored in the calmest of the
    /// pass's steal-sampling intervals (see `stats::calm_quantile`), and the
    /// share of beats that kept. A beat the host delays by descheduling
    /// the benchmark's CPU for milliseconds says nothing about the program,
    /// and how often that happens differs from run to run; a slower gateway
    /// raises the calm beats' latency with the rest.
    pub fn calm_quantile(&self, pass: &Pass, q: f64) -> (f64, f64) {
        let values: Vec<(usize, f64)> = self
            .latencies
            .iter()
            .filter_map(|&(at_us, ms)| {
                let at = pass.t_warm + u64::from(at_us) * 1_000;
                Some((pass.steal.interval_of(at)?, f64::from(ms)))
            })
            .collect();
        crate::stats::calm_quantile(&values, &pass.steal.per_interval(), q)
    }

    /// Latency quantile `q` of each whole one-second window, in order.
    pub fn window_quantiles(&self, pass: &Pass, tail: Duration, q: f64) -> Vec<f64> {
        let end = pass.t_end.saturating_sub(tail.as_nanos() as u64);
        let windows = (end.saturating_sub(pass.t_warm) / LATENCY_WINDOW_NS).max(1) as usize;
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for &(at_us, ms) in &self.latencies {
            let w = (u64::from(at_us) * 1_000 / LATENCY_WINDOW_NS) as usize;
            if let Some(v) = per.get_mut(w) {
                v.push(f64::from(ms));
            }
        }
        per.iter()
            .filter(|v| !v.is_empty())
            .map(|v| crate::stats::quantile_of(v, q))
            .collect()
    }
}
