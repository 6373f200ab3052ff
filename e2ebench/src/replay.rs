//! The offline workload: a segment log of many short sessions, re-scored
//! by `hbc_net::replay_log`. No network and no reactor; the log is read
//! rather than written, and every stream enters the hub as one chunk.

use std::path::Path;
use std::time::Instant;

use heartbeat_rp::hbc_embedded::WbsnFirmware;
use heartbeat_rp::hbc_net::{replay_log, WireOutcome};
use heartbeat_rp::hbc_wal::{Wal, WalConfig, WalRecord};

use crate::setup::{Stream, CALIB_LEN, FS};
use crate::trace::Tracer;

/// Shape of the logged traffic.
#[derive(Debug, Clone, Copy)]
pub struct LogShape {
    /// Sessions logged; session `i` streams pool record `i % pool`.
    pub sessions: usize,
    /// Samples per logged chunk.
    pub chunk: usize,
    /// Sessions open at once while the log is written, their chunks
    /// interleaved as a gateway would log them.
    pub concurrent: usize,
}

/// Writes the log with `Wal::append` and returns the samples it holds.
pub fn write_log(dir: &Path, pool: &[Stream], shape: &LogShape) -> usize {
    let (mut wal, _) = Wal::open(WalConfig::new(dir)).expect("fresh log opens");
    let mut append = |rec: WalRecord| {
        wal.append(&rec).expect("log append");
    };
    let mut samples = 0;
    for group in (0..shape.sessions)
        .collect::<Vec<_>>()
        .chunks(shape.concurrent)
    {
        for &i in group {
            append(WalRecord::SessionOpen {
                token: i as u64 + 1,
                wire_id: i as u32 + 1,
                patient_id: i as u32,
                calib_len: CALIB_LEN as u32,
                fs_millihertz: (FS * 1000.0) as u32,
            });
        }
        let mut seq = 0u32;
        loop {
            let mut any = false;
            for &i in group {
                let codes = &pool[i % pool.len()].codes;
                let at = seq as usize * shape.chunk;
                if at >= codes.len() {
                    continue;
                }
                let end = (at + shape.chunk).min(codes.len());
                append(WalRecord::Samples {
                    token: i as u64 + 1,
                    seq,
                    codes: codes[at..end].to_vec(),
                });
                samples += end - at;
                any = true;
                if end == codes.len() {
                    append(WalRecord::SessionClose {
                        token: i as u64 + 1,
                    });
                }
            }
            if !any {
                break;
            }
            seq += 1;
        }
    }
    samples
}

/// Result of the repeated replay calls of one pass.
#[derive(Debug, Default)]
pub struct ReplayRun {
    /// Wall time of each `replay_log` call (ns).
    pub calls: Vec<u64>,
    /// The host's steal time of the benchmark's CPU during each call (ns).
    pub stolen: Vec<u64>,
    /// Samples and beats one call re-scores.
    pub samples_per_call: usize,
    pub beats_per_call: usize,
    pub attempted: u64,
    pub missing: u64,
    pub mismatched: u64,
    /// Process CPU over the calls.
    pub cpu_ns: u64,
}

/// Calls `replay_log` until the calls have taken `seconds` (at least two
/// calls), checking every call's outcomes against the reference outside
/// the timed call.
pub fn run(
    dir: &Path,
    firmware: &WbsnFirmware,
    pool: &[Stream],
    shape: &LogShape,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> ReplayRun {
    let mut out = ReplayRun {
        samples_per_call: (0..shape.sessions)
            .map(|i| pool[i % pool.len()].codes.len())
            .sum(),
        beats_per_call: (0..shape.sessions)
            .map(|i| pool[i % pool.len()].reference.len())
            .sum(),
        ..ReplayRun::default()
    };
    let budget = (seconds * 1e9) as u64;
    while out.calls.len() < 2 || out.calls.iter().sum::<u64>() < budget {
        let cpu0 = crate::stats::process_cpu_ns();
        let steal0 = crate::stats::cpu_steal_ns();
        let report = match tracer.as_deref_mut() {
            Some(tr) => {
                tr.begin("replay.call", out.calls.len() as u64);
                let report = replay_log(dir, firmware, None);
                out.calls.push(tr.end());
                report
            }
            None => {
                let t0 = Instant::now();
                let report = replay_log(dir, firmware, None);
                out.calls.push(t0.elapsed().as_nanos() as u64);
                report
            }
        }
        .expect("log replays");
        out.stolen
            .push(crate::stats::cpu_steal_ns().saturating_sub(steal0));
        out.cpu_ns += crate::stats::process_cpu_ns() - cpu0;
        for (i, session) in report.sessions.iter().enumerate() {
            let expected = &pool[i % pool.len()].reference;
            let got: Vec<WireOutcome> = session
                .outcomes
                .iter()
                .map(WireOutcome::from_outcome)
                .collect();
            out.attempted += expected.len() as u64;
            out.missing += expected.len().saturating_sub(got.len()) as u64;
            out.mismatched += (0..got.len())
                .filter(|&j| got.get(j) != expected.get(j))
                .count() as u64;
        }
        let logged = report.sessions.len();
        for i in logged..shape.sessions {
            out.attempted += pool[i % pool.len()].reference.len() as u64;
            out.missing += pool[i % pool.len()].reference.len() as u64;
        }
    }
    out
}
