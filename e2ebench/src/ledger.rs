//! The layer-by-layer re-drive: the inputs a pass captured are pushed again
//! through each crate's public entry points, one layer at a time, under the
//! benchmark's own spans. Every layer that produces outcomes must reproduce
//! the reference exactly, or the run fails.

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::path::Path;

use heartbeat_rp::hbc_dsp::peak::{PeakDetector, PeakThresholds};
use heartbeat_rp::hbc_dsp::streaming::{
    StreamingBaselineFilter, StreamingBeatWindower, StreamingWavelet,
};
use heartbeat_rp::hbc_dsp::{Delineator, StreamingPeakDetector};
use heartbeat_rp::hbc_embedded::firmware::BeatOutcome;
use heartbeat_rp::hbc_embedded::{StreamingFirmware, WbsnFirmware};
use heartbeat_rp::hbc_net::proto::dequantize_mv_into;
use heartbeat_rp::hbc_net::{Frame, FrameDecoder, WireOutcome};
use heartbeat_rp::hbc_wal::{Wal, WalConfig, WalRecord};
use heartbeat_rp::{SessionId, StreamHub};

use crate::setup::{CALIB_LEN, FS};
use crate::stats::ratio;
use crate::trace::Tracer;

/// Most explicit fsyncs the re-drive issues (one per round, evenly spread).
const MAX_SYNCS: usize = 64;

/// One captured session: the codes the gateway received and the reference
/// it must have produced.
#[derive(Debug, Clone, Copy)]
pub struct Captured<'a> {
    pub wire: u32,
    pub codes: &'a [i16],
    pub expected: &'a [WireOutcome],
    /// Per expected beat, its raw last contributing sample.
    pub anchors: &'a [usize],
}

/// How the workload touches the durable log.
#[derive(Debug, Clone, Copy)]
pub enum WalUse<'a> {
    Off,
    /// Append the captured traffic to a fresh log in this directory.
    Append(&'a Path),
    /// Scan this existing log, which holds this many samples.
    Scan(&'a Path, usize),
}

/// Per-layer figures of one re-drive.
#[derive(Debug, Default)]
pub struct Ledger {
    pub samples: usize,
    pub beats: usize,
    pub forwarded: usize,
    pub decode_ns_per_byte: f64,
    pub bytes_in_per_sample: f64,
    pub outcome_encode_ns_per_beat: f64,
    pub bytes_out_per_beat: f64,
    pub wal_append_ns_per_sample: f64,
    pub wal_sync_p99_us: f64,
    pub wal_bytes_per_sample: f64,
    pub wal_scan_ns_per_sample: f64,
    pub dequantize_ns_per_sample: f64,
    pub hub_ingest_ns_per_sample: f64,
    pub hub_ingest_calls: usize,
    pub hub_sessions_per_ingest: f64,
    pub hub_parallel_speedup: f64,
    pub hub_calibrate_us_per_session: f64,
    pub hub_close_us_per_session: f64,
    pub firmware_push_ns_per_sample: f64,
    pub baseline_ns_per_sample: f64,
    pub wavelet_ns_per_sample: f64,
    pub peak_scan_ns_per_sample: f64,
    pub windowing_ns_per_sample: f64,
    pub prepare_ns_per_beat: f64,
    pub project_ns_per_beat: f64,
    pub classify_ns_per_beat: f64,
    pub delin_ns_per_forwarded_beat: f64,
    /// Sum of the per-sample self-time rows.
    pub ledger_ns_per_sample: f64,
    /// Layers that produce outcomes that disagreed with the reference.
    pub mismatched_layers: Vec<&'static str>,
}

/// Splits each session into frames of `frame` samples (or one whole-stream
/// chunk) and lists them round by round: round `r` holds frame `r` of
/// every session that still has one, as one gateway sweep would stage it.
fn rounds<'a>(caps: &[Captured<'a>], frame: Option<usize>) -> Vec<Vec<(usize, u32, &'a [i16])>> {
    let chunked: Vec<Vec<&[i16]>> = caps
        .iter()
        .map(|c| match frame {
            Some(f) => c.codes.chunks(f).collect(),
            None => vec![c.codes],
        })
        .collect();
    let n = chunked.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .map(|r| {
            chunked
                .iter()
                .enumerate()
                .filter_map(|(s, frames)| frames.get(r).map(|f| (s, r as u32, *f)))
                .collect()
        })
        .collect()
}

/// Runs the re-drive. `frame` is the wire frame size (`None` when the
/// workload has no network and feeds whole streams).
pub fn redrive(
    firmware: &WbsnFirmware,
    caps: &[Captured<'_>],
    frame: Option<usize>,
    wal: WalUse<'_>,
    tr: &mut Tracer,
) -> Ledger {
    let mut l = Ledger {
        samples: caps.iter().map(|c| c.codes.len()).sum(),
        beats: caps.iter().map(|c| c.expected.len()).sum(),
        forwarded: caps
            .iter()
            .flat_map(|c| c.expected.iter())
            .filter(|o| o.delineated)
            .count(),
        ..Ledger::default()
    };
    let n = l.samples as f64;
    let rounds = rounds(caps, frame);
    tr.begin("ledger", 0);

    // Frame decode over the inbound bytes the sessions put on the wire.
    let mut streams: Vec<Vec<i16>> = vec![Vec::new(); caps.len()];
    if frame.is_some() {
        let mut bytes = Vec::new();
        let mut sample_bytes = 0usize;
        for round in &rounds {
            for &(s, seq, chunk) in round {
                let before = bytes.len();
                Frame::Samples {
                    session: caps[s].wire,
                    seq,
                    samples: chunk.to_vec(),
                }
                .encode_into(&mut bytes);
                sample_bytes += bytes.len() - before;
            }
        }
        let slots: Vec<usize> = rounds.iter().flatten().map(|&(s, _, _)| s).collect();
        tr.begin("proto.decode", 0);
        let mut decoder = FrameDecoder::new();
        let mut k = 0;
        for piece in bytes.chunks(16 * 1024) {
            decoder.feed(piece);
            while let Some(f) = decoder.next_frame().expect("re-encoded frames decode") {
                if let Frame::Samples { samples, .. } = f {
                    streams[slots[k]].extend_from_slice(&samples);
                    k += 1;
                }
            }
        }
        let ns = tr.end();
        l.decode_ns_per_byte = ratio(ns as f64, bytes.len() as f64);
        l.bytes_in_per_sample = ratio(sample_bytes as f64, n);
    } else {
        for (s, c) in caps.iter().enumerate() {
            streams[s].extend_from_slice(c.codes);
        }
    }
    if streams
        .iter()
        .zip(caps)
        .any(|(s, c)| s.as_slice() != c.codes)
    {
        l.mismatched_layers.push("proto.decode");
    }

    match wal {
        WalUse::Off => {}
        WalUse::Append(dir) => append_log(&mut l, caps, &rounds, dir, tr),
        WalUse::Scan(dir, total) => {
            tr.time("wal.scan", 0, || {
                black_box(heartbeat_rp::hbc_wal::scan(dir).expect("log scans"));
            });
            l.wal_scan_ns_per_sample = ratio(tr.total_ns("wal.scan") as f64, total as f64);
        }
    }

    // Dequantise, exactly as the gateway does per accepted frame.
    let mut mv: Vec<Vec<f64>> = Vec::with_capacity(caps.len());
    tr.begin("proto.dequantize", 0);
    let mut buf = Vec::new();
    for s in &streams {
        let mut out = Vec::with_capacity(s.len());
        for chunk in s.chunks(frame.unwrap_or(s.len().max(1))) {
            dequantize_mv_into(chunk, &mut buf);
            out.extend_from_slice(&buf);
        }
        mv.push(out);
    }
    let ns = tr.end();
    l.dequantize_ns_per_sample = ratio(ns as f64, n);

    // Hub: calibration, the parallel ingest, then the same chunks on one
    // worker for the speed-up, then closes.
    let thresholds = hub_layer(&mut l, firmware, caps, &mv, frame, tr);

    // One firmware instance per session on one thread.
    tr.begin("firmware.push", 0);
    let mut firmware_ok = true;
    for (s, c) in caps.iter().enumerate() {
        let Some(th) = thresholds[s].clone() else {
            firmware_ok &= c.expected.is_empty();
            continue;
        };
        let mut stream = StreamingFirmware::new(firmware, FS, th);
        for chunk in mv[s].chunks(frame.unwrap_or(mv[s].len().max(1))) {
            stream.push_chunk(chunk);
        }
        stream.finish();
        let mut got = Vec::new();
        while let Some(o) = stream.pop_outcome() {
            got.push(WireOutcome::from_outcome(&o));
        }
        firmware_ok &= got == c.expected;
    }
    let ns = tr.end();
    l.firmware_push_ns_per_sample = ratio(ns as f64, n);
    if !firmware_ok {
        l.mismatched_layers.push("firmware.push");
    }

    // The firmware's stages one at a time.
    let mut stages_ok = true;
    for (s, c) in caps.iter().enumerate() {
        match &thresholds[s] {
            Some(th) => {
                let got = stages(firmware, &mv[s], th.clone(), u64::from(c.wire), tr);
                stages_ok &= got == c.expected;
            }
            None => stages_ok &= c.expected.is_empty(),
        }
    }
    if !stages_ok {
        l.mismatched_layers.push("dsp.stages");
    }
    let beats = l.beats as f64;
    l.baseline_ns_per_sample = ratio(tr.total_ns("dsp.baseline") as f64, n);
    l.wavelet_ns_per_sample = ratio(tr.total_ns("dsp.wavelet") as f64, n);
    l.peak_scan_ns_per_sample = ratio(tr.total_ns("dsp.peak_scan") as f64, n);
    l.windowing_ns_per_sample = ratio(tr.total_ns("dsp.windowing") as f64, n);
    l.prepare_ns_per_beat = ratio(tr.total_ns("rp.prepare") as f64, beats);
    l.project_ns_per_beat = ratio(tr.total_ns("rp.project") as f64, beats);
    l.classify_ns_per_beat = ratio(tr.total_ns("nfc.classify") as f64, beats);
    l.delin_ns_per_forwarded_beat = ratio(tr.total_ns("delin") as f64, l.forwarded as f64);

    // Outcome frames, batched by the frame whose ingest emitted them.
    if let Some(f) = frame {
        let mut bytes_out = 0usize;
        tr.begin("proto.outcome_encode", 0);
        let mut out = Vec::new();
        for c in caps {
            let mut at = 0;
            while at < c.expected.len() {
                let batch = c.anchors[at] / f;
                let mut end = at;
                while end < c.expected.len() && c.anchors[end] / f == batch {
                    end += 1;
                }
                out.clear();
                Frame::Outcomes {
                    session: c.wire,
                    outcomes: c.expected[at..end].to_vec(),
                }
                .encode_into(&mut out);
                bytes_out += out.len();
                at = end;
            }
        }
        let ns = tr.end();
        l.outcome_encode_ns_per_beat = ratio(ns as f64, beats);
        l.bytes_out_per_beat = ratio(bytes_out as f64, beats);
    }
    tr.end();

    // Per-sample self-time rows of the single-threaded path.
    let per_sample = |name: &str| ratio(tr.self_ns(name) as f64, n);
    l.ledger_ns_per_sample = [
        "proto.decode",
        "wal.append",
        "proto.dequantize",
        "hub.calibrate",
        "hub.close",
        "dsp.baseline",
        "dsp.wavelet",
        "dsp.peak_scan",
        "dsp.windowing",
        "rp.prepare",
        "rp.project",
        "nfc.classify",
        "delin",
        "proto.outcome_encode",
    ]
    .iter()
    .map(|name| per_sample(name))
    .sum::<f64>()
        + l.wal_scan_ns_per_sample;
    l
}

fn append_log(
    l: &mut Ledger,
    caps: &[Captured<'_>],
    rounds: &[Vec<(usize, u32, &[i16])>],
    dir: &Path,
    tr: &mut Tracer,
) {
    let (mut wal, _) = Wal::open(WalConfig::new(dir)).expect("fresh log opens");
    let token = |s: usize| s as u64 + 1;
    for (s, c) in caps.iter().enumerate() {
        let rec = WalRecord::SessionOpen {
            token: token(s),
            wire_id: c.wire,
            patient_id: s as u32,
            calib_len: CALIB_LEN as u32,
            fs_millihertz: (FS * 1000.0) as u32,
        };
        tr.time("wal.append", token(s), || wal.append(&rec).expect("append"));
    }
    let every = rounds.len().div_ceil(MAX_SYNCS).max(1);
    let mut bytes = 0usize;
    for (r, round) in rounds.iter().enumerate() {
        for &(s, seq, chunk) in round {
            let rec = WalRecord::Samples {
                token: token(s),
                seq,
                codes: chunk.to_vec(),
            };
            bytes += tr.time("wal.append", token(s), || wal.append(&rec).expect("append"));
        }
        if r % every == every - 1 {
            tr.time("wal.sync", 0, || wal.sync().expect("sync"));
        }
    }
    for s in 0..caps.len() {
        let rec = WalRecord::SessionClose { token: token(s) };
        tr.time("wal.append", token(s), || wal.append(&rec).expect("append"));
    }
    let n = l.samples as f64;
    l.wal_append_ns_per_sample = ratio(tr.total_ns("wal.append") as f64, n);
    l.wal_bytes_per_sample = ratio(bytes as f64, n);
    l.wal_sync_p99_us = crate::stats::quantile_of(&tr.durations_ns("wal.sync"), 0.99) / 1e3;
}

fn hub_layer(
    l: &mut Ledger,
    firmware: &WbsnFirmware,
    caps: &[Captured<'_>],
    mv: &[Vec<f64>],
    frame: Option<usize>,
    tr: &mut Tracer,
) -> Vec<Option<PeakThresholds>> {
    let n = l.samples as f64;
    let calibrate = |hub: &mut StreamHub<'_>, tr: &mut Tracer, traced: bool| {
        let mut ids = Vec::new();
        let mut ths = Vec::new();
        for (s, c) in caps.iter().enumerate() {
            let stretch = &mv[s][..CALIB_LEN.min(mv[s].len())];
            let th = if traced {
                tr.time("hub.calibrate", u64::from(c.wire), || {
                    hub.calibrate_thresholds(stretch)
                })
            } else {
                hub.calibrate_thresholds(stretch)
            }
            .ok();
            ids.push(th.clone().map(|t| hub.add_patient(s as u32, t)));
            ths.push(th);
        }
        (ids, ths)
    };
    let feeds_of = |ids: &[Option<SessionId>]| -> Vec<Vec<(SessionId, &[f64])>> {
        let per: Vec<Vec<&[f64]>> = mv
            .iter()
            .map(|m| match frame {
                Some(f) => m.chunks(f).collect(),
                None => vec![m.as_slice()],
            })
            .collect();
        let rounds = per.iter().map(Vec::len).max().unwrap_or(0);
        (0..rounds)
            .map(|r| {
                per.iter()
                    .zip(ids)
                    .filter_map(|(chunks, id)| Some(((*id)?, *chunks.get(r)?)))
                    .collect()
            })
            .collect()
    };

    let mut hub = StreamHub::new(firmware, FS);
    let (ids, thresholds) = calibrate(&mut hub, tr, true);
    let feeds = feeds_of(&ids);
    tr.begin("hub.ingest_all", 0);
    for batch in &feeds {
        tr.time("hub.ingest", 0, || {
            hub.ingest(batch).expect("fresh sessions ingest")
        });
    }
    tr.end();
    let mut ok = true;
    for (s, id) in ids.iter().enumerate() {
        let got: Vec<WireOutcome> = match id {
            Some(id) => tr
                .time("hub.close", u64::from(caps[s].wire), || {
                    hub.close_session(*id)
                })
                .expect("live session closes")
                .outcomes
                .iter()
                .map(WireOutcome::from_outcome)
                .collect(),
            None => Vec::new(),
        };
        ok &= got == caps[s].expected;
    }
    if !ok {
        l.mismatched_layers.push("hub");
    }

    let mut single = StreamHub::with_threads(firmware, FS, NonZeroUsize::new(1));
    let (ids1, _) = calibrate(&mut single, tr, false);
    let feeds1 = feeds_of(&ids1);
    tr.time("hub.ingest_1worker", 0, || {
        for batch in &feeds1 {
            single.ingest(batch).expect("fresh sessions ingest");
        }
    });

    let sessions = caps.len() as f64;
    let ingest = tr.total_ns("hub.ingest_all") as f64;
    l.hub_ingest_ns_per_sample = ratio(ingest, n);
    l.hub_ingest_calls = feeds.len();
    l.hub_sessions_per_ingest = ratio(
        feeds.iter().map(Vec::len).sum::<usize>() as f64,
        feeds.len() as f64,
    );
    l.hub_parallel_speedup = ratio(tr.total_ns("hub.ingest_1worker") as f64, ingest);
    l.hub_calibrate_us_per_session = ratio(tr.total_ns("hub.calibrate") as f64 / 1e3, sessions);
    l.hub_close_us_per_session = ratio(tr.total_ns("hub.close") as f64 / 1e3, sessions);
    thresholds
}

/// The streaming firmware's stages as separate passes, in firmware order,
/// interleaved exactly as `StreamingFirmware` interleaves them so the
/// windower sees peaks at the same stream positions.
fn stages(
    fw: &WbsnFirmware,
    mv: &[f64],
    thresholds: PeakThresholds,
    id: u64,
    tr: &mut Tracer,
) -> Vec<WireOutcome> {
    const AT_FINISH: usize = usize::MAX;
    let detector = PeakDetector::new(FS);
    let scales = detector.config().scales;
    // The windower keeps as much history as the firmware's does.
    let history =
        fw.window.len() + StreamingPeakDetector::new(&detector, thresholds.clone()).delay() + 64;

    // 1. Baseline filter (including its right-border drain).
    let filtered = tr.time("dsp.baseline", id, || {
        let mut filter = StreamingBaselineFilter::for_sampling_rate(FS);
        let mut out = Vec::with_capacity(mv.len());
        for &x in mv {
            if let Some(y) = filter.push(x) {
                out.push(y);
            }
        }
        filter.finish_into(&mut out);
        out
    });

    // 2. Wavelet cascade: frames tagged with the filtered sample whose push
    //    produced them.
    let (details, inputs, tags) = tr.time("dsp.wavelet", id, || {
        let mut wavelet = StreamingWavelet::new(scales);
        let mut details = Vec::with_capacity(filtered.len() * scales);
        let mut inputs = Vec::with_capacity(filtered.len());
        let mut tags = Vec::with_capacity(filtered.len());
        for (k, &y) in filtered.iter().enumerate() {
            wavelet.push(y);
            while let Some(f) = wavelet.pop_frame() {
                details.extend_from_slice(f.details);
                inputs.push(f.input);
                tags.push(k);
            }
        }
        wavelet.finish();
        while let Some(f) = wavelet.pop_frame() {
            details.extend_from_slice(f.details);
            inputs.push(f.input);
            tags.push(AT_FINISH);
        }
        (details, inputs, tags)
    });

    // 3. Peak scan: peaks tagged with the filtered sample after which the
    //    firmware would hand them to the windower.
    let peaks = tr.time("dsp.peak_scan", id, || {
        let mut scanner = detector.scanner(thresholds);
        let mut peaks = Vec::new();
        for (i, &tag) in tags.iter().enumerate() {
            scanner.push(&details[i * scales..(i + 1) * scales], inputs[i]);
            while let Some(p) = scanner.pop_peak() {
                peaks.push((p, tag));
            }
        }
        scanner.finish();
        while let Some(p) = scanner.pop_peak() {
            peaks.push((p, AT_FINISH));
        }
        peaks
    });

    // 4. Windowing.
    let (windows, positions) = tr.time("dsp.windowing", id, || {
        let mut windower = StreamingBeatWindower::new(fw.window, history);
        let mut windows = Vec::new();
        let mut positions = Vec::new();
        let mut buf = Vec::new();
        let mut next = 0;
        let mut drain =
            |w: &mut StreamingBeatWindower, windows: &mut Vec<f64>, positions: &mut Vec<usize>| {
                while let Some(p) = w.pop_window(&mut buf) {
                    windows.extend_from_slice(&buf);
                    positions.push(p);
                }
            };
        for (k, &y) in filtered.iter().enumerate() {
            windower.push_sample(y);
            while next < peaks.len() && peaks[next].1 == k {
                windower.push_peak(peaks[next].0);
                next += 1;
            }
            drain(&mut windower, &mut windows, &mut positions);
        }
        while next < peaks.len() {
            windower.push_peak(peaks[next].0);
            next += 1;
        }
        drain(&mut windower, &mut windows, &mut positions);
        (windows, positions)
    });
    let wlen = fw.window.len();
    let beats = positions.len();

    // 5. Window preparation: decimation + ADC quantisation.
    let prepared = tr.time("rp.prepare", id, || {
        let mut prepared = Vec::with_capacity(beats);
        let mut down = Vec::new();
        for b in 0..beats {
            down.clear();
            down.extend(
                windows[b * wlen..(b + 1) * wlen]
                    .iter()
                    .step_by(fw.downsample),
            );
            let mut q = Vec::new();
            fw.adc.quantize_samples_into(&down, &mut q);
            prepared.push(q);
        }
        prepared
    });

    // 6. Packed projection.
    let coefficients = tr.time("rp.project", id, || {
        prepared
            .iter()
            .map(|q| {
                fw.projection
                    .project_i32(q)
                    .expect("window fits the projection")
            })
            .collect::<Vec<_>>()
    });

    // 7. Integer NFC.
    let classes = tr.time("nfc.classify", id, || {
        coefficients
            .iter()
            .map(|c| {
                fw.classifier
                    .classify(c, fw.alpha)
                    .expect("coefficients fit the classifier")
                    .class
            })
            .collect::<Vec<_>>()
    });

    // 8. Delineation of the beats flagged abnormal.
    let fiducials = tr.time("delin", id, || {
        let delineator = Delineator::new(FS);
        classes
            .iter()
            .enumerate()
            .map(|(b, class)| {
                class.is_abnormal().then(|| {
                    delineator
                        .delineate_multilead(&[&windows[b * wlen..(b + 1) * wlen]], fw.window.pre)
                        .map(|f| f.count().max(1))
                        .unwrap_or(1)
                })
            })
            .collect::<Vec<_>>()
    });

    positions
        .iter()
        .zip(&classes)
        .zip(&fiducials)
        .map(|((&peak, &predicted), f)| {
            WireOutcome::from_outcome(&BeatOutcome {
                peak,
                truth: None,
                predicted,
                delineated: f.is_some(),
                fiducials_transmitted: f.unwrap_or(1),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{firmware, reference, synth_codes, PoolShape};

    #[test]
    fn every_layer_of_the_redrive_reproduces_the_reference() {
        let shape = PoolShape {
            records: 2,
            beats: (40, 60),
            p_v: 0.2,
            p_l: 0.1,
        };
        let fw = firmware();
        let hub = StreamHub::with_threads(&fw, FS, NonZeroUsize::new(1));
        let streams: Vec<_> = (0..2)
            .map(|i| {
                let codes = synth_codes(5, 9, i, &shape);
                let (expected, anchors) = reference(&hub, &codes);
                (codes, expected, anchors)
            })
            .collect();
        let caps: Vec<Captured<'_>> = streams
            .iter()
            .enumerate()
            .map(|(i, (codes, expected, anchors))| Captured {
                wire: i as u32 + 1,
                codes,
                expected,
                anchors,
            })
            .collect();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-ledger-{}", std::process::id()));
        let mut tr = Tracer::new(std::time::Instant::now());
        let l = redrive(&fw, &caps, Some(90), WalUse::Append(&dir), &mut tr);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(l.mismatched_layers.is_empty(), "{:?}", l.mismatched_layers);
        assert!(l.beats > 0 && l.forwarded > 0);
        assert!(l.ledger_ns_per_sample > 0.0);
        assert!(l.wal_bytes_per_sample >= 2.0);
        assert_eq!(
            l.hub_ingest_calls,
            caps.iter()
                .map(|c| c.codes.len().div_ceil(90))
                .max()
                .unwrap()
        );
    }
}
