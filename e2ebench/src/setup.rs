//! Set-up: the firmware image, the seeded input streams and the in-process
//! reference every delivered outcome is checked against.
//!
//! Everything here runs before the timed phase. Record synthesis costs more
//! per sample than the gateway spends, so it must never overlap a
//! measurement.

use heartbeat_rp::hbc_ecg::beat::BeatWindow;
use heartbeat_rp::hbc_ecg::record::Lead;
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::int_classifier::AlphaQ16;
use heartbeat_rp::hbc_embedded::{StreamingFirmware, WbsnFirmware};
use heartbeat_rp::hbc_net::proto::{dequantize_mv_into, quantize_mv_into};
use heartbeat_rp::hbc_net::WireOutcome;
use heartbeat_rp::hbc_rp::PackedProjection;
use heartbeat_rp::StreamHub;
use heartbeat_rp::{ExperimentConfig, TrainedSystem};

/// Acquisition rate of every stream (MIT-BIH).
pub const FS: f64 = 360.0;
/// Leading samples each session spends on threshold calibration (6 s).
pub const CALIB_LEN: usize = 2160;

/// Shape of one workload's record pool.
#[derive(Debug, Clone, Copy)]
pub struct PoolShape {
    /// Distinct records synthesised.
    pub records: usize,
    /// Beats per record, spread evenly over `[min, max]` across the pool.
    pub beats: (usize, usize),
    /// Probability of a premature ventricular beat.
    pub p_v: f64,
    /// Probability of a left bundle branch block beat.
    pub p_l: f64,
}

/// One generated input stream and its reference outcome stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Wire ADC codes — exactly what the program under test receives.
    pub codes: Vec<i16>,
    /// The outcomes an in-process `StreamingFirmware` derives from the
    /// dequantised codes, in emission order.
    pub reference: Vec<WireOutcome>,
    /// Per reference beat, its last contributing sample: the index of the
    /// sample whose push made the outcome pop (the last sample for beats
    /// flushed at end of stream). Not yet clamped to the calibration end.
    pub anchors: Vec<usize>,
    /// FNV-1a hash of the codes.
    pub hash: u64,
}

/// Trains the quick-config system and burns the firmware image. The image
/// is part of the program under test, so it does not depend on the
/// workload seed.
pub fn firmware() -> WbsnFirmware {
    let config = ExperimentConfig::quick();
    let system = TrainedSystem::train(&config).expect("quick-config training succeeds");
    WbsnFirmware::new(
        PackedProjection::from_matrix(&system.pc_downsampled.projection),
        system.wbsn.classifier.clone(),
        AlphaQ16::from_f64(system.pc_downsampled.alpha_train).expect("trained alpha is in range"),
        config.downsample,
        BeatWindow::PAPER,
    )
    .expect("trained artefacts fit the paper window")
}

/// SplitMix64 step: derives independent per-record seeds from the
/// workload seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the little-endian bytes of `codes`.
pub fn fnv1a(codes: &[i16]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in codes {
        for b in c.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Synthesises record `index` of a pool as wire codes.
pub fn synth_codes(seed: u64, tag: u64, index: usize, shape: &PoolShape) -> Vec<i16> {
    let (lo, hi) = shape.beats;
    let span = hi - lo;
    let beats = lo + span * index / shape.records.max(2).saturating_sub(1).max(1);
    let mut generator = SyntheticEcg::with_seed(mix(seed ^ mix(tag) ^ mix(index as u64 + 1)));
    let rhythm = generator.rhythm(beats, shape.p_v, shape.p_l);
    let record = generator
        .record(index as u32 + 1, &rhythm, 1)
        .expect("synthetic records are consistent");
    let mut codes = Vec::new();
    quantize_mv_into(record.lead(Lead(0)).expect("lead 0 exists"), &mut codes);
    codes
}

/// Runs the reference pipeline over the first `len` codes: thresholds from
/// the hub's calibration of the first [`CALIB_LEN`] samples, then the
/// streaming firmware pushed one sample at a time, popping after each push
/// so every beat is tied to the sample that completed it.
pub fn reference(hub: &StreamHub<'_>, codes: &[i16]) -> (Vec<WireOutcome>, Vec<usize>) {
    let mut mv = Vec::new();
    dequantize_mv_into(codes, &mut mv);
    // Like the gateway, a stream closed before its calibration stretch is
    // complete calibrates on what exists; a stretch too short to calibrate
    // yields an empty session.
    let Ok(thresholds) = hub.calibrate_thresholds(&mv[..CALIB_LEN.min(mv.len())]) else {
        return (Vec::new(), Vec::new());
    };
    let mut stream = StreamingFirmware::new(hub.firmware(), FS, thresholds);
    let mut outcomes = Vec::new();
    let mut anchors = Vec::new();
    for (i, &x) in mv.iter().enumerate() {
        stream.push(x);
        while let Some(o) = stream.pop_outcome() {
            outcomes.push(WireOutcome::from_outcome(&o));
            anchors.push(i);
        }
    }
    stream.finish();
    while let Some(o) = stream.pop_outcome() {
        outcomes.push(WireOutcome::from_outcome(&o));
        anchors.push(mv.len() - 1);
    }
    (outcomes, anchors)
}

/// The sample a beat's latency is measured from: its last contributing
/// sample, clamped to the end of the calibration stretch (the gateway holds
/// every earlier sample until calibration completes).
pub fn latency_anchor(raw: usize) -> usize {
    raw.max(CALIB_LEN - 1)
}

/// Synthesises a pool and runs the reference over every record, splitting
/// the records over `threads` workers.
pub fn pool(
    firmware: &WbsnFirmware,
    seed: u64,
    tag: u64,
    shape: &PoolShape,
    threads: usize,
) -> Vec<Stream> {
    let mut out: Vec<Option<Stream>> = vec![None; shape.records];
    std::thread::scope(|scope| {
        for (w, part) in out.chunks_mut(shape.records.div_ceil(threads)).enumerate() {
            let first = w * shape.records.div_ceil(threads);
            scope.spawn(move || {
                let hub = StreamHub::with_threads(firmware, FS, std::num::NonZeroUsize::new(1));
                for (k, slot) in part.iter_mut().enumerate() {
                    let codes = synth_codes(seed, tag, first + k, shape);
                    let (reference, anchors) = reference(&hub, &codes);
                    assert!(!reference.is_empty(), "pool records hold beats");
                    let hash = fnv1a(&codes);
                    *slot = Some(Stream {
                        codes,
                        reference,
                        anchors,
                        hash,
                    });
                }
            });
        }
    });
    out.into_iter()
        .map(|s| s.expect("every pool slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: PoolShape = PoolShape {
        records: 3,
        beats: (40, 60),
        p_v: 0.2,
        p_l: 0.1,
    };

    #[test]
    fn one_seed_gives_identical_inputs_and_two_seeds_differ() {
        let a: Vec<u64> = (0..3)
            .map(|i| fnv1a(&synth_codes(7, 1, i, &SHAPE)))
            .collect();
        let b: Vec<u64> = (0..3)
            .map(|i| fnv1a(&synth_codes(7, 1, i, &SHAPE)))
            .collect();
        let c: Vec<u64> = (0..3)
            .map(|i| fnv1a(&synth_codes(8, 1, i, &SHAPE)))
            .collect();
        assert_eq!(a, b);
        for (x, y) in a.iter().zip(&c) {
            assert_ne!(x, y);
        }
        // Records within one pool differ from each other too.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn anchors_lie_between_peak_and_pipeline_delay() {
        let firmware = firmware();
        let hub = StreamHub::with_threads(&firmware, FS, std::num::NonZeroUsize::new(1));
        let codes = synth_codes(3, 2, 1, &SHAPE);
        let (outcomes, anchors) = reference(&hub, &codes);
        assert!(!outcomes.is_empty());
        let thresholds = {
            let mut mv = Vec::new();
            dequantize_mv_into(&codes[..CALIB_LEN], &mut mv);
            hub.calibrate_thresholds(&mv).expect("calibrates")
        };
        let delay = StreamingFirmware::new(&firmware, FS, thresholds).delay();
        let mut clamped = 0;
        for (o, &a) in outcomes.iter().zip(&anchors) {
            let peak = o.peak as usize;
            assert!(a >= peak, "anchor {a} before peak {peak}");
            assert!(
                a <= peak + delay,
                "anchor {a} past peak {peak} + delay {delay}"
            );
            let l = latency_anchor(a);
            assert!(l >= a && l >= CALIB_LEN - 1);
            if a < CALIB_LEN - 1 {
                assert_eq!(l, CALIB_LEN - 1);
                clamped += 1;
            } else {
                assert_eq!(l, a);
            }
        }
        // The calibration stretch holds beats, so the clamp is exercised.
        assert!(clamped > 0);
    }
}
