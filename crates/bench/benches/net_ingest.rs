//! Throughput of the network ingestion path: the pure [`FrameDecoder`] on a
//! pre-encoded `Samples` stream, frame encoding, and the full
//! gateway-on-loopback pipeline (sockets → decoder → credit flow →
//! `StreamHub` classification).
//!
//! Records a baseline in `BENCH_net.json` (opt-in via `HBC_BENCH_BASELINE=1`)
//! and gates regressions in CI (`HBC_BENCH_REGRESSION=1`). Wall-clock
//! nanoseconds do not transfer between hosts, so the gated quantity is the
//! **cost ratio of decoding to a raw `crc32` scan of the same bytes**: the
//! decoder's hot loop is dominated by its CRC trailer check, so a healthy
//! decoder sits within a small constant of the bare checksum pass — both
//! sides measured on the same host, here and in the baseline. A decoder
//! regression (quadratic buffering, extra copies) inflates the ratio and
//! fails the job; machine speed cancels out.
//!
//! A second gated row bounds the cost of an **idle reactor sweep**: one
//! [`Gateway::poll`] with 256 idle streaming sessions open, divided by the
//! same sweep with 4 open. A sweep's cost should follow the frames, the
//! sessions with work and the due deadlines, not the sessions open, so the
//! ratio sits near 1; a sweep that walks every session again inflates it
//! with the fleet size.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hbc_core::config::ExperimentConfig;
use hbc_core::pipeline::TrainedSystem;
use hbc_ecg::beat::BeatWindow;
use hbc_ecg::record::Lead;
use hbc_ecg::synthetic::SyntheticEcg;
use hbc_embedded::int_classifier::AlphaQ16;
use hbc_embedded::WbsnFirmware;
use hbc_net::proto::{crc32, quantize_mv_into, Frame, FrameDecoder};
use hbc_net::{Gateway, GatewayConfig, NodeClient, PROTOCOL_VERSION};
use hbc_rp::PackedProjection;

/// Pre-encodes `frames` Samples frames of `samples_per_frame` codes each.
fn encoded_stream(frames: usize, samples_per_frame: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for seq in 0..frames {
        Frame::Samples {
            session: 1,
            seq: seq as u32,
            samples: (0..samples_per_frame)
                .map(|i| ((i * 37 + seq * 11) % 4096) as i16 - 2048)
                .collect(),
        }
        .encode_into(&mut out);
    }
    out
}

/// Decodes a whole byte stream, returning the number of frames (consumed
/// fully, panics on protocol errors).
fn decode_all(bytes: &[u8]) -> usize {
    let mut decoder = FrameDecoder::new();
    let mut frames = 0usize;
    for chunk in bytes.chunks(16 * 1024) {
        decoder.feed(chunk);
        while decoder.next_frame().expect("valid stream").is_some() {
            frames += 1;
        }
    }
    frames
}

fn bench_decoder(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_ingest");
    group.sample_size(10);
    for samples_per_frame in [64usize, 4096] {
        let frames = (1 << 20) / (2 * samples_per_frame).max(1);
        let bytes = encoded_stream(frames, samples_per_frame);
        group.bench_function(format!("decode/{samples_per_frame}spf"), |b| {
            b.iter(|| black_box(decode_all(black_box(&bytes))))
        });
        group.bench_function(format!("crc32_scan/{samples_per_frame}spf"), |b| {
            b.iter(|| black_box(crc32(black_box(&bytes))))
        });
    }
    let mut sink = Vec::new();
    group.bench_function("encode/256spf", |b| {
        b.iter(|| {
            sink.clear();
            for seq in 0..64u32 {
                Frame::Samples {
                    session: 1,
                    seq,
                    samples: vec![0i16; 256],
                }
                .encode_into(&mut sink);
            }
            black_box(sink.len())
        })
    });
    group.finish();
}

fn quick_firmware() -> WbsnFirmware {
    let system = TrainedSystem::train(&ExperimentConfig::quick()).expect("training");
    WbsnFirmware::new(
        PackedProjection::from_matrix(&system.pc_downsampled.projection),
        system.wbsn.classifier.clone(),
        AlphaQ16::from_f64(system.pc_downsampled.alpha_train).expect("alpha"),
        system.config.downsample,
        BeatWindow::PAPER,
    )
    .expect("firmware dimensions")
}

/// End-to-end loopback throughput: one session streamed through sockets,
/// decoder, credit flow and the hub, per iteration.
fn bench_loopback(c: &mut Criterion) {
    let firmware = quick_firmware();
    let mut gen = SyntheticEcg::with_seed(31);
    let rhythm = gen.rhythm(20, 0.1, 0.1);
    let record = gen.record(1, &rhythm, 1).expect("record");
    let lead = record.lead(Lead(0)).expect("lead 0").to_vec();
    let fs = record.fs;
    let calib_len = ((2.0 * fs) as usize).min(lead.len()) as u32;

    let shutdown = AtomicBool::new(false);
    let gateway =
        Gateway::bind("127.0.0.1:0", &firmware, fs, GatewayConfig::default()).expect("bind");
    let addr = gateway.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway.run(&shutdown).expect("gateway"));
        {
            let mut group = c.benchmark_group("net_ingest");
            group.sample_size(10);
            let mut client = NodeClient::connect(addr).expect("connect");
            group.bench_function("loopback_session", |b| {
                b.iter(|| {
                    let session = client.open_session(1, fs, calib_len).expect("open");
                    for chunk in lead.chunks(1024) {
                        client.send_mv(session, chunk).expect("send");
                    }
                    let summary = client.close_session(session).expect("close");
                    black_box(summary.report.beats)
                })
            });
            group.finish();
        }
        shutdown.store(true, Ordering::Release);
        handle.join().expect("gateway thread");
    });
}

/// Session counts of the idle-sweep row: the fleet and the reference.
const IDLE_SESSIONS: usize = 256;
const REFERENCE_SESSIONS: usize = 4;

/// The calibration stretch each idle-sweep session streams (2 s at 360 Hz)
/// as wire ADC codes.
fn calibration_codes() -> Vec<i16> {
    let mut gen = SyntheticEcg::with_seed(53);
    let rhythm = gen.rhythm(8, 0.1, 0.1);
    let record = gen.record(1, &rhythm, 1).expect("record");
    let lead = record.lead(Lead(0)).expect("lead 0");
    let mut codes = Vec::new();
    quantize_mv_into(&lead[..720], &mut codes);
    codes
}

/// A gateway driven by hand (no run loop) whose sessions all streamed
/// their calibration stretch, were promoted, consumed and credited, and now
/// sit idle — plus the client end of their one loopback connection.
struct IdleFleet<'fw> {
    gateway: Gateway<'fw>,
    _client: TcpStream,
}

impl<'fw> IdleFleet<'fw> {
    fn new(firmware: &'fw WbsnFirmware, sessions: usize) -> Self {
        let codes = calibration_codes();
        let config = GatewayConfig {
            // Nothing may be evicted while the bench measures.
            idle_timeout: Duration::from_secs(3600),
            ..GatewayConfig::default()
        };
        let mut gateway = Gateway::bind("127.0.0.1:0", firmware, 360.0, config).expect("bind");
        let mut client = TcpStream::connect(gateway.local_addr().expect("addr")).expect("connect");
        client.set_nonblocking(true).expect("nonblocking");
        let mut decoder = FrameDecoder::new();
        let mut out = Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode();
        for patient in 0..sessions {
            Frame::OpenSession {
                patient_id: patient as u32,
                fs_millihertz: 360_000,
                calib_len: codes.len() as u32,
            }
            .encode_into(&mut out);
        }
        let mut opened = Vec::new();
        pump(&mut gateway, &mut client, &mut decoder, &mut out, |frame| {
            if let Frame::SessionOpened { session, .. } = frame {
                opened.push(session);
            }
            opened.len() == sessions
        });
        for &session in &opened {
            Frame::Samples {
                session,
                seq: 0,
                samples: codes.clone(),
            }
            .encode_into(&mut out);
        }
        let mut credited = 0usize;
        pump(&mut gateway, &mut client, &mut decoder, &mut out, |frame| {
            if let Frame::Credit { grant, .. } = frame {
                credited += grant as usize;
            }
            credited == sessions * codes.len()
        });
        // Let any last outcome or credit frame drain before measuring.
        for _ in 0..16 {
            gateway.poll().expect("poll");
            drain(&mut client, &mut decoder, |_| false);
        }
        assert_eq!(gateway.active_sessions(), sessions);
        assert_eq!(gateway.health().buffered_bytes, 0, "fleet is idle");
        IdleFleet {
            gateway,
            _client: client,
        }
    }

    /// One idle sweep.
    fn sweep(&mut self) {
        black_box(self.gateway.poll().expect("poll"));
    }
}

/// Sweeps `gateway` while writing `out` to it and reading its replies,
/// until `done` accepts a reply frame and everything is written.
fn pump(
    gateway: &mut Gateway<'_>,
    client: &mut TcpStream,
    decoder: &mut FrameDecoder,
    out: &mut Vec<u8>,
    mut done: impl FnMut(Frame) -> bool,
) {
    let started = Instant::now();
    let mut finished = false;
    while !(finished && out.is_empty()) {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "idle fleet set-up stalled"
        );
        match client.write(out) {
            Ok(n) => {
                out.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => panic!("client write: {e}"),
        }
        gateway.poll().expect("poll");
        finished |= drain(client, decoder, &mut done);
    }
}

/// Reads every reply available without blocking; returns whether `done`
/// accepted one of them.
fn drain(
    client: &mut TcpStream,
    decoder: &mut FrameDecoder,
    mut done: impl FnMut(Frame) -> bool,
) -> bool {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match client.read(&mut buf) {
            Ok(0) => panic!("gateway closed the connection"),
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => panic!("client read: {e}"),
        }
    }
    let mut accepted = false;
    while let Some(frame) = decoder.next_frame().expect("valid reply") {
        assert!(!matches!(frame, Frame::Deny { .. }), "denied: {frame:?}");
        accepted |= done(frame);
    }
    accepted
}

fn bench_idle_sweep(c: &mut Criterion) {
    let firmware = quick_firmware();
    let mut group = c.benchmark_group("net_ingest");
    group.sample_size(10);
    for sessions in [REFERENCE_SESSIONS, IDLE_SESSIONS] {
        let mut fleet = IdleFleet::new(&firmware, sessions);
        group.bench_function(format!("idle_sweep/{sessions}sessions"), |b| {
            b.iter(|| fleet.sweep())
        });
    }
    group.finish();
}

/// Minimum per-iteration time of `f` in nanoseconds (same calibrated-min
/// estimator as the other gated benches).
fn min_ns_per_iter<F: FnMut()>(mut f: F, samples: usize) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= Duration::from_millis(2) || iters >= 1 << 28 {
            break;
        }
        iters *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Measures decode-vs-crc32 cost per byte for one frame size.
fn measure_ratio(samples_per_frame: usize, samples: usize) -> (f64, f64, f64) {
    let frames = (1 << 20) / (2 * samples_per_frame).max(1);
    let bytes = encoded_stream(frames, samples_per_frame);
    let n = bytes.len() as f64;
    let decode_ns = min_ns_per_iter(
        || {
            black_box(decode_all(black_box(&bytes)));
        },
        samples,
    ) / n;
    let crc_ns = min_ns_per_iter(
        || {
            black_box(crc32(black_box(&bytes)));
        },
        samples,
    ) / n;
    (decode_ns, crc_ns, decode_ns / crc_ns)
}

/// Measures the idle-sweep cost with the fleet and with the reference
/// session count: `(fleet_ns, reference_ns, fleet / reference)`.
fn measure_sweep_ratio(firmware: &WbsnFirmware, samples: usize) -> (f64, f64, f64) {
    let mut reference = IdleFleet::new(firmware, REFERENCE_SESSIONS);
    let mut fleet = IdleFleet::new(firmware, IDLE_SESSIONS);
    let reference_ns = min_ns_per_iter(|| reference.sweep(), samples);
    let fleet_ns = min_ns_per_iter(|| fleet.sweep(), samples);
    (fleet_ns, reference_ns, fleet_ns / reference_ns)
}

/// Writes `BENCH_net.json` (opt-in: the file is a checked-in reviewed
/// baseline; see the other `baseline_json` writers).
fn baseline_json(_c: &mut Criterion) {
    if std::env::var("HBC_BENCH_BASELINE").map_or(true, |v| v != "1") {
        println!("baseline_json: skipped (set HBC_BENCH_BASELINE=1 to rewrite BENCH_net.json)");
        return;
    }
    let mut rows = String::new();
    for (i, spf) in [64usize, 4096].into_iter().enumerate() {
        let (decode_ns, crc_ns, ratio) = measure_ratio(spf, 9);
        println!(
            "baseline samples_per_frame={spf:>5}  decode {decode_ns:>7.3} ns/B  crc32 \
             {crc_ns:>7.3} ns/B  cost_ratio {ratio:.2}"
        );
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"samples_per_frame\": {spf}, \"decode_ns_per_byte\": {decode_ns:.3}, \
             \"crc32_ns_per_byte\": {crc_ns:.3}, \"cost_ratio\": {ratio:.3}}}"
        ));
    }
    let (fleet_ns, reference_ns, ratio) = measure_sweep_ratio(&quick_firmware(), 9);
    println!(
        "baseline idle_sweep  {IDLE_SESSIONS} sessions {fleet_ns:>9.1} ns  \
         {REFERENCE_SESSIONS} sessions {reference_ns:>9.1} ns  cost_ratio {ratio:.2}"
    );
    rows.push_str(&format!(
        ",\n    {{\"idle_sessions\": {IDLE_SESSIONS}, \"reference_sessions\": \
         {REFERENCE_SESSIONS}, \"sweep_ns\": {fleet_ns:.1}, \"reference_sweep_ns\": \
         {reference_ns:.1}, \"cost_ratio\": {ratio:.3}}}"
    ));
    let json = format!(
        "{{\n  \"bench\": \"net_ingest\",\n  \"units\": \"ns_per_byte; idle sweep: \
         ns_per_sweep\",\n  \"kernel\": \
         \"incremental FrameDecoder on a Samples stream vs a bare crc32 scan of the same \
         bytes; idle Gateway::poll with idle_sessions vs reference_sessions idle streaming \
         sessions\",\n  \"estimator\": \"min of 9 calibrated samples\",\n  \"gate\": \
         \"cost_ratio (decode/crc32; idle sweep fleet/reference) must stay within \
         HBC_BENCH_MARGIN (default 2x) of this baseline\",\n  \"results\": [\n{rows}\n  \
         ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    std::fs::write(path, json).expect("write BENCH_net.json");
    println!("baseline_json: wrote {path}");
}

/// Parses `(samples_per_frame, cost_ratio)` rows out of the baseline (same
/// dependency-free scraping as the other gates).
fn parse_baseline(json: &str) -> Vec<(usize, f64)> {
    json.lines()
        .filter_map(|line| {
            let spf = line
                .split("\"samples_per_frame\":")
                .nth(1)?
                .split([',', '}'])
                .next()?
                .trim()
                .parse()
                .ok()?;
            let ratio = line
                .split("\"cost_ratio\":")
                .nth(1)?
                .split([',', '}'])
                .next()?
                .trim()
                .parse()
                .ok()?;
            Some((spf, ratio))
        })
        .collect()
}

/// Parses the idle-sweep row's `cost_ratio` out of the baseline.
fn parse_sweep_baseline(json: &str) -> Option<f64> {
    json.lines()
        .find(|line| line.contains("\"idle_sessions\":"))?
        .split("\"cost_ratio\":")
        .nth(1)?
        .split([',', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

/// CI regression gate (`HBC_BENCH_REGRESSION=1`): the decode-vs-crc32 cost
/// ratio and the idle-sweep fleet-vs-reference cost ratio must stay within
/// the noise margin of the checked-in baseline.
fn regression_gate(_c: &mut Criterion) {
    if std::env::var("HBC_BENCH_REGRESSION").map_or(true, |v| v != "1") {
        println!("regression_gate: skipped (set HBC_BENCH_REGRESSION=1 to enable)");
        return;
    }
    let margin: f64 = std::env::var("HBC_BENCH_MARGIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    let json = std::fs::read_to_string(path).expect("checked-in BENCH_net.json");
    let baseline = parse_baseline(&json);
    assert!(!baseline.is_empty(), "no rows parsed from BENCH_net.json");

    let mut failures = Vec::new();
    for (spf, baseline_ratio) in baseline {
        let (decode_ns, crc_ns, ratio) = measure_ratio(spf, 5);
        let ceiling = baseline_ratio * margin;
        let verdict = if ratio <= ceiling { "ok" } else { "REGRESSION" };
        println!(
            "regression_gate spf={spf:>5}  decode {decode_ns:>7.3} ns/B  crc32 {crc_ns:>7.3} \
             ns/B  cost_ratio {ratio:.2} (baseline {baseline_ratio:.2}, ceiling {ceiling:.2})  \
             {verdict}"
        );
        if ratio > ceiling {
            failures.push(format!(
                "samples_per_frame={spf}: cost ratio {ratio:.2} above ceiling {ceiling:.2} \
                 (baseline {baseline_ratio:.2} x margin {margin})"
            ));
        }
    }
    let baseline_ratio = parse_sweep_baseline(&json).expect("idle-sweep row in BENCH_net.json");
    let (fleet_ns, reference_ns, ratio) = measure_sweep_ratio(&quick_firmware(), 5);
    let ceiling = baseline_ratio * margin;
    let verdict = if ratio <= ceiling { "ok" } else { "REGRESSION" };
    println!(
        "regression_gate idle_sweep  {IDLE_SESSIONS} sessions {fleet_ns:>9.1} ns  \
         {REFERENCE_SESSIONS} sessions {reference_ns:>9.1} ns  cost_ratio {ratio:.2} (baseline \
         {baseline_ratio:.2}, ceiling {ceiling:.2})  {verdict}"
    );
    if ratio > ceiling {
        failures.push(format!(
            "idle sweep: {IDLE_SESSIONS}/{REFERENCE_SESSIONS}-session cost ratio {ratio:.2} above \
             ceiling {ceiling:.2} (baseline {baseline_ratio:.2} x margin {margin})"
        ));
    }
    assert!(
        failures.is_empty(),
        "network ingest path regressed:\n{}",
        failures.join("\n")
    );
}

criterion_group!(
    benches,
    bench_decoder,
    bench_loopback,
    bench_idle_sweep,
    baseline_json,
    regression_gate
);
criterion_main!(benches);
