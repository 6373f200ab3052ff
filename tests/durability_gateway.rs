//! Durability: the gateway's ingest log under process crashes.
//!
//! Every scenario drives a real gateway with [`GatewayConfig::wal`] pointed
//! at a scratch directory, kills the process state (drops the gateway), and
//! binds a **fresh** gateway on the same log directory. The invariants:
//!
//! * **crash-safe recovery** — the restarted gateway rebuilds every session
//!   that was open at the kill from the log alone (`sessions_recovered`),
//!   parks it for [`Frame::ResumeSession`], and the owning node re-attaches
//!   *without re-calibrating* (`sessions_opened` stays 0 on the restarted
//!   gateway) and without losing or double-counting a sample;
//! * **bit-identical continuation** — the converged outcome stream after
//!   kill + restart + resume equals the fault-free reference exactly;
//! * **deterministic replay** — [`replay_log`] re-scores the logged streams
//!   through the same firmware into the identical outcome history, for any
//!   worker-thread count;
//! * **report re-fetch** — a client whose link dies *after* `CloseSession`
//!   was processed but before the final `Report` arrived can re-fetch the
//!   cached report (by resume token or by retrying the close) within the
//!   retention window, closing the protocol's last documented hole.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use heartbeat_rp::config::ExperimentConfig;
use heartbeat_rp::hbc_ecg::beat::BeatWindow;
use heartbeat_rp::hbc_ecg::record::{EcgRecord, Lead};
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::firmware::BeatOutcome;
use heartbeat_rp::hbc_embedded::int_classifier::AlphaQ16;
use heartbeat_rp::hbc_embedded::WbsnFirmware;
use heartbeat_rp::hbc_net::proto::{dequantize_mv_into, quantize_mv_into, Frame, FrameDecoder};
use heartbeat_rp::hbc_net::{
    replay_log, Gateway, GatewayConfig, GatewayStats, NodeClient, PROTOCOL_VERSION,
};
use heartbeat_rp::hbc_rp::PackedProjection;
use heartbeat_rp::hbc_wal::WalConfig;
use heartbeat_rp::pipeline::TrainedSystem;
use heartbeat_rp::StreamHub;

mod support;

fn system() -> &'static TrainedSystem {
    static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| TrainedSystem::train(&ExperimentConfig::quick()).expect("training"))
}

fn firmware() -> WbsnFirmware {
    let system = system();
    WbsnFirmware::new(
        PackedProjection::from_matrix(&system.pc_downsampled.projection),
        system.wbsn.classifier.clone(),
        AlphaQ16::from_f64(system.pc_downsampled.alpha_train).expect("alpha in range"),
        system.config.downsample,
        BeatWindow::PAPER,
    )
    .expect("firmware dimensions")
}

/// A single-lead synthetic record passed once through the wire ADC transfer
/// function, so socket replay and local reference consume identical signals.
fn wire_record(seed: u64, beats: usize) -> EcgRecord {
    let mut gen = SyntheticEcg::with_seed(seed);
    let rhythm = gen.rhythm(beats, 0.1, 0.1);
    let mut record = gen.record(seed as u32, &rhythm, 1).expect("record");
    let mut codes = Vec::new();
    let mut exact = Vec::new();
    quantize_mv_into(&record.leads[0], &mut codes);
    dequantize_mv_into(&codes, &mut exact);
    record.leads[0] = exact;
    record
}

/// The fault-free reference: the equivalent `StreamHub` lifecycle with
/// prefix calibration.
fn reference_outcomes(fw: &WbsnFirmware, record: &EcgRecord, calib_len: usize) -> Vec<BeatOutcome> {
    let mut hub = StreamHub::new(fw, record.fs);
    let lead = record.lead(Lead(0)).expect("lead 0");
    let thresholds = hub
        .calibrate_thresholds(&lead[..calib_len])
        .expect("calibrate");
    let id = hub.add_patient(record.id, thresholds);
    hub.ingest(&[(id, lead)]).expect("ingest");
    hub.close_session(id).expect("close").outcomes
}

fn assert_full_match(got: &[BeatOutcome], want: &[BeatOutcome], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: beat count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.peak, w.peak, "{label}: beat {i} peak");
        assert_eq!(g.predicted, w.predicted, "{label}: beat {i} class");
        assert_eq!(g.delineated, w.delineated, "{label}: beat {i} delineated");
        assert_eq!(
            g.fiducials_transmitted, w.fiducials_transmitted,
            "{label}: beat {i} fiducials"
        );
    }
}

/// Runs `body` against a live gateway (flipping the shutdown flag even on
/// panic) and returns the body's result plus the final counters. Same shape
/// as the chaos suite's helper, parameterised so a second "restarted"
/// gateway can reuse the log directory of a first.
fn with_gateway<R>(
    fw: &WbsnFirmware,
    fs: f64,
    config: GatewayConfig,
    body: impl FnOnce(SocketAddr) -> R,
) -> (R, GatewayStats) {
    struct FlipOnDrop<'a>(&'a AtomicBool);
    impl Drop for FlipOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let shutdown = AtomicBool::new(false);
    let gateway = Gateway::bind("127.0.0.1:0", fw, fs, config).expect("bind");
    let addr = gateway.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway.run(&shutdown).expect("gateway runs"));
        let result = {
            let _flip = FlipOnDrop(&shutdown);
            body(addr)
        };
        let stats = handle.join().expect("gateway thread");
        (result, stats)
    })
}

/// Resumes with a deadline, retrying failed attempts.
fn recover(client: &mut NodeClient, addr: SocketAddr) {
    let start = Instant::now();
    loop {
        match client.reconnect_with_backoff(addr, 4, Duration::from_millis(5)) {
            Ok(()) => return,
            Err(e) => {
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "could not resume within the deadline: {e}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn wal_config(dir: &std::path::Path) -> GatewayConfig {
    GatewayConfig {
        wal: Some(WalConfig::new(dir)),
        ..GatewayConfig::default()
    }
}

#[test]
fn kill_mid_ingest_recovers_from_the_log_and_converges() {
    let fw = firmware();
    let record = wire_record(7100, 40);
    let fs = record.fs;
    let calib_len = 2048usize;
    let reference = reference_outcomes(&fw, &record, calib_len);
    assert!(!reference.is_empty(), "reference must emit beats");
    let tmp = support::TempDir::new("wal-kill");

    let lead = record.lead(Lead(0)).expect("lead 0");
    let cut = lead.len() / 2;
    assert!(cut > calib_len, "the kill must land after calibration");

    // Phase 1: stream the first half, drain the acks (everything sent is
    // logged *and* ingested), then the gateway dies — no close, no goodbye.
    let ((mut client, id), gw1) = with_gateway(&fw, fs, wal_config(tmp.path()), |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        client
            .set_io_timeout(Some(Duration::from_millis(750)))
            .expect("io timeout");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        for chunk in lead[..cut].chunks(512) {
            client.send_mv(id, chunk).expect("send");
        }
        let start = Instant::now();
        while client.replay_depth(id) > 0 {
            client.pump().expect("pump");
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "gateway never acked the first half"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        (client, id)
    });
    client.sever();
    assert_eq!(gw1.sessions_opened, 1);
    assert_eq!(gw1.sessions_closed, 0, "the kill preempted the close");

    // Phase 2: a fresh gateway on the same log directory rebuilds the
    // session before accepting a single connection.
    let gateway2 = Gateway::bind("127.0.0.1:0", &fw, fs, wal_config(tmp.path())).expect("rebind");
    assert_eq!(
        gateway2.stats().sessions_recovered,
        1,
        "the logged session must be rebuilt at bind time"
    );
    assert_eq!(gateway2.parked_sessions(), 1, "recovered ⇒ parked");
    let addr2 = gateway2.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);
    let (summary, gw2) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway2.run(&shutdown).expect("gateway runs"));
        let summary = {
            struct FlipOnDrop<'a>(&'a AtomicBool);
            impl Drop for FlipOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _flip = FlipOnDrop(&shutdown);
            recover(&mut client, addr2);
            for chunk in lead[cut..].chunks(512) {
                if client.send_mv(id, chunk).is_err() {
                    recover(&mut client, addr2);
                }
            }
            client.close_session(id).expect("close")
        };
        (summary, handle.join().expect("gateway thread"))
    });

    assert_full_match(&summary.outcomes, &reference, "kill mid-ingest");
    assert_eq!(
        summary.report.samples as usize,
        record.len(),
        "every sample counted exactly once across the crash"
    );
    assert_eq!(summary.report.beats as usize, reference.len());
    assert_eq!(
        gw2.sessions_opened, 0,
        "recovery must resume, never re-open (no re-calibration)"
    );
    assert_eq!(gw2.sessions_resumed, 1);
    assert_eq!(gw2.sessions_closed, 1);
}

#[test]
fn kill_during_calibration_recovers_the_partial_stretch() {
    let fw = firmware();
    let record = wire_record(7200, 30);
    let fs = record.fs;
    let calib_len = 2048usize;
    let reference = reference_outcomes(&fw, &record, calib_len);
    let tmp = support::TempDir::new("wal-calib");

    let lead = record.lead(Lead(0)).expect("lead 0");
    let cut = calib_len / 2; // the kill lands before promotion

    let ((mut client, id), gw1) = with_gateway(&fw, fs, wal_config(tmp.path()), |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        client
            .set_io_timeout(Some(Duration::from_millis(750)))
            .expect("io timeout");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        client.send_mv(id, &lead[..cut]).expect("send");
        // No credit flows during calibration, so there is no ack to drain;
        // give the reactor a moment to read (convergence below does not
        // depend on it — unlogged frames sit in the replay buffer).
        std::thread::sleep(Duration::from_millis(100));
        (client, id)
    });
    client.sever();
    assert_eq!(gw1.sessions_opened, 1);

    let gateway2 = Gateway::bind("127.0.0.1:0", &fw, fs, wal_config(tmp.path())).expect("rebind");
    assert_eq!(gateway2.stats().sessions_recovered, 1);
    let addr2 = gateway2.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);
    let (summary, gw2) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway2.run(&shutdown).expect("gateway runs"));
        let summary = {
            struct FlipOnDrop<'a>(&'a AtomicBool);
            impl Drop for FlipOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _flip = FlipOnDrop(&shutdown);
            recover(&mut client, addr2);
            for chunk in lead[cut..].chunks(1024) {
                if client.send_mv(id, chunk).is_err() {
                    recover(&mut client, addr2);
                }
            }
            client.close_session(id).expect("close")
        };
        (summary, handle.join().expect("gateway thread"))
    });

    assert_full_match(&summary.outcomes, &reference, "kill during calibration");
    assert_eq!(summary.report.samples as usize, record.len());
    assert_eq!(gw2.sessions_opened, 0);
    assert_eq!(gw2.sessions_resumed, 1);
}

#[test]
fn replay_rescores_the_log_bit_identically_for_any_thread_count() {
    let fw = firmware();
    let record = wire_record(7300, 35);
    let fs = record.fs;
    let calib_len = 2048usize;
    let tmp = support::TempDir::new("wal-replay");

    // Live run: stream the whole record in uneven chunks and close cleanly.
    let (summary, gw) = with_gateway(&fw, fs, wal_config(tmp.path()), |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        let lead = record.lead(Lead(0)).expect("lead 0");
        for chunk in lead.chunks(777) {
            client.send_mv(id, chunk).expect("send");
        }
        client.close_session(id).expect("close")
    });
    assert_eq!(gw.sessions_closed, 1);
    assert!(!summary.outcomes.is_empty());

    // Replay the dead gateway's log through the same firmware: one worker,
    // many workers, default policy — all bit-identical to the live run.
    let single = replay_log(tmp.path(), &fw, NonZeroUsize::new(1)).expect("replay single");
    let wide = replay_log(tmp.path(), &fw, NonZeroUsize::new(8)).expect("replay wide");
    let auto = replay_log(tmp.path(), &fw, None).expect("replay auto");
    for (label, report) in [("single", &single), ("wide", &wide), ("auto", &auto)] {
        assert_eq!(report.sessions.len(), 1, "{label}: one logged session");
        assert!(!report.truncated, "{label}: clean log");
        let s = &report.sessions[0];
        assert!(s.closed, "{label}: the close was logged");
        assert!(s.calibrated, "{label}");
        assert_eq!(s.patient_id, record.id, "{label}");
        assert_eq!(s.samples as usize, record.len(), "{label}");
        assert_full_match(&s.outcomes, &summary.outcomes, label);
    }
}

/// Raw-socket helper: blocking-reads frames until `want` matches.
fn read_until(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    want: impl Fn(&Frame) -> bool,
) -> Frame {
    use std::io::Read;
    let mut buf = [0u8; 4096];
    loop {
        while let Some(frame) = decoder.next_frame().expect("valid") {
            if want(&frame) {
                return frame;
            }
        }
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "gateway hung up before the expected frame");
        decoder.feed(&buf[..n]);
    }
}

#[test]
fn lost_report_after_close_is_refetchable_within_the_window() {
    // The formerly documented hole: the link dies after the gateway
    // processed `CloseSession` but before the client read the `Report`.
    // The token must stay good for a re-fetch within the retention window —
    // via resume *and* via a retried close.
    let fw = firmware();
    let record = wire_record(7400, 30);
    let fs = record.fs;
    let fs_millihertz = (fs * 1000.0).round() as u32;
    let calib_len = 2048usize;
    let reference = reference_outcomes(&fw, &record, calib_len);

    let ((), stats) = with_gateway(&fw, fs, GatewayConfig::default(), |addr| {
        // Connection 1: open, stream everything, close — then lose the link
        // without reading a single reply past the open.
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut decoder = FrameDecoder::new();
        conn.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello");
        conn.write_all(
            &Frame::OpenSession {
                patient_id: record.id,
                fs_millihertz,
                calib_len: calib_len as u32,
            }
            .encode(),
        )
        .expect("open");
        let opened = read_until(&mut conn, &mut decoder, |f| {
            matches!(f, Frame::SessionOpened { .. })
        });
        let Frame::SessionOpened { session, token, .. } = opened else {
            unreachable!()
        };
        let mut codes = Vec::new();
        quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
        let mut sent_frames = 0u32;
        for chunk in codes.chunks(4096) {
            conn.write_all(
                &Frame::Samples {
                    session,
                    seq: sent_frames,
                    samples: chunk.to_vec(),
                }
                .encode(),
            )
            .expect("samples");
            sent_frames += 1;
        }
        conn.write_all(&Frame::CloseSession { session }.encode())
            .expect("close");
        // Half-close: the gateway reads everything (the close is processed,
        // the Report queued) and then drops the connection; every reply —
        // the Report included — is discarded unread. That *is* the lost
        // report.
        conn.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        {
            use std::io::Read;
            let mut sink = [0u8; 4096];
            while conn.read(&mut sink).map(|n| n > 0).unwrap_or(false) {}
        }

        // Connection 2: re-fetch by resume token. The cached path answers
        // with the full outcome history and the report.
        let mut conn = TcpStream::connect(addr).expect("reconnect");
        let mut decoder = FrameDecoder::new();
        conn.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello");
        conn.write_all(
            &Frame::ResumeSession {
                patient_id: record.id,
                session_token: token,
                last_acked_seq: 0,
                outcomes_received: 0,
            }
            .encode(),
        )
        .expect("resume");
        let resumed = read_until(&mut conn, &mut decoder, |f| {
            matches!(f, Frame::SessionResumed { .. } | Frame::Deny { .. })
        });
        let Frame::SessionResumed {
            session: rid,
            next_expected_seq,
            credit,
        } = resumed
        else {
            panic!("re-fetch denied: {resumed:?}");
        };
        assert_eq!(rid, session);
        assert_eq!(
            next_expected_seq, sent_frames,
            "the cached position is the final receive position"
        );
        assert_eq!(credit, 0, "an ended session grants no credit");
        let mut outcomes = Vec::new();
        let report = loop {
            match read_until(&mut conn, &mut decoder, |f| {
                matches!(f, Frame::Outcomes { .. } | Frame::Report { .. })
            }) {
                Frame::Outcomes {
                    session: s,
                    outcomes: mut batch,
                } => {
                    assert_eq!(s, session);
                    outcomes.append(&mut batch);
                }
                Frame::Report { session: s, report } => {
                    assert_eq!(s, session);
                    break report;
                }
                _ => unreachable!(),
            }
        };
        let got: Vec<BeatOutcome> = outcomes
            .into_iter()
            .map(|o| o.to_outcome().expect("valid class code"))
            .collect();
        assert_full_match(&got, &reference, "re-fetched history");
        assert_eq!(report.beats as usize, reference.len());
        assert_eq!(report.samples as usize, record.len());

        // Connection 3: a *retried close* for the same (retired) wire id is
        // answered with the cached report too — idempotent, not a denial.
        let mut conn = TcpStream::connect(addr).expect("reconnect 2");
        let mut decoder = FrameDecoder::new();
        conn.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello");
        conn.write_all(&Frame::CloseSession { session }.encode())
            .expect("retried close");
        let again = read_until(&mut conn, &mut decoder, |f| {
            matches!(f, Frame::Report { .. })
        });
        let Frame::Report { session: s, report } = again else {
            unreachable!()
        };
        assert_eq!(s, session);
        assert_eq!(report.beats as usize, reference.len());
        assert_eq!(report.samples as usize, record.len());
    });

    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1, "the close was processed once");
    assert_eq!(
        stats.sessions_resumed, 0,
        "the re-fetch is served from the cache, not a live resume"
    );
    assert_eq!(stats.reports_refetched, 2, "once by token, once by close");
    assert_eq!(stats.denials, 0, "no path through this scenario denies");
}

/// Opens a session on a fresh connection and closes it at once (no
/// samples: an empty report). Returns the wire id, the resume token and the
/// instant just before the close was sent — the cached report cannot be
/// older than that.
fn open_and_close(addr: SocketAddr, patient_id: u32) -> (u32, u64, Instant) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut decoder = FrameDecoder::new();
    conn.write_all(
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .expect("hello");
    conn.write_all(
        &Frame::OpenSession {
            patient_id,
            fs_millihertz: 360_000,
            calib_len: 720,
        }
        .encode(),
    )
    .expect("open");
    let Frame::SessionOpened { session, token, .. } = read_until(&mut conn, &mut decoder, |f| {
        matches!(f, Frame::SessionOpened { .. })
    }) else {
        unreachable!()
    };
    let close_sent = Instant::now();
    conn.write_all(&Frame::CloseSession { session }.encode())
        .expect("close");
    read_until(&mut conn, &mut decoder, |f| {
        matches!(f, Frame::Report { .. })
    });
    (session, token, close_sent)
}

/// Asks for a cached report by resume token on a fresh connection: `true`
/// when it is re-served, `false` when the token is refused as expired.
fn refetch(addr: SocketAddr, patient_id: u32, token: u64) -> bool {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut decoder = FrameDecoder::new();
    conn.write_all(
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .expect("hello");
    conn.write_all(
        &Frame::ResumeSession {
            patient_id,
            session_token: token,
            last_acked_seq: 0,
            outcomes_received: 0,
        }
        .encode(),
    )
    .expect("resume");
    match read_until(&mut conn, &mut decoder, |f| {
        matches!(f, Frame::Report { .. } | Frame::Deny { .. })
    }) {
        Frame::Report { .. } => true,
        Frame::Deny { message } => {
            assert!(message.contains("unknown or expired"), "{message}");
            false
        }
        _ => unreachable!(),
    }
}

#[test]
fn a_report_cached_after_the_last_expiry_check_is_served_inside_the_window_only() {
    // The gateway checks the report cache only once its oldest entry can
    // have expired. A report cached later must survive the check that
    // expires an older one, and still expire on its own deadline.
    let fw = firmware();
    let window = Duration::from_millis(1000);
    let config = GatewayConfig {
        resume_window: window,
        ..GatewayConfig::default()
    };
    let ((), stats) = with_gateway(&fw, 360.0, config, |addr| {
        // Polls the cache for `token` until it is refused; a refusal is
        // only correct once the window has run out since the close.
        let wait_refused = |patient_id: u32, token: u64, close_sent: Instant| {
            support::wait_until(Duration::from_secs(20), || {
                let refused = !refetch(addr, patient_id, token);
                if refused {
                    assert!(
                        close_sent.elapsed() > window,
                        "report of patient {patient_id} refused inside the window"
                    );
                }
                refused
            });
        };
        let (_, token_a, closed_a) = open_and_close(addr, 1);
        assert!(refetch(addr, 1, token_a), "fresh report is re-served");
        // Stagger the second close half a window behind the first, so the
        // first expires while the second is well inside its window.
        support::wait_until(Duration::from_secs(10), || closed_a.elapsed() >= window / 2);
        let (_, token_b, closed_b) = open_and_close(addr, 2);
        wait_refused(1, token_a, closed_a);
        let served = refetch(addr, 2, token_b);
        assert!(
            served || closed_b.elapsed() > window,
            "a report cached after the last expiry check was refused inside its window"
        );
        wait_refused(2, token_b, closed_b);
    });
    assert_eq!(stats.sessions_closed, 2);
    assert!(stats.reports_refetched >= 2);
    assert_eq!(stats.internal_skips, 0);
}

/// Polls `gateway` by hand until it holds exactly one parked session, then
/// once more, so the sweep has also let go of the parked session.
fn poll_until_parked(gateway: &mut Gateway<'_>) {
    let start = Instant::now();
    while gateway.health().parked_sessions != 1 {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "session never parked"
        );
        gateway.poll().expect("poll");
    }
    gateway.poll().expect("poll");
}

#[test]
fn an_over_claiming_resume_of_a_parked_session_with_buffered_samples_keeps_it_swept() {
    // A session parks with samples still buffered and credit owed: its
    // link resets while a small per-sweep ingest cap holds the samples
    // back. A resume that claims more acked frames than the gateway
    // received makes the session live until the denial parks it again, so
    // that sweep must visit it like any resumed session; the debug-build
    // work-set audit fails the poll otherwise. The gateway is polled by
    // hand, so nothing drains behind the test's back, and an honest resume
    // afterwards still gets the whole stream classified.
    let fw = firmware();
    let record = wire_record(7500, 30);
    let fs = record.fs;
    let fs_millihertz = (fs * 1000.0).round() as u32;
    let calib_len = 720usize;
    let reference = reference_outcomes(&fw, &record, calib_len);
    let config = GatewayConfig {
        max_ingest_per_poll: 16,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::bind("127.0.0.1:0", &fw, fs, config).expect("bind");
    let addr = gateway.local_addr().expect("addr");

    // Connection 1: open, send everything, and reset the link once the
    // gateway has read every frame.
    let (mut conn, mut decoder) = support::greeted(addr);
    conn.write_all(
        &Frame::OpenSession {
            patient_id: record.id,
            fs_millihertz,
            calib_len: calib_len as u32,
        }
        .encode(),
    )
    .expect("open");
    let Frame::SessionOpened { session, token, .. } =
        support::pump_until(&mut gateway, &mut conn, &mut decoder, |f| {
            matches!(f, Frame::SessionOpened { .. })
        })
    else {
        unreachable!()
    };
    let mut codes = Vec::new();
    quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
    let mut sent_frames = 0u32;
    for chunk in codes.chunks(4096) {
        conn.write_all(
            &Frame::Samples {
                session,
                seq: sent_frames,
                samples: chunk.to_vec(),
            }
            .encode(),
        )
        .expect("samples");
        sent_frames += 1;
    }
    support::pump_until(
        &mut gateway,
        &mut conn,
        &mut decoder,
        |f| matches!(f, Frame::Credit { acked_seq, .. } if *acked_seq == sent_frames),
    );
    // One more sweep queues a grant the client never reads: closing a
    // socket with unread data resets the link instead of half-closing it.
    gateway.poll().expect("poll");
    let mut probe = [0u8; 1];
    support::wait_until(Duration::from_secs(10), || {
        conn.peek(&mut probe).is_ok_and(|n| n > 0)
    });
    drop(conn);
    poll_until_parked(&mut gateway);
    assert!(
        gateway.health().buffered_bytes > 0,
        "the session parked with samples still buffered"
    );

    // Connection 2: over-claim the acked frames — denied.
    let (mut conn, mut decoder) = support::greeted(addr);
    conn.write_all(
        &Frame::ResumeSession {
            patient_id: record.id,
            session_token: token,
            last_acked_seq: sent_frames + 5,
            outcomes_received: 0,
        }
        .encode(),
    )
    .expect("resume");
    let Frame::Deny { message } = support::pump_until(&mut gateway, &mut conn, &mut decoder, |f| {
        matches!(f, Frame::Deny { .. } | Frame::SessionResumed { .. })
    }) else {
        panic!("an over-claiming resume was accepted");
    };
    assert!(message.contains("resume claims"), "{message}");
    poll_until_parked(&mut gateway);
    drop(conn);

    // Connection 3: an honest resume, then close for the report.
    let (mut conn, mut decoder) = support::greeted(addr);
    conn.write_all(
        &Frame::ResumeSession {
            patient_id: record.id,
            session_token: token,
            last_acked_seq: sent_frames,
            outcomes_received: 0,
        }
        .encode(),
    )
    .expect("resume");
    let resumed = support::pump_until(&mut gateway, &mut conn, &mut decoder, |f| {
        matches!(f, Frame::SessionResumed { .. } | Frame::Deny { .. })
    });
    let Frame::SessionResumed {
        session: rid,
        next_expected_seq,
        ..
    } = resumed
    else {
        panic!("honest resume denied: {resumed:?}");
    };
    assert_eq!(rid, session);
    assert_eq!(next_expected_seq, sent_frames);
    conn.write_all(&Frame::CloseSession { session }.encode())
        .expect("close");
    let mut outcomes = Vec::new();
    let report = loop {
        match support::pump_until(&mut gateway, &mut conn, &mut decoder, |f| {
            matches!(f, Frame::Outcomes { .. } | Frame::Report { .. })
        }) {
            Frame::Outcomes {
                outcomes: mut batch,
                ..
            } => outcomes.append(&mut batch),
            Frame::Report { report, .. } => break report,
            _ => unreachable!(),
        }
    };
    let got: Vec<BeatOutcome> = outcomes
        .into_iter()
        .map(|o| o.to_outcome().expect("valid class code"))
        .collect();
    assert_full_match(&got, &reference, "resumed after a denied resume");
    assert_eq!(report.samples as usize, record.len());
    let stats = gateway.stats();
    assert_eq!(stats.denials, 1, "only the over-claiming resume is denied");
    assert_eq!(stats.sessions_resumed, 1);
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.internal_skips, 0);
}
