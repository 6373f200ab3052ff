//! Shared helpers for the socket-level integration suites
//! (`net_loopback.rs`, `chaos_gateway.rs`, `durability_gateway.rs`,
//! `overload_gateway.rs`).
//!
//! Kept in `tests/support/` (not a sibling `.rs` file) so Cargo does not
//! compile it as a test target of its own; each suite pulls it in with
//! `mod support;`.

#![allow(dead_code)]

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use heartbeat_rp::hbc_net::proto::{Frame, FrameDecoder};
use heartbeat_rp::hbc_net::{Gateway, PROTOCOL_VERSION};

/// Polls `cond` every millisecond until it returns `true` or `deadline`
/// elapses; panics on timeout. Replaces fixed sleeps so the suites stay fast
/// on idle machines and reliable on loaded ones.
pub fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < deadline,
            "condition not met within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Seed driving every chaos fault schedule: `HBC_CHAOS_SEED` when set (CI
/// pins it so failures replay bit-for-bit), otherwise a fixed default so
/// local runs are reproducible too.
pub fn chaos_seed() -> u64 {
    std::env::var("HBC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A0_5EED)
}

/// A scoped scratch directory under the system temp root, removed on drop.
/// Unique per process *and* thread so `cargo test`'s parallel runners never
/// collide; the durability suites point gateway logs at it.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "hbc-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        // A leftover from a killed previous run must not leak state in.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Opens a raw connection with a short read timeout, for a gateway the
/// test polls by hand, and sends the version handshake.
pub fn greeted(addr: SocketAddr) -> (TcpStream, FrameDecoder) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_millis(1)))
        .expect("timeout");
    conn.write_all(
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .expect("hello");
    (conn, FrameDecoder::new())
}

/// Polls `gateway` by hand until a frame matching `want` arrives on `conn`.
pub fn pump_until(
    gateway: &mut Gateway<'_>,
    conn: &mut TcpStream,
    decoder: &mut FrameDecoder,
    want: impl Fn(&Frame) -> bool,
) -> Frame {
    let start = Instant::now();
    let mut buf = [0u8; 4096];
    loop {
        while let Some(frame) = decoder.next_frame().expect("valid") {
            if want(&frame) {
                return frame;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "expected frame never arrived"
        );
        gateway.poll().expect("poll");
        match conn.read(&mut buf) {
            Ok(0) => panic!("gateway hung up before the expected frame"),
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
}
