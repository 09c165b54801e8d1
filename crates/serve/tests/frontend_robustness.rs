//! Robustness suite for the event-driven front-end.
//!
//! Covers the connection-fault surface that doesn't need a fault proxy:
//! frame reassembly under arbitrary TCP segmentation (property test),
//! the mid-frame read deadline (a stalled sender is reaped without
//! pinning its loop), the slow-reader write-buffer cap, and the bounded
//! connection registry. The proxy-driven network-fault properties live
//! in `tests/net_faults.rs` behind the `fault-inject` feature.

use lmpeel_lm::{InductionLm, LanguageModel};
use lmpeel_serve::frontend::{FrameAssembler, WireRequest, WireResponse, WireResult};
use lmpeel_serve::{ExtRequest, ExtensionHandler, Frontend, InferenceService, LmService, WireSwarm};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A service over the deterministic induction model, as every test here
/// wants one.
fn service() -> (Arc<InductionLm>, Arc<dyn LmService>) {
    let model = Arc::new(InductionLm::paper(0));
    let service: Arc<dyn LmService> = Arc::new(
        InferenceService::builder()
            .model("default", model.clone())
            .build(),
    );
    (model, service)
}

/// A fresh connection to `frontend` gets `request` answered
/// successfully; the connection is returned still open.
fn assert_served(frontend: &Frontend, request: WireRequest) -> WireSwarm {
    let mut client = WireSwarm::connect(frontend.local_addr(), 1).unwrap();
    client.send(0, &request.encode()).unwrap();
    let resp = WireResponse::decode(&client.recv(0).unwrap()).unwrap();
    assert!(matches!(resp.body, WireResult::Ok { .. }));
    client
}

/// Spin until `cond` holds or the budget elapses; panics with `what` on
/// timeout. The budget is counted in 2 ms sleeps (~10 s total) rather
/// than read from a wall clock, keeping the helper inside the LML0002
/// no-clock discipline — the front-end's own deadlines stay on its
/// logical tick clock.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..5_000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(cond(), "timed out waiting for {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Reassembly is exact under arbitrary segmentation: however the
    // byte stream is split, the assembler yields the original frames in
    // order, never mis-frames, never panics — and a torn tail leaves it
    // resumable, surfacing only the complete frames.
    #[test]
    fn reassembly_is_exact_under_arbitrary_splits(
        sizes in proptest::collection::vec(0usize..200, 1..8),
        cuts in proptest::collection::vec(1usize..48, 1..24),
        tear in 0usize..4,
    ) {
        // Deterministic frame bodies from the proptest-chosen sizes.
        let frames: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| ((i * 31 + j * 7) % 251) as u8).collect())
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&(f.len() as u32).to_le_bytes());
            stream.extend_from_slice(f);
        }

        // Feed the stream in chunks cycling through the chosen cut sizes.
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        let mut pos = 0;
        let mut k = 0;
        while pos < stream.len() {
            let step = cuts[k % cuts.len()].min(stream.len() - pos);
            k += 1;
            asm.feed(&stream[pos..pos + step], &mut out).unwrap();
            pos += step;
        }
        prop_assert_eq!(&out, &frames);
        prop_assert!(!asm.mid_frame());
        prop_assert_eq!(asm.buffered(), 0);

        // Torn tail: truncate 1..=4 bytes. The cut always lands inside
        // the final frame (whose wire size is at least the 4-byte
        // prefix), so exactly the complete frames surface.
        let drop = tear + 1;
        let last_wire = 4 + frames.last().unwrap().len();
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        asm.feed(&stream[..stream.len() - drop], &mut out).unwrap();
        prop_assert_eq!(&out[..], &frames[..frames.len() - 1]);
        if drop < last_wire {
            prop_assert!(asm.mid_frame(), "torn frame must read as mid-frame");
            prop_assert_eq!(asm.buffered(), last_wire - drop);
        }
        // Resumable: delivering the withheld bytes completes the frame.
        asm.feed(&stream[stream.len() - drop..], &mut out).unwrap();
        prop_assert_eq!(&out, &frames);
        prop_assert!(!asm.mid_frame());
    }
}

/// A client that sends a frame length prefix and then stalls holds a
/// torn frame; the mid-frame tick deadline reaps it — without pinning
/// the event loop, which keeps serving a healthy connection beside it.
#[test]
fn a_stalled_mid_frame_sender_is_reaped_by_the_read_deadline() {
    let (model, service) = service();
    let prompt = model.tokenizer().encode("Performance: ");
    // One loop thread, so the stalled and healthy connections share it.
    let frontend = Frontend::builder()
        .loops(1)
        .mid_frame_ticks(50)
        .tick_interval(Duration::from_micros(100))
        .bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap();

    // The staller: a 4-byte length prefix declaring a 100-byte frame,
    // then silence.
    let mut staller = TcpStream::connect(frontend.local_addr()).unwrap();
    staller.write_all(&100u32.to_le_bytes()).unwrap();
    staller.flush().unwrap();

    // A healthy connection on the same loop is still served.
    let _healthy = assert_served(&frontend, WireRequest::new(1, "default", prompt, 3));

    // The staller is reaped: its socket reports EOF/reset and the
    // deadline counter records the disconnect.
    wait_for("mid-frame deadline disconnect", || {
        frontend.stats().disconnected_deadline >= 1
    });
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    match staller.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("reaped connection produced {n} bytes"),
    }
    wait_for("registry to drop the reaped connection", || {
        frontend.connection_count() == 1
    });

    let stats = frontend.shutdown();
    assert_eq!(stats.disconnected_deadline, 1);
    assert_eq!(stats.responses, 1);
    assert_eq!(stats.malformed, 0);
}

/// Regression test for the connection-registry leak: every accepted
/// connection is reaped once it closes (or idles out), so the registry
/// returns to empty instead of growing monotonically.
#[test]
fn the_connection_registry_stays_bounded_as_connections_churn() {
    let (_model, service) = service();
    let frontend = Frontend::builder()
        .loops(2)
        .idle_ticks(50)
        .tick_interval(Duration::from_micros(100))
        .bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap();

    const N: usize = 32;
    // Half the connections close promptly; the other half just idle and
    // must be reaped by the idle deadline.
    let mut idlers = Vec::new();
    for i in 0..N {
        let conn = TcpStream::connect(frontend.local_addr()).unwrap();
        if i % 2 == 0 {
            drop(conn);
        } else {
            idlers.push(conn);
        }
    }
    wait_for("all churned connections to be accepted", || {
        frontend.stats().accepted == N as u64
    });
    wait_for("registry to return to empty", || {
        frontend.connection_count() == 0
    });

    let stats = frontend.shutdown();
    assert_eq!(stats.accepted, N as u64);
    assert!(
        stats.disconnected_deadline >= (N / 2) as u64,
        "idle connections must be reaped by the deadline, got {}",
        stats.disconnected_deadline
    );
    drop(idlers);
}

/// A reader that stops draining its responses is disconnected alone once
/// its write buffer passes the cap — bounded memory per connection, and
/// no TCP pushback into the event loop.
#[test]
fn a_slow_reader_is_disconnected_once_its_write_buffer_fills() {
    /// Echoes a half-megabyte blob per request: a few undrained
    /// responses overflow any kernel socket buffer and then the
    /// front-end's own write-buffer cap.
    struct Blob;
    impl ExtensionHandler for Blob {
        fn handle(&self, _kind: u32, _payload: &[u8]) -> Result<Vec<u8>, String> {
            Ok(vec![0xAB; 512 * 1024])
        }
    }
    let (model, service) = service();
    let prompt = model.tokenizer().encode("Performance: ");
    let frontend = Frontend::builder()
        .loops(1)
        .write_buf_cap(64 * 1024)
        .ext_workers(2)
        .ext_inflight_cap(32)
        .ext_queue_cap(32)
        .tick_interval(Duration::from_micros(100))
        .bind_with_extension(Arc::clone(&service), "127.0.0.1:0", Arc::new(Blob))
        .unwrap();

    // The slow reader requests 8 MiB of responses and never reads.
    let mut slow = WireSwarm::connect(frontend.local_addr(), 1).unwrap();
    for id in 0..16u64 {
        let request = ExtRequest {
            id,
            kind: 0,
            payload: vec![],
        };
        slow.send(0, &request.encode()).unwrap();
    }
    wait_for("slow-reader disconnect", || {
        frontend.stats().disconnected_slow >= 1
    });

    // The loop it was pinned to keeps serving a healthy connection.
    let _healthy = assert_served(&frontend, WireRequest::new(99, "default", prompt, 3));

    let stats = frontend.shutdown();
    assert_eq!(stats.disconnected_slow, 1);
}
