//! Network fault-injection property suite (requires `--features
//! fault-inject`).
//!
//! A [`FaultProxy`] sits between [`WireSwarm`] clients and the front-end
//! and misbehaves per connection: torn frames (severed mid-frame),
//! byte-dribbling, one-time mid-response stalls, and resets. Healthy
//! and faulted connections share the proxy and the front-end's event
//! loops. Properties:
//!
//! 1. connections with a non-lossy plan (`None`, `Dribble`,
//!    `StallOnce`) receive every response, byte-identical to a
//!    fault-free baseline run — faults never bleed across connections;
//! 2. every submitted request resolves to exactly one terminal outcome:
//!    answered once (no duplicate ids, no unsolicited ids), or
//!    unanswered only on a connection that observed its disconnect
//!    (`TearAfter` / `ResetAfter`);
//! 3. the front-end's ledger reconciles: the latency histogram counts
//!    exactly the `responses` counter, nothing was shed, and the
//!    front-end still serves a fresh direct connection afterwards;
//! 4. a shutdown issued anywhere in a send schedule — before any loop
//!    has adopted the connections, between two sends, or after the last
//!    — resolves each request exactly once: every request sent before
//!    the shutdown is answered once, a later one is answered at most
//!    once, and every connection sees GOAWAY.

#![cfg(feature = "fault-inject")]

use lmpeel_lm::{InductionLm, LanguageModel};
use lmpeel_serve::frontend::{WireRequest, WireResponse, WireResult, CODE_SHUTDOWN};
use lmpeel_serve::netfault::{FaultProxy, NetFault};
use lmpeel_serve::{BackpressurePolicy, Frontend, InferenceService, LmService, WireSwarm};
use lmpeel_tokenizer::TokenId;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// Requests pipelined per connection.
const REQS_PER_CONN: u64 = 3;

/// Decode one plan code into a connection's fault plan. Tear/reset
/// offsets are derived from the code so cases vary where the sever
/// lands (always inside the ~210-byte upstream / response streams).
fn plan_for(code: usize) -> NetFault {
    match code % 5 {
        0 => NetFault::None,
        1 => NetFault::TearAfter(1 + (code * 7) % 90),
        2 => NetFault::Dribble {
            delay: Duration::from_micros(500),
        },
        3 => NetFault::StallOnce {
            after: (code * 13) % 64,
            pause: Duration::from_millis(20),
        },
        _ => NetFault::ResetAfter(1 + (code * 11) % 90),
    }
}

/// Plans that deliver every byte (possibly late) must produce the full,
/// byte-identical response set; lossy plans are allowed to disconnect.
fn must_complete(plan: NetFault) -> bool {
    matches!(
        plan,
        NetFault::None | NetFault::Dribble { .. } | NetFault::StallOnce { .. }
    )
}

/// What one client connection observed: responses in receipt order
/// (id, encoded bytes) and whether the transport died on it.
struct ConnOutcome {
    received: Vec<(u64, Vec<u8>)>,
    disconnected: bool,
}

/// Pipeline `REQS_PER_CONN` requests (ids `conn*1000..`) and read until
/// all are answered or the transport fails.
fn drive_conn(addr: std::net::SocketAddr, conn: u64, prompt: &[TokenId]) -> ConnOutcome {
    let mut outcome = ConnOutcome {
        received: Vec::new(),
        disconnected: false,
    };
    let Ok(mut client) = WireSwarm::connect(addr, 1) else {
        outcome.disconnected = true;
        return outcome;
    };
    for r in 0..REQS_PER_CONN {
        let mut req = WireRequest::new(conn * 1000 + r, "default", prompt.to_vec(), 3);
        req.seed = r;
        if client.send(0, &req.encode()).is_err() {
            outcome.disconnected = true;
            return outcome;
        }
    }
    while (outcome.received.len() as u64) < REQS_PER_CONN {
        match client.recv(0).map(|body| (WireResponse::decode(&body), body)) {
            Ok((Ok(resp), body)) => outcome.received.push((resp.id, body)),
            _ => {
                outcome.disconnected = true;
                break;
            }
        }
    }
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Healthy connections are byte-identical beside faulted ones, every
    // request has exactly one terminal outcome, and the front-end's
    // ledger reconciles.
    #[test]
    fn faults_stay_contained_to_their_own_connection(
        plan_codes in proptest::collection::vec(0usize..25, 1..4),
    ) {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = model.tokenizer().encode("Performance: ");
        // Prefix caching off so response bytes (reused/prefilled counts
        // included) are a pure function of the request.
        let service: Arc<dyn LmService> = Arc::new(
            InferenceService::builder()
                .model("default", model.clone())
                .prefix_cache_capacity(0)
                .build(),
        );
        let frontend = Frontend::builder()
            .loops(2)
            .tick_interval(Duration::from_micros(100))
            .mid_frame_ticks(2_000)
            .idle_ticks(20_000)
            .bind(Arc::clone(&service), "127.0.0.1:0")
            .unwrap();

        // Connection 0 is always a healthy control riding through the
        // same proxy as the faulted plans.
        let mut plans = vec![NetFault::None];
        plans.extend(plan_codes.iter().map(|&c| plan_for(c)));

        // Fault-free baseline, direct to the front-end: the expected
        // bytes for every id.
        let mut baseline: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for conn in 0..plans.len() as u64 {
            let outcome = drive_conn(frontend.local_addr(), conn, &prompt);
            prop_assert!(!outcome.disconnected, "baseline must not disconnect");
            for (id, bytes) in outcome.received {
                baseline.insert(id, bytes);
            }
        }
        prop_assert_eq!(baseline.len() as u64, plans.len() as u64 * REQS_PER_CONN);

        // The faulted run: every connection through the proxy, each
        // with its accept-order plan, all concurrently.
        let proxy = FaultProxy::bind(frontend.local_addr(), plans.clone()).unwrap();
        let workers: Vec<_> = (0..plans.len() as u64)
            .map(|conn| {
                let addr = proxy.local_addr();
                let prompt = prompt.clone();
                // Stagger dials so accept order (which assigns plans)
                // matches connection index.
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(10 * conn));
                    drive_conn(addr, conn, &prompt)
                })
            })
            .collect();
        let outcomes: Vec<ConnOutcome> =
            workers.into_iter().map(|w| w.join().unwrap()).collect();

        let mut seen_ids: BTreeSet<u64> = BTreeSet::new();
        let mut total_received = 0u64;
        for (conn, outcome) in outcomes.iter().enumerate() {
            let plan = plans[conn];
            for (id, bytes) in &outcome.received {
                // Exactly-once: no duplicate ids, no unsolicited ids,
                // and an answered id answers with the baseline bytes.
                prop_assert!(seen_ids.insert(*id), "duplicate response id {id}");
                let expected = baseline.get(id);
                prop_assert!(expected.is_some(), "unsolicited response id {id}");
                prop_assert_eq!(
                    bytes, expected.unwrap(),
                    "conn {} (plan {:?}) response {} diverged from baseline",
                    conn, plan, id
                );
            }
            total_received += outcome.received.len() as u64;
            if must_complete(plan) {
                prop_assert!(
                    !outcome.disconnected && outcome.received.len() as u64 == REQS_PER_CONN,
                    "conn {} (plan {:?}) lost responses beside faults: got {} of {}",
                    conn, plan, outcome.received.len(), REQS_PER_CONN
                );
            } else {
                // Lossy plans: unanswered requests are permitted only
                // because the connection observably died.
                prop_assert!(
                    outcome.disconnected || outcome.received.len() as u64 == REQS_PER_CONN,
                    "conn {} (plan {:?}) is missing responses without a disconnect",
                    conn, plan
                );
            }
        }
        proxy.shutdown();

        // Ledger reconciliation: the histogram counts exactly the
        // response counter, every delivered response was counted, and
        // nothing was shed in this workload.
        let stats = frontend.stats();
        prop_assert_eq!(stats.latency.count(), stats.responses);
        prop_assert!(
            stats.responses >= baseline.len() as u64 + total_received,
            "ledger lost responses: {} < {} + {}",
            stats.responses, baseline.len(), total_received
        );
        prop_assert_eq!(stats.shed, 0u64);
        prop_assert_eq!(stats.shed_inflight, 0u64);

        // The front-end survived the faults: a fresh direct connection
        // still gets baseline bytes.
        let mut probe = WireSwarm::connect(frontend.local_addr(), 1).unwrap();
        let mut req = WireRequest::new(0, "default", prompt.clone(), 3);
        req.seed = 0;
        probe.send(0, &req.encode()).unwrap();
        prop_assert_eq!(&probe.recv(0).unwrap(), baseline.get(&0).unwrap());

        frontend.shutdown();
    }

    // Shutdown at a random point of the send schedule. Every connection
    // is in the kernel's accept queue before the first send, so a cut
    // at 0 shuts down before any loop has adopted them. The shutdown
    // either runs on a drainer thread while the sends continue, or
    // completes on this thread before the rest go out.
    #[test]
    fn shutdown_anywhere_in_the_send_schedule_resolves_each_request_once(
        conns in 1usize..4,
        per_conn in 1usize..4,
        cut_code in 0usize..100,
        inline in proptest::bool::ANY,
    ) {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = model.tokenizer().encode("Performance: ");
        let service: Arc<dyn LmService> = Arc::new(
            InferenceService::builder()
                .model("default", model)
                .backpressure(BackpressurePolicy::Reject)
                .build(),
        );
        let frontend = Frontend::builder()
            .loops(2)
            .tick_interval(Duration::from_micros(100))
            .drain_linger_ticks(64)
            .bind(Arc::clone(&service), "127.0.0.1:0")
            .unwrap();
        let total = conns * per_conn;
        let cut = cut_code % (total + 1);
        let mut swarm = WireSwarm::connect(frontend.local_addr(), conns).unwrap();
        let mut send = |id: usize| {
            let req = WireRequest::new(id as u64, "default", prompt.clone(), 2);
            swarm.send(id % conns, &req.encode())
        };
        for id in 0..cut {
            prop_assert!(send(id).is_ok(), "send {} failed before shutdown", id);
        }
        let drainer = if inline {
            let stats = frontend.shutdown();
            std::thread::spawn(move || stats)
        } else {
            std::thread::spawn(move || frontend.shutdown())
        };
        for id in cut..total {
            // After shutdown the connection may already be closed.
            let _ = send(id);
        }

        // Read every connection until the server closes it.
        let mut answered = BTreeSet::new();
        for conn in 0..conns {
            while let Ok(body) = swarm.recv(conn) {
                let resp = WireResponse::decode(&body).unwrap();
                let id = resp.id as usize;
                prop_assert!(id < total && id % conns == conn, "unsolicited id {} on {}", id, conn);
                prop_assert!(answered.insert(id), "id {} answered twice", id);
                if let WireResult::Err { code, message } = resp.body {
                    prop_assert_eq!(code, CODE_SHUTDOWN, "id {}: {}", id, message);
                }
            }
            prop_assert!(swarm.saw_goaway(conn), "connection {} saw no GOAWAY", conn);
        }
        for id in 0..cut {
            prop_assert!(answered.contains(&id), "request {} sent before shutdown unanswered", id);
        }
        let stats = drainer.join().unwrap();
        prop_assert_eq!(stats.accepted, conns as u64);
        prop_assert_eq!(stats.responses, answered.len() as u64);
    }
}
