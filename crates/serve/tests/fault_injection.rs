//! Fault-injection property suite (requires `--features fault-inject`).
//!
//! Property: under randomly injected session panics and decode errors,
//! across random admission orders, queue bounds, batch widths and trie
//! capacities,
//!
//! 1. every request on a *healthy* substrate finishes with a trace
//!    byte-identical to sequential [`lmpeel_lm::generate`];
//! 2. every request on a *faulted* substrate receives exactly one
//!    terminal [`RequestError`] (a contained panic, a quarantine
//!    rejection, or a decode error — never a hang, never a second
//!    result);
//! 3. the scheduler thread never dies: after the whole workload, a fresh
//!    healthy request still completes and `shutdown` joins cleanly.

#![cfg(feature = "fault-inject")]

use lmpeel_lm::{generate, GenerateSpec, InductionLm, LanguageModel, LmError};
use lmpeel_serve::faults::{silence_injected_panics, Fault, FaultyLm};
use lmpeel_serve::{GenerateRequest, InferenceService, LmService, RequestError};
use lmpeel_tokenizer::TokenId;
use proptest::prelude::*;
use std::sync::Arc;

/// Three ICL prompts sharing progressively longer prefixes, like adjacent
/// cells of the experiment grid.
fn prompts(model: &InductionLm) -> Vec<Vec<TokenId>> {
    let shots = ["0.0022155", "0.0051230", "0.0031999"];
    (1..=shots.len())
        .map(|n| {
            let mut p = String::new();
            for v in &shots[..n] {
                p.push_str(&format!(
                    "Hyperparameter configuration: outer_loop_tiling_factor is 80\n\
                     Performance: {v}\n"
                ));
            }
            p.push_str(
                "Hyperparameter configuration: outer_loop_tiling_factor is 80\nPerformance: ",
            );
            model.tokenizer().encode(&p)
        })
        .collect()
}

fn spec(seed: u64) -> GenerateSpec {
    GenerateSpec::builder()
        .max_tokens(5)
        .seed(seed)
        .build()
        .unwrap()
}

/// Decode one workload code into (faulty?, prompt index, sampling seed).
/// The vendored proptest has no tuple strategies, so cases are packed
/// into a single integer: 2 substrates x 3 prompts x 4 sampling seeds.
fn unpack(code: usize) -> (bool, usize, u64) {
    let faulty = code % 2 == 1;
    let prompt_idx = (code / 2) % 3;
    let seed = ((code / 6) % 4) as u64;
    (faulty, prompt_idx, seed)
}

/// Decode a fault code into the injected failure mode.
fn fault_for(code: usize) -> Fault {
    match code % 3 {
        0 => Fault::PanicOnExtend,
        1 => Fault::PanicOnStep(1 + code / 3),
        _ => Fault::EmptyLogitsOnStep(1 + code / 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn injected_faults_never_leak_across_requests(
        workload in proptest::collection::vec(0usize..24, 1..12),
        queue_capacity in 1usize..8,
        max_batch in 1usize..8,
        trie_capacity in 0usize..4,
        quarantine_after in 1u32..4,
        fault_code in 0usize..12,
    ) {
        silence_injected_panics();
        let healthy = Arc::new(InductionLm::paper(0));
        let faulty = Arc::new(FaultyLm::new(
            Arc::new(InductionLm::paper(0)),
            fault_for(fault_code),
        ));
        let prompts = prompts(&healthy);

        let service = InferenceService::builder()
            .model("healthy", healthy.clone())
            .model("faulty", faulty)
            .queue_capacity(queue_capacity)
            .max_batch(max_batch)
            .prefix_cache_capacity(trie_capacity)
            .quarantine_after(quarantine_after)
            .build();

        // Submit the whole workload before waiting on any handle, so
        // faulted and healthy requests genuinely share scheduler rounds.
        let handles: Vec<_> = workload
            .iter()
            .map(|&code| {
                let (on_faulty, p, seed) = unpack(code);
                let substrate = if on_faulty { "faulty" } else { "healthy" };
                service
                    .submit(GenerateRequest::new(substrate, prompts[p].clone(), spec(seed)))
                    .expect("block policy never sheds")
            })
            .collect();

        let mut faulted_requests = 0u64;
        for (&code, handle) in workload.iter().zip(handles) {
            let (on_faulty, p, seed) = unpack(code);
            // Exactly one terminal result per request, by construction of
            // wait(); what we verify here is which side of the fault line
            // it lands on.
            let result = handle.wait();
            if on_faulty {
                faulted_requests += 1;
                let err = result.expect_err("requests on the faulty substrate must fail");
                prop_assert!(
                    matches!(
                        &err,
                        RequestError::Panicked(_)
                            | RequestError::SubstrateQuarantined(_)
                            | RequestError::Lm(LmError::EmptyVocab)
                    ),
                    "unexpected terminal error {err:?} under fault {fault_code}"
                );
            } else {
                let expected = generate(&healthy, &prompts[p], &spec(seed)).unwrap();
                let got = result.expect("healthy requests must complete");
                prop_assert_eq!(
                    &got.trace, &expected,
                    "healthy prompt {} seed {} diverged beside faults \
                     (queue={} batch={} trie={} quarantine={})",
                    p, seed, queue_capacity, max_batch, trie_capacity, quarantine_after
                );
            }
        }

        // The scheduler thread is still alive and serving.
        let probe = service
            .generate(GenerateRequest::new("healthy", prompts[0].clone(), spec(0)))
            .expect("scheduler must survive every injected fault");
        prop_assert_eq!(&probe.trace, &generate(&healthy, &prompts[0], &spec(0)).unwrap());

        // Counters reconcile: every submission has exactly one outcome.
        let stats = service.shutdown().expect("clean join after faults");
        prop_assert_eq!(stats.submitted, workload.len() as u64 + 1);
        prop_assert_eq!(stats.completed + stats.failed, stats.submitted);
        prop_assert_eq!(stats.failed, faulted_requests);
        prop_assert!(stats.panicked + stats.quarantined <= stats.failed);
        // Breaker/retry accounting: no retry budget is configured and the
        // injected faults never stop firing, so nothing is ever absorbed
        // in place and no half-open probe ever closes the breaker — while
        // every failed probe is itself a contained panic.
        prop_assert_eq!(stats.retried, 0);
        prop_assert_eq!(stats.breaker_recovered, 0);
        prop_assert!(stats.breaker_reopened <= stats.panicked);
    }
}
