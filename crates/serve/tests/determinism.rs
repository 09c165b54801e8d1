//! Property: the service is a deterministic function of each request,
//! regardless of how requests interleave inside the scheduler.
//!
//! Every case draws a random workload (which prompt, which sampling seed,
//! optional model re-key) and random service knobs (queue bound, batch
//! width, prefix-cache capacity), submits everything up front so the
//! scheduler genuinely batches, and then demands byte-identical traces to
//! the sequential [`lmpeel_lm::generate`] loop run one request at a time.

use lmpeel_lm::{generate, GenerateSpec, InductionLm, LanguageModel};
use lmpeel_serve::{GenerateRequest, InferenceService, LmService};
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

/// Decode one workload code into (prompt index, sampling seed, model seed).
/// The vendored proptest has no tuple strategies, so cases are packed into
/// a single integer: 3 prompts x 4 sampling seeds x 2 model seeds.
fn unpack(code: usize) -> (usize, u64, Option<u64>) {
    let prompt_idx = code % 3;
    let seed = ((code / 3) % 4) as u64;
    let model_seed = if (code / 12) % 2 == 1 { Some(7) } else { None };
    (prompt_idx, seed, model_seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_admission_interleaving_matches_sequential_decoding(
        workload in proptest::collection::vec(0usize..24, 1..10),
        queue_capacity in 1usize..8,
        max_batch in 1usize..8,
        trie_capacity in 0usize..4,
    ) {
        let model = Arc::new(InductionLm::paper(0));
        let rekeyed = Arc::new(InductionLm::paper(7));
        let prompts = prompts(&model);

        let service = InferenceService::builder()
            .model("default", model.clone())
            .queue_capacity(queue_capacity)
            .max_batch(max_batch)
            .prefix_cache_capacity(trie_capacity)
            .build();

        // Submit the whole workload before waiting on any handle.
        let handles: Vec<_> = workload
            .iter()
            .map(|&code| {
                let (p, seed, model_seed) = unpack(code);
                let mut req = GenerateRequest::new("default", prompts[p].clone(), spec(seed));
                if let Some(ms) = model_seed {
                    req = req.with_model_seed(ms);
                }
                service.submit(req).expect("block policy never sheds")
            })
            .collect();

        for (&code, handle) in workload.iter().zip(handles) {
            let (p, seed, model_seed) = unpack(code);
            let reference = match model_seed {
                Some(_) => &rekeyed,
                None => &model,
            };
            let expected = generate(reference, &prompts[p], &spec(seed)).unwrap();
            let got = handle.wait().expect("request completes");
            prop_assert_eq!(
                &got.trace, &expected,
                "prompt {} seed {} model_seed {:?} diverged under \
                 queue={} batch={} trie={}",
                p, seed, model_seed, queue_capacity, max_batch, trie_capacity
            );
        }
    }
}
