//! Property: batch fusion in the scheduler's Step phase is byte-invisible.
//!
//! Every case runs one mixed-substrate workload three ways — fused
//! scheduler (the default), unfused scheduler (`fuse_batches(false)`,
//! the loop-of-single-steps reference), and the plain sequential
//! [`lmpeel_lm::generate`] loop — and demands byte-identical traces from
//! all three, across batch widths, admission orders, and transformer /
//! induction substrate mixes.

use lmpeel_lm::{generate, GenerateSpec, InductionLm, LanguageModel};
use lmpeel_serve::{GenerateRequest, InferenceService, LmService};
use lmpeel_transformer::InductionTransformer;
use proptest::prelude::*;
use std::sync::Arc;

const PROMPTS: [&str; 3] = [
    " loop tile packing array loop",
    " outer middle inner outer middle",
    "Hyperparameter configuration: outer_loop_tiling_factor is 80\nPerformance: 0.0022155\n\
     Hyperparameter configuration: outer_loop_tiling_factor is 80\nPerformance: ",
];

fn spec(seed: u64) -> GenerateSpec {
    GenerateSpec::builder()
        .max_tokens(5)
        .seed(seed)
        .build()
        .unwrap()
}

/// Decode one workload code into (substrate, prompt index, sampling seed):
/// 2 substrates x 3 prompts x 4 seeds. (The vendored proptest has no tuple
/// strategies.)
fn unpack(code: usize) -> (&'static str, usize, u64) {
    let substrate = if code % 2 == 0 { "transformer" } else { "induction" };
    let prompt_idx = (code / 2) % 3;
    let seed = ((code / 6) % 4) as u64;
    (substrate, prompt_idx, seed)
}

fn service(fuse: bool, max_batch: usize, trie_capacity: usize) -> InferenceService {
    InferenceService::builder()
        .model(
            "transformer",
            Arc::new(InductionTransformer::paper()) as Arc<dyn LanguageModel>,
        )
        .model("induction", Arc::new(InductionLm::paper(0)) as Arc<dyn LanguageModel>)
        .max_batch(max_batch)
        .prefix_cache_capacity(trie_capacity)
        .fuse_batches(fuse)
        .build()
}

fn run(workload: &[usize], fuse: bool, max_batch: usize, trie: usize) -> Vec<Vec<u8>> {
    let transformer = InductionTransformer::paper();
    let induction = InductionLm::paper(0);
    let svc = service(fuse, max_batch, trie);
    // Submit everything up front so the scheduler genuinely batches.
    let handles: Vec<_> = workload
        .iter()
        .map(|&code| {
            let (substrate, p, seed) = unpack(code);
            let prompt = match substrate {
                "transformer" => transformer.tokenizer().encode(PROMPTS[p]),
                _ => induction.tokenizer().encode(PROMPTS[p]),
            };
            svc.submit(GenerateRequest::new(substrate, prompt, spec(seed)))
                .expect("block policy never sheds")
        })
        .collect();
    handles
        .into_iter()
        .map(|h| {
            let trace = h.wait().expect("request completes").trace;
            // Compare serialized bytes so "identical" means identical.
            format!("{trace:?}").into_bytes()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fused_unfused_and_sequential_traces_are_byte_identical(
        workload in proptest::collection::vec(0usize..24, 1..10),
        max_batch in 1usize..8,
        trie_capacity in 0usize..4,
    ) {
        let fused = run(&workload, true, max_batch, trie_capacity);
        let unfused = run(&workload, false, max_batch, trie_capacity);
        prop_assert_eq!(&fused, &unfused, "fusion changed request bytes");

        let transformer = Arc::new(InductionTransformer::paper());
        let induction = Arc::new(InductionLm::paper(0));
        for (&code, got) in workload.iter().zip(&fused) {
            let (substrate, p, seed) = unpack(code);
            let expected = match substrate {
                "transformer" => {
                    let prompt = transformer.tokenizer().encode(PROMPTS[p]);
                    generate(&transformer, &prompt, &spec(seed)).unwrap()
                }
                _ => {
                    let prompt = induction.tokenizer().encode(PROMPTS[p]);
                    generate(&induction, &prompt, &spec(seed)).unwrap()
                }
            };
            prop_assert_eq!(
                got,
                &format!("{:?}", expected).into_bytes(),
                "{} prompt {} seed {} diverged from sequential decode",
                substrate, p, seed
            );
        }
    }
}

/// A full 16-wide all-transformer batch — the serving sweet spot the
/// fused GEMM targets — pinned deterministically against the sequential
/// loop.
#[test]
fn wide_transformer_batch_matches_sequential() {
    let transformer = Arc::new(InductionTransformer::paper());
    let svc = service(true, 16, 0);
    let handles: Vec<_> = (0..16u64)
        .map(|seed| {
            let prompt = transformer
                .tokenizer()
                .encode(PROMPTS[(seed % 3) as usize]);
            svc.submit(GenerateRequest::new("transformer", prompt, spec(seed)))
                .expect("submit")
        })
        .collect();
    for (seed, h) in (0..16u64).zip(handles) {
        let prompt = transformer
            .tokenizer()
            .encode(PROMPTS[(seed % 3) as usize]);
        let expected = generate(&transformer, &prompt, &spec(seed)).unwrap();
        assert_eq!(h.wait().expect("completes").trace, expected, "seed {seed}");
    }
}
