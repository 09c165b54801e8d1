//! Prefix-affinity routing for multi-shard serving.
//!
//! One scheduler thread is a single-shard service's scale ceiling: every
//! decode step of every in-flight request funnels through it, and its one
//! prefix trie is the only cache capacity the whole workload gets. A
//! service built with [`crate::ServiceBuilder::shards`] removes both
//! limits at once: it owns `N` scheduler shards — each with its own
//! thread, its own substrate replicas and its own per-substrate prefix
//! tries — and a [`ShardRouter`] that assigns every request to a shard by
//! **hashing the prompt's prefix window**. Requests sharing a prompt
//! prefix therefore land on the same shard, so prefix-cache hits stay
//! shard-local: the aggregate trie capacity scales with the shard count
//! instead of being split uselessly across caches that each see every
//! prompt.

use lmpeel_tokenizer::TokenId;
use std::num::NonZeroUsize;

/// FNV-1a 64-bit over a token-id sequence. Process-stable (unlike the std
/// hasher's per-process random keys), so routing is deterministic across
/// runs and across machines — a property the router proptests pin.
fn fnv1a64_tokens(tokens: &[TokenId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &t in tokens {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Assigns requests to shards by prompt-prefix hash.
///
/// The router hashes the first [`prefix_window`](ShardRouter::prefix_window)
/// tokens of the prompt (the whole prompt when shorter) and reduces the
/// hash modulo the shard count. Two prompts agreeing on the window land on
/// the same shard even if they diverge later — which is precisely what the
/// prefix trie wants: divergent-tail requests score a *partial* hit against
/// the shard-local snapshot of their common prefix instead of missing in
/// `N-1` foreign caches.
///
/// Routing looks at the prompt only, not the substrate, so one prompt
/// family's induction and transformer traffic colocates and the per-shard
/// multi-substrate registry behaves exactly like the single-shard one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: NonZeroUsize,
    prefix_window: usize,
}

impl ShardRouter {
    /// Router over `shards` shards keyed on the first `prefix_window`
    /// prompt tokens (`shards` is clamped to at least 1; a zero window
    /// routes everything to shard 0).
    pub fn new(shards: usize, prefix_window: usize) -> Self {
        Self {
            shards: NonZeroUsize::new(shards.max(1)).expect("max(1) is nonzero"),
            prefix_window,
        }
    }

    /// Number of shards this router spreads over.
    pub fn shards(&self) -> usize {
        self.shards.get()
    }

    /// Prompt tokens considered by the affinity hash.
    pub fn prefix_window(&self) -> usize {
        self.prefix_window
    }

    /// The shard that owns `prompt`'s prefix. Pure and process-stable:
    /// equal prefixes give equal shards, today and on every rerun.
    pub fn route(&self, prompt: &[TokenId]) -> usize {
        let window = prompt.len().min(self.prefix_window);
        (fnv1a64_tokens(&prompt[..window]) % self.shards.get() as u64) as usize
    }
}

/// Default routing window: short enough that one prompt family's
/// per-seed and per-query variants, which agree far beyond it, always
/// colocate. It does not separate the paper's ICL prompt families: every
/// `PromptBuilder` prompt opens with the chat header and the same 88-token
/// system instructions, so all of them agree on their first 64 tokens and
/// route to one shard.
pub const DEFAULT_PREFIX_WINDOW: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultGate, FaultyLm};
    use crate::{
        BackpressurePolicy, GenerateRequest, InferenceService, LmService, RequestError, ServeStats,
    };
    use lmpeel_lm::{generate, GenerateSpec, InductionLm, LanguageModel};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn spec(seed: u64) -> GenerateSpec {
        GenerateSpec::builder()
            .max_tokens(5)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn icl_prompt(model: &InductionLm, v: &str) -> Vec<TokenId> {
        model.tokenizer().encode(&format!(
            "Hyperparameter configuration: outer_loop_tiling_factor is 80\n\
             Performance: {v}\nHyperparameter configuration: \
             outer_loop_tiling_factor is 80\nPerformance: "
        ))
    }

    #[test]
    fn router_is_stable_and_in_range() {
        let r = ShardRouter::new(4, 8);
        let prompts: Vec<Vec<TokenId>> = (0..32u32)
            .map(|i| (0..12).map(|j| i * 31 + j).collect())
            .collect();
        for p in &prompts {
            let shard = r.route(p);
            assert!(shard < 4);
            assert_eq!(shard, r.route(p), "routing must be pure");
            assert_eq!(
                shard,
                ShardRouter::new(4, 8).route(p),
                "routing must not depend on router identity"
            );
        }
    }

    #[test]
    fn prompts_sharing_the_window_share_a_shard() {
        let r = ShardRouter::new(8, 6);
        let base: Vec<TokenId> = (0..6).collect();
        let mut a = base.clone();
        a.extend([100, 101]);
        let mut b = base.clone();
        b.extend([200, 201, 202]);
        assert_eq!(r.route(&a), r.route(&b), "divergence past the window");
        assert_eq!(r.route(&base), r.route(&a), "window-length prompt");
    }

    #[test]
    fn zero_shards_clamps_to_one_and_empty_prompts_route() {
        let r = ShardRouter::new(0, 64);
        assert_eq!(r.shards(), 1);
        assert_eq!(r.route(&[]), 0);
        let r = ShardRouter::new(3, 0);
        let a: Vec<TokenId> = vec![1, 2, 3];
        let b: Vec<TokenId> = vec![9, 9];
        assert_eq!(r.route(&a), r.route(&b), "zero window routes uniformly");
    }

    #[test]
    fn sharded_traces_match_sequential_generation() {
        let model = Arc::new(InductionLm::paper(0));
        let service = InferenceService::builder()
            .shards(3)
            .model("default", model.clone())
            .build();
        for (i, v) in ["0.0022155", "0.0051230", "0.0031999"].iter().enumerate() {
            let prompt = icl_prompt(&model, v);
            let expected = generate(&model, &prompt, &spec(i as u64)).unwrap();
            let got = service
                .generate(GenerateRequest::new("default", prompt, spec(i as u64)))
                .unwrap();
            assert_eq!(got.trace, expected, "prompt {i}");
        }
        let stats = service.shutdown().expect("clean join");
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.submitted, 3);
    }

    #[test]
    fn per_shard_replica_factories_run_once_per_shard() {
        let built = Arc::new(AtomicUsize::new(0));
        let b2 = Arc::clone(&built);
        let service = InferenceService::builder()
            .shards(3)
            .model_factory("default", move |_shard| {
                b2.fetch_add(1, Ordering::SeqCst);
                Arc::new(InductionLm::paper(0))
            })
            .build();
        assert_eq!(built.load(Ordering::SeqCst), 3);
        drop(service);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let model = Arc::new(InductionLm::paper(0));
        let service = InferenceService::builder()
            .shards(4)
            .model("default", model.clone())
            .build();
        let prompts: Vec<Vec<TokenId>> = ["0.0022155", "0.0051230", "0.0031999", "0.0040000"]
            .iter()
            .map(|v| icl_prompt(&model, v))
            .collect();
        // Two requests per prompt: the second full-hits its shard's trie.
        for p in &prompts {
            for seed in 0..2 {
                service
                    .generate(GenerateRequest::new("default", p.clone(), spec(seed)))
                    .unwrap();
            }
        }
        let unknown = service
            .generate(GenerateRequest::new("nope", prompts[0].clone(), spec(0)))
            .unwrap_err();
        assert!(matches!(unknown, RequestError::UnknownSubstrate(_)));
        let merged = service.stats();
        let per_shard = service.shard_stats();
        assert_eq!(merged, ServeStats::merged(per_shard.iter()));
        assert_eq!(merged.submitted, 9);
        assert_eq!(merged.completed, 8);
        assert_eq!(merged.failed, 1);
        assert_eq!(
            merged.prefix.full_hits, 4,
            "each prompt's second request hits its shard-local trie"
        );
        assert_eq!(merged.prefix.misses, 4);
    }

    /// Every per-shard knob reaches every shard of a multi-shard build,
    /// and each shard gets its own replica from the factory. Each shard's
    /// scheduler is parked inside its own replica's gate while the test
    /// probes that shard's queue, batch and cache bounds.
    #[test]
    fn knobs_and_replica_factories_apply_to_every_shard() {
        let inner: Arc<dyn LanguageModel> = Arc::new(InductionLm::paper(0));
        let gates = [FaultGate::new(), FaultGate::new()];
        let built = Arc::new(AtomicUsize::new(0));
        let factory = {
            let (gates, built, inner) = (gates.clone(), Arc::clone(&built), Arc::clone(&inner));
            move |shard: usize| -> Arc<dyn LanguageModel> {
                built.fetch_add(1, Ordering::SeqCst);
                let gate = Fault::HangUntilGate(Arc::clone(&gates[shard]));
                Arc::new(FaultyLm::new(Arc::clone(&inner), gate))
            }
        };
        let service = InferenceService::builder()
            .shards(2)
            .model("default", Arc::clone(&inner))
            .model_factory("gated", factory)
            .max_batch(1)
            .queue_capacity(2)
            .prefix_cache_capacity(0)
            .backpressure(BackpressurePolicy::Reject)
            .build();
        assert_eq!(built.load(Ordering::SeqCst), 2, "one replica per shard");
        let request = |substrate: &str, prompt: &[TokenId], tokens: usize| {
            GenerateRequest::builder(substrate, prompt.to_vec())
                .max_tokens(tokens)
                .stop_tokens(vec![])
                .build()
                .unwrap()
        };
        for (shard, gate) in gates.iter().enumerate() {
            let prompt = (0..)
                .map(|i| {
                    inner
                        .tokenizer()
                        .encode(&format!("Request {i}: Performance: "))
                })
                .find(|p| service.router().route(p) == shard)
                .expect("some prompt routes to every shard");
            // Park this shard's scheduler inside its own replica.
            let parked = service.submit(request("gated", &prompt, 1)).unwrap();
            gate.wait_entered();
            // queue_capacity(2): two requests queue behind it, a third sheds.
            let long = service.submit(request("default", &prompt, 5)).unwrap();
            let short = service.submit(request("default", &prompt, 1)).unwrap();
            let shed = service.submit(request("default", &prompt, 1)).unwrap_err();
            assert_eq!(shed, RequestError::QueueFull, "shard {shard}");
            gate.open();
            assert!(parked.wait().is_ok());
            // max_batch(1): `short` is admitted only once `long` retired.
            assert!(short.wait().is_ok());
            assert!(
                matches!(long.try_wait(), Some(Ok(_))),
                "shard {shard} decoded two requests at once"
            );
        }
        for (shard, stats) in service.shard_stats().iter().enumerate() {
            assert_eq!((stats.completed, stats.rejected), (3, 1), "shard {shard}");
            // prefix_cache_capacity(0): `short` could not reuse `long`'s prefill.
            assert_eq!(stats.prefix.full_hits, 0, "shard {shard} cached a prefix");
        }
    }
}
