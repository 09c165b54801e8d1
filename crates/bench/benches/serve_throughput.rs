//! Continuous-batching service vs sequential decoding.
//!
//! N concurrent requests share one ICL prompt prefix and decode 8 tokens
//! each under distinct sampler seeds. The sequential baseline calls
//! [`lmpeel_lm::generate`] once per request, paying the full prompt
//! prefill every time. The service path submits all N requests to an
//! [`lmpeel_serve::InferenceService`]: the first admission prefills the
//! prompt, the prefix trie captures the session snapshot, and the
//! remaining N-1 requests fork it — so the shared prefill is paid once.
//!
//! The speedup therefore scales with how much of a request is prefill.
//! On the constructed-weights transformer (per-token prompt cost grows
//! with context) the cache collapses the dominant term; on the induction
//! LM (O(prompt) counting pass, decode-dominated) it is a wash, which the
//! results table reports honestly.
//!
//! Three columns per substrate: `sequential` (no service), `service`
//! (scheduler with batch fusion off — the loop-of-single-steps reference),
//! and `batched` (fusion on, the default: same-substrate lanes share one
//! fused forward pass per round). All three produce byte-identical traces.
//!
//! Smoke mode for CI: `LMPEEL_BENCH_SMOKE=1` shrinks prompts, sample
//! counts, and the concurrency ladder so the bench finishes in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lmpeel_lm::{generate, GenerateSpec, InductionLm, LanguageModel, Sampler};
use lmpeel_serve::{GenerateRequest, InferenceService, LmService};
use lmpeel_transformer::InductionTransformer;
use std::hint::black_box;
use std::sync::Arc;

const GEN_TOKENS: usize = 8;

fn smoke() -> bool {
    std::env::var_os("LMPEEL_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn concurrency_ladder() -> &'static [usize] {
    if smoke() {
        &[1, 4]
    } else {
        &[1, 4, 16, 64]
    }
}

/// The shared ICL prompt: repeated configuration/performance example
/// lines, truncated to `len` tokens — the shape every grid request has.
fn shared_prompt(model: &dyn LanguageModel, len: usize) -> Vec<u32> {
    let text = "Hyperparameter configuration: outer tile is 16, inner tile is 32\n\
                Performance: 0.0023117\n"
        .repeat(len / 16 + 1);
    let mut ids = model.tokenizer().encode(&text);
    ids.truncate(len);
    ids
}

fn spec(seed: u64) -> GenerateSpec {
    GenerateSpec::builder()
        .sampler(Sampler::paper())
        .max_tokens(GEN_TOKENS)
        .stop_tokens(vec![])
        .trace_min_prob(1.0)
        .seed(seed)
        .build()
        .unwrap()
}

/// Sequential baseline: one `generate` per request, full prefill each time.
fn run_sequential<M: LanguageModel>(model: &Arc<M>, ids: &[u32], n: usize) {
    for seed in 0..n as u64 {
        black_box(generate(model, ids, &spec(seed)).unwrap());
    }
}

/// Service path: submit all N, then drain; prefill is shared via the
/// trie. `fuse` toggles the scheduler's batched Step phase: `false` is
/// the loop-of-single-steps reference, `true` fuses same-substrate lanes
/// into one forward pass per round (byte-identical output either way,
/// pinned by crates/serve/tests/batched.rs).
fn run_service<M: LanguageModel>(model: &Arc<M>, ids: &[u32], n: usize, fuse: bool) {
    let service = InferenceService::builder()
        .model("default", model.clone())
        .queue_capacity(n)
        .max_batch(16)
        .fuse_batches(fuse)
        .build();
    let handles: Vec<_> = (0..n as u64)
        .map(|seed| {
            service
                .submit(GenerateRequest::new("default", ids.to_vec(), spec(seed)))
                .unwrap()
        })
        .collect();
    for h in handles {
        black_box(h.wait().unwrap());
    }
}

fn bench_substrate<M: LanguageModel>(c: &mut Criterion, name: &str, model: Arc<M>, len: usize) {
    let ids = shared_prompt(model.as_ref(), len);
    let mut g = c.benchmark_group(format!("serve_{name}"));
    g.sample_size(if smoke() { 3 } else { 10 });
    for &n in concurrency_ladder() {
        g.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, &n| {
            b.iter(|| run_sequential(&model, &ids, n))
        });
        g.bench_with_input(BenchmarkId::new("service", n), &n, |b, &n| {
            b.iter(|| run_service(&model, &ids, n, false))
        });
        g.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
            b.iter(|| run_service(&model, &ids, n, true))
        });
    }
    g.finish();
}

fn bench_serve_throughput(c: &mut Criterion) {
    let len = if smoke() { 64 } else { 512 };
    bench_substrate(
        c,
        "transformer",
        Arc::new(InductionTransformer::paper()),
        len,
    );
    bench_substrate(c, "induction_lm", Arc::new(InductionLm::paper(0)), len);
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
