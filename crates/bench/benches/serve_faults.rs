//! Degraded-mode service throughput: what do injected faults cost the
//! healthy traffic sharing the scheduler?
//!
//! N concurrent requests share one ICL prompt; a fraction of them are
//! routed at a faulty substrate (same inner model wrapped in
//! [`lmpeel_serve::faults::FaultyLm`]) that panics on its second decode
//! step. Every faulted request is expected to fail with a contained
//! [`RequestError::Panicked`] (or a quarantine rejection once the
//! substrate's streak trips); every healthy request must still complete.
//! The measured quantity is the wall time for the *whole* mixed batch —
//! i.e. how much scheduler time the blast-radius containment costs the
//! requests that did nothing wrong.
//!
//! Smoke mode for CI: `LMPEEL_BENCH_SMOKE=1` shrinks the prompt, sample
//! count, and batch so the bench finishes in seconds.
//!
//! [`RequestError::Panicked`]: lmpeel_serve::RequestError::Panicked

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lmpeel_lm::{GenerateSpec, InductionLm, LanguageModel, Sampler};
use lmpeel_serve::faults::{silence_injected_panics, Fault, FaultyLm};
use lmpeel_serve::{GenerateRequest, InferenceService, LmService};
use std::hint::black_box;
use std::sync::Arc;

const GEN_TOKENS: usize = 8;

fn smoke() -> bool {
    std::env::var_os("LMPEEL_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Out of every 16 requests, how many are routed at the faulty substrate.
fn fault_mix_ladder() -> &'static [usize] {
    if smoke() {
        &[0, 4]
    } else {
        &[0, 4, 8]
    }
}

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

/// Run one mixed batch of `n` requests, `faulted` of which hit the faulty
/// substrate, and drain every handle (healthy must succeed, faulted must
/// err). A fresh service per iteration so quarantine state starts cold.
fn run_mixed(model: &Arc<InductionLm>, ids: &[u32], n: usize, faulted: usize) {
    let faulty: Arc<FaultyLm> = Arc::new(FaultyLm::new(
        Arc::clone(model) as Arc<dyn LanguageModel>,
        Fault::PanicOnStep(2),
    ));
    let service = InferenceService::builder()
        .model("healthy", Arc::clone(model) as Arc<dyn LanguageModel>)
        .model("faulty", faulty)
        .queue_capacity(n)
        .max_batch(16)
        .build();
    let handles: Vec<_> = (0..n as u64)
        .map(|seed| {
            let substrate = if (seed as usize) < faulted {
                "faulty"
            } else {
                "healthy"
            };
            service
                .submit(GenerateRequest::new(substrate, ids.to_vec(), spec(seed)))
                .unwrap()
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let result = h.wait();
        assert_eq!(
            result.is_err(),
            i < faulted,
            "request {i} landed on the wrong side of the fault line"
        );
        black_box(result.ok());
    }
}

fn bench_serve_faults(c: &mut Criterion) {
    silence_injected_panics();
    let n = if smoke() { 4 } else { 16 };
    let len = if smoke() { 64 } else { 512 };
    let model = Arc::new(InductionLm::paper(0));
    let ids = shared_prompt(model.as_ref(), len);
    let mut g = c.benchmark_group("serve_faults");
    g.sample_size(if smoke() { 3 } else { 10 });
    for &mix in fault_mix_ladder() {
        let faulted = mix.min(n);
        g.bench_with_input(
            BenchmarkId::new("panic_mix", format!("{faulted}of{n}")),
            &faulted,
            |b, &faulted| b.iter(|| run_mixed(&model, &ids, n, faulted)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_serve_faults);
criterion_main!(benches);
