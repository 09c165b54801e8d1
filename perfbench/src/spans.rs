//! Outside-in tracing of the model layer.
//!
//! [`TracedLm`] wraps any [`LanguageModel`] and hands out [`TracedSession`]s
//! that forward every call to the wrapped session while timing it. The
//! wrappers forward `as_any` and `batch_driver`, so the serving stack takes
//! exactly the path it takes without them (the fused batch driver still
//! downcasts each lane to its native session type). A substrate with a
//! fused decode path is wrapped with [`TracedLm::batched`], whose
//! [`TimedDriver`] times each `logits_batch` call.
//!
//! Spans nest (a batch call may fall back to a lane's own `logits_into`),
//! so each span records its self time: its duration minus the part its
//! child spans cover.

use crate::report::Metrics;
use lmpeel_lm::{BatchDriver, BatchDriverRef, DecodeSession, LanguageModel, Sampler};
use lmpeel_tokenizer::{TokenId, Tokenizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The model-layer calls the wrappers time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `extend`: prompt prefill (items: tokens).
    Prefill = 0,
    /// `append`: one decoded token fed back.
    Append = 1,
    /// `logits` / `logits_into` of one session.
    Logits = 2,
    /// `logits_batch` of a fused group (items: lanes).
    BatchLogits = 3,
    /// `fork`: session snapshot.
    Fork = 4,
    /// `rekey`: per-seed logit state.
    Rekey = 5,
}

const SPAN_KINDS: usize = 6;

/// A decode-step period whose time outside the model exceeds this was
/// an idle scheduler waiting for work, not a step.
const IDLE_CUTOFF: Duration = Duration::from_millis(5);

/// Logits buffers kept for the sampler measurement.
const CAPTURE_CAP: usize = 192;

#[derive(Default)]
struct Counter {
    calls: AtomicU64,
    items: AtomicU64,
    self_ns: AtomicU64,
}

/// Totals of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub calls: u64,
    pub items: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean self time per call, in microseconds (0 when never called).
    pub fn us_per_call(&self) -> f64 {
        per(self.self_ns, self.calls) / 1e3
    }

    /// Mean self time per item (token, lane), in microseconds.
    pub fn us_per_item(&self) -> f64 {
        per(self.self_ns, self.items) / 1e3
    }
}

fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

thread_local! {
    /// Child time accumulated by each open span on this thread.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Start of the previous decode step on this thread, its lane count,
    /// and model time spent since it began.
    static STEP: Cell<Option<(Instant, u64, u64)>> = const { Cell::new(None) };
}

/// Span totals shared by every wrapper of one traced run.
pub struct Recorder {
    counters: [Counter; SPAN_KINDS],
    step_other_ns: AtomicU64,
    steps: AtomicU64,
    logits_seen: AtomicU64,
    capture_every: u64,
    captured: Mutex<Vec<Vec<f32>>>,
}

impl Recorder {
    /// A recorder keeping every `capture_every`-th logits vector (up to a
    /// fixed number) for the sampler measurement.
    pub fn new(capture_every: u64) -> Arc<Self> {
        Arc::new(Self {
            counters: Default::default(),
            step_other_ns: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            logits_seen: AtomicU64::new(0),
            capture_every: capture_every.max(1),
            captured: Mutex::new(Vec::new()),
        })
    }

    /// Totals of one span kind.
    pub fn totals(&self, kind: Span) -> SpanTotals {
        let c = &self.counters[kind as usize];
        SpanTotals {
            calls: c.calls.load(Relaxed),
            items: c.items.load(Relaxed),
            self_ns: c.self_ns.load(Relaxed),
        }
    }

    /// Decode steps seen (single-lane logits calls plus fused lanes).
    pub fn steps(&self) -> u64 {
        self.totals(Span::Logits).calls + self.totals(Span::BatchLogits).items
    }

    /// Mean time per decode step spent outside the model on the
    /// scheduler thread: sampling, trace recording, scheduling.
    pub fn step_other_us(&self) -> f64 {
        per(self.step_other_ns.load(Relaxed), self.steps.load(Relaxed)) / 1e3
    }

    /// The logits vectors kept for the sampler measurement.
    pub fn captured(&self) -> Vec<Vec<f32>> {
        self.captured.lock().expect("capture lock poisoned").clone()
    }

    /// Time `f` as one span of `kind` covering `items` units of work.
    fn span<R>(&self, kind: Span, items: u64, f: impl FnOnce() -> R) -> R {
        OPEN.with(|o| o.borrow_mut().push(0));
        let t0 = Instant::now();
        let r = f();
        let dur = t0.elapsed().as_nanos() as u64;
        let (child, top_level) = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let child = o.pop().unwrap_or(0);
            match o.last_mut() {
                Some(parent) => {
                    *parent += dur;
                    (child, false)
                }
                None => (child, true),
            }
        });
        if top_level {
            STEP.with(|s| {
                if let Some((start, lanes, model_ns)) = s.get() {
                    s.set(Some((start, lanes, model_ns + dur)));
                }
            });
        }
        let c = &self.counters[kind as usize];
        c.calls.fetch_add(1, Relaxed);
        c.items.fetch_add(items, Relaxed);
        c.self_ns.fetch_add(dur.saturating_sub(child), Relaxed);
        r
    }

    /// Mark the start of a decode step of `lanes` lanes: the period since
    /// the previous step start, minus model time inside it, is that
    /// step's time outside the model.
    fn step_boundary(&self, lanes: u64) {
        if OPEN.with(|o| !o.borrow().is_empty()) {
            return;
        }
        let now = Instant::now();
        STEP.with(|s| {
            if let Some((start, prev_lanes, model_ns)) = s.get() {
                let period = now.duration_since(start).as_nanos() as u64;
                let other = period.saturating_sub(model_ns);
                if Duration::from_nanos(other) < IDLE_CUTOFF {
                    self.step_other_ns.fetch_add(other, Relaxed);
                    self.steps.fetch_add(prev_lanes, Relaxed);
                }
            }
            s.set(Some((now, lanes, 0)));
        });
    }

    fn maybe_capture(&self, logits: &[f32]) {
        let k = self.logits_seen.fetch_add(1, Relaxed);
        if k.is_multiple_of(self.capture_every) {
            let mut c = self.captured.lock().expect("capture lock poisoned");
            if c.len() < CAPTURE_CAP {
                c.push(logits.to_vec());
            }
        }
    }
}

/// A [`LanguageModel`] whose sessions time every call into `inner`.
pub struct TracedLm<M> {
    inner: Arc<M>,
    rec: Arc<Recorder>,
    driver: Option<Arc<TimedDriver>>,
}

impl<M: LanguageModel> TracedLm<M> {
    /// Wrap a substrate without a fused decode path.
    pub fn new(inner: M, rec: Arc<Recorder>) -> Self {
        Self {
            inner: Arc::new(inner),
            rec,
            driver: None,
        }
    }
}

impl<M: LanguageModel + BatchDriver> TracedLm<M> {
    /// Wrap a substrate whose sessions fuse through `M`'s own
    /// [`BatchDriver`]; the fused calls are timed too.
    pub fn batched(inner: M, rec: Arc<Recorder>) -> Self {
        let inner = Arc::new(inner);
        let driver = Arc::new(TimedDriver {
            inner: inner.clone(),
            rec: rec.clone(),
        });
        Self {
            inner,
            rec,
            driver: Some(driver),
        }
    }
}

impl<M: LanguageModel> LanguageModel for TracedLm<M> {
    fn tokenizer(&self) -> &Tokenizer {
        self.inner.tokenizer()
    }

    fn logits(&self, context: &[TokenId]) -> Vec<f32> {
        self.rec.step_boundary(1);
        self.rec
            .span(Span::Logits, 1, || self.inner.logits(context))
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn session(self: Arc<Self>) -> Box<dyn DecodeSession> {
        Box::new(TracedSession {
            inner: Arc::clone(&self.inner).session(),
            rec: self.rec.clone(),
            driver: self.driver.clone(),
        })
    }
}

/// Times the fused `logits_batch` of the wrapped substrate.
pub struct TimedDriver {
    inner: Arc<dyn BatchDriver + Send + Sync>,
    rec: Arc<Recorder>,
}

impl BatchDriver for TimedDriver {
    fn logits_batch(&self, lanes: &[&dyn DecodeSession], out: &mut [Vec<f32>]) {
        let n = lanes.len() as u64;
        self.rec.step_boundary(n);
        self.rec
            .span(Span::BatchLogits, n, || self.inner.logits_batch(lanes, out));
        for o in out.iter() {
            self.rec.maybe_capture(o);
        }
    }
}

/// A session that forwards to the wrapped substrate's session.
pub struct TracedSession {
    inner: Box<dyn DecodeSession>,
    rec: Arc<Recorder>,
    driver: Option<Arc<TimedDriver>>,
}

impl DecodeSession for TracedSession {
    fn tokens(&self) -> &[TokenId] {
        self.inner.tokens()
    }

    fn append(&mut self, token: TokenId) {
        let inner = &mut self.inner;
        self.rec.span(Span::Append, 1, || inner.append(token));
    }

    fn extend(&mut self, tokens: &[TokenId]) {
        let inner = &mut self.inner;
        self.rec
            .span(Span::Prefill, tokens.len() as u64, || inner.extend(tokens));
    }

    fn logits(&self) -> Vec<f32> {
        self.rec.step_boundary(1);
        let out = self.rec.span(Span::Logits, 1, || self.inner.logits());
        self.rec.maybe_capture(&out);
        out
    }

    fn logits_into(&self, out: &mut Vec<f32>) {
        self.rec.step_boundary(1);
        self.rec
            .span(Span::Logits, 1, || self.inner.logits_into(out));
        self.rec.maybe_capture(out);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn batch_driver(&self) -> Option<BatchDriverRef<'_>> {
        let native = self.inner.batch_driver()?;
        Some(match &self.driver {
            Some(timed) => BatchDriverRef {
                key: native.key,
                driver: timed.as_ref(),
            },
            None => native,
        })
    }

    fn fork(&self) -> Box<dyn DecodeSession> {
        let inner = self.rec.span(Span::Fork, 1, || self.inner.fork());
        Box::new(TracedSession {
            inner,
            rec: self.rec.clone(),
            driver: self.driver.clone(),
        })
    }

    fn rekey(&mut self, seed: u64) -> bool {
        let inner = &mut self.inner;
        self.rec.span(Span::Rekey, 1, || inner.rekey(seed))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Set the model-layer per-layer metrics from a traced run's spans, with
/// `sampler` timed on the logits the wrappers captured.
pub fn model_layers(m: &mut Metrics, rec: &Recorder, sampler: &Sampler) {
    let logits = rec.totals(Span::Logits);
    let batch = rec.totals(Span::BatchLogits);
    let prefill = rec.totals(Span::Prefill);
    let fork = rec.totals(Span::Fork);
    let (distribution, sample) = sampler_costs(&rec.captured(), sampler);
    m.set("lm.logits_us", logits.us_per_call());
    m.set("lm.step_other_us", rec.step_other_us());
    m.set("lm.append_us", rec.totals(Span::Append).us_per_call());
    m.set("lm.batch_logits_us_per_lane", batch.us_per_item());
    m.set("lm.batch_width", per(batch.items, batch.calls));
    m.set("lm.prefill_us_per_token", prefill.us_per_item());
    m.set("lm.fork_us", fork.us_per_call());
    m.set("lm.sampler.distribution_us", distribution);
    m.set("lm.sampler.sample_us", sample);
    m.set("lm.steps", rec.steps() as f64);
    // Prompts enter through `extend`; every `append` is a sampled token.
    m.set("lm.tokens_generated", rec.totals(Span::Append).calls as f64);
    m.set("lm.prefill_tokens", prefill.items as f64);
    m.set("lm.forks", fork.calls as f64);
}

/// Mean cost of [`Sampler::distribution`] and [`Sampler::sample`] over the
/// captured logits, in microseconds: `(distribution, sample)`.
pub fn sampler_costs(captured: &[Vec<f32>], sampler: &Sampler) -> (f64, f64) {
    if captured.is_empty() {
        return (0.0, 0.0);
    }
    const REPEATS: usize = 3;
    let mut rng = ChaCha8Rng::seed_from_u64(0x5A4D_504C);
    let t0 = Instant::now();
    for _ in 0..REPEATS {
        for logits in captured {
            black_box(sampler.distribution(black_box(logits)));
        }
    }
    let dist = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..REPEATS {
        for logits in captured {
            black_box(sampler.sample(black_box(logits), &mut rng));
        }
    }
    let sample = t1.elapsed();
    let n = (REPEATS * captured.len()) as f64;
    (dist.as_secs_f64() * 1e6 / n, sample.as_secs_f64() * 1e6 / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_core::experiment::{run_plan, ExperimentPlan};
    use lmpeel_lm::{generate, GenerateSpec, InductionLm};
    use lmpeel_perfdata::DatasetBundle;
    use lmpeel_serve::prelude::*;
    use lmpeel_transformer::InductionTransformer;

    #[test]
    fn wrappers_are_transparent_on_a_smoke_plan() {
        let bundle = DatasetBundle::paper();
        let plan = ExperimentPlan::smoke();
        let plain = run_plan(&bundle, &plan, InductionLm::paper);
        let rec = Recorder::new(4);
        let traced = run_plan(&bundle, &plan, |seed| {
            TracedLm::new(InductionLm::paper(seed), rec.clone())
        });
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        // Every cell prefilled, forked per seed, rekeyed and decoded.
        assert!(rec.totals(Span::Prefill).items > 0);
        assert!(rec.totals(Span::Fork).calls > 0);
        assert!(rec.totals(Span::Rekey).calls as usize >= plan.num_tasks());
        let generated: usize = plain.iter().map(|r| r.trace.steps.len()).sum();
        assert!(rec.steps() as usize >= generated);
        assert!(!rec.captured().is_empty());
    }

    #[test]
    fn fused_batches_go_through_the_timed_driver_unchanged() {
        let rec = Recorder::new(1);
        let traced = Arc::new(TracedLm::batched(
            InductionTransformer::paper(),
            rec.clone(),
        ));
        let plain = Arc::new(InductionTransformer::paper());
        let svc = InferenceService::builder()
            .model("default", traced.clone())
            .max_batch(4)
            .build_service();
        let t = plain.tokenizer();
        let prompts: Vec<Vec<TokenId>> = (0..4)
            .map(|i| {
                t.encode(&format!(
                    "Request {i}: Performance: 0.00{i}1\nPerformance: "
                ))
            })
            .collect();
        let specs: Vec<GenerateSpec> = (0..4)
            .map(|i| {
                GenerateSpec::builder()
                    .max_tokens(6)
                    .seed(i)
                    .build()
                    .unwrap()
            })
            .collect();
        let handles: Vec<_> = prompts
            .iter()
            .zip(&specs)
            .map(|(p, s)| {
                svc.submit(GenerateRequest::new("default", p.clone(), s.clone()))
                    .unwrap()
            })
            .collect();
        for ((h, p), s) in handles.into_iter().zip(&prompts).zip(&specs) {
            let served = h.wait().unwrap().trace;
            assert_eq!(served, generate(&plain, p, s).unwrap());
        }
        svc.shutdown().unwrap();
        let batch = rec.totals(Span::BatchLogits);
        assert!(batch.calls > 0, "the service fused through the wrapper");
        assert!(batch.items >= 2 * batch.calls);
    }

    #[test]
    fn nested_spans_record_self_time() {
        let rec = Recorder::new(1);
        rec.span(Span::BatchLogits, 2, || {
            rec.span(Span::Logits, 1, || {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        let outer = rec.totals(Span::BatchLogits);
        let inner = rec.totals(Span::Logits);
        assert!(inner.self_ns >= 20_000_000);
        assert!(
            outer.self_ns < inner.self_ns,
            "child time is not double counted"
        );
    }
}
