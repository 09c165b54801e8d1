//! The serving workloads: open-loop arrivals against the transformer
//! substrate, first at a fixed light rate (latency) and then at a fixed
//! overload rate (goodput under admission control).
//!
//! * `serve_prefix`: Zipf-popular 2048-token prompt groups, more groups
//!   than one shard's prefix cache holds, two generated tokens each, on a
//!   sharded service behind the TCP front-end. Prefix reuse, routing,
//!   prefill and the wire; almost no sampling.
//! * `serve_decode`: unique ~512-token prompts generating 32 tokens each,
//!   in process on one service. The fused batch decode path; the prefix
//!   cache only ever misses, and the front-end is not used.
//!
//! Rates and SLOs are constants chosen once from the parent commit's
//! measured capacity on a 2-core machine; nothing here probes the code
//! under test to pick them.

use crate::openloop::{drive_inproc, drive_wire, PhaseRun, Reply};
use crate::probes;
use crate::schedule::{self, Arrival};
use crate::spans::{model_layers, Recorder, TracedLm};
use crate::stats::{median, percentile, tail, Outcome, Tally};
use crate::{Args, RunOut};
use lmpeel_configspace::{ArraySize, Config};
use lmpeel_core::PromptBuilder;
use lmpeel_lm::{generate, LanguageModel, Sampler};
use lmpeel_perfdata::{CostModel, PerfDataset};
use lmpeel_serve::frontend::{Frontend, FrontendStats, WireRequest, LATENCY_BUCKETS};
use lmpeel_serve::prelude::*;
use lmpeel_tokenizer::TokenId;
use lmpeel_transformer::InductionTransformer;
use rand::{RngCore, RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One serving workload's fixed shape.
pub struct Shape {
    /// Zipf-popular prompt groups; 0 gives every request its own prompt.
    groups: usize,
    /// Poisson arrivals; otherwise evenly spaced, so latency reflects the
    /// service rather than the seed's burst pattern.
    poisson: bool,
    prompt_tokens: usize,
    gen_tokens: usize,
    /// Below the parent's capacity: latency is measured here.
    light_rps: f64,
    /// Above the parent's capacity: goodput is measured here.
    overload_rps: f64,
    /// Latency limit for goodput, from the scheduled send time.
    slo: Duration,
    /// Serve through the TCP front-end on a sharded service.
    wire: bool,
    /// Per-shard knobs.
    queue: usize,
    batch: usize,
    prefix_cache: usize,
}

pub const PREFIX: Shape = Shape {
    groups: 24,
    poisson: true,
    prompt_tokens: 2048,
    gen_tokens: 2,
    light_rps: 50.0,
    overload_rps: 1500.0,
    slo: Duration::from_millis(250),
    wire: true,
    queue: 24,
    batch: 8,
    prefix_cache: 16,
};

pub const DECODE: Shape = Shape {
    groups: 0,
    poisson: false,
    prompt_tokens: 512,
    gen_tokens: 32,
    light_rps: 20.0,
    overload_rps: 120.0,
    slo: Duration::from_millis(1500),
    wire: false,
    queue: 24,
    batch: 8,
    prefix_cache: 32,
};

/// Share of the run's seconds spent in each phase's schedule.
const LIGHT_SHARE: f64 = 0.3;
const OVERLOAD_SHARE: f64 = 0.5;
const ZIPF_S: f64 = 1.0;
/// Client connections to the front-end: one remote client carrying every
/// request. Responses that queue behind an unacknowledged one on it show
/// the front-end's delayed-ACK stall in `serve.latency_tail_ms`.
const CONNECTIONS: usize = 1;
/// Set-ups per run; set-up time is their median.
const SETUPS: usize = 3;
/// Closed-loop requests that warm a service without a prefix workload.
const WARM_REQUESTS: usize = 16;
/// OK replies per phase re-decoded by `generate` to check the service.
const CHECKED: usize = 4;
/// A run whose generator sent its tail request later than this fell
/// behind its schedule (scheduling jitter on a busy 2-core machine stays
/// well under it) and is void.
const LAG_LIMIT_MS: f64 = 25.0;

/// The workload's inputs, generated from the seed.
struct Inputs {
    /// One prompt per group, or per request (light phase first).
    prompts: Vec<Vec<TokenId>>,
    /// Prompt text, for the tokenizer probe.
    texts: Vec<String>,
    /// Builder calls, for the prompt-builder probe.
    builds: Vec<(Vec<(Config, f64)>, Config)>,
    builder: PromptBuilder,
    light: Vec<Arrival>,
    overload: Vec<Arrival>,
}

fn inputs(shape: &Shape, args: &Args) -> Inputs {
    let light_n = (args.seconds * LIGHT_SHARE * shape.light_rps).ceil() as usize;
    let overload_n = (args.seconds * OVERLOAD_SHARE * shape.overload_rps).ceil() as usize;
    let arrivals = |stream, n, rate| {
        if shape.poisson {
            schedule::poisson(args.seed, stream, n, rate, shape.groups, ZIPF_S)
        } else {
            schedule::even(args.seed, stream, n, rate)
        }
    };
    let light = arrivals(1, light_n, shape.light_rps);
    let overload = arrivals(2, overload_n, shape.overload_rps);
    let n_prompts = if shape.groups > 0 {
        shape.groups
    } else {
        light_n + overload_n + WARM_REQUESTS
    };
    let dataset = PerfDataset::generate(&CostModel::paper(), ArraySize::SM);
    let builder = PromptBuilder::new(dataset.space().clone(), ArraySize::SM);
    let model = InductionTransformer::paper();
    let tokenizer = model.tokenizer();
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0x5E5E_0001);
    let draw = |k: usize, rng: &mut ChaCha8Rng| {
        let pick = |rng: &mut ChaCha8Rng| rng.random_range(0..dataset.len() as u64);
        let examples: Vec<(Config, f64)> = (0..k)
            .map(|_| {
                let i = pick(rng);
                (dataset.space().config_at(i), dataset.runtime_at(i))
            })
            .collect();
        (examples, dataset.space().config_at(pick(rng)))
    };
    // Examples per prompt for the target length, from the token cost of
    // one prompt with 8 and with 16 examples.
    let len = |k: usize, rng: &mut ChaCha8Rng| {
        let (ex, q) = draw(k, rng);
        builder.discriminative(&ex, &q).to_tokens(tokenizer).len()
    };
    let (a, b) = (len(8, &mut rng), len(16, &mut rng));
    let per_example = (b.saturating_sub(a) as f64 / 8.0).max(1.0);
    let k = (8.0 + (shape.prompt_tokens as f64 - a as f64) / per_example)
        .round()
        .max(1.0) as usize;
    let mut prompts = Vec::with_capacity(n_prompts);
    let mut texts = Vec::with_capacity(n_prompts);
    let mut builds = Vec::with_capacity(n_prompts);
    for i in 0..n_prompts {
        let (examples, query) = draw(k, &mut rng);
        // The header leads the prompt so distinct prompts diverge inside
        // the router's prefix window. Tenant headers do not depend on the
        // seed: a group's shard, and so the shards' share of the Zipf load,
        // is the same in every run.
        let header = if shape.groups > 0 {
            format!("Tenant {i:02}:\n")
        } else {
            format!("Request {i:05} {:08x}:\n", rng.next_u32())
        };
        let prompt = builder.discriminative(&examples, &query);
        let mut ids = tokenizer.encode(&header);
        ids.extend(prompt.to_tokens(tokenizer));
        prompts.push(ids);
        texts.extend([header, prompt.system, prompt.user, prompt.primer]);
        builds.push((examples, query));
    }
    Inputs {
        prompts,
        texts,
        builds,
        builder,
        light,
        overload,
    }
}

/// A running service as the workload holds it: behind [`LmService`],
/// plus a way to read per-shard counters.
struct Served {
    service: Arc<dyn LmService>,
    shard_stats: Box<dyn Fn() -> Vec<ServeStats>>,
    frontend: Option<Frontend>,
    shards: usize,
}

fn build(shape: &Shape, rec: Option<&Arc<Recorder>>) -> Served {
    let model = |rec: Option<&Arc<Recorder>>| -> Arc<dyn LanguageModel> {
        match rec {
            Some(r) => Arc::new(TracedLm::batched(InductionTransformer::paper(), r.clone())),
            None => Arc::new(InductionTransformer::paper()),
        }
    };
    if shape.wire {
        let shards = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .clamp(1, 2);
        let rec = rec.cloned();
        let sharded = Arc::new(
            ShardedService::builder()
                .shards(shards)
                .model_factory("default", move |_| model(rec.as_ref()))
                .queue_capacity(shape.queue)
                .max_batch(shape.batch)
                .prefix_cache_capacity(shape.prefix_cache)
                .backpressure(BackpressurePolicy::Reject)
                .build(),
        );
        let stats = sharded.clone();
        let service: Arc<dyn LmService> = sharded;
        let frontend = Frontend::builder()
            .loops(1)
            .conn_inflight_cap(4096)
            .bind(service.clone(), "127.0.0.1:0")
            .expect("bind the front-end on loopback");
        Served {
            service,
            shard_stats: Box::new(move || stats.shard_stats()),
            frontend: Some(frontend),
            shards,
        }
    } else {
        let service: Arc<dyn LmService> = Arc::from(
            InferenceService::builder()
                .model("default", model(rec))
                .queue_capacity(shape.queue)
                .max_batch(shape.batch)
                .prefix_cache_capacity(shape.prefix_cache)
                .backpressure(BackpressurePolicy::Reject)
                .build_service(),
        );
        let stats = service.clone();
        Served {
            service,
            shard_stats: Box::new(move || vec![stats.stats()]),
            frontend: None,
            shards: 1,
        }
    }
}

impl Served {
    /// Drain the front-end, then drop the last handles on the service so
    /// its scheduler threads are joined.
    fn stop(self) {
        if let Some(fe) = self.frontend {
            fe.shutdown();
        }
        drop(self.shard_stats);
        drop(self.service);
    }
}

/// The wire form of request `i` (the in-process path lowers the same
/// frame, so both transports decode identical specs).
fn wire_request(inputs: &Inputs, shape: &Shape, offset: usize, a: &Arrival) -> WireRequest {
    let prompt = inputs.prompts[if shape.groups > 0 {
        a.group
    } else {
        offset + a.group
    }]
    .clone();
    let mut w = WireRequest::new(0, "default", prompt, shape.gen_tokens as u32);
    w.seed = a.seed;
    w
}

/// Warm the service: one request per prompt group, least popular first,
/// so each shard's cache ends holding its most popular groups; or a few
/// closed-loop requests on prompts outside the schedule.
fn warm(served: &Served, inputs: &Inputs, shape: &Shape) {
    let requests: Vec<WireRequest> = if shape.groups > 0 {
        (0..shape.groups)
            .rev()
            .map(|g| {
                let mut w = WireRequest::new(
                    0,
                    "default",
                    inputs.prompts[g].clone(),
                    shape.gen_tokens as u32,
                );
                w.seed = g as u64;
                w
            })
            .collect()
    } else {
        let n = inputs.prompts.len();
        inputs.prompts[n - WARM_REQUESTS..]
            .iter()
            .map(|p| WireRequest::new(0, "default", p.clone(), shape.gen_tokens as u32))
            .collect()
    };
    // Submitted together (in order, within every queue's capacity) so the
    // shards warm in parallel.
    let handles: Vec<_> = requests
        .into_iter()
        .map(|w| {
            let request = w.into_request().expect("benchmark requests are valid");
            served
                .service
                .submit(request)
                .expect("warm-up fits the queues")
        })
        .collect();
    for h in handles {
        h.wait().expect("warm-up request");
    }
}

/// One open-loop phase over `arrivals`.
fn phase(
    served: &Served,
    inputs: &Inputs,
    shape: &Shape,
    offset: usize,
    arrivals: &[Arrival],
) -> PhaseRun {
    let at: Vec<Duration> = arrivals.iter().map(|a| a.at).collect();
    let wire = |i: usize| wire_request(inputs, shape, offset, &arrivals[i]);
    match &served.frontend {
        Some(fe) => {
            drive_wire(fe.local_addr(), CONNECTIONS, &at, wire).expect("connect to the front-end")
        }
        None => {
            let requests = (0..arrivals.len())
                .map(|i| {
                    wire(i)
                        .into_request()
                        .expect("benchmark requests are valid")
                })
                .collect();
            drive_inproc(served.service.as_ref(), &at, requests)
        }
    }
}

/// Re-decode a seed-chosen sample of OK replies with `generate` on a fresh
/// model and tally the phase; replies that differ fail their check.
fn settle(
    run: &PhaseRun,
    inputs: &Inputs,
    shape: &Shape,
    offset: usize,
    arrivals: &[Arrival],
    reference: &Arc<InductionTransformer>,
    seed: u64,
) -> (Tally, Vec<String>) {
    let ok: Vec<usize> = (0..run.replies.len())
        .filter(|&i| matches!(run.replies[i], Reply::Ok { .. }))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC4EC_0001);
    let mut checked = vec![true; run.replies.len()];
    let mut problems = Vec::new();
    for _ in 0..CHECKED.min(ok.len()) {
        let i = ok[rng.random_range(0..ok.len())];
        let w = wire_request(inputs, shape, offset, &arrivals[i]);
        let request = w.into_request().expect("benchmark requests are valid");
        let expected =
            generate(reference, &request.prompt, &request.spec).map(|t| t.generated_ids());
        if let (Reply::Ok { tokens, .. }, Ok(want)) = (&run.replies[i], &expected) {
            if tokens == want {
                continue;
            }
        }
        checked[i] = false;
        problems.push(format!(
            "request {i} (seed {}) differs from generate",
            arrivals[i].seed
        ));
    }
    let mut tally = Tally::default();
    for (reply, &check_ok) in run.replies.iter().zip(&checked) {
        tally.record(
            match reply {
                Reply::Ok { latency, .. } => Outcome::Ok {
                    latency: *latency,
                    check_ok,
                },
                Reply::Shed => Outcome::Shed,
                Reply::Deadline => Outcome::Deadline,
                Reply::Failed => Outcome::Failed,
            },
            shape.slo,
        );
    }
    (tally, problems)
}

fn ok_latencies_ms(run: &PhaseRun) -> Vec<f64> {
    run.replies
        .iter()
        .filter_map(|r| match r {
            Reply::Ok { latency, .. } => Some(latency.as_secs_f64() * 1e3),
            _ => None,
        })
        .collect()
}

fn lag_tail_ms(runs: &[&PhaseRun]) -> f64 {
    let lags: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.lags.iter().map(|l| l.as_secs_f64() * 1e3))
        .collect();
    tail(&lags).unwrap_or(f64::NAN)
}

/// Everything one pass (set-up, light phase, overload phase) observed.
struct Pass {
    setup_s: f64,
    light: PhaseRun,
    overload: PhaseRun,
    tally: Tally,
    light_p50_ms: f64,
    goodput: f64,
    /// Counters over the two measured phases.
    stats: ServeStats,
    shard_submitted: Vec<u64>,
    /// Front-end counters over the light phase.
    frontend_light: Option<(FrontendStats, FrontendStats)>,
    shards: usize,
}

fn pass(
    shape: &Shape,
    inputs: &Inputs,
    args: &Args,
    setups: usize,
    rec: Option<&Arc<Recorder>>,
    reference: &Arc<InductionTransformer>,
    out: &mut RunOut,
) -> Pass {
    let mut times = Vec::with_capacity(setups);
    let mut served = None;
    for _ in 0..setups {
        if let Some(old) = served.take() {
            Served::stop(old);
        }
        let t0 = Instant::now();
        let s = build(shape, rec);
        warm(&s, inputs, shape);
        times.push(t0.elapsed().as_secs_f64());
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let before = served.service.stats();
    let shards_before = (served.shard_stats)();
    let fe_before = served.frontend.as_ref().map(Frontend::stats);
    let light_offset = 0;
    let light = phase(&served, inputs, shape, light_offset, &inputs.light);
    let fe_after_light = served.frontend.as_ref().map(Frontend::stats);
    let overload_offset = inputs.light.len();
    let overload = phase(&served, inputs, shape, overload_offset, &inputs.overload);
    let after = served.service.stats();
    let shards_after = (served.shard_stats)();
    let shards = served.shards;
    served.stop();

    let (light_tally, p1) = settle(
        &light,
        inputs,
        shape,
        light_offset,
        &inputs.light,
        reference,
        args.seed,
    );
    let (over_tally, p2) = settle(
        &overload,
        inputs,
        shape,
        overload_offset,
        &inputs.overload,
        reference,
        args.seed ^ 1,
    );
    for p in p1.into_iter().chain(p2) {
        out.problems.push(p);
    }
    for (name, run, t) in [
        ("light", &light, &light_tally),
        ("overload", &overload, &over_tally),
    ] {
        let ms = ok_latencies_ms(run);
        eprintln!(
            "{name}: sent={} ok={} within_slo={} shed={} errors={} p10={:.2}ms p50={:.2}ms p90={:.2}ms tail={:.2}ms makespan={:.3}s",
            t.attempted,
            t.ok,
            t.within_slo,
            t.shed,
            t.errors(),
            percentile(&ms, 0.1).unwrap_or(f64::NAN),
            percentile(&ms, 0.5).unwrap_or(f64::NAN),
            percentile(&ms, 0.9).unwrap_or(f64::NAN),
            tail(&ms).unwrap_or(f64::NAN),
            run.makespan.as_secs_f64()
        );
    }
    let mut tally = light_tally;
    tally.add(&over_tally);
    let lag = lag_tail_ms(&[&light, &overload]);
    if lag.is_nan() || lag > LAG_LIMIT_MS {
        out.problems
            .push(format!("generator fell behind: send lag tail {lag:.3} ms"));
    }
    let span = inputs.overload.last().map_or(Duration::ZERO, |a| a.at);
    Pass {
        setup_s: median(&times),
        light_p50_ms: percentile(&ok_latencies_ms(&light), 0.5).unwrap_or(f64::NAN),
        goodput: over_tally.goodput(span),
        light,
        overload,
        tally,
        stats: diff_stats(&after, &before),
        shard_submitted: shards_after
            .iter()
            .zip(&shards_before)
            .map(|(a, b)| a.submitted - b.submitted)
            .collect(),
        frontend_light: fe_before.zip(fe_after_light),
        shards,
    }
}

fn diff_stats(after: &ServeStats, before: &ServeStats) -> ServeStats {
    let mut d = *after;
    d.submitted -= before.submitted;
    d.completed -= before.completed;
    d.failed -= before.failed;
    d.rejected -= before.rejected;
    d.cancelled -= before.cancelled;
    d.deadline_exceeded -= before.deadline_exceeded;
    d.retried -= before.retried;
    d.prefix.full_hits -= before.prefix.full_hits;
    d.prefix.partial_hits -= before.prefix.partial_hits;
    d.prefix.misses -= before.prefix.misses;
    d.prefix.tokens_reused -= before.prefix.tokens_reused;
    d.prefix.tokens_prefilled -= before.prefix.tokens_prefilled;
    d.prefix.evictions -= before.prefix.evictions;
    d
}

pub fn run(args: &Args, shape: &Shape) -> RunOut {
    let inputs = inputs(shape, args);
    let reference = Arc::new(InductionTransformer::paper());
    let mut out = RunOut::new(1);
    let plain = pass(shape, &inputs, args, SETUPS, None, &reference, &mut out);
    out.shards = plain.shards;
    out.tally.add(&plain.tally);
    if !args.trace {
        let m = &mut out.metrics;
        m.set("setup_s", plain.setup_s);
        m.set("wall_s", plain.overload.makespan.as_secs_f64());
        m.set("goodput_rps", plain.goodput);
        return out.finish();
    }

    let rec = Recorder::new(16);
    let traced = pass(shape, &inputs, args, 1, Some(&rec), &reference, &mut out);
    out.tally.add(&traced.tally);
    let m = &mut out.layers;
    model_layers(m, &rec, &Sampler::default());
    let s = &traced.stats;
    let p = &s.prefix;
    let prompt_tokens = p.tokens_reused + p.tokens_prefilled;
    if prompt_tokens > 0 {
        m.set(
            "serve.trie.token_reuse_ratio",
            p.tokens_reused as f64 / prompt_tokens as f64,
        );
    }
    m.set("serve.trie.full_hits", p.full_hits as f64);
    m.set("serve.trie.partial_hits", p.partial_hits as f64);
    m.set("serve.trie.misses", p.misses as f64);
    m.set("serve.trie.evictions", p.evictions as f64);
    let submitted = &traced.shard_submitted;
    let mean = submitted.iter().sum::<u64>() as f64 / submitted.len().max(1) as f64;
    if mean > 0.0 {
        m.set(
            "serve.shard.balance",
            *submitted.iter().max().unwrap_or(&0) as f64 / mean,
        );
    }
    m.set("serve.completed", s.completed as f64);
    m.set("serve.rejected", s.rejected as f64);
    m.set("serve.deadline_exceeded", s.deadline_exceeded as f64);
    m.set("serve.retried", s.retried as f64);
    // Light-phase latency of the untraced pass, from scheduled send.
    m.set("serve.latency_p50_ms", plain.light_p50_ms);
    if let Some(t) = tail(&ok_latencies_ms(&plain.light)) {
        m.set("serve.latency_tail_ms", t);
    }
    let light_ms = ok_latencies_ms(&traced.light);
    if let Some((before, after)) = &traced.frontend_light {
        let responses = after.responses - before.responses;
        let server_us =
            (after.latency_micros - before.latency_micros) as f64 / responses.max(1) as f64;
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = after.latency.bucket_counts()[i] - before.latency.bucket_counts()[i];
        }
        m.set("frontend.server_p50_us", bucket_p50_upper_us(&buckets));
        let client_ms = light_ms.iter().sum::<f64>() / light_ms.len().max(1) as f64;
        m.set("frontend.wire_overhead_ms", client_ms - server_us / 1e3);
    }
    let sample: Vec<Vec<TokenId>> = inputs.prompts.iter().take(256).cloned().collect();
    let (encode, decode) = probes::codec_us(&sample, shape.gen_tokens as u32);
    m.set("frontend.encode_us", encode);
    m.set("frontend.decode_us", decode);
    m.set(
        "tokenizer.encode_us_per_kb",
        probes::encode_us_per_kb(reference.tokenizer(), &inputs.texts),
    );
    m.set(
        "prompt.build_us",
        probes::mean_us(&inputs.builds[..inputs.builds.len().min(256)], |(ex, q)| {
            inputs.builder.discriminative(ex, q)
        }),
    );
    m.set(
        "loadgen.lag_tail_ms",
        lag_tail_ms(&[&plain.light, &plain.overload]),
    );
    // The light phase's median latency is per-request service time, the
    // cost the wrappers add to.
    m.set(
        "trace.overhead_frac",
        traced.light_p50_ms / plain.light_p50_ms - 1.0,
    );
    out.finish()
}

/// Upper edge (µs) of the power-of-two bucket holding the median.
fn bucket_p50_upper_us(buckets: &[u64; LATENCY_BUCKETS]) -> f64 {
    let total: u64 = buckets.iter().sum();
    let mut seen = 0;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if total > 0 && seen * 2 >= total {
            return ((1u64 << (i + 1)) - 1) as f64;
        }
    }
    0.0
}
