//! `tune_cold`: `TuneService::tune` on fresh cache files for a fixed list
//! of requests. The only workload through the GBDT search, the dataset
//! generator, the real kernel and the tune cache; its LLM strategy scores
//! short, partly shared prompts through its own service.

use crate::probes;
use crate::spans::{model_layers, Recorder, TracedLm};
use crate::stats::median;
use crate::{time_setups, Args, RunOut};
use lmpeel_configspace::{syr2k_space, ArraySize, Syr2kConfig};
use lmpeel_core::autotune::{DatasetObjective, GbdtSearch, RandomSearch, Tuner};
use lmpeel_core::PromptBuilder;
use lmpeel_kernel::{measure, MeasureSpec, Syr2kProblem};
use lmpeel_lm::{InductionLm, LanguageModel, Sampler};
use lmpeel_perfdata::{CostModel, PerfDataset};
use lmpeel_tune::{
    ServiceLlmSearch, StrategyOutcome, TuneReport, TuneRequest, TuneService, KERNEL_SYR2K,
};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GOLDEN: &str = "bench_out/tune.txt";
const BUDGET: usize = 40;
/// The committed golden's request.
const CANONICAL: (ArraySize, u64) = (ArraySize::SM, 7);
/// Sizes of the seed-drawn requests that follow the canonical one. Eleven
/// searches average out how much one seed's trajectory costs.
const SIZES: [ArraySize; 11] = [
    ArraySize::S,
    ArraySize::SM,
    ArraySize::M,
    ArraySize::S,
    ArraySize::SM,
    ArraySize::M,
    ArraySize::S,
    ArraySize::SM,
    ArraySize::M,
    ArraySize::S,
    ArraySize::SM,
];
/// Set-ups timed before each request list and after the last; set-up time
/// is the median of them all. Opening a cache takes a fraction of a
/// millisecond, so many cheap repeats steady the median.
const SETUPS_PER_ROUND: usize = 15;
/// Where fresh cache files live, inside the build directory.
const WORK_DIR: &str = ".bench_build/perfbench-work";

fn requests(seed: u64) -> Vec<TuneRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E5E_0001);
    std::iter::once(CANONICAL)
        .chain(
            SIZES
                .iter()
                .map(|&size| (size, rng.random_range(0..1_000_000u64))),
        )
        .map(|(size, seed)| TuneRequest {
            kernel: KERNEL_SYR2K.into(),
            size,
            budget: BUDGET,
            seed,
        })
        .collect()
}

/// Fresh cache files, one per request, removed when dropped.
struct Caches {
    paths: Vec<PathBuf>,
}

impl Caches {
    fn new(tag: &str, n: usize) -> Self {
        std::fs::create_dir_all(WORK_DIR).expect("create the benchmark work directory");
        let paths = (0..n)
            .map(|i| {
                PathBuf::from(format!(
                    "{WORK_DIR}/tune-{}-{tag}-{i}.bin",
                    std::process::id()
                ))
            })
            .collect::<Vec<_>>();
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
        Self { paths }
    }

    fn open(&self) -> Vec<TuneService> {
        self.paths
            .iter()
            .map(|p| TuneService::open(p).expect("open a fresh tune cache").0)
            .collect()
    }
}

impl Drop for Caches {
    fn drop(&mut self) {
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// The dataset `TuneService` searches for `size`.
fn dataset(size: ArraySize) -> PerfDataset {
    PerfDataset::generate(&CostModel::paper(), size)
}

pub fn run(args: &Args) -> RunOut {
    let list = requests(args.seed);
    let mut out = RunOut::new(1);

    // Set-up: open the list's services on fresh cache files.
    let mut setups = Vec::new();
    let setup = || {
        let caches = Caches::new("setup", list.len());
        let services = caches.open();
        (services, caches)
    };

    // Whole lists, each on fresh caches, until the budget would be
    // exceeded (at least one).
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let mut list_walls = Vec::new();
    let mut latencies = Vec::new();
    let mut first: Option<Vec<TuneReport>> = None;
    for rep in 0.. {
        time_setups(&mut setups, SETUPS_PER_ROUND, setup);
        let caches = Caches::new(&format!("run{rep}"), list.len());
        let services = caches.open();
        let t_list = Instant::now();
        let mut reports = Vec::with_capacity(list.len());
        for (svc, req) in services.iter().zip(&list) {
            let t0 = Instant::now();
            let report = svc.tune(req, None);
            latencies.push(t0.elapsed().as_secs_f64());
            match report {
                Ok(r) => reports.push(r),
                Err(e) => out.problem(
                    1,
                    format!("tune {:?} seed {} failed: {e}", req.size, req.seed),
                ),
            }
        }
        let wall = t_list.elapsed();
        list_walls.push(wall.as_secs_f64());
        out.tally.attempted += list.len() as u64;
        first.get_or_insert(reports);
        if began.elapsed() + wall > budget {
            break;
        }
    }
    time_setups(&mut setups, SETUPS_PER_ROUND, setup);
    let reports = first.expect("at least one list");
    let problems = check(&list, &reports);
    out.check(problems);

    if !args.trace {
        let wall = median(&list_walls);
        let m = &mut out.metrics;
        m.set("setup_s", median(&setups));
        m.set("wall_s", wall);
        m.set("goodput_rps", list.len() as f64 / wall);
        return out.finish();
    }

    // Traced: replay each request's ablation through the public tuners on
    // the same dataset, timing each layer, and validate the winner on the
    // real kernel as the service does.
    let rec = Recorder::new(8);
    let (mut generate_s, mut gbdt_s, mut llm_s, mut llm_plain_s, mut validate_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for (req, report) in list.iter().zip(&reports) {
        let t0 = Instant::now();
        let ds = dataset(req.size);
        generate_s += t0.elapsed().as_secs_f64();
        let (random, _) = replay(&RandomSearch, &ds, req);
        let (gbdt, t) = replay(&GbdtSearch::default(), &ds, req);
        gbdt_s += t;
        let (llm, t) = replay(
            &llm_search(TracedLm::new(InductionLm::paper(0), rec.clone())),
            &ds,
            req,
        );
        llm_s += t;
        let (_, t) = replay(&llm_search(InductionLm::paper(0)), &ds, req);
        llm_plain_s += t;
        let served: Vec<String> = report
            .ablation
            .iter()
            .map(|s: &StrategyOutcome| {
                outcome_line(&s.strategy, s.evaluations, s.best_runtime, s.best_index)
            })
            .collect();
        match [random, gbdt, llm]
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(replayed) if replayed == served => {}
            Ok(_) => out.problem(
                1,
                format!(
                    "traced ablation for {:?} seed {} differs from the service's",
                    req.size, req.seed
                ),
            ),
            Err(e) => out.problem(1, e),
        }
        let t0 = Instant::now();
        let cfg =
            Syr2kConfig::from_config(ds.space(), &ds.space().config_at(report.entry.config_index));
        let (m, n) = req.size.dims();
        let problem = Syr2kProblem::new(m, n);
        let reference = problem.run_reference();
        let spec = MeasureSpec::new(1, 3).expect("nonzero repeats");
        let (_, result) = measure(spec, || problem.run_configured(cfg));
        if reference.max_abs_diff(&result) / reference.frobenius().max(1.0) >= 1e-9 {
            out.problem(
                1,
                format!("winner for {:?} does not validate on the kernel", req.size),
            );
        }
        validate_s += t0.elapsed().as_secs_f64();
    }
    let n = list.len() as f64;
    let tune_ms = latencies.iter().take(list.len()).sum::<f64>() * 1e3 / n;
    let m = &mut out.layers;
    model_layers(m, &rec, &Sampler::paper());
    m.set("perfdata.generate_ms", generate_s * 1e3 / n);
    m.set("gbdt.search_ms", gbdt_s * 1e3 / n);
    m.set("tune.llm_search_ms", llm_s * 1e3 / n);
    m.set("kernel.validate_ms", validate_s * 1e3 / n);
    // Random search, cache commit with fsync and service spin-up.
    m.set(
        "tune.other_ms",
        tune_ms - (generate_s + gbdt_s + llm_s + validate_s) * 1e3 / n,
    );
    m.set("serve.shard.balance", 1.0);
    m.set("trace.overhead_frac", llm_s / llm_plain_s - 1.0);

    // The LLM strategy's prompts: recent examples plus a candidate.
    let ds = dataset(CANONICAL.0);
    let builder = PromptBuilder::new(ds.space().clone(), CANONICAL.0);
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let builds: Vec<_> = (0..64)
        .map(|_| {
            let mut pick = || rng.random_range(0..ds.len() as u64);
            let examples: Vec<_> = (0..8)
                .map(|_| {
                    let i = pick();
                    (ds.space().config_at(i), ds.runtime_at(i))
                })
                .collect();
            (examples, ds.space().config_at(pick()))
        })
        .collect();
    m.set(
        "prompt.build_us",
        probes::mean_us(&builds, |(ex, q)| builder.discriminative(ex, q)),
    );
    let model = InductionLm::paper(0);
    let prompts: Vec<_> = builds
        .iter()
        .map(|(ex, q)| builder.discriminative(ex, q))
        .collect();
    let texts: Vec<String> = prompts
        .iter()
        .flat_map(|p| [p.system.clone(), p.user.clone(), p.primer.clone()])
        .collect();
    m.set(
        "tokenizer.encode_us_per_kb",
        probes::encode_us_per_kb(model.tokenizer(), &texts),
    );
    let ids: Vec<_> = prompts
        .iter()
        .map(|p| p.to_tokens(model.tokenizer()))
        .collect();
    let (encode, decode) = probes::codec_us(&ids, 16);
    m.set("frontend.encode_us", encode);
    m.set("frontend.decode_us", decode);
    out.finish()
}

/// The LLM strategy exactly as `TuneService` configures it, over `model`.
fn llm_search<M: LanguageModel>(model: M) -> ServiceLlmSearch<M> {
    ServiceLlmSearch {
        model: Arc::new(model),
        init_random: 4,
        pool: 4,
        max_icl: 8,
    }
}

/// Run `tuner` on `req`'s budget and seed over `ds`: its ablation line (or
/// why it failed) and the seconds it took.
fn replay(tuner: &dyn Tuner, ds: &PerfDataset, req: &TuneRequest) -> (Result<String, String>, f64) {
    let t0 = Instant::now();
    let mut objective = DatasetObjective::new(ds);
    let trajectory = tuner.run(&mut objective, req.budget, req.seed);
    let secs = t0.elapsed().as_secs_f64();
    let line = match trajectory {
        Ok(t) => {
            let (best, runtime) = t.best();
            Ok(outcome_line(
                &tuner.name(),
                t.evaluated.len(),
                runtime,
                ds.space().index_of(best),
            ))
        }
        Err(e) => Err(format!("replayed {} failed: {e}", tuner.name())),
    };
    (line, secs)
}

fn outcome_line(strategy: &str, evaluations: usize, best_runtime: f64, best_index: u64) -> String {
    format!("{strategy},{evaluations},{best_runtime:.9e},{best_index}")
}

/// The tune workload's output checks: the canonical request's report
/// equals the committed golden, every winner validated on the kernel, and
/// every reported runtime is the dataset's runtime at the reported index.
fn check(list: &[TuneRequest], reports: &[TuneReport]) -> Vec<(u64, String)> {
    let mut problems = Vec::new();
    if reports.len() != list.len() {
        return problems; // each failed request is already counted
    }
    match std::fs::read_to_string(GOLDEN) {
        Ok(golden) if golden == golden_report(&list[0], &reports[0]) => {}
        Ok(_) => problems.push((1, format!("canonical tune report differs from {GOLDEN}"))),
        Err(e) => problems.push((1, format!("cannot read {GOLDEN}: {e}"))),
    }
    for (req, report) in list.iter().zip(reports) {
        let ds = dataset(req.size);
        let entry = &report.entry;
        let mut ok = entry.validated
            && !report.cache_hit
            && entry.surrogate_runtime == ds.runtime_at(entry.config_index);
        for s in &report.ablation {
            ok &= s.best_runtime == ds.runtime_at(s.best_index);
        }
        if !ok {
            problems.push((
                1,
                format!(
                    "tune {:?} seed {} reported an unvalidated or inconsistent winner",
                    req.size, req.seed
                ),
            ));
        }
    }
    problems
}

/// The `tune` binary's ablation report for `request`, byte for byte.
fn golden_report(request: &TuneRequest, report: &TuneReport) -> String {
    let mut txt = String::new();
    writeln!(
        txt,
        "# lmpeel-tune ablation: kernel={} size={} budget={} seed={}",
        request.kernel, request.size, request.budget, request.seed
    )
    .unwrap();
    writeln!(txt, "strategy,evaluations,best_runtime_s,best_config_index").unwrap();
    for s in &report.ablation {
        writeln!(
            txt,
            "{}",
            outcome_line(&s.strategy, s.evaluations, s.best_runtime, s.best_index)
        )
        .unwrap();
    }
    let entry = &report.entry;
    writeln!(
        txt,
        "winner,{},{:.9e},{}",
        entry.strategy, entry.surrogate_runtime, entry.config_index
    )
    .unwrap();
    let space = syr2k_space();
    let cfg = Syr2kConfig::from_config(&space, &space.config_at(entry.config_index));
    writeln!(
        txt,
        "winner_config,pack_a={},pack_b={},interchange={},tiles=({},{},{})",
        cfg.pack_a, cfg.pack_b, cfg.interchange, cfg.tile_outer, cfg.tile_middle, cfg.tile_inner
    )
    .unwrap();
    writeln!(txt, "validated,{}", entry.validated).unwrap();
    txt
}
