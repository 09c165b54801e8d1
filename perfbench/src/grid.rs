//! `paper_grid`: the paper's §IV-A grid of 285 generations through
//! `run_plan`, every cell submitted up front to one continuous-batching
//! service over the calibrated induction surrogate.

use crate::probes;
use crate::report::fnv64;
use crate::spans::{model_layers, Recorder, TracedLm};
use crate::stats::median;
use crate::{time_setups, Args, RunOut};
use lmpeel_bench::TextTable;
use lmpeel_core::experiment::{
    overall_report, run_plan, setting_reports, ExperimentPlan, PredictionRecord, SettingKey,
};
use lmpeel_core::PromptBuilder;
use lmpeel_lm::{generate, GenerateSpec, InductionLm, LanguageModel, Sampler};
use lmpeel_perfdata::{curated_icl_replicas, icl_replicas, DatasetBundle, IclSet};
use lmpeel_tokenizer::EOS;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The selection seed whose aggregate table is the committed golden.
const CANONICAL_SEED: u64 = 3;
const GOLDEN: &str = "bench_out/section4a.txt";
/// Set-ups timed before each grid and after the last; set-up time is the
/// median of them all.
const SETUPS_PER_ROUND: usize = 7;
/// Cells re-decoded from scratch per run to check the service's traces.
const REDECODED: usize = 6;

/// The grid's set-up: the paper's datasets and the surrogate.
fn setup() -> (DatasetBundle, InductionLm) {
    black_box((DatasetBundle::paper(), InductionLm::paper(0)))
}

pub fn run(args: &Args) -> RunOut {
    let mut setups = Vec::new();
    let bundle = DatasetBundle::paper();
    let plan = ExperimentPlan {
        selection_seed: args.seed,
        ..ExperimentPlan::paper()
    };

    // Whole grids until the time budget would be exceeded (at least one).
    // The first grid is checked; later ones only timed. Records are
    // dropped before the next grid so peak memory is one grid's.
    let mut out = RunOut::new(1);
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let mut walls = Vec::new();
    let mut digest = None;
    loop {
        time_setups(&mut setups, SETUPS_PER_ROUND, setup);
        let t0 = Instant::now();
        let records = run_plan(&bundle, &plan, InductionLm::paper);
        let wall = t0.elapsed();
        walls.push(wall.as_secs_f64());
        out.tally.attempted += records.len() as u64;
        if digest.is_none() {
            out.check(check_records(&bundle, &plan, &records));
            digest = Some(fnv64(format!("{records:?}").as_bytes()));
        }
        drop(records);
        if began.elapsed() + wall > budget {
            break;
        }
    }
    time_setups(&mut setups, SETUPS_PER_ROUND, setup);
    let wall = median(&walls);
    let cells = plan.num_tasks() as f64;

    if !args.trace {
        let m = &mut out.metrics;
        m.set("setup_s", median(&setups));
        m.set("wall_s", wall);
        // No SLO on a batch grid: every completed cell counts.
        m.set("goodput_rps", cells / wall);
        return out.finish();
    }

    let rec = Recorder::new(64);
    let t0 = Instant::now();
    let traced = run_plan(&bundle, &plan, |seed| {
        TracedLm::new(InductionLm::paper(seed), rec.clone())
    });
    let traced_wall = t0.elapsed().as_secs_f64();
    out.tally.attempted += traced.len() as u64;
    if Some(fnv64(format!("{traced:?}").as_bytes())) != digest {
        out.problem(
            traced.len() as u64,
            "traced grid differs from the untraced grid",
        );
    }

    let m = &mut out.layers;
    model_layers(m, &rec, &Sampler::paper());
    m.set("serve.shard.balance", 1.0);
    m.set("serve.completed", traced.len() as f64);
    let tasks = tasks(&bundle, &plan);
    let tokenizer = InductionLm::paper(0).tokenizer().clone();
    let prompts: Vec<_> = tasks
        .iter()
        .map(|t| t.builder.for_icl_set(&t.set))
        .collect();
    m.set(
        "prompt.build_us",
        probes::mean_us(&tasks, |t| t.builder.for_icl_set(&t.set)),
    );
    let texts: Vec<String> = prompts
        .iter()
        .flat_map(|p| [p.system.clone(), p.user.clone(), p.primer.clone()])
        .collect();
    m.set(
        "tokenizer.encode_us_per_kb",
        probes::encode_us_per_kb(&tokenizer, &texts),
    );
    let ids: Vec<_> = prompts.iter().map(|p| p.to_tokens(&tokenizer)).collect();
    let (encode, decode) = probes::codec_us(&ids, plan.max_tokens as u32);
    m.set("frontend.encode_us", encode);
    m.set("frontend.decode_us", decode);
    m.set("trace.overhead_frac", traced_wall / wall - 1.0);
    out.finish()
}

/// One grid task: its setting, replica, prompt builder and ICL set.
struct Task {
    key: SettingKey,
    replica: usize,
    builder: PromptBuilder,
    set: IclSet,
}

/// The plan's tasks in `run_plan`'s grid order: random settings, then
/// curated, replicas within a setting.
fn tasks(bundle: &DatasetBundle, plan: &ExperimentPlan) -> Vec<Task> {
    let mut tasks = Vec::new();
    let settings = plan
        .sizes
        .iter()
        .flat_map(|&s| plan.icl_counts.iter().map(move |&c| (s, c, false)))
        .chain(
            plan.curated_sizes
                .iter()
                .flat_map(|&s| plan.curated_counts.iter().map(move |&c| (s, c, true))),
        );
    for (size, count, curated) in settings {
        let ds = bundle.for_size(size);
        let sets = if curated {
            curated_icl_replicas(ds, count, plan.replicas, plan.selection_seed)
        } else {
            icl_replicas(ds, count, plan.replicas, plan.selection_seed)
        };
        for (replica, set) in sets.into_iter().enumerate() {
            tasks.push(Task {
                key: SettingKey {
                    size,
                    icl_count: count,
                    curated,
                },
                replica,
                builder: PromptBuilder::new(ds.space().clone(), size),
                set,
            });
        }
    }
    tasks
}

/// The grid's output checks: at the canonical seed the report equals the
/// committed golden; at any seed a sample of cells, re-decoded from
/// scratch by `generate` on a fresh per-seed model, match the service's
/// traces. Returns `(failed cells, what failed)`.
fn check_records(
    bundle: &DatasetBundle,
    plan: &ExperimentPlan,
    records: &[PredictionRecord],
) -> Vec<(u64, String)> {
    let mut problems = Vec::new();
    if records.len() != plan.num_tasks() {
        problems.push((
            plan.num_tasks().abs_diff(records.len()) as u64,
            format!(
                "grid returned {} of {} cells",
                records.len(),
                plan.num_tasks()
            ),
        ));
        return problems;
    }
    if plan.selection_seed == CANONICAL_SEED {
        match std::fs::read_to_string(GOLDEN) {
            Ok(golden) if golden == section4a_report(records) => {}
            Ok(_) => problems.push((1, format!("grid report differs from {GOLDEN}"))),
            Err(e) => problems.push((1, format!("cannot read {GOLDEN}: {e}"))),
        }
    }
    let tasks = tasks(bundle, plan);
    let mut rng = ChaCha8Rng::seed_from_u64(plan.selection_seed ^ 0x0C0F_FEE5);
    for _ in 0..REDECODED {
        let rec = &records[rng.random_range(0..records.len())];
        let Some(task) = tasks
            .iter()
            .find(|t| t.key == rec.key && t.replica == rec.replica)
        else {
            problems.push((
                1,
                format!("no task for {} replica {}", rec.key, rec.replica),
            ));
            continue;
        };
        let model = Arc::new(InductionLm::paper(rec.seed));
        let t = model.tokenizer();
        let ids = task.builder.for_icl_set(&task.set).to_tokens(t);
        let spec = GenerateSpec::builder()
            .sampler(Sampler::paper())
            .max_tokens(plan.max_tokens)
            .stop_tokens(vec![t.special(EOS)])
            .trace_min_prob(plan.trace_min_prob)
            .seed(rec.seed)
            .build()
            .expect("the paper plan's spec is valid");
        match generate(&model, &ids, &spec) {
            Ok(trace) if trace == rec.trace => {}
            _ => problems.push((
                1,
                format!(
                    "{} replica {} seed {} re-decodes differently",
                    rec.key, rec.replica, rec.seed
                ),
            )),
        }
    }
    problems
}

/// The `section4a` report, byte for byte as that binary prints it.
fn section4a_report(records: &[PredictionRecord]) -> String {
    let settings = setting_reports(records);
    let overall = overall_report(records, &settings);
    let mut s = String::new();
    writeln!(
        s,
        "Section IV-A reproduction: LLM discriminative-surrogate quality\n"
    )
    .unwrap();
    let mut table = TextTable::new(vec!["setting", "R2", "MARE", "MSRE", "n", "missing"]);
    for r in &settings {
        table.row(vec![
            r.key.to_string(),
            format!("{:+.3}", r.report.r2),
            format!("{:.3}", r.report.mare),
            format!("{:.3}", r.report.msre),
            format!("{}", r.report.n),
            format!("{}", r.n_missing),
        ]);
    }
    writeln!(s, "{}", table.render()).unwrap();
    let mut agg = TextTable::new(vec!["quantity", "measured", "paper"]);
    agg.row(vec![
        "best R2".to_string(),
        format!("{:+.4} ({})", overall.best.1, overall.best.0),
        "+0.4643 (SM icl=50)".to_string(),
    ]);
    agg.row(vec![
        "mean R2".to_string(),
        format!("{:+.3} +- {:.3}", overall.r2.mean, overall.r2.std_dev),
        "-6.643 +- 22.766".to_string(),
    ]);
    agg.row(vec![
        "frac non-negative R2".to_string(),
        format!("{:.3}", overall.frac_nonneg_r2),
        "~0.25".to_string(),
    ]);
    agg.row(vec![
        "mean MARE".to_string(),
        format!("{:.4} +- {:.4}", overall.mare.mean, overall.mare.std_dev),
        "0.3593 +- 0.2474".to_string(),
    ]);
    agg.row(vec![
        "mean MSRE".to_string(),
        format!("{:.4} +- {:.4}", overall.msre.mean, overall.msre.std_dev),
        "0.1021 +- 3.2609".to_string(),
    ]);
    agg.row(vec![
        "exact ICL copies".to_string(),
        format!("{:.3}", overall.copy_fraction),
        "slightly over 0.10".to_string(),
    ]);
    writeln!(s, "{}", agg.render()).unwrap();
    writeln!(
        s,
        "extraction outcomes [direct, after-marker, scavenged, none] = {:?} of {}",
        overall.extraction_counts,
        records.len()
    )
    .unwrap();
    writeln!(
        s,
        "\nShape checks: mean R2 strongly negative with huge variance; error does NOT\n\
         improve monotonically with more ICL examples; a small minority of settings\n\
         reach modest positive R2; ~10% of sampled values are exact ICL copies."
    )
    .unwrap();
    s
}
