//! The repository benchmark: four workloads over the lm-peel stack, each
//! reporting end-to-end metrics from an untraced run or per-layer metrics
//! from a traced one.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grid|serve_prefix|serve_decode|tune_cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: it reads the committed goldens under
//! `bench_out/` (never writes them) and keeps scratch files under
//! `.bench_build/`. The last line of standard output is the JSON result.

mod grid;
mod openloop;
mod probes;
mod report;
mod schedule;
mod serve;
mod spans;
mod stats;
mod tune;

use report::Metrics;
use stats::Tally;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["paper_grid", "serve_prefix", "serve_decode", "tune_cold"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload hands back: both metric lists (only one is printed),
/// request accounting and any failed check.
pub struct RunOut {
    pub metrics: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
    pub problems: Vec<String>,
    pub shards: usize,
}

impl RunOut {
    pub fn new(shards: usize) -> Self {
        Self {
            metrics: Metrics::end_to_end(),
            layers: Metrics::per_layer(),
            tally: Tally::default(),
            problems: Vec::new(),
            shards,
        }
    }

    /// Record a failed check covering `failed` requests.
    pub fn problem(&mut self, failed: u64, what: impl Into<String>) {
        self.tally.check_failed += failed;
        self.problems.push(what.into());
    }

    pub fn check(&mut self, problems: Vec<(u64, String)>) {
        for (failed, what) in problems {
            self.problem(failed, what);
        }
    }

    /// Fill the metrics every workload shares.
    pub fn finish(mut self) -> Self {
        self.metrics.set("peak_rss_mb", report::peak_rss_mb());
        self.layers.set("fail_frac", self.tally.fail_frac());
        self
    }
}

/// Time `n` runs of `setup`, appending their seconds to `samples`; what a
/// set-up returns is dropped after its timing. The cheap set-ups are timed
/// in rounds between measured units, so their median spans the run rather
/// than one moment of a noisy machine.
pub fn time_setups<T>(samples: &mut Vec<f64>, n: usize, mut setup: impl FnMut() -> T) {
    for _ in 0..n {
        let t0 = std::time::Instant::now();
        let built = setup();
        samples.push(t0.elapsed().as_secs_f64());
        drop(built);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    report::clear_env();
    if let Err(e) = preflight() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let out = match args.workload.as_str() {
        "paper_grid" => grid::run(&args),
        "serve_prefix" => serve::run(&args, &serve::PREFIX),
        "serve_decode" => serve::run(&args, &serve::DECODE),
        "tune_cold" => tune::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let metrics = if args.trace {
        &out.layers
    } else {
        &out.metrics
    };
    let mut problems = out.problems.clone();
    let bad = metrics.non_finite();
    if !bad.is_empty() {
        problems.push(format!("no finite value for {bad:?}"));
    }
    let correct = problems.is_empty();
    let fingerprint = report::fingerprint(out.shards);
    eprintln!(
        "perfbench {} seed={} trace={}: {fingerprint}",
        args.workload, args.seed, args.trace
    );
    println!(
        "workload: {} (seed {}, trace {})",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("fingerprint: {fingerprint}");
    print!("{}", metrics.table());
    for p in &problems {
        println!("check failed: {p}");
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "{}",
        metrics.json(correct, out.tally.attempted.max(1), out.tally.errors())
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The benchmark runs from the repository root and needs the committed
/// goldens; anywhere else it refuses before measuring.
fn preflight() -> Result<(), String> {
    for path in [
        "bench_out/section4a.txt",
        "bench_out/tune.txt",
        "Cargo.lock",
    ] {
        if !std::path::Path::new(path).is_file() {
            return Err(format!("{path} not found: run from the repository root"));
        }
    }
    Ok(())
}
