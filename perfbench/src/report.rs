//! What a run prints: the machine fingerprint, every metric by name with
//! its unit, and the one-line JSON result the benchmark contract asks for.

use std::fmt::Write as _;
use std::path::Path;

/// Environment variables that change how the workspace builds its
/// services or runs its binaries. A run clears them so the workload, not
/// the caller's shell, decides shard count and fault hooks.
pub const CLEARED_ENV: [&str; 3] = ["LMPEEL_SHARDS", "LMPEEL_CRASH_AFTER", "LMPEEL_BENCH_SMOKE"];

/// Remove [`CLEARED_ENV`] from this process's environment. Call before any
/// thread starts.
pub fn clear_env() {
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
}

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in print order. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lm.logits_us", "us"),
    ("lm.step_other_us", "us"),
    ("lm.append_us", "us"),
    ("lm.batch_logits_us_per_lane", "us"),
    ("lm.batch_width", "lanes"),
    ("lm.prefill_us_per_token", "us"),
    ("lm.fork_us", "us"),
    ("lm.sampler.distribution_us", "us"),
    ("lm.sampler.sample_us", "us"),
    ("lm.steps", "count"),
    ("lm.tokens_generated", "count"),
    ("lm.prefill_tokens", "count"),
    ("lm.forks", "count"),
    ("serve.trie.token_reuse_ratio", "ratio"),
    ("serve.trie.full_hits", "count"),
    ("serve.trie.partial_hits", "count"),
    ("serve.trie.misses", "count"),
    ("serve.trie.evictions", "count"),
    ("serve.shard.balance", "ratio"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.retried", "count"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_tail_ms", "ms"),
    ("frontend.encode_us", "us"),
    ("frontend.decode_us", "us"),
    ("frontend.server_p50_us", "us"),
    ("frontend.wire_overhead_ms", "ms"),
    ("tokenizer.encode_us_per_kb", "us/KB"),
    ("prompt.build_us", "us"),
    ("tune.llm_search_ms", "ms"),
    ("gbdt.search_ms", "ms"),
    ("perfdata.generate_ms", "ms"),
    ("kernel.validate_ms", "ms"),
    ("tune.other_ms", "ms"),
    ("loadgen.lag_tail_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
];

/// Values for one metric list. Unset metrics print as `default`.
pub struct Metrics {
    spec: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    default: f64,
}

impl Metrics {
    /// The end-to-end list; every metric must be set (unset ones are NaN
    /// and fail the run).
    pub fn end_to_end() -> Self {
        Self::new(END_TO_END, f64::NAN)
    }

    /// The per-layer list; layers off the workload's path stay 0.
    pub fn per_layer() -> Self {
        Self::new(PER_LAYER, 0.0)
    }

    fn new(spec: &'static [(&'static str, &'static str)], default: f64) -> Self {
        Self {
            spec,
            values: vec![None; spec.len()],
            default,
        }
    }

    /// Set `name`, which must be in this list.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .spec
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        self.values[i] = Some(value);
    }

    fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.spec
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| (name, v.unwrap_or(self.default), unit))
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.rows()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n)
            .collect()
    }

    /// One `name = value unit` line per metric.
    pub fn table(&self) -> String {
        let width = self.spec.iter().map(|r| r.0.len()).max().unwrap_or(0);
        let mut s = String::new();
        for (name, value, unit) in self.rows() {
            writeln!(s, "  {name:<width$} = {value} {unit}").expect("write to String");
        }
        s
    }

    /// The contract's result object, on one line.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .rows()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// A finite float as JSON, with every digit Rust's shortest round-trip
/// form carries; non-finite values (already a failed run) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process, in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The machine and build a run's numbers belong to.
pub fn fingerprint(shards: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rev={} profile={profile} shards={shards} rayon=\"{}\"",
        source_revision(),
        rayon_implementation()
    )
}

/// The git commit when run from a git checkout, otherwise a hash of the
/// workspace sources (the benchmark also runs from plain source trees).
fn source_revision() -> String {
    if let Some(rev) = git_head(Path::new(".git")) {
        return rev;
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(f.to_string_lossy().bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("src-{:016x}", fnv64(&bytes))
}

/// FNV-1a, 64-bit: a digest for comparing outputs byte for byte.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
            out.push(p);
        }
    }
}

/// Which `rayon` the workspace builds against, from its manifest.
fn rayon_implementation() -> String {
    let manifest = std::fs::read_to_string("vendor/rayon/Cargo.toml").unwrap_or_default();
    let field = |key: &str| {
        manifest
            .lines()
            .find(|l| l.trim_start().starts_with(key))
            .and_then(|l| l.split('"').nth(1))
            .unwrap_or("")
            .to_string()
    };
    let version = field("version");
    if manifest.is_empty() {
        "registry".to_string()
    } else if field("description").contains("stand-in") {
        format!("vendored sequential stand-in {version}")
    } else {
        format!("vendored {version}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys_and_full_digits() {
        let mut m = Metrics::end_to_end();
        m.set("setup_s", 0.123_456_789_012_3);
        for (name, _) in &END_TO_END[1..] {
            m.set(name, 2.0);
        }
        let line = m.json(true, 10, 0);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.1234567890123, \"unit\": \"s\"}, \
             \"wall_s\": {\"value\": 2.0, \"unit\": \"s\"}"
        ));
        assert!(m.non_finite().is_empty());
        assert_eq!(Metrics::end_to_end().non_finite().len(), END_TO_END.len());
        assert!(Metrics::per_layer().non_finite().is_empty());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list end")];
            let declared: Vec<(&str, &str)> = body
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key);
                        entry[at..].split('"').nth(3).expect("value")
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, list, "{section} in BENCHMARK.json");
        }
    }
}
