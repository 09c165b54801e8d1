//! Wall-clock measurement harness.
//!
//! The only place in the workspace that reads the clock. Mirrors the
//! paper's empirical-evaluation loop: run the configured kernel a few
//! times, discard warmups, report robust statistics.

use std::time::Instant;

/// How to measure: warmup iterations (discarded) and timed repeats.
///
/// Construction validates the spec: a measurement with zero timed repeats
/// has no statistics, so [`MeasureSpec::new`] rejects `repeats == 0` and
/// every spec in circulation is runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureSpec {
    warmups: usize,
    repeats: usize,
}

impl MeasureSpec {
    /// Build a spec with `warmups` untimed settling runs and `repeats`
    /// timed runs. `None` when `repeats == 0`.
    pub fn new(warmups: usize, repeats: usize) -> Option<Self> {
        (repeats >= 1).then_some(Self { warmups, repeats })
    }

    /// Untimed warmup runs (cache/branch-predictor settling).
    pub fn warmups(&self) -> usize {
        self.warmups
    }

    /// Timed runs (always >= 1).
    pub fn repeats(&self) -> usize {
        self.repeats
    }
}

impl Default for MeasureSpec {
    fn default() -> Self {
        Self {
            warmups: 1,
            repeats: 3,
        }
    }
}

/// Result of measuring one workload.
///
/// The statistics are total: they return `None` on an empty sample set
/// instead of `INFINITY`/panicking, so a `Measurement` deserialized or
/// constructed outside [`measure`] can never poison downstream math.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    samples: Vec<f64>,
}

impl Measurement {
    /// Wrap raw timing samples (seconds, execution order).
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Self { samples }
    }

    /// All timed samples, in execution order (seconds).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Fastest sample; `None` when there are no samples.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Slowest sample; `None` when there are no samples.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Median sample — the headline number (robust to OS jitter); `None`
    /// when there are no samples.
    pub fn median(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mid = s.len() / 2;
        Some(if s.len() % 2 == 1 {
            s[mid]
        } else {
            0.5 * (s[mid - 1] + s[mid])
        })
    }

    /// Arithmetic mean sample; `None` when there are no samples.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }
}

/// Measure a workload. The closure's return value is folded into a black-box
/// sink so the optimizer cannot elide the work; the last result is returned
/// so the caller can validate it.
pub fn measure<T, F: FnMut() -> T>(spec: MeasureSpec, mut work: F) -> (Measurement, T) {
    for _ in 0..spec.warmups {
        std::hint::black_box(work());
    }
    let mut samples = Vec::with_capacity(spec.repeats);
    let mut last = None;
    for _ in 0..spec.repeats {
        let t0 = Instant::now();
        let out = std::hint::black_box(work());
        samples.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (
        Measurement::from_samples(samples),
        last.expect("spec construction guarantees repeats >= 1"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(warmups: usize, repeats: usize) -> MeasureSpec {
        MeasureSpec::new(warmups, repeats).expect("valid spec")
    }

    #[test]
    fn collects_requested_samples() {
        let (m, out) = measure(spec(2, 5), || 41 + 1);
        assert_eq!(m.samples().len(), 5);
        assert_eq!(out, 42);
        assert!(m.samples().iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn statistics_are_consistent() {
        let m = Measurement::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(m.min(), Some(1.0));
        assert_eq!(m.max(), Some(3.0));
        assert_eq!(m.median(), Some(2.0));
        assert_eq!(m.mean(), Some(2.0));
    }

    #[test]
    fn even_length_median_averages() {
        let m = Measurement::from_samples(vec![1.0, 2.0, 3.0, 10.0]);
        assert_eq!(m.median(), Some(2.5));
    }

    #[test]
    fn empty_measurement_statistics_are_total() {
        let m = Measurement::from_samples(vec![]);
        assert_eq!(m.min(), None);
        assert_eq!(m.max(), None);
        assert_eq!(m.median(), None);
        assert_eq!(m.mean(), None);
    }

    #[test]
    fn workload_actually_runs_warmups_plus_repeats() {
        let mut calls = 0;
        let _ = measure(spec(3, 2), || calls += 1);
        assert_eq!(calls, 5);
    }

    #[test]
    fn zero_repeats_rejected_at_construction() {
        assert_eq!(MeasureSpec::new(0, 0), None);
        assert_eq!(MeasureSpec::new(7, 0), None);
        assert!(MeasureSpec::new(0, 1).is_some());
    }

    #[test]
    fn timing_orders_sleep_lengths() {
        // Coarse sanity: a longer busy loop takes longer.
        let busy = |iters: u64| {
            move || {
                let mut acc = 0u64;
                for i in 0..iters {
                    acc = acc.wrapping_add(std::hint::black_box(i));
                }
                acc
            }
        };
        let (short, _) = measure(spec(1, 3), busy(10_000));
        let (long, _) = measure(spec(1, 3), busy(10_000_000));
        assert!(long.median() > short.median());
    }
}
