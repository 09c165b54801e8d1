//! The benchmark's own arithmetic: percentiles under the ten-beyond rule,
//! medians of repeated measurements, and request accounting (goodput and
//! failure fraction).

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is a handful of outliers, not a rate.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The p99 when the sample supports it, otherwise the highest percentile
/// that still has [`MIN_BEYOND`] samples beyond it (the tail a small phase
/// can honestly report). `None` below `MIN_BEYOND + 1` samples.
pub fn tail(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = ((0.99 * n as f64).ceil() as usize).min(n - MIN_BEYOND);
    percentile(samples, rank as f64 / n as f64)
}

/// Plain median of a few repeated measurements (set-up times, grid walls).
/// The ten-beyond rule does not apply: these are repeats of one quantity,
/// not a latency distribution.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// How one request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered; `check_ok` is false when the output check rejected it.
    Ok { latency: Duration, check_ok: bool },
    /// Refused by admission control (queue full, connection cap).
    Shed,
    /// Retired by a deadline.
    Deadline,
    /// Any other error, or no answer at all.
    Failed,
}

/// Per-phase request accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub within_slo: u64,
    pub shed: u64,
    pub deadline: u64,
    pub failed: u64,
    pub check_failed: u64,
}

impl Tally {
    /// Count one request against `slo`. A response that fails its output
    /// check counts as a miss, like a shed, a deadline or an error.
    pub fn record(&mut self, outcome: Outcome, slo: Duration) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok { latency, check_ok } => {
                self.ok += 1;
                if !check_ok {
                    self.check_failed += 1;
                } else if latency <= slo {
                    self.within_slo += 1;
                }
            }
            Outcome::Shed => self.shed += 1,
            Outcome::Deadline => self.deadline += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Fold another phase's counts into this one.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.within_slo += other.within_slo;
        self.shed += other.shed;
        self.deadline += other.deadline;
        self.failed += other.failed;
        self.check_failed += other.check_failed;
    }

    /// Responses within the SLO per second of `schedule`.
    pub fn goodput(&self, schedule: Duration) -> f64 {
        self.within_slo as f64 / schedule.as_secs_f64()
    }

    /// Errors, deadline kills and failed output checks: the requests that
    /// went wrong. Sheds are admission decisions at an overload rate and
    /// are not in this count (they are in [`Tally::fail_frac`]).
    pub fn errors(&self) -> u64 {
        self.failed + self.deadline + self.check_failed
    }

    /// Share of attempted requests that did not produce a checked answer.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.errors() + self.shed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly ten above it.
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        // Rank 999 leaves one: not reportable.
        assert_eq!(percentile(&samples, 0.999), None);
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.99), None);
        assert_eq!(percentile(&few, 0.90), Some(90.0));
        assert_eq!(percentile(&few, 0.5), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_is_p99_when_supported_and_ten_from_the_top_otherwise() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big), Some(1980.0));
        let small: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(tail(&small), Some(290.0));
        assert_eq!(tail(&small[..11]), Some(1.0));
        assert_eq!(tail(&small[..10]), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..200).map(|i| ((i * 7919) % 200) as f64).collect();
        let p = percentile(&samples, 0.9);
        samples.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&samples, 0.9));
        assert_eq!(p, Some(179.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn sheds_deadlines_and_failed_checks_are_misses() {
        let slo = ms(100);
        let mut t = Tally::default();
        t.record(
            Outcome::Ok {
                latency: ms(50),
                check_ok: true,
            },
            slo,
        );
        t.record(
            Outcome::Ok {
                latency: ms(100),
                check_ok: true,
            },
            slo,
        );
        t.record(
            Outcome::Ok {
                latency: ms(150),
                check_ok: true,
            },
            slo,
        );
        t.record(
            Outcome::Ok {
                latency: ms(10),
                check_ok: false,
            },
            slo,
        );
        t.record(Outcome::Shed, slo);
        t.record(Outcome::Deadline, slo);
        t.record(Outcome::Failed, slo);
        assert_eq!(t.attempted, 7);
        assert_eq!(t.ok, 4);
        assert_eq!(t.within_slo, 2);
        assert_eq!(t.errors(), 3);
        assert!((t.fail_frac() - 4.0 / 7.0).abs() < 1e-12);
        assert!((t.goodput(Duration::from_secs(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tallies_add_field_by_field() {
        let slo = ms(10);
        let mut a = Tally::default();
        a.record(
            Outcome::Ok {
                latency: ms(1),
                check_ok: true,
            },
            slo,
        );
        let mut b = Tally::default();
        b.record(Outcome::Shed, slo);
        b.record(Outcome::Failed, slo);
        a.add(&b);
        assert_eq!((a.attempted, a.within_slo, a.shed, a.failed), (3, 1, 1, 1));
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }
}
