//! Open-loop arrival schedules, generated from the workload seed alone.

use rand::{RngCore, RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Send time, from the start of the phase.
    pub at: Duration,
    /// Prompt group (Zipf rank), or the request index when prompts are
    /// unique.
    pub group: usize,
    /// Sampling seed of the request.
    pub seed: u64,
}

/// Poisson arrivals at `rate` per second for `n` requests. The
/// inter-arrival gaps are rescaled so the last request is due at exactly
/// `n / rate`: every seed offers the same load over the same span, and
/// only the burst pattern varies. `groups == 0` gives every request its
/// own prompt; otherwise groups are drawn Zipf(`zipf_s`) by rank.
/// `stream` separates the phases of one run.
pub fn poisson(
    seed: u64,
    stream: u64,
    n: usize,
    rate: f64,
    groups: usize,
    zipf_s: f64,
) -> Vec<Arrival> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream);
    let cdf = zipf_cdf(groups, zipf_s);
    let mut t = 0.0f64;
    let mut raw = Vec::with_capacity(n);
    for i in 0..n {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln();
        let group = if groups == 0 {
            i
        } else {
            let u: f64 = rng.random();
            cdf.iter().position(|&c| u <= c).unwrap_or(groups - 1)
        };
        raw.push((t, group, rng.next_u64()));
    }
    let span = n as f64 / rate;
    let scale = if t > 0.0 { span / t } else { 0.0 };
    raw.into_iter()
        .map(|(t, group, seed)| Arrival {
            at: Duration::from_secs_f64(t * scale),
            group,
            seed,
        })
        .collect()
}

/// Evenly spaced arrivals at `rate` per second, each with its own prompt
/// (`group` is the request index) and a seed-drawn sampling seed.
pub fn even(seed: u64, stream: u64, n: usize, rate: f64) -> Vec<Arrival> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream);
    (0..n)
        .map(|i| Arrival {
            at: Duration::from_secs_f64((i + 1) as f64 / rate),
            group: i,
            seed: rng.next_u64(),
        })
        .collect()
}

/// Cumulative Zipf(s) distribution over `groups` ranks.
fn zipf_cdf(groups: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..groups)
        .map(|k| 1.0 / ((k + 1) as f64).powf(s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_from_the_seed() {
        let a = poisson(5, 1, 500, 100.0, 32, 1.0);
        let b = poisson(5, 1, 500, 100.0, 32, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson(6, 1, 500, 100.0, 32, 1.0));
        assert_ne!(a, poisson(5, 2, 500, 100.0, 32, 1.0));
    }

    #[test]
    fn schedule_spans_exactly_n_over_rate_in_order() {
        let a = poisson(9, 1, 400, 200.0, 0, 1.0);
        assert_eq!(a.len(), 400);
        let last = a.last().unwrap().at.as_secs_f64();
        assert!((last - 2.0).abs() < 1e-6, "last arrival at {last}");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        // Unique prompts: the group is the request index.
        assert!(a.iter().enumerate().all(|(i, x)| x.group == i));
    }

    #[test]
    fn even_schedule_is_reproducible_and_evenly_spaced() {
        let a = even(4, 1, 100, 50.0);
        assert_eq!(a, even(4, 1, 100, 50.0));
        assert_ne!(a[0].seed, even(5, 1, 100, 50.0)[0].seed);
        assert!((a[99].at.as_secs_f64() - 2.0).abs() < 1e-9);
        assert!(a
            .windows(2)
            .all(|w| (w[1].at - w[0].at).as_secs_f64() - 0.02 < 1e-9));
    }

    #[test]
    fn zipf_groups_favour_low_ranks() {
        let a = poisson(3, 1, 4000, 1000.0, 16, 1.0);
        let mut counts = [0usize; 16];
        for x in &a {
            counts[x.group] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[15]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
