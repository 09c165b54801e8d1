//! Temperature / top-k / top-p sampling over logit vectors.

use lmpeel_tokenizer::TokenId;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

/// Sampling policy. Mirrors the standard Llama generation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampler {
    /// Softmax temperature; `0.0` means greedy argmax.
    pub temperature: f32,
    /// Keep only the `top_k` most probable tokens (`0` disables).
    pub top_k: usize,
    /// Nucleus sampling: keep the smallest prefix of tokens whose
    /// cumulative probability reaches `top_p` (`1.0` disables).
    pub top_p: f32,
}

impl Sampler {
    /// The paper-style default: temperature 0.6, nucleus 0.9 (the Llama
    /// instruct generation defaults).
    pub fn paper() -> Self {
        Self {
            temperature: 0.6,
            top_k: 0,
            top_p: 0.9,
        }
    }

    /// Greedy decoding.
    pub fn greedy() -> Self {
        Self {
            temperature: 0.0,
            top_k: 0,
            top_p: 1.0,
        }
    }

    /// Normalized next-token distribution after temperature scaling and
    /// top-k/top-p filtering, as `(token, probability)` pairs sorted by
    /// descending probability. Tokens with `-inf` logits never appear.
    pub fn distribution(&self, logits: &[f32]) -> Vec<(TokenId, f32)> {
        let mut bufs = StepBuffers::default();
        bufs.sort(logits);
        bufs.distribution(self);
        bufs.probs
    }

    /// Draw one token. Returns the chosen token and its (filtered,
    /// renormalized) probability.
    ///
    /// # Panics
    /// Panics if every logit is `-inf` (the model refused everything).
    pub fn sample(&self, logits: &[f32], rng: &mut ChaCha8Rng) -> (TokenId, f32) {
        let mut bufs = StepBuffers::default();
        assert!(bufs.sort(logits), "cannot sample: all logits are -inf");
        bufs.draw(self, rng)
    }
}

/// Vocabulary-wide buffers for one decode step: the step's finite logits
/// in one shared order, and a probability buffer that each distribution
/// derived from that order is written into. A decode loop keeps one
/// instance across steps, so a step allocates nothing vocabulary-wide.
#[derive(Default)]
pub(crate) struct StepBuffers {
    /// `(id, logit)` of every finite logit, by descending logit, ties by
    /// ascending id.
    order: Vec<(TokenId, f32)>,
    /// Sort keys of the finite logits (see [`order_key`]).
    keys: Vec<u64>,
    /// The last distribution computed from `order`.
    probs: Vec<(TokenId, f32)>,
}

/// Sort key of a finite logit: ascending keys are descending logits, ties
/// broken by ascending id. `l + 0.0` folds `-0.0` onto `0.0`, so this is
/// exactly the `partial_cmp`-then-id order, and every key is unique.
fn order_key(id: TokenId, l: f32) -> u64 {
    let bits = (l + 0.0).to_bits();
    // Map the IEEE bits to an unsigned integer that sorts like the float.
    let ascending = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    u64::from(!ascending) << 32 | u64::from(id)
}

impl StepBuffers {
    /// Sort the finite entries of `logits` into the shared order. Returns
    /// `false` when no logit is finite (an empty order).
    pub(crate) fn sort(&mut self, logits: &[f32]) -> bool {
        self.keys.clear();
        self.keys.extend(
            logits
                .iter()
                .enumerate()
                .filter(|(_, l)| l.is_finite())
                .map(|(i, &l)| order_key(i as TokenId, l)),
        );
        self.keys.sort_unstable();
        self.order.clear();
        self.order.extend(self.keys.iter().map(|&k| {
            // The low half of a key is its id.
            let id = k as TokenId;
            (id, logits[id as usize])
        }));
        !self.order.is_empty()
    }

    /// `sampler`'s distribution over the sorted order (see
    /// [`Sampler::distribution`]), written into the probability buffer.
    pub(crate) fn distribution(&mut self, sampler: &Sampler) -> &[(TokenId, f32)] {
        let probs = &mut self.probs;
        probs.clear();
        let Some(&(top, max)) = self.order.first() else {
            return probs;
        };
        if sampler.temperature <= 0.0 {
            probs.push((top, 1.0));
            return probs;
        }

        // Stable softmax with temperature.
        let mut sum = 0.0f32;
        probs.extend(self.order.iter().map(|&(t, l)| {
            let p = ((l - max) / sampler.temperature).exp();
            sum += p;
            (t, p)
        }));
        for p in probs.iter_mut() {
            p.1 /= sum;
        }

        if sampler.top_k > 0 && probs.len() > sampler.top_k {
            probs.truncate(sampler.top_k);
        }
        if sampler.top_p < 1.0 {
            let mut cum = 0.0;
            let mut keep = probs.len();
            for (i, &(_, p)) in probs.iter().enumerate() {
                cum += p;
                if cum >= sampler.top_p {
                    keep = i + 1;
                    break;
                }
            }
            probs.truncate(keep);
        }
        // Renormalize after filtering.
        let z: f32 = probs.iter().map(|&(_, p)| p).sum();
        for p in probs.iter_mut() {
            p.1 /= z;
        }
        probs
    }

    /// Draw one token from `sampler`'s distribution over a non-empty
    /// sorted order. Consumes exactly one uniform from `rng`, greedy
    /// included.
    pub(crate) fn draw(&mut self, sampler: &Sampler, rng: &mut ChaCha8Rng) -> (TokenId, f32) {
        let dist = self.distribution(sampler);
        let u: f32 = rng.random();
        let mut cum = 0.0;
        for &(t, p) in dist {
            cum += p;
            if u <= cum {
                return (t, p);
            }
        }
        *dist.last().expect("draw needs a non-empty order")
    }
}

impl Default for Sampler {
    fn default() -> Self {
        Self::paper()
    }
}

/// The sampler before the shared sort: a `partial_cmp` sort and softmax
/// per call. Kept only as the reference the shared-order path is checked
/// against, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// [`Sampler::distribution`] as a fresh sort and softmax.
    pub(crate) fn distribution(s: &Sampler, logits: &[f32]) -> Vec<(TokenId, f32)> {
        let mut pairs: Vec<(TokenId, f32)> = logits
            .iter()
            .enumerate()
            .filter(|(_, &l)| l.is_finite())
            .map(|(i, &l)| (i as TokenId, l))
            .collect();
        if pairs.is_empty() {
            return vec![];
        }
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

        if s.temperature <= 0.0 {
            return vec![(pairs[0].0, 1.0)];
        }

        let max = pairs[0].1;
        let mut sum = 0.0f32;
        let mut probs: Vec<(TokenId, f32)> = pairs
            .into_iter()
            .map(|(t, l)| {
                let p = ((l - max) / s.temperature).exp();
                sum += p;
                (t, p)
            })
            .collect();
        for p in &mut probs {
            p.1 /= sum;
        }

        if s.top_k > 0 && probs.len() > s.top_k {
            probs.truncate(s.top_k);
        }
        if s.top_p < 1.0 {
            let mut cum = 0.0;
            let mut keep = probs.len();
            for (i, &(_, p)) in probs.iter().enumerate() {
                cum += p;
                if cum >= s.top_p {
                    keep = i + 1;
                    break;
                }
            }
            probs.truncate(keep);
        }
        let z: f32 = probs.iter().map(|&(_, p)| p).sum();
        for p in &mut probs {
            p.1 /= z;
        }
        probs
    }

    /// [`Sampler::sample`] over [`distribution`].
    pub(crate) fn sample(s: &Sampler, logits: &[f32], rng: &mut ChaCha8Rng) -> (TokenId, f32) {
        let dist = distribution(s, logits);
        assert!(!dist.is_empty(), "cannot sample: all logits are -inf");
        let u: f32 = rng.random();
        let mut cum = 0.0;
        for &(t, p) in &dist {
            cum += p;
            if u <= cum {
                return (t, p);
            }
        }
        *dist.last().expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_stats::{seeded_rng, SeedDomain};

    fn logits_of(pairs: &[(usize, f32)], n: usize) -> Vec<f32> {
        let mut l = vec![f32::NEG_INFINITY; n];
        for &(i, v) in pairs {
            l[i] = v;
        }
        l
    }

    #[test]
    fn greedy_picks_argmax_with_prob_one() {
        let l = logits_of(&[(1, 0.5), (3, 2.0), (7, -1.0)], 10);
        let d = Sampler::greedy().distribution(&l);
        assert_eq!(d, vec![(3, 1.0)]);
    }

    #[test]
    fn distribution_is_normalized_and_sorted() {
        let l = logits_of(&[(0, 1.0), (1, 2.0), (2, 0.0)], 5);
        let d = Sampler {
            temperature: 1.0,
            top_k: 0,
            top_p: 1.0,
        }
        .distribution(&l);
        assert_eq!(d.len(), 3);
        assert!((d.iter().map(|&(_, p)| p).sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(d.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(d[0].0, 1);
    }

    #[test]
    fn neg_inf_tokens_are_unreachable() {
        let l = logits_of(&[(2, 0.0)], 4);
        let d = Sampler::paper().distribution(&l);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, 2);
    }

    #[test]
    fn temperature_sharpens_and_flattens() {
        let l = logits_of(&[(0, 1.0), (1, 0.0)], 2);
        let hot = Sampler {
            temperature: 4.0,
            top_k: 0,
            top_p: 1.0,
        }
        .distribution(&l);
        let cold = Sampler {
            temperature: 0.25,
            top_k: 0,
            top_p: 1.0,
        }
        .distribution(&l);
        assert!(cold[0].1 > hot[0].1, "low temperature concentrates mass");
    }

    #[test]
    fn top_k_truncates() {
        let l = logits_of(&[(0, 3.0), (1, 2.0), (2, 1.0), (3, 0.0)], 4);
        let d = Sampler {
            temperature: 1.0,
            top_k: 2,
            top_p: 1.0,
        }
        .distribution(&l);
        assert_eq!(d.len(), 2);
        assert!((d[0].1 + d[1].1 - 1.0).abs() < 1e-6, "renormalized");
    }

    #[test]
    fn top_p_keeps_smallest_covering_prefix() {
        // probs ~ [0.64, 0.23, 0.09, 0.03]
        let l = logits_of(&[(0, 3.0), (1, 2.0), (2, 1.0), (3, 0.0)], 4);
        let d = Sampler {
            temperature: 1.0,
            top_k: 0,
            top_p: 0.8,
        }
        .distribution(&l);
        assert_eq!(d.len(), 2, "0.64 + 0.23 covers 0.8");
    }

    #[test]
    fn sampling_is_reproducible_and_respects_support() {
        let l = logits_of(&[(0, 1.0), (5, 1.0), (9, -0.5)], 12);
        let s = Sampler::paper();
        let mut r1 = seeded_rng(1, SeedDomain::Sampling(0));
        let mut r2 = seeded_rng(1, SeedDomain::Sampling(0));
        for _ in 0..32 {
            let (a, pa) = s.sample(&l, &mut r1);
            let (b, _) = s.sample(&l, &mut r2);
            assert_eq!(a, b);
            assert!([0, 5, 9].contains(&a));
            assert!(pa > 0.0 && pa <= 1.0);
        }
    }

    #[test]
    fn sampling_frequency_tracks_probability() {
        let l = logits_of(&[(0, 2.0), (1, 0.0)], 2);
        let s = Sampler {
            temperature: 1.0,
            top_k: 0,
            top_p: 1.0,
        };
        let mut rng = seeded_rng(2, SeedDomain::Sampling(1));
        let n = 4000;
        let hits = (0..n).filter(|_| s.sample(&l, &mut rng).0 == 0).count();
        let expect = (2.0f32.exp() / (2.0f32.exp() + 1.0)) as f64;
        let got = hits as f64 / n as f64;
        assert!((got - expect).abs() < 0.03, "freq {got} vs prob {expect}");
    }

    #[test]
    #[should_panic(expected = "all logits are -inf")]
    fn empty_support_panics() {
        let l = vec![f32::NEG_INFINITY; 3];
        let mut rng = seeded_rng(3, SeedDomain::Sampling(2));
        let _ = Sampler::paper().sample(&l, &mut rng);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_logits() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(
            prop_oneof![4 => (-8.0f32..8.0).prop_map(|x| x), 1 => Just(f32::NEG_INFINITY)],
            1..40,
        )
    }

    proptest! {
        #[test]
        fn distribution_is_a_probability_over_finite_support(
            logits in arb_logits(),
            temp in 0.1f32..3.0,
            top_p in 0.1f32..=1.0,
        ) {
            let s = Sampler { temperature: temp, top_k: 0, top_p };
            let d = s.distribution(&logits);
            let finite = logits.iter().filter(|l| l.is_finite()).count();
            if finite == 0 {
                prop_assert!(d.is_empty());
            } else {
                prop_assert!(!d.is_empty());
                prop_assert!(d.len() <= finite);
                let total: f32 = d.iter().map(|&(_, p)| p).sum();
                prop_assert!((total - 1.0).abs() < 1e-4, "sums to {total}");
                prop_assert!(d.windows(2).all(|w| w[0].1 >= w[1].1), "sorted");
                for &(id, p) in &d {
                    prop_assert!(logits[id as usize].is_finite());
                    prop_assert!(p > 0.0);
                }
            }
        }

        #[test]
        fn sampling_only_draws_from_the_distribution(
            logits in arb_logits(),
            seed in 0u64..64,
        ) {
            prop_assume!(logits.iter().any(|l| l.is_finite()));
            let s = Sampler::paper();
            let support: Vec<TokenId> =
                s.distribution(&logits).into_iter().map(|(t, _)| t).collect();
            let mut rng = lmpeel_stats::seeded_rng(
                seed,
                lmpeel_stats::SeedDomain::Sampling(99),
            );
            for _ in 0..8 {
                let (t, p) = s.sample(&logits, &mut rng);
                prop_assert!(support.contains(&t));
                prop_assert!(p > 0.0 && p <= 1.0);
            }
        }

        #[test]
        fn greedy_is_the_temperature_zero_limit(logits in arb_logits()) {
            prop_assume!(logits.iter().any(|l| l.is_finite()));
            // A near-tie between the top two logits keeps the cold
            // distribution flat (and makes the argmax ambiguous), so the
            // limit statement only holds given a margin.
            let mut sorted: Vec<f32> = logits.iter().copied().filter(|l| l.is_finite()).collect();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            prop_assume!(sorted.len() < 2 || sorted[0] - sorted[1] > 0.05);
            let greedy = Sampler::greedy().distribution(&logits);
            let cold = Sampler { temperature: 0.01, top_k: 0, top_p: 1.0 }
                .distribution(&logits);
            prop_assert_eq!(greedy[0].0, cold[0].0, "same argmax token");
            prop_assert!(cold[0].1 > 0.9, "cold distribution concentrates");
        }
    }
}
