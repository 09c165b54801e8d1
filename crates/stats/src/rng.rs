//! Deterministic, splittable random-number plumbing.
//!
//! Every experiment in the paper is defined by a tuple of discrete choices —
//! array size, number of ICL examples, dataset replica, sampling seed. To
//! make every table and figure regenerate bit-identically, all randomness in
//! the workspace flows through [`ChaCha8Rng`] streams derived from a root
//! seed and a structured [`SeedDomain`] label via a stable 64-bit hash
//! (FNV-1a). Two different domains never collide in practice, and the same
//! domain always yields the same stream — independent of rand's unstable
//! `StdRng` internals and of platform endianness.

use rand_chacha::rand_core::SeedableRng;
pub use rand_chacha::ChaCha8Rng;

/// Structured label identifying an independent randomness consumer.
///
/// The variants cover the experiment axes of the paper; `Custom` is an
/// escape hatch for tests and tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedDomain {
    /// Dataset-level measurement jitter for a given array-size tag.
    DatasetNoise(u64),
    /// Selection of in-context examples: (replica index, icl count).
    IclSelection(u64, u64),
    /// Query-configuration selection for a replica.
    QuerySelection(u64),
    /// LLM sampling for a given experiment seed index.
    Sampling(u64),
    /// GBDT training internals (subsampling, column sampling).
    GbdtTraining(u64),
    /// Randomized hyperparameter search draw.
    HyperSearch(u64),
    /// Train/test splitting.
    Split(u64),
    /// Anything else; pick a unique tag.
    Custom(u64),
}

impl SeedDomain {
    fn tag(&self) -> (u64, u64, u64) {
        match *self {
            SeedDomain::DatasetNoise(a) => (1, a, 0),
            SeedDomain::IclSelection(a, b) => (2, a, b),
            SeedDomain::QuerySelection(a) => (3, a, 0),
            SeedDomain::Sampling(a) => (4, a, 0),
            SeedDomain::GbdtTraining(a) => (5, a, 0),
            SeedDomain::HyperSearch(a) => (6, a, 0),
            SeedDomain::Split(a) => (7, a, 0),
            SeedDomain::Custom(a) => (8, a, 0),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_u64(state: u64, word: u64) -> u64 {
    let mut h = state;
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Derive a child seed from a root seed and a domain label.
///
/// Stable across releases: the mapping is pure FNV-1a over the little-endian
/// bytes of `(root, discriminant, a, b)`.
pub fn derive_seed(root: u64, domain: SeedDomain) -> u64 {
    let (d, a, b) = domain.tag();
    let mut h = FNV_OFFSET;
    h = fnv1a_u64(h, root);
    h = fnv1a_u64(h, d);
    h = fnv1a_u64(h, a);
    h = fnv1a_u64(h, b);
    h
}

/// A ChaCha8 RNG for the given root seed and domain.
pub fn seeded_rng(root: u64, domain: SeedDomain) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(derive_seed(root, domain))
}

/// Stable 64-bit hash of an arbitrary byte string (FNV-1a); used for
/// configuration-keyed deterministic jitter in the performance model.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`hash_bytes`] of the 24-byte key `a ‖ b ‖ word` (little-endian `u64`s)
/// with the `(a, b)` prefix folded once, so a caller hashing many trailing
/// words under one prefix pays only for the last eight bytes each time.
#[derive(Debug, Clone, Copy)]
pub struct PrefixHash(u64);

impl PrefixHash {
    /// `FNV_PRIME^6`: six zero bytes fold into FNV-1a as six multiplies
    /// (`h ^ 0 == h`), which is one multiply by the power.
    const PRIME_POW6: u64 = FNV_PRIME.wrapping_pow(6);

    /// Fold the 16-byte prefix `a ‖ b`.
    pub fn new(a: u64, b: u64) -> Self {
        Self(fnv1a_u64(fnv1a_u64(FNV_OFFSET, a), b))
    }

    /// `hash_bytes(a ‖ b ‖ word)`. Words below `2^16` have six zero high
    /// bytes and take the short path.
    pub fn finish(self, word: u64) -> u64 {
        if word < 1 << 16 {
            let h = (self.0 ^ (word & 0xff)).wrapping_mul(FNV_PRIME);
            let h = (h ^ (word >> 8)).wrapping_mul(FNV_PRIME);
            h.wrapping_mul(Self::PRIME_POW6)
        } else {
            fnv1a_u64(self.0, word)
        }
    }
}

/// Map a 64-bit hash to a uniform f64 in `[0, 1)`.
pub fn hash_to_unit(h: u64) -> f64 {
    // Use the top 53 bits for a dyadic uniform in [0,1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn derivation_is_deterministic() {
        let a = derive_seed(42, SeedDomain::Sampling(3));
        let b = derive_seed(42, SeedDomain::Sampling(3));
        assert_eq!(a, b);
    }

    #[test]
    fn domains_do_not_collide() {
        use SeedDomain::*;
        let domains = [
            DatasetNoise(0),
            IclSelection(0, 0),
            IclSelection(0, 1),
            IclSelection(1, 0),
            QuerySelection(0),
            Sampling(0),
            GbdtTraining(0),
            HyperSearch(0),
            Split(0),
            Custom(0),
        ];
        let mut seen = std::collections::HashSet::new();
        for d in domains {
            assert!(seen.insert(derive_seed(7, d)), "collision for {d:?}");
        }
    }

    #[test]
    fn root_seed_changes_stream() {
        assert_ne!(
            derive_seed(1, SeedDomain::Sampling(0)),
            derive_seed(2, SeedDomain::Sampling(0))
        );
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut r1 = seeded_rng(9, SeedDomain::Split(4));
        let mut r2 = seeded_rng(9, SeedDomain::Split(4));
        for _ in 0..16 {
            assert_eq!(r1.random::<u64>(), r2.random::<u64>());
        }
    }

    #[test]
    fn known_answer_guard() {
        // Guards against accidental changes to the hash; update deliberately.
        assert_eq!(derive_seed(0, SeedDomain::Custom(0)), {
            let mut h = FNV_OFFSET;
            for w in [0u64, 8, 0, 0] {
                h = fnv1a_u64(h, w);
            }
            h
        });
    }

    mod prefix_hash_props {
        use super::*;
        use proptest::prelude::*;

        fn key(a: u64, b: u64, word: u64) -> [u8; 24] {
            let mut k = [0u8; 24];
            k[..8].copy_from_slice(&a.to_le_bytes());
            k[8..16].copy_from_slice(&b.to_le_bytes());
            k[16..].copy_from_slice(&word.to_le_bytes());
            k
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            // `word` on both sides of the `2^16` short-path boundary, at
            // the boundary itself and at the top of the range.
            #[test]
            fn prefix_hash_equals_hash_bytes_of_the_24_byte_key(
                a in 0u64..=u64::MAX,
                b in 0u64..=u64::MAX,
                word in prop_oneof![
                    0u64..1 << 16,
                    (1u64 << 16)..=u64::MAX,
                    Just((1u64 << 16) - 1),
                    Just(1u64 << 16),
                    Just(u64::MAX),
                ],
            ) {
                prop_assert_eq!(PrefixHash::new(a, b).finish(word), hash_bytes(&key(a, b, word)));
            }
        }
    }

    #[test]
    fn hash_to_unit_in_range() {
        for i in 0..1000u64 {
            let u = hash_to_unit(hash_bytes(&i.to_le_bytes()));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn hash_to_unit_looks_uniform() {
        let n = 10_000u64;
        let mean: f64 = (0..n)
            .map(|i| hash_to_unit(hash_bytes(&i.to_le_bytes())))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }
}
