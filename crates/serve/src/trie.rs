//! Prefix cache: a trie over prompt token ids holding forkable session
//! snapshots.
//!
//! The paper's workload is pathologically prefix-heavy: every (task, seed)
//! cell of the experiment grid re-sends the same multi-thousand-token ICL
//! prompt, and the LLAMBO helpers fan one prompt out across sampling seeds.
//! The trie makes the service pay each distinct prompt's prefill once: after
//! a miss the scheduler inserts a snapshot of the freshly prefilled session
//! at the prompt's end node, and subsequent requests fork it — a deep copy,
//! so the cached snapshot is never mutated — and only prefill the remainder.
//!
//! Snapshots are stored at *prompt ends only* (not every node): interior
//! nodes are just routing. Capacity is bounded; eviction is LRU by a logical
//! tick counter (no wall clock — the whole stack must stay deterministic).

use lmpeel_lm::DecodeSession;
use lmpeel_tokenizer::TokenId;
use std::collections::HashMap;

/// Hit/miss accounting, exposed through the service's stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrieStats {
    /// Lookups where the full prompt was cached (zero prefill).
    pub full_hits: u64,
    /// Lookups that found a cached proper prefix of the prompt.
    pub partial_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Prompt tokens recovered from snapshots across all lookups.
    pub tokens_reused: u64,
    /// Prompt tokens the scheduler actually prefilled.
    pub tokens_prefilled: u64,
    /// Snapshots dropped by LRU eviction.
    pub evictions: u64,
}

impl TrieStats {
    /// Fold `other`'s counters into `self` — the aggregation used both by
    /// the scheduler (summing per-substrate tries) and by
    /// [`crate::ServeStats::merge`] (summing per-shard blocks).
    pub fn merge(&mut self, other: &TrieStats) {
        let TrieStats {
            full_hits,
            partial_hits,
            misses,
            tokens_reused,
            tokens_prefilled,
            evictions,
        } = other;
        self.full_hits += full_hits;
        self.partial_hits += partial_hits;
        self.misses += misses;
        self.tokens_reused += tokens_reused;
        self.tokens_prefilled += tokens_prefilled;
        self.evictions += evictions;
    }
}

struct Node {
    children: HashMap<TokenId, usize>,
    snapshot: Option<Snapshot>,
    /// The node this one hangs under (the root points at itself).
    parent: usize,
    /// The token on the edge from `parent`.
    token: TokenId,
}

impl Node {
    fn new(parent: usize, token: TokenId) -> Self {
        Self {
            children: HashMap::new(),
            snapshot: None,
            parent,
            token,
        }
    }
}

struct Snapshot {
    session: Box<dyn DecodeSession>,
    last_used: u64,
}

/// The prefix cache. One per registered substrate.
///
/// Only nodes on a path to a live snapshot exist: evicting a snapshot
/// prunes the branch that led only to it, and pruned slots are reused, so
/// the arena stays bounded by the live prompts' total length however many
/// distinct prompts pass through.
pub struct PrefixTrie {
    /// Arena of nodes; index 0 is the root (empty prefix).
    nodes: Vec<Node>,
    /// Pruned arena slots, reused before the arena grows.
    free: Vec<usize>,
    /// The nodes that hold a snapshot, so eviction scans only those.
    cached: Vec<usize>,
    /// Maximum live snapshots; 0 disables caching entirely.
    capacity: usize,
    tick: u64,
    stats: TrieStats,
}

impl PrefixTrie {
    /// Empty trie holding at most `capacity` snapshots.
    pub fn new(capacity: usize) -> Self {
        Self {
            nodes: vec![Node::new(0, 0)],
            free: Vec::new(),
            cached: Vec::new(),
            capacity,
            tick: 0,
            stats: TrieStats::default(),
        }
    }

    /// Fork the deepest cached snapshot whose prompt is a prefix of
    /// `prompt`. Returns the fork and how many prompt tokens it already
    /// contains; `None` on a miss. Accounting: a full-length match counts as
    /// a full hit, any shorter one as a partial hit.
    pub fn lookup(&mut self, prompt: &[TokenId]) -> Option<(Box<dyn DecodeSession>, usize)> {
        let mut node = 0usize;
        let mut best: Option<(usize, usize)> = None; // (node, depth)
        if self.nodes[0].snapshot.is_some() {
            best = Some((0, 0));
        }
        for (depth, &t) in prompt.iter().enumerate() {
            match self.nodes[node].children.get(&t) {
                Some(&next) => {
                    node = next;
                    if self.nodes[node].snapshot.is_some() {
                        best = Some((node, depth + 1));
                    }
                }
                None => break,
            }
        }
        match best {
            Some((node, depth)) => {
                self.tick += 1;
                let snap = self.nodes[node].snapshot.as_mut().expect("tracked above");
                snap.last_used = self.tick;
                if depth == prompt.len() {
                    self.stats.full_hits += 1;
                } else {
                    self.stats.partial_hits += 1;
                }
                self.stats.tokens_reused += depth as u64;
                Some((snap.session.fork(), depth))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Cache a snapshot of a session whose contents are exactly `prompt`.
    /// Replaces any existing snapshot at that prompt; evicts the
    /// least-recently-used snapshot when over capacity.
    pub fn insert(&mut self, prompt: &[TokenId], session: Box<dyn DecodeSession>) {
        if self.capacity == 0 {
            return;
        }
        debug_assert_eq!(
            session.tokens(),
            prompt,
            "snapshot must hold exactly the prompt"
        );
        let mut node = 0usize;
        for &t in prompt {
            node = match self.nodes[node].children.get(&t) {
                Some(&next) => next,
                None => {
                    let child = Node::new(node, t);
                    let next = match self.free.pop() {
                        Some(slot) => {
                            self.nodes[slot] = child;
                            slot
                        }
                        None => {
                            self.nodes.push(child);
                            self.nodes.len() - 1
                        }
                    };
                    self.nodes[node].children.insert(t, next);
                    next
                }
            };
        }
        self.tick += 1;
        let fresh = self.nodes[node].snapshot.is_none();
        self.nodes[node].snapshot = Some(Snapshot {
            session,
            last_used: self.tick,
        });
        if fresh {
            self.cached.push(node);
            if self.cached.len() > self.capacity {
                self.evict_lru(node);
            }
        }
    }

    /// Record prompt tokens the scheduler prefilled for a request (kept
    /// here so reuse and prefill counts live in one ledger).
    pub fn note_prefilled(&mut self, tokens: u64) {
        self.stats.tokens_prefilled += tokens;
    }

    /// Snapshot of the accounting counters.
    pub fn stats(&self) -> TrieStats {
        self.stats
    }

    /// Number of live snapshots.
    pub fn len(&self) -> usize {
        self.cached.len()
    }

    /// True when no snapshots are cached.
    pub fn is_empty(&self) -> bool {
        self.cached.is_empty()
    }

    /// Drop the least-recently-used snapshot other than `keep`'s, then
    /// prune the nodes that led only to it.
    fn evict_lru(&mut self, keep: usize) {
        let victim = self
            .cached
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n != keep)
            .min_by_key(|&(_, &n)| self.nodes[n].snapshot.as_ref().map(|s| s.last_used))
            .map(|(k, _)| k);
        let Some(k) = victim else { return };
        let mut node = self.cached.swap_remove(k);
        self.nodes[node].snapshot = None;
        self.stats.evictions += 1;
        while node != 0
            && self.nodes[node].snapshot.is_none()
            && self.nodes[node].children.is_empty()
        {
            let Node { parent, token, .. } = self.nodes[node];
            self.nodes[parent].children.remove(&token);
            self.free.push(node);
            node = parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A trivial session for trie tests: tokens only, no model.
    #[derive(Clone)]
    struct StubSession {
        tokens: Vec<TokenId>,
    }

    impl StubSession {
        fn over(tokens: &[TokenId]) -> Box<dyn DecodeSession> {
            Box::new(Self {
                tokens: tokens.to_vec(),
            })
        }
    }

    impl DecodeSession for StubSession {
        fn tokens(&self) -> &[TokenId] {
            &self.tokens
        }
        fn append(&mut self, token: TokenId) {
            self.tokens.push(token);
        }
        fn logits(&self) -> Vec<f32> {
            vec![0.0; 4]
        }
        fn fork(&self) -> Box<dyn DecodeSession> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn miss_then_full_hit_then_partial_hit() {
        let mut trie = PrefixTrie::new(4);
        let prompt = vec![1, 2, 3];

        assert!(trie.lookup(&prompt).is_none());
        assert_eq!(trie.stats().misses, 1);

        trie.insert(&prompt, StubSession::over(&prompt));
        let (s, reused) = trie.lookup(&prompt).expect("full hit");
        assert_eq!(reused, 3);
        assert_eq!(s.tokens(), &prompt[..]);
        assert_eq!(trie.stats().full_hits, 1);
        assert_eq!(trie.stats().tokens_reused, 3);

        // A longer prompt sharing the prefix: partial hit at depth 3.
        let longer = vec![1, 2, 3, 4, 5];
        let (s, reused) = trie.lookup(&longer).expect("partial hit");
        assert_eq!(reused, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(trie.stats().partial_hits, 1);
        assert_eq!(trie.stats().tokens_reused, 6);

        // A diverging prompt: miss (no snapshot on its path).
        assert!(trie.lookup(&[9, 9]).is_none());
        assert_eq!(trie.stats().misses, 2);
    }

    #[test]
    fn deepest_snapshot_wins() {
        let mut trie = PrefixTrie::new(4);
        trie.insert(&[1], StubSession::over(&[1]));
        trie.insert(&[1, 2, 3], StubSession::over(&[1, 2, 3]));
        let (_, reused) = trie.lookup(&[1, 2, 3, 4]).expect("hit");
        assert_eq!(
            reused, 3,
            "must fork the deepest prefix, not the shallowest"
        );
    }

    #[test]
    fn forks_do_not_mutate_the_snapshot() {
        let mut trie = PrefixTrie::new(4);
        trie.insert(&[1, 2], StubSession::over(&[1, 2]));
        let (mut fork, _) = trie.lookup(&[1, 2]).unwrap();
        fork.append(3);
        let (again, _) = trie.lookup(&[1, 2]).unwrap();
        assert_eq!(again.tokens(), &[1, 2], "snapshot must stay pristine");
    }

    #[test]
    fn lru_eviction_drops_the_coldest_snapshot() {
        let mut trie = PrefixTrie::new(2);
        trie.insert(&[1], StubSession::over(&[1]));
        trie.insert(&[2], StubSession::over(&[2]));
        // Touch [1] so [2] becomes the LRU.
        assert!(trie.lookup(&[1]).is_some());
        trie.insert(&[3], StubSession::over(&[3]));
        assert_eq!(trie.len(), 2);
        assert_eq!(trie.stats().evictions, 1);
        assert!(trie.lookup(&[2]).is_none(), "the cold snapshot was evicted");
        assert!(trie.lookup(&[1]).is_some());
        assert!(trie.lookup(&[3]).is_some());
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut trie = PrefixTrie::new(1);
        trie.insert(&[1], StubSession::over(&[1]));
        trie.insert(&[1], StubSession::over(&[1]));
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut trie = PrefixTrie::new(0);
        trie.insert(&[1], StubSession::over(&[1]));
        assert!(trie.is_empty());
        assert!(trie.lookup(&[1]).is_none());
    }

    #[test]
    fn empty_prompt_snapshot_lives_at_the_root() {
        let mut trie = PrefixTrie::new(2);
        trie.insert(&[], StubSession::over(&[]));
        let (s, reused) = trie.lookup(&[7, 8]).expect("root hit");
        assert_eq!(reused, 0);
        assert!(s.is_empty());
        // Zero-depth reuse of a non-empty prompt counts as partial.
        assert_eq!(trie.stats().partial_hits, 1);
    }

    /// Arena slots in use: every node reachable from the root.
    fn live_nodes(trie: &PrefixTrie) -> usize {
        trie.nodes.len() - trie.free.len()
    }

    #[test]
    fn eviction_prunes_the_path_and_reuses_its_slots() {
        const CAPACITY: usize = 4;
        const MAX_LEN: usize = 15;
        let mut trie = PrefixTrie::new(CAPACITY);
        let mut live: Vec<Vec<TokenId>> = Vec::new();
        for i in 0..10_000u32 {
            // Distinct prompts of varying length, often sharing a prefix.
            let len = 3 + i as usize % (MAX_LEN - 2);
            let prompt: Vec<TokenId> = (0..len as u32).map(|d| (i % 7) * d + i * (d / 2)).collect();
            trie.insert(&prompt, StubSession::over(&prompt));
            live.push(prompt);
            if live.len() > CAPACITY {
                live.remove(0); // insert-only traffic evicts in FIFO order
            }
            let bound = 1 + live.iter().map(Vec::len).sum::<usize>();
            assert!(
                live_nodes(&trie) <= bound,
                "{} nodes in use with only {bound} live",
                live_nodes(&trie)
            );
            // The arena peaks while one prompt over capacity awaits eviction.
            assert!(trie.nodes.len() <= 1 + (CAPACITY + 1) * MAX_LEN);
        }
        assert_eq!(trie.len(), CAPACITY);
        assert_eq!(trie.stats().evictions, 10_000 - CAPACITY as u64);
        for p in &live {
            let (s, reused) = trie.lookup(p).expect("live prompts stay cached");
            assert_eq!((s.tokens(), reused), (&p[..], p.len()));
        }
    }

    #[test]
    fn pruning_keeps_shared_prefixes_and_deeper_snapshots() {
        let mut trie = PrefixTrie::new(2);
        trie.insert(&[1, 2], StubSession::over(&[1, 2]));
        trie.insert(&[1, 2, 3, 4], StubSession::over(&[1, 2, 3, 4]));
        // Evicts [1, 2]: its node still leads to [1, 2, 3, 4], so it stays.
        trie.insert(&[1, 5], StubSession::over(&[1, 5]));
        assert_eq!(live_nodes(&trie), 1 + 4 + 1);
        // Evicts [1, 2, 3, 4]: prunes 4, 3 and 2, but not the shared 1.
        trie.insert(&[9], StubSession::over(&[9]));
        assert_eq!(live_nodes(&trie), 1 + 2 + 1);
        let (_, reused) = trie.lookup(&[1, 5, 7]).expect("partial hit");
        assert_eq!(reused, 2);
        assert!(trie.lookup(&[1, 2]).is_none());
    }

    #[test]
    fn prefill_ledger_accumulates() {
        let mut trie = PrefixTrie::new(1);
        trie.note_prefilled(10);
        trie.note_prefilled(5);
        assert_eq!(trie.stats().tokens_prefilled, 15);
    }

    /// The reference for the pruning trie: cached prompts with their
    /// last-use ticks, evicted LRU and never pruned.
    struct Reference {
        capacity: usize,
        entries: Vec<(Vec<TokenId>, u64)>,
        tick: u64,
        stats: TrieStats,
    }

    impl Reference {
        fn lookup(&mut self, prompt: &[TokenId]) -> Option<usize> {
            let Some(best) = self
                .entries
                .iter_mut()
                .filter(|(p, _)| prompt.starts_with(p))
                .max_by_key(|(p, _)| p.len())
            else {
                self.stats.misses += 1;
                return None;
            };
            self.tick += 1;
            best.1 = self.tick;
            let depth = best.0.len();
            if depth == prompt.len() {
                self.stats.full_hits += 1;
            } else {
                self.stats.partial_hits += 1;
            }
            self.stats.tokens_reused += depth as u64;
            Some(depth)
        }

        fn insert(&mut self, prompt: &[TokenId]) {
            if self.capacity == 0 {
                return;
            }
            self.tick += 1;
            if let Some(e) = self.entries.iter_mut().find(|(p, _)| p == prompt) {
                e.1 = self.tick;
                return;
            }
            self.entries.push((prompt.to_vec(), self.tick));
            if self.entries.len() > self.capacity {
                let last = self.entries.len() - 1;
                let (victim, _) = self.entries[..last]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, t))| *t)
                    .expect("over capacity");
                self.entries.remove(victim);
                self.stats.evictions += 1;
            }
        }
    }

    /// One trie operation from a drawn code: `(insert?, prompt)`, the
    /// prompt up to 5 tokens over a 3-token alphabet, so prompts collide
    /// and share prefixes often.
    fn op(code: u32) -> (bool, Vec<TokenId>) {
        let len = (code / 2 % 6) as usize;
        let mut digits = code / 12;
        let prompt = (0..len)
            .map(|_| {
                let t = digits % 3;
                digits /= 3;
                t
            })
            .collect();
        (code.is_multiple_of(2), prompt)
    }

    proptest! {
        #[test]
        fn pruning_trie_matches_a_non_pruning_reference(
            capacity in 0usize..5,
            codes in proptest::collection::vec(0u32..12 * 243, 1..80usize),
        ) {
            let ops: Vec<(bool, Vec<TokenId>)> = codes.into_iter().map(op).collect();
            let mut trie = PrefixTrie::new(capacity);
            let mut reference = Reference {
                capacity,
                entries: Vec::new(),
                tick: 0,
                stats: TrieStats::default(),
            };
            for (insert, prompt) in &ops {
                if *insert {
                    trie.insert(prompt, StubSession::over(prompt));
                    reference.insert(prompt);
                } else {
                    let got = trie.lookup(prompt).map(|(s, depth)| {
                        assert_eq!(s.tokens(), &prompt[..depth]);
                        depth
                    });
                    prop_assert_eq!(got, reference.lookup(prompt));
                }
                prop_assert_eq!(trie.stats(), reference.stats);
                prop_assert_eq!(trie.len(), reference.entries.len());
                let bound = 1 + reference.entries.iter().map(|(p, _)| p.len()).sum::<usize>();
                prop_assert!(trie.nodes.len() - trie.free.len() <= bound);
            }
        }
    }
}
