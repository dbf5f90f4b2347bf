//! Block-cache property tests.
//!
//! Three oracles over arbitrary lookup / insert / invalidate interleavings:
//!
//! 1. **Replay determinism** — the cache is a pure function of its
//!    operation sequence: replaying the same ops on a fresh cache rebuilds
//!    bit-identical counters, residency, and per-key levels. This is the
//!    property that makes cache-enabled golden digests pinnable at any
//!    epoch-thread width (the simulator drives the cache from its serial
//!    event loop, so equal op sequences are guaranteed).
//! 2. **Internal invariants** — after every operation: `map`/`order`
//!    agree, per-level used bytes equal the sum of charges, capacity is
//!    never exceeded, and no key is resident on both levels
//!    ([`BlockCache::assert_invariants`]).
//! 3. **LRU reference model** — with admission off and one shard, the
//!    cache must behave exactly like a textbook two-level LRU: an
//!    independent `VecDeque`-based model predicts every hit level, miss,
//!    and eviction count.

use octo_common::{ByteSize, FileId};
use octo_dfs::{BlockCache, BlockKey, CacheConfig, CacheLevel};
use proptest::prelude::*;
use std::collections::VecDeque;

const FILES: u64 = 6;
const BLOCKS: u64 = 8;

fn key(f: u64, i: u64) -> BlockKey {
    BlockKey::new(FileId(f % FILES), (i % BLOCKS) as u32)
}

/// One generated op: `(kind, file, index, size_mb)`.
type Op = (u8, u64, u64, u64);

fn apply(cache: &mut BlockCache, ops: &[Op]) {
    for &(kind, f, i, mb) in ops {
        let k = key(f, i);
        let bytes = ByteSize::mb(mb.max(1));
        match kind {
            // A read: lookup, and fill on a miss (the simulator's cycle).
            0 | 1 => {
                if cache.lookup(k, bytes).is_none() {
                    cache.insert(k, bytes);
                }
            }
            // A bare lookup (read whose fill was skipped).
            2 => {
                cache.lookup(k, bytes);
            }
            // A bare insert (prefetch-style fill).
            3 => cache.insert(k, bytes),
            // Delete the file.
            _ => cache.invalidate_file(FileId(f % FILES)),
        }
        cache.assert_invariants();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Oracle 1 + 2: replay equality and invariants, across admission
    /// on/off, shard counts, and compression ratios.
    #[test]
    fn replay_rebuilds_identical_state_and_counters(
        ops in proptest::collection::vec((0u8..5, 0u64..FILES, 0u64..BLOCKS, 1u64..5), 1..250),
        admission in proptest::bool::ANY,
        shards_pow in 0u32..3,
        compress in proptest::bool::ANY,
    ) {
        let cfg = CacheConfig {
            enabled: true,
            l1_capacity: ByteSize::mb(8),
            l2_capacity: ByteSize::mb(16),
            shards: 1usize << shards_pow,
            admission,
            sketch_width: 64,
            l2_compression_ratio: if compress { 0.6 } else { 1.0 },
        };
        let mut live = BlockCache::new(cfg.clone());
        apply(&mut live, &ops);

        // From-scratch replay of the identical op sequence.
        let mut replay = BlockCache::new(cfg);
        apply(&mut replay, &ops);

        prop_assert_eq!(live.stats(), replay.stats());
        for level in [CacheLevel::L1, CacheLevel::L2] {
            prop_assert_eq!(live.resident_blocks(level), replay.resident_blocks(level));
            prop_assert_eq!(live.resident_bytes(level), replay.resident_bytes(level));
        }
        for f in 0..FILES {
            for i in 0..BLOCKS {
                prop_assert_eq!(live.level_of(key(f, i)), replay.level_of(key(f, i)));
            }
        }

        // Counter conservation, recomputed from the op log.
        let s = live.stats();
        let lookups = ops.iter().filter(|(k, ..)| *k <= 2).count() as u64;
        prop_assert_eq!(s.lookups(), lookups);
        prop_assert_eq!(s.l1_hits + s.l2_hits + s.misses, lookups);
        let requested: ByteSize = ops
            .iter()
            .filter(|(k, ..)| *k <= 2)
            .map(|&(_, _, _, mb)| ByteSize::mb(mb.max(1)))
            .sum();
        prop_assert_eq!(s.bytes_requested, requested);
        prop_assert!(s.bytes_served_l1 + s.bytes_served_l2 <= requested);
    }

    /// Oracle 3: with admission off and a single shard, hits, misses, and
    /// evictions must match an independent two-level LRU model exactly.
    /// Every block is 1 MB, so the model can count capacity in block slots.
    #[test]
    fn plain_lru_config_matches_reference_model(
        ops in proptest::collection::vec((0u64..FILES, 0u64..BLOCKS), 1..300),
    ) {
        const L1_SLOTS: usize = 3;
        const L2_SLOTS: usize = 5;
        let cfg = CacheConfig {
            enabled: true,
            l1_capacity: ByteSize::mb(L1_SLOTS as u64),
            l2_capacity: ByteSize::mb(L2_SLOTS as u64),
            shards: 1,
            admission: false,
            ..CacheConfig::default()
        };
        let mut cache = BlockCache::new(cfg);

        // Reference: front = MRU. An L1 overflow demotes the L1 LRU to
        // L2's MRU position; an L2 overflow drops the L2 LRU.
        let mut l1: VecDeque<BlockKey> = VecDeque::new();
        let mut l2: VecDeque<BlockKey> = VecDeque::new();
        let (mut hits1, mut hits2, mut miss, mut ev1, mut ev2) = (0u64, 0, 0, 0, 0);
        let bytes = ByteSize::mb(1);

        for &(f, i) in &ops {
            let k = key(f, i);
            let got = cache.lookup(k, bytes);
            if let Some(pos) = l1.iter().position(|&x| x == k) {
                // L1 hit: refresh recency.
                l1.remove(pos);
                l1.push_front(k);
                hits1 += 1;
                prop_assert_eq!(got, Some(CacheLevel::L1));
            } else if let Some(pos) = l2.iter().position(|&x| x == k) {
                // L2 hit: promote into L1 (no admission filter), demoting
                // the L1 LRU if that overflows it.
                l2.remove(pos);
                if l1.len() == L1_SLOTS {
                    let victim = l1.pop_back().expect("full");
                    ev1 += 1;
                    l2.push_front(victim);
                    if l2.len() > L2_SLOTS {
                        l2.pop_back();
                        ev2 += 1;
                    }
                }
                l1.push_front(k);
                hits2 += 1;
                prop_assert_eq!(got, Some(CacheLevel::L2));
            } else {
                // Miss: fill into L1, cascading demotions/evictions.
                prop_assert_eq!(got, None);
                cache.insert(k, bytes);
                miss += 1;
                if l1.len() == L1_SLOTS {
                    let victim = l1.pop_back().expect("full");
                    ev1 += 1;
                    l2.push_front(victim);
                    if l2.len() > L2_SLOTS {
                        l2.pop_back();
                        ev2 += 1;
                    }
                }
                l1.push_front(k);
            }
            cache.assert_invariants();
        }

        let s = cache.stats();
        prop_assert_eq!(s.l1_hits, hits1);
        prop_assert_eq!(s.l2_hits, hits2);
        prop_assert_eq!(s.misses, miss);
        prop_assert_eq!(s.l1_evictions, ev1);
        prop_assert_eq!(s.l2_evictions, ev2);
        prop_assert_eq!(s.admission_rejects, 0);
        prop_assert_eq!(cache.resident_blocks(CacheLevel::L1), l1.len());
        prop_assert_eq!(cache.resident_blocks(CacheLevel::L2), l2.len());
        for (model, level) in [(&l1, CacheLevel::L1), (&l2, CacheLevel::L2)] {
            for k in model.iter() {
                prop_assert_eq!(cache.level_of(*k), Some(level));
            }
        }
    }
}
