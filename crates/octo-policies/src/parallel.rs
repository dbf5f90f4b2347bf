//! Algorithm 1's driver: per-shard candidate scans (parallel on a wider
//! pool), serial order-preserving merge/commit.
//!
//! # Why one scan per run is exact
//!
//! The paper's Algorithm 1 selects the next victim after every planned
//! move. Within one downgrade run, though, every input to victim
//! selection is frozen: no access is recorded, `now` does not advance,
//! statistics, tracked weights, and model predictions are all functions
//! of state that only changes *between* runs. The only mid-run mutation
//! is `plan_downgrade` flipping the chosen victim's own movability —
//! which merely removes that victim from future consideration. The victim
//! sequence is therefore a deterministic consumption of a fixed priority
//! ordering, and that ordering can be produced once, shard by shard:
//!
//! 1. **Scan** (parallel, read-only): each shard walks its slice of the
//!    relevant index and emits [`Candidate`]s carrying two normalized
//!    keys — the `order` key under which the global stream is merged, and
//!    the `select` key under which a sliding window picks victims.
//! 2. **Merge + commit** (serial): the per-shard slices are consumed as a
//!    k-way merge in ascending `order`; a window of up to
//!    [`PhasePlan::window`] merged candidates is kept sorted by `select`,
//!    and each iteration pops the window minimum, plans its downgrade,
//!    and re-checks the stop threshold — Algorithm 1's select/plan/stop
//!    cadence.
//!
//! Keys are `[u64; 3]` with every component order-normalized (times as
//! milliseconds, floats through [`encode_f64`], descending orders
//! bitwise-complemented) and the file id embedded, so candidate keys are
//! globally unique and ascending key order *is* the consumption order.
//! Policies whose victim order is their index's walk order (LRU, XGB)
//! scan with a per-shard candidate **budget** and leave a resume cursor;
//! the driver refills a drained, unexhausted slice — with a doubled
//! budget — before it ever consults the other shards' heads, so
//! truncation can never reorder the merge. Policies whose victim order
//! needs a full sort (LFU, LRFU, EXD, LIFE, LFU-F, watermark, hybrid)
//! scan exhaustively and never resume; [`exhaustive_phase`] builds such a
//! phase from a key function.
//!
//! Thread count affects only which worker produces which shard's slice,
//! never the slices' contents or the merge order — the engine's output is
//! byte-identical from one thread to [`SHARD_COUNT`](octo_dfs::SHARD_COUNT).
//! A one-thread pool scans the shards inline, in shard order, through the
//! same driver.

use crate::framework::{effective_utilization, DowngradePolicy};
use octo_common::{FileId, SimTime, StorageTier};
use octo_dfs::{DowngradeTarget, EpochPool, ShardEpochPlan, TieredDfs, TransferId};
use std::collections::BTreeSet;

/// One downgrade candidate produced by a shard scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Merge key: per-shard slices are ascending in `order`, and the
    /// global stream consumes the k-way merge minimum first.
    pub order: [u64; 3],
    /// Window key: among the up-to-`window` merged-in candidates, the one
    /// with the smallest `select` is the next victim.
    pub select: [u64; 3],
    /// The file this candidate would downgrade.
    pub file: FileId,
}

impl Candidate {
    /// A strict-priority candidate: merged and selected under one key.
    pub fn keyed(key: [u64; 3], file: FileId) -> Self {
        Candidate {
            order: key,
            select: key,
            file,
        }
    }
}

/// One shard's scan result: candidates ascending in `order`, plus a
/// resume cursor when a budget truncated the walk before the shard's
/// eligible entries ran out.
#[derive(Debug, Clone, Default)]
pub struct ScanBatch {
    /// Candidates, ascending by `order` key.
    pub candidates: Vec<Candidate>,
    /// Where to resume the shard's index walk if this batch drains before
    /// the run stops — `None` when the shard was scanned exhaustively.
    pub resume: Option<(SimTime, FileId)>,
}

impl ScanBatch {
    /// An exhaustive batch: sorts `candidates` by `order` key, no resume.
    pub fn sorted(mut candidates: Vec<Candidate>) -> Self {
        candidates.sort_unstable_by_key(|c| (c.order, c.file));
        ScanBatch {
            candidates,
            resume: None,
        }
    }
}

/// One sequential phase of a run: the per-shard scan results and the
/// window width under which victims are selected from the merged stream.
/// A policy with a two-stage victim order (PACMan's `P_old` then `P_new`)
/// returns two phases; the driver fully exhausts phase *i* before
/// consuming phase *i + 1*.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// Sliding-window width: 1 for strict-priority policies, the
    /// candidate-pool size (200) for XGB.
    pub window: usize,
    /// One scan batch per shard, in ascending shard order.
    pub shards: Vec<ShardEpochPlan<ScanBatch>>,
}

/// One exhaustive phase over `tier`'s movable residents, for victim orders
/// no maintained index walks: each shard maps its residents through
/// `candidate` (`None` leaves a file out) and sorts them, with no resume
/// cursor.
pub fn exhaustive_phase(
    pool: &EpochPool,
    dfs: &TieredDfs,
    tier: StorageTier,
    window: usize,
    candidate: impl Fn(&TieredDfs, FileId) -> Option<Candidate> + Sync,
) -> PhasePlan {
    let shards = pool.scan_shards(dfs, |v| {
        let dfs = v.dfs();
        ScanBatch::sorted(
            v.files_on_tier(tier)
                .filter(|f| dfs.is_movable(*f))
                .filter_map(|f| candidate(dfs, f))
                .collect(),
        )
    });
    PhasePlan { window, shards }
}

/// Maps `f64` to `u64` preserving `total_cmp` order (negative values
/// complemented, positives offset into the upper half), so float scores
/// and weights can ride in a [`Candidate`] key.
pub fn encode_f64(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Estimated victims of one run: bytes above the stop threshold over the
/// tier's mean file size. Only a scan-budget hint — refills correct any
/// underestimate — so cheap beats precise.
pub fn victim_hint(dfs: &TieredDfs, tier: StorageTier, stop_threshold: f64) -> usize {
    let (committed, capacity) = dfs.tier_usage(tier);
    let effective = committed
        .saturating_sub(dfs.pending_outgoing(tier))
        .as_bytes();
    let stop_at = (capacity.as_bytes() as f64 * stop_threshold) as u64;
    let excess = effective.saturating_sub(stop_at);
    let files = dfs.recency().tier_len(tier).max(1) as u64;
    let avg = (committed.as_bytes() / files).max(1);
    (excess / avg) as usize + 1
}

/// Initial per-shard scan budget for a resumable walk: the estimated
/// victims plus the window, spread over the shards, plus slack so a
/// mildly uneven shard does not refill immediately.
pub fn shard_budget(hint: usize, window: usize) -> usize {
    (hint + window) / octo_dfs::SHARD_COUNT + 32
}

/// A shard slice being consumed by the merge: a cursor over its batch,
/// plus the refill state.
struct Slice {
    shard: usize,
    candidates: Vec<Candidate>,
    pos: usize,
    resume: Option<(SimTime, FileId)>,
    /// Next refill's candidate budget (doubled after each refill so a
    /// badly underestimated run converges in O(log victims) rescans).
    budget: usize,
}

/// Refill budget a drained slice starts from.
const REFILL_BUDGET: usize = 64;

/// Pops the globally next candidate in `order`-key order, refilling any
/// drained-but-unexhausted slice first so truncated scans can never let
/// another shard's head overtake unscanned entries.
fn next_candidate(
    slices: &mut [Slice],
    policy: &dyn DowngradePolicy,
    dfs: &TieredDfs,
    tier: StorageTier,
    now: SimTime,
) -> Option<Candidate> {
    for s in slices.iter_mut() {
        while s.pos == s.candidates.len() {
            let Some(cursor) = s.resume else { break };
            let batch = policy.rescan_shard(dfs, tier, now, s.shard, cursor, s.budget.max(1));
            s.budget = s.budget.saturating_mul(2);
            s.candidates = batch.candidates;
            s.pos = 0;
            s.resume = batch.resume;
        }
    }
    let (_, _, i) = slices
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.candidates.get(s.pos).map(|c| (c.order, c.file, i)))
        .min()?;
    let s = &mut slices[i];
    let c = s.candidates[s.pos];
    s.pos += 1;
    Some(c)
}

/// The serial half of a run: consumes the per-shard scan results phase
/// by phase, windowed-merging candidates and committing one downgrade at
/// a time with Algorithm 1's select → plan → stop cadence. Every victim
/// goes to [`DowngradeTarget::Auto`]; the run stops after the first victim
/// (planned or refused) that leaves the tier below the policy's stop
/// threshold.
pub(crate) fn run_merge_commit(
    policy: &dyn DowngradePolicy,
    dfs: &mut TieredDfs,
    tier: StorageTier,
    now: SimTime,
    phases: Vec<PhasePlan>,
) -> Vec<TransferId> {
    let stop_threshold = policy.tiering().stop_threshold;
    let mut planned = Vec::new();
    'phases: for phase in phases {
        let mut slices: Vec<Slice> = phase
            .shards
            .into_iter()
            .map(|p| Slice {
                shard: p.shard,
                candidates: p.items.candidates,
                pos: 0,
                resume: p.items.resume,
                budget: REFILL_BUDGET,
            })
            .collect();
        let window = phase.window.max(1);
        let mut win: BTreeSet<([u64; 3], FileId)> = BTreeSet::new();
        loop {
            while win.len() < window {
                match next_candidate(&mut slices, policy, dfs, tier, now) {
                    Some(c) => {
                        win.insert((c.select, c.file));
                    }
                    None => break,
                }
            }
            let Some(&(select, file)) = win.first() else {
                continue 'phases; // this phase is exhausted
            };
            win.remove(&(select, file));
            if let Ok(id) = dfs.plan_downgrade(file, tier, DowngradeTarget::Auto) {
                planned.push(id);
            }
            if effective_utilization(dfs, tier) < stop_threshold {
                break 'phases;
            }
        }
    }
    planned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_f64_preserves_total_cmp_order() {
        let samples = [
            f64::NEG_INFINITY,
            -1e30,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1e30,
            f64::INFINITY,
        ];
        for a in samples {
            for b in samples {
                assert_eq!(
                    encode_f64(a).cmp(&encode_f64(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn sorted_batch_orders_by_key_then_file() {
        let c = |order: u64, file: u64| Candidate {
            order: [order, 0, 0],
            select: [order, 0, 0],
            file: FileId(file),
        };
        let batch = ScanBatch::sorted(vec![c(3, 0), c(1, 2), c(1, 1), c(2, 9)]);
        let files: Vec<u64> = batch.candidates.iter().map(|x| x.file.raw()).collect();
        assert_eq!(files, vec![1, 2, 9, 0]);
        assert!(batch.resume.is_none());
    }
}
