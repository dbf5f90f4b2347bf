//! Weight-based policies: LRFU (Formula 1) and EXD (Formula 2).
//!
//! Both maintain a per-file weight updated at every access and decayed by
//! elapsed time when compared:
//!
//! * LRFU:  `W ← 1 + H·W / (Δt + H)` with half-life `H` (6 h default);
//!   the decay factor `H / (Δt + H)` is also applied at selection time so
//!   stale weights do not pin files forever.
//! * EXD:   `W ← 1 + W·e^(−α·Δt)` (Big SQL's exponential decay), with the
//!   same decay applied at comparison, following \[16\].

use crate::framework::{DowngradePolicy, TieringConfig, UpgradePolicy};
use crate::parallel::{encode_f64, exhaustive_phase, Candidate, PhasePlan};
use octo_common::{ByteSize, FileId, SimDuration, SimTime, StorageTier};
use octo_dfs::{EpochPool, TieredDfs};
use std::collections::HashMap;

/// LRFU half-life `H` (Formula 1; §5.2, 6 hours).
const LRFU_HALF_LIFE: SimDuration = SimDuration::from_hours(6);

/// EXD decay constant α per millisecond (§5.2; 1.16e-8 following Big SQL —
/// interpreted per-ms, giving a ≈16.6 h half-life).
const EXD_ALPHA: f64 = 1.16e-8;

/// How a weight decays with the time since its last update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecayKind {
    /// LRFU: multiply by `H / (Δt + H)`.
    HalfLife {
        /// The half-life `H` in milliseconds.
        h_ms: f64,
    },
    /// EXD: multiply by `e^(−α·Δt)`.
    Exponential {
        /// Decay constant per millisecond.
        alpha: f64,
    },
}

impl DecayKind {
    fn factor(&self, dt_ms: f64) -> f64 {
        match self {
            DecayKind::HalfLife { h_ms } => h_ms / (dt_ms + h_ms),
            DecayKind::Exponential { alpha } => (-alpha * dt_ms).exp(),
        }
    }
}

/// Shared recency/frequency weight bookkeeping.
#[derive(Debug, Clone)]
pub struct WeightTracker {
    decay: DecayKind,
    weights: HashMap<FileId, (f64, SimTime)>,
}

impl WeightTracker {
    /// A tracker with the given decay.
    pub fn new(decay: DecayKind) -> Self {
        WeightTracker {
            decay,
            weights: HashMap::new(),
        }
    }

    /// LRFU's tracker: Formula 1 with [`LRFU_HALF_LIFE`].
    fn lrfu() -> Self {
        WeightTracker::new(DecayKind::HalfLife {
            h_ms: LRFU_HALF_LIFE.as_millis() as f64,
        })
    }

    /// EXD's tracker: Formula 2 with [`EXD_ALPHA`].
    fn exd() -> Self {
        WeightTracker::new(DecayKind::Exponential { alpha: EXD_ALPHA })
    }

    /// Registers a new file (weight 0 until first accessed, so the first
    /// access yields weight 1).
    pub fn on_created(&mut self, file: FileId, now: SimTime) {
        self.weights.entry(file).or_insert((0.0, now));
    }

    /// Applies the access update formula.
    pub fn on_accessed(&mut self, file: FileId, now: SimTime) {
        let (w, last) = self.weights.get(&file).copied().unwrap_or((0.0, now));
        let dt = now.duration_since(last).as_millis() as f64;
        let new_w = 1.0 + w * self.decay.factor(dt);
        self.weights.insert(file, (new_w, now));
    }

    /// Forgets a deleted file.
    pub fn on_deleted(&mut self, file: FileId) {
        self.weights.remove(&file);
    }

    /// The weight decayed to `now`.
    pub fn decayed_weight(&self, file: FileId, now: SimTime) -> f64 {
        let Some((w, last)) = self.weights.get(&file) else {
            return 0.0;
        };
        let dt = now.duration_since(*last).as_millis() as f64;
        w * self.decay.factor(dt)
    }
}

/// LRFU or EXD downgrade: evict the file with the lowest decayed weight.
/// The two differ only in how the weight decays.
#[derive(Debug, Clone)]
pub struct WeightDowngrade {
    cfg: TieringConfig,
    tracker: WeightTracker,
}

impl WeightDowngrade {
    /// LRFU, with Formula 1's half-life.
    pub fn lrfu(cfg: TieringConfig) -> Self {
        let tracker = WeightTracker::lrfu();
        WeightDowngrade { cfg, tracker }
    }

    /// EXD (Big SQL), with Formula 2's α.
    pub fn exd(cfg: TieringConfig) -> Self {
        let tracker = WeightTracker::exd();
        WeightDowngrade { cfg, tracker }
    }
}

impl DowngradePolicy for WeightDowngrade {
    fn name(&self) -> &'static str {
        match self.tracker.decay {
            DecayKind::HalfLife { .. } => "lrfu",
            DecayKind::Exponential { .. } => "exd",
        }
    }

    fn tiering(&self) -> &TieringConfig {
        &self.cfg
    }

    /// Weights are frozen within one run, so each resident's weight is
    /// decayed and encoded once per run, and the victim order is ascending
    /// (weight, id). Weight order follows no maintained index, so the scan
    /// is exhaustive.
    fn scan_phases(
        &self,
        pool: &EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
    ) -> Vec<PhasePlan> {
        vec![exhaustive_phase(pool, dfs, tier, 1, |_, f| {
            let key = [encode_f64(self.tracker.decayed_weight(f, now)), f.raw(), 0];
            Some(Candidate::keyed(key, f))
        })]
    }

    fn on_file_created(&mut self, _dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.tracker.on_created(file, now);
    }

    fn on_file_accessed(&mut self, _dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.tracker.on_accessed(file, now);
    }

    fn on_file_deleted(&mut self, file: FileId, _now: SimTime) {
        self.tracker.on_deleted(file);
    }
}

/// LRFU upgrade: admit the accessed file once its weight exceeds the
/// threshold (§6.1, empirically 3).
#[derive(Debug, Clone)]
pub struct LrfuUpgrade {
    threshold: f64,
    tracker: WeightTracker,
}

impl LrfuUpgrade {
    /// LRFU upgrade with Formula 1's half-life and the upgrade threshold
    /// from the config.
    pub fn new(cfg: TieringConfig) -> Self {
        LrfuUpgrade {
            threshold: cfg.lrfu_upgrade_threshold,
            tracker: WeightTracker::lrfu(),
        }
    }
}

impl UpgradePolicy for LrfuUpgrade {
    fn name(&self) -> &'static str {
        "lrfu"
    }

    fn admits(&self, _dfs: &TieredDfs, file: FileId, now: SimTime) -> bool {
        self.tracker.decayed_weight(file, now) > self.threshold
    }

    fn on_file_created(&mut self, _dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.tracker.on_created(file, now);
    }

    fn on_file_accessed(&mut self, _dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.tracker.on_accessed(file, now);
    }

    fn on_file_deleted(&mut self, file: FileId, _now: SimTime) {
        self.tracker.on_deleted(file);
    }
}

/// EXD upgrade (Big SQL): admit the accessed file if memory has room, or
/// if its weight beats the total weight of the files that would have to be
/// downgraded to make room.
#[derive(Debug, Clone)]
pub struct ExdUpgrade {
    tracker: WeightTracker,
}

impl Default for ExdUpgrade {
    /// EXD upgrade with Formula 2's α.
    fn default() -> Self {
        ExdUpgrade {
            tracker: WeightTracker::exd(),
        }
    }
}

/// Total weight of the lowest-weight residents whose sizes cover `needed`
/// bytes (ties broken on ascending `FileId`), or `None` when even evicting
/// everything falls short.
///
/// Lazy top-k selection: `select_nth_unstable_by` partitions the `k`
/// cheapest entries to the front and only that prefix is sorted and walked;
/// `k` grows geometrically (×4) until the prefix covers `needed`. The
/// common case (a few evictions suffice) never sorts — or even orders —
/// the long tail, unlike the previous full `sort_by` of every memory
/// resident.
fn cheapest_cover(mut residents: Vec<(f64, ByteSize, FileId)>, needed: ByteSize) -> Option<f64> {
    let cmp = |a: &(f64, ByteSize, FileId), b: &(f64, ByteSize, FileId)| {
        a.0.total_cmp(&b.0).then(a.2.cmp(&b.2))
    };
    let len = residents.len();
    let mut k = 16usize;
    loop {
        let take = k.min(len);
        if take < len {
            residents.select_nth_unstable_by(take, cmp);
        }
        residents[..take].sort_unstable_by(cmp);
        let mut reclaimed = ByteSize::ZERO;
        let mut evicted_weight = 0.0;
        for &(w, sz, _) in &residents[..take] {
            if reclaimed >= needed {
                break;
            }
            reclaimed += sz;
            evicted_weight += w;
        }
        if reclaimed >= needed {
            return Some(evicted_weight);
        }
        if take == len {
            return None;
        }
        k *= 4;
    }
}

impl UpgradePolicy for ExdUpgrade {
    fn name(&self) -> &'static str {
        "exd"
    }

    fn admits(&self, dfs: &TieredDfs, file: FileId, now: SimTime) -> bool {
        let Some(meta) = dfs.file_meta(file) else {
            return false;
        };
        let size = meta.size;
        let (committed, capacity) = dfs.tier_usage(StorageTier::Memory);
        let free = capacity.saturating_sub(committed);
        if free >= size {
            return true;
        }
        // Sum the weights of the cheapest memory residents that would need
        // to move out to fit this file.
        let residents: Vec<(f64, ByteSize, FileId)> = dfs
            .files_on_tier(StorageTier::Memory)
            .filter(|f| *f != file && dfs.is_movable(*f))
            .map(|f| {
                let sz = dfs.file_meta(f).map_or(ByteSize::ZERO, |m| m.size);
                (self.tracker.decayed_weight(f, now), sz, f)
            })
            .collect();
        let needed = size.saturating_sub(free);
        match cheapest_cover(residents, needed) {
            Some(evicted_weight) => self.tracker.decayed_weight(file, now) > evicted_weight,
            None => false, // cannot make room at all
        }
    }

    fn on_file_created(&mut self, _dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.tracker.on_created(file, now);
    }

    fn on_file_accessed(&mut self, _dfs: &TieredDfs, file: FileId, now: SimTime) {
        self.tracker.on_accessed(file, now);
    }

    fn on_file_deleted(&mut self, file: FileId, _now: SimTime) {
        self.tracker.on_deleted(file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_common::SimDuration;

    #[test]
    fn lrfu_weight_follows_formula_1() {
        let h = SimDuration::from_hours(6);
        let mut t = WeightTracker::new(DecayKind::HalfLife {
            h_ms: h.as_millis() as f64,
        });
        let f = FileId(0);
        t.on_created(f, SimTime::ZERO);
        t.on_accessed(f, SimTime::ZERO);
        // First access: W = 1 + 0 = 1.
        assert!((t.decayed_weight(f, SimTime::ZERO) - 1.0).abs() < 1e-12);
        // Accessed again exactly one half-life later: W = 1 + 1·(H/(H+H)) = 1.5.
        let later = SimTime::ZERO + h;
        t.on_accessed(f, later);
        assert!((t.decayed_weight(f, later) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn exd_weight_follows_formula_2() {
        let alpha = 1e-6;
        let mut t = WeightTracker::new(DecayKind::Exponential { alpha });
        let f = FileId(0);
        t.on_created(f, SimTime::ZERO);
        t.on_accessed(f, SimTime::ZERO); // W = 1
        let dt_ms = 1_000_000.0; // e^-1
        let later = SimTime::from_millis(dt_ms as u64);
        t.on_accessed(f, later);
        let expected = 1.0 + (-1.0f64).exp();
        assert!((t.decayed_weight(f, later) - expected).abs() < 1e-9);
    }

    #[test]
    fn frequent_recent_files_outweigh_stale_ones() {
        let mut t = WeightTracker::new(DecayKind::HalfLife { h_ms: 3.6e6 });
        let hot = FileId(0);
        let stale = FileId(1);
        t.on_created(hot, SimTime::ZERO);
        t.on_created(stale, SimTime::ZERO);
        // Stale: 3 accesses long ago.
        for s in 0..3 {
            t.on_accessed(stale, SimTime::from_secs(s));
        }
        // Hot: 3 recent accesses.
        for s in 0..3 {
            t.on_accessed(hot, SimTime::from_secs(70_000 + s));
        }
        let now = SimTime::from_secs(70_010);
        assert!(t.decayed_weight(hot, now) > t.decayed_weight(stale, now));
    }

    #[test]
    fn cheapest_cover_matches_full_sort() {
        // Oracle: the stable full-sort-by-weight accumulation it replaced.
        fn naive(mut v: Vec<(f64, ByteSize, FileId)>, needed: ByteSize) -> Option<f64> {
            v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            let mut reclaimed = ByteSize::ZERO;
            let mut w = 0.0;
            for &(wt, sz, _) in &v {
                if reclaimed >= needed {
                    break;
                }
                reclaimed += sz;
                w += wt;
            }
            (reclaimed >= needed).then_some(w)
        }
        // Deterministic pseudo-random population, with weight ties.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 5, 40, 300] {
            let pool: Vec<(f64, ByteSize, FileId)> = (0..n)
                .map(|i| {
                    let w = (next() % 7) as f64 * 0.5;
                    let sz = ByteSize::mb(next() % 50 + 1);
                    (w, sz, FileId(i as u64))
                })
                .collect();
            for needed_mb in [0u64, 1, 30, 500, 20_000] {
                let needed = ByteSize::mb(needed_mb);
                let got = cheapest_cover(pool.clone(), needed);
                let want = naive(pool.clone(), needed);
                assert_eq!(got, want, "n={n} needed={needed_mb}MB");
            }
        }
    }

    #[test]
    fn deletion_forgets_weight() {
        let mut t = WeightTracker::new(DecayKind::Exponential { alpha: 1e-8 });
        let f = FileId(5);
        t.on_created(f, SimTime::ZERO);
        t.on_accessed(f, SimTime::ZERO);
        t.on_deleted(f);
        assert_eq!(t.decayed_weight(f, SimTime::ZERO), 0.0);
    }
}
