//! The XGBoost-based policies (paper §5.2 / §6.1, Tables 1 and 2).
//!
//! Each policy owns an [`AccessPredictor`] trained incrementally from the
//! access stream:
//!
//! * **Downgrade** (class window ≈ 6 h): among the `k = 200` least recently
//!   used files on the tier, evict the one with the *lowest* probability of
//!   access in the distant future. Scoring only LRU files avoids cache
//!   pollution by never-considered files; until the model activates the
//!   policy behaves exactly like LRU.
//! * **Upgrade** (class window ≈ 30 min): among the `k = 200` most recently
//!   used files not fully in memory, move up every file whose access
//!   probability exceeds the discrimination threshold (0.5), until the
//!   scheduled batch exceeds 1 GB (§6.4). Until the model activates it
//!   falls back to on-access (OSA) behaviour.

use crate::classic::last_used;
use crate::framework::{
    effective_utilization, DowngradePolicy, TieringConfig, UpgradeChoice, UpgradePolicy,
};
use crate::parallel::{encode_f64, shard_budget, victim_hint, Candidate, PhasePlan, ScanBatch};
use octo_access::{AccessPredictor, LearnerConfig, LearnerCounters};
use octo_common::{ByteSize, DetRng, FileId, SimDuration, SimTime, StorageTier};
use octo_dfs::TieredDfs;
use std::collections::{BTreeSet, HashMap};

/// Windows for the two models (paper §4.4).
pub const DOWNGRADE_WINDOW: SimDuration = SimDuration::from_hours(6);
/// Forward-looking window of the upgrade model.
pub const UPGRADE_WINDOW: SimDuration = SimDuration::from_mins(30);

/// Samples up to `n` committed files deterministically and feeds them to the
/// predictor as (mostly negative) training points.
///
/// Index sampling, not a scan: each draw picks a uniform rank over the
/// committed files and resolves it through the file table's O(log n)
/// rank-select ([`TieredDfs::nth_committed_file`]). The rank→file mapping
/// is identical to indexing the `Vec` of all committed files (ascending by
/// id) the old implementation materialized per tick, and the RNG consumes
/// the same draws — so victim sequences and model state are bit-identical
/// while a tick costs O(n·log files) instead of O(files).
pub(crate) fn sample_files(
    predictor: &mut AccessPredictor,
    dfs: &TieredDfs,
    now: SimTime,
    n: usize,
    rng: &mut DetRng,
) {
    let committed = dfs.committed_file_count();
    if committed == 0 {
        return;
    }
    for _ in 0..n.min(committed) {
        let f = dfs
            .nth_committed_file(rng.index(committed))
            .expect("rank drawn below the committed count");
        if let Some(stats) = dfs.file_stats(f) {
            predictor.observe_file(stats, now);
        }
    }
}

/// One shard's slice of the XGB candidate stream: the first `budget`
/// movable entries of the shard's recency walk, merge-ordered by the walk
/// itself (the stream must reproduce LRU candidate-window membership) and
/// window-ordered by (encoded prediction, last use, id) — the serial
/// tie-break. Predictions are frozen within a run, so each entry is
/// scored once per run, not once per victim it competes against.
fn xgb_scan_shard(
    predictor: &AccessPredictor,
    dfs: &TieredDfs,
    shard: usize,
    tier: StorageTier,
    now: SimTime,
    after: Option<(SimTime, FileId)>,
    budget: usize,
) -> ScanBatch {
    let mut candidates = Vec::new();
    for (t, f) in dfs.shard_tier_recency_iter_after(shard, tier, after) {
        if !dfs.is_movable(f) {
            continue;
        }
        let p = dfs
            .file_stats(f)
            .and_then(|s| predictor.predict(s, now))
            .unwrap_or(0.0);
        candidates.push(Candidate {
            order: [t.as_millis(), f.raw(), 0],
            select: [encode_f64(p), last_used(dfs, f).as_millis(), f.raw()],
            file: f,
        });
        if candidates.len() == budget {
            return ScanBatch {
                candidates,
                resume: Some((t, f)),
            };
        }
    }
    ScanBatch {
        candidates,
        resume: None,
    }
}

/// XGB downgrade policy.
pub struct XgbDowngrade {
    cfg: TieringConfig,
    predictor: AccessPredictor,
    rng: DetRng,
}

impl XgbDowngrade {
    /// Builds the policy with its 6-hour-window predictor.
    pub fn new(cfg: TieringConfig, learner: LearnerConfig, seed: u64) -> Self {
        XgbDowngrade {
            cfg,
            predictor: AccessPredictor::new(DOWNGRADE_WINDOW, learner),
            rng: DetRng::seed_from_u64(seed),
        }
    }

    /// The underlying predictor (model evaluation experiments).
    pub fn predictor(&self) -> &AccessPredictor {
        &self.predictor
    }

    /// Mutable predictor access.
    pub fn predictor_mut(&mut self) -> &mut AccessPredictor {
        &mut self.predictor
    }
}

impl DowngradePolicy for XgbDowngrade {
    fn name(&self) -> &'static str {
        "xgb"
    }

    fn learner_counters(&self) -> Option<LearnerCounters> {
        Some(self.predictor.counters())
    }

    fn start_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) > self.cfg.start_threshold
    }

    fn stop_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) < self.cfg.stop_threshold
    }

    fn scan_phases(
        &self,
        pool: &octo_dfs::EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
    ) -> Vec<PhasePlan> {
        // Stream order is the LRU walk, so the k = 200 window over the
        // merged stream holds the first k eligible LRU files not yet
        // chosen: the paper's candidate pool.
        let budget = shard_budget(
            victim_hint(dfs, tier, self.cfg.stop_threshold),
            self.cfg.xgb_candidates,
        );
        let predictor = &self.predictor;
        let shards = pool.scan_shards(dfs, |v| {
            xgb_scan_shard(predictor, v.dfs(), v.shard(), tier, now, None, budget)
        });
        vec![PhasePlan {
            window: self.cfg.xgb_candidates,
            shards,
        }]
    }

    fn rescan_shard(
        &self,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
        shard: usize,
        resume: (SimTime, FileId),
        budget: usize,
    ) -> ScanBatch {
        xgb_scan_shard(&self.predictor, dfs, shard, tier, now, Some(resume), budget)
    }

    fn on_file_accessed(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        if let Some(stats) = dfs.file_stats(file) {
            self.predictor.on_file_access(stats, now);
        }
    }

    fn on_tick(&mut self, dfs: &TieredDfs, now: SimTime) {
        sample_files(
            &mut self.predictor,
            dfs,
            now,
            self.cfg.sample_files_per_tick,
            &mut self.rng,
        );
    }
}

/// XGB upgrade policy.
pub struct XgbUpgrade {
    cfg: TieringConfig,
    predictor: AccessPredictor,
    rng: DetRng,
    /// Each candidate's prediction in the current Algorithm 2 run. The
    /// model, the statistics and `now` stay fixed within a run, so a file
    /// is scored once however many picks it competes in. Cleared when a
    /// run starts.
    run_scores: HashMap<FileId, Option<f64>>,
}

impl XgbUpgrade {
    /// Builds the policy with its 30-minute-window predictor.
    pub fn new(cfg: TieringConfig, learner: LearnerConfig, seed: u64) -> Self {
        XgbUpgrade {
            cfg,
            predictor: AccessPredictor::new(UPGRADE_WINDOW, learner),
            rng: DetRng::seed_from_u64(seed),
            run_scores: HashMap::new(),
        }
    }

    /// The underlying predictor (model evaluation experiments).
    pub fn predictor(&self) -> &AccessPredictor {
        &self.predictor
    }

    /// Mutable predictor access.
    pub fn predictor_mut(&mut self) -> &mut AccessPredictor {
        &mut self.predictor
    }

    /// The `k` most recently used upgrade candidates (movable, not fully in
    /// memory), most recent first. A reverse walk of the global recency
    /// index (which orders exactly like the old
    /// `sort_by_key(|f| (Reverse(last_used), f))` + truncate), stopping as
    /// soon as `k` candidates pass the filters.
    fn mru_candidates(&self, dfs: &TieredDfs, already: &BTreeSet<FileId>) -> Vec<FileId> {
        dfs.mru_recency_iter()
            .map(|(_, f)| f)
            .filter(|f| {
                !already.contains(f)
                    && dfs.is_movable(*f)
                    && !dfs.file_fully_on_tier(*f, StorageTier::Memory)
            })
            .take(self.cfg.xgb_candidates)
            .collect()
    }
}

impl UpgradePolicy for XgbUpgrade {
    fn name(&self) -> &'static str {
        "xgb"
    }

    fn learner_counters(&self) -> Option<LearnerCounters> {
        Some(self.predictor.counters())
    }

    fn start_upgrade(&mut self, dfs: &TieredDfs, accessed: Option<FileId>, _now: SimTime) -> bool {
        self.run_scores.clear();
        if self.predictor.learner().is_active() {
            true // the inner loop scans candidates either way
        } else {
            // Warm-up fallback: behave like OSA.
            accessed.is_some_and(|f| {
                dfs.is_movable(f) && !dfs.file_fully_on_tier(f, StorageTier::Memory)
            })
        }
    }

    fn select_upgrade(
        &mut self,
        dfs: &TieredDfs,
        accessed: Option<FileId>,
        now: SimTime,
        already: &BTreeSet<FileId>,
    ) -> Option<UpgradeChoice> {
        if !self.predictor.learner().is_active() {
            // OSA fallback during warm-up.
            let f = accessed?;
            if already.contains(&f)
                || !dfs.is_movable(f)
                || dfs.file_fully_on_tier(f, StorageTier::Memory)
            {
                return None;
            }
            return Some(UpgradeChoice {
                file: f,
                to: StorageTier::Memory,
            });
        }
        // Highest-probability candidate above the discrimination threshold.
        // The MRU window is walked again for every pick, so it slides past
        // the files already chosen; only the scores are remembered.
        let mut best: Option<(FileId, f64)> = None;
        for f in self.mru_candidates(dfs, already) {
            let predictor = &self.predictor;
            let score = *self
                .run_scores
                .entry(f)
                .or_insert_with(|| dfs.file_stats(f).and_then(|s| predictor.predict(s, now)));
            let Some(p) = score else {
                continue;
            };
            if p <= self.cfg.xgb_threshold {
                continue;
            }
            if best.as_ref().is_none_or(|(_, bp)| p > *bp) {
                best = Some((f, p));
            }
        }
        best.map(|(file, _)| UpgradeChoice {
            file,
            to: StorageTier::Memory,
        })
    }

    fn stop_upgrade(
        &mut self,
        _dfs: &TieredDfs,
        _now: SimTime,
        scheduled: ByteSize,
        count: u32,
    ) -> bool {
        if !self.predictor.learner().is_active() {
            return true; // OSA fallback: one file per access
        }
        scheduled >= self.cfg.xgb_upgrade_limit || count >= 64
    }

    fn on_file_accessed(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        if let Some(stats) = dfs.file_stats(file) {
            self.predictor.on_file_access(stats, now);
        }
    }

    fn on_tick(&mut self, dfs: &TieredDfs, now: SimTime) {
        sample_files(
            &mut self.predictor,
            dfs,
            now,
            self.cfg.sample_files_per_tick,
            &mut self.rng,
        );
    }
}
