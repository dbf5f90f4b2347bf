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
//!   falls back to on-access (OSA) behaviour. The hybrid upgrade is the
//!   same policy with watermark bands: they veto cold candidates from the
//!   batch, and during warm-up admit only hot-band files.

use crate::classic::last_used;
use crate::framework::{DowngradePolicy, TieringConfig, UpgradePolicy};
use crate::parallel::{encode_f64, shard_budget, victim_hint, Candidate, PhasePlan, ScanBatch};
use crate::watermark::{Band, BandTracker, Watermarks};
use octo_access::{AccessPredictor, LearnerConfig, LearnerCounters};
use octo_common::{ByteSize, DetRng, FileId, SimDuration, SimTime, StorageTier};
use octo_dfs::{TieredDfs, TransferId};
use std::collections::{BTreeSet, HashMap};

/// Windows for the two models (paper §4.4).
pub const DOWNGRADE_WINDOW: SimDuration = SimDuration::from_hours(6);
/// Forward-looking window of the upgrade model.
pub const UPGRADE_WINDOW: SimDuration = SimDuration::from_mins(30);

/// How many LRU/MRU candidates the XGB policies score (§5.2/§6.1, 200).
pub(crate) const XGB_CANDIDATES: usize = 200;

/// XGB discrimination threshold (§6.1, 0.5).
const XGB_THRESHOLD: f64 = 0.5;

/// How many files the periodic tick samples for training data (§4.2).
const SAMPLE_FILES_PER_TICK: usize = 64;

/// Samples up to [`SAMPLE_FILES_PER_TICK`] committed files deterministically
/// and feeds them to the predictor as (mostly negative) training points.
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
    rng: &mut DetRng,
) {
    let committed = dfs.committed_file_count();
    if committed == 0 {
        return;
    }
    for _ in 0..SAMPLE_FILES_PER_TICK.min(committed) {
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

    fn tiering(&self) -> &TieringConfig {
        &self.cfg
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
            XGB_CANDIDATES,
        );
        let predictor = &self.predictor;
        let shards = pool.scan_shards(dfs, |v| {
            xgb_scan_shard(predictor, v.dfs(), v.shard(), tier, now, None, budget)
        });
        vec![PhasePlan {
            window: XGB_CANDIDATES,
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
        sample_files(&mut self.predictor, dfs, now, &mut self.rng);
    }
}

/// Most files a learned upgrade batch plans.
const BATCH_FILES: usize = 64;

/// XGB upgrade policy, and the hybrid upgrade: the same policy with
/// watermark bands.
pub struct XgbUpgrade {
    cfg: TieringConfig,
    predictor: AccessPredictor,
    rng: DetRng,
    /// The hybrid's bands: hot-band admission during warm-up, and a veto
    /// on cold candidates once the model serves.
    bands: Option<BandTracker>,
}

impl XgbUpgrade {
    /// Builds the policy with its 30-minute-window predictor.
    pub fn new(cfg: TieringConfig, learner: LearnerConfig, seed: u64) -> Self {
        XgbUpgrade {
            cfg,
            predictor: AccessPredictor::new(UPGRADE_WINDOW, learner),
            rng: DetRng::seed_from_u64(seed),
            bands: None,
        }
    }

    /// The hybrid upgrade: XGB-gated admission over the watermark bands.
    /// Among the most recently used candidates it plans files the model
    /// scores above the discrimination threshold *and* the bands do not
    /// classify cold. During model warm-up it admits like the watermark
    /// upgrade: hot-band files only.
    pub fn hybrid(cfg: TieringConfig, learner: LearnerConfig, seed: u64) -> Self {
        let bands = BandTracker::new(Watermarks::from_config(&cfg));
        XgbUpgrade {
            bands: Some(bands),
            ..XgbUpgrade::new(cfg, learner, seed)
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

    /// Algorithm 2's batch while the model serves: picks the best
    /// candidate again after every planned file and stops once the batch
    /// reaches `xgb_upgrade_limit` bytes or [`BATCH_FILES`] files.
    ///
    /// A pick walks the `k` most recently used files that are not already
    /// chosen, movable and not fully in memory, and keeps the first one
    /// with the highest probability strictly above [`XGB_THRESHOLD`]. The
    /// hybrid's bands veto cold files within that window. The model, the
    /// statistics and `now` stay fixed within a run, so each file is
    /// scored once however many picks it competes in.
    pub(crate) fn plan_batch(&self, dfs: &mut TieredDfs, now: SimTime) -> Vec<TransferId> {
        let mut scores: HashMap<FileId, Option<f64>> = HashMap::new();
        let mut already = BTreeSet::new();
        let mut planned = Vec::new();
        let mut scheduled = ByteSize::ZERO;
        while let Some(file) = self.pick(dfs, now, &already, &mut scores) {
            already.insert(file);
            if let Ok(id) = dfs.plan_upgrade(file, StorageTier::Memory) {
                scheduled += dfs
                    .transfer(id)
                    .map(|t| t.bytes_moving())
                    .unwrap_or(ByteSize::ZERO);
                planned.push(id);
            }
            if scheduled >= self.cfg.xgb_upgrade_limit || planned.len() >= BATCH_FILES {
                break;
            }
        }
        planned
    }

    /// One pick of [`XgbUpgrade::plan_batch`].
    fn pick(
        &self,
        dfs: &TieredDfs,
        now: SimTime,
        already: &BTreeSet<FileId>,
        scores: &mut HashMap<FileId, Option<f64>>,
    ) -> Option<FileId> {
        let window = dfs
            .mru_recency_iter()
            .map(|(_, f)| f)
            .filter(|f| {
                !already.contains(f)
                    && dfs.is_movable(*f)
                    && !dfs.file_fully_on_tier(*f, StorageTier::Memory)
            })
            .take(XGB_CANDIDATES);
        let mut best: Option<(FileId, f64)> = None;
        for f in window {
            if let Some(bands) = &self.bands {
                if bands.effective(dfs, f, now) == Band::Cold {
                    continue;
                }
            }
            let score = *scores.entry(f).or_insert_with(|| {
                dfs.file_stats(f)
                    .and_then(|s| self.predictor.predict(s, now))
            });
            let Some(p) = score else {
                continue;
            };
            if p <= XGB_THRESHOLD {
                continue;
            }
            if best.is_none_or(|(_, bp)| p > bp) {
                best = Some((f, p));
            }
        }
        best.map(|(f, _)| f)
    }
}

impl UpgradePolicy for XgbUpgrade {
    fn name(&self) -> &'static str {
        if self.bands.is_some() {
            "hybrid"
        } else {
            "xgb"
        }
    }

    /// Warm-up admission: every file for XGB (like OSA), hot-band files
    /// for the hybrid (like the watermark upgrade).
    fn admits(&self, dfs: &TieredDfs, file: FileId, now: SimTime) -> bool {
        self.bands
            .as_ref()
            .is_none_or(|b| b.effective(dfs, file, now) == Band::Hot)
    }

    fn serving(&self) -> Option<&XgbUpgrade> {
        self.predictor.learner().is_active().then_some(self)
    }

    fn learner_counters(&self) -> Option<LearnerCounters> {
        Some(self.predictor.counters())
    }

    fn on_file_created(&mut self, dfs: &TieredDfs, file: FileId, _now: SimTime) {
        if let Some(bands) = &mut self.bands {
            bands.on_created(dfs, file);
        }
    }

    fn on_file_accessed(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        if let Some(bands) = &mut self.bands {
            bands.on_accessed(dfs, file);
        }
        if let Some(stats) = dfs.file_stats(file) {
            self.predictor.on_file_access(stats, now);
        }
    }

    fn on_file_deleted(&mut self, file: FileId, _now: SimTime) {
        if let Some(bands) = &mut self.bands {
            bands.on_deleted(file);
        }
    }

    fn on_tick(&mut self, dfs: &TieredDfs, now: SimTime) {
        sample_files(&mut self.predictor, dfs, now, &mut self.rng);
    }
}
