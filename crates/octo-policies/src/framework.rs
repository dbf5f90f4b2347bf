//! The pluggable policy framework (paper §3.2, Algorithms 1 and 2).
//!
//! The paper's framework has each policy answer four decision points:
//!
//! 1. *when to start* the downgrade/upgrade process,
//! 2. *which file* to move,
//! 3. *how/where* to move it (target tier — node selection is delegated to
//!    the multi-objective placement policy, §5.3/§6.3),
//! 4. *when to stop* the process.
//!
//! Every built-in policy answers most of them alike, so the
//! [`TieringEngine`] answers those once, for all of them:
//!
//! * **Algorithm 1.** A run starts when the tier's
//!   [`effective_utilization`] is above the policy's `start_threshold`,
//!   sends every victim to [`DowngradeTarget::Auto`] (the placement policy
//!   picks a lower tier), and stops after the first victim that leaves
//!   the tier below `stop_threshold`. A [`DowngradePolicy`] supplies only
//!   its thresholds ([`DowngradePolicy::tiering`]) and decision point 2:
//!   the victim order, as per-shard candidate scans
//!   ([`DowngradePolicy::scan_phases`]) that the engine merges and
//!   consumes one victim at a time ([`crate::parallel`]).
//! * **Algorithm 2.** On an access, the accessed file moves to memory
//!   when it is movable, not fully in memory, and the policy
//!   [admits](UpgradePolicy::admits) it: at most one file, and none on the
//!   periodic invocation that has no accessed file. An [`UpgradePolicy`]
//!   supplies only that admission predicate — except the learned one,
//!   which supplies a model: once it serves
//!   ([`UpgradePolicy::serving`]), the engine plans
//!   [`XgbUpgrade`]'s batch of the most probably re-read files instead.
//!
//! Both traits also carry lifecycle callbacks (file created / accessed /
//! deleted, periodic tick) through which stateful policies maintain
//! weights or train models.
//!
//! [`TieringEngine`] is the Replication Manager's orchestration loop: it
//! runs Algorithm 1 and Algorithm 2 against a [`TieredDfs`], producing the
//! [`TransferId`]s whose I/O the cluster layer then simulates.
//!
//! [`DowngradeTarget::Auto`]: octo_dfs::DowngradeTarget::Auto

use crate::parallel::{PhasePlan, ScanBatch};
use crate::xgb::XgbUpgrade;
use octo_access::LearnerCounters;
use octo_common::{ByteSize, FileId, SimTime, StorageTier};
use octo_dfs::{EpochPool, TieredDfs, TransferId};
use serde::{Deserialize, Serialize};

/// Tunable thresholds shared by the built-in policies (paper defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TieringConfig {
    /// Downgrading from a tier starts above this utilization (§5.1, 90%).
    pub start_threshold: f64,
    /// ... and stops below this utilization (§5.4, 85%).
    pub stop_threshold: f64,
    /// LRFU upgrade weight threshold (§6.1, empirically 3).
    pub lrfu_upgrade_threshold: f64,
    /// XGB upgrade batch byte limit (§6.4, 1 GB).
    pub xgb_upgrade_limit: ByteSize,
    /// Watermark family: heat at or above which a file *enters* the hot
    /// band (upgrade-eligible, downgrade-exempt).
    pub watermark_hot: f64,
    /// Watermark family: heat at or below which a file *enters* the cold
    /// band (first in the eviction order).
    pub watermark_cold: f64,
    /// Watermark family: relative width of the hysteresis bands. A file
    /// leaves a band only after its heat drops below `enter × (1 − h)`, so
    /// scores oscillating around a threshold do not thrash tiers.
    pub watermark_hysteresis: f64,
}

impl Default for TieringConfig {
    fn default() -> Self {
        TieringConfig {
            start_threshold: 0.90,
            stop_threshold: 0.85,
            lrfu_upgrade_threshold: 3.0,
            xgb_upgrade_limit: ByteSize::gb(1),
            watermark_hot: 2.0,
            watermark_cold: 0.75,
            watermark_hysteresis: 0.25,
        }
    }
}

/// Effective utilization of a tier: committed bytes minus the bytes already
/// scheduled to leave it, over capacity. Policies must use this (not the raw
/// utilization) so a planning loop observes its own progress.
///
/// O(1): both terms are counters the DFS maintains incrementally (space
/// accounting at reserve/commit time, pending bytes at transfer
/// plan/complete/cancel time). Algorithm 1 calls this after *every*
/// scheduled move, so it must not scan the namespace.
pub fn effective_utilization(dfs: &TieredDfs, tier: StorageTier) -> f64 {
    let (committed, capacity) = dfs.tier_usage(tier);
    committed
        .saturating_sub(dfs.pending_outgoing(tier))
        .fraction_of(capacity)
}

/// Which of the two tiering processes a policy drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyRole {
    /// Algorithm 1: moving files down.
    Downgrade,
    /// Algorithm 2: moving files up.
    Upgrade,
}

/// A learning policy's counters at the end of a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LearnerReport {
    /// The process the policy drives.
    pub role: PolicyRole,
    /// The policy's name ("xgb", "hybrid").
    pub policy: String,
    /// What its predictor and learner did.
    pub counters: LearnerCounters,
}

impl LearnerReport {
    fn new(role: PolicyRole, policy: &str, counters: LearnerCounters) -> Self {
        LearnerReport {
            role,
            policy: policy.to_string(),
            counters,
        }
    }
}

/// A downgrade policy: Algorithm 1's victim order plus callbacks. The
/// engine decides when a run starts and stops, and where victims go.
pub trait DowngradePolicy {
    /// Short identifier used in reports ("lru", "xgb", ...).
    fn name(&self) -> &'static str;

    /// The thresholds the engine starts and stops this policy's runs at.
    fn tiering(&self) -> &TieringConfig;

    /// Decision point 2: the run's victim order, as read-only per-shard
    /// candidate scans fanned out over `pool` (see [`crate::parallel`]).
    /// Called once a run has started and before anything is planned. The
    /// engine then takes victims in that order, planning each and
    /// checking the stop threshold after every one.
    fn scan_phases(
        &self,
        pool: &EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        now: SimTime,
    ) -> Vec<PhasePlan>;

    /// A file was created and committed.
    fn on_file_created(&mut self, _dfs: &TieredDfs, _file: FileId, _now: SimTime) {}

    /// A file was accessed (statistics already updated).
    fn on_file_accessed(&mut self, _dfs: &TieredDfs, _file: FileId, _now: SimTime) {}

    /// A file was deleted.
    fn on_file_deleted(&mut self, _file: FileId, _now: SimTime) {}

    /// Periodic housekeeping (model training data sampling etc.).
    fn on_tick(&mut self, _dfs: &TieredDfs, _now: SimTime) {}

    /// The counters of the policy's learner, for a policy that learns.
    fn learner_counters(&self) -> Option<LearnerCounters> {
        None
    }

    /// Extends a budget-truncated shard scan: resumes the shard's index
    /// walk strictly after `resume` and returns up to `budget` more
    /// candidates. Only called for shards whose previous
    /// [`ScanBatch::resume`] was set, so exhaustive-scan policies never
    /// need to implement it.
    fn rescan_shard(
        &self,
        _dfs: &TieredDfs,
        _tier: StorageTier,
        _now: SimTime,
        _shard: usize,
        _resume: (SimTime, FileId),
        _budget: usize,
    ) -> ScanBatch {
        unreachable!("policy set a resume cursor without implementing rescan_shard")
    }
}

/// An upgrade policy: Algorithm 2's admission rule plus callbacks. The
/// engine decides which file is considered, where it goes and how many
/// move.
pub trait UpgradePolicy {
    /// Short identifier used in reports ("osa", "xgb", ...).
    fn name(&self) -> &'static str;

    /// Whether the accessed `file` — movable and not fully in memory —
    /// moves up to memory.
    fn admits(&self, dfs: &TieredDfs, file: FileId, now: SimTime) -> bool;

    /// The learned policy, once its model serves: the engine then plans
    /// its batch in place of the on-access rule.
    fn serving(&self) -> Option<&XgbUpgrade> {
        None
    }

    /// A file was created and committed.
    fn on_file_created(&mut self, _dfs: &TieredDfs, _file: FileId, _now: SimTime) {}

    /// A file was accessed (statistics already updated).
    fn on_file_accessed(&mut self, _dfs: &TieredDfs, _file: FileId, _now: SimTime) {}

    /// A file was deleted.
    fn on_file_deleted(&mut self, _file: FileId, _now: SimTime) {}

    /// Periodic housekeeping.
    fn on_tick(&mut self, _dfs: &TieredDfs, _now: SimTime) {}

    /// The counters of the policy's learner, for a policy that learns.
    fn learner_counters(&self) -> Option<LearnerCounters> {
        None
    }
}

/// The Replication Manager's policy orchestrator.
pub struct TieringEngine {
    downgrade: Option<Box<dyn DowngradePolicy>>,
    upgrade: Option<Box<dyn UpgradePolicy>>,
}

impl TieringEngine {
    /// An engine with both processes enabled. Pass `None` to disable one
    /// (the §7.3/§7.4 isolation experiments do exactly that).
    pub fn new(
        downgrade: Option<Box<dyn DowngradePolicy>>,
        upgrade: Option<Box<dyn UpgradePolicy>>,
    ) -> Self {
        TieringEngine { downgrade, upgrade }
    }

    /// An engine with no policies: plain OctopusFS.
    pub fn disabled() -> Self {
        TieringEngine {
            downgrade: None,
            upgrade: None,
        }
    }

    /// One entry per policy that learns, downgrade first.
    pub fn learners(&self) -> Vec<LearnerReport> {
        let downgrade = self.downgrade.as_ref().and_then(|p| {
            p.learner_counters()
                .map(|counters| LearnerReport::new(PolicyRole::Downgrade, p.name(), counters))
        });
        let upgrade = self.upgrade.as_ref().and_then(|p| {
            p.learner_counters()
                .map(|counters| LearnerReport::new(PolicyRole::Upgrade, p.name(), counters))
        });
        downgrade.into_iter().chain(upgrade).collect()
    }

    /// Names of the active policies, for reports.
    pub fn describe(&self) -> String {
        format!(
            "down={} up={}",
            self.downgrade.as_ref().map_or("none", |p| p.name()),
            self.upgrade.as_ref().map_or("none", |p| p.name())
        )
    }

    /// Runs Algorithm 1 for `tier` on a one-thread pool, returning the
    /// transfers planned.
    pub fn run_downgrade(
        &mut self,
        dfs: &mut TieredDfs,
        tier: StorageTier,
        now: SimTime,
    ) -> Vec<TransferId> {
        self.run_downgrade_pooled(dfs, tier, now, &EpochPool::serial())
    }

    /// Runs Algorithm 1 for `tier` with the candidate scan fanned out over
    /// `pool`, returning the transfers planned. A run starts when the
    /// tier's effective utilization is above the policy's start
    /// threshold: the policy's [`DowngradePolicy::scan_phases`] scans the
    /// shards (inline and in shard order on a one-thread pool), then one
    /// serial merge commits the victims in order until the tier falls
    /// below the stop threshold. The victims are byte-identical at any
    /// pool width (the determinism tests pin this against the golden
    /// digests).
    pub fn run_downgrade_pooled(
        &mut self,
        dfs: &mut TieredDfs,
        tier: StorageTier,
        now: SimTime,
        pool: &EpochPool,
    ) -> Vec<TransferId> {
        let Some(policy) = self.downgrade.as_deref() else {
            return Vec::new();
        };
        if effective_utilization(dfs, tier) > policy.tiering().start_threshold {
            let phases = policy.scan_phases(pool, dfs, tier, now);
            crate::parallel::run_merge_commit(policy, dfs, tier, now, phases)
        } else {
            Vec::new()
        }
    }

    /// Runs Algorithm 2, returning the transfers planned. `accessed` is the
    /// file being read (if this invocation piggybacks on an access). A
    /// learned policy whose model serves plans its batch; otherwise the
    /// accessed file moves to memory if it is movable, not fully in
    /// memory, and the policy admits it.
    pub fn run_upgrade(
        &mut self,
        dfs: &mut TieredDfs,
        accessed: Option<FileId>,
        now: SimTime,
    ) -> Vec<TransferId> {
        let Some(policy) = self.upgrade.as_deref() else {
            return Vec::new();
        };
        if let Some(learned) = policy.serving() {
            return learned.plan_batch(dfs, now);
        }
        let admitted = accessed.filter(|&f| {
            dfs.is_movable(f)
                && !dfs.file_fully_on_tier(f, StorageTier::Memory)
                && policy.admits(dfs, f, now)
        });
        admitted
            .and_then(|f| dfs.plan_upgrade(f, StorageTier::Memory).ok())
            .into_iter()
            .collect()
    }

    /// Fans a file-created event out to both policies.
    pub fn notify_created(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        if let Some(p) = self.downgrade.as_mut() {
            p.on_file_created(dfs, file, now);
        }
        if let Some(p) = self.upgrade.as_mut() {
            p.on_file_created(dfs, file, now);
        }
    }

    /// Fans a file-accessed event out to both policies.
    pub fn notify_accessed(&mut self, dfs: &TieredDfs, file: FileId, now: SimTime) {
        if let Some(p) = self.downgrade.as_mut() {
            p.on_file_accessed(dfs, file, now);
        }
        if let Some(p) = self.upgrade.as_mut() {
            p.on_file_accessed(dfs, file, now);
        }
    }

    /// Fans a file-deleted event out to both policies.
    pub fn notify_deleted(&mut self, file: FileId, now: SimTime) {
        if let Some(p) = self.downgrade.as_mut() {
            p.on_file_deleted(file, now);
        }
        if let Some(p) = self.upgrade.as_mut() {
            p.on_file_deleted(file, now);
        }
    }

    /// Fans the periodic tick out to both policies.
    pub fn tick(&mut self, dfs: &TieredDfs, now: SimTime) {
        if let Some(p) = self.downgrade.as_mut() {
            p.on_tick(dfs, now);
        }
        if let Some(p) = self.upgrade.as_mut() {
            p.on_tick(dfs, now);
        }
    }

    /// Whether a downgrade policy is installed.
    pub fn has_downgrade(&self) -> bool {
        self.downgrade.is_some()
    }

    /// Whether an upgrade policy is installed.
    pub fn has_upgrade(&self) -> bool {
        self.upgrade.is_some()
    }
}
