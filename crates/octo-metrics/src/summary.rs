//! One-struct-per-run scalar summaries, the unit of comparison the
//! scenario-matrix harness aggregates and serializes.

use octo_cluster::RunReport;
use octo_common::StorageTier;
use serde::{Deserialize, Serialize};

/// The scalar outcome of one simulation run: the numbers a policy ×
/// workload × fault comparison table is built from. Derived entirely from
/// a [`RunReport`], so it inherits the run's determinism — the same cell
/// always summarizes to the same bytes of JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Scenario label (e.g. `"LRU-OSA"`).
    pub scenario: String,
    /// Workload label (e.g. `"FB"`, `"diurnal"`).
    pub workload: String,
    /// Jobs that ran (successful + failed).
    pub jobs: usize,
    /// Jobs abandoned to data loss (only non-zero under fault injection).
    pub failed_jobs: u64,
    /// Mean completion time of successful jobs, seconds.
    pub mean_completion_secs: f64,
    /// Mean per-task input read latency, seconds — the "read latency"
    /// column of the matrix table.
    pub mean_read_secs: f64,
    /// 99th-percentile per-task input read latency, seconds (the tail the
    /// tournament leaderboard ranks).
    pub p99_read_secs: f64,
    /// Fraction of tasks served from the memory tier (HR by access).
    pub hit_ratio: f64,
    /// Fraction of input bytes served from the memory tier (BHR).
    pub byte_hit_ratio: f64,
    /// Fraction of input bytes read from each tier `[MEM, SSD, HDD]`.
    pub tier_read_fraction: [f64; 3],
    /// Bytes moved up by upgrade transfers (all tiers).
    pub bytes_upgraded: u64,
    /// Bytes moved down by downgrade transfers (all tiers).
    pub bytes_downgraded: u64,
    /// Bytes written by repair re-replication.
    pub bytes_repaired: u64,
    /// Bytes of erasure-coded shards rebuilt by reconstruction repair.
    pub bytes_reconstructed: u64,
    /// Total policy + repair movement (`bytes_upgraded + bytes_downgraded
    /// + bytes_repaired + bytes_reconstructed`) — the "bytes moved" column.
    pub bytes_moved: u64,
    /// Time from the last fault to full re-replication, seconds. `None`
    /// while the run saw no faults or ended degraded.
    pub recovery_secs: Option<f64>,
    /// Tasks re-run because their worker crashed mid-compute.
    pub tasks_rerun: u64,
    /// Files that ended the run with an unrecoverable block.
    pub lost_files: u64,
    /// Outstanding under-redundant bytes at run end — nonzero when the run
    /// ended mid-repair, zero for a quiesced (or fault-free) run.
    pub repair_debt_bytes: u64,
    /// When the last simulated event fired, seconds.
    pub sim_end_secs: f64,
    /// Block-cache lookups served from L1 (memory). All cache counters are
    /// zero when the cache is disabled.
    pub cache_l1_hits: u64,
    /// Block-cache lookups served from L2 (SSD).
    pub cache_l2_hits: u64,
    /// Block-cache lookups that missed both levels.
    pub cache_misses: u64,
    /// Blocks evicted from L1 (demoted into L2).
    pub cache_l1_evictions: u64,
    /// Blocks evicted from L2 (dropped from the cache).
    pub cache_l2_evictions: u64,
    /// L1 fills and promotions the admission filter rejected.
    pub cache_admission_rejects: u64,
    /// Fraction of cache lookups served from either level.
    pub cache_hit_ratio: f64,
    /// Fraction of looked-up bytes served from either level (block-level
    /// byte hit ratio).
    pub cache_byte_hit_ratio: f64,
}

impl RunSummary {
    /// Summarizes a run.
    pub fn from_report(report: &RunReport) -> RunSummary {
        let mut read_secs: Vec<f64> = Vec::new();
        for j in &report.jobs {
            for t in &j.tasks {
                read_secs.push(t.read_secs);
            }
        }
        let tasks = read_secs.len();
        let read_sum: f64 = read_secs.iter().sum();
        // One quantile definition workspace-wide: `Cdf::quantile` is
        // nearest-rank (ceil), so this column and any `Cdf` built from the
        // same samples agree sample-for-sample.
        let p99_read_secs = crate::Cdf::new(read_secs).quantile(0.99).unwrap_or(0.0);
        let hits = crate::hit_ratio_by_access(report);
        let total_read = report.total_read().as_bytes();
        let tier_read_fraction = std::array::from_fn(|i| {
            if total_read == 0 {
                0.0
            } else {
                report.bytes_read_by_tier[i].as_bytes() as f64 / total_read as f64
            }
        });
        let up: u64 = StorageTier::ALL
            .iter()
            .map(|&t| report.movement.upgraded_to.get(t).as_bytes())
            .sum();
        let down: u64 = StorageTier::ALL
            .iter()
            .map(|&t| report.movement.downgraded_to.get(t).as_bytes())
            .sum();
        let repaired = report.movement.bytes_re_replicated().as_bytes();
        let reconstructed = report.movement.bytes_reconstructed().as_bytes();
        RunSummary {
            scenario: report.scenario.clone(),
            workload: report.workload.clone(),
            jobs: report.jobs.len(),
            failed_jobs: report.faults.failed_jobs,
            mean_completion_secs: report.mean_completion_secs(),
            mean_read_secs: if tasks == 0 {
                0.0
            } else {
                read_sum / tasks as f64
            },
            p99_read_secs,
            hit_ratio: hits.hr,
            byte_hit_ratio: hits.bhr,
            tier_read_fraction,
            bytes_upgraded: up,
            bytes_downgraded: down,
            bytes_repaired: repaired,
            bytes_reconstructed: reconstructed,
            bytes_moved: up + down + repaired + reconstructed,
            recovery_secs: report
                .faults
                .time_to_full_replication()
                .map(|d| d.as_secs_f64()),
            tasks_rerun: report.faults.tasks_rerun,
            lost_files: report.faults.lost_files,
            repair_debt_bytes: report.faults.repair_debt_bytes.as_bytes(),
            sim_end_secs: report.sim_end.as_secs_f64(),
            cache_l1_hits: report.cache.l1_hits,
            cache_l2_hits: report.cache.l2_hits,
            cache_misses: report.cache.misses,
            cache_l1_evictions: report.cache.l1_evictions,
            cache_l2_evictions: report.cache.l2_evictions,
            cache_admission_rejects: report.cache.admission_rejects,
            cache_hit_ratio: report.cache.block_hit_ratio(),
            cache_byte_hit_ratio: report.cache.byte_hit_ratio(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_cluster::{FaultSummary, JobResult, TaskStat};
    use octo_common::{ByteSize, SimTime};
    use octo_dfs::MovementStats;
    use octo_workload::SizeBin;

    fn report() -> RunReport {
        let jobs = vec![JobResult {
            bin: SizeBin::A,
            submit: SimTime::ZERO,
            finish: SimTime::from_secs(20),
            input_bytes: ByteSize::mb(100),
            output_bytes: ByteSize::mb(10),
            tasks: vec![
                TaskStat {
                    read_tier: StorageTier::Memory,
                    remote: false,
                    bytes: ByteSize::mb(60),
                    had_memory_replica: true,
                    read_secs: 0.5,
                    cpu_secs: 2.0,
                },
                TaskStat {
                    read_tier: StorageTier::Hdd,
                    remote: true,
                    bytes: ByteSize::mb(40),
                    had_memory_replica: false,
                    read_secs: 1.5,
                    cpu_secs: 2.0,
                },
            ],
            output_write_secs: 0.5,
            failed: false,
        }];
        let mut movement = MovementStats::default();
        *movement.upgraded_to.get_mut(StorageTier::Memory) = ByteSize::mb(64);
        *movement.downgraded_to.get_mut(StorageTier::Hdd) = ByteSize::mb(32);
        RunReport {
            scenario: "LRU-OSA".into(),
            workload: "FB".into(),
            jobs,
            movement,
            sim_end: SimTime::from_secs(100),
            bytes_read_by_tier: [ByteSize::mb(60), ByteSize::ZERO, ByteSize::mb(40)],
            faults: FaultSummary::default(),
            cache: octo_dfs::CacheStats::default(),
            learners: Vec::new(),
        }
    }

    #[test]
    fn summarizes_the_run() {
        let s = RunSummary::from_report(&report());
        assert_eq!(s.scenario, "LRU-OSA");
        assert_eq!(s.jobs, 1);
        assert!((s.mean_completion_secs - 20.0).abs() < 1e-9);
        assert!((s.mean_read_secs - 1.0).abs() < 1e-9);
        assert!(
            (s.p99_read_secs - 1.5).abs() < 1e-9,
            "p99 is the slowest task"
        );
        assert_eq!(s.repair_debt_bytes, 0, "fault-free run owes no repair debt");
        assert!((s.hit_ratio - 0.5).abs() < 1e-9);
        assert!((s.byte_hit_ratio - 0.6).abs() < 1e-9);
        assert!((s.tier_read_fraction[0] - 0.6).abs() < 1e-9);
        assert_eq!(s.bytes_upgraded, ByteSize::mb(64).as_bytes());
        assert_eq!(s.bytes_downgraded, ByteSize::mb(32).as_bytes());
        assert_eq!(s.bytes_moved, ByteSize::mb(96).as_bytes());
        assert_eq!(s.recovery_secs, None);
        assert_eq!(s.cache_hit_ratio, 0.0, "cache-off run summarizes to zeros");
    }

    #[test]
    fn cache_counters_flow_through() {
        let mut r = report();
        r.cache = octo_dfs::CacheStats {
            l1_hits: 6,
            l2_hits: 2,
            misses: 2,
            bytes_served_l1: ByteSize::mb(60),
            bytes_served_l2: ByteSize::mb(20),
            bytes_requested: ByteSize::mb(100),
            l1_evictions: 3,
            l2_evictions: 1,
            admission_rejects: 4,
            ..Default::default()
        };
        let s = RunSummary::from_report(&r);
        assert_eq!(s.cache_l1_hits, 6);
        assert_eq!(s.cache_l2_hits, 2);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.cache_l1_evictions, 3);
        assert_eq!(s.cache_l2_evictions, 1);
        assert_eq!(s.cache_admission_rejects, 4);
        assert!((s.cache_hit_ratio - 0.8).abs() < 1e-12);
        assert!((s.cache_byte_hit_ratio - 0.8).abs() < 1e-12);
    }

    #[test]
    fn p99_agrees_with_cdf_on_the_same_samples() {
        // The summary's p99 column and a Cdf over the identical samples
        // must share one quantile definition (nearest-rank ceil) — this
        // test pins the unification.
        let r = report();
        let s = RunSummary::from_report(&r);
        let samples: Vec<f64> = r
            .jobs
            .iter()
            .flat_map(|j| j.tasks.iter().map(|t| t.read_secs))
            .collect();
        let cdf = crate::Cdf::new(samples);
        assert_eq!(Some(s.p99_read_secs), cdf.quantile(0.99));
        assert_eq!(Some(s.p99_read_secs), cdf.quantile(1.0), "n=2: both max");
    }

    #[test]
    fn repair_debt_flows_through() {
        let mut r = report();
        r.faults.repair_debt_bytes = ByteSize::mb(128);
        let s = RunSummary::from_report(&r);
        assert_eq!(s.repair_debt_bytes, ByteSize::mb(128).as_bytes());
    }

    #[test]
    fn summary_serializes_deterministically() {
        let s = RunSummary::from_report(&report());
        let a = serde_json::to_string(&s).unwrap();
        let b = serde_json::to_string(&RunSummary::from_report(&report())).unwrap();
        assert_eq!(a, b);
        let back: RunSummary = serde_json::from_str(&a).unwrap();
        assert_eq!(back, s);
    }
}
