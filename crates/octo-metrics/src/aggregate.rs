//! Aggregations over run reports.

use octo_cluster::RunReport;
use octo_common::{ByteSize, StorageTier};
use octo_workload::{SizeBin, Trace};
use serde::{Deserialize, Serialize};

/// Per-bin summary of one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinStat {
    /// The bin.
    pub bin: SizeBin,
    /// Jobs in the bin.
    pub jobs: usize,
    /// Mean completion time in seconds (0 when empty).
    pub mean_completion_secs: f64,
    /// Total task-seconds consumed.
    pub task_seconds: f64,
    /// Input bytes read.
    pub io_bytes: ByteSize,
}

/// Per-bin statistics of a run, in bin order A..F.
pub fn per_bin(report: &RunReport) -> [BinStat; 6] {
    let mut out = SizeBin::ALL.map(|bin| BinStat {
        bin,
        jobs: 0,
        mean_completion_secs: 0.0,
        task_seconds: 0.0,
        io_bytes: ByteSize::ZERO,
    });
    let mut sums = [0.0f64; 6];
    for j in &report.jobs {
        let s = &mut out[j.bin.index()];
        s.jobs += 1;
        sums[j.bin.index()] += j.completion_secs();
        s.task_seconds += j.task_seconds();
        s.io_bytes += j.input_bytes;
    }
    for (s, sum) in out.iter_mut().zip(sums) {
        if s.jobs > 0 {
            s.mean_completion_secs = sum / s.jobs as f64;
        }
    }
    out
}

fn percent_reduction(base: f64, x: f64) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    (base - x) / base * 100.0
}

/// Percent reduction in mean completion time vs a baseline, per bin
/// (Figures 6, 10, 12).
pub fn completion_reduction(base: &RunReport, x: &RunReport) -> [f64; 6] {
    let b = per_bin(base);
    let r = per_bin(x);
    std::array::from_fn(|i| percent_reduction(b[i].mean_completion_secs, r[i].mean_completion_secs))
}

/// Percent improvement in cluster efficiency (task-seconds) vs a baseline,
/// per bin (Figures 7 and 13).
pub fn efficiency_improvement(base: &RunReport, x: &RunReport) -> [f64; 6] {
    let b = per_bin(base);
    let r = per_bin(x);
    std::array::from_fn(|i| percent_reduction(b[i].task_seconds, r[i].task_seconds))
}

/// Fraction of input bytes served by each tier, per bin (Figure 8).
/// Rows are bins, columns `[MEM, SSD, HDD]`; empty bins are all-zero.
pub fn tier_access_distribution(report: &RunReport) -> [[f64; 3]; 6] {
    let mut bytes = [[0u64; 3]; 6];
    for j in &report.jobs {
        for t in &j.tasks {
            bytes[j.bin.index()][t.read_tier.index()] += t.bytes.as_bytes();
        }
    }
    bytes.map(|row| {
        let total: u64 = row.iter().sum();
        if total == 0 {
            [0.0; 3]
        } else {
            row.map(|b| b as f64 / total as f64)
        }
    })
}

/// Hit Ratio and Byte Hit Ratio (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HitRatios {
    /// Fraction of tasks satisfied by memory.
    pub hr: f64,
    /// Fraction of bytes satisfied by memory.
    pub bhr: f64,
}

/// HR/BHR based on where tasks *actually read from*.
pub fn hit_ratio_by_access(report: &RunReport) -> HitRatios {
    ratios(report, |t| t.read_tier == StorageTier::Memory)
}

/// HR/BHR based on whether a memory replica *existed* at read time —
/// the tier-unaware-scheduler gap of Figure 9.
pub fn hit_ratio_by_location(report: &RunReport) -> HitRatios {
    ratios(report, |t| t.had_memory_replica)
}

fn ratios(report: &RunReport, hit: impl Fn(&octo_cluster::TaskStat) -> bool) -> HitRatios {
    let mut tasks = 0usize;
    let mut hits = 0usize;
    let mut bytes = 0u64;
    let mut hit_bytes = 0u64;
    for j in &report.jobs {
        for t in &j.tasks {
            tasks += 1;
            bytes += t.bytes.as_bytes();
            if hit(t) {
                hits += 1;
                hit_bytes += t.bytes.as_bytes();
            }
        }
    }
    HitRatios {
        hr: if tasks == 0 {
            0.0
        } else {
            hits as f64 / tasks as f64
        },
        bhr: if bytes == 0 {
            0.0
        } else {
            hit_bytes as f64 / bytes as f64
        },
    }
}

/// Upgrade-policy statistics (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefetchStats {
    /// GB of job input read from the memory tier.
    pub gb_read_from_memory: f64,
    /// GB moved into the memory tier by upgrades.
    pub gb_upgraded_to_memory: f64,
    /// Byte Accuracy: memory reads / bytes upgraded.
    pub byte_accuracy: f64,
    /// Byte Coverage: memory reads / total reads.
    pub byte_coverage: f64,
}

/// Computes Table 4's row for one run.
pub fn prefetch_stats(report: &RunReport) -> PrefetchStats {
    let read_mem = report.read_from_memory().as_gb_f64();
    let upgraded = report
        .movement
        .upgraded_to
        .get(StorageTier::Memory)
        .as_gb_f64();
    let total = report.total_read().as_gb_f64();
    PrefetchStats {
        gb_read_from_memory: read_mem,
        gb_upgraded_to_memory: upgraded,
        byte_accuracy: if upgraded > 0.0 {
            read_mem / upgraded
        } else {
            0.0
        },
        byte_coverage: if total > 0.0 { read_mem / total } else { 0.0 },
    }
}

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// The bin.
    pub bin: SizeBin,
    /// Share of jobs, percent.
    pub pct_jobs: f64,
    /// Share of cluster resources (task-seconds), percent.
    pub pct_resources: f64,
    /// Share of I/O bytes, percent.
    pub pct_io: f64,
    /// Aggregate task execution time, minutes.
    pub task_time_mins: f64,
}

/// Reconstructs Table 3 from a trace and the baseline run that executed it.
pub fn table3_rows(trace: &Trace, report: &RunReport) -> Vec<Table3Row> {
    let stats = per_bin(report);
    let total_jobs: usize = stats.iter().map(|s| s.jobs).sum();
    let total_task: f64 = stats.iter().map(|s| s.task_seconds).sum();
    let total_io: u64 = stats.iter().map(|s| s.io_bytes.as_bytes()).sum();
    let _ = trace; // bin mix comes from the executed jobs
    stats
        .iter()
        .map(|s| Table3Row {
            bin: s.bin,
            pct_jobs: if total_jobs == 0 {
                0.0
            } else {
                s.jobs as f64 / total_jobs as f64 * 100.0
            },
            pct_resources: if total_task == 0.0 {
                0.0
            } else {
                s.task_seconds / total_task * 100.0
            },
            pct_io: if total_io == 0 {
                0.0
            } else {
                s.io_bytes.as_bytes() as f64 / total_io as f64 * 100.0
            },
            task_time_mins: s.task_seconds / 60.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_cluster::{JobResult, TaskStat};
    use octo_common::SimTime;
    use octo_dfs::MovementStats;

    fn job(bin: SizeBin, secs: u64, mem: bool, bytes_mb: u64) -> JobResult {
        JobResult {
            bin,
            submit: SimTime::ZERO,
            finish: SimTime::from_secs(secs),
            input_bytes: ByteSize::mb(bytes_mb),
            output_bytes: ByteSize::mb(1),
            tasks: vec![TaskStat {
                read_tier: if mem {
                    StorageTier::Memory
                } else {
                    StorageTier::Hdd
                },
                remote: false,
                bytes: ByteSize::mb(bytes_mb),
                had_memory_replica: mem,
                read_secs: if mem { 0.1 } else { 1.0 },
                cpu_secs: 2.0,
            }],
            output_write_secs: 0.5,
            failed: false,
        }
    }

    fn report(jobs: Vec<JobResult>) -> RunReport {
        let mut by_tier = [ByteSize::ZERO; 3];
        for j in &jobs {
            for t in &j.tasks {
                by_tier[t.read_tier.index()] += t.bytes;
            }
        }
        RunReport {
            scenario: "test".into(),
            workload: "FB".into(),
            jobs,
            movement: MovementStats::default(),
            sim_end: SimTime::from_secs(100),
            bytes_read_by_tier: by_tier,
            faults: octo_cluster::FaultSummary::default(),
            cache: octo_dfs::CacheStats::default(),
            learners: Vec::new(),
        }
    }

    #[test]
    fn per_bin_groups_and_averages() {
        let r = report(vec![
            job(SizeBin::A, 10, true, 64),
            job(SizeBin::A, 20, false, 64),
            job(SizeBin::F, 100, false, 6000),
        ]);
        let stats = per_bin(&r);
        assert_eq!(stats[0].jobs, 2);
        assert!((stats[0].mean_completion_secs - 15.0).abs() < 1e-9);
        assert_eq!(stats[5].jobs, 1);
        assert_eq!(stats[1].jobs, 0);
    }

    #[test]
    fn reductions_are_percentages() {
        let base = report(vec![job(SizeBin::A, 20, false, 64)]);
        let fast = report(vec![job(SizeBin::A, 15, true, 64)]);
        let red = completion_reduction(&base, &fast);
        assert!((red[0] - 25.0).abs() < 1e-9);
        assert_eq!(red[5], 0.0, "empty bins report zero");
        let eff = efficiency_improvement(&base, &fast);
        assert!(eff[0] > 0.0, "memory read costs fewer task-seconds");
    }

    #[test]
    fn tier_distribution_sums_to_one() {
        let r = report(vec![
            job(SizeBin::A, 10, true, 64),
            job(SizeBin::A, 10, false, 64),
        ]);
        let dist = tier_access_distribution(&r);
        let sum: f64 = dist[0].iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((dist[0][0] - 0.5).abs() < 1e-9);
        assert_eq!(dist[3], [0.0; 3], "empty bin");
    }

    #[test]
    fn hit_ratios_access_vs_location() {
        let mut jobs = vec![job(SizeBin::A, 10, true, 100)];
        // A task whose block HAD a memory replica but read from HDD
        // (tier-unaware scheduling): location-HR > access-HR.
        let mut j = job(SizeBin::A, 10, false, 100);
        j.tasks[0].had_memory_replica = true;
        jobs.push(j);
        let r = report(jobs);
        let by_access = hit_ratio_by_access(&r);
        let by_location = hit_ratio_by_location(&r);
        assert!((by_access.hr - 0.5).abs() < 1e-9);
        assert!((by_location.hr - 1.0).abs() < 1e-9);
        assert!(by_location.bhr > by_access.bhr);
    }

    #[test]
    fn prefetch_stats_ratios() {
        let mut r = report(vec![job(SizeBin::A, 10, true, 1024)]);
        *r.movement.upgraded_to.get_mut(StorageTier::Memory) = ByteSize::gb(2);
        let p = prefetch_stats(&r);
        assert!((p.gb_read_from_memory - 1.0).abs() < 1e-6);
        assert!((p.gb_upgraded_to_memory - 2.0).abs() < 1e-9);
        assert!((p.byte_accuracy - 0.5).abs() < 1e-6);
        assert!((p.byte_coverage - 1.0).abs() < 1e-6);
    }

    #[test]
    fn table3_percentages_sum_to_100() {
        let r = report(vec![
            job(SizeBin::A, 10, true, 64),
            job(SizeBin::B, 20, false, 256),
            job(SizeBin::F, 90, false, 6000),
        ]);
        let trace = octo_workload::generate(&octo_workload::WorkloadConfig::facebook(), 1);
        let rows = table3_rows(&trace, &r);
        let jobs: f64 = rows.iter().map(|r| r.pct_jobs).sum();
        let io: f64 = rows.iter().map(|r| r.pct_io).sum();
        let res: f64 = rows.iter().map(|r| r.pct_resources).sum();
        assert!((jobs - 100.0).abs() < 1e-6);
        assert!((io - 100.0).abs() < 1e-6);
        assert!((res - 100.0).abs() < 1e-6);
    }
}
