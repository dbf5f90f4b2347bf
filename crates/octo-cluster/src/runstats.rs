//! Raw per-run results the metrics crate aggregates into paper tables.

use octo_common::{ByteSize, SimDuration, SimTime, StorageTier};
use octo_dfs::{CacheStats, MovementStats};
use octo_workload::SizeBin;
use serde::{Deserialize, Serialize};

/// Availability and repair statistics of a run under fault injection.
/// All-zero (the `Default`) for runs without a fault schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Node crashes applied.
    pub crashes: u64,
    /// Node recoveries applied.
    pub recoveries: u64,
    /// Permanent device losses applied.
    pub disk_losses: u64,
    /// Reads that failed because the serving replica's node died mid-read
    /// or no live replica existed at dispatch (retries counted each time).
    pub failed_reads: u64,
    /// Tasks re-run because their worker crashed while they computed.
    pub tasks_rerun: u64,
    /// Jobs abandoned because an input block was lost for good.
    pub failed_jobs: u64,
    /// Files that ended the run with at least one replica-less block.
    pub lost_files: u64,
    /// Bytes written by completed repair transfers.
    pub bytes_re_replicated: ByteSize,
    /// Bytes of erasure-coded shards rebuilt by reconstruction repair
    /// (disjoint from `bytes_re_replicated`).
    pub bytes_reconstructed: ByteSize,
    /// Erasure-coded stripe shards rebuilt by reconstruction repair.
    pub stripes_rebuilt: u64,
    /// Task reads served by decoding an erasure-coded stripe that was
    /// missing a data shard (each pays the degraded-read amplification).
    pub reads_degraded_ec: u64,
    /// Completed repair transfers.
    pub repairs_completed: u64,
    /// When the last fault event fired.
    pub last_fault_at: Option<SimTime>,
    /// When the cluster last transitioned back to "every committed file
    /// fully replicated" (None if it never got there, or never degraded).
    pub full_replication_at: Option<SimTime>,
    /// Outstanding repair debt at run end: bytes the repair pipeline would
    /// still have to write to restore full redundancy (whole blocks per
    /// missing replica, single shards per dead EC shard). Zero for a
    /// quiesced run.
    pub repair_debt_bytes: ByteSize,
}

impl FaultSummary {
    /// Time from the last fault until full replication was restored —
    /// the paper-style "time to re-protect the data" metric. `None` while
    /// the run ended degraded or saw no faults.
    pub fn time_to_full_replication(&self) -> Option<SimDuration> {
        match (self.last_fault_at, self.full_replication_at) {
            (Some(fault), Some(healed)) if healed >= fault => Some(healed.duration_since(fault)),
            _ => None,
        }
    }
}

/// One task's I/O record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskStat {
    /// Tier the input block was actually read from.
    pub read_tier: StorageTier,
    /// True when the read crossed the network.
    pub remote: bool,
    /// Input bytes read.
    pub bytes: ByteSize,
    /// True if the block had a memory replica somewhere at read time —
    /// feeds the "HR by location" metric of Figure 9.
    pub had_memory_replica: bool,
    /// Seconds spent reading input.
    pub read_secs: f64,
    /// Seconds spent computing (includes startup overhead).
    pub cpu_secs: f64,
}

/// One job's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Size bin (Table 3 grouping).
    pub bin: SizeBin,
    /// Submission time.
    pub submit: SimTime,
    /// Completion time (output committed).
    pub finish: SimTime,
    /// Input bytes (whole file).
    pub input_bytes: ByteSize,
    /// Output bytes written.
    pub output_bytes: ByteSize,
    /// Per-task records.
    pub tasks: Vec<TaskStat>,
    /// Seconds the output write took.
    pub output_write_secs: f64,
    /// True when the job was abandoned because an input block was lost
    /// (only possible under fault injection).
    pub failed: bool,
}

impl JobResult {
    /// Wall-clock completion time in seconds.
    pub fn completion_secs(&self) -> f64 {
        self.finish.duration_since(self.submit).as_secs_f64()
    }

    /// Total resource consumption in task-seconds (read + compute + output
    /// write) — the cluster-efficiency currency of §7.2.
    pub fn task_seconds(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.read_secs + t.cpu_secs)
            .sum::<f64>()
            + self.output_write_secs
    }
}

/// A complete simulation outcome for one scenario × workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Scenario label (e.g. "HDFS", "XGB-XGB").
    pub scenario: String,
    /// Workload label (e.g. "FB").
    pub workload: String,
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobResult>,
    /// Replica-movement statistics accumulated by the DFS.
    pub movement: MovementStats,
    /// When the last event fired.
    pub sim_end: SimTime,
    /// Bytes of job input read from each tier, cluster-wide.
    pub bytes_read_by_tier: [ByteSize; 3],
    /// Availability/repair statistics (all-zero without a fault schedule).
    pub faults: FaultSummary,
    /// Block-cache counters (all-zero when the cache is disabled).
    pub cache: CacheStats,
}

impl RunReport {
    /// Total bytes of input read.
    pub fn total_read(&self) -> ByteSize {
        self.bytes_read_by_tier.iter().copied().sum()
    }

    /// Bytes read from memory.
    pub fn read_from_memory(&self) -> ByteSize {
        self.bytes_read_by_tier[StorageTier::Memory.index()]
    }

    /// Mean completion time of *successful* jobs in seconds. Jobs
    /// abandoned to data loss are excluded — their "completion" is the
    /// failure instant, and counting it would reward lossy configurations
    /// with a lower mean.
    pub fn mean_completion_secs(&self) -> f64 {
        let done: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| !j.failed)
            .map(|j| j.completion_secs())
            .collect();
        if done.is_empty() {
            return 0.0;
        }
        done.iter().sum::<f64>() / done.len() as f64
    }

    /// Total task-seconds across all jobs.
    pub fn total_task_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.task_seconds()).sum()
    }
}
