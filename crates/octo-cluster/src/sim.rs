//! The discrete-event cluster simulator.
//!
//! Replays a [`Trace`] against a [`TieredDfs`] under one of the four
//! [`Scenario`]s, with MapReduce-style execution. Traces come from the
//! SWIM-style generator (`octo_workload::generate`), or from event-level
//! access logs compiled down to the same job stream — [`run_event_trace`]
//! is the one-call entry point for the latter:
//!
//! * Each job spawns one map task per input block; tasks occupy node slots
//!   (locality-first FIFO scheduling, deliberately **tier-unaware** — a
//!   task lands on any node with a local replica, which reproduces the
//!   paper's HR-by-access vs HR-by-location gap).
//! * A task reads its block (a bandwidth-model flow from the chosen
//!   replica), computes (`TASK_OVERHEAD + CPU_MS_PER_MB × MB`), then releases
//!   its slot; when all tasks finish the job writes its replicated output
//!   through pipeline flows and completes.
//! * File accesses drive the upgrade policy (before the read starts);
//!   commits and transfer completions drive the downgrade trigger; a
//!   periodic monitor tick feeds the ML policies training samples and runs
//!   the proactive checks.
//! * An optional [`FaultSchedule`] injects node crashes, recoveries, and
//!   permanent disk losses: crashes cancel the transfers and reads they
//!   interrupt, tasks re-run elsewhere, and the Replication Monitor's
//!   repair planner re-replicates under-replicated files with bounded
//!   bandwidth per monitor epoch.
//!
//! Two deliberate fault-model simplifications: output-write pipelines are
//! not interrupted by a crash — the replica landing on the dead node is
//! marked dead at crash time and the committed file is re-protected by the
//! repair planner, approximating HDFS pipeline recovery at zero extra
//! bandwidth cost; and repair never *trims*, so a dead replica that
//! returns after its re-replication landed leaves the block
//! over-replicated (visible in `replication_report`, as in HDFS before
//! excess-replica pruning).
//!
//! Everything is deterministic for a fixed `(trace, config)` pair — fault
//! schedules included.

use crate::resources::ResourceMap;
use crate::runstats::{FaultSummary, JobResult, RunReport, TaskStat};
use crate::scenario::Scenario;
use octo_access::LearnerConfig;
use octo_common::{ByteSize, FileId, FlowId, IdGen, NodeId, SimDuration, SimTime, StorageTier};
use octo_dfs::{
    BlockCache, BlockKey, CacheConfig, CacheLevel, DfsConfig, EpochPool, RepairPlanner, TieredDfs,
    TransferId,
};
use octo_policies::{TieringConfig, TieringEngine};
use octo_simkit::{EventQueue, FlowModel};
use octo_workload::{EventTrace, FaultKind, FaultSchedule, Trace, TraceError};
use std::collections::{HashMap, HashSet, VecDeque};

/// Concurrent task slots per worker node.
const SLOTS_PER_NODE: u32 = 8;

/// Fixed task startup overhead.
const TASK_OVERHEAD: SimDuration = SimDuration::from_millis(1500);

/// CPU milliseconds per input megabyte.
const CPU_MS_PER_MB: f64 = 18.0;

/// Lifetime of temporary (non-durable) job outputs.
const OUTPUT_TTL: SimDuration = SimDuration::from_mins(20);

/// Replication-monitor / policy-tick interval.
pub const MONITOR_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// Byte budget per monitor epoch for repair re-replication.
const REPAIR_BANDWIDTH: ByteSize = ByteSize::gb(2);

/// Read-amplification factor for *degraded* erasure-coded reads — a read
/// that must decode around a missing data shard pulls `k` shards and
/// reconstructs, so its flow carries `penalty × block_size` bytes. Healthy
/// stripes and replicated blocks never pay it.
const EC_DEGRADED_READ_PENALTY: f64 = 1.5;

/// Simulation parameters: the hardware, the policies and the faults to
/// inject. The execution model's constants (task slots, compute cost,
/// output lifetime, monitor interval, repair budget) are fixed above.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster hardware / DFS parameters.
    pub dfs: DfsConfig,
    /// Policy thresholds.
    pub tiering: TieringConfig,
    /// ML learner configuration for the XGB policies.
    pub learner: LearnerConfig,
    /// Which file system variant to simulate.
    pub scenario: Scenario,
    /// Seed for policy-internal sampling.
    pub seed: u64,
    /// Fault schedule to inject (empty = no faults, no repair: behaviour is
    /// bit-identical to a build without fault support).
    pub faults: FaultSchedule,
    /// Worker threads for the per-shard epoch fan-out (policy candidate
    /// scans and repair-candidate collection). 1 scans the shards inline,
    /// through the same code; any value produces byte-identical
    /// simulations — the engine merges per-shard results in shard order.
    pub epoch_threads: usize,
    /// Block-cache configuration. Disabled by default: a run with
    /// `CacheConfig::default()` is bit-identical to one built before the
    /// cache existed. When enabled, task reads consult the sharded L1/L2
    /// cache first — a hit short-circuits flow scheduling entirely and is
    /// served at the level's fixed service time; a miss falls through to
    /// the tiered (or EC-degraded) read and fills the cache on completion.
    pub cache: CacheConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dfs: DfsConfig::default(),
            tiering: TieringConfig::default(),
            learner: LearnerConfig::default(),
            scenario: Scenario::OctopusFs,
            seed: 42,
            faults: FaultSchedule::none(),
            epoch_threads: 1,
            cache: CacheConfig::default(),
        }
    }
}

#[derive(Debug, Clone)]
enum Event {
    Ingest(usize),
    Submit(usize),
    CpuDone {
        job: usize,
        task: usize,
        node: NodeId,
        /// The node's crash epoch when the task started computing: a
        /// mismatch at delivery means the worker died underneath it.
        epoch: u64,
    },
    FlowTick {
        version: u64,
    },
    Monitor,
    DeleteTemp(FileId),
    /// Explicit deletion of a trace input dataset (index into
    /// `Trace::files`), scheduled from `Trace::deletes`.
    DeleteInput(usize),
    Fault(usize),
}

#[derive(Debug, Clone, Copy)]
enum FlowPurpose {
    Read {
        job: usize,
        task: usize,
        src: (NodeId, StorageTier),
        dst: NodeId,
        had_mem: bool,
        start: SimTime,
    },
    OutputBlock {
        job: usize,
    },
    TransferBlock {
        id: TransferId,
    },
}

#[derive(Debug)]
struct TaskRt {
    block: octo_common::BlockId,
    size: ByteSize,
    /// Positional cache key of the block (stable across replica movement,
    /// striping, and repair — unlike any physical location).
    key: BlockKey,
}

/// `(bytes, source device, destination device)` of one in-flight block move.
type MovingBlock = (ByteSize, (NodeId, StorageTier), (NodeId, StorageTier));

/// `(flow, job, task, source device, reader node)` of a read a fault kills.
type DeadRead = (FlowId, usize, usize, (NodeId, StorageTier), NodeId);

#[derive(Debug)]
struct JobRt {
    spec: usize,
    tasks: Vec<TaskRt>,
    done: usize,
    output_file: Option<FileId>,
    output_flows: usize,
    output_write_start: SimTime,
    completion: SimTime,
    stats: Vec<TaskStat>,
    finished: bool,
    /// Abandoned because an input block was lost for good.
    failed: bool,
}

/// The simulator. Construct with [`ClusterSim::new`], run with
/// [`ClusterSim::run`].
pub struct ClusterSim<'t> {
    cfg: SimConfig,
    trace: &'t Trace,
    dfs: TieredDfs,
    engine: TieringEngine,
    queue: EventQueue<Event>,
    flows: FlowModel,
    resources: ResourceMap,
    flow_ids: IdGen,
    flow_purpose: HashMap<FlowId, FlowPurpose>,
    transfer_blocks: HashMap<TransferId, usize>,
    free_slots: Vec<u32>,
    pending: VecDeque<(usize, usize)>,
    jobs: Vec<JobRt>,
    file_map: Vec<Option<FileId>>,
    jobs_remaining: usize,
    bytes_read_by_tier: [ByteSize; 3],
    /// Per-node crash counter; `CpuDone` events carry the epoch they were
    /// scheduled under so work lost to a crash is detected and re-run.
    node_epoch: Vec<u64>,
    /// Tasks with no readable replica right now, parked until a recovery
    /// or repair brings one back.
    blocked: Vec<(usize, usize)>,
    /// Per-node count of not-yet-fired Recover events: zero means a block
    /// whose only copies are dead there is gone for good.
    pending_recoveries: Vec<usize>,
    /// True while a Monitor event sits in the queue (fault handlers re-arm
    /// the monitor without double-scheduling it).
    monitor_armed: bool,
    /// Flow-model version the last scheduled completion wakeup was computed
    /// under. Completion scheduling is batched per version: events that do
    /// not touch the flow model skip the O(flows) next-completion scan, and
    /// the already-scheduled wakeup (same version, earlier or equal time)
    /// still fires — behaviour is bit-identical because a same-version
    /// duplicate wakeup never completes anything the first one does not.
    scheduled_flow_version: Option<u64>,
    repair: RepairPlanner,
    fstats: FaultSummary,
    /// Worker pool for the per-shard epoch fan-out ([`SimConfig::epoch_threads`]).
    pool: EpochPool,
    /// The sharded L1/L2 block cache, present only when
    /// [`SimConfig::cache`] is enabled. Touched exclusively from the serial
    /// event loop, so determinism at any `epoch_threads` width is free.
    cache: Option<BlockCache>,
}

impl<'t> ClusterSim<'t> {
    /// Builds a simulator over `trace`.
    pub fn new(cfg: SimConfig, trace: &'t Trace) -> Self {
        // Reject bad cache parameters at sim start — a >1 or non-finite
        // compression ratio or a zero-byte per-shard capacity would only
        // surface later as silently wrong L2 charges.
        cfg.cache.validate().expect("valid cache config");
        let mut dfs = TieredDfs::new(cfg.dfs.clone()).expect("valid DFS config");
        cfg.scenario.configure_dfs(&mut dfs);
        let engine = cfg
            .scenario
            .build_engine(&cfg.tiering, &cfg.learner, cfg.seed);
        let mut flows = FlowModel::new();
        let resources = ResourceMap::new(&cfg.dfs, &mut flows);
        let mut queue = EventQueue::new();

        for (i, f) in trace.files.iter().enumerate() {
            queue.schedule(f.created, Event::Ingest(i));
        }
        for (i, j) in trace.jobs.iter().enumerate() {
            queue.schedule(j.submit, Event::Submit(i));
        }
        // Scheduled after the submit loop so a same-instant job still sees
        // the file (the event queue is FIFO for simultaneous events).
        for d in &trace.deletes {
            queue.schedule(d.at, Event::DeleteInput(d.file));
        }
        for (i, ev) in cfg.faults.events().iter().enumerate() {
            queue.schedule(ev.at, Event::Fault(i));
        }
        queue.schedule(SimTime::ZERO + MONITOR_INTERVAL, Event::Monitor);

        let workers = cfg.dfs.workers as usize;
        let pending_recoveries = (0..workers)
            .map(|n| cfg.faults.recoveries_for(NodeId(n as u32)))
            .collect();
        ClusterSim {
            free_slots: vec![SLOTS_PER_NODE; workers],
            jobs_remaining: trace.jobs.len(),
            file_map: vec![None; trace.files.len()],
            jobs: Vec::with_capacity(trace.jobs.len()),
            node_epoch: vec![0; workers],
            blocked: Vec::new(),
            pending_recoveries,
            monitor_armed: true,
            scheduled_flow_version: None,
            repair: RepairPlanner::new(REPAIR_BANDWIDTH),
            fstats: FaultSummary::default(),
            pool: EpochPool::new(cfg.epoch_threads),
            cache: cfg
                .cache
                .enabled
                .then(|| BlockCache::new(cfg.cache.clone())),
            cfg,
            trace,
            dfs,
            engine,
            queue,
            flows,
            resources,
            flow_ids: IdGen::new(),
            flow_purpose: HashMap::new(),
            transfer_blocks: HashMap::new(),
            pending: VecDeque::new(),
            bytes_read_by_tier: [ByteSize::ZERO; 3],
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> RunReport {
        // Runaway guard: every externally-scheduled event (ingests, job
        // submissions, input deletions, faults) is known up front, so if
        // the clock gets 48 h past the last of them, internal event
        // scheduling has gone into a loop. Relative to the trace end, not
        // absolute, so long audit-log traces replay fine.
        let input_end = self
            .trace
            .files
            .iter()
            .map(|f| f.created)
            .chain(self.trace.jobs.iter().map(|j| j.submit))
            .chain(self.trace.deletes.iter().map(|d| d.at))
            .chain(self.cfg.faults.events().iter().map(|e| e.at))
            .max()
            .unwrap_or(SimTime::ZERO);
        let horizon = input_end + SimDuration::from_hours(48);
        while let Some((now, ev)) = self.queue.pop() {
            assert!(now < horizon, "simulation ran away past {horizon}");
            self.handle(ev, now);
            self.pump();
        }
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                debug_assert!(j.finished, "job {} never finished", j.spec);
                let spec = &self.trace.jobs[j.spec];
                JobResult {
                    bin: spec.bin,
                    submit: spec.submit,
                    finish: j.completion,
                    input_bytes: self.trace.files[spec.input].size,
                    output_bytes: spec.output_size,
                    tasks: j.stats.clone(),
                    // A failed job never wrote output: its completion is
                    // the failure instant, not a write duration.
                    output_write_secs: if j.failed {
                        0.0
                    } else {
                        j.completion
                            .duration_since(j.output_write_start)
                            .as_secs_f64()
                    },
                    failed: j.failed,
                }
            })
            .collect();
        let movement = *self.dfs.movement_stats();
        self.fstats.bytes_re_replicated = movement.bytes_re_replicated();
        self.fstats.bytes_reconstructed = movement.bytes_reconstructed();
        self.fstats.stripes_rebuilt = self.dfs.blocks().stripes_rebuilt();
        self.fstats.repairs_completed = movement.repairs_completed;
        // Walks the incrementally-maintained degraded set (every lost block
        // — replica-less and, for striped blocks, below `k` present shards
        // — is deficient), not the whole namespace.
        self.fstats.lost_files = self.dfs.lost_files().count() as u64;
        self.fstats.repair_debt_bytes = self.dfs.repair_debt_bytes();
        RunReport {
            scenario: self.cfg.scenario.label(),
            workload: self.trace.kind.label().to_string(),
            jobs,
            movement,
            sim_end: self.queue.now(),
            bytes_read_by_tier: self.bytes_read_by_tier,
            faults: self.fstats,
            cache: self.cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
            learners: self.engine.learners(),
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::Ingest(i) => self.handle_ingest(i, now),
            Event::Submit(i) => self.handle_submit(i, now),
            Event::CpuDone {
                job,
                task,
                node,
                epoch,
            } => self.handle_cpu_done(job, task, node, epoch, now),
            Event::FlowTick { version } => self.handle_flow_tick(version, now),
            Event::Monitor => self.handle_monitor(now),
            Event::DeleteTemp(file) => self.handle_delete_temp(file, now),
            Event::DeleteInput(idx) => self.handle_delete_input(idx, now),
            Event::Fault(i) => self.handle_fault(i, now),
        }
    }

    fn handle_ingest(&mut self, idx: usize, now: SimTime) {
        let spec = &self.trace.files[idx];
        // Ingestion is modelled as an instant commit: space accounting is
        // what matters for tiering decisions; ingest bandwidth is not part
        // of any reported metric.
        match self.dfs.create_file(&spec.path, spec.size, now) {
            Ok(plan) => {
                self.dfs.commit_file(plan.file, now).expect("fresh file");
                self.file_map[idx] = Some(plan.file);
                self.engine.notify_created(&self.dfs, plan.file, now);
                // HDFS cache directives: new files get cached on ingest
                // until memory fills (no automatic uncaching ever).
                if self.cfg.scenario.caches_on_access() {
                    if let Ok(id) = self.dfs.plan_cache_copy(plan.file, StorageTier::Memory) {
                        self.execute_transfers(vec![id], now);
                    }
                }
                self.check_downgrades(now);
            }
            Err(_) => {
                // Cluster out of space: the dataset never materializes and
                // jobs reading it will be skipped (counted as failed).
            }
        }
    }

    fn handle_submit(&mut self, idx: usize, now: SimTime) {
        let spec = &self.trace.jobs[idx];
        let Some(file) = self.file_map[spec.input] else {
            // Input never ingested (out of capacity): job cannot run.
            self.jobs_remaining -= 1;
            return;
        };
        // Record the access and let policies react *before* the read (§6).
        self.dfs.record_access(file, now).expect("committed input");
        self.engine.notify_accessed(&self.dfs, file, now);
        if self.cfg.scenario.caches_on_access()
            && !self.dfs.file_fully_on_tier(file, StorageTier::Memory)
        {
            if let Ok(id) = self.dfs.plan_cache_copy(file, StorageTier::Memory) {
                self.execute_transfers(vec![id], now);
            }
        }
        let planned = self.engine.run_upgrade(&mut self.dfs, Some(file), now);
        self.execute_transfers(planned, now);

        // One map task per block.
        let tasks: Vec<TaskRt> = self
            .dfs
            .file_meta(file)
            .expect("live input")
            .blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| TaskRt {
                block: b,
                size: self.dfs.block_info(b).size,
                key: BlockKey::new(file, i as u32),
            })
            .collect();
        let job_idx = self.jobs.len();
        let n_tasks = tasks.len();
        self.jobs.push(JobRt {
            spec: idx,
            tasks,
            done: 0,
            output_file: None,
            output_flows: 0,
            output_write_start: now,
            completion: now,
            stats: Vec::with_capacity(n_tasks),
            finished: false,
            failed: false,
        });
        for t in 0..n_tasks {
            self.pending.push_back((job_idx, t));
        }
        self.schedule_tasks(now);
    }

    /// Locality-first FIFO assignment of pending tasks to free slots.
    fn schedule_tasks(&mut self, now: SimTime) {
        loop {
            let mut assigned = false;
            for node_i in 0..self.free_slots.len() {
                if self.free_slots[node_i] == 0 || self.pending.is_empty() {
                    continue;
                }
                let node = NodeId(node_i as u32);
                // Prefer a task with a live replica on this node (any tier
                // — the scheduler is tier-unaware), else the oldest task.
                let pos = self
                    .pending
                    .iter()
                    .position(|(j, t)| {
                        let block = self.jobs[*j].tasks[*t].block;
                        self.dfs
                            .block_info(block)
                            .replicas()
                            .iter()
                            .any(|r| r.node == node && !r.dead)
                    })
                    .unwrap_or(0);
                let (job, task) = self.pending.remove(pos).expect("non-empty");
                self.free_slots[node_i] -= 1;
                self.start_task_read(job, task, node, now);
                assigned = true;
            }
            if !assigned {
                break;
            }
        }
    }

    fn start_task_read(&mut self, job: usize, task: usize, node: NodeId, now: SimTime) {
        if self.jobs[job].finished {
            // The job failed while this task waited for a slot.
            self.free_slots[node.index()] += 1;
            return;
        }
        let block = self.jobs[job].tasks[task].block;
        let size = self.jobs[job].tasks[task].size;
        // The block cache sits in front of replica selection entirely: a
        // hit is served at the level's service time with no flow, no device
        // I/O, and no dependence on replica health — cached payloads keep
        // serving even while every DFS copy is dead (the cache is *not* a
        // replica, though: repair and loss accounting never count it).
        if let Some(cache) = self.cache.as_mut() {
            let key = self.jobs[job].tasks[task].key;
            if let Some(level) = cache.lookup(key, size) {
                self.finish_cached_read(job, task, node, level, size, now);
                return;
            }
        }
        let info = self.dfs.block_info(block);
        // Best reachable live replica: local first, then fastest tier.
        let src = info
            .replicas()
            .iter()
            .filter(|r| !r.dead)
            .max_by_key(|r| (r.node == node, r.tier.rank(), std::cmp::Reverse(r.node)))
            .map(|r| (r.node, r.tier));
        let Some(src) = src else {
            // No live replica. Erasure-coded blocks can still serve the read
            // by decoding the stripe from any `k` live shards; the flow is
            // anchored at the best surviving shard and, when a *data* shard
            // is among the missing, carries the degraded-read amplification.
            if let Some((src, degraded)) = self.stripe_read_source(block, node) {
                let flow_bytes = if degraded {
                    self.fstats.reads_degraded_ec += 1;
                    amplified_read_bytes(size, EC_DEGRADED_READ_PENALTY)
                } else {
                    size
                };
                self.dfs.io_started(src.0, src.1);
                let id = FlowId(self.flow_ids.next_raw());
                let path = self.resources.read_path(src, node);
                self.flows.start_flow(now, id, flow_bytes, path);
                self.flow_purpose.insert(
                    id,
                    FlowPurpose::Read {
                        job,
                        task,
                        src,
                        dst: node,
                        had_mem: false,
                        start: now,
                    },
                );
                return;
            }
            // No readable copy right now: park the task if a recovery can
            // bring one back, abandon the job otherwise.
            self.free_slots[node.index()] += 1;
            self.fstats.failed_reads += 1;
            if self.block_recoverable(block) {
                self.blocked.push((job, task));
            } else {
                self.fail_job(job, now);
            }
            return;
        };
        let had_mem = info
            .replicas()
            .iter()
            .any(|r| r.tier == StorageTier::Memory && !r.dead);
        self.dfs.io_started(src.0, src.1);
        let id = FlowId(self.flow_ids.next_raw());
        let path = self.resources.read_path(src, node);
        self.flows.start_flow(now, id, size, path);
        self.flow_purpose.insert(
            id,
            FlowPurpose::Read {
                job,
                task,
                src,
                dst: node,
                had_mem,
                start: now,
            },
        );
    }

    /// Completes a task read served by the block cache: no flow, no device
    /// I/O — the read costs the level's fixed service time, then the task
    /// computes as usual. L1 hits report as memory-tier reads, L2 hits as
    /// SSD-tier reads, so hit-ratio metrics see the cache's effect.
    fn finish_cached_read(
        &mut self,
        job: usize,
        task: usize,
        node: NodeId,
        level: CacheLevel,
        size: ByteSize,
        now: SimTime,
    ) {
        let (tier, had_mem) = match level {
            CacheLevel::L1 => (StorageTier::Memory, true),
            CacheLevel::L2 => (StorageTier::Ssd, false),
        };
        let svc = level.service_time(size);
        let cpu = cpu_time(size);
        self.bytes_read_by_tier[tier.index()] += size;
        self.jobs[job].stats.push(TaskStat {
            read_tier: tier,
            remote: false,
            bytes: size,
            had_memory_replica: had_mem,
            read_secs: svc.as_secs_f64(),
            cpu_secs: cpu.as_secs_f64(),
        });
        // The epoch stamp keeps cache-served tasks crash-safe exactly like
        // flow-served ones: if `node` dies before this fires, the stale
        // epoch re-queues the task elsewhere.
        self.queue.schedule(
            now + svc + cpu,
            Event::CpuDone {
                job,
                task,
                node,
                epoch: self.node_epoch[node.index()],
            },
        );
    }

    fn handle_flow_tick(&mut self, version: u64, now: SimTime) {
        if version != self.flows.version() {
            return; // stale completion prediction
        }
        let done = self.flows.collect_completed(now);
        for id in done {
            let purpose = self
                .flow_purpose
                .remove(&id)
                .expect("every flow has a purpose");
            match purpose {
                FlowPurpose::Read {
                    job,
                    task,
                    src,
                    dst,
                    had_mem,
                    start,
                } => self.finish_task_read(job, task, src, dst, had_mem, start, now),
                FlowPurpose::OutputBlock { job } => self.finish_output_block(job, now),
                FlowPurpose::TransferBlock { id } => self.finish_transfer_block(id, now),
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_task_read(
        &mut self,
        job: usize,
        task: usize,
        src: (NodeId, StorageTier),
        dst: NodeId,
        had_mem: bool,
        start: SimTime,
        now: SimTime,
    ) {
        self.dfs.io_finished(src.0, src.1);
        if self.jobs[job].finished {
            // The job failed while this read ran: release the slot only.
            self.free_slots[dst.index()] += 1;
            self.schedule_tasks(now);
            return;
        }
        let size = self.jobs[job].tasks[task].size;
        // Miss fill: the block just streamed past the reader, so cache it.
        // Degraded EC reads fill too — that is where the cache pays most,
        // since every subsequent hit skips the decode amplification.
        if let Some(cache) = self.cache.as_mut() {
            cache.insert(self.jobs[job].tasks[task].key, size);
        }
        let read_secs = now.duration_since(start).as_secs_f64();
        let cpu = cpu_time(size);
        self.bytes_read_by_tier[src.1.index()] += size;
        self.jobs[job].stats.push(TaskStat {
            read_tier: src.1,
            remote: src.0 != dst,
            bytes: size,
            had_memory_replica: had_mem,
            read_secs,
            cpu_secs: cpu.as_secs_f64(),
        });
        self.queue.schedule(
            now + cpu,
            Event::CpuDone {
                job,
                task,
                node: dst,
                epoch: self.node_epoch[dst.index()],
            },
        );
    }

    fn handle_cpu_done(&mut self, job: usize, task: usize, node: NodeId, epoch: u64, now: SimTime) {
        if epoch != self.node_epoch[node.index()] {
            // The worker died while this task computed: its slot vanished
            // with the crash; the work must be redone elsewhere.
            if !self.jobs[job].finished {
                self.fstats.tasks_rerun += 1;
                self.pending.push_back((job, task));
                self.schedule_tasks(now);
            }
            return;
        }
        self.free_slots[node.index()] += 1;
        if self.jobs[job].finished {
            self.schedule_tasks(now);
            return;
        }
        self.jobs[job].done += 1;
        if self.jobs[job].done == self.jobs[job].tasks.len() {
            self.start_output_write(job, now);
        }
        self.schedule_tasks(now);
    }

    fn start_output_write(&mut self, job: usize, now: SimTime) {
        let spec_idx = self.jobs[job].spec;
        let spec = &self.trace.jobs[spec_idx];
        let out_path = format!("/out/{}/job{:05}", self.trace.kind.label(), spec_idx);
        self.jobs[job].output_write_start = now;
        match self.dfs.create_file(&out_path, spec.output_size, now) {
            Ok(plan) => {
                self.jobs[job].output_file = Some(plan.file);
                self.jobs[job].output_flows = plan.blocks.len();
                for bw in &plan.blocks {
                    let id = FlowId(self.flow_ids.next_raw());
                    let path = self.resources.write_pipeline_path(&bw.replicas);
                    self.flows.start_flow(now, id, bw.size, path);
                    self.flow_purpose
                        .insert(id, FlowPurpose::OutputBlock { job });
                }
            }
            Err(_) => {
                // No room anywhere for the output: finish without it.
                self.finish_job(job, now);
            }
        }
    }

    fn finish_output_block(&mut self, job: usize, now: SimTime) {
        self.jobs[job].output_flows -= 1;
        if self.jobs[job].output_flows > 0 {
            return;
        }
        let file = self.jobs[job].output_file.expect("output in progress");
        self.dfs
            .commit_file(file, now)
            .expect("output just written");
        // A crash mid-write may have left this file's replicas dead; they
        // only become visible to the degraded set once it is committed.
        self.refresh_heal_state(now);
        self.engine.notify_created(&self.dfs, file, now);
        let spec = &self.trace.jobs[self.jobs[job].spec];
        if !spec.output_durable {
            self.queue
                .schedule(now + OUTPUT_TTL, Event::DeleteTemp(file));
        }
        self.finish_job(job, now);
        self.check_downgrades(now);
    }

    fn finish_job(&mut self, job: usize, now: SimTime) {
        let j = &mut self.jobs[job];
        debug_assert!(!j.finished, "double finish");
        j.finished = true;
        j.completion = now;
        self.jobs_remaining -= 1;
    }

    /// Abandons a job whose input can never be read again (a block lost
    /// every replica): its queued tasks are purged; reads already in flight
    /// release their slots as they land.
    fn fail_job(&mut self, job: usize, now: SimTime) {
        if self.jobs[job].finished {
            return;
        }
        self.finish_job(job, now);
        self.jobs[job].failed = true;
        self.fstats.failed_jobs += 1;
        self.pending.retain(|&(j, _)| j != job);
        self.blocked.retain(|&(j, _)| j != job);
    }

    fn handle_monitor(&mut self, now: SimTime) {
        self.monitor_armed = false;
        self.engine.tick(&self.dfs, now);
        let planned = self.engine.run_upgrade(&mut self.dfs, None, now);
        self.execute_transfers(planned, now);
        self.check_downgrades(now);
        if !self.cfg.faults.is_empty() || self.dfs.config().has_erasure() {
            // The Replication Monitor's repair epoch: restore redundancy
            // (re-replication and stripe reconstruction, interleaved)
            // within the per-epoch byte budget. With erasure coding it also
            // runs fault-free: de-striping upgrades leave a single replica
            // behind that the monitor tops back up to the tier's target.
            let planned = self.repair.plan_epoch(&mut self.dfs, &self.pool);
            self.execute_transfers(planned, now);
            self.unpark_ready_tasks(now);
            // A permanently dead cluster (every worker down, nobody coming
            // back) can make no progress: fail the submitted jobs so the
            // run terminates instead of ticking into the horizon assert.
            if self.dfs.nodes().alive_count() == 0
                && self.pending_recoveries.iter().all(|n| *n == 0)
            {
                for job in 0..self.jobs.len() {
                    self.fail_job(job, now);
                }
            }
        }
        // Keep ticking while there is anything left to drive.
        if self.jobs_remaining > 0 || self.dfs.transfers_in_flight() > 0 {
            self.arm_monitor(now);
        }
    }

    fn arm_monitor(&mut self, now: SimTime) {
        if !self.monitor_armed {
            self.monitor_armed = true;
            self.queue.schedule(now + MONITOR_INTERVAL, Event::Monitor);
        }
    }

    fn handle_delete_temp(&mut self, file: FileId, now: SimTime) {
        match self.dfs.delete_file(file) {
            Ok(_) => {
                self.engine.notify_deleted(file, now);
                if let Some(cache) = self.cache.as_mut() {
                    cache.invalidate_file(file);
                }
            }
            Err(e) if e.kind() == "invalid_state" => {
                // A transfer is in flight for it; try again shortly.
                self.queue
                    .schedule(now + SimDuration::from_mins(2), Event::DeleteTemp(file));
            }
            Err(_) => {} // already gone
        }
    }

    /// Deletes a trace input dataset. The trace compiler guarantees no job
    /// *submits* at or after the deletion instant, but jobs submitted
    /// earlier may still be reading the file — deletion politely waits for
    /// them (and for any in-flight policy transfer) with a short retry.
    fn handle_delete_input(&mut self, idx: usize, now: SimTime) {
        let Some(file) = self.file_map[idx] else {
            return; // never ingested (cluster was out of space)
        };
        let busy = self
            .jobs
            .iter()
            .any(|j| !j.finished && self.trace.jobs[j.spec].input == idx);
        if busy {
            self.queue
                .schedule(now + SimDuration::from_mins(2), Event::DeleteInput(idx));
            return;
        }
        match self.dfs.delete_file(file) {
            Ok(_) => {
                self.engine.notify_deleted(file, now);
                if let Some(cache) = self.cache.as_mut() {
                    cache.invalidate_file(file);
                }
                self.file_map[idx] = None;
                // Deleting an under-replicated file can empty the degraded
                // set: the availability clock must see that transition.
                self.refresh_heal_state(now);
            }
            Err(e) if e.kind() == "invalid_state" => {
                // A transfer is in flight for it; try again shortly.
                self.queue
                    .schedule(now + SimDuration::from_mins(2), Event::DeleteInput(idx));
            }
            Err(_) => {} // already gone (e.g. lost to a fault)
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn handle_fault(&mut self, idx: usize, now: SimTime) {
        let ev = self.cfg.faults.events()[idx];
        match ev.kind {
            FaultKind::Crash => self.apply_crash(ev.node, now),
            FaultKind::Recover => self.apply_recovery(ev.node, now),
            FaultKind::DiskLoss(tier) => self.apply_disk_loss(ev.node, tier, now),
        }
    }

    /// Registers a fault instant: the heal clock restarts, and
    /// `refresh_heal_state` re-stamps it right away when the fault turned
    /// out not to degrade anything.
    fn note_fault(&mut self, now: SimTime) {
        self.fstats.last_fault_at = Some(now);
        self.fstats.full_replication_at = None;
    }

    fn apply_crash(&mut self, node: NodeId, now: SimTime) {
        self.fstats.crashes += 1;
        self.note_fault(now);
        let failure = self
            .dfs
            .fail_node(node)
            .expect("schedule alternation valid");
        self.kill_transfer_flows(&failure.cancelled_transfers, now);

        // Reads served by the node (source died) or running on it (reader
        // died) fail mid-flight. Sorted by flow id: `flow_purpose` is a
        // HashMap and the retry order must stay deterministic.
        let mut dead_reads: Vec<DeadRead> = self
            .flow_purpose
            .iter()
            .filter_map(|(fid, p)| match *p {
                FlowPurpose::Read {
                    job,
                    task,
                    src,
                    dst,
                    ..
                } if src.0 == node || dst == node => Some((*fid, job, task, src, dst)),
                _ => None,
            })
            .collect();
        dead_reads.sort_unstable_by_key(|t| t.0);
        // The node serves nothing and runs nothing until it recovers; every
        // CpuDone scheduled under the old epoch is now stale.
        self.node_epoch[node.index()] += 1;
        self.free_slots[node.index()] = 0;
        for (fid, job, task, src, dst) in dead_reads {
            self.flows.cancel_flow(now, fid);
            self.flow_purpose.remove(&fid);
            self.dfs.io_finished(src.0, src.1);
            self.fstats.failed_reads += 1;
            if dst == node {
                // The reader died with its slot; the task re-runs elsewhere.
                if !self.jobs[job].finished {
                    self.pending.push_back((job, task));
                }
            } else {
                // The source died; the reader retries from another replica
                // without giving up its slot.
                self.start_task_read(job, task, dst, now);
            }
        }
        self.refresh_heal_state(now);
        self.arm_monitor(now);
        self.schedule_tasks(now);
    }

    fn apply_recovery(&mut self, node: NodeId, now: SimTime) {
        self.fstats.recoveries += 1;
        self.pending_recoveries[node.index()] -= 1;
        self.dfs
            .recover_node(node)
            .expect("schedule alternation valid");
        self.free_slots[node.index()] = SLOTS_PER_NODE;
        self.unpark_ready_tasks(now);
        self.refresh_heal_state(now);
        if self.dfs.has_under_redundant() {
            self.arm_monitor(now);
        }
        self.schedule_tasks(now);
    }

    fn apply_disk_loss(&mut self, node: NodeId, tier: StorageTier, now: SimTime) {
        self.fstats.disk_losses += 1;
        self.note_fault(now);
        let failure = self.dfs.lose_device(node, tier).expect("device exists");
        self.kill_transfer_flows(&failure.cancelled_transfers, now);
        // Reads streaming from the destroyed device retry from another
        // replica; the reader keeps its slot.
        let mut dead_reads: Vec<(FlowId, usize, usize, NodeId)> = self
            .flow_purpose
            .iter()
            .filter_map(|(fid, p)| match *p {
                FlowPurpose::Read {
                    job,
                    task,
                    src,
                    dst,
                    ..
                } if src == (node, tier) => Some((*fid, job, task, dst)),
                _ => None,
            })
            .collect();
        dead_reads.sort_unstable_by_key(|t| t.0);
        for (fid, job, task, dst) in dead_reads {
            self.flows.cancel_flow(now, fid);
            self.flow_purpose.remove(&fid);
            self.dfs.io_finished(node, tier);
            self.fstats.failed_reads += 1;
            self.start_task_read(job, task, dst, now);
        }
        self.refresh_heal_state(now);
        self.arm_monitor(now);
        self.schedule_tasks(now);
    }

    /// Anchor device for an erasure-coded read of `block`, if its stripe can
    /// decode right now (≥ `k` live shards). The flow is modelled from one
    /// shard — local to the reader if possible, else the fastest tier —
    /// and the bool reports whether the read is *degraded* (a data shard is
    /// missing, so the reader must pull parity and reconstruct).
    fn stripe_read_source(
        &self,
        block: octo_common::BlockId,
        reader: NodeId,
    ) -> Option<((NodeId, StorageTier), bool)> {
        let s = self.dfs.blocks().stripe(block)?;
        if !s.is_readable() {
            return None;
        }
        let anchor = s.shards.iter().filter(|sh| !sh.dead).max_by_key(|sh| {
            (
                sh.node == reader,
                sh.tier.rank(),
                std::cmp::Reverse(sh.node),
            )
        })?;
        Some(((anchor.node, anchor.tier), s.needs_degraded_read()))
    }

    /// True when `block` can serve a read right now: a live replica, or an
    /// erasure-coded stripe with enough live shards to decode.
    fn block_readable(&self, block: octo_common::BlockId) -> bool {
        !self.dfs.block_info(block).is_unavailable()
            || self
                .dfs
                .blocks()
                .stripe(block)
                .is_some_and(|s| s.is_readable())
    }

    /// True when some dead replica or shard of `block` sits on a node with
    /// a recovery still scheduled — the block may become readable again
    /// without repair, so parked tasks should wait rather than fail.
    fn block_recoverable(&self, block: octo_common::BlockId) -> bool {
        let will_recover = |n: NodeId| self.pending_recoveries[n.index()] > 0;
        self.dfs
            .block_info(block)
            .replicas()
            .iter()
            .any(|r| r.dead && will_recover(r.node))
            || self
                .dfs
                .blocks()
                .stripe(block)
                .is_some_and(|s| s.shards.iter().any(|sh| sh.dead && will_recover(sh.node)))
    }

    /// Re-queues parked tasks whose block is readable again. Tasks whose
    /// block is still unavailable stay parked without a read attempt (so
    /// `failed_reads` counts genuine dispatch failures, not poll retries);
    /// tasks whose block can no longer come back fail their job.
    fn unpark_ready_tasks(&mut self, now: SimTime) {
        if self.blocked.is_empty() {
            return;
        }
        let blocked = std::mem::take(&mut self.blocked);
        for (job, task) in blocked {
            if self.jobs[job].finished {
                continue;
            }
            let block = self.jobs[job].tasks[task].block;
            if self.block_readable(block) {
                self.pending.push_back((job, task));
            } else if self.block_recoverable(block) {
                self.blocked.push((job, task));
            } else {
                // Every copy is gone and nobody is coming back for the
                // dead ones: the input is lost.
                self.fail_job(job, now);
            }
        }
        self.schedule_tasks(now);
    }

    /// Cancels the I/O flows of transfers the DFS already cancelled.
    fn kill_transfer_flows(&mut self, cancelled: &[TransferId], now: SimTime) {
        if cancelled.is_empty() {
            return;
        }
        let set: HashSet<TransferId> = cancelled.iter().copied().collect();
        let mut flows: Vec<FlowId> = self
            .flow_purpose
            .iter()
            .filter_map(|(fid, p)| match p {
                FlowPurpose::TransferBlock { id } if set.contains(id) => Some(*fid),
                _ => None,
            })
            .collect();
        flows.sort_unstable();
        for fid in flows {
            self.flows.cancel_flow(now, fid);
            self.flow_purpose.remove(&fid);
        }
        for id in cancelled {
            self.transfer_blocks.remove(id);
        }
    }

    /// Tracks the degraded → fully-replicated transition for the
    /// time-to-full-replication availability metric.
    fn refresh_heal_state(&mut self, now: SimTime) {
        if self.cfg.faults.is_empty() {
            return;
        }
        if self.dfs.has_under_redundant() {
            self.fstats.full_replication_at = None;
        } else if self.fstats.last_fault_at.is_some() && self.fstats.full_replication_at.is_none() {
            self.fstats.full_replication_at = Some(now);
        }
    }

    // ------------------------------------------------------------------
    // Replica movement execution
    // ------------------------------------------------------------------

    fn check_downgrades(&mut self, now: SimTime) {
        for tier in [StorageTier::Memory, StorageTier::Ssd] {
            let planned = self
                .engine
                .run_downgrade_pooled(&mut self.dfs, tier, now, &self.pool);
            self.execute_transfers(planned, now);
        }
    }

    fn execute_transfers(&mut self, planned: Vec<TransferId>, now: SimTime) {
        for id in planned {
            // Extract only what the flows need instead of cloning the whole
            // transfer (with its per-block action list) for each plan.
            let moving: Vec<MovingBlock> = self
                .dfs
                .transfer(id)
                .expect("just planned")
                .blocks
                .iter()
                .filter(|bt| bt.action.moves_bytes())
                .map(|bt| {
                    let dst = bt.action.destination().expect("moving actions land");
                    (bt.size, bt.action.source(), dst)
                })
                .collect();
            if moving.is_empty() {
                // Pure drops apply instantly.
                self.dfs.complete_transfer(id).expect("drop-only transfer");
                continue;
            }
            self.transfer_blocks.insert(id, moving.len());
            for (size, src, dst) in moving {
                let fid = FlowId(self.flow_ids.next_raw());
                let path = self.resources.transfer_path(src, dst);
                self.flows.start_flow(now, fid, size, path);
                self.flow_purpose
                    .insert(fid, FlowPurpose::TransferBlock { id });
            }
        }
    }

    fn finish_transfer_block(&mut self, id: TransferId, now: SimTime) {
        let remaining = self
            .transfer_blocks
            .get_mut(&id)
            .expect("transfer in progress");
        *remaining -= 1;
        if *remaining > 0 {
            return;
        }
        self.transfer_blocks.remove(&id);
        let t = self.dfs.complete_transfer(id).expect("all blocks landed");
        if t.kind == octo_dfs::TransferKind::Repair {
            self.refresh_heal_state(now);
        }
        // Upgrades and repairs fill tiers: re-check the downgrade trigger.
        if t.kind != octo_dfs::TransferKind::Downgrade {
            self.check_downgrades(now);
        }
    }

    /// Schedules the next flow-completion wakeup (stale ones are ignored).
    /// Batched per flow-model version: if the model has not changed since
    /// the last scheduled wakeup, that wakeup is still valid and nothing
    /// needs recomputing.
    fn pump(&mut self) {
        if self.scheduled_flow_version == Some(self.flows.version()) {
            return;
        }
        if let Some((t, v)) = self.flows.next_completion(self.queue.now()) {
            self.queue.schedule(t, Event::FlowTick { version: v });
            self.scheduled_flow_version = Some(v);
        }
    }
}

/// A task's compute time over `size` input bytes.
fn cpu_time(size: ByteSize) -> SimDuration {
    TASK_OVERHEAD + SimDuration::from_millis((CPU_MS_PER_MB * size.as_mb_f64()) as u64)
}

/// Bytes a degraded erasure-coded read actually moves: `penalty × size`,
/// rounded **up**. The old `as u64` cast truncated toward zero, which let
/// an amplified read carry fewer bytes than its nominal amplification (and,
/// for sub-byte products, fewer than a naive reading of the model implies).
/// Ceiling keeps the invariant `amplified >= size` for any penalty ≥ 1.
fn amplified_read_bytes(size: ByteSize, penalty: f64) -> ByteSize {
    ByteSize::from_bytes((size.as_bytes() as f64 * penalty).ceil() as u64)
}

/// Convenience: build and run in one call.
pub fn run_trace(cfg: SimConfig, trace: &Trace) -> RunReport {
    ClusterSim::new(cfg, trace).run()
}

/// Compiles an event-level access trace (parsed JSONL/CSV or a
/// `octo_workload::synth` product) and runs it in one call. The report's
/// workload label is the trace's name rather than the generic `SYN` tag,
/// so matrix reports stay readable.
pub fn run_event_trace(cfg: SimConfig, events: &EventTrace) -> Result<RunReport, TraceError> {
    let trace = events.compile()?;
    let mut report = run_trace(cfg, &trace);
    report.workload = events.name.clone();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the truncating `as u64` cast: a 1-byte degraded read
    /// at penalty 1.5 must carry 2 bytes (ceiling), not 1 (floor). The old
    /// code returned 1 here — amplification silently rounded away.
    #[test]
    fn degraded_read_amplification_rounds_up() {
        assert_eq!(
            amplified_read_bytes(ByteSize::from_bytes(1), 1.5),
            ByteSize::from_bytes(2)
        );
        assert_eq!(
            amplified_read_bytes(ByteSize::from_bytes(3), 1.5),
            ByteSize::from_bytes(5),
            "4.5 bytes of traffic round up to 5"
        );
        // Integral products are exact — which is why the pinned EC(4,2)
        // golden digest did not move with this fix: quick-run blocks are
        // whole mebibytes, so penalty × size never had a fractional part.
        assert_eq!(
            amplified_read_bytes(ByteSize::mb(128), 1.5),
            ByteSize::mb(192)
        );
    }

    /// The model invariant: an amplified read never carries fewer bytes
    /// than the block itself for any penalty ≥ 1.
    #[test]
    fn degraded_read_amplification_never_shrinks() {
        for bytes in [1u64, 3, 7, 1000, 128 * 1024 * 1024, u32::MAX as u64] {
            for penalty in [1.0, 1.1, 1.5, 2.0, 3.7] {
                let size = ByteSize::from_bytes(bytes);
                let amplified = amplified_read_bytes(size, penalty);
                assert!(
                    amplified >= size,
                    "amplified({bytes}, {penalty}) = {} < {bytes}",
                    amplified.as_bytes()
                );
            }
        }
    }
}
