//! The DFSIO-style throughput benchmark (paper §3.1, Figure 2).
//!
//! Writes `total` bytes as fixed-size files with one concurrent writer per
//! node, then reads every file back with one concurrent reader per node.
//! Reports the average per-node throughput in windows along the x-axis
//! ("Data Written/Read (GB)"), which is exactly how Figure 2 plots the
//! memory-exhaustion cliff of static placement and its absence under
//! Octopus++'s proactive downgrades.

use crate::resources::ResourceMap;
use crate::scenario::Scenario;
use octo_access::LearnerConfig;
use octo_common::{ByteSize, FileId, FlowId, IdGen, NodeId, SimDuration, SimTime, StorageTier};
use octo_dfs::{nic_bandwidth_bps, tier_bandwidth_bps, DfsConfig, TieredDfs, TransferId};
use octo_policies::TieringConfig;
use octo_simkit::{EventQueue, FlowModel};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// DFSIO parameters (defaults follow §3.1: 84 GB over 11 workers). The
/// Octopus++ policies run with the default thresholds and learner.
#[derive(Debug, Clone)]
pub struct DfsioConfig {
    /// File system variant under test.
    pub scenario: Scenario,
    /// Cluster hardware.
    pub dfs: DfsConfig,
    /// Total bytes to write and then read back.
    pub total: ByteSize,
    /// Size of each DFSIO file.
    pub file_size: ByteSize,
    /// Throughput-series bucket width.
    pub window: ByteSize,
    /// Seed for policy-internal sampling.
    pub seed: u64,
}

impl Default for DfsioConfig {
    fn default() -> Self {
        DfsioConfig {
            scenario: Scenario::OctopusFs,
            dfs: DfsConfig::default(),
            total: ByteSize::gb(84),
            file_size: ByteSize::gb(1),
            window: ByteSize::gb(6),
            seed: 7,
        }
    }
}

/// One throughput series: `(cumulative GB, avg MB/s per node)` points.
pub type Series = Vec<(f64, f64)>;

/// The benchmark outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DfsioReport {
    /// Scenario label.
    pub scenario: String,
    /// Windowed write throughput.
    pub write: Series,
    /// Windowed read throughput.
    pub read: Series,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    FlowTick { version: u64 },
    Monitor,
}

#[derive(Debug, Clone, Copy)]
enum Purpose {
    WriteBlock { worker: usize },
    ReadBlock { worker: usize },
    Transfer { id: TransferId },
}

struct Worker {
    node: NodeId,
    /// Remaining blocks of the current file, newest first.
    current: Vec<(octo_common::BlockId, ByteSize)>,
    file: Option<FileId>,
    reading_idx: usize,
}

/// Runs the benchmark to completion.
pub fn run_dfsio(cfg: &DfsioConfig) -> DfsioReport {
    let mut dfs = TieredDfs::new(cfg.dfs.clone()).expect("valid config");
    cfg.scenario.configure_dfs(&mut dfs);
    let mut engine = cfg.scenario.build_engine(
        &TieringConfig::default(),
        &LearnerConfig::default(),
        cfg.seed,
    );
    let mut flows = FlowModel::new();
    let resources = ResourceMap::new(&cfg.dfs, &mut flows);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut flow_ids = IdGen::new();
    let mut purposes: HashMap<FlowId, Purpose> = HashMap::new();
    let mut transfer_blocks: HashMap<TransferId, usize> = HashMap::new();

    let n_workers = cfg.dfs.workers as usize;
    let mut workers: Vec<Worker> = (0..n_workers)
        .map(|i| Worker {
            node: NodeId(i as u32),
            current: Vec::new(),
            file: None,
            reading_idx: 0,
        })
        .collect();

    let mut files_written: Vec<FileId> = Vec::new();
    let mut next_file = 0usize;
    let total_files = (cfg.total.as_bytes() / cfg.file_size.as_bytes()) as usize;

    // Throughput bookkeeping: `(cumulative bytes, time)` checkpoints per
    // file completion, post-processed into fixed-width windows at the end
    // (simultaneous completions would otherwise make zero-length windows).
    let mut write_ckpts: Vec<(ByteSize, SimTime)> = Vec::new();
    let mut read_ckpts: Vec<(ByteSize, SimTime)> = Vec::new();
    let mut bytes_done = ByteSize::ZERO;
    let mut reading_phase = false;
    let mut read_phase_start = SimTime::ZERO;
    let mut read_done = ByteSize::ZERO;

    // --- helpers as closures are painful with borrows; use a macro-ish fn style.
    #[allow(clippy::too_many_arguments)] // free fn threading disjoint borrows
    fn start_block_write(
        dfs: &mut TieredDfs,
        flows: &mut FlowModel,
        resources: &ResourceMap,
        purposes: &mut HashMap<FlowId, Purpose>,
        flow_ids: &mut IdGen,
        worker: &mut Worker,
        widx: usize,
        now: SimTime,
    ) {
        if let Some((block, size)) = worker.current.pop() {
            let replicas: Vec<(NodeId, StorageTier)> = dfs
                .block_info(block)
                .replicas()
                .iter()
                .map(|r| (r.node, r.tier))
                .collect();
            let id = FlowId(flow_ids.next_raw());
            flows.start_flow(now, id, size, resources.write_pipeline_path(&replicas));
            purposes.insert(id, Purpose::WriteBlock { worker: widx });
        }
    }

    #[allow(clippy::too_many_arguments)] // free fn threading disjoint borrows
    fn begin_next_file(
        dfs: &mut TieredDfs,
        flows: &mut FlowModel,
        resources: &ResourceMap,
        purposes: &mut HashMap<FlowId, Purpose>,
        flow_ids: &mut IdGen,
        worker: &mut Worker,
        widx: usize,
        next_file: &mut usize,
        total_files: usize,
        file_size: ByteSize,
        now: SimTime,
    ) -> bool {
        if *next_file >= total_files {
            return false;
        }
        let path = format!("/dfsio/f{:04}", *next_file);
        *next_file += 1;
        match dfs.create_file(&path, file_size, now) {
            Ok(plan) => {
                worker.file = Some(plan.file);
                worker.current = plan
                    .blocks
                    .iter()
                    .rev()
                    .map(|b| (b.block, b.size))
                    .collect();
                start_block_write(dfs, flows, resources, purposes, flow_ids, worker, widx, now);
                true
            }
            Err(_) => false, // cluster full; writer retires
        }
    }

    // Kick off: every worker starts writing a file at t=0.
    for (w, worker) in workers.iter_mut().enumerate() {
        begin_next_file(
            &mut dfs,
            &mut flows,
            &resources,
            &mut purposes,
            &mut flow_ids,
            worker,
            w,
            &mut next_file,
            total_files,
            cfg.file_size,
            SimTime::ZERO,
        );
    }
    queue.schedule(SimTime::from_secs(30), Event::Monitor);
    if let Some((t, v)) = flows.next_completion(SimTime::ZERO) {
        queue.schedule(t, Event::FlowTick { version: v });
    }

    let mut active = true;
    while let Some((now, ev)) = queue.pop() {
        match ev {
            Event::Monitor => {
                engine.tick(&dfs, now);
                for tier in [StorageTier::Memory, StorageTier::Ssd] {
                    let planned = engine.run_downgrade(&mut dfs, tier, now);
                    for id in planned {
                        schedule_transfer(
                            &mut dfs,
                            &mut flows,
                            &resources,
                            &mut purposes,
                            &mut flow_ids,
                            &mut transfer_blocks,
                            id,
                            now,
                        );
                    }
                }
                if active {
                    queue.schedule(now + SimDuration::from_secs(30), Event::Monitor);
                }
            }
            Event::FlowTick { version } => {
                if version != flows.version() {
                    continue;
                }
                for fid in flows.collect_completed(now) {
                    let purpose = purposes.remove(&fid).expect("known flow");
                    match purpose {
                        Purpose::WriteBlock { worker: widx } => {
                            let mut worker = std::mem::replace(
                                &mut workers[widx],
                                Worker {
                                    node: NodeId(widx as u32),
                                    current: Vec::new(),
                                    file: None,
                                    reading_idx: 0,
                                },
                            );
                            if worker.current.is_empty() {
                                // File complete.
                                let file = worker.file.take().expect("writing");
                                dfs.commit_file(file, now).expect("fresh file");
                                engine.notify_created(&dfs, file, now);
                                // HDFS cache directives: cache new files in
                                // memory as they land, until memory fills.
                                if cfg.scenario.caches_on_access() {
                                    if let Ok(id) = dfs.plan_cache_copy(file, StorageTier::Memory) {
                                        schedule_transfer(
                                            &mut dfs,
                                            &mut flows,
                                            &resources,
                                            &mut purposes,
                                            &mut flow_ids,
                                            &mut transfer_blocks,
                                            id,
                                            now,
                                        );
                                    }
                                }
                                files_written.push(file);
                                bytes_done += cfg.file_size;
                                write_ckpts.push((bytes_done, now));
                                for tier in [StorageTier::Memory, StorageTier::Ssd] {
                                    let planned = engine.run_downgrade(&mut dfs, tier, now);
                                    for id in planned {
                                        schedule_transfer(
                                            &mut dfs,
                                            &mut flows,
                                            &resources,
                                            &mut purposes,
                                            &mut flow_ids,
                                            &mut transfer_blocks,
                                            id,
                                            now,
                                        );
                                    }
                                }
                                begin_next_file(
                                    &mut dfs,
                                    &mut flows,
                                    &resources,
                                    &mut purposes,
                                    &mut flow_ids,
                                    &mut worker,
                                    widx,
                                    &mut next_file,
                                    total_files,
                                    cfg.file_size,
                                    now,
                                );
                            } else {
                                start_block_write(
                                    &mut dfs,
                                    &mut flows,
                                    &resources,
                                    &mut purposes,
                                    &mut flow_ids,
                                    &mut worker,
                                    widx,
                                    now,
                                );
                            }
                            workers[widx] = worker;
                        }
                        Purpose::ReadBlock { worker: widx } => {
                            let mut worker = std::mem::replace(
                                &mut workers[widx],
                                Worker {
                                    node: NodeId(widx as u32),
                                    current: Vec::new(),
                                    file: None,
                                    reading_idx: 0,
                                },
                            );
                            if worker.current.is_empty() {
                                read_done += cfg.file_size;
                                read_ckpts.push((read_done, now));
                                start_next_read(
                                    &mut dfs,
                                    &mut flows,
                                    &resources,
                                    &mut purposes,
                                    &mut flow_ids,
                                    &mut worker,
                                    widx,
                                    &files_written,
                                    n_workers,
                                    now,
                                );
                            } else {
                                start_block_read(
                                    &mut dfs,
                                    &mut flows,
                                    &resources,
                                    &mut purposes,
                                    &mut flow_ids,
                                    &mut worker,
                                    widx,
                                    now,
                                );
                            }
                            workers[widx] = worker;
                        }
                        Purpose::Transfer { id } => {
                            let remaining =
                                transfer_blocks.get_mut(&id).expect("transfer in flight");
                            *remaining -= 1;
                            if *remaining == 0 {
                                transfer_blocks.remove(&id);
                                dfs.complete_transfer(id).expect("all blocks landed");
                            }
                        }
                    }
                }
            }
        }

        // Phase change: writes finished, start reading.
        if !reading_phase
            && next_file >= total_files
            && workers
                .iter()
                .all(|w| w.file.is_none() && w.current.is_empty())
            && transfer_blocks.is_empty()
        {
            reading_phase = true;
            read_phase_start = queue.now();
            for (widx, worker) in workers.iter_mut().enumerate() {
                worker.reading_idx = widx;
                start_next_read(
                    &mut dfs,
                    &mut flows,
                    &resources,
                    &mut purposes,
                    &mut flow_ids,
                    worker,
                    widx,
                    &files_written,
                    n_workers,
                    queue.now(),
                );
            }
        }
        if reading_phase && flows.active_flows() == 0 && transfer_blocks.is_empty() {
            active = false; // everything drained; Monitor stops rescheduling
        }
        if let Some((t, v)) = flows.next_completion(queue.now()) {
            queue.schedule(t, Event::FlowTick { version: v });
        }
        if !active && flows.active_flows() == 0 {
            break;
        }
    }

    DfsioReport {
        scenario: cfg.scenario.label(),
        write: windowed_series(&write_ckpts, cfg.window, SimTime::ZERO, n_workers),
        read: windowed_series(&read_ckpts, cfg.window, read_phase_start, n_workers),
    }
}

/// Converts completion checkpoints into `(cumulative GB, MB/s per node)`
/// windows of at least `window` bytes; windows whose wall-clock span rounds
/// to zero are merged into the next one.
fn windowed_series(
    ckpts: &[(ByteSize, SimTime)],
    window: ByteSize,
    start: SimTime,
    n_workers: usize,
) -> Series {
    let mut out = Series::new();
    let mut last_bytes = ByteSize::ZERO;
    let mut last_time = start;
    let mut next_boundary = window;
    for &(bytes, t) in ckpts {
        if bytes < next_boundary {
            continue;
        }
        let dt = t.duration_since(last_time).as_secs_f64();
        if dt > 0.0 {
            let mb = bytes.saturating_sub(last_bytes).as_mb_f64();
            out.push((bytes.as_gb_f64(), mb / dt / n_workers as f64));
        }
        last_bytes = bytes;
        last_time = t;
        while next_boundary <= bytes {
            next_boundary += window;
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn schedule_transfer(
    dfs: &mut TieredDfs,
    flows: &mut FlowModel,
    resources: &ResourceMap,
    purposes: &mut HashMap<FlowId, Purpose>,
    flow_ids: &mut IdGen,
    transfer_blocks: &mut HashMap<TransferId, usize>,
    id: TransferId,
    now: SimTime,
) {
    let transfer = dfs.transfer(id).expect("just planned").clone();
    let moving: Vec<_> = transfer
        .blocks
        .iter()
        .filter(|bt| bt.action.moves_bytes())
        .collect();
    if moving.is_empty() {
        dfs.complete_transfer(id).expect("drop-only");
        return;
    }
    transfer_blocks.insert(id, moving.len());
    for bt in moving {
        let src = bt.action.source();
        let dst = bt.action.destination().expect("moving action");
        let fid = FlowId(flow_ids.next_raw());
        flows.start_flow(now, fid, bt.size, resources.transfer_path(src, dst));
        purposes.insert(fid, Purpose::Transfer { id });
    }
}

#[allow(clippy::too_many_arguments)]
fn start_next_read(
    dfs: &mut TieredDfs,
    flows: &mut FlowModel,
    resources: &ResourceMap,
    purposes: &mut HashMap<FlowId, Purpose>,
    flow_ids: &mut IdGen,
    worker: &mut Worker,
    widx: usize,
    files: &[FileId],
    stride: usize,
    now: SimTime,
) {
    if worker.reading_idx >= files.len() {
        worker.file = None;
        return;
    }
    let file = files[worker.reading_idx];
    worker.reading_idx += stride;
    worker.file = Some(file);
    dfs.record_access(file, now).expect("committed file");
    let blocks = dfs.file_meta(file).expect("live").blocks.clone();
    worker.current = blocks
        .iter()
        .rev()
        .map(|b| (*b, dfs.block_info(*b).size))
        .collect();
    start_block_read(dfs, flows, resources, purposes, flow_ids, worker, widx, now);
}

#[allow(clippy::too_many_arguments)]
fn start_block_read(
    dfs: &mut TieredDfs,
    flows: &mut FlowModel,
    resources: &ResourceMap,
    purposes: &mut HashMap<FlowId, Purpose>,
    flow_ids: &mut IdGen,
    worker: &mut Worker,
    widx: usize,
    now: SimTime,
) {
    if let Some((block, size)) = worker.current.pop() {
        // DFSIO clients pick the *fastest* reachable replica: a remote
        // memory copy (NIC-capped) beats a local spinning disk. Ties break
        // toward local, then lower node id.
        let nic = nic_bandwidth_bps();
        let src = dfs
            .block_info(block)
            .replicas()
            .iter()
            .max_by(|a, b| {
                let eff = |r: &&octo_dfs::Replica| {
                    let bw = tier_bandwidth_bps(r.tier);
                    if r.node == worker.node {
                        bw
                    } else {
                        bw.min(nic)
                    }
                };
                eff(a)
                    .total_cmp(&eff(b))
                    .then_with(|| (a.node == worker.node).cmp(&(b.node == worker.node)))
                    .then(b.node.cmp(&a.node))
            })
            .map(|r| (r.node, r.tier))
            .expect("committed block");
        let id = FlowId(flow_ids.next_raw());
        flows.start_flow(now, id, size, resources.read_path(src, worker.node));
        purposes.insert(id, Purpose::ReadBlock { worker: widx });
    }
}
