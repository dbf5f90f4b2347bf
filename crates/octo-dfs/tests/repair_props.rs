//! Fault-path property tests: after an arbitrary interleaving of writes,
//! accesses, transfer plans/completions, node crashes, and recoveries —
//! followed by full recovery and repair quiescence — no committed file is
//! under-replicated, no block is lost while at least one replica survived,
//! and the incrementally-maintained tier/pending counters, recency indexes,
//! and degraded set still equal from-scratch recomputation. This extends
//! the PR-2 accounting oracle (`accounting_props.rs`) to the failure path.
//!
//! Plus targeted lifecycle tests: a crash mid-transfer cancels it cleanly
//! (pending counters back to zero, victim readable from survivors), disk
//! loss destroys data for good, and repair prefers re-creating the lost
//! replica's tier.

use octo_common::{ByteSize, FileId, NodeId, PerTier, SimTime, StorageTier};
use octo_dfs::{
    DfsConfig, DowngradeTarget, EpochPool, FileState, RepairPlanner, TieredDfs, TransferId,
    TransferKind,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeSet;

const TIERS: [StorageTier; 3] = StorageTier::ALL;
const MEM: StorageTier = StorageTier::Memory;
const WORKERS: u32 = 4;

/// Replication 2 on 4 workers: one node can be down and every surviving
/// block still has a live copy to repair from and a fresh node to land on.
fn small_dfs() -> TieredDfs {
    TieredDfs::new(DfsConfig {
        workers: WORKERS,
        replication: 2,
        tier_capacity: PerTier::from_fn(|t| match t {
            StorageTier::Memory => ByteSize::gb(2),
            StorageTier::Ssd => ByteSize::gb(16),
            StorageTier::Hdd => ByteSize::gb(64),
        }),
        ..DfsConfig::default()
    })
    .expect("valid config")
}

fn put(dfs: &mut TieredDfs, path: &str, size: ByteSize, now: SimTime) -> FileId {
    let plan = dfs.create_file(path, size, now).expect("create");
    dfs.commit_file(plan.file, now).expect("commit");
    plan.file
}

// ---------------------------------------------------------------------
// Scan oracles (the pre-incremental implementations, kept as ground truth)
// ---------------------------------------------------------------------

fn scan_pending_outgoing(dfs: &TieredDfs, tier: StorageTier) -> ByteSize {
    let mut total = ByteSize::ZERO;
    for meta in dfs.iter_files() {
        if meta.in_flight == 0 {
            continue;
        }
        for &b in &meta.blocks {
            for r in dfs.block_info(b).replicas() {
                if r.moving && r.tier == tier {
                    total += dfs.block_info(b).size;
                }
            }
        }
    }
    total
}

fn scan_pending_incoming(dfs: &TieredDfs, flights: &[TransferId], tier: StorageTier) -> ByteSize {
    let mut total = ByteSize::ZERO;
    for &id in flights {
        let t = dfs.transfer(id).expect("tracked transfers are in flight");
        for bt in &t.blocks {
            if let Some((_, to_tier)) = bt.action.destination() {
                if to_tier == tier {
                    total += bt.size;
                }
            }
        }
    }
    total
}

fn last_used_oracle(dfs: &TieredDfs, f: FileId) -> SimTime {
    dfs.file_stats(f)
        .map(|s| s.last_access().unwrap_or(s.created))
        .unwrap_or(SimTime::ZERO)
}

fn scan_tier_lru(dfs: &TieredDfs, tier: StorageTier) -> Vec<(SimTime, FileId)> {
    let mut v: Vec<(SimTime, FileId)> = dfs
        .iter_files()
        .filter(|m| m.state == FileState::Complete && dfs.file_on_tier(m.id, tier))
        .map(|m| (last_used_oracle(dfs, m.id), m.id))
        .collect();
    v.sort();
    v
}

fn scan_global_mru(dfs: &TieredDfs) -> Vec<(SimTime, FileId)> {
    let mut v: Vec<(SimTime, FileId)> = dfs
        .iter_files()
        .filter(|m| m.state == FileState::Complete)
        .map(|m| (last_used_oracle(dfs, m.id), m.id))
        .collect();
    v.sort_by_key(|&(t, f)| (Reverse(t), f));
    v
}

/// From-scratch degraded set: committed files with a deficient block — an
/// erasure-coded block short of `k + m` live shards, or a replicated block
/// below the target live-replica count.
fn scan_under_redundant(dfs: &TieredDfs, target: usize) -> Vec<FileId> {
    dfs.iter_files()
        .filter(|m| m.state == FileState::Complete)
        .filter(|m| {
            m.blocks.iter().any(|b| match dfs.blocks().stripe(*b) {
                Some(s) => !s.is_fully_redundant(),
                None => dfs.block_info(*b).live_replicas() < target,
            })
        })
        .map(|m| m.id)
        .collect()
}

/// From-scratch lost-file scan: a block is gone for good when it has no
/// replica left and no stripe able to decode — fewer than `k` *present*
/// shards (dead shards count as present: a crashed node may come back).
fn scan_lost(dfs: &TieredDfs) -> Vec<FileId> {
    dfs.iter_files()
        .filter(|m| m.state == FileState::Complete)
        .filter(|m| {
            m.blocks.iter().any(|b| {
                dfs.block_info(*b).replicas().is_empty()
                    && match dfs.blocks().stripe(*b) {
                        Some(s) => s.present() < s.k as usize,
                        None => true,
                    }
            })
        })
        .map(|m| m.id)
        .collect()
}

fn assert_incremental_matches_scans(dfs: &TieredDfs, flights: &[TransferId], ctx: &str) {
    for tier in TIERS {
        assert_eq!(
            dfs.pending_outgoing(tier),
            scan_pending_outgoing(dfs, tier),
            "{ctx}: pending_outgoing({tier}) diverged"
        );
        assert_eq!(
            dfs.pending_incoming(tier),
            scan_pending_incoming(dfs, flights, tier),
            "{ctx}: pending_incoming({tier}) diverged"
        );
        let got: Vec<(SimTime, FileId)> = dfs.tier_recency_iter(tier).collect();
        assert_eq!(
            got,
            scan_tier_lru(dfs, tier),
            "{ctx}: tier recency index({tier}) diverged"
        );
    }
    let got_mru: Vec<(SimTime, FileId)> = dfs.mru_recency_iter().collect();
    assert_eq!(got_mru, scan_global_mru(dfs), "{ctx}: global MRU diverged");
    let got_degraded: Vec<FileId> = dfs.under_redundant_files().map(|(f, _, _)| f).collect();
    assert_eq!(
        got_degraded,
        scan_under_redundant(dfs, dfs.config().replication as usize),
        "{ctx}: degraded set diverged"
    );
}

// ---------------------------------------------------------------------
// The proptest oracle
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn crashes_recoveries_and_repair_preserve_all_invariants(
        ops in proptest::collection::vec((0u8..12, 0u64..1_000_000, 0u64..3), 1..140)
    ) {
        let mut dfs = small_dfs();
        let target = dfs.config().replication as usize;
        let mut live: Vec<FileId> = Vec::new();
        let mut flights: Vec<TransferId> = Vec::new();
        let mut alive: BTreeSet<u32> = (0..WORKERS).collect();
        let mut created = 0u64;

        for (step, (op, a, b)) in ops.iter().copied().enumerate() {
            let now = SimTime::from_secs((step as u64 / 2) * 10);
            let tier = TIERS[b as usize % TIERS.len()];
            match op {
                // Create + commit.
                0 | 1 => {
                    let size = ByteSize::mb(a % 150 + 1);
                    created += 1;
                    if let Ok(plan) = dfs.create_file(&format!("/p/f{created}"), size, now) {
                        dfs.commit_file(plan.file, now).expect("fresh file");
                        live.push(plan.file);
                    }
                }
                // Access.
                2 | 3 => {
                    if !live.is_empty() {
                        let f = live[a as usize % live.len()];
                        dfs.record_access(f, now).expect("committed file");
                    }
                }
                // Plan movement (failures are legal no-ops).
                4 => {
                    if !live.is_empty() {
                        let f = live[a as usize % live.len()];
                        if let Ok(id) = dfs.plan_downgrade(f, tier, DowngradeTarget::Auto) {
                            flights.push(id);
                        }
                    }
                }
                5 => {
                    if !live.is_empty() {
                        let f = live[a as usize % live.len()];
                        if let Ok(id) = dfs.plan_upgrade(f, MEM) {
                            flights.push(id);
                        }
                    }
                }
                // Complete or cancel a transfer.
                6 => {
                    if !flights.is_empty() {
                        let id = flights.swap_remove(a as usize % flights.len());
                        dfs.complete_transfer(id).expect("tracked transfer");
                    }
                }
                7 => {
                    if !flights.is_empty() {
                        let id = flights.swap_remove(a as usize % flights.len());
                        dfs.cancel_transfer(id).expect("tracked transfer");
                    }
                }
                // Crash a node (keep at least two up so data stays
                // survivable and repair has somewhere to go).
                8 | 9 => {
                    if alive.len() > 2 {
                        let pick: Vec<u32> = alive.iter().copied().collect();
                        let n = NodeId(pick[a as usize % pick.len()]);
                        let failure = dfs.fail_node(n).expect("node was up");
                        alive.remove(&n.raw());
                        flights.retain(|id| !failure.cancelled_transfers.contains(id));
                    }
                }
                // Recover a node.
                10 => {
                    let dead: Vec<u32> = (0..WORKERS).filter(|n| !alive.contains(n)).collect();
                    if !dead.is_empty() {
                        let n = NodeId(dead[a as usize % dead.len()]);
                        dfs.recover_node(n).expect("node was down");
                        alive.insert(n.raw());
                    }
                }
                // Delete (fails with a transfer in flight — a no-op).
                _ => {
                    if !live.is_empty() {
                        let i = a as usize % live.len();
                        if dfs.delete_file(live[i]).is_ok() {
                            live.swap_remove(i);
                        }
                    }
                }
            }
        }

        // Incremental state must already match mid-churn, dead replicas
        // and all.
        assert_incremental_matches_scans(&dfs, &flights, "after ops");

        // Quiescence: land outstanding transfers, recover every node, then
        // run repair epochs until the planner runs dry.
        for id in flights.drain(..) {
            dfs.complete_transfer(id).expect("tracked transfer");
        }
        for n in 0..WORKERS {
            if !alive.contains(&n) {
                dfs.recover_node(NodeId(n)).expect("node was down");
            }
        }
        let planner = RepairPlanner::new(ByteSize::gb(64));
        loop {
            let planned = planner.plan_epoch(&mut dfs, &EpochPool::serial());
            if planned.is_empty() {
                break;
            }
            for id in planned {
                dfs.complete_transfer(id).expect("repair transfer");
            }
        }

        // No survivable data loss: crashes only destroy memory replicas,
        // so any block still holding >= 1 replica must be repairable back
        // to the target. Files flagged under-replicated may only contain
        // blocks that lost *every* replica.
        for (f, _, _) in dfs.under_redundant_files() {
            let meta = dfs.file_meta(f).expect("reported files are live");
            for &blk in &meta.blocks {
                let info = dfs.block_info(blk);
                prop_assert!(
                    info.replicas().is_empty() || info.live_replicas() >= target,
                    "{f}/{blk}: {} replicas survived but only {} live after repair \
                     quiescence",
                    info.replicas().len(),
                    info.live_replicas()
                );
            }
        }
        assert_incremental_matches_scans(&dfs, &[], "after repair quiescence");

        // Replicas of any block still sit on distinct nodes, repairs
        // included.
        for f in &live {
            for &blk in &dfs.file_meta(*f).expect("live file").blocks {
                let mut nodes: Vec<_> = dfs.block_info(blk).nodes().collect();
                let n = nodes.len();
                nodes.sort();
                nodes.dedup();
                prop_assert_eq!(nodes.len(), n, "replica node collision after repair");
            }
        }

        // Space accounting stayed exact through the whole ordeal.
        for f in live {
            dfs.delete_file(f).expect("no transfers in flight");
        }
        for t in TIERS {
            prop_assert_eq!(dfs.tier_usage(t).0, ByteSize::ZERO, "{} leaked", t);
        }
        prop_assert_eq!(dfs.transfers_in_flight(), 0);
    }
}

// ---------------------------------------------------------------------
// The erasure-coding oracle
// ---------------------------------------------------------------------

const EC_WORKERS: u32 = 8;
const EC_K: u8 = 4;
const EC_M: u8 = 2;

/// EC(4,2) on the HDD tier of an 8-worker cluster, replication 2 above
/// it. Initial placement is pinned to SSD so the ops can deterministically
/// stripe files *down* into the EC tier.
fn ec_dfs() -> TieredDfs {
    let mut cfg = DfsConfig {
        workers: EC_WORKERS,
        replication: 2,
        tier_capacity: PerTier::from_fn(|t| match t {
            StorageTier::Memory => ByteSize::gb(2),
            StorageTier::Ssd => ByteSize::gb(16),
            StorageTier::Hdd => ByteSize::gb(64),
        }),
        ..DfsConfig::default()
    };
    *cfg.redundancy.get_mut(StorageTier::Hdd) =
        octo_dfs::RedundancyMode::Erasure { k: EC_K, m: EC_M };
    let mut dfs = TieredDfs::new(cfg).expect("valid config");
    dfs.placement_mut()
        .restrict_initial_tiers(&[StorageTier::Ssd]);
    dfs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The EC fault oracle. Files stripe into the EC(4,2) cold tier,
    /// de-stripe back up, and suffer crashes (≤ m nodes down at once) and
    /// permanent HDD losses (≤ m devices over the run). Invariants:
    ///
    /// * a striped block never loses more than `m` shards here, so no
    ///   striped file is ever reported lost — and the reported lost set
    ///   always equals a from-scratch block scan;
    /// * after full recovery and repair quiescence, every surviving stripe
    ///   is back to `k + m` live shards on distinct nodes;
    /// * the incrementally-maintained stripe-deficiency accounting (the
    ///   degraded set) equals from-scratch recomputation throughout.
    #[test]
    fn erasure_faults_and_repair_preserve_the_ec_oracle(
        ops in proptest::collection::vec((0u8..12, 0u64..1_000_000), 1..120)
    ) {
        let mut dfs = ec_dfs();
        let mut live: Vec<FileId> = Vec::new();
        let mut flights: Vec<TransferId> = Vec::new();
        let mut alive: BTreeSet<u32> = (0..EC_WORKERS).collect();
        let mut hdd_losses = 0u32;
        let mut created = 0u64;

        for (step, (op, a)) in ops.iter().copied().enumerate() {
            let now = SimTime::from_secs((step as u64 / 2) * 10);
            match op {
                // Create + commit (both replicas land on SSD).
                0 | 1 => {
                    let size = ByteSize::mb(a % 150 + 1);
                    created += 1;
                    if let Ok(plan) = dfs.create_file(&format!("/ec/f{created}"), size, now) {
                        dfs.commit_file(plan.file, now).expect("fresh file");
                        live.push(plan.file);
                    }
                }
                // Access.
                2 => {
                    if !live.is_empty() {
                        let f = live[a as usize % live.len()];
                        dfs.record_access(f, now).expect("committed file");
                    }
                }
                // Stripe down into the EC tier (the second time around this
                // drops the remaining SSD replica, leaving stripe-only
                // blocks). Failures are legal no-ops.
                3 | 4 => {
                    if !live.is_empty() {
                        let f = live[a as usize % live.len()];
                        if let Ok(id) = dfs.plan_downgrade(
                            f,
                            StorageTier::Ssd,
                            DowngradeTarget::Tier(StorageTier::Hdd),
                        ) {
                            flights.push(id);
                        }
                    }
                }
                // Upgrade to memory — de-stripes when the stripe holds the
                // only copy.
                5 => {
                    if !live.is_empty() {
                        let f = live[a as usize % live.len()];
                        if let Ok(id) = dfs.plan_upgrade(f, MEM) {
                            flights.push(id);
                        }
                    }
                }
                // Complete or cancel a transfer.
                6 => {
                    if !flights.is_empty() {
                        let id = flights.swap_remove(a as usize % flights.len());
                        dfs.complete_transfer(id).expect("tracked transfer");
                    }
                }
                7 => {
                    if !flights.is_empty() {
                        let id = flights.swap_remove(a as usize % flights.len());
                        dfs.cancel_transfer(id).expect("tracked transfer");
                    }
                }
                // Crash a node — never more than `m` down at once, so every
                // stripe keeps at least `k` live shards.
                8 => {
                    if alive.len() > (EC_WORKERS - EC_M as u32) as usize {
                        let pick: Vec<u32> = alive.iter().copied().collect();
                        let n = NodeId(pick[a as usize % pick.len()]);
                        let failure = dfs.fail_node(n).expect("node was up");
                        alive.remove(&n.raw());
                        flights.retain(|id| !failure.cancelled_transfers.contains(id));
                    }
                }
                // Recover a node.
                9 => {
                    let dead: Vec<u32> =
                        (0..EC_WORKERS).filter(|n| !alive.contains(n)).collect();
                    if !dead.is_empty() {
                        let n = NodeId(dead[a as usize % dead.len()]);
                        dfs.recover_node(n).expect("node was down");
                        alive.insert(n.raw());
                    }
                }
                // Destroy an HDD — at most `m` devices over the whole run,
                // so no stripe can drop below `k` present shards.
                10 => {
                    if hdd_losses < EC_M as u32 {
                        let pick: Vec<u32> = alive.iter().copied().collect();
                        if !pick.is_empty() {
                            let n = NodeId(pick[a as usize % pick.len()]);
                            let failure =
                                dfs.lose_device(n, StorageTier::Hdd).expect("device exists");
                            hdd_losses += 1;
                            flights.retain(|id| !failure.cancelled_transfers.contains(id));
                        }
                    }
                }
                // Delete (fails with a transfer in flight — a no-op).
                _ => {
                    if !live.is_empty() {
                        let i = a as usize % live.len();
                        if dfs.delete_file(live[i]).is_ok() {
                            live.swap_remove(i);
                        }
                    }
                }
            }

            // (a) The reported lost set always equals the from-scratch
            // block scan — and since at most `m` shards were ever
            // destroyed, no *striped* block may appear in it.
            let mut got: Vec<FileId> = dfs.lost_files().collect();
            got.sort();
            let mut want = scan_lost(&dfs);
            want.sort();
            prop_assert_eq!(&got, &want, "step {}: lost set diverged", step);
            for f in &got {
                for &blk in &dfs.file_meta(*f).expect("reported files are live").blocks {
                    prop_assert!(
                        dfs.blocks().stripe(blk).is_none(),
                        "step {}: {}/{} reported lost with \u{2264} m shards destroyed",
                        step, f, blk
                    );
                }
            }
        }

        // (c) Incremental stripe-deficiency accounting matches the scans
        // mid-churn, dead shards and all.
        assert_incremental_matches_scans(&dfs, &flights, "after ops");

        // Quiescence: land outstanding transfers, recover every node, then
        // run repair epochs until the planner runs dry.
        for id in flights.drain(..) {
            dfs.complete_transfer(id).expect("tracked transfer");
        }
        for n in 0..EC_WORKERS {
            if !alive.contains(&n) {
                dfs.recover_node(NodeId(n)).expect("node was down");
            }
        }
        let planner = RepairPlanner::new(ByteSize::gb(64));
        loop {
            let planned = planner.plan_epoch(&mut dfs, &EpochPool::serial());
            if planned.is_empty() {
                break;
            }
            for id in planned {
                dfs.complete_transfer(id).expect("repair transfer");
            }
        }

        // (b) Every surviving stripe is back to k + m live shards, all on
        // distinct nodes.
        for s in dfs.blocks().stripes().iter() {
            prop_assert_eq!(
                s.live(),
                (EC_K + EC_M) as usize,
                "stripe of {} not fully rebuilt after quiescence",
                s.block
            );
            let mut nodes: Vec<NodeId> = s.shards.iter().map(|sh| sh.node).collect();
            let n = nodes.len();
            nodes.sort();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), n, "shard node collision after repair");
        }

        // Files still flagged under-redundant may only contain truly lost
        // blocks (every replica gone, no stripe — e.g. a de-striped block
        // whose solo memory replica died with its node).
        for (f, _, _) in dfs.under_redundant_files() {
            let meta = dfs.file_meta(f).expect("reported files are live");
            for &blk in &meta.blocks {
                let info = dfs.block_info(blk);
                let deficient = match dfs.blocks().stripe(blk) {
                    Some(s) => !s.is_fully_redundant(),
                    None => info.live_replicas() < dfs.config().replication as usize,
                };
                if deficient {
                    prop_assert!(
                        info.replicas().is_empty() && dfs.blocks().stripe(blk).is_none(),
                        "{}/{}: repairable block still deficient after quiescence",
                        f, blk
                    );
                }
            }
        }
        assert_incremental_matches_scans(&dfs, &[], "after repair quiescence");

        // Space accounting stayed exact through the whole ordeal, shards
        // included.
        for f in live {
            dfs.delete_file(f).expect("no transfers in flight");
        }
        for t in TIERS {
            prop_assert_eq!(dfs.tier_usage(t).0, ByteSize::ZERO, "{} leaked", t);
        }
        prop_assert_eq!(dfs.transfers_in_flight(), 0);
    }
}

// ---------------------------------------------------------------------
// Targeted lifecycle tests
// ---------------------------------------------------------------------

/// A node crash while a transfer is in flight cancels it cleanly: the
/// pending byte counters return to zero and the victim file stays readable
/// from surviving replicas.
#[test]
fn crash_mid_transfer_cancels_cleanly() {
    let mut dfs = small_dfs();
    let f = put(&mut dfs, "/d/victim", ByteSize::mb(256), SimTime::ZERO);
    let id = dfs.plan_downgrade(f, MEM, DowngradeTarget::Auto).unwrap();
    assert!(dfs.pending_outgoing(MEM) > ByteSize::ZERO);

    // Crash the node hosting the first moving memory replica.
    let blk = dfs.file_meta(f).unwrap().blocks[0];
    let src_node = dfs
        .block_info(blk)
        .replicas()
        .iter()
        .find(|r| r.moving && r.tier == MEM)
        .expect("downgrade flagged its source")
        .node;
    let failure = dfs.fail_node(src_node).unwrap();
    assert_eq!(
        failure.cancelled_transfers,
        vec![id],
        "the in-flight transfer touching the node is cancelled"
    );
    assert!(dfs.transfer(id).is_none());
    assert_eq!(dfs.transfers_in_flight(), 0);

    // Pending counters settled on every tier.
    for t in TIERS {
        assert_eq!(dfs.pending_outgoing(t), ByteSize::ZERO, "{t} outgoing");
        assert_eq!(dfs.pending_incoming(t), ByteSize::ZERO, "{t} incoming");
    }

    // The victim remains readable: every block keeps >= 1 live replica,
    // none of them stuck in `moving`.
    for &b in &dfs.file_meta(f).unwrap().blocks {
        let info = dfs.block_info(b);
        assert!(info.live_replicas() >= 1, "{b} lost all live replicas");
        assert!(
            info.replicas().iter().all(|r| !r.moving),
            "{b} left a replica flagged moving"
        );
    }
    // And the file can be planned again once the cluster is consistent.
    assert!(dfs.is_movable(f));
}

#[test]
fn crash_and_recovery_round_trip_replication() {
    let mut dfs = small_dfs();
    let f = put(&mut dfs, "/d/f", ByteSize::mb(128), SimTime::ZERO);
    let blk = dfs.file_meta(f).unwrap().blocks[0];
    assert_eq!(dfs.block_info(blk).live_replicas(), 2);
    assert!(!dfs.has_under_redundant());

    // Crash a node hosting a *disk* replica: the data survives offline.
    let disk_node = dfs
        .block_info(blk)
        .replicas()
        .iter()
        .find(|r| r.tier != MEM)
        .expect("placement spreads tiers")
        .node;
    dfs.fail_node(disk_node).unwrap();
    assert_eq!(dfs.block_info(blk).live_replicas(), 1);
    assert_eq!(
        dfs.under_redundant_files()
            .map(|(f, ..)| f)
            .collect::<Vec<_>>(),
        vec![f]
    );
    let report: Vec<_> = dfs.replication_report().collect();
    assert_eq!(report, vec![(blk, 1, 2)], "per-block view agrees");

    // Recovery restores the replica without any repair traffic.
    let restored = dfs.recover_node(disk_node).unwrap();
    assert_eq!(restored, 1);
    assert_eq!(dfs.block_info(blk).live_replicas(), 2);
    assert!(!dfs.has_under_redundant());
}

#[test]
fn repair_recreates_lost_memory_replica_on_its_tier() {
    let mut dfs = small_dfs();
    let f = put(&mut dfs, "/d/f", ByteSize::mb(128), SimTime::ZERO);
    let blk = dfs.file_meta(f).unwrap().blocks[0];
    let mem_node = dfs
        .block_info(blk)
        .replicas()
        .iter()
        .find(|r| r.tier == MEM)
        .expect("placement puts one replica in memory")
        .node;

    // Crash the memory holder: DRAM contents are gone for good.
    dfs.fail_node(mem_node).unwrap();
    assert!(!dfs.file_on_tier(f, MEM));
    assert!(dfs.has_under_redundant());

    let planner = RepairPlanner::new(ByteSize::gb(1));
    let planned = planner.plan_epoch(&mut dfs, &EpochPool::serial());
    assert_eq!(planned.len(), 1);
    let t = dfs.transfer(planned[0]).unwrap().clone();
    assert_eq!(t.kind, TransferKind::Repair);
    dfs.complete_transfer(planned[0]).unwrap();

    assert!(!dfs.has_under_redundant(), "repair restored the factor");
    assert!(
        dfs.file_on_tier(f, MEM),
        "the lost replica was re-created on its own tier"
    );
    assert_eq!(
        *dfs.movement_stats().repaired_to.get(MEM),
        ByteSize::mb(128)
    );
    assert_eq!(dfs.movement_stats().repairs_completed, 1);
}

#[test]
fn repair_spills_down_when_the_lost_tier_is_full() {
    // Each node's memory holds exactly one 128 MB block under the 95% fill
    // limit; with four single-block files, every node's memory is occupied.
    // Losing one memory replica then leaves no memory anywhere for the
    // re-creation, so repair spills the copy to a lower tier.
    let mut dfs = TieredDfs::new(DfsConfig {
        workers: 4,
        replication: 2,
        tier_capacity: PerTier::from_fn(|t| match t {
            StorageTier::Memory => ByteSize::mb(150),
            StorageTier::Ssd => ByteSize::gb(8),
            StorageTier::Hdd => ByteSize::gb(64),
        }),
        ..DfsConfig::default()
    })
    .unwrap();
    let files: Vec<FileId> = (0..4)
        .map(|i| {
            put(
                &mut dfs,
                &format!("/d/f{i}"),
                ByteSize::mb(128),
                SimTime::from_secs(i),
            )
        })
        .collect();
    let f0 = files[0];
    assert!(dfs.file_on_tier(f0, MEM), "placement used the memory tier");
    let mem_node = dfs
        .block_info(dfs.file_meta(f0).unwrap().blocks[0])
        .replicas()
        .iter()
        .find(|r| r.tier == MEM)
        .unwrap()
        .node;

    dfs.fail_node(mem_node).unwrap();
    let planner = RepairPlanner::new(ByteSize::gb(4));
    loop {
        let planned = planner.plan_epoch(&mut dfs, &EpochPool::serial());
        if planned.is_empty() {
            break;
        }
        for id in planned {
            dfs.complete_transfer(id).unwrap();
        }
    }
    assert!(!dfs.has_under_redundant(), "everything repaired");
    assert!(
        !dfs.file_on_tier(f0, MEM),
        "no node's memory had room: the repair spilled down"
    );
    assert!(
        dfs.movement_stats().bytes_re_replicated() >= ByteSize::mb(128),
        "repair traffic happened"
    );
    assert_eq!(*dfs.movement_stats().repaired_to.get(MEM), ByteSize::ZERO);
}

#[test]
fn disk_loss_destroys_data_permanently() {
    let mut dfs = TieredDfs::new(DfsConfig {
        workers: 4,
        replication: 1,
        ..DfsConfig::default()
    })
    .unwrap();
    dfs.placement_mut()
        .restrict_initial_tiers(&[StorageTier::Hdd]);
    let f = put(&mut dfs, "/d/only-copy", ByteSize::mb(64), SimTime::ZERO);
    let blk = dfs.file_meta(f).unwrap().blocks[0];
    let node = dfs.block_info(blk).replicas()[0].node;

    let failure = dfs.lose_device(node, StorageTier::Hdd).unwrap();
    assert_eq!(failure.lost_replicas, 1);
    assert_eq!(failure.lost_bytes, ByteSize::mb(64));
    assert!(dfs.block_info(blk).replicas().is_empty(), "data is gone");
    assert!(dfs.block_info(blk).is_unavailable());
    // The device itself is reusable (a replaced disk) ...
    assert_eq!(
        dfs.nodes().device(node, StorageTier::Hdd).used(),
        ByteSize::ZERO
    );
    // ... but repair has no source: the file stays degraded.
    let planner = RepairPlanner::new(ByteSize::gb(1));
    assert!(planner
        .plan_epoch(&mut dfs, &EpochPool::serial())
        .is_empty());
    assert!(dfs.has_under_redundant());
}

/// Stripes `f` fully into the EC HDD tier: the first downgrade writes the
/// shards and drops one SSD replica, the second drops the leftover replica
/// (the readable stripe now holds the only copy).
fn stripe_out(dfs: &mut TieredDfs, f: FileId) {
    for _ in 0..2 {
        let id = dfs
            .plan_downgrade(f, StorageTier::Ssd, DowngradeTarget::Tier(StorageTier::Hdd))
            .expect("file has an SSD replica to shed");
        dfs.complete_transfer(id).expect("tracked transfer");
    }
}

/// Losing exactly `m` shard devices degrades the file — it is reported
/// under-redundant but *not* lost — and reconstruction repair decodes the
/// survivors and rebuilds it back to full `k + m` redundancy.
#[test]
fn losing_m_shard_devices_degrades_but_reconstruction_heals() {
    let mut dfs = ec_dfs();
    let f = put(&mut dfs, "/ec/cold", ByteSize::mb(96), SimTime::ZERO);
    stripe_out(&mut dfs, f);
    let blk = dfs.file_meta(f).unwrap().blocks[0];
    assert!(dfs.block_info(blk).replicas().is_empty());

    let (victims, shard_size) = {
        let s = dfs.blocks().stripe(blk).expect("file is striped");
        assert_eq!(s.live(), (EC_K + EC_M) as usize);
        ([s.shards[0].node, s.shards[1].node], s.shard_size)
    };
    for n in victims {
        dfs.lose_device(n, StorageTier::Hdd).unwrap();
    }

    // Down to exactly k present shards: degraded, readable, not lost.
    {
        let s = dfs.blocks().stripe(blk).unwrap();
        assert_eq!(s.present(), EC_K as usize);
        assert!(s.is_readable());
        assert!(!s.is_lost());
    }
    assert!(dfs.under_redundant_files().any(|(id, _, _)| id == f));
    assert!(
        dfs.lost_files().next().is_none(),
        "EC(4,2) tolerates m losses"
    );

    // Reconstruction repair rebuilds both missing shards from the k
    // survivors and the accounting says so.
    let planner = RepairPlanner::new(ByteSize::gb(1));
    loop {
        let planned = planner.plan_epoch(&mut dfs, &EpochPool::serial());
        if planned.is_empty() {
            break;
        }
        for id in planned {
            dfs.complete_transfer(id).unwrap();
        }
    }
    let s = dfs.blocks().stripe(blk).unwrap();
    assert_eq!(s.live(), (EC_K + EC_M) as usize, "stripe fully rebuilt");
    assert!(!dfs.has_under_redundant());
    assert_eq!(dfs.blocks().stripes_rebuilt(), 2);
    assert_eq!(
        *dfs.movement_stats().reconstructed_to.get(StorageTier::Hdd),
        shard_size + shard_size,
        "both rebuilt shards bill to reconstruction, not re-replication"
    );
}

/// Losing more than `m` shard devices defeats the code: the file is
/// reported lost, repair has nothing to decode from, and it stays lost.
#[test]
fn losing_more_than_m_shard_devices_loses_the_file() {
    let mut dfs = ec_dfs();
    let f = put(&mut dfs, "/ec/doomed", ByteSize::mb(96), SimTime::ZERO);
    stripe_out(&mut dfs, f);
    let blk = dfs.file_meta(f).unwrap().blocks[0];

    let victims: Vec<NodeId> = {
        let s = dfs.blocks().stripe(blk).unwrap();
        s.shards[..(EC_M as usize + 1)]
            .iter()
            .map(|sh| sh.node)
            .collect()
    };
    for n in victims {
        dfs.lose_device(n, StorageTier::Hdd).unwrap();
    }

    let s = dfs.blocks().stripe(blk).unwrap();
    assert_eq!(s.present(), (EC_K - 1) as usize);
    assert!(s.is_lost(), "fewer than k shards cannot decode");
    let lost: Vec<FileId> = dfs.lost_files().collect();
    assert_eq!(lost, vec![f]);

    // Repair runs dry without touching the unrecoverable stripe.
    let planner = RepairPlanner::new(ByteSize::gb(1));
    assert!(planner
        .plan_epoch(&mut dfs, &EpochPool::serial())
        .is_empty());
    let lost: Vec<FileId> = dfs.lost_files().collect();
    assert_eq!(lost, vec![f], "nothing can bring the data back");

    // The codec agrees with the metadata, with a *typed* error carrying
    // the survivor count — regression for the old bool return, which
    // could not say how far gone the stripe was.
    let s = dfs.blocks().stripe(blk).unwrap();
    let rs = octo_dfs::ReedSolomon::new(s.k, s.m);
    let mut shards: Vec<Option<Vec<u8>>> = (0..s.total() as u8)
        .map(|i| s.live_shard(i).map(|_| vec![0u8; 8]))
        .collect();
    assert_eq!(
        rs.reconstruct(&mut shards),
        Err(octo_dfs::EcError::InsufficientShards {
            have: s.present(),
            need: s.k as usize,
        }),
        "a lost stripe must decode to InsufficientShards"
    );
}

#[test]
fn double_crash_and_double_recover_are_rejected() {
    let mut dfs = small_dfs();
    dfs.fail_node(NodeId(0)).unwrap();
    assert_eq!(
        dfs.fail_node(NodeId(0)).unwrap_err().kind(),
        "invalid_state"
    );
    dfs.recover_node(NodeId(0)).unwrap();
    assert_eq!(
        dfs.recover_node(NodeId(0)).unwrap_err().kind(),
        "invalid_state"
    );
}
