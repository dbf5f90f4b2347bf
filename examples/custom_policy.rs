//! Plug a custom downgrade policy into the framework: a size-based policy
//! that always evicts the largest file (the classic web-cache SIZE policy).
//!
//! Run with: `cargo run --release --example custom_policy`

use octopuspp::cluster::{run_trace, Scenario, SimConfig};
use octopuspp::common::{ByteSize, SimDuration, SimTime, StorageTier};
use octopuspp::dfs::{EpochPool, TieredDfs};
use octopuspp::policies::{
    effective_utilization, exhaustive_phase, Candidate, DowngradePolicy, PhasePlan, TieringConfig,
};
use octopuspp::workload::{generate, WorkloadConfig};

/// Evict the largest file first (SIZE policy from web caching).
struct SizeDowngrade {
    cfg: TieringConfig,
}

impl DowngradePolicy for SizeDowngrade {
    fn name(&self) -> &'static str {
        "size"
    }

    fn start_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) > self.cfg.start_threshold
    }

    fn scan_phases(
        &self,
        pool: &EpochPool,
        dfs: &TieredDfs,
        tier: StorageTier,
        _now: SimTime,
    ) -> Vec<PhasePlan> {
        // The victim order as an ascending key: complemented size puts the
        // largest file first; the complemented id breaks ties toward the
        // newest file.
        vec![exhaustive_phase(pool, dfs, tier, 1, |dfs, f| {
            let size = dfs.file_meta(f).map_or(ByteSize::ZERO, |m| m.size);
            Some(Candidate::keyed([!size.as_bytes(), !f.raw(), 0], f))
        })]
    }

    fn stop_downgrade(&mut self, dfs: &TieredDfs, tier: StorageTier, _now: SimTime) -> bool {
        effective_utilization(dfs, tier) < self.cfg.stop_threshold
    }
}

fn main() {
    let workload = WorkloadConfig {
        jobs: 200,
        duration: SimDuration::from_hours(2),
        ..WorkloadConfig::facebook()
    };
    let trace = generate(&workload, 9);

    // The engine accepts any DowngradePolicy implementation. Scenario
    // construction is by name for the built-ins, so here we assemble the
    // simulation manually through the same building blocks.
    use octopuspp::policies::TieringEngine;
    let engine_factory = || {
        TieringEngine::new(
            Some(Box::new(SizeDowngrade {
                cfg: TieringConfig::default(),
            })),
            None,
        )
    };
    // Demonstrate the policy drives the engine correctly on a DFS.
    let mut dfs = TieredDfs::new(Default::default()).unwrap();
    let mut engine = engine_factory();
    let mut created = Vec::new();
    for i in 0..400 {
        let path = format!("/demo/f{i}");
        if let Ok(plan) = dfs.create_file(
            &path,
            ByteSize::mb(100 + (i % 5) * 300),
            SimTime::from_secs(i),
        ) {
            dfs.commit_file(plan.file, SimTime::from_secs(i)).unwrap();
            created.push(plan.file);
        }
        let planned = engine.run_downgrade(&mut dfs, StorageTier::Memory, SimTime::from_secs(i));
        for id in planned {
            dfs.complete_transfer(id).unwrap();
        }
    }
    println!(
        "after 400 writes: memory {:.1}% full, {} transfers completed",
        dfs.tier_utilization(StorageTier::Memory) * 100.0,
        dfs.movement_stats().transfers_completed
    );

    // For comparison: the built-in LRU on the same workload trace.
    let report = run_trace(
        SimConfig {
            scenario: Scenario::downgrade_only("lru"),
            seed: 9,
            ..SimConfig::default()
        },
        &trace,
    );
    println!(
        "built-in LRU(down) on the same trace: mean completion {:.2}s",
        report.mean_completion_secs()
    );
}
