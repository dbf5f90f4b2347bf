//! Plug a custom downgrade policy into the framework: a size-based policy
//! that always evicts the largest file (the classic web-cache SIZE policy).
//! The policy supplies only its victim order and its thresholds; the engine
//! starts and stops each run and lets placement pick the lower tier.
//!
//! Run with: `cargo run --release --example custom_policy`

use octopuspp::cluster::{run_trace, Scenario, SimConfig};
use octopuspp::common::{ByteSize, SimDuration, SimTime, StorageTier};
use octopuspp::dfs::{EpochPool, TieredDfs};
use octopuspp::policies::{
    exhaustive_phase, Candidate, DowngradePolicy, PhasePlan, TieringConfig, TieringEngine,
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

    fn tiering(&self) -> &TieringConfig {
        &self.cfg
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
}

fn main() {
    let workload = WorkloadConfig {
        jobs: 200,
        duration: SimDuration::from_hours(2),
        ..WorkloadConfig::facebook()
    };
    let trace = generate(&workload, 9);

    // The engine accepts any DowngradePolicy implementation. Scenario
    // construction is by name for the built-ins, so here the policy drives
    // an engine on a DFS directly.
    let cfg = TieringConfig::default();
    let mut engine = TieringEngine::new(Some(Box::new(SizeDowngrade { cfg: cfg.clone() })), None);
    let mut dfs = TieredDfs::new(Default::default()).unwrap();
    for i in 0..400 {
        let path = format!("/demo/f{i}");
        if let Ok(plan) = dfs.create_file(
            &path,
            ByteSize::mb(100 + (i % 5) * 300),
            SimTime::from_secs(i),
        ) {
            dfs.commit_file(plan.file, SimTime::from_secs(i)).unwrap();
        }
        let planned = engine.run_downgrade(&mut dfs, StorageTier::Memory, SimTime::from_secs(i));
        for id in planned {
            dfs.complete_transfer(id).unwrap();
        }
    }
    let memory = dfs.tier_utilization(StorageTier::Memory);
    println!(
        "after 400 writes: memory {:.1}% full, {} transfers completed",
        memory * 100.0,
        dfs.movement_stats().transfers_completed
    );
    // Each write can push memory over the start threshold; the run that
    // follows brings it back under the stop threshold.
    assert!(
        memory <= cfg.start_threshold,
        "memory ends {:.1}% full, above the {:.0}% start threshold",
        memory * 100.0,
        cfg.start_threshold * 100.0
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
