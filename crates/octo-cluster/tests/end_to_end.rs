//! End-to-end simulation tests: every scenario runs a scaled-down workload
//! to completion, and the tiering scenarios behave qualitatively like the
//! paper says they should.

use octo_access::{FeatureConfig, LearnerConfig};
use octo_cluster::{run_dfsio, run_trace, DfsioConfig, Scenario, SimConfig};
use octo_common::{ByteSize, PerTier, SimDuration, StorageTier};
use octo_dfs::DfsConfig;
use octo_gbt::GbtParams;
use octo_workload::{generate, FaultConfig, FaultSchedule, Trace, WorkloadConfig};

/// A small FB-flavoured workload (fast enough for debug-mode tests).
fn small_trace(seed: u64) -> Trace {
    let cfg = WorkloadConfig {
        jobs: 120,
        duration: SimDuration::from_hours(2),
        ..WorkloadConfig::facebook()
    };
    generate(&cfg, seed)
}

/// A small cluster: 4 workers with scaled-down tiers so tiering pressure
/// actually happens at this workload size.
fn small_sim(scenario: Scenario) -> SimConfig {
    SimConfig {
        dfs: DfsConfig {
            workers: 4,
            tier_capacity: PerTier::from_fn(|t| match t {
                StorageTier::Memory => ByteSize::gb(2),
                StorageTier::Ssd => ByteSize::gb(24),
                StorageTier::Hdd => ByteSize::gb(200),
            }),
            ..DfsConfig::default()
        },
        learner: LearnerConfig {
            // Lighter trees keep debug-mode tests quick.
            gbt: GbtParams {
                rounds: 5,
                max_depth: 6,
                ..GbtParams::default()
            },
            features: FeatureConfig::default(),
            min_points: 40,
            buffer_max: 1500,
            ..LearnerConfig::default()
        },
        scenario,
        seed: 11,
        ..SimConfig::default()
    }
}

/// Every scenario survives a fault schedule: crashed workers lose their
/// tasks, reads fail over to surviving replicas, the Replication Monitor
/// re-replicates what the crashes destroyed, and the whole run stays
/// deterministic.
#[test]
fn fault_injected_runs_complete_heal_and_stay_deterministic() {
    let trace = small_trace(9);
    let faults = FaultSchedule::generate(&FaultConfig::default(), 4, 17);
    assert!(!faults.is_empty());
    let mk = || {
        let mut cfg = small_sim(Scenario::policy_pair("lru", "osa"));
        cfg.faults = faults.clone();
        cfg
    };
    let report = run_trace(mk(), &trace);

    assert_eq!(
        report.jobs.len(),
        trace.jobs.len(),
        "every job completes or fails definitively"
    );
    assert!(report.faults.crashes > 0, "the schedule crashed somebody");
    assert_eq!(
        report.faults.crashes, report.faults.recoveries,
        "generated schedules always heal"
    );
    assert!(
        report.faults.bytes_re_replicated > ByteSize::ZERO,
        "the repair planner re-protected the lost replicas"
    );
    assert!(
        report.faults.full_replication_at.is_some(),
        "the cluster healed back to full replication"
    );
    assert!(report.faults.time_to_full_replication().is_some());
    assert_eq!(
        report.faults.repair_debt_bytes,
        ByteSize::ZERO,
        "a run that quiesced back to full replication owes no repair debt"
    );

    // Same trace, same schedule, same seed: bit-identical outcome.
    let again = run_trace(mk(), &trace);
    assert_eq!(report, again, "fault runs must be deterministic");
}

/// A targeted mass crash: three of four workers die at the instant a job's
/// reads start. In-flight reads are cancelled and fail over, blocks with no
/// live replica park their tasks until the recovery, and every job still
/// finishes.
#[test]
fn mass_crash_interrupts_reads_and_recovery_unblocks_them() {
    use octo_common::NodeId;
    use octo_workload::{FaultEvent, FaultKind};

    let trace = small_trace(3);
    let crash_at = trace.jobs[0].submit; // submits pop before faults (FIFO)
    let recover_at = crash_at + SimDuration::from_mins(10);
    let mut events = Vec::new();
    for n in [1u32, 2, 3] {
        events.push(FaultEvent {
            at: crash_at,
            node: NodeId(n),
            kind: FaultKind::Crash,
        });
        events.push(FaultEvent {
            at: recover_at,
            node: NodeId(n),
            kind: FaultKind::Recover,
        });
    }
    let mut cfg = small_sim(Scenario::policy_pair("lru", "osa"));
    cfg.faults = FaultSchedule::from_events(events);
    let report = run_trace(cfg, &trace);

    assert_eq!(report.jobs.len(), trace.jobs.len(), "every job finishes");
    assert!(
        report.faults.failed_reads > 0,
        "the crash interrupted or blocked reads: {:?}",
        report.faults
    );
    assert_eq!(report.faults.failed_jobs, 0, "nothing was truly lost");
    assert_eq!(report.faults.lost_files, 0, "disk contents survived");
    assert!(!report.jobs.iter().any(|j| j.failed));
}

/// The availability clock never claims a heal that did not happen: when
/// nodes die for good and full redundancy cannot be restored,
/// `full_replication_at` (and so `time_to_full_replication()`) stays
/// `None` — for the replicated and the erasure-coded cold tier alike.
#[test]
fn unhealable_clusters_report_no_heal_time() {
    use octo_common::NodeId;
    use octo_workload::{FaultEvent, FaultKind};

    let trace = small_trace(3);
    // Well after the last job: the cluster is quiescent when the nodes die.
    let end = trace.jobs.iter().map(|j| j.submit).max().unwrap() + SimDuration::from_hours(1);
    let forever_down = |nodes: &[u32]| {
        FaultSchedule::from_events(
            nodes
                .iter()
                .map(|&n| FaultEvent {
                    at: end,
                    node: NodeId(n),
                    kind: FaultKind::Crash,
                })
                .collect(),
        )
    };

    // Replication: 2 of 4 workers gone for good — a 3-replica target cannot
    // be met on 2 surviving nodes, so the degraded set never empties.
    let mut cfg = small_sim(Scenario::policy_pair("lru", "osa"));
    cfg.faults = forever_down(&[1, 2]);
    let report = run_trace(cfg, &trace);
    assert!(report.faults.last_fault_at.is_some());
    assert_eq!(report.faults.full_replication_at, None);
    assert_eq!(report.faults.time_to_full_replication(), None);
    assert!(
        report.faults.repair_debt_bytes > ByteSize::ZERO,
        "a run ending mid-repair owes the missing replicas as debt"
    );

    // Erasure coding: EC(4,2) stripes span 6 of 8 workers, so three
    // permanently-dead nodes leave some stripe below `k` live shards —
    // unreconstructable, and the clock must keep saying so.
    let mut cfg = small_sim(Scenario::policy_pair("lru", "osa"));
    cfg.dfs.workers = 8;
    cfg.dfs.tier_capacity =
        PerTier::from_fn(|t| ByteSize::from_bytes(cfg.dfs.tier_capacity.get(t).as_bytes() / 2));
    *cfg.dfs.redundancy.get_mut(StorageTier::Hdd) =
        octo_dfs::RedundancyMode::Erasure { k: 4, m: 2 };
    // Low downgrade thresholds so the LRU policy actually stripes cold
    // files into the EC tier before the crash.
    cfg.tiering.start_threshold = 0.30;
    cfg.tiering.stop_threshold = 0.25;
    cfg.faults = forever_down(&[1, 2, 3]);
    let report = run_trace(cfg, &trace);
    assert!(report.faults.last_fault_at.is_some());
    assert_eq!(report.faults.full_replication_at, None);
    assert_eq!(report.faults.time_to_full_replication(), None);
    assert!(
        report.faults.repair_debt_bytes > ByteSize::ZERO,
        "unreconstructable stripes still owe their dead shards as debt"
    );
}

/// Faults also work without any tiering policy installed (plain OctopusFS):
/// repair is driven by the monitor tick alone.
#[test]
fn faults_heal_without_tiering_policies() {
    let trace = small_trace(5);
    let mut cfg = small_sim(Scenario::OctopusFs);
    cfg.faults = FaultSchedule::generate(&FaultConfig::default(), 4, 23);
    let report = run_trace(cfg, &trace);
    assert_eq!(report.jobs.len(), trace.jobs.len());
    assert!(report.faults.crashes > 0);
    assert!(report.faults.bytes_re_replicated > ByteSize::ZERO);
}

#[test]
fn all_scenarios_run_to_completion() {
    let trace = small_trace(3);
    for scenario in [
        Scenario::Hdfs,
        Scenario::HdfsCache,
        Scenario::OctopusFs,
        Scenario::policy_pair("lru", "osa"),
        Scenario::policy_pair("xgb", "xgb"),
    ] {
        let label = scenario.label();
        let report = run_trace(small_sim(scenario), &trace);
        assert_eq!(
            report.jobs.len(),
            trace.jobs.len(),
            "{label}: every job must finish"
        );
        assert!(
            report.total_read() > ByteSize::ZERO,
            "{label}: reads happened"
        );
        for j in &report.jobs {
            assert!(j.finish >= j.submit, "{label}: causality");
            assert!(!j.tasks.is_empty(), "{label}: jobs have tasks");
        }
    }
}

#[test]
fn hdfs_reads_everything_from_hdd() {
    let trace = small_trace(5);
    let report = run_trace(small_sim(Scenario::Hdfs), &trace);
    assert_eq!(report.read_from_memory(), ByteSize::ZERO);
    assert_eq!(
        report.bytes_read_by_tier[StorageTier::Ssd.index()],
        ByteSize::ZERO
    );
    assert_eq!(report.total_read(), report.bytes_read_by_tier[2]);
}

#[test]
fn octopusfs_serves_some_reads_from_memory() {
    let trace = small_trace(5);
    let report = run_trace(small_sim(Scenario::OctopusFs), &trace);
    let mem_frac = report.read_from_memory().fraction_of(report.total_read());
    assert!(
        mem_frac > 0.10,
        "tiered placement should serve reads from memory: {mem_frac:.3}"
    );
}

#[test]
fn tiering_policies_beat_plain_octopusfs_on_memory_reads() {
    let trace = small_trace(5);
    let plain = run_trace(small_sim(Scenario::OctopusFs), &trace);
    let managed = run_trace(small_sim(Scenario::policy_pair("lru", "osa")), &trace);
    let plain_frac = plain.read_from_memory().fraction_of(plain.total_read());
    let managed_frac = managed.read_from_memory().fraction_of(managed.total_read());
    assert!(
        managed_frac > plain_frac,
        "LRU-OSA should raise memory reads: {managed_frac:.3} vs {plain_frac:.3}"
    );
    // And movement must actually have happened.
    assert!(managed.movement.transfers_completed > 0);
}

#[test]
fn tiering_improves_completion_time_and_efficiency() {
    let trace = small_trace(9);
    let hdfs = run_trace(small_sim(Scenario::Hdfs), &trace);
    let xgb = run_trace(small_sim(Scenario::policy_pair("xgb", "xgb")), &trace);
    assert!(
        xgb.mean_completion_secs() < hdfs.mean_completion_secs(),
        "Octopus++ must beat HDFS on completion time: {:.2}s vs {:.2}s",
        xgb.mean_completion_secs(),
        hdfs.mean_completion_secs()
    );
    assert!(
        xgb.total_task_seconds() < hdfs.total_task_seconds(),
        "Octopus++ must beat HDFS on efficiency: {:.0} vs {:.0}",
        xgb.total_task_seconds(),
        hdfs.total_task_seconds()
    );
}

#[test]
fn determinism_same_seed_same_report() {
    let trace = small_trace(13);
    let a = run_trace(small_sim(Scenario::policy_pair("lru", "osa")), &trace);
    let b = run_trace(small_sim(Scenario::policy_pair("lru", "osa")), &trace);
    assert_eq!(a, b, "identical config must replay identically");
}

/// DFSIO on a 4-worker cluster with small tiers: 8 GB in 512 MB files, so
/// the memory tier fills during the write phase.
fn small_dfsio() -> DfsioConfig {
    DfsioConfig {
        scenario: Scenario::OctopusFs,
        dfs: DfsConfig {
            workers: 4,
            tier_capacity: PerTier::from_fn(|t| match t {
                StorageTier::Memory => ByteSize::gb(1),
                StorageTier::Ssd => ByteSize::gb(8),
                StorageTier::Hdd => ByteSize::gb(64),
            }),
            ..DfsConfig::default()
        },
        total: ByteSize::gb(8),
        file_size: ByteSize::mb(512),
        window: ByteSize::gb(1),
        ..DfsioConfig::default()
    }
}

/// The exact `f64::to_bits` of the small DFSIO run's `(GB, MB/s)` series.
/// DFSIO drives the flow model with concurrent replication pipelines and
/// tier transfers, so any change to a flow's rate or to a completion
/// instant moves at least one of these values.
#[test]
fn dfsio_series_bits_are_pinned() {
    const WRITE: [(u64, u64); 4] = [
        (0x3ff0000000000000, 0x40303f6e6b7ecc34),
        (0x4008000000000000, 0x4031513346b4c1bf),
        (0x4014000000000000, 0x4031551a2c063d5b),
        (0x401c000000000000, 0x4035aa60b707ccb2),
    ];
    const READ: [(u64, u64); 7] = [
        (0x3ff0000000000000, 0x4068c977f8117336),
        (0x4008000000000000, 0x406b6bb56a647836),
        (0x4010000000000000, 0x40b0f2fba9386823),
        (0x4014000000000000, 0x40591b9e616b2914),
        (0x4018000000000000, 0x4084d55555555555),
        (0x401c000000000000, 0x4069fec092679088),
        (0x4020000000000000, 0x4080aaaaaaaaaaab),
    ];
    let bits = |series: &[(f64, f64)]| -> Vec<(u64, u64)> {
        series
            .iter()
            .map(|(gb, mbps)| (gb.to_bits(), mbps.to_bits()))
            .collect()
    };
    let report = run_dfsio(&small_dfsio());
    assert_eq!(
        bits(&report.write),
        WRITE,
        "write series {:?}",
        report.write
    );
    assert_eq!(bits(&report.read), READ, "read series {:?}", report.read);
}

#[test]
fn dfsio_write_then_read() {
    let cfg = small_dfsio();
    let report = run_dfsio(&cfg);
    assert!(report.write.len() >= 4, "write series: {:?}", report.write);
    assert!(report.read.len() >= 4, "read series: {:?}", report.read);
    for (_, mbps) in report.write.iter().chain(&report.read) {
        assert!(*mbps > 0.0 && mbps.is_finite());
    }
    // Memory-tier placement makes early reads much faster than HDD-only.
    let hdd_cfg = DfsioConfig {
        scenario: Scenario::Hdfs,
        ..cfg
    };
    let hdd = run_dfsio(&hdd_cfg);
    let first_read_tiered = report.read.first().unwrap().1;
    let first_read_hdd = hdd.read.first().unwrap().1;
    assert!(
        first_read_tiered > first_read_hdd * 1.5,
        "tiered read {first_read_tiered:.0} MB/s vs HDD {first_read_hdd:.0} MB/s"
    );
}

#[test]
fn event_traces_replay_including_deletes_and_long_horizons() {
    use octo_cluster::run_event_trace;
    use octo_common::SimTime;
    use octo_workload::{EventTrace, TraceEvent, TraceOp};

    // A multi-day audit log: events far past the old absolute 48h runaway
    // guard must replay (the guard is relative to the trace end), and a
    // mid-trace delete of an input must be honoured.
    let mb = |n| ByteSize::mb(n);
    let day = 24 * 3600;
    let ev = |at_s: u64, op, path: &str, bytes| TraceEvent {
        at: SimTime::from_secs(at_s),
        client: 0,
        op,
        path: path.to_string(),
        bytes,
    };
    let events = EventTrace::new(
        "audit",
        vec![
            ev(0, TraceOp::Write, "/a", mb(64)),
            ev(60, TraceOp::Write, "/b", mb(128)),
            ev(600, TraceOp::Read, "/a", mb(64)),
            ev(1200, TraceOp::Delete, "/a", ByteSize::ZERO),
            // Two days later the second file is still being read.
            ev(2 * day + 600, TraceOp::Read, "/b", mb(128)),
            ev(2 * day + 1200, TraceOp::Open, "/b", mb(128)),
        ],
    );
    let report = run_event_trace(small_sim(Scenario::policy_pair("lru", "osa")), &events)
        .expect("valid trace replays");
    assert_eq!(report.workload, "audit");
    assert_eq!(report.jobs.len(), 3);
    assert!(report.jobs.iter().all(|j| !j.failed));

    // Reads of the deleted path are rejected at compile time, not at
    // simulation time.
    let mut bad = events.clone();
    bad.events.push(ev(1800, TraceOp::Read, "/a", mb(64)));
    assert!(run_event_trace(small_sim(Scenario::Hdfs), &bad).is_err());
}
