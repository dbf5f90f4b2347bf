//! `epoch_scale_xgb`: the call sequence of `octo_experiments::run_scale`,
//! driven call by call so each `TieredDfs`/`TieringEngine` call gets a span.
//!
//! Set-up builds the DFS and ingests the namespace; the measured phase is
//! the epoch loop (uniform accesses, `tick`, SSD->MEM refill, one XGB
//! `run_downgrade_pooled` epoch and its `complete_transfer`s). The decision
//! digest is folded exactly as `run_scale` folds it and must equal
//! `run_scale`'s digest for the same config.

use crate::spans::{totals, Tracer};
use crate::{input_seed, median, median_by_name, Args, Outcome, Schedule};
use octo_common::{ByteSize, DetRng, PerTier, SimTime, StorageTier};
use octo_dfs::{DfsConfig, EpochPool, TieredDfs};
use octo_experiments::{run_scale, ScaleConfig};
use octo_policies::{downgrade_policy, TieringConfig, TieringEngine};
use std::collections::BTreeMap;
use std::time::Instant;

fn config(seed: u64) -> ScaleConfig {
    ScaleConfig {
        files: 200_000,
        epochs: 12,
        accesses_per_epoch: 10_000,
        upgrades_per_epoch: 4_000,
        seed,
        threads: 1,
    }
}

/// `run_scale`'s cluster: memory ends ingest at ~92% (over the 90% start
/// threshold), every file a single 1 MB block.
fn scale_dfs(files: u64) -> TieredDfs {
    let workers = 16u64;
    let mem_per_node = ByteSize::mb((files.div_ceil(workers) * 100).div_ceil(92) + 8);
    TieredDfs::new(DfsConfig {
        workers: workers as u32,
        replication: 1,
        block_size: ByteSize::mb(1),
        tier_capacity: PerTier::from_fn(|t| match t {
            StorageTier::Memory => mem_per_node,
            StorageTier::Ssd => ByteSize::mb(files.div_ceil(workers) * 2 + 64),
            StorageTier::Hdd => ByteSize::gb(256),
        }),
        ..DfsConfig::default()
    })
    .expect("valid scale config")
}

fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What one pass measured and decided.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    digest: u64,
    planned: u64,
    completed: u64,
    downgrade_moves: u64,
    accesses: u64,
    memory_hits: u64,
}

fn one_pass(cfg: &ScaleConfig, tracer: &Tracer) -> Pass {
    let t_setup = Instant::now();
    let mut dfs = scale_dfs(cfg.files);
    let tiering = TieringConfig {
        start_threshold: 0.90,
        stop_threshold: 0.895,
        ..TieringConfig::default()
    };
    let mut engine = TieringEngine::new(
        Some(downgrade_policy("xgb", &tiering, &Default::default(), cfg.seed).expect("xgb exists")),
        None,
    );
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let pool = EpochPool::new(cfg.threads);
    for i in 0..cfg.files {
        let now = SimTime::from_millis(i);
        let file = tracer.span("dfs.ingest", || {
            let plan = dfs
                .create_file(&format!("/scale/f{i}"), ByteSize::mb(1), now)
                .expect("tiers sized to hold the namespace");
            dfs.commit_file(plan.file, now).expect("fresh file");
            plan.file
        });
        tracer.span("policies.notify", || engine.notify_created(&dfs, file, now));
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut pass = Pass {
        setup_s,
        wall_s: 0.0,
        digest: 0xcbf2_9ce4_8422_2325,
        planned: 0,
        completed: 0,
        downgrade_moves: 0,
        accesses: 0,
        memory_hits: 0,
    };
    let t_wall = Instant::now();
    tracer.span("phase.measured", || {
        for epoch in 0..cfg.epochs {
            let now = SimTime::from_millis(cfg.files + u64::from(epoch) * 60_000);
            let committed = dfs.committed_file_count();
            for _ in 0..cfg.accesses_per_epoch {
                let rank = rng.index(committed);
                let (f, hit) = tracer.span("dfs.rank_lookup", || {
                    let f = dfs
                        .nth_committed_file(rank)
                        .expect("rank below committed count");
                    (f, dfs.file_on_tier(f, StorageTier::Memory))
                });
                tracer
                    .span("dfs.record_access", || dfs.record_access(f, now))
                    .expect("committed file");
                tracer.span("policies.notify", || engine.notify_accessed(&dfs, f, now));
                pass.accesses += 1;
                pass.memory_hits += u64::from(hit);
            }
            tracer.span("policies.tick", || engine.tick(&dfs, now));
            tracer.span("dfs.refill", || {
                let refill: Vec<_> = dfs
                    .files_on_tier(StorageTier::Ssd)
                    .filter(|f| !dfs.file_on_tier(*f, StorageTier::Memory))
                    .take(cfg.upgrades_per_epoch as usize)
                    .collect();
                for f in refill {
                    if let Ok(id) = dfs.plan_upgrade(f, StorageTier::Memory) {
                        pass.planned += 1;
                        if dfs.complete_transfer(id).is_ok() {
                            pass.completed += 1;
                        }
                    }
                }
            });
            let planned = tracer.span("policies.downgrade", || {
                engine.run_downgrade_pooled(&mut dfs, StorageTier::Memory, now, &pool)
            });
            pass.planned += planned.len() as u64;
            pass.downgrade_moves += planned.len() as u64;
            pass.digest = fnv1a_u64(pass.digest, u64::from(epoch));
            pass.digest = fnv1a_u64(pass.digest, planned.len() as u64);
            for id in planned {
                match tracer.span("dfs.complete_transfer", || dfs.complete_transfer(id)) {
                    Ok(t) => {
                        pass.completed += 1;
                        pass.digest = fnv1a_u64(pass.digest, t.file.raw());
                    }
                    // A failed completion leaves the digest short, so the
                    // digest check reports it too.
                    Err(_) => pass.digest = fnv1a_u64(pass.digest, u64::MAX),
                }
            }
        }
    });
    pass.wall_s = t_wall.elapsed().as_secs_f64();
    pass
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config(input_seed(args.seed, 0));
    let reference = run_scale(&cfg);

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut schedule = Schedule::new(args);
    let mut last = None;
    while let Some((pass_no, trace)) = schedule.next(last) {
        let start = Instant::now();
        let tracer = Tracer::new(trace);
        let pass = one_pass(&cfg, &tracer);
        out.check(pass.digest == reference.digest, || {
            format!(
                "pass {pass_no}: decision digest {:016x} != run_scale's {:016x}",
                pass.digest, reference.digest
            )
        });
        out.check(pass.completed == pass.planned, || {
            format!(
                "pass {pass_no}: {} of {} planned transfers completed",
                pass.completed, pass.planned
            )
        });
        out.check(pass.planned == reference.moves, || {
            format!(
                "pass {pass_no}: {} transfers planned, run_scale planned {}",
                pass.planned, reference.moves
            )
        });
        if trace {
            let spans = tracer.take();
            layers.push(layer_metrics(&spans, &pass));
            crate::save_spans(args, &spans, &mut out);
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        last = Some(start.elapsed().as_secs_f64());
    }

    let first = untraced.first().expect("pass 0 is untraced");
    out.attempted = first.planned;
    out.failed = first.planned - first.completed;
    out.check(first.downgrade_moves > 0, || {
        "no downgrade was planned".into()
    });
    let wall_s = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    out.set(
        "setup_s",
        median(&untraced.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
    );
    out.set("wall_s", wall_s);
    out.set(
        "byte_hit_ratio",
        first.memory_hits as f64 / first.accesses.max(1) as f64,
    );
    out.set(
        "bytes_moved_gb",
        (first.planned * ByteSize::mb(1).as_bytes()) as f64 / 1e9,
    );
    out.set(
        "failed_ratio",
        out.failed as f64 / first.planned.max(1) as f64,
    );
    if !layers.is_empty() {
        for (n, v) in median_by_name(&layers) {
            out.set(n, v);
        }
        let walls = |passes: &[Pass]| passes.iter().map(|p| p.wall_s).collect::<Vec<_>>();
        out.set(
            "trace.overhead_s",
            crate::trace_overhead(&walls(&traced), &walls(&untraced)),
        );
    }
    out
}

fn layer_metrics(spans: &[crate::spans::Span], pass: &Pass) -> BTreeMap<&'static str, f64> {
    let tot = totals(spans);
    let busy = |n: &str| tot.get(n).map_or(0.0, |t| t.busy_s);
    let calls = |n: &str| tot.get(n).map_or(0, |t| t.calls) as f64;
    let mut m = BTreeMap::new();
    m.insert("dfs.ingest.calls", calls("dfs.ingest"));
    m.insert("dfs.ingest.busy_s", busy("dfs.ingest"));
    m.insert("dfs.rank_lookup.busy_s", busy("dfs.rank_lookup"));
    m.insert("dfs.record_access.calls", calls("dfs.record_access"));
    m.insert("dfs.record_access.busy_s", busy("dfs.record_access"));
    m.insert("dfs.refill.busy_s", busy("dfs.refill"));
    m.insert(
        "dfs.complete_transfer.calls",
        calls("dfs.complete_transfer"),
    );
    m.insert(
        "dfs.complete_transfer.busy_s",
        busy("dfs.complete_transfer"),
    );
    m.insert("policies.notify.busy_s", busy("policies.notify"));
    m.insert("policies.tick.busy_s", busy("policies.tick"));
    m.insert("policies.downgrade.calls", calls("policies.downgrade"));
    m.insert("policies.downgrade.busy_s", busy("policies.downgrade"));
    m.insert("policies.downgrade.moves", pass.downgrade_moves as f64);
    m.insert(
        "policies.downgrade.us_per_move",
        busy("policies.downgrade") / pass.downgrade_moves.max(1) as f64 * 1e6,
    );
    m.insert(
        "trace.unattributed_s",
        tot.get("phase.measured").map_or(0.0, |t| t.self_s),
    );
    m
}
