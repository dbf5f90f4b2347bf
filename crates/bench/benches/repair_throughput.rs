//! Repair-throughput probe: the pinned fault scenario run twice on
//! identical hardware — replication-3 cold tier vs erasure-coded EC(4,2)
//! cold tier — recording bytes re-replicated and bytes reconstructed per
//! monitor epoch to `BENCH_repair.json`.
//!
//! Quick mode (CI: `OCTO_BENCH_MODE=quick` or `--quick`) uses the same
//! configuration the golden `lru_osa_ec42_fault` digest pins; full mode
//! runs the full-fidelity settings. Both runs share one generated fault
//! schedule and the low tiering thresholds that push cold files into the
//! HDD tier — only that tier's redundancy mode differs. The EC run is
//! additionally executed at 1 and 8 epoch threads and the probe **asserts
//! the canonical-transcript digests are identical**: the pooled epoch
//! engine must interleave stripe rebuilds with re-replication the same
//! way at any width.
//!
//! ```text
//! OCTO_BENCH_MODE=quick cargo bench -p bench --bench repair_throughput
//! ```

use bench::banner;
use octo_cluster::{run_trace, RunReport, Scenario, SimConfig, MONITOR_INTERVAL};
use octo_common::StorageTier;
use octo_experiments::{report_digest, ExpSettings};
use octo_workload::{FaultConfig, FaultSchedule, TraceKind};

fn quick_mode() -> bool {
    std::env::var("OCTO_BENCH_MODE").as_deref() == Ok("quick")
        || std::env::args().any(|a| a == "--quick")
}

/// The EC(4,2) fault configuration the golden digest pins: 8 workers
/// (k + m = 6 distinct nodes per stripe), halved per-node capacities, and
/// thresholds low enough that the LRU policy actively downgrades into the
/// erasure-coded tier.
fn ec42_cfg(settings: &ExpSettings) -> SimConfig {
    let mut cfg = settings.sim_erasure(Scenario::policy_pair("lru", "osa"), 4, 2);
    cfg.tiering.start_threshold = 0.30;
    cfg.tiering.stop_threshold = 0.25;
    cfg.faults = FaultSchedule::generate(&FaultConfig::default(), cfg.dfs.workers, 3);
    cfg
}

struct Probe {
    name: &'static str,
    epochs: u64,
    wall_secs: f64,
    report: RunReport,
}

impl Probe {
    fn run(name: &'static str, cfg: SimConfig, trace: &octo_workload::Trace) -> Self {
        let monitor_ms = MONITOR_INTERVAL.as_millis();
        let start = std::time::Instant::now();
        let report = run_trace(cfg, trace);
        let wall_secs = start.elapsed().as_secs_f64();
        let epochs = (report.sim_end.as_millis() / monitor_ms).max(1);
        Probe {
            name,
            epochs,
            wall_secs,
            report,
        }
    }

    fn re_replicated_per_epoch(&self) -> u64 {
        self.report.faults.bytes_re_replicated.as_bytes() / self.epochs
    }

    fn reconstructed_per_epoch(&self) -> u64 {
        self.report.faults.bytes_reconstructed.as_bytes() / self.epochs
    }

    fn json(&self) -> String {
        let f = &self.report.faults;
        format!(
            "    {{\"mode\": \"{}\", \"epochs\": {}, \"wall_secs\": {:.4}, \
             \"bytes_re_replicated\": {}, \"bytes_reconstructed\": {}, \
             \"re_replicated_per_epoch\": {}, \"reconstructed_per_epoch\": {}, \
             \"repairs_completed\": {}, \"stripes_rebuilt\": {}, \
             \"degraded_reads\": {}, \"lost_files\": {}, \"digest\": {}}}",
            self.name,
            self.epochs,
            self.wall_secs,
            f.bytes_re_replicated.as_bytes(),
            f.bytes_reconstructed.as_bytes(),
            self.re_replicated_per_epoch(),
            self.reconstructed_per_epoch(),
            f.repairs_completed,
            f.stripes_rebuilt,
            f.reads_degraded_ec,
            f.lost_files,
            report_digest(&self.report),
        )
    }
}

fn main() {
    let quick = quick_mode();
    banner(
        "Repair throughput: re-replication vs EC(4,2) reconstruction",
        "motivation: ROADMAP open item 1 — the cold tier at ~1.5x byte \
         overhead must repair within the same bounded bytes/epoch budget \
         replication uses, without losing anything replication keeps",
    );
    let settings = if quick {
        ExpSettings::quick(3)
    } else {
        ExpSettings::full(3)
    };
    let trace = settings.trace(TraceKind::Facebook);

    let ec_cfg = ec42_cfg(&settings);
    let mut rep_cfg = ec_cfg.clone();
    *rep_cfg.dfs.redundancy.get_mut(StorageTier::Hdd) = octo_dfs::RedundancyMode::Replicated(3);

    let rep = Probe::run("replication3", rep_cfg, &trace);
    let ec = Probe::run("ec42", ec_cfg.clone(), &trace);

    for p in [&rep, &ec] {
        let f = &p.report.faults;
        println!(
            "{:>12}: {} epochs, {:.2}s wall — re-replicated {} B/epoch, \
             reconstructed {} B/epoch ({} rebuilds), {} lost files",
            p.name,
            p.epochs,
            p.wall_secs,
            p.re_replicated_per_epoch(),
            p.reconstructed_per_epoch(),
            f.stripes_rebuilt,
            f.lost_files,
        );
    }
    assert!(
        ec.report.faults.stripes_rebuilt > 0,
        "the EC probe must exercise reconstruction repair"
    );
    assert!(
        ec.report.faults.lost_files <= rep.report.faults.lost_files,
        "EC(4,2) lost files replication-3 kept"
    );

    // The determinism gate: the EC fault run must produce the identical
    // transcript at 1 and 8 epoch threads.
    let mut digests = Vec::new();
    for threads in [1usize, 8] {
        let mut cfg = ec_cfg.clone();
        cfg.epoch_threads = threads;
        digests.push((threads, report_digest(&run_trace(cfg, &trace))));
    }
    assert_eq!(
        digests[0].1, digests[1].1,
        "EC fault-run digest diverged between 1 and 8 epoch threads"
    );
    println!(
        "determinism: EC digest {:#018x} identical at 1 and 8 epoch threads",
        digests[0].1
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"repair_throughput\",\n  \"mode\": \"{}\",\n  \
         \"scenario\": \"lru/osa + pinned faults\",\n  \"workers\": {},\n",
        if quick { "quick" } else { "full" },
        ec_cfg.dfs.workers,
    ));
    json.push_str("  \"runs\": [\n");
    json.push_str(&rep.json());
    json.push_str(",\n");
    json.push_str(&ec.json());
    json.push_str("\n  ],\n");
    json.push_str(&format!(
        "  \"ec_digest_1_thread\": {},\n  \"ec_digest_8_threads\": {}\n}}\n",
        digests[0].1, digests[1].1
    ));

    let out = std::env::var("OCTO_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repair.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_repair.json");
    println!("\nwrote {out}");
}
