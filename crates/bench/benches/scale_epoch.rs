//! Million-file scale bench: drives commit/access/epoch cycles through
//! the sharded DFS core at a sweep of epoch fan-out widths and records
//! throughput, epoch latency, and a peak-RSS proxy to `BENCH_scale.json`.
//!
//! Quick mode (CI: `OCTO_BENCH_MODE=quick` or `--quick`) runs one million
//! files for 50 epochs; full mode runs ten million files for 100. Each
//! mode repeats the identical workload once per thread count in
//! `OCTO_SCALE_THREADS` (default `1,2,4,8,16`; `1` scans the shards
//! inline through the same engine) and **asserts every run produced the
//! same decision digest** — the epoch engine must be byte-identical at
//! any width. The JSON is the scaling baseline later changes compare against:
//!
//! ```text
//! OCTO_BENCH_MODE=quick cargo bench --bench scale_epoch
//! OCTO_SCALE_THREADS=1,8 cargo bench --bench scale_epoch -- --quick
//! ```

use bench::banner;
use octo_experiments::{run_scale, ScaleConfig, ScaleReport};

fn quick_mode() -> bool {
    std::env::var("OCTO_BENCH_MODE").as_deref() == Ok("quick")
        || std::env::args().any(|a| a == "--quick")
}

fn thread_sweep() -> Vec<usize> {
    let spec = std::env::var("OCTO_SCALE_THREADS").unwrap_or_else(|_| "1,2,4,8,16".to_string());
    let threads: Vec<usize> = spec
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("OCTO_SCALE_THREADS: bad thread count {s:?}"))
        })
        .collect();
    assert!(
        !threads.is_empty(),
        "OCTO_SCALE_THREADS must list at least one count"
    );
    threads
}

fn main() {
    let quick = quick_mode();
    let sweep = thread_sweep();
    banner(
        "Million-file commit/access/epoch scalability (parallel epoch engine)",
        "motivation: the ROADMAP's production-scale target — tiering \
         decisions must stay cheap as the namespace grows past what §7 \
         ever deploys, and identical at every worker-pool width",
    );
    let base = if quick {
        ScaleConfig::quick()
    } else {
        ScaleConfig::full()
    };
    println!(
        "\nfiles={} epochs={} accesses/epoch={} upgrades/epoch={} threads={sweep:?}",
        base.files, base.epochs, base.accesses_per_epoch, base.upgrades_per_epoch
    );

    let mut runs: Vec<ScaleReport> = Vec::new();
    for &threads in &sweep {
        let report = run_scale(&base.clone().with_threads(threads));
        println!(
            "threads={threads}: ingest {:.2}s ({:.0} files/s), epochs mean {:.2} ms / max {:.2} ms, \
             {} transfers, digest {:#018x}",
            report.ingest_secs,
            report.ingest_files_per_sec,
            report.mean_epoch_ms(),
            report.max_epoch_ms(),
            report.moves,
            report.digest,
        );
        runs.push(report);
    }
    for r in &runs[1..] {
        assert_eq!(
            r.digest, runs[0].digest,
            "decision digest diverged between {} and {} threads — the parallel \
             epoch engine is no longer deterministic",
            runs[0].threads, r.threads
        );
        assert_eq!(r.moves, runs[0].moves, "transfer counts diverged");
    }

    let first = &runs[0];
    let best = runs
        .iter()
        .min_by(|a, b| a.mean_epoch_ms().total_cmp(&b.mean_epoch_ms()))
        .expect("at least one run");
    println!(
        "\nbest width: threads={} (mean {:.2} ms, max {:.2} ms)",
        best.threads,
        best.mean_epoch_ms(),
        best.max_epoch_ms(),
    );
    println!(
        "memory: peak RSS proxy {} kB, stats bookkeeping {} bytes ({} B/file)",
        best.peak_rss_kb,
        best.stats_memory_bytes,
        best.stats_memory_bytes as u64 / best.files.max(1)
    );

    // Top-level numbers are the first width's run (1 thread by default,
    // comparable across changes); the sweep array carries one entry per width
    // and `epoch_ms` the best width's trace.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"scale_epoch\",\n  \"mode\": \"{}\",\n  \"policy\": \"xgb\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str(&format!(
        "  \"files\": {},\n  \"epochs\": {},\n  \"ingest_secs\": {:.4},\n  \
         \"ingest_files_per_sec\": {:.1},\n  \"accesses\": {},\n  \
         \"accesses_per_sec\": {:.1},\n  \"mean_epoch_ms\": {:.4},\n  \
         \"max_epoch_ms\": {:.4},\n  \"moves\": {},\n  \"peak_rss_kb\": {},\n  \
         \"stats_memory_bytes\": {},\n  \"digest\": {},\n",
        first.files,
        first.epochs,
        first.ingest_secs,
        first.ingest_files_per_sec,
        first.accesses,
        first.accesses_per_sec,
        first.mean_epoch_ms(),
        first.max_epoch_ms(),
        first.moves,
        first.peak_rss_kb,
        first.stats_memory_bytes,
        first.digest,
    ));
    json.push_str("  \"sweep\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"ingest_secs\": {:.4}, \"mean_epoch_ms\": {:.4}, \
             \"max_epoch_ms\": {:.4}, \"moves\": {}, \"digest\": {}}}{}\n",
            r.threads,
            r.ingest_secs,
            r.mean_epoch_ms(),
            r.max_epoch_ms(),
            r.moves,
            r.digest,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"best_threads\": {},\n", best.threads));
    json.push_str("  \"epoch_ms\": [");
    for (i, ms) in best.epoch_ms.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!("{ms:.3}"));
    }
    json.push_str("]\n}\n");

    // Default to the workspace root (cargo runs benches from the package
    // dir); overridable for CI artifact staging.
    let out = std::env::var("OCTO_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_scale.json");
    println!("\nwrote {out}");

    for r in &runs {
        assert_eq!(
            r.epoch_ms.len(),
            base.epochs as usize,
            "every epoch must complete"
        );
        assert!(r.moves > 0, "epochs must schedule transfers");
    }
}
