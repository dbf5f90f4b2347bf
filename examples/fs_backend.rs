//! The serving front end, end to end, on a real directory tree: seed a
//! tiny tiered tree under a temp dir, record some reads, render the
//! deterministic move plan, then execute it copy → verify → delete.
//!
//! Run with: `cargo run --release --example fs_backend`

use octopuspp::backend_fs::{FsBackend, FsBackendConfig};
use octopuspp::common::{ByteSize, PerTier, SimTime, StorageTier};
use octopuspp::dfs::backend::StorageBackend;
use octopuspp::policies::{plan_moves, PlannerConfig};

fn main() {
    let base = std::env::temp_dir().join(format!("octo-fs-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // A 2 KB memory tier over roomy SSD/HDD tiers.
    let caps = PerTier::from_fn(|t| match t {
        StorageTier::Memory => ByteSize::from_bytes(2048),
        StorageTier::Ssd => ByteSize::mb(1),
        StorageTier::Hdd => ByteSize::mb(4),
    });
    let cfg = FsBackendConfig::under(&base, caps);

    // Overfill the memory tier with four 512 B files.
    let mem_root = cfg.roots.get(StorageTier::Memory).clone();
    std::fs::create_dir_all(&mem_root).unwrap();
    for name in ["alpha.dat", "beta.dat", "gamma.dat", "delta.dat"] {
        std::fs::write(mem_root.join(name), vec![b'x'; 512]).unwrap();
    }

    let mut backend = FsBackend::open(cfg).unwrap();
    // Reads feed the access log; the planner keeps the hot files in memory
    // and drains the cold ones. Timestamps are logical, not wall clock.
    backend
        .record_read("alpha.dat", SimTime::from_secs(10))
        .unwrap();
    backend
        .record_read("alpha.dat", SimTime::from_secs(20))
        .unwrap();
    backend
        .record_read("beta.dat", SimTime::from_secs(15))
        .unwrap();

    let plan = plan_moves(&backend, &PlannerConfig::default()).unwrap();
    print!("{}", plan.to_markdown());

    let report = octoctl_style_execute(&mut backend, &plan);
    println!(
        "executed: {} moved ({} bytes), {} skipped",
        report.0, report.2, report.1
    );
    for tier in StorageTier::ALL {
        let st = backend.tier_status(tier).unwrap();
        println!(
            "{}: {} / {} bytes used",
            tier.label(),
            st.used.as_bytes(),
            st.capacity.as_bytes()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// The daemon's copy → verify → delete ordering, inlined: a crash at any
/// point leaves at least one readable copy of every payload.
fn octoctl_style_execute(
    backend: &mut FsBackend,
    plan: &octopuspp::policies::MovePlan,
) -> (usize, usize, u64) {
    let tier = |label: &str| {
        StorageTier::ALL
            .into_iter()
            .find(|t| t.label() == label)
            .unwrap()
    };
    let (mut moved, mut skipped, mut bytes) = (0usize, 0usize, 0u64);
    for mv in &plan.moves {
        let (from, to) = (tier(&mv.from), tier(&mv.to));
        let step = backend
            .copy_file(&mv.path, from, to)
            .and_then(|_| backend.verify_copy(&mv.path, from, to))
            .and_then(|_| backend.delete_replica(&mv.path, from));
        match step {
            Ok(()) => {
                moved += 1;
                bytes += mv.bytes;
            }
            Err(e) => {
                skipped += 1;
                eprintln!("move of {} skipped: {e}", mv.path);
            }
        }
    }
    (moved, skipped, bytes)
}
