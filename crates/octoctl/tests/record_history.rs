//! A fixed read history replayed into `FsBackend` over a small tree, with
//! one plan → execute cycle per burst, the way `octoctl daemon` runs them.
//!
//! One backend records the reads, as `octoctl record` does. A second one,
//! opened once, refreshes before each plan, as the daemon does at the top
//! of each cycle. The history is long enough to cross the access log's
//! compaction threshold several times, so the planner both replays log
//! tails and reloads after compactions, and the paths carry quotes,
//! spaces, newlines and multi-byte text. The test pins the FNV-1a of each
//! cycle's plan JSON and the final logical clock: the values were taken
//! from the whole-sidecar backend that preceded the log, which the planner
//! reopened before each burst, so any change to how reads are persisted,
//! replayed or refreshed that alters a decision fails here.

#[path = "../src/testdir.rs"]
mod testdir;

use octo_backend_fs::FsBackend;
use octo_common::{DetRng, SimTime};
use octo_dfs::backend::StorageBackend;
use octo_policies::plan_moves;
use octoctl::{execute_plan, OctoctlConfig};
use std::sync::atomic::AtomicBool;
use testdir::TempTree;

const FILES: [(&str, &str, usize); 14] = [
    ("mem", "plain/a.dat", 1500),
    ("mem", "plain/b.dat", 1200),
    ("mem", "q\"uote\".dat", 900),
    ("mem", "with space/c d.dat", 1100),
    ("mem", "new\nline.dat", 1300),
    ("ssd", "données/π-1.bin", 2000),
    ("ssd", "données/π-2.bin", 1700),
    ("ssd", "emoji 😀/f.dat", 800),
    ("ssd", "back\\slash.dat", 1000),
    ("hdd", "deep/x/y/z.dat", 2500),
    ("hdd", "日本語/ファイル.dat", 1400),
    ("hdd", "tab\there.dat", 600),
    ("hdd", "mixed \"q\" \n 😀.dat", 1900),
    ("hdd", "plain/e.dat", 700),
];

const BURSTS: usize = 8;
const READS_PER_BURST: usize = 450;
const CLOCK_START_MS: u64 = 5_000_000;
const CLOCK_STEP_MS: u64 = 100_000;

/// FNV-1a of each cycle's plan JSON, one per burst.
const PLAN_FNV: [u64; BURSTS] = [
    0x2fc9_ca34_b171_d281,
    0x79e5_c234_3f4e_c6c6,
    0xfded_e01a_071a_77eb,
    0x21a7_4de3_fbda_2187,
    0x306e_7775_d65d_a0f2,
    0xbd31_5b35_e567_98ed,
    0x3803_060a_db01_086c,
    0x2b95_26b8_cd34_f567,
];
/// The backend clock after the last burst.
const FINAL_CLOCK_MS: u64 = 365_000_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fixed_history_plans_are_pinned_across_compactions_and_reopens() {
    let base = TempTree::new("octoctl-history");
    let mut cfg = OctoctlConfig::example(base.to_str().unwrap());
    cfg.mem_capacity_bytes = 6_500;
    cfg.ssd_capacity_bytes = 9_000;
    cfg.hdd_capacity_bytes = 100_000;
    for (tier, path, size) in FILES {
        let full = base.join(tier).join(path);
        std::fs::create_dir_all(full.parent().unwrap()).unwrap();
        std::fs::write(&full, vec![size as u8; size]).unwrap();
    }

    let mut rng = DetRng::seed_from_u64(0x005E_ED0F_4157);
    let mut clock = CLOCK_START_MS;
    let mut hashes = Vec::new();
    let (mut up, mut down) = (0usize, 0usize);
    let (mut tails, mut reloads) = (0usize, 0usize);
    let mut recorder = FsBackend::open(cfg.backend_config()).unwrap();
    let mut backend = FsBackend::open(cfg.backend_config()).unwrap();
    for burst in 0..BURSTS {
        // Each burst reads four files, three places further along than the
        // last burst's; a tenth of the reads arrive late, stamped before the
        // newest access.
        for _ in 0..READS_PER_BURST {
            let pick = (burst * 3 + rng.index(4)) % FILES.len();
            clock += CLOCK_STEP_MS;
            let at = if rng.chance(0.1) {
                clock - rng.below(20) * CLOCK_STEP_MS
            } else {
                clock
            };
            recorder
                .record_read(FILES[pick].1, SimTime::from_millis(at))
                .unwrap();
        }
        let refresh = backend.refresh().unwrap();
        if refresh.reloaded {
            reloads += 1;
        } else {
            assert_eq!(refresh.records, READS_PER_BURST, "burst {burst}");
            tails += 1;
        }
        assert_eq!(backend.sidecar(), recorder.sidecar(), "burst {burst}");
        let plan = plan_moves(&backend, &cfg.planner_config()).unwrap();
        hashes.push(fnv1a(plan.to_json().as_bytes()));
        for m in &plan.moves {
            if m.to == "MEM" {
                up += 1;
            } else {
                down += 1;
            }
        }
        let report = execute_plan(&mut backend, &plan, &AtomicBool::new(false));
        assert_eq!(report.moved, plan.moves.len(), "burst {burst}: {report:?}");
    }
    let reopened = FsBackend::open(cfg.backend_config()).unwrap();
    assert_eq!(reopened.sidecar(), backend.sidecar());
    let final_clock = reopened.clock().as_millis();

    assert!(
        up > 0 && down > 0,
        "moves go both ways: {up} up, {down} down"
    );
    assert!(
        tails > 0 && reloads > 0,
        "refreshes both replay tails and reload: {tails} tails, {reloads} reloads"
    );
    assert_eq!(
        (hashes.as_slice(), final_clock),
        (PLAN_FNV.as_slice(), FINAL_CLOCK_MS),
        "plan hashes {hashes:#x?} and final clock {final_clock}"
    );
}
