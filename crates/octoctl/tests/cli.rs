//! End-to-end tests of the `octoctl` binary over a real tempdir tree:
//! deterministic dry-run plans, bounded-bandwidth execution, the PID-lock
//! protocol (stale reclaim, concurrent-daemon mutual exclusion), graceful
//! SIGTERM mid-move, reads recorded while the daemon runs and the refresh
//! that picks them up, the sweep of interrupted copies' temp files, and
//! listings under link cycles and links to themselves.

#[path = "../src/testdir.rs"]
mod testdir;

use octoctl::config::OctoctlConfig;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use testdir::TempTree;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_octoctl")
}

/// A fresh base dir + written config file. `mem_cap` bounds the memory
/// tier; SSD/HDD are roomy so downgrades always have a destination.
fn setup(tag: &str, mem_cap: u64, bandwidth: u64) -> (TempTree, PathBuf) {
    let base = TempTree::new(&format!("octoctl-it-{tag}"));
    std::fs::create_dir_all(&*base).unwrap();
    let mut cfg = OctoctlConfig::example(base.to_str().unwrap());
    cfg.mem_capacity_bytes = mem_cap;
    cfg.ssd_capacity_bytes = 100_000_000;
    cfg.hdd_capacity_bytes = 100_000_000;
    cfg.bandwidth_bytes_per_sec = bandwidth;
    cfg.interval_ms = 2000;
    let cfg_path = base.join("octoctl.json");
    std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();
    (base, cfg_path)
}

fn seed(base: &Path, tier: &str, name: &str, bytes: usize) {
    let p = base.join(tier).join(name);
    std::fs::create_dir_all(p.parent().unwrap()).unwrap();
    std::fs::write(p, vec![0xA5u8; bytes]).unwrap();
}

fn octoctl(args: &[&str]) -> std::process::Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("octoctl runs")
}

fn stdout_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn init_writes_a_loadable_config() {
    let base = TempTree::new("octoctl-it-init");
    std::fs::create_dir_all(&*base).unwrap();
    let cfg_path = base.join("cfg.json");
    let out = octoctl(&[
        "init",
        "--base",
        base.to_str().unwrap(),
        "--config",
        cfg_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let cfg = OctoctlConfig::load(&cfg_path).unwrap();
    assert_eq!(cfg.strategy, "watermark");
    // And status runs against the fresh (empty) tree.
    let out = octoctl(&["status", "--config", cfg_path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let status = stdout_of(&out);
    assert!(
        status.contains("\"clock_ms\":0,\"files\":0,"),
        "numbers print as JSON numbers: {status}"
    );
}

#[test]
fn dry_run_plan_json_is_byte_identical_across_runs() {
    let (base, cfg) = setup("determinism", 1000, 0);
    for (name, sz) in [("a.dat", 400), ("b.dat", 400), ("c.dat", 400)] {
        seed(&base, "mem", name, sz);
    }
    let cfg_s = cfg.to_str().unwrap();
    // Heat history comes from recorded reads, not wall clock.
    for (path, at) in [("a.dat", "1000"), ("a.dat", "2000"), ("b.dat", "1500")] {
        let out = octoctl(&["record", "--config", cfg_s, "--path", path, "--at-ms", at]);
        assert!(out.status.success(), "{out:?}");
    }
    let first = octoctl(&["plan", "--config", cfg_s, "--dry-run", "--json"]);
    assert!(first.status.success(), "{first:?}");
    let plan = stdout_of(&first);
    assert!(plan.contains("\"moves\":["), "plan JSON rendered: {plan}");
    assert!(
        plan.contains("\"path\":\"c.dat\""),
        "the never-read file is the eviction candidate: {plan}"
    );
    for _ in 0..2 {
        let again = octoctl(&["plan", "--config", cfg_s, "--dry-run", "--json"]);
        assert!(again.status.success());
        assert_eq!(stdout_of(&again), plan, "byte-identical replans");
    }
    // Dry run touched nothing.
    assert!(base.join("mem/a.dat").exists());
    assert!(base.join("mem/c.dat").exists());
    // Markdown mode renders the same plan as a table.
    let md = octoctl(&["plan", "--config", cfg_s]);
    assert!(md.status.success());
    assert!(stdout_of(&md).contains("| MEM |"), "{md:?}");
}

#[test]
fn plan_execute_moves_under_a_tiny_bandwidth_budget() {
    // 2 × 400 B must leave MEM (1600/1000 over the start threshold, and
    // one eviction only reaches 1200 > the 850 stop line); at 800 B/s the
    // two copies are paced to ≥ ~1 s total.
    let (base, cfg) = setup("execute", 1000, 800);
    for name in ["a.dat", "b.dat", "c.dat", "d.dat"] {
        seed(&base, "mem", name, 400);
    }
    let cfg_s = cfg.to_str().unwrap();
    let start = Instant::now();
    let out = octoctl(&["plan", "--config", cfg_s, "--execute", "--json"]);
    assert!(out.status.success(), "{out:?}");
    let elapsed = start.elapsed();
    let stdout = stdout_of(&out);
    assert!(stdout.contains("\"event\":\"plan_executed\""), "{stdout}");
    assert!(stdout.contains("\"interrupted\":false,"), "{stdout}");
    assert!(
        elapsed >= Duration::from_millis(900),
        "bandwidth budget ignored: finished in {elapsed:?}"
    );
    // The two coldest files moved copy-verify-delete onto SSD; the
    // survivor stayed; nothing was lost and no temp files remain.
    let mem_files: Vec<_> = std::fs::read_dir(base.join("mem"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(mem_files.len(), 2, "two of four drained: {mem_files:?}");
    let ssd_files: Vec<_> = std::fs::read_dir(base.join("ssd"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(ssd_files.len(), 2, "{ssd_files:?}");
    assert!(ssd_files.iter().all(|f| !f.starts_with('.')));
    // Lock released: a follow-up execute acquires it cleanly.
    let again = octoctl(&["plan", "--config", cfg_s, "--execute", "--json"]);
    assert!(again.status.success(), "{again:?}");
}

#[test]
fn stale_lock_is_reclaimed_but_live_daemons_exclude_each_other() {
    let (base, cfg) = setup("locking", 1_000_000, 0);
    seed(&base, "mem", "f.dat", 100);
    let cfg_s = cfg.to_str().unwrap();
    let lock_path = base.join("state/octoctl.pid");

    // A lock left behind by a dead process is reclaimed silently.
    std::fs::create_dir_all(lock_path.parent().unwrap()).unwrap();
    std::fs::write(&lock_path, "{\"pid\":499999,\"acquired_unix_ms\":0}").unwrap();
    let out = octoctl(&["daemon", "--config", cfg_s, "--max-cycles", "1"]);
    assert!(out.status.success(), "stale lock must not block: {out:?}");
    assert!(!lock_path.exists(), "released on exit");

    // A *live* daemon excludes a second one for its whole lifetime.
    let first = Command::new(bin())
        .args(["daemon", "--config", cfg_s, "--max-cycles", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(500)); // cycle 0 done, napping
    let second = octoctl(&["daemon", "--config", cfg_s, "--max-cycles", "1"]);
    assert!(!second.status.success(), "second daemon must lose the lock");
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("holds the lock"),
        "{second:?}"
    );
    let first_out = first.wait_with_output().unwrap();
    assert!(first_out.status.success(), "{first_out:?}");
    let log = String::from_utf8_lossy(&first_out.stdout).into_owned();
    assert!(log.contains("\"event\":\"daemon_start\""), "{log}");
    assert!(log.contains("\"reason\":\"max_cycles\""), "{log}");
}

#[test]
fn sigterm_mid_move_leaves_a_readable_copy_and_exits_cleanly() {
    // One 512 KiB file over a 128 KiB/s budget: the first 256 KiB chunk
    // paces for ~2 s, so a SIGTERM at ~1 s lands mid-copy.
    let (base, cfg) = setup("sigterm", 100_000, 128 * 1024);
    seed(&base, "mem", "big.bin", 512 * 1024);
    let cfg_s = cfg.to_str().unwrap();
    let mut daemon = Command::new(bin())
        .args(["daemon", "--config", cfg_s, "--max-cycles", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(1000));
    let term = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());

    let deadline = Instant::now() + Duration::from_secs(10);
    let out = loop {
        match daemon.try_wait().unwrap() {
            Some(_) => break daemon.wait_with_output().unwrap(),
            None if Instant::now() > deadline => {
                daemon.kill().unwrap();
                panic!("daemon ignored SIGTERM");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    assert!(out.status.success(), "clean shutdown: {out:?}");
    let log = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(log.contains("\"reason\":\"signal\""), "{log}");

    // The invariant: the payload still has a readable copy (the source
    // was never deleted) and the interrupted copy left no temp file.
    assert!(base.join("mem/big.bin").exists(), "source intact");
    let ssd_leftovers: Vec<_> = std::fs::read_dir(base.join("ssd"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(
        ssd_leftovers.is_empty(),
        "no partial copy: {ssd_leftovers:?}"
    );
    assert!(!base.join("state/octoctl.pid").exists(), "lock released");
}

#[test]
fn daemon_plans_from_reads_recorded_after_it_started() {
    let (base, cfg) = setup("reload", 1_000_000, 0);
    seed(&base, "hdd", "warm.dat", 100);
    let cfg_s = cfg.to_str().unwrap();
    // Cycle 0's log line is the barrier; the records below must land in
    // the nap after it, which is long enough for three short commands.
    let mut daemon = Command::new(bin())
        .args(["daemon", "--config", cfg_s, "--max-cycles", "2"])
        .args(["--interval-ms", "4000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(daemon.stdout.take().unwrap())
        .lines()
        .map(|l| l.unwrap());
    let cycle0 = lines
        .by_ref()
        .find(|l| l.contains("\"event\":\"cycle_planned\""))
        .expect("cycle 0 is planned");
    assert!(
        cycle0.contains("\"cycle\":0,") && cycle0.contains("\"moves\":0,"),
        "nothing is hot before any read: {cycle0}"
    );
    // Three reads lift the HDD file to heat 3.5, past `watermark_hot`
    // (2.0).
    for _ in 0..3 {
        let out = octoctl(&["record", "--config", cfg_s, "--path", "warm.dat"]);
        assert!(out.status.success(), "{out:?}");
    }
    let rest: Vec<String> = lines.collect();
    assert!(daemon.wait().unwrap().success());
    let log = rest.join("\n");
    let cycle1 = rest
        .iter()
        .find(|l| l.contains("\"event\":\"cycle_planned\",\"cycle\":1,"))
        .expect("cycle 1 is planned");
    assert!(
        cycle1.contains("\"refresh\":\"tail\",\"refresh_records\":3,\"refresh_us\":"),
        "cycle 1 replays the three reads from the log's tail: {cycle1}"
    );
    assert!(
        cycle1.contains("\"files\":1,\"moves\":1,"),
        "cycle 1 plans the upgrade: {cycle1}"
    );
    assert!(
        log.contains("\"cycle\":1,\"path\":\"warm.dat\",\"status\":\"moved\""),
        "{log}"
    );
    assert!(base.join("mem/warm.dat").exists(), "upgraded into MEM");
    assert!(!base.join("hdd/warm.dat").exists());
}

#[test]
fn lock_holders_sweep_leftover_temp_files_and_other_commands_do_not() {
    let (base, cfg) = setup("sweep", 1_000_000, 0);
    seed(&base, "mem", "f.dat", 100);
    let cfg_s = cfg.to_str().unwrap();
    // What a copy killed mid-flight leaves behind.
    let leftover = base.join("ssd/d/.octo-tmp.f.dat");
    let plant = || seed(&base, "ssd", "d/.octo-tmp.f.dat", 50);
    plant();
    for args in [
        &["plan", "--config", cfg_s, "--dry-run"][..],
        &["status", "--config", cfg_s],
        &["record", "--config", cfg_s, "--path", "f.dat"],
    ] {
        let out = octoctl(args);
        assert!(out.status.success(), "{out:?}");
        assert!(leftover.exists(), "{args:?} must not sweep");
    }
    let out = octoctl(&["daemon", "--config", cfg_s, "--max-cycles", "1"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!leftover.exists(), "the daemon sweeps under its lock");
    assert!(
        stdout_of(&out).contains("\"event\":\"temp_files_removed\",\"count\":1}"),
        "{out:?}"
    );
    plant();
    let out = octoctl(&["plan", "--config", cfg_s, "--execute"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!leftover.exists(), "plan --execute sweeps under its lock");
    assert!(base.join("mem/f.dat").exists(), "the payload is untouched");
}

#[test]
fn status_and_plan_list_each_file_once_under_directory_link_cycles() {
    // The last two cases are links that never resolve: one to itself, and
    // two to each other.
    let cases: [(&str, &[(&str, &str)]); 4] = [
        ("up", &[("d/up", "..")]),
        ("pair", &[("a/l", "../b"), ("b/l", "../a")]),
        ("self", &[("x", "x")]),
        ("loop", &[("p", "q"), ("q", "p")]),
    ];
    for (tag, links) in cases {
        let (base, cfg) = setup(&format!("cycle-{tag}"), 1_000_000, 0);
        seed(&base, "ssd", "a/x.dat", 100);
        seed(&base, "ssd", "b/y.dat", 200);
        seed(&base, "ssd", "d/z.dat", 400);
        for (link, target) in links {
            let at = base.join("ssd").join(link);
            std::fs::create_dir_all(at.parent().unwrap()).unwrap();
            std::os::unix::fs::symlink(target, at).unwrap();
        }
        let cfg_s = cfg.to_str().unwrap();
        let status = octoctl(&["status", "--config", cfg_s]);
        assert!(status.status.success(), "{tag}: {status:?}");
        let status = stdout_of(&status);
        assert!(status.contains("\"files\":3,"), "{tag}: {status}");
        assert!(
            status.contains("\"ssd_used_bytes\":700,"),
            "{tag}: {status}"
        );
        let plan = octoctl(&["plan", "--config", cfg_s, "--dry-run", "--json"]);
        assert!(plan.status.success(), "{tag}: {plan:?}");
        let plan = stdout_of(&plan);
        assert!(plan.contains("\"files\":3"), "{tag}: {plan}");
        assert!(plan.contains("\"used_bytes\":700"), "{tag}: {plan}");
    }
}
