//! `octoctl` — plan and execute tier moves over a storage backend.
//!
//! ```text
//! octoctl init   --base <dir> [--config <file>] [--bandwidth <bytes/sec>]
//! octoctl plan   --config <file> [--json] [--dry-run] [--execute]
//! octoctl daemon --config <file> [--max-cycles <n>] [--interval-ms <n>]
//! octoctl status --config <file>
//! octoctl record --config <file> --path <p> [--at-ms <n>]
//! ```
//!
//! `plan` is dry-run by default: it renders the deterministic move plan
//! (markdown, or exact plan JSON with `--json`) and touches nothing.
//! `--execute` performs the plan once under the PID lock. `daemon` opens
//! the backend once and loops refresh → plan → execute until
//! SIGTERM/SIGINT or `--max-cycles`. The refresh at the top of each cycle
//! replays only the access-log records appended since the last one, so
//! the plan sees the reads `record` logged meanwhile; it reloads the stats
//! in full only after a compaction. Every command logs one JSON object per
//! line on stdout, with counts, sizes, clocks and flags as JSON numbers
//! and booleans. Both executing commands remove the `.octo-tmp.*` files of
//! interrupted copies once they hold the lock.

use octo_backend_fs::FsBackend;
use octo_dfs::backend::StorageBackend;
use octo_policies::plan_moves;
use octoctl::{config::OctoctlConfig, exec, lock::PidLock, signals};
use serde::{Content, Serialize};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

const USAGE: &str = "usage: octoctl <init|plan|daemon|status|record> [options]
  init   --base <dir> [--config <file>] [--bandwidth <bytes/sec>]
  plan   --config <file> [--json] [--dry-run] [--execute]
  daemon --config <file> [--max-cycles <n>] [--interval-ms <n>]
  status --config <file>
  record --config <file> --path <p> [--at-ms <n>]";

/// Flags that consume a value; everything else starting with `--` is a
/// boolean switch.
const VALUE_FLAGS: &[&str] = &[
    "--base",
    "--config",
    "--bandwidth",
    "--max-cycles",
    "--interval-ms",
    "--path",
    "--at-ms",
];

struct Args {
    positional: Vec<String>,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        values: BTreeMap::new(),
        switches: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = VALUE_FLAGS.iter().find(|f| *f == a) {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            args.values.insert(flag.to_string(), v.clone());
        } else if a.starts_with("--") {
            args.switches.push(a.clone());
        } else {
            args.positional.push(a.clone());
        }
    }
    Ok(args)
}

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    fn required(&self, flag: &str) -> Result<&str, String> {
        self.value(flag).ok_or_else(|| format!("missing {flag}"))
    }

    fn u64_value(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("{flag}: {e}")),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// One structured log line on `stdout`: a JSON object of `event` and then
/// `fields` in order, each printed as its type serializes, so numbers and
/// booleans print unquoted. The object is built as a [`Content`] map
/// because the JSON shim prints Rust maps as `[key, value]` pair arrays.
fn jlog(event: &str, fields: &[(&str, &dyn Serialize)]) {
    let mut object = vec![("event".to_string(), event.serialize())];
    object.extend(fields.iter().map(|(k, v)| (k.to_string(), v.serialize())));
    let line = serde_json::to_string(&Content::Map(object)).expect("a log line serializes");
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn load_config(args: &Args) -> Result<OctoctlConfig, String> {
    let path = args.required("--config")?;
    OctoctlConfig::load(Path::new(path)).map_err(|e| e.to_string())
}

fn open_backend(cfg: &OctoctlConfig) -> Result<FsBackend, String> {
    FsBackend::open(cfg.backend_config()).map_err(|e| e.to_string())
}

/// Removes the temp files of copies a crash cut short. Only the holder of
/// the PID lock may call this: no copy of its own is in flight, and no
/// other process executes moves.
fn sweep_temp_files(backend: &FsBackend) -> Result<(), String> {
    let removed = backend.sweep_temp_files().map_err(|e| e.to_string())?;
    if removed > 0 {
        jlog("temp_files_removed", &[("count", &removed)]);
    }
    Ok(())
}

fn cmd_init(args: &Args) -> Result<(), String> {
    let base = args.required("--base")?;
    let mut cfg = OctoctlConfig::example(base);
    cfg.bandwidth_bytes_per_sec = args.u64_value("--bandwidth", 0)?;
    let text = serde_json::to_string(&cfg).map_err(|e| e.to_string())?;
    match args.value("--config") {
        Some(path) => std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}")),
        None => {
            println!("{text}");
            Ok(())
        }
    }
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let cfg = load_config(args)?;
    let execute = args.switch("--execute");
    if execute && args.switch("--dry-run") {
        return Err("--execute and --dry-run are mutually exclusive".into());
    }
    let mut backend = open_backend(&cfg)?;
    let plan = plan_moves(&backend, &cfg.planner_config()).map_err(|e| e.to_string())?;
    if args.switch("--json") {
        println!("{}", plan.to_json());
    } else {
        print!("{}", plan.to_markdown());
    }
    if !execute {
        return Ok(());
    }
    let _lock = PidLock::acquire(&cfg.lock_path()).map_err(|e| e.to_string())?;
    sweep_temp_files(&backend)?;
    let cancel = signals::install();
    backend.set_cancel_flag(cancel.clone());
    let report = exec::execute_plan(&mut backend, &plan, &cancel);
    jlog(
        "plan_executed",
        &[
            ("moved", &report.moved),
            ("skipped", &report.skipped),
            ("interrupted", &report.interrupted),
            ("bytes_moved", &report.bytes_moved),
        ],
    );
    for o in &report.outcomes {
        if o.status != "moved" {
            jlog(
                "move_problem",
                &[
                    ("path", &o.path),
                    ("status", &o.status),
                    ("detail", &o.detail),
                ],
            );
        }
    }
    if report.interrupted {
        Err("execution interrupted by shutdown signal".into())
    } else {
        Ok(())
    }
}

fn cmd_daemon(args: &Args) -> Result<(), String> {
    let cfg = load_config(args)?;
    let max_cycles = args.u64_value("--max-cycles", 0)?;
    let interval_ms = args.u64_value("--interval-ms", cfg.interval_ms)?;
    let cancel = signals::install();
    let _lock = PidLock::acquire(&cfg.lock_path()).map_err(|e| e.to_string())?;
    let mut backend = open_backend(&cfg)?;
    sweep_temp_files(&backend)?;
    backend.set_cancel_flag(cancel.clone());
    jlog(
        "daemon_start",
        &[
            ("pid", &std::process::id()),
            ("base_dir", &cfg.base_dir),
            ("strategy", &cfg.strategy),
            ("interval_ms", &interval_ms),
        ],
    );
    let mut cycles: u64 = 0;
    let exit_reason = loop {
        if cancel.load(Ordering::SeqCst) {
            break "signal";
        }
        // Pick up the reads that `octoctl record` logged since the last
        // cycle.
        let started = Instant::now();
        let refresh = backend.refresh().map_err(|e| e.to_string())?;
        let refresh_us = started.elapsed().as_micros() as u64;
        let plan = plan_moves(&backend, &cfg.planner_config()).map_err(|e| e.to_string())?;
        jlog(
            "cycle_planned",
            &[
                ("cycle", &cycles),
                ("refresh", &if refresh.reloaded { "reload" } else { "tail" }),
                ("refresh_records", &refresh.records),
                ("refresh_us", &refresh_us),
                ("files", &plan.files),
                ("moves", &plan.moves.len()),
                ("bytes", &plan.total_bytes()),
            ],
        );
        if !plan.moves.is_empty() {
            let report = exec::execute_plan(&mut backend, &plan, &cancel);
            for o in &report.outcomes {
                jlog(
                    "move_done",
                    &[
                        ("cycle", &cycles),
                        ("path", &o.path),
                        ("status", &o.status),
                        ("detail", &o.detail),
                    ],
                );
            }
            jlog(
                "cycle_executed",
                &[
                    ("cycle", &cycles),
                    ("moved", &report.moved),
                    ("skipped", &report.skipped),
                    ("interrupted", &report.interrupted),
                    ("bytes_moved", &report.bytes_moved),
                ],
            );
            if report.interrupted {
                break "signal";
            }
        }
        cycles += 1;
        if max_cycles > 0 && cycles >= max_cycles {
            break "max_cycles";
        }
        // Sleep in short slices so a signal ends the nap promptly.
        let mut slept = 0u64;
        while slept < interval_ms && !cancel.load(Ordering::SeqCst) {
            let slice = (interval_ms - slept).min(50);
            std::thread::sleep(std::time::Duration::from_millis(slice));
            slept += slice;
        }
    };
    jlog(
        "daemon_exit",
        &[("reason", &exit_reason), ("cycles", &cycles)],
    );
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let cfg = load_config(args)?;
    let backend = open_backend(&cfg)?;
    let files = backend.list_files().map_err(|e| e.to_string())?;
    let used = |tier| -> Result<u64, String> {
        let st = backend.tier_status(tier).map_err(|e| e.to_string())?;
        Ok(st.used.as_bytes())
    };
    use octo_common::StorageTier::{Hdd, Memory, Ssd};
    let (mem, ssd, hdd) = (used(Memory)?, used(Ssd)?, used(Hdd)?);
    jlog(
        "status",
        &[
            ("backend", &backend.name()),
            ("clock_ms", &backend.clock().as_millis()),
            ("files", &files.len()),
            ("mem_used_bytes", &mem),
            ("ssd_used_bytes", &ssd),
            ("hdd_used_bytes", &hdd),
        ],
    );
    Ok(())
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let cfg = load_config(args)?;
    let path = args.required("--path")?;
    let mut backend = open_backend(&cfg)?;
    // Default: one second past the backend clock, so repeated unstamped
    // records advance logical time monotonically and deterministically.
    let default_ms = backend.clock().as_millis() + 1000;
    let at_ms = args.u64_value("--at-ms", default_ms)?;
    backend
        .record_read(path, octo_common::SimTime::from_millis(at_ms))
        .map_err(|e| e.to_string())?;
    jlog("recorded", &[("path", &path), ("at_ms", &at_ms)]);
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    match args.positional.first().map(String::as_str) {
        Some("init") => cmd_init(&args),
        Some("plan") => cmd_plan(&args),
        Some("daemon") => cmd_daemon(&args),
        Some("status") => cmd_status(&args),
        Some("record") => cmd_record(&args),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("octoctl: {msg}");
            ExitCode::FAILURE
        }
    }
}
