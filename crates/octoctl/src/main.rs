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
//! `--execute` performs the plan once under the PID lock. `daemon` loops
//! watch → plan → execute with structured JSON logs on stdout until
//! SIGTERM/SIGINT or `--max-cycles`, reopening the backend each cycle so
//! it plans from the reads `record` logged meanwhile. Both executing
//! commands remove the `.octo-tmp.*` files of interrupted copies once they
//! hold the lock.

use octo_backend_fs::FsBackend;
use octo_dfs::backend::StorageBackend;
use octo_policies::plan_moves;
use octoctl::{config::OctoctlConfig, exec, lock::PidLock, signals};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering;

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

/// Escapes a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One structured log line: a JSON object of string fields on `stdout`,
/// rendered by hand (the offline serde shim prints maps as pair arrays).
fn jlog(event: &str, fields: &[(&str, String)]) {
    let mut line = format!("{{\"event\":\"{}\"", json_escape(event));
    for (k, v) in fields {
        line.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(v)));
    }
    line.push('}');
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
        jlog("temp_files_removed", &[("count", removed.to_string())]);
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
            ("moved", report.moved.to_string()),
            ("skipped", report.skipped.to_string()),
            ("interrupted", report.interrupted.to_string()),
            ("bytes_moved", report.bytes_moved.to_string()),
        ],
    );
    for o in &report.outcomes {
        if o.status != "moved" {
            jlog(
                "move_problem",
                &[
                    ("path", o.path.clone()),
                    ("status", o.status.to_string()),
                    ("detail", o.detail.clone()),
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
    jlog(
        "daemon_start",
        &[
            ("pid", std::process::id().to_string()),
            ("base_dir", cfg.base_dir.clone()),
            ("strategy", cfg.strategy.clone()),
            ("interval_ms", interval_ms.to_string()),
        ],
    );
    let mut cycles: u64 = 0;
    let exit_reason = loop {
        if cancel.load(Ordering::SeqCst) {
            break "signal";
        }
        if cycles > 0 {
            // A fresh open picks up the reads that `octoctl record` logged
            // since the last cycle.
            backend = open_backend(&cfg)?;
        }
        backend.set_cancel_flag(cancel.clone());
        let plan = plan_moves(&backend, &cfg.planner_config()).map_err(|e| e.to_string())?;
        jlog(
            "cycle_planned",
            &[
                ("cycle", cycles.to_string()),
                ("files", plan.files.to_string()),
                ("moves", plan.moves.len().to_string()),
                ("bytes", plan.total_bytes().to_string()),
            ],
        );
        if !plan.moves.is_empty() {
            let report = exec::execute_plan(&mut backend, &plan, &cancel);
            for o in &report.outcomes {
                jlog(
                    "move_done",
                    &[
                        ("cycle", cycles.to_string()),
                        ("path", o.path.clone()),
                        ("status", o.status.to_string()),
                        ("detail", o.detail.clone()),
                    ],
                );
            }
            jlog(
                "cycle_executed",
                &[
                    ("cycle", cycles.to_string()),
                    ("moved", report.moved.to_string()),
                    ("skipped", report.skipped.to_string()),
                    ("interrupted", report.interrupted.to_string()),
                    ("bytes_moved", report.bytes_moved.to_string()),
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
        &[
            ("reason", exit_reason.to_string()),
            ("cycles", cycles.to_string()),
        ],
    );
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let cfg = load_config(args)?;
    let backend = open_backend(&cfg)?;
    let files = backend.list_files().map_err(|e| e.to_string())?;
    let mut fields: Vec<(&str, String)> = vec![
        ("backend", backend.name().to_string()),
        ("clock_ms", backend.clock().as_millis().to_string()),
        ("files", files.len().to_string()),
    ];
    let labels = ["mem_used_bytes", "ssd_used_bytes", "hdd_used_bytes"];
    for (i, tier) in octo_common::StorageTier::ALL.into_iter().enumerate() {
        let st = backend.tier_status(tier).map_err(|e| e.to_string())?;
        fields.push((labels[i], st.used.as_bytes().to_string()));
    }
    jlog("status", &fields);
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
    jlog(
        "recorded",
        &[("path", path.to_string()), ("at_ms", at_ms.to_string())],
    );
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
