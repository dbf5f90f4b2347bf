//! The scenario-matrix harness: sweep {policies} × {workloads} × {fault
//! schedules} across worker threads and aggregate the results into one
//! JSON artifact plus a rendered markdown comparison table.
//!
//! The paper's evaluation (§7) compares policies across workload shapes
//! and cluster conditions one hand-authored scenario at a time; this
//! module turns that into a grid. Every cell is an independent,
//! deterministic simulation (`(scenario, trace, faults, seed)` fully pins
//! the run), so cells fan out across `std::thread` workers freely: results
//! land in a slot indexed by cell id, and the aggregated artifact is
//! **byte-identical regardless of the worker count** — the determinism
//! test in `tests/matrix_determinism.rs` pins exactly that.
//!
//! Workloads enter the grid in either form the workspace supports:
//! job-level traces from the SWIM generator, or event-level traces
//! (parsed JSONL/CSV files or [`octo_workload::synth`] products) compiled
//! down to jobs. Fault schedules ride along as a third axis, so one sweep
//! covers both healthy and degraded clusters.

use crate::settings::ExpSettings;
use octo_cluster::{run_trace, Scenario, SimConfig};
use octo_metrics::{human_bytes, render_markdown_table, RunSummary};
use octo_workload::{EventTrace, FaultSchedule, Trace, TraceError};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One workload axis entry: a named, materialized job-level trace.
#[derive(Debug, Clone)]
pub struct MatrixWorkload {
    /// Label used in cell ids and report tables.
    pub name: String,
    /// The trace every scenario on this row replays.
    pub trace: Trace,
}

impl MatrixWorkload {
    /// Wraps an already-built job-level trace.
    pub fn from_trace(name: impl Into<String>, trace: Trace) -> Self {
        MatrixWorkload {
            name: name.into(),
            trace,
        }
    }

    /// Compiles an event-level trace into the grid (the trace's own name
    /// becomes the workload label).
    pub fn from_events(events: &EventTrace) -> Result<Self, TraceError> {
        Ok(MatrixWorkload {
            name: events.name.clone(),
            trace: events.compile()?,
        })
    }
}

/// One fault-schedule axis entry.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Label used in cell ids and report tables (`"none"` by convention
    /// for the empty schedule).
    pub name: String,
    /// The schedule injected into every cell on this plane.
    pub schedule: FaultSchedule,
}

impl FaultPlan {
    /// The empty plan: no faults, bit-identical to a run without fault
    /// support compiled in.
    pub fn none() -> Self {
        FaultPlan {
            name: "none".to_string(),
            schedule: FaultSchedule::none(),
        }
    }

    /// A named non-empty plan.
    pub fn new(name: impl Into<String>, schedule: FaultSchedule) -> Self {
        FaultPlan {
            name: name.into(),
            schedule,
        }
    }
}

/// The grid: every scenario runs over every workload under every fault
/// plan.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Policy/scenario axis (typically built from the
    /// `octo_policies::registry` names via [`Scenario::policy_pair`]).
    pub scenarios: Vec<Scenario>,
    /// Workload axis.
    pub workloads: Vec<MatrixWorkload>,
    /// Fault-schedule axis.
    pub faults: Vec<FaultPlan>,
}

impl MatrixSpec {
    /// Number of cells in the grid.
    pub fn cells(&self) -> usize {
        self.scenarios.len() * self.workloads.len() * self.faults.len()
    }
}

/// One completed cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Scenario label.
    pub scenario: String,
    /// Workload label.
    pub workload: String,
    /// Fault-plan label.
    pub faults: String,
    /// The run's scalar outcome.
    pub summary: RunSummary,
}

/// The aggregated sweep outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixReport {
    /// Root seed the cells derived their configs from.
    pub seed: u64,
    /// Cells in grid order: scenarios × workloads × faults, fault axis
    /// fastest — independent of how threads interleaved the work.
    pub cells: Vec<MatrixCell>,
}

impl MatrixReport {
    /// The whole report as compact JSON. Cells are emitted in grid order
    /// and every run is deterministic, so this string is byte-identical
    /// across repeats and worker-thread counts.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("matrix report serializes")
    }

    /// Parses a report back from [`MatrixReport::to_json`] output.
    pub fn from_json(s: &str) -> Result<MatrixReport, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// The cell for a `(scenario, workload, faults)` label triple.
    pub fn cell(&self, scenario: &str, workload: &str, faults: &str) -> Option<&MatrixCell> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.workload == workload && c.faults == faults)
    }

    /// Renders the policy × workload comparison: one markdown table per
    /// fault plan, each cell showing mean read latency, memory hit ratios,
    /// and bytes moved; faulted planes append the fault-recovery time
    /// (`heal=…`, or `degraded` when replication never fully recovered).
    pub fn render_markdown(&self) -> String {
        let mut scenarios: Vec<&str> = Vec::new();
        let mut workloads: Vec<&str> = Vec::new();
        let mut faults: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !scenarios.contains(&c.scenario.as_str()) {
                scenarios.push(&c.scenario);
            }
            if !workloads.contains(&c.workload.as_str()) {
                workloads.push(&c.workload);
            }
            if !faults.contains(&c.faults.as_str()) {
                faults.push(&c.faults);
            }
        }
        let mut out = String::from("# Scenario matrix\n");
        for f in faults {
            out.push_str(&format!(
                "\n## Fault schedule: {f}\n\nCell format: mean read latency · HR (tasks) / BHR \
                 (bytes) served from memory · bytes moved by policies+repair.\n\n"
            ));
            let mut headers = vec!["policy"];
            headers.extend(workloads.iter().copied());
            let rows: Vec<Vec<String>> = scenarios
                .iter()
                .map(|s| {
                    let mut row = vec![s.to_string()];
                    for w in &workloads {
                        row.push(match self.cell(s, w, f) {
                            Some(c) => {
                                let sm = &c.summary;
                                let mut cell = format!(
                                    "{:.2}s · {:.0}%/{:.0}% · {}",
                                    sm.mean_read_secs,
                                    sm.hit_ratio * 100.0,
                                    sm.byte_hit_ratio * 100.0,
                                    human_bytes(sm.bytes_moved)
                                );
                                if !f.eq_ignore_ascii_case("none") {
                                    match sm.recovery_secs {
                                        Some(h) => cell.push_str(&format!(" · heal={h:.0}s")),
                                        None => cell.push_str(" · degraded"),
                                    }
                                }
                                if sm.bytes_reconstructed > 0 {
                                    cell.push_str(&format!(
                                        " · recon={}",
                                        human_bytes(sm.bytes_reconstructed)
                                    ));
                                }
                                // Gated on activity, so cache-off tables
                                // render exactly as they always did.
                                if sm.cache_l1_hits + sm.cache_l2_hits + sm.cache_misses > 0 {
                                    cell.push_str(&format!(
                                        " · cache={:.0}%",
                                        sm.cache_hit_ratio * 100.0
                                    ));
                                }
                                cell
                            }
                            None => "—".to_string(),
                        });
                    }
                    row
                })
                .collect();
            out.push_str(&render_markdown_table(&headers, &rows));
        }
        out
    }
}

/// Runs the whole grid on `threads` worker threads (1 = serial) and
/// aggregates the per-cell [`RunSummary`]s. Cell configs derive from
/// `settings` exactly as the single-scenario experiment drivers do, so a
/// matrix cell reproduces the corresponding standalone run bit-for-bit.
pub fn run_matrix(spec: &MatrixSpec, settings: &ExpSettings, threads: usize) -> MatrixReport {
    assert!(threads > 0, "need at least one worker");
    // Grid order: scenario-major, fault axis fastest. Cell ids double as
    // result slots, making the output independent of thread interleaving.
    let cells: Vec<(usize, usize, usize)> = spec
        .scenarios
        .iter()
        .enumerate()
        .flat_map(|(si, _)| {
            spec.workloads.iter().enumerate().flat_map(move |(wi, _)| {
                spec.faults
                    .iter()
                    .enumerate()
                    .map(move |(fi, _)| (si, wi, fi))
            })
        })
        .collect();

    let slots: Vec<Mutex<Option<MatrixCell>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let run_cell = |idx: usize| {
        let (si, wi, fi) = cells[idx];
        let scenario = spec.scenarios[si].clone();
        let workload = &spec.workloads[wi];
        let plan = &spec.faults[fi];
        let mut cfg: SimConfig = settings.sim(scenario);
        cfg.faults = plan.schedule.clone();
        let mut report = run_trace(cfg, &workload.trace);
        // Workload labels come from the axis entry, not the trace family,
        // so two event traces of the same kind stay distinguishable.
        report.workload = workload.name.clone();
        let cell = MatrixCell {
            scenario: spec.scenarios[si].label(),
            workload: workload.name.clone(),
            faults: plan.name.clone(),
            summary: RunSummary::from_report(&report),
        };
        *slots[idx].lock().expect("slot lock") = Some(cell);
    };

    if threads == 1 {
        for idx in 0..cells.len() {
            run_cell(idx);
        }
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads.min(cells.len().max(1)) {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= cells.len() {
                        break;
                    }
                    run_cell(idx);
                });
            }
        });
    }

    MatrixReport {
        seed: settings.seed,
        cells: slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every cell ran")
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_common::SimDuration;
    use octo_workload::{synthesize, SynthConfig, TraceKind};

    fn tiny_spec(settings: &ExpSettings) -> MatrixSpec {
        let mut synth = SynthConfig::heavy_tailed();
        synth.files = 12;
        synth.reads = 30;
        synth.duration = SimDuration::from_mins(30);
        let events = synthesize(&synth, settings.seed);
        MatrixSpec {
            scenarios: vec![Scenario::OctopusFs, Scenario::policy_pair("lru", "osa")],
            workloads: vec![
                MatrixWorkload::from_trace("FB", settings.trace(TraceKind::Facebook)),
                MatrixWorkload::from_events(&events).unwrap(),
            ],
            faults: vec![FaultPlan::none()],
        }
    }

    #[test]
    fn grid_covers_every_cell_in_order() {
        let settings = ExpSettings::quick(5);
        let spec = tiny_spec(&settings);
        let report = run_matrix(&spec, &settings, 1);
        assert_eq!(report.cells.len(), spec.cells());
        let labels: Vec<(String, String)> = report
            .cells
            .iter()
            .map(|c| (c.scenario.clone(), c.workload.clone()))
            .collect();
        assert_eq!(labels[0], ("OctopusFS".into(), "FB".into()));
        assert_eq!(labels[1], ("OctopusFS".into(), "zipf".into()));
        assert_eq!(labels[2], ("LRU-OSA".into(), "FB".into()));
        assert!(report.cell("LRU-OSA", "zipf", "none").is_some());
    }

    #[test]
    fn json_round_trips() {
        let settings = ExpSettings::quick(5);
        let report = run_matrix(&tiny_spec(&settings), &settings, 1);
        let json = report.to_json();
        let back = MatrixReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn markdown_has_one_row_per_policy() {
        let settings = ExpSettings::quick(5);
        let spec = tiny_spec(&settings);
        let md = run_matrix(&spec, &settings, 1).render_markdown();
        assert!(md.contains("## Fault schedule: none"));
        assert!(md.contains("| OctopusFS |"));
        assert!(md.contains("| LRU-OSA |"));
        assert!(md.contains("| policy | FB | zipf |"));
    }
}
