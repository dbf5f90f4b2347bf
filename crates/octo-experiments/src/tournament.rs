//! The standing policy tournament: a fixed {policy} × {workload} ×
//! {fault-plan} grid every PR re-runs, rendered as one deterministic
//! leaderboard.
//!
//! This is a thin layer over the [`crate::matrix`] harness: the grid
//! itself fans out with [`run_matrix`] (byte-identical at any worker
//! count), and this module only pins *which* grid is standing and how its
//! cells rank. The spec covers every registered eviction family — LRU,
//! LFU, LRFU, EXD, the learned XGB pair, and the heat-score watermark
//! family (plain and XGB-gated hybrid) — against workload shapes from the
//! paper's Facebook trace down to a million-client synthetic mix, with and
//! without fault injection.
//!
//! Ranking is scalar and total: within each fault plane, policies sort by
//! mean byte hit ratio (desc), then total bytes moved (asc — less churn
//! wins ties), then label. Every number in the leaderboard derives from
//! [`octo_metrics::RunSummary`] fields, so the rendered markdown is byte-identical
//! across repeats, worker counts, and machines.

use crate::matrix::{run_matrix, FaultPlan, MatrixReport, MatrixSpec, MatrixWorkload};
use crate::settings::ExpSettings;
use octo_cluster::Scenario;
use octo_metrics::{human_bytes, render_markdown_table};
use octo_workload::{
    synthesize, synthesize_mix, FaultConfig, FaultSchedule, MixConfig, SynthConfig, TraceKind,
};
use serde::{Deserialize, Serialize};

/// The policy pairs every tournament runs, in grid order. One entry per
/// registered eviction family; the OSA upgrade is paired with families
/// that have no upgrade side of their own.
pub const TOURNAMENT_POLICIES: [(&str, &str); 7] = [
    ("lru", "osa"),
    ("lfu", "osa"),
    ("lrfu", "lrfu"),
    ("exd", "exd"),
    ("xgb", "xgb"),
    ("watermark", "watermark"),
    ("hybrid", "hybrid"),
];

/// Builds the standing grid at the given fidelity: the paper's Facebook
/// trace, the three synthetic shapes (the temporal two squeezed against
/// the memory tier at 3× pressure), and the ≥ 1M-client mix, each under
/// both the empty fault plan and a generated crash/recovery schedule.
pub fn standing_spec(settings: &ExpSettings) -> MatrixSpec {
    let scenarios = TOURNAMENT_POLICIES
        .iter()
        .map(|(down, up)| Scenario::policy_pair(down, up))
        .collect();

    let sim = settings.sim(Scenario::policy_pair("lru", "osa"));
    let memory = *sim.dfs.tier_capacity.get(octo_common::StorageTier::Memory);
    let pressured = |cfg: SynthConfig| cfg.with_tier_pressure(memory, 3.0);
    let synth_workload = |cfg: &SynthConfig| {
        MatrixWorkload::from_events(&synthesize(cfg, settings.seed))
            .expect("synthetic trace compiles")
    };
    let mix = MixConfig::million_clients();
    let workloads = vec![
        MatrixWorkload::from_trace("FB", settings.trace(TraceKind::Facebook)),
        synth_workload(&pressured(SynthConfig::diurnal())),
        synth_workload(&pressured(SynthConfig::bursty())),
        synth_workload(&SynthConfig::heavy_tailed()),
        MatrixWorkload::from_events(&synthesize_mix(&mix, settings.seed))
            .expect("million-client mix compiles"),
    ];

    let faults = vec![
        FaultPlan::none(),
        FaultPlan::new(
            "crashes",
            FaultSchedule::generate(
                &FaultConfig::default(),
                sim.dfs.workers,
                settings.seed ^ 0xFA17,
            ),
        ),
    ];

    MatrixSpec {
        scenarios,
        workloads,
        faults,
    }
}

/// One leaderboard row: a policy's aggregate standing within a fault
/// plane, averaged (ratios, latency) or summed (bytes) over the workload
/// axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaderboardRow {
    /// Scenario label (e.g. `"WATERMARK-WATERMARK"`).
    pub policy: String,
    /// Mean task hit ratio over the workloads.
    pub hit_ratio: f64,
    /// Mean byte hit ratio over the workloads — the primary rank key.
    pub byte_hit_ratio: f64,
    /// Total bytes moved by tiering + repair — the tiebreak (asc).
    pub bytes_moved: u64,
    /// Worst p99 input read latency across the workloads, seconds.
    pub p99_read_secs: f64,
    /// Total repair debt outstanding at run end across the workloads.
    pub repair_debt_bytes: u64,
}

/// The tournament outcome: the full matrix plus the per-fault-plane
/// rankings derived from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentReport {
    /// The underlying grid, cell for cell.
    pub matrix: MatrixReport,
    /// `(fault-plan label, ranked rows)` in grid fault order.
    pub leaderboards: Vec<(String, Vec<LeaderboardRow>)>,
}

impl TournamentReport {
    /// Derives the leaderboards from a finished matrix.
    pub fn from_matrix(matrix: MatrixReport) -> TournamentReport {
        let mut policies: Vec<&str> = Vec::new();
        let mut faults: Vec<&str> = Vec::new();
        for c in &matrix.cells {
            if !policies.contains(&c.scenario.as_str()) {
                policies.push(&c.scenario);
            }
            if !faults.contains(&c.faults.as_str()) {
                faults.push(&c.faults);
            }
        }
        let leaderboards = faults
            .iter()
            .map(|f| {
                let mut rows: Vec<LeaderboardRow> = policies
                    .iter()
                    .map(|p| {
                        let cells: Vec<_> = matrix
                            .cells
                            .iter()
                            .filter(|c| &c.scenario == p && &c.faults == f)
                            .collect();
                        let n = cells.len().max(1) as f64;
                        LeaderboardRow {
                            policy: p.to_string(),
                            hit_ratio: cells.iter().map(|c| c.summary.hit_ratio).sum::<f64>() / n,
                            byte_hit_ratio: cells
                                .iter()
                                .map(|c| c.summary.byte_hit_ratio)
                                .sum::<f64>()
                                / n,
                            bytes_moved: cells.iter().map(|c| c.summary.bytes_moved).sum(),
                            p99_read_secs: cells
                                .iter()
                                .map(|c| c.summary.p99_read_secs)
                                .fold(0.0, f64::max),
                            repair_debt_bytes: cells
                                .iter()
                                .map(|c| c.summary.repair_debt_bytes)
                                .sum(),
                        }
                    })
                    .collect();
                rows.sort_by(|a, b| {
                    b.byte_hit_ratio
                        .total_cmp(&a.byte_hit_ratio)
                        .then(a.bytes_moved.cmp(&b.bytes_moved))
                        .then(a.policy.cmp(&b.policy))
                });
                (f.to_string(), rows)
            })
            .collect();
        TournamentReport {
            matrix,
            leaderboards,
        }
    }

    /// The whole report as compact JSON (byte-identical across repeats and
    /// worker counts, like the matrix it wraps).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("tournament report serializes")
    }

    /// Parses [`TournamentReport::to_json`] output.
    pub fn from_json(s: &str) -> Result<TournamentReport, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Renders the leaderboard: one ranked markdown table per fault plane,
    /// fixed precision everywhere, so equal reports render to equal bytes.
    pub fn leaderboard_markdown(&self) -> String {
        let mut out = String::from("# Policy tournament\n");
        for (fault, rows) in &self.leaderboards {
            out.push_str(&format!(
                "\n## Fault schedule: {fault}\n\nRanked by mean byte hit ratio (ties: fewer \
                 bytes moved). Ratios are means over the workload axis, byte columns are \
                 totals, p99 is the worst workload's tail.\n\n"
            ));
            let headers = [
                "rank",
                "policy",
                "hit ratio",
                "byte hit ratio",
                "bytes moved",
                "p99 read",
                "repair debt",
            ];
            let table: Vec<Vec<String>> = rows
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    vec![
                        format!("{}", i + 1),
                        r.policy.clone(),
                        format!("{:.2}%", r.hit_ratio * 100.0),
                        format!("{:.2}%", r.byte_hit_ratio * 100.0),
                        human_bytes(r.bytes_moved),
                        format!("{:.3}s", r.p99_read_secs),
                        if r.repair_debt_bytes == 0 {
                            "—".to_string()
                        } else {
                            human_bytes(r.repair_debt_bytes)
                        },
                    ]
                })
                .collect();
            out.push_str(&render_markdown_table(&headers, &table));
        }
        out
    }

    /// True when some watermark-family cell beats the plain LRU baseline
    /// on the same `(workload, faults)` coordinates — higher task hit
    /// ratio, higher byte hit ratio, or fewer bytes moved. The standing
    /// acceptance gate for the heat-score family.
    pub fn watermark_beats_lru(&self) -> bool {
        self.matrix.cells.iter().any(|c| {
            if !c.scenario.starts_with("WATERMARK") && !c.scenario.starts_with("HYBRID") {
                return false;
            }
            let Some(lru) = self.matrix.cell("LRU-OSA", &c.workload, &c.faults) else {
                return false;
            };
            c.summary.hit_ratio > lru.summary.hit_ratio
                || c.summary.byte_hit_ratio > lru.summary.byte_hit_ratio
                || c.summary.bytes_moved < lru.summary.bytes_moved
        })
    }
}

/// Runs the standing tournament on `threads` matrix workers. The report —
/// JSON and markdown both — is byte-identical at any `threads` value.
pub fn run_tournament(settings: &ExpSettings, threads: usize) -> TournamentReport {
    let spec = standing_spec(settings);
    TournamentReport::from_matrix(run_matrix(&spec, settings, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_metrics::RunSummary;

    fn summary(scenario: &str, hr: f64, bhr: f64, moved: u64, p99: f64) -> RunSummary {
        RunSummary {
            scenario: scenario.to_string(),
            workload: "w".to_string(),
            jobs: 1,
            failed_jobs: 0,
            mean_completion_secs: 1.0,
            mean_read_secs: 0.5,
            p99_read_secs: p99,
            hit_ratio: hr,
            byte_hit_ratio: bhr,
            tier_read_fraction: [bhr, 0.0, 1.0 - bhr],
            bytes_upgraded: moved,
            bytes_downgraded: 0,
            bytes_repaired: 0,
            bytes_reconstructed: 0,
            bytes_moved: moved,
            recovery_secs: None,
            tasks_rerun: 0,
            lost_files: 0,
            repair_debt_bytes: 0,
            sim_end_secs: 100.0,
            cache_l1_hits: 0,
            cache_l2_hits: 0,
            cache_misses: 0,
            cache_l1_evictions: 0,
            cache_l2_evictions: 0,
            cache_admission_rejects: 0,
            cache_hit_ratio: 0.0,
            cache_byte_hit_ratio: 0.0,
        }
    }

    fn cell(scenario: &str, workload: &str, faults: &str, s: RunSummary) -> crate::MatrixCell {
        crate::MatrixCell {
            scenario: scenario.to_string(),
            workload: workload.to_string(),
            faults: faults.to_string(),
            summary: s,
        }
    }

    fn toy_report() -> TournamentReport {
        TournamentReport::from_matrix(MatrixReport {
            seed: 1,
            cells: vec![
                cell(
                    "LRU-OSA",
                    "w",
                    "none",
                    summary("LRU-OSA", 0.4, 0.5, 200, 1.0),
                ),
                cell(
                    "WATERMARK-WATERMARK",
                    "w",
                    "none",
                    summary("WATERMARK-WATERMARK", 0.5, 0.6, 100, 0.8),
                ),
            ],
        })
    }

    #[test]
    fn leaderboard_ranks_by_bhr_then_churn() {
        let t = toy_report();
        assert_eq!(t.leaderboards.len(), 1);
        let rows = &t.leaderboards[0].1;
        assert_eq!(rows[0].policy, "WATERMARK-WATERMARK");
        assert_eq!(rows[1].policy, "LRU-OSA");
        assert!(t.watermark_beats_lru());
    }

    #[test]
    fn leaderboard_markdown_is_stable() {
        let t = toy_report();
        let md = t.leaderboard_markdown();
        assert_eq!(md, toy_report().leaderboard_markdown());
        assert!(md.contains("| 1 | WATERMARK-WATERMARK | 50.00% | 60.00% |"));
        assert!(md.contains("## Fault schedule: none"));
        let back = TournamentReport::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn standing_spec_covers_the_acceptance_grid() {
        let spec = standing_spec(&ExpSettings::quick(3));
        assert!(spec.scenarios.len() >= 6, "≥ 6 policies");
        assert!(spec.workloads.len() >= 4, "≥ 4 workloads");
        assert_eq!(spec.faults.len(), 2, "fault-free + crash plane");
        assert!(spec.workloads.iter().any(|w| w.name == "mix1m"));
        assert!(!spec.faults[1].schedule.is_empty());
    }
}
