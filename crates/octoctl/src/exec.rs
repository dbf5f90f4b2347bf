//! Bounded, crash-safe execution of a [`MovePlan`].
//!
//! Every move runs the three backend steps in the fixed order
//! **copy → verify → delete**. The invariant the ordering buys: at any
//! interruption point — including SIGKILL — the payload has at least one
//! readable copy (the worst case is a verified duplicate on two tiers,
//! which the next cycle's copy step treats as already done). A failed
//! verify never deletes; a set cancel flag stops cleanly between steps.
//! Bandwidth bounding lives in the backend's copy loop, which paces
//! chunks against the configured bytes/sec budget.

use octo_common::{OctoError, StorageTier};
use octo_dfs::backend::StorageBackend;
use octo_policies::MovePlan;
use std::sync::atomic::{AtomicBool, Ordering};

/// Resolves a plan's tier label (`"MEM"`/`"SSD"`/`"HDD"`) back to a tier.
pub fn tier_by_label(label: &str) -> Option<StorageTier> {
    StorageTier::ALL.into_iter().find(|t| t.label() == label)
}

/// What happened to one planned move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveOutcome {
    /// The plan's 1-based sequence number.
    pub seq: usize,
    /// File path.
    pub path: String,
    /// `"moved"`, `"skipped"` or `"interrupted"`.
    pub status: &'static str,
    /// Failure detail for skips/interrupts, empty when moved.
    pub detail: String,
}

/// Execution summary of one plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Moves fully completed (copy, verify and delete all succeeded).
    pub moved: usize,
    /// Moves abandoned after an error (payload left untouched or
    /// duplicated, never lost).
    pub skipped: usize,
    /// Whether the cancel flag stopped execution early.
    pub interrupted: bool,
    /// Payload bytes of completed moves.
    pub bytes_moved: u64,
    /// Per-move detail, in plan order up to the interruption point.
    pub outcomes: Vec<MoveOutcome>,
}

/// Executes `plan` against `backend` until done or `cancel` is set.
pub fn execute_plan(
    backend: &mut dyn StorageBackend,
    plan: &MovePlan,
    cancel: &AtomicBool,
) -> ExecReport {
    let mut report = ExecReport::default();
    for mv in &plan.moves {
        if cancel.load(Ordering::SeqCst) {
            report.interrupted = true;
            break;
        }
        let outcome = |status, detail: String| MoveOutcome {
            seq: mv.seq,
            path: mv.path.clone(),
            status,
            detail,
        };
        let (Some(from), Some(to)) = (tier_by_label(&mv.from), tier_by_label(&mv.to)) else {
            report.skipped += 1;
            report.outcomes.push(outcome(
                "skipped",
                format!("unknown tier label {:?} -> {:?}", mv.from, mv.to),
            ));
            continue;
        };
        match backend.copy_file(&mv.path, from, to) {
            // An existing destination copy is the resume case: a prior
            // run crashed after copy; verify decides whether it counts.
            Ok(_) | Err(OctoError::AlreadyExists(_)) => {}
            Err(e) => {
                if cancel.load(Ordering::SeqCst) {
                    // The backend's copy loop saw the flag mid-transfer,
                    // cleaned up its temp file and bailed.
                    report.interrupted = true;
                    report.outcomes.push(outcome("interrupted", e.to_string()));
                    break;
                }
                report.skipped += 1;
                report
                    .outcomes
                    .push(outcome("skipped", format!("copy failed: {e}")));
                continue;
            }
        }
        if let Err(e) = backend.verify_copy(&mv.path, from, to) {
            report.skipped += 1;
            report.outcomes.push(outcome(
                "skipped",
                format!("verify failed, source kept: {e}"),
            ));
            continue;
        }
        if let Err(e) = backend.delete_replica(&mv.path, from) {
            report.skipped += 1;
            report.outcomes.push(outcome(
                "skipped",
                format!("delete failed, verified duplicate kept: {e}"),
            ));
            continue;
        }
        report.moved += 1;
        report.bytes_moved += mv.bytes;
        report.outcomes.push(outcome("moved", String::new()));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TempTree;
    use octo_backend_fs::{FsBackend, FsBackendConfig};
    use octo_common::{ByteSize, PerTier, SimTime};
    use octo_policies::{plan_moves, PlannerConfig};

    fn tmp_base(tag: &str) -> TempTree {
        TempTree::new(&format!("octo-exec-{tag}"))
    }

    /// An overfull MEM tier drains through a real plan-execute round trip.
    #[test]
    fn executes_a_real_plan_copy_verify_delete() {
        let base = tmp_base("roundtrip");
        let caps = PerTier::from_fn(|t| match t {
            octo_common::StorageTier::Memory => ByteSize::from_bytes(1000),
            _ => ByteSize::from_bytes(100_000),
        });
        let cfg = FsBackendConfig::under(&base, caps);
        for name in ["a.dat", "b.dat", "c.dat"] {
            std::fs::create_dir_all(cfg.roots.get(octo_common::StorageTier::Memory)).unwrap();
            std::fs::write(
                cfg.roots.get(octo_common::StorageTier::Memory).join(name),
                vec![0u8; 400],
            )
            .unwrap();
        }
        let mut be = FsBackend::open(cfg).unwrap();
        be.record_read("a.dat", SimTime::from_secs(10)).unwrap(); // keep a.dat warmest

        let plan = plan_moves(&be, &PlannerConfig::default()).unwrap();
        assert!(!plan.moves.is_empty(), "1200/1000 bytes must trigger moves");
        let cancel = AtomicBool::new(false);
        let report = execute_plan(&mut be, &plan, &cancel);
        assert_eq!(report.moved, plan.moves.len());
        assert_eq!(report.skipped, 0);
        assert!(!report.interrupted);
        assert_eq!(report.bytes_moved, plan.total_bytes());

        let mem = be.tier_status(octo_common::StorageTier::Memory).unwrap();
        assert!(
            mem.utilization() <= 0.85 + 1e-9,
            "drained to the stop threshold, got {}",
            mem.utilization()
        );
        // Every file still has exactly one readable copy.
        use octo_dfs::backend::StorageBackend as _;
        let files = be.list_files().unwrap();
        assert_eq!(files.len(), 3);
        assert!(files.iter().all(|f| f.tiers.len() == 1));
    }

    #[test]
    fn pre_set_cancel_flag_stops_before_any_move() {
        let base = tmp_base("cancel");
        let caps = PerTier::from_fn(|t| match t {
            octo_common::StorageTier::Memory => ByteSize::from_bytes(100),
            _ => ByteSize::from_bytes(100_000),
        });
        let cfg = FsBackendConfig::under(&base, caps);
        std::fs::create_dir_all(cfg.roots.get(octo_common::StorageTier::Memory)).unwrap();
        std::fs::write(
            cfg.roots.get(octo_common::StorageTier::Memory).join("f"),
            vec![0u8; 99],
        )
        .unwrap();
        let mut be = FsBackend::open(cfg).unwrap();
        let plan = plan_moves(&be, &PlannerConfig::default()).unwrap();
        assert!(!plan.moves.is_empty());
        let cancel = AtomicBool::new(true);
        let report = execute_plan(&mut be, &plan, &cancel);
        assert!(report.interrupted);
        assert_eq!(report.moved + report.skipped, 0);
    }

    #[test]
    fn bad_tier_label_is_skipped_not_fatal() {
        let base = tmp_base("badlabel");
        let cfg = FsBackendConfig::under(&base, PerTier::splat(ByteSize::from_bytes(100)));
        let mut be = FsBackend::open(cfg).unwrap();
        let mut plan = plan_moves(&be, &PlannerConfig::default()).unwrap();
        plan.moves.push(octo_policies::PlannedMove {
            seq: 1,
            path: "ghost".into(),
            from: "TAPE".into(),
            to: "HDD".into(),
            bytes: 1,
            heat: 0.0,
            band: "cold".into(),
            reason: "test".into(),
        });
        let report = execute_plan(&mut be, &plan, &AtomicBool::new(false));
        assert_eq!(report.skipped, 1);
        assert_eq!(report.outcomes[0].status, "skipped");
    }
}
