//! Offline move planning against a [`StorageBackend`] (ROADMAP item 2).
//!
//! Where the [`framework`](crate::framework) engine makes decisions *inside*
//! a running simulation, this module plans against the backend trait alone:
//! anything that can list files with access statistics and probe tier
//! capacity — a real directory tree behind `FsBackend` — can be planned
//! over. `octoctl plan` and `octoctl daemon` are the consumers.
//!
//! The planner scores with the watermark policy's bands but decides
//! differently, because it sees one listing instead of an event stream:
//! it has no band history, so it classifies by the entry thresholds alone
//! (no hysteresis); it scores the heat the backend estimates, not the
//! simulator's exact fold; and it stops a tier's evictions at `<=` its
//! stop threshold, where the engine stops at `<`.
//!
//! Plans are **deterministic**: files arrive in ascending path order,
//! every ordering ties on the path, and the backend's logical clock (not
//! the wall clock) is the heat reference — so planning the same tree twice
//! yields byte-identical JSON.
//!
//! The strategy names resolve through the same family as the policy
//! [`registry`](crate::registry): `watermark`/`hybrid` plan with the
//! heat-band scoring of [`crate::watermark`], `lru` plans on recency alone.

use crate::framework::TieringConfig;
use crate::watermark::{Band, Watermarks};
use octo_common::{OctoError, Result, StorageTier};
use octo_dfs::backend::{FileRecord, StorageBackend, TierStatus};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// How the planner scores files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStrategy {
    /// Heat-band scoring: cold-band files evict first (coldest heat
    /// first), hot-band files are downgrade-exempt and upgrade-eligible.
    Watermark,
    /// Pure recency: least-recently-accessed files evict first; no
    /// upgrades (recency alone cannot distinguish hot from warm).
    Lru,
}

impl PlanStrategy {
    /// Resolves a policy-registry name to a plannable strategy. The
    /// offline planner only sees aggregate statistics (no per-access event
    /// stream, no trained model), so of the registry families the
    /// heat/watermark and recency scorings are plannable; `hybrid` falls
    /// back to its watermark component.
    pub fn by_name(name: &str) -> Option<PlanStrategy> {
        match name {
            "watermark" | "hybrid" => Some(PlanStrategy::Watermark),
            "lru" => Some(PlanStrategy::Lru),
            _ => None,
        }
    }

    /// The registry-style name.
    pub fn name(self) -> &'static str {
        match self {
            PlanStrategy::Watermark => "watermark",
            PlanStrategy::Lru => "lru",
        }
    }
}

/// Planner parameters: the shared tiering thresholds and the scoring.
/// Heat comes scored from the backend, which folds it at its own clock.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Shared policy thresholds (start/stop utilization, watermarks).
    pub tiering: TieringConfig,
    /// Scoring strategy.
    pub strategy: PlanStrategy,
    /// Cap on planned moves per cycle; `0` = unbounded.
    pub max_moves: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            tiering: TieringConfig::default(),
            strategy: PlanStrategy::Watermark,
            max_moves: 0,
        }
    }
}

/// One tier's row in the plan: where it stands and where the plan takes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierPlanRow {
    /// Tier label (`"MEM"`, `"SSD"`, `"HDD"`).
    pub tier: String,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes used before the plan.
    pub used_bytes: u64,
    /// Utilization before the plan.
    pub utilization: f64,
    /// Bytes used if every planned move executes.
    pub projected_used_bytes: u64,
    /// Utilization if every planned move executes.
    pub projected_utilization: f64,
}

/// One planned move: `path`'s payload leaves `from` for `to` via
/// copy → verify → delete.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedMove {
    /// 1-based execution order.
    pub seq: usize,
    /// Backend-relative file path.
    pub path: String,
    /// Source tier label.
    pub from: String,
    /// Destination tier label.
    pub to: String,
    /// Payload bytes.
    pub bytes: u64,
    /// The file's decayed heat at the backend clock.
    pub heat: f64,
    /// Heat band at planning time (`"cold"`/`"warm"`/`"hot"`, or `"n/a"`
    /// under the LRU strategy).
    pub band: String,
    /// Why the move was planned (human-readable, deterministic).
    pub reason: String,
}

/// A full planning cycle's output: the artifact `octoctl plan` renders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MovePlan {
    /// Backend label ([`StorageBackend::name`]).
    pub backend: String,
    /// Strategy name.
    pub strategy: String,
    /// The backend's logical clock at planning time, milliseconds.
    pub clock_ms: u64,
    /// Files observed.
    pub files: usize,
    /// Per-tier standing, `[mem, ssd, hdd]`.
    pub tiers: Vec<TierPlanRow>,
    /// Planned moves in execution order.
    pub moves: Vec<PlannedMove>,
}

impl MovePlan {
    /// Total payload bytes across all planned moves.
    pub fn total_bytes(&self) -> u64 {
        self.moves.iter().map(|m| m.bytes).sum()
    }

    /// Compact JSON rendering (deterministic: field order is declaration
    /// order, moves are in execution order).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("plan serializes")
    }

    /// Markdown rendering: the tier table plus the move list.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Move plan — backend `{}`, strategy `{}`\n",
            self.backend, self.strategy
        );
        let _ = writeln!(
            out,
            "{} file(s), {} move(s), {} byte(s) to move.\n",
            self.files,
            self.moves.len(),
            self.total_bytes()
        );
        out.push_str("| tier | used | capacity | util | projected util |\n");
        out.push_str("|------|------|----------|------|----------------|\n");
        for row in &self.tiers {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.1}% | {:.1}% |",
                row.tier,
                row.used_bytes,
                row.capacity_bytes,
                row.utilization * 100.0,
                row.projected_utilization * 100.0
            );
        }
        if !self.moves.is_empty() {
            out.push_str("\n| # | path | from | to | bytes | band | reason |\n");
            out.push_str("|---|------|------|----|-------|------|--------|\n");
            for m in &self.moves {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {} |",
                    m.seq, m.path, m.from, m.to, m.bytes, m.band, m.reason
                );
            }
        }
        out
    }
}

fn band_label(band: Band) -> &'static str {
    match band {
        Band::Cold => "cold",
        Band::Warm => "warm",
        Band::Hot => "hot",
    }
}

/// Total order on downgrade candidates: coldest first, ties on the path.
fn eviction_key(strategy: PlanStrategy, marks: &Watermarks, f: &FileRecord) -> (u64, u64, String) {
    match strategy {
        PlanStrategy::Watermark => {
            let band = marks.entry(f.heat) as u64;
            // Heat is finite and >= 0, so the bit pattern orders like the
            // value.
            (band, f.heat.to_bits(), f.path.clone())
        }
        PlanStrategy::Lru => {
            let at = f.last_access.map(|t| t.as_millis() + 1).unwrap_or(0);
            (0, at, f.path.clone())
        }
    }
}

/// Plans one cycle of moves against `backend`.
///
/// Downgrades first: for each tier over `start_threshold`, the coldest
/// resident files move to the highest lower tier with room until the tier
/// projects below `stop_threshold` (hot-band files are exempt under the
/// watermark strategy). Then upgrades (watermark only): hot-band files
/// below the memory tier move up while memory projects below
/// `stop_threshold`. All projections account for the plan's own moves.
pub fn plan_moves(backend: &dyn StorageBackend, cfg: &PlannerConfig) -> Result<MovePlan> {
    let files = backend.list_files()?;
    let marks = Watermarks::from_config(&cfg.tiering);
    let mut status: Vec<TierStatus> = Vec::new();
    for tier in StorageTier::ALL {
        status.push(backend.tier_status(tier)?);
    }
    let mut projected: Vec<u64> = status.iter().map(|s| s.used.as_bytes()).collect();
    let capacity: Vec<u64> = status.iter().map(|s| s.capacity.as_bytes()).collect();
    for (tier, cap) in capacity.iter().enumerate() {
        if *cap == 0 {
            return Err(OctoError::Config(format!(
                "{} tier reports zero capacity",
                StorageTier::ALL[tier].label()
            )));
        }
    }

    let util = |projected: &[u64], tier: StorageTier| {
        projected[tier.index()] as f64 / capacity[tier.index()] as f64
    };
    let mut moves: Vec<PlannedMove> = Vec::new();
    let full = |moves: &Vec<PlannedMove>| cfg.max_moves != 0 && moves.len() >= cfg.max_moves;

    // ---------------------------------------------------------- downgrades
    for tier in [StorageTier::Memory, StorageTier::Ssd] {
        if util(&projected, tier) <= cfg.tiering.start_threshold {
            continue;
        }
        // Files whose *primary* residence is this tier, coldest first.
        let mut candidates: Vec<&FileRecord> = files.iter().filter(|f| f.tier() == tier).collect();
        candidates.sort_by_key(|f| eviction_key(cfg.strategy, &marks, f));
        for f in candidates {
            if full(&moves) || util(&projected, tier) <= cfg.tiering.stop_threshold {
                break;
            }
            let band = marks.entry(f.heat);
            if cfg.strategy == PlanStrategy::Watermark && band == Band::Hot {
                continue; // hot files never downgrade
            }
            // Destination: the highest lower tier that stays under the
            // start threshold after receiving the payload.
            let dest = tier.tiers_below().find(|&d| {
                !f.resident_on(d)
                    && (projected[d.index()] + f.size.as_bytes()) as f64
                        <= capacity[d.index()] as f64 * cfg.tiering.start_threshold
            });
            let Some(dest) = dest else { continue };
            projected[tier.index()] -= f.size.as_bytes();
            projected[dest.index()] += f.size.as_bytes();
            moves.push(PlannedMove {
                seq: moves.len() + 1,
                path: f.path.clone(),
                from: tier.label().into(),
                to: dest.label().into(),
                bytes: f.size.as_bytes(),
                heat: f.heat,
                band: match cfg.strategy {
                    PlanStrategy::Watermark => band_label(band).into(),
                    PlanStrategy::Lru => "n/a".into(),
                },
                reason: format!(
                    "{} over start threshold {:.0}%",
                    tier.label(),
                    cfg.tiering.start_threshold * 100.0
                ),
            });
        }
    }

    // ------------------------------------------------------------ upgrades
    if cfg.strategy == PlanStrategy::Watermark {
        let mem = StorageTier::Memory;
        let mut hot: Vec<&FileRecord> = files
            .iter()
            .filter(|f| f.tier() != mem && marks.entry(f.heat) == Band::Hot)
            .collect();
        // Hottest first; heat is finite so the bit order is the value
        // order, and the path breaks exact ties.
        hot.sort_by(|a, b| {
            b.heat
                .to_bits()
                .cmp(&a.heat.to_bits())
                .then_with(|| a.path.cmp(&b.path))
        });
        for f in hot {
            if full(&moves) {
                break;
            }
            let after = projected[mem.index()] + f.size.as_bytes();
            if after as f64 > capacity[mem.index()] as f64 * cfg.tiering.stop_threshold {
                continue; // keep memory below the stop threshold
            }
            let from = f.tier();
            projected[from.index()] -= f.size.as_bytes();
            projected[mem.index()] = after;
            moves.push(PlannedMove {
                seq: moves.len() + 1,
                path: f.path.clone(),
                from: from.label().into(),
                to: mem.label().into(),
                bytes: f.size.as_bytes(),
                heat: f.heat,
                band: "hot".into(),
                reason: format!("hot band (heat >= {:.2})", marks.hot_enter),
            });
        }
    }

    let tiers = StorageTier::ALL
        .iter()
        .map(|&t| TierPlanRow {
            tier: t.label().into(),
            capacity_bytes: capacity[t.index()],
            used_bytes: status[t.index()].used.as_bytes(),
            utilization: status[t.index()].utilization(),
            projected_used_bytes: projected[t.index()],
            projected_utilization: util(&projected, t),
        })
        .collect();
    Ok(MovePlan {
        backend: backend.name().into(),
        strategy: cfg.strategy.name().into(),
        clock_ms: backend.clock().as_millis(),
        files: files.len(),
        tiers,
        moves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_common::{ByteSize, SimTime};
    use std::collections::BTreeMap;

    /// A deterministic in-memory backend for planner tests.
    struct FakeBackend {
        files: BTreeMap<String, FileRecord>,
        capacity: [u64; 3],
    }

    impl FakeBackend {
        fn new(capacity: [u64; 3]) -> Self {
            FakeBackend {
                files: BTreeMap::new(),
                capacity,
            }
        }

        fn add(&mut self, path: &str, tier: StorageTier, bytes: u64, heat: f64, at: u64) {
            self.files.insert(
                path.into(),
                FileRecord {
                    path: path.into(),
                    size: ByteSize::from_bytes(bytes),
                    tiers: vec![tier],
                    reads: 1,
                    last_access: Some(SimTime::from_millis(at)),
                    heat,
                },
            );
        }
    }

    impl StorageBackend for FakeBackend {
        fn name(&self) -> &str {
            "fake"
        }
        fn clock(&self) -> SimTime {
            SimTime::from_millis(
                self.files
                    .values()
                    .filter_map(|f| f.last_access)
                    .map(|t| t.as_millis())
                    .max()
                    .unwrap_or(0),
            )
        }
        fn list_files(&self) -> Result<Vec<FileRecord>> {
            Ok(self.files.values().cloned().collect())
        }
        fn tier_status(&self, tier: StorageTier) -> Result<TierStatus> {
            let used = self
                .files
                .values()
                .filter(|f| f.resident_on(tier))
                .map(|f| f.size.as_bytes())
                .sum();
            Ok(TierStatus {
                capacity: ByteSize::from_bytes(self.capacity[tier.index()]),
                used: ByteSize::from_bytes(used),
            })
        }
        fn copy_file(&mut self, _: &str, _: StorageTier, _: StorageTier) -> Result<ByteSize> {
            unimplemented!("planner never mutates")
        }
        fn verify_copy(&self, _: &str, _: StorageTier, _: StorageTier) -> Result<ByteSize> {
            unimplemented!("planner never mutates")
        }
        fn delete_replica(&mut self, _: &str, _: StorageTier) -> Result<()> {
            unimplemented!("planner never mutates")
        }
        fn record_read(&mut self, _: &str, _: SimTime) -> Result<()> {
            unimplemented!("planner never mutates")
        }
    }

    fn pressured_backend() -> FakeBackend {
        // Memory: 1000 bytes capacity, 950 used (95% > 90% start).
        let mut be = FakeBackend::new([1000, 10_000, 100_000]);
        be.add("/a-cold", StorageTier::Memory, 300, 0.1, 10);
        be.add("/b-warm", StorageTier::Memory, 350, 1.0, 20);
        be.add("/c-hot", StorageTier::Memory, 300, 5.0, 30);
        be.add("/d-hot-low", StorageTier::Hdd, 100, 9.0, 40);
        be
    }

    #[test]
    fn downgrades_coldest_first_and_exempts_hot() {
        let plan = plan_moves(&pressured_backend(), &PlannerConfig::default()).unwrap();
        // 95% > 90%: evict until <= 85% of 1000 = 850. Dropping /a-cold
        // (300) gets memory to 650 before the upgrade pass.
        assert_eq!(plan.moves[0].path, "/a-cold");
        assert_eq!(plan.moves[0].from, "MEM");
        assert_eq!(plan.moves[0].to, "SSD");
        assert_eq!(plan.moves[0].band, "cold");
        assert!(
            !plan
                .moves
                .iter()
                .any(|m| m.path == "/c-hot" && m.from == "MEM"),
            "hot files never downgrade"
        );
        // The upgrade pass pulls the hot low-tier file into the freed room.
        assert!(plan
            .moves
            .iter()
            .any(|m| m.path == "/d-hot-low" && m.to == "MEM" && m.band == "hot"));
        // Projections balance: total projected == total used.
        let used: u64 = plan.tiers.iter().map(|t| t.used_bytes).sum();
        let projected: u64 = plan.tiers.iter().map(|t| t.projected_used_bytes).sum();
        assert_eq!(used, projected);
    }

    #[test]
    fn plan_is_deterministic_bytes() {
        let be = pressured_backend();
        let cfg = PlannerConfig::default();
        let a = plan_moves(&be, &cfg).unwrap().to_json();
        let b = plan_moves(&be, &cfg).unwrap().to_json();
        assert_eq!(a, b, "same tree, same bytes");
        assert!(a.contains("\"strategy\":\"watermark\""));
    }

    #[test]
    fn lru_strategy_orders_by_recency_and_never_upgrades() {
        let mut be = pressured_backend();
        // Make the *hot* file the least recently used: LRU evicts it first
        // where watermark would exempt it.
        be.files.get_mut("/c-hot").unwrap().last_access = Some(SimTime::from_millis(1));
        let cfg = PlannerConfig {
            strategy: PlanStrategy::Lru,
            ..PlannerConfig::default()
        };
        let plan = plan_moves(&be, &cfg).unwrap();
        assert_eq!(plan.moves[0].path, "/c-hot", "LRU is recency-blind to heat");
        assert_eq!(plan.moves[0].band, "n/a");
        assert!(
            !plan.moves.iter().any(|m| m.to == "MEM"),
            "LRU plans no upgrades"
        );
    }

    #[test]
    fn max_moves_caps_the_plan() {
        let cfg = PlannerConfig {
            max_moves: 1,
            ..PlannerConfig::default()
        };
        let plan = plan_moves(&pressured_backend(), &cfg).unwrap();
        assert_eq!(plan.moves.len(), 1);
    }

    #[test]
    fn strategy_names_resolve_like_the_registry() {
        assert_eq!(
            PlanStrategy::by_name("watermark"),
            Some(PlanStrategy::Watermark)
        );
        assert_eq!(
            PlanStrategy::by_name("hybrid"),
            Some(PlanStrategy::Watermark)
        );
        assert_eq!(PlanStrategy::by_name("lru"), Some(PlanStrategy::Lru));
        assert_eq!(PlanStrategy::by_name("xgb"), None, "needs a trained model");
        // Every plannable name is a registered downgrade policy.
        for name in ["watermark", "hybrid", "lru"] {
            assert!(crate::registry::DOWNGRADE_NAMES.contains(&name));
        }
    }

    #[test]
    fn balanced_tree_plans_nothing() {
        let mut be = FakeBackend::new([1000, 10_000, 100_000]);
        be.add("/x", StorageTier::Memory, 100, 1.0, 5);
        let plan = plan_moves(&be, &PlannerConfig::default()).unwrap();
        assert!(plan.moves.is_empty());
        assert_eq!(plan.files, 1);
        let round: MovePlan = serde_json::from_str(&plan.to_json()).unwrap();
        assert_eq!(round, plan);
    }

    #[test]
    fn markdown_renders_tiers_and_moves() {
        let plan = plan_moves(&pressured_backend(), &PlannerConfig::default()).unwrap();
        let md = plan.to_markdown();
        assert!(md.contains("| MEM |"));
        assert!(md.contains("/a-cold"));
    }
}
