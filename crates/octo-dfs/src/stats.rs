//! Per-file access statistics (the "Statistics" feed of Figure 3).
//!
//! Policies and the ML feature pipeline both read from here. For every file
//! the registry keeps its size, creation time, total access count, and the
//! last `k` access timestamps (the paper's `k = 12`; §7.7 measures ≤ 956
//! bytes per file for this bookkeeping).

use octo_common::{ByteSize, FileId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Parameters of the per-file exponentially-decayed heat score the
/// registry maintains incrementally (the watermark policy family's input).
///
/// Heat is a left fold over the file's event stream: creation seeds it at
/// `write_weight`, and every read applies
/// `heat ← read_weight + heat · 0.5^(Δt / half_life)` — the same
/// update-plus-decay shape as the LRFU/EXD weights, but owned by the
/// statistics feed so any consumer (policies, reports, tests) observes one
/// shared, incrementally-maintained value instead of re-deriving it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeatConfig {
    /// Time for an untouched file's heat to halve.
    pub half_life: SimDuration,
    /// Heat added by one read access.
    pub read_weight: f64,
    /// Initial heat granted at creation (the write).
    pub write_weight: f64,
}

impl Default for HeatConfig {
    fn default() -> Self {
        HeatConfig {
            half_life: SimDuration::from_hours(1),
            read_weight: 1.0,
            write_weight: 0.5,
        }
    }
}

impl HeatConfig {
    /// The multiplicative decay over `dt`.
    pub fn decay(&self, dt: SimDuration) -> f64 {
        let h = self.half_life.as_millis().max(1) as f64;
        0.5f64.powf(dt.as_millis() as f64 / h)
    }
}

/// Recorded access history of one file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccessStats {
    /// Logical file size.
    pub size: ByteSize,
    /// Creation timestamp.
    pub created: SimTime,
    /// Total number of accesses since creation.
    pub total_accesses: u64,
    /// The most recent access timestamps, oldest first, capped at `k`.
    recent: VecDeque<SimTime>,
    /// Decayed heat as of `heat_at` (see [`HeatConfig`]).
    heat: f64,
    /// Timestamp `heat` was last folded at.
    heat_at: SimTime,
    /// The decayed heat immediately *before* the last fold — the lowest
    /// point of the preceding inter-access interval (decay is monotone), so
    /// hysteresis consumers can observe the trough without a timer.
    heat_prev: f64,
}

impl AccessStats {
    fn new(size: ByteSize, created: SimTime, heat: &HeatConfig) -> Self {
        AccessStats {
            size,
            created,
            total_accesses: 0,
            recent: VecDeque::new(),
            heat: heat.write_weight,
            heat_at: created,
            heat_prev: 0.0,
        }
    }

    /// The most recent access, if the file was ever accessed.
    pub fn last_access(&self) -> Option<SimTime> {
        self.recent.back().copied()
    }

    /// The retained access timestamps, oldest first.
    pub fn accesses(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.recent.iter().copied()
    }

    /// Number of retained timestamps (≤ k).
    pub fn retained(&self) -> usize {
        self.recent.len()
    }

    /// Accesses recorded strictly after `t` among the retained window.
    pub fn accesses_since(&self, t: SimTime) -> usize {
        self.recent.iter().filter(|&&a| a > t).count()
    }

    /// The heat as last folded (no decay applied since the last event).
    pub fn heat_raw(&self) -> f64 {
        self.heat
    }

    /// The decayed heat observed at `now` (≥ the last fold time).
    pub fn heat_value(&self, now: SimTime, cfg: &HeatConfig) -> f64 {
        self.heat * cfg.decay(now.duration_since(self.heat_at))
    }

    /// The decayed heat immediately before the most recent event — the
    /// trough of the last inter-access interval, since decay only ever
    /// lowers heat between events. Zero for a freshly created file.
    pub fn heat_before_last(&self) -> f64 {
        self.heat_prev
    }

    /// Approximate bytes of bookkeeping held for this file (§7.7).
    pub fn approx_memory_bytes(&self) -> usize {
        std::mem::size_of::<AccessStats>() + self.recent.capacity() * std::mem::size_of::<SimTime>()
    }
}

/// How many recent access timestamps the DFS retains per file: the paper's
/// `k` = 12 (§4.1). The §7.6 ablation's 6 and 18 replay through registries
/// of their own.
pub const ACCESS_HISTORY: usize = 12;

/// Registry of [`AccessStats`] for all live files.
///
/// A dense slab keyed by [`FileId`]: ids are allocated sequentially and
/// never reused, so slot `id` holds file `id` and a lookup is an array
/// index — no hashing on the per-access hot path, and iteration touches
/// contiguous memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsRegistry {
    k: usize,
    heat: HeatConfig,
    files: Vec<Option<AccessStats>>,
    live: usize,
}

impl StatsRegistry {
    /// A registry retaining the last `k` access times per file, with the
    /// default heat-score parameters.
    pub fn new(k: usize) -> Self {
        Self::with_heat(k, HeatConfig::default())
    }

    /// A registry with explicit heat-score parameters.
    pub fn with_heat(k: usize, heat: HeatConfig) -> Self {
        assert!(k > 0, "access history length must be >= 1");
        StatsRegistry {
            k,
            heat,
            files: Vec::new(),
            live: 0,
        }
    }

    /// The configured history length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The heat-score parameters every tracked file folds under.
    pub fn heat_config(&self) -> &HeatConfig {
        &self.heat
    }

    fn slot_mut(&mut self, file: FileId) -> &mut Option<AccessStats> {
        let i = file.index();
        if i >= self.files.len() {
            self.files.resize_with(i + 1, || None);
        }
        &mut self.files[i]
    }

    /// Registers a newly created file.
    pub fn on_create(&mut self, file: FileId, size: ByteSize, now: SimTime) {
        let heat = self.heat;
        let slot = self.slot_mut(file);
        debug_assert!(slot.is_none(), "on_create for already-tracked {file}");
        *slot = Some(AccessStats::new(size, now, &heat));
        self.live += 1;
    }

    /// Records a read access.
    pub fn on_access(&mut self, file: FileId, now: SimTime) {
        let k = self.k;
        let heat = self.heat;
        if let Some(s) = self.files.get_mut(file.index()).and_then(|s| s.as_mut()) {
            s.total_accesses += 1;
            if s.recent.len() == k {
                s.recent.pop_front();
            }
            s.recent.push_back(now);
            s.heat_prev = s.heat * heat.decay(now.duration_since(s.heat_at));
            s.heat = heat.read_weight + s.heat_prev;
            s.heat_at = now;
        } else {
            debug_assert!(false, "on_access for untracked {file}");
        }
    }

    /// Forgets a deleted file.
    pub fn on_delete(&mut self, file: FileId) {
        if let Some(slot) = self.files.get_mut(file.index()) {
            if slot.take().is_some() {
                self.live -= 1;
            }
        }
    }

    /// Statistics of one file.
    pub fn get(&self, file: FileId) -> Option<&AccessStats> {
        self.files.get(file.index()).and_then(|s| s.as_ref())
    }

    /// Number of tracked files. O(1).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total bookkeeping bytes across all files (§7.7).
    pub fn approx_memory_bytes(&self) -> usize {
        self.files
            .iter()
            .flatten()
            .map(|s| s.approx_memory_bytes())
            .sum::<usize>()
            + self.live * std::mem::size_of::<FileId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_keeps_last_k() {
        let mut reg = StatsRegistry::new(3);
        let f = FileId(0);
        reg.on_create(f, ByteSize::mb(10), SimTime::ZERO);
        for s in 1..=5 {
            reg.on_access(f, SimTime::from_secs(s));
        }
        let st = reg.get(f).unwrap();
        assert_eq!(st.total_accesses, 5);
        assert_eq!(st.retained(), 3);
        let kept: Vec<u64> = st.accesses().map(|t| t.as_millis() / 1000).collect();
        assert_eq!(kept, vec![3, 4, 5], "oldest evicted first");
        assert_eq!(st.last_access(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn accesses_since_counts_window_only() {
        let mut reg = StatsRegistry::new(12);
        let f = FileId(1);
        reg.on_create(f, ByteSize::mb(1), SimTime::ZERO);
        for s in [10u64, 20, 30] {
            reg.on_access(f, SimTime::from_secs(s));
        }
        let st = reg.get(f).unwrap();
        assert_eq!(st.accesses_since(SimTime::from_secs(15)), 2);
        assert_eq!(st.accesses_since(SimTime::from_secs(30)), 0);
    }

    #[test]
    fn delete_forgets_file() {
        let mut reg = StatsRegistry::new(4);
        let f = FileId(2);
        reg.on_create(f, ByteSize::mb(1), SimTime::ZERO);
        assert_eq!(reg.len(), 1);
        reg.on_delete(f);
        assert!(reg.get(f).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn never_accessed_file_has_empty_history() {
        let mut reg = StatsRegistry::new(4);
        let f = FileId(3);
        reg.on_create(f, ByteSize::mb(1), SimTime::from_secs(9));
        let st = reg.get(f).unwrap();
        assert_eq!(st.last_access(), None);
        assert_eq!(st.total_accesses, 0);
        assert_eq!(st.created, SimTime::from_secs(9));
    }

    #[test]
    fn heat_decays_by_half_life_and_accumulates_on_reads() {
        let cfg = HeatConfig {
            half_life: SimDuration::from_hours(1),
            read_weight: 1.0,
            write_weight: 0.5,
        };
        let mut reg = StatsRegistry::with_heat(4, cfg);
        let f = FileId(0);
        reg.on_create(f, ByteSize::mb(1), SimTime::ZERO);
        let st = reg.get(f).unwrap();
        assert_eq!(st.heat_raw(), 0.5, "creation seeds heat at write_weight");
        assert_eq!(st.heat_before_last(), 0.0);
        // One half-life later the unread file has halved.
        let one_hl = SimTime::from_secs(3600);
        assert!((st.heat_value(one_hl, &cfg) - 0.25).abs() < 1e-12);

        reg.on_access(f, one_hl);
        let st = reg.get(f).unwrap();
        assert!((st.heat_raw() - 1.25).abs() < 1e-12);
        assert!((st.heat_before_last() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn heat_matches_from_scratch_left_fold() {
        let cfg = HeatConfig::default();
        let mut reg = StatsRegistry::with_heat(4, cfg);
        let f = FileId(0);
        let created = SimTime::from_secs(5);
        reg.on_create(f, ByteSize::mb(1), created);
        let reads = [40u64, 1000, 1001, 9000, 40_000];
        for s in reads {
            reg.on_access(f, SimTime::from_secs(s));
        }
        // Oracle: replay the event stream from scratch.
        let mut heat = cfg.write_weight;
        let mut at = created;
        for s in reads {
            let t = SimTime::from_secs(s);
            heat = cfg.read_weight + heat * cfg.decay(t.duration_since(at));
            at = t;
        }
        assert_eq!(reg.get(f).unwrap().heat_raw(), heat, "bit-identical fold");
    }

    #[test]
    fn memory_accounting_is_bounded() {
        let mut reg = StatsRegistry::new(12);
        for i in 0..100u64 {
            reg.on_create(FileId(i), ByteSize::mb(1), SimTime::ZERO);
            for s in 0..12 {
                reg.on_access(FileId(i), SimTime::from_secs(s));
            }
        }
        // The paper reports <= 956 bytes/file; our bookkeeping is leaner.
        let per_file = reg.approx_memory_bytes() / 100;
        assert!(per_file <= 956, "per-file bookkeeping {per_file}B");
    }
}
