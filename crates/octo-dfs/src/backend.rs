//! The pluggable storage-backend boundary (ROADMAP item 2).
//!
//! Everything above this trait — the move planner in `octo-policies` and
//! the `octoctl` serving front end — sees a tiered store only through
//! [`StorageBackend`]: list the files with their access statistics, probe
//! per-tier capacity, and copy / verify / delete one file's payload on one
//! tier. Two implementations exist:
//!
//! * [`SimBackend`] (here) adapts the simulated cluster: a thin, purely
//!   additive wrapper over [`TieredDfs`] — it calls only existing public
//!   planning entry points (`plan_cache_copy`, `plan_drop_replicas`), so
//!   every pinned golden digest is untouched by construction.
//! * `FsBackend` (crate `octo-backend-fs`) maps each tier to a real local
//!   directory tree and persists access statistics as a JSON snapshot
//!   plus an append-only access log.
//!
//! The mutation API is deliberately split into the three crash-safe steps
//! the executor orders as **copy → verify → delete**: a crash between any
//! two steps leaves at least one readable copy of the payload (the worst
//! case is a verified duplicate, never a loss).

use crate::TieredDfs;
use octo_common::{ByteSize, FileId, OctoError, Result, SimTime, StorageTier};

/// One file as a backend reports it: where its payload is resident and how
/// it has been accessed. Returned by [`StorageBackend::list_files`] in
/// ascending path order, which is what makes downstream plans
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct FileRecord {
    /// Backend-relative path (the planning key; unique per backend).
    pub path: String,
    /// Payload size in bytes.
    pub size: ByteSize,
    /// Tiers holding a readable copy, highest (fastest) first. At least
    /// one entry; more than one mid-move or for replicated/cached files.
    pub tiers: Vec<StorageTier>,
    /// Total recorded read accesses.
    pub reads: u64,
    /// Most recent recorded access, if any.
    pub last_access: Option<SimTime>,
    /// Exponentially-decayed heat score folded at the backend's
    /// [`clock`](StorageBackend::clock). Simulated backends report the
    /// statistics registry's exact incremental fold; the filesystem
    /// backend estimates it from the read count and newest access.
    pub heat: f64,
}

impl FileRecord {
    /// The highest (fastest) tier holding a copy.
    pub fn tier(&self) -> StorageTier {
        self.tiers[0]
    }

    /// Whether `tier` holds a readable copy.
    pub fn resident_on(&self, tier: StorageTier) -> bool {
        self.tiers.contains(&tier)
    }
}

/// Capacity probe of one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierStatus {
    /// Total capacity of the tier.
    pub capacity: ByteSize,
    /// Bytes currently used by resident payloads.
    pub used: ByteSize,
}

impl TierStatus {
    /// `used / capacity`, `0.0` for a zero-capacity tier.
    pub fn utilization(&self) -> f64 {
        self.used.fraction_of(self.capacity)
    }
}

/// A tiered store the move planner and the `octoctl` daemon can operate:
/// observation (files, stats, capacity) plus the three crash-safe mutation
/// steps of one move.
pub trait StorageBackend {
    /// Short human-readable backend label (lands in plan artifacts).
    fn name(&self) -> &str;

    /// The backend's logical clock: the reference instant heat is decayed
    /// to. Simulated backends report sim time; the filesystem backend
    /// reports the newest recorded access so repeated plans over an
    /// unchanged tree are byte-identical (no wall-clock leakage).
    fn clock(&self) -> SimTime;

    /// Every file with at least one readable copy, in ascending path
    /// order.
    fn list_files(&self) -> Result<Vec<FileRecord>>;

    /// Capacity and usage of one tier.
    ///
    /// A backend may answer from its latest [`list_files`]: a change made
    /// behind the backend's back since then may show only after the next
    /// listing, while its own copies and deletes show at once. Planners
    /// therefore list first and probe the tiers right after.
    ///
    /// [`list_files`]: StorageBackend::list_files
    fn tier_status(&self, tier: StorageTier) -> Result<TierStatus>;

    /// Copies `path`'s payload from `from` onto `to`, leaving the source
    /// copy in place. Returns the bytes copied.
    fn copy_file(&mut self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize>;

    /// Verifies the copy on `to` matches the copy on `from` (length and
    /// content). Returns the verified byte count.
    fn verify_copy(&self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize>;

    /// Deletes the copy of `path` on `tier`. Refuses to remove the last
    /// readable copy.
    fn delete_replica(&mut self, path: &str, tier: StorageTier) -> Result<()>;

    /// Records one read access at `now` (feeds the stats the planner
    /// scores from).
    fn record_read(&mut self, path: &str, now: SimTime) -> Result<()>;
}

/// [`StorageBackend`] over the simulated cluster.
///
/// Owns a [`TieredDfs`] and adapts the trait onto its existing planning
/// API — copies become `plan_cache_copy` + `complete_transfer`, deletes
/// become `plan_drop_replicas` + `complete_transfer`. No simulator code
/// path changes: runs that never construct a `SimBackend` are bit-for-bit
/// what they were before this type existed.
#[derive(Debug)]
pub struct SimBackend {
    dfs: TieredDfs,
    now: SimTime,
}

impl SimBackend {
    /// Wraps a DFS, with the logical clock starting at `now`.
    pub fn new(dfs: TieredDfs, now: SimTime) -> Self {
        SimBackend { dfs, now }
    }

    /// The wrapped DFS.
    pub fn dfs(&self) -> &TieredDfs {
        &self.dfs
    }

    /// Unwraps the DFS.
    pub fn into_inner(self) -> TieredDfs {
        self.dfs
    }

    /// Advances the logical clock (monotone; earlier instants are
    /// ignored).
    pub fn advance_clock(&mut self, now: SimTime) {
        if now > self.now {
            self.now = now;
        }
    }

    fn file_record(&self, file: FileId) -> Option<FileRecord> {
        let meta = self.dfs.file_meta(file)?;
        let tiers: Vec<StorageTier> = StorageTier::ALL
            .into_iter()
            .filter(|&t| self.dfs.file_on_tier(file, t))
            .collect();
        if tiers.is_empty() {
            return None;
        }
        let stats = self.dfs.file_stats(file)?;
        Some(FileRecord {
            path: meta.path.clone(),
            size: meta.size,
            tiers,
            reads: stats.total_accesses,
            last_access: stats.last_access(),
            heat: stats.heat_value(self.now, self.dfs.heat_config()),
        })
    }
}

impl StorageBackend for SimBackend {
    fn name(&self) -> &str {
        "sim"
    }

    fn clock(&self) -> SimTime {
        self.now
    }

    fn list_files(&self) -> Result<Vec<FileRecord>> {
        let mut out: Vec<FileRecord> = (0..self.dfs.committed_file_count())
            .filter_map(|rank| self.dfs.nth_committed_file(rank))
            .filter_map(|f| self.file_record(f))
            .collect();
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    fn tier_status(&self, tier: StorageTier) -> Result<TierStatus> {
        let (used, capacity) = self.dfs.tier_usage(tier);
        Ok(TierStatus { capacity, used })
    }

    fn copy_file(&mut self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize> {
        let file = self.dfs.file_id(path)?;
        if !self.dfs.file_on_tier(file, from) {
            return Err(OctoError::NotFound(format!("{path} has no copy on {from}")));
        }
        let size = self.dfs.file_meta(file).map(|m| m.size).unwrap_or_default();
        let id = self.dfs.plan_cache_copy(file, to)?;
        self.dfs.complete_transfer(id)?;
        Ok(size)
    }

    fn verify_copy(&self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize> {
        let file = self.dfs.file_id(path)?;
        for tier in [from, to] {
            if !self.dfs.file_fully_on_tier(file, tier) {
                return Err(OctoError::InvalidState(format!(
                    "{path} is not fully resident on {tier}"
                )));
            }
        }
        Ok(self.dfs.file_meta(file).map(|m| m.size).unwrap_or_default())
    }

    fn delete_replica(&mut self, path: &str, tier: StorageTier) -> Result<()> {
        let file = self.dfs.file_id(path)?;
        // The simulator's block layer would happily drop the only replica;
        // the backend contract refuses, mirroring the filesystem backend.
        let elsewhere = StorageTier::ALL
            .into_iter()
            .any(|t| t != tier && self.dfs.file_on_tier(file, t));
        if !elsewhere {
            return Err(OctoError::InvalidState(format!(
                "refusing to delete the only copy of {path} (on {tier})"
            )));
        }
        let id = self.dfs.plan_drop_replicas(file, tier)?;
        self.dfs.complete_transfer(id)?;
        Ok(())
    }

    fn record_read(&mut self, path: &str, now: SimTime) -> Result<()> {
        let file = self.dfs.file_id(path)?;
        self.advance_clock(now);
        self.dfs.record_access(file, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfsConfig;

    fn small_dfs() -> TieredDfs {
        let mut cfg = DfsConfig {
            workers: 4,
            replication: 1,
            block_size: ByteSize::mb(32),
            ..DfsConfig::default()
        };
        *cfg.redundancy.get_mut(StorageTier::Memory) = crate::RedundancyMode::Replicated(1);
        *cfg.redundancy.get_mut(StorageTier::Ssd) = crate::RedundancyMode::Replicated(1);
        *cfg.redundancy.get_mut(StorageTier::Hdd) = crate::RedundancyMode::Replicated(1);
        TieredDfs::new(cfg).unwrap()
    }

    fn ingest(dfs: &mut TieredDfs, path: &str, mb: u64, at: SimTime) -> FileId {
        let plan = dfs.create_file(path, ByteSize::mb(mb), at).unwrap();
        let id = plan.file;
        dfs.commit_file(id, at).unwrap();
        id
    }

    #[test]
    fn listing_reflects_the_dfs() {
        let mut dfs = small_dfs();
        ingest(&mut dfs, "/data/b", 32, SimTime::from_secs(1));
        let f = ingest(&mut dfs, "/data/a", 32, SimTime::from_secs(2));
        dfs.record_access(f, SimTime::from_secs(10)).unwrap();

        let be = SimBackend::new(dfs, SimTime::from_secs(10));
        let files = be.list_files().unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].path, "/data/a", "ascending path order");
        assert_eq!(files[1].path, "/data/b");
        assert_eq!(files[0].reads, 1);
        assert_eq!(files[0].last_access, Some(SimTime::from_secs(10)));
        assert!(files[0].heat > files[1].heat, "accessed file is hotter");
        assert_eq!(files[0].size, ByteSize::mb(32));
        assert!(!files[0].tiers.is_empty());

        let status = be.tier_status(files[0].tier()).unwrap();
        assert!(status.used.as_bytes() > 0);
        assert!(status.capacity >= status.used);
    }

    #[test]
    fn copy_verify_delete_round_trip() {
        let mut dfs = small_dfs();
        ingest(&mut dfs, "/f", 32, SimTime::from_secs(1));
        let mut be = SimBackend::new(dfs, SimTime::from_secs(1));

        let rec = &be.list_files().unwrap()[0];
        let src = rec.tier();
        let dst = StorageTier::Hdd;
        assert_ne!(src, dst, "fresh 32 MB file lands above HDD");

        let copied = be.copy_file("/f", src, dst).unwrap();
        assert_eq!(copied, ByteSize::mb(32));
        assert_eq!(be.verify_copy("/f", src, dst).unwrap(), ByteSize::mb(32));
        be.delete_replica("/f", src).unwrap();

        let rec = &be.list_files().unwrap()[0];
        assert_eq!(rec.tiers, vec![dst], "moved: only the destination holds it");
    }

    #[test]
    fn delete_refuses_the_last_copy() {
        let mut dfs = small_dfs();
        ingest(&mut dfs, "/only", 32, SimTime::from_secs(1));
        let mut be = SimBackend::new(dfs, SimTime::from_secs(1));
        let tier = be.list_files().unwrap()[0].tier();
        let err = be.delete_replica("/only", tier).unwrap_err();
        assert_eq!(err.kind(), "invalid_state");
        assert_eq!(be.list_files().unwrap().len(), 1, "file survived");
    }

    #[test]
    fn record_read_feeds_stats_and_clock() {
        let mut dfs = small_dfs();
        ingest(&mut dfs, "/hot", 32, SimTime::ZERO);
        let mut be = SimBackend::new(dfs, SimTime::ZERO);
        be.record_read("/hot", SimTime::from_secs(30)).unwrap();
        be.record_read("/hot", SimTime::from_secs(60)).unwrap();
        assert_eq!(be.clock(), SimTime::from_secs(60));
        let rec = &be.list_files().unwrap()[0];
        assert_eq!(rec.reads, 2);
        assert_eq!(rec.last_access, Some(SimTime::from_secs(60)));
    }
}
