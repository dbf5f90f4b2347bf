//! The pluggable storage-backend boundary (ROADMAP item 2).
//!
//! Everything above this trait — the move planner in `octo-policies` and
//! the `octoctl` serving front end — sees a tiered store only through
//! [`StorageBackend`]: list the files with their access statistics, probe
//! per-tier capacity, and copy / verify / delete one file's payload on one
//! tier. `FsBackend` (crate `octo-backend-fs`) implements it: it maps each
//! tier to a real local directory tree and persists access statistics as
//! a JSON snapshot plus an append-only access log. The simulator does not
//! plan through this trait: its policies run inside the
//! `octo-policies` tiering engine against [`TieredDfs`](crate::TieredDfs)
//! directly.
//!
//! The mutation API is deliberately split into the three crash-safe steps
//! the executor orders as **copy → verify → delete**: a crash between any
//! two steps leaves at least one readable copy of the payload (the worst
//! case is a verified duplicate, never a loss).

use octo_common::{ByteSize, Result, SimTime, StorageTier};

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
    /// Exponentially-decayed heat score at the backend's
    /// [`clock`](StorageBackend::clock). The filesystem backend estimates
    /// it from the read count and newest access.
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
    /// to. The filesystem backend reports the newest recorded access so
    /// repeated plans over an unchanged tree are byte-identical (no
    /// wall-clock leakage).
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
