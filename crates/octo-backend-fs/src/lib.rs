//! A real local-directory [`StorageBackend`]: tiers as root directories.
//!
//! This is the half of ROADMAP item 2 that leaves the simulation: each
//! storage tier maps to a root directory on the local filesystem
//! (`mem/`, `ssd/`, `hdd/` — in production, mount points of the actual
//! devices), a file's tier is the root it lives under, and a move is a
//! real `copy → verify → delete` of its payload between roots. Access
//! statistics persist under a state directory so heat survives process
//! restarts, and the backend's logical clock is the newest recorded
//! access — never the wall clock — so planning an unchanged tree twice is
//! byte-identical.
//!
//! A planning cycle walks the tree once. A listing reads each directory
//! once, stats only files (relative to their open directory), and merges
//! the tiers with one sort by path. The same walk sums each tier's used
//! bytes, and `tier_status` answers from those sums until the backend
//! next copies or deletes. An entry that vanishes during a walk, a
//! dangling symlink or one that resolves to itself holds no readable copy
//! and is skipped; a missing tier root is an error, so an unmounted tier
//! never looks empty. A link to a directory inside a tree the walk is
//! already listing is not followed, so a link cycle lists each file once
//! instead of failing with `ELOOP`.
//!
//! The statistics are a JSON snapshot, `octostats.json`, plus an
//! append-only access log beside it, `octostats.log`. Recording a read
//! appends one checksummed record holding the file's new read count and
//! newest access; only a compaction (below) rewrites the snapshot, so the
//! cost of a read does not grow with the number of files. Opening reads
//! the snapshot straight into memory, replays the log, skipping torn or
//! corrupt records, and writes nothing. `FsBackend::refresh` catches an
//! open backend up by replaying only the log's new tail; it reloads in
//! full only when a compaction replaced the snapshot or emptied the log.
//! The read that brings the log to as many records as the snapshot has
//! entries (1,024 at the least) folds it into a new snapshot and empties
//! it.
//!
//! Crash-safety ordering, everywhere:
//!
//! * copies write to a dot-prefixed temp name, sync it, `rename(2)` it
//!   into place and sync the directory (and the parent of any directory
//!   made for it), so a partially-written destination is never visible
//!   (listings skip dotfiles) and a finished one is on disk before the
//!   source may go;
//! * snapshots save the same way; the log is emptied only after the new
//!   snapshot is durable, and replay merges records with `max`, so a crash
//!   loses at most the newest appended records, never older ones;
//! * deletes refuse to remove the last readable copy.
//!
//! [`StorageBackend`]: octo_dfs::backend::StorageBackend

mod fs;
mod log;
mod sidecar;
#[cfg(test)]
mod testdir;

pub use fs::{FsBackend, FsBackendConfig};
pub use log::Refresh;
pub use sidecar::{SidecarEntry, StatsSidecar};
