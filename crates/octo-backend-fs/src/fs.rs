//! [`StorageBackend`] over real local directories.
//!
//! A listing walks the three tier roots once. `readdir` gives each entry's
//! kind, a file is stat'ed relative to its open directory, and one stable
//! sort by path merges the tiers. A directory link is followed unless it
//! resolves inside a tree the walk is already listing. The same walk sums
//! each tier's used bytes, and `tier_status` answers from those sums until
//! a copy or a delete runs, so one walk serves a whole planning cycle. Access
//! statistics come from memory, where `FsBackend::open` loaded the
//! snapshot and replayed the access log (see `log.rs`). Recording a read
//! appends one log record.

use crate::log::AccessStats;
use crate::sidecar::{sync_dir, StatsSidecar};
use octo_common::{ByteSize, OctoError, PerTier, Result, SimTime, StorageTier};
use octo_dfs::backend::{FileRecord, StorageBackend, TierStatus};
use std::cell::Cell;
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Copy granularity; also the pacing quantum of the bandwidth budget.
const CHUNK: usize = 256 * 1024;

/// Name prefix of a copy's temp file in the destination directory.
const TMP_PREFIX: &str = ".octo-tmp.";

/// Configuration of a [`FsBackend`].
#[derive(Debug, Clone, PartialEq)]
pub struct FsBackendConfig {
    /// Root directory of each tier. A file's backend-relative path is its
    /// path under the root; residency on a tier is existence under that
    /// tier's root.
    pub roots: PerTier<PathBuf>,
    /// Declared capacity of each tier (the planner's watermark base).
    pub capacities: PerTier<ByteSize>,
    /// Directory holding backend state (the access-stats snapshot and
    /// log).
    pub state_dir: PathBuf,
    /// Heat decay parameters applied to the sidecar statistics.
    pub heat: octo_dfs::HeatConfig,
    /// Copy bandwidth budget in bytes per second; `0` means unlimited.
    pub bandwidth_bytes_per_sec: u64,
}

impl FsBackendConfig {
    /// The conventional layout under one base directory: `mem/`, `ssd/`,
    /// `hdd/` tier roots and a `state/` directory, with the given
    /// capacities and default heat parameters, unlimited bandwidth.
    pub fn under(base: &Path, capacities: PerTier<ByteSize>) -> Self {
        FsBackendConfig {
            roots: PerTier::from_fn(|t| base.join(t.label().to_ascii_lowercase())),
            capacities,
            state_dir: base.join("state"),
            heat: octo_dfs::HeatConfig::default(),
            bandwidth_bytes_per_sec: 0,
        }
    }

    /// Where the access-stats snapshot lives; the access log sits beside
    /// it as `octostats.log`.
    pub fn sidecar_path(&self) -> PathBuf {
        self.state_dir.join("octostats.json")
    }
}

/// [`StorageBackend`] mapping tiers to local directory trees.
///
/// See the crate docs for the layout and crash-safety contract. Heat is
/// estimated from the access statistics as
/// `(write_weight + read_weight · reads) · 0.5^(Δt / half_life)` with Δt
/// measured from the file's newest access to the backend clock (the
/// newest access overall); never-read files score `0.0`, i.e. coldest.
///
/// [`tier_status`](StorageBackend::tier_status) reports the used bytes the
/// latest [`list_files`](StorageBackend::list_files) summed. It walks the
/// tier's root itself only when no listing has succeeded since the backend
/// opened or since its last `copy_file` or `delete_replica`, so a file
/// written into a root from outside shows in it only after the next
/// listing.
#[derive(Debug)]
pub struct FsBackend {
    cfg: FsBackendConfig,
    stats: AccessStats,
    cancel: Option<Arc<AtomicBool>>,
    /// Each tier's used bytes as the latest listing summed them; `None`
    /// until a listing succeeds, and again from the start of a listing, a
    /// copy or a delete.
    observed: Cell<Option<PerTier<u64>>>,
}

pub(crate) fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> OctoError {
    OctoError::InvalidState(format!("{ctx} {}: {e}", path.display()))
}

/// Rejects absolute or parent-escaping relative paths before they touch
/// the filesystem.
fn check_rel_path(path: &str) -> Result<()> {
    let escapes = path.is_empty()
        || path.starts_with('/')
        || path
            .split('/')
            .any(|seg| seg.is_empty() || seg == "." || seg == "..");
    if escapes {
        return Err(OctoError::InvalidArgument(format!(
            "backend paths must be clean relative paths, got {path:?}"
        )));
    }
    Ok(())
}

/// Opens `dir` for listing. A subdirectory (`top` false) removed since its
/// parent was read is `None`: it holds no readable copy. A missing tier
/// root stays an error, so an unmounted tier never looks empty.
fn open_dir(dir: &Path, top: bool) -> Result<Option<std::fs::ReadDir>> {
    match std::fs::read_dir(dir) {
        Ok(entries) => Ok(Some(entries)),
        Err(e) if !top && e.kind() == ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err("listing", dir, e)),
    }
}

/// The trees a walk of one tier root is already listing, as canonical
/// paths: the root and the target of each directory link the walk is
/// inside. Resolved only when a link to a directory is met, so a tree
/// without one costs no extra system call.
struct Listed<'a> {
    root: &'a Path,
    canonical_root: Option<PathBuf>,
    links: Vec<PathBuf>,
}

impl<'a> Listed<'a> {
    fn new(root: &'a Path) -> Self {
        Listed {
            root,
            canonical_root: None,
            links: Vec::new(),
        }
    }

    /// Where the directory link `link` leads, or `None` when that lies
    /// inside a tree the walk is already listing, whose files it lists
    /// under their own paths, or when the link vanished. Following such a
    /// link would list a file twice, and a link to an ancestor forever.
    fn follow(&mut self, link: &Path) -> Result<Option<PathBuf>> {
        if self.canonical_root.is_none() {
            let root =
                std::fs::canonicalize(self.root).map_err(|e| io_err("resolving", self.root, e))?;
            self.canonical_root = Some(root);
        }
        let target = match std::fs::canonicalize(link) {
            Ok(target) => target,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("resolving", link, e)),
        };
        let listed = self
            .canonical_root
            .iter()
            .chain(&self.links)
            .any(|tree| target.starts_with(tree));
        Ok((!listed).then_some(target))
    }
}

/// Calls `found(relative_path, size_bytes)` for every regular file under
/// `dir`, in directory order, skipping dot-prefixed names (temp files) at
/// every level.
///
/// Each entry's kind comes from `readdir`: a directory costs no `stat`, a
/// file is stat'ed relative to the open directory, and only a symbolic
/// link is followed, as `std::fs::metadata` would, except a link to a
/// directory inside a tree `listed` already covers. An entry that vanished
/// since `readdir` returned it, or a dangling link, is skipped. `dir` is a
/// tier root when `prefix` is empty, and then it must exist.
fn walk(
    dir: &Path,
    prefix: &str,
    listed: &mut Listed,
    found: &mut impl FnMut(String, u64),
) -> Result<()> {
    let Some(entries) = open_dir(dir, prefix.is_empty())? else {
        return Ok(());
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("listing", dir, e))?;
        let name = match entry.file_name().into_string() {
            Ok(name) if !name.starts_with('.') => name,
            _ => continue, // dotfiles and non-UTF-8 names are not backend files
        };
        let rel = if prefix.is_empty() {
            name
        } else {
            format!("{prefix}/{name}")
        };
        let meta = match entry.file_type() {
            Ok(kind) if kind.is_dir() => {
                walk(&entry.path(), &rel, listed, found)?;
                continue;
            }
            Ok(kind) if kind.is_file() => entry.metadata(),
            Ok(kind) if kind.is_symlink() => std::fs::metadata(entry.path()),
            Ok(_) => continue, // pipes, sockets and devices hold no payload
            Err(e) => Err(e),
        };
        match meta {
            // Only a link gets here: plain directories recursed above.
            Ok(meta) if meta.is_dir() => {
                let link = entry.path();
                if let Some(target) = listed.follow(&link)? {
                    listed.links.push(target);
                    walk(&link, &rel, listed, found)?;
                    listed.links.pop();
                }
            }
            Ok(meta) if meta.is_file() => found(rel, meta.len()),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("stat", &entry.path(), e)),
        }
    }
    Ok(())
}

/// [`walk`] over the tier root `root`.
fn walk_root(root: &Path, found: &mut impl FnMut(String, u64)) -> Result<()> {
    walk(root, "", &mut Listed::new(root), found)
}

/// The 64-bit FNV-1a hash of no bytes.
pub(crate) const FNV1A_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends a 64-bit FNV-1a `hash` over `bytes`.
pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64-bit FNV-1a over a reader; cheap content fingerprint for verify.
fn fnv1a64(mut r: impl Read, path: &Path) -> Result<(u64, u64)> {
    let mut hash = FNV1A_EMPTY;
    let mut len: u64 = 0;
    let mut buf = vec![0u8; CHUNK];
    loop {
        let n = r.read(&mut buf).map_err(|e| io_err("reading", path, e))?;
        if n == 0 {
            return Ok((len, hash));
        }
        len += n as u64;
        hash = fnv1a(hash, &buf[..n]);
    }
}

/// Sleeps as needed to keep `sent` bytes under `budget` bytes/sec since
/// `start`. A zero budget disables pacing.
fn pace(budget: u64, start: Instant, sent: u64) {
    if budget == 0 {
        return;
    }
    let target = std::time::Duration::from_secs_f64(sent as f64 / budget as f64);
    if let Some(sleep) = target.checked_sub(start.elapsed()) {
        std::thread::sleep(sleep);
    }
}

impl FsBackend {
    /// Opens (creating tier roots and the state directory as needed),
    /// loads the access-stats snapshot and replays the access log over it.
    /// A torn or corrupt record in the log is skipped; the snapshot and
    /// the log are never written here.
    pub fn open(cfg: FsBackendConfig) -> Result<FsBackend> {
        for (_, root) in cfg.roots.iter() {
            std::fs::create_dir_all(root).map_err(|e| io_err("creating tier root", root, e))?;
        }
        std::fs::create_dir_all(&cfg.state_dir)
            .map_err(|e| io_err("creating state dir", &cfg.state_dir, e))?;
        let stats = AccessStats::open(cfg.sidecar_path())?;
        Ok(FsBackend {
            cfg,
            stats,
            cancel: None,
            observed: Cell::new(None),
        })
    }

    /// Installs a cooperative cancellation flag: an in-flight copy checks
    /// it between chunks, cleans up its temp file and returns
    /// `invalid_state` when set. The daemon points this at its signal
    /// flag so SIGTERM interrupts a move *before* the source delete.
    pub fn set_cancel_flag(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = Some(flag);
    }

    /// The configuration this backend was opened with.
    pub fn config(&self) -> &FsBackendConfig {
        &self.cfg
    }

    /// The access statistics: the snapshot with the log replayed over it
    /// and every read recorded since.
    pub fn sidecar(&self) -> &StatsSidecar {
        self.stats.stats()
    }

    /// Removes the `.octo-tmp.*` files an interrupted copy left under the
    /// tier roots and returns how many it removed. Only a caller that
    /// knows no copy is in flight may run this, such as the holder of the
    /// daemon's lock. Entries that vanish during the sweep are skipped.
    pub fn sweep_temp_files(&self) -> Result<usize> {
        fn sweep(dir: &Path, top: bool) -> Result<usize> {
            let Some(entries) = open_dir(dir, top)? else {
                return Ok(0);
            };
            let mut removed = 0;
            for entry in entries {
                let entry = entry.map_err(|e| io_err("listing", dir, e))?;
                let path = entry.path();
                let kind = match entry.file_type() {
                    Ok(kind) => kind,
                    Err(e) if e.kind() == ErrorKind::NotFound => continue,
                    Err(e) => return Err(io_err("stat", &path, e)),
                };
                if kind.is_dir() {
                    removed += sweep(&path, false)?;
                } else if kind.is_file()
                    && entry.file_name().to_string_lossy().starts_with(TMP_PREFIX)
                {
                    match std::fs::remove_file(&path) {
                        Ok(()) => removed += 1,
                        Err(e) if e.kind() == ErrorKind::NotFound => {}
                        Err(e) => return Err(io_err("deleting", &path, e)),
                    }
                }
            }
            Ok(removed)
        }
        let mut removed = 0;
        for (_, root) in self.cfg.roots.iter() {
            removed += sweep(root, true)?;
        }
        Ok(removed)
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    fn tier_path(&self, tier: StorageTier, path: &str) -> PathBuf {
        self.cfg.roots.get(tier).join(path)
    }

    /// The record of `path`: its access statistics and heat at `now`.
    fn record(&self, path: String, size: u64, tiers: Vec<StorageTier>, now: SimTime) -> FileRecord {
        let stats = self
            .sidecar()
            .entries
            .get(&path)
            .copied()
            .unwrap_or_default();
        let heat_cfg = &self.cfg.heat;
        let (last_access, heat) = if stats.reads == 0 {
            (None, 0.0)
        } else {
            let at = SimTime::from_millis(stats.last_access_ms);
            let base = heat_cfg.write_weight + heat_cfg.read_weight * stats.reads as f64;
            (Some(at), base * heat_cfg.decay(now.duration_since(at)))
        };
        FileRecord {
            path,
            size: ByteSize::from_bytes(size),
            tiers,
            reads: stats.reads,
            last_access,
            heat,
        }
    }

    fn require_file(&self, path: &str, tier: StorageTier) -> Result<PathBuf> {
        check_rel_path(path)?;
        let full = self.tier_path(tier, path);
        if full.is_file() {
            Ok(full)
        } else {
            Err(OctoError::NotFound(format!(
                "{path} has no copy on {tier} ({})",
                full.display()
            )))
        }
    }
}

impl StorageBackend for FsBackend {
    fn name(&self) -> &str {
        "fs"
    }

    fn clock(&self) -> SimTime {
        SimTime::from_millis(self.stats.clock_ms())
    }

    fn list_files(&self) -> Result<Vec<FileRecord>> {
        self.observed.set(None);
        let mut found: Vec<(String, u64, StorageTier)> = Vec::new();
        let mut used = PerTier::<u64>::default();
        for tier in StorageTier::ALL {
            let sum = used.get_mut(tier);
            walk_root(self.cfg.roots.get(tier), &mut |path, size| {
                *sum += size;
                found.push((path, size, tier));
            })?;
        }
        // Stable, so a path's copies stay highest tier first and the first
        // one gives the size.
        found.sort_by(|a, b| a.0.cmp(&b.0));
        let now = self.clock();
        let mut files: Vec<FileRecord> = Vec::with_capacity(found.len());
        for (path, size, tier) in found {
            match files.last_mut() {
                Some(last) if last.path == path => last.tiers.push(tier),
                _ => files.push(self.record(path, size, vec![tier], now)),
            }
        }
        self.observed.set(Some(used));
        Ok(files)
    }

    fn tier_status(&self, tier: StorageTier) -> Result<TierStatus> {
        let used = match self.observed.get() {
            Some(used) => *used.get(tier),
            None => {
                let mut used = 0;
                walk_root(self.cfg.roots.get(tier), &mut |_, size| used += size)?;
                used
            }
        };
        Ok(TierStatus {
            capacity: *self.cfg.capacities.get(tier),
            used: ByteSize::from_bytes(used),
        })
    }

    fn copy_file(&mut self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize> {
        self.observed.set(None);
        let src = self.require_file(path, from)?;
        let dst = self.tier_path(to, path);
        if dst.exists() {
            return Err(OctoError::AlreadyExists(format!(
                "{path} already has a copy on {to}"
            )));
        }
        let parent = dst
            .parent()
            .ok_or_else(|| OctoError::InvalidArgument(format!("{path:?} has no parent")))?;
        let root = self.cfg.roots.get(to);
        let made: Vec<&Path> = parent
            .ancestors()
            .take_while(|d| d != root && !d.exists())
            .collect();
        std::fs::create_dir_all(parent).map_err(|e| io_err("creating", parent, e))?;
        let file_name = dst
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| OctoError::InvalidArgument(format!("bad file name in {path:?}")))?;
        let tmp = parent.join(format!("{TMP_PREFIX}{file_name}"));

        // Dot-prefixed temp + rename keeps a half-written destination
        // invisible to listings; pacing sleeps between chunks to hold the
        // copy under the bandwidth budget.
        let mut reader = std::fs::File::open(&src).map_err(|e| io_err("opening", &src, e))?;
        let mut writer = std::fs::File::create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
        let start = Instant::now();
        let mut sent: u64 = 0;
        let mut buf = vec![0u8; CHUNK];
        loop {
            if self.cancelled() {
                drop(writer);
                let _ = std::fs::remove_file(&tmp);
                return Err(OctoError::InvalidState(format!(
                    "copy of {path} interrupted by shutdown"
                )));
            }
            let n = reader
                .read(&mut buf)
                .map_err(|e| io_err("reading", &src, e))?;
            if n == 0 {
                break;
            }
            writer
                .write_all(&buf[..n])
                .map_err(|e| io_err("writing", &tmp, e))?;
            sent += n as u64;
            pace(self.cfg.bandwidth_bytes_per_sec, start, sent);
        }
        writer.sync_all().map_err(|e| io_err("syncing", &tmp, e))?;
        drop(writer);
        std::fs::rename(&tmp, &dst).map_err(|e| io_err("renaming into", &dst, e))?;
        // The rename, and the directories made for it, must reach the disk
        // before the caller deletes the source, which may sit on another
        // filesystem.
        sync_dir(parent)?;
        for dir in made {
            sync_dir(dir.parent().expect("a directory below the tier root"))?;
        }
        Ok(ByteSize::from_bytes(sent))
    }

    fn verify_copy(&self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize> {
        let src = self.require_file(path, from)?;
        let dst = self.require_file(path, to)?;
        let a = fnv1a64(
            std::fs::File::open(&src).map_err(|e| io_err("opening", &src, e))?,
            &src,
        )?;
        let b = fnv1a64(
            std::fs::File::open(&dst).map_err(|e| io_err("opening", &dst, e))?,
            &dst,
        )?;
        if a != b {
            return Err(OctoError::InvalidState(format!(
                "copy of {path} on {to} does not match {from}: \
                 (len, fnv1a) {a:?} vs {b:?}"
            )));
        }
        Ok(ByteSize::from_bytes(a.0))
    }

    fn delete_replica(&mut self, path: &str, tier: StorageTier) -> Result<()> {
        self.observed.set(None);
        let victim = self.require_file(path, tier)?;
        let elsewhere = StorageTier::ALL
            .into_iter()
            .any(|t| t != tier && self.tier_path(t, path).is_file());
        if !elsewhere {
            return Err(OctoError::InvalidState(format!(
                "refusing to delete the only copy of {path} (on {tier})"
            )));
        }
        std::fs::remove_file(&victim).map_err(|e| io_err("deleting", &victim, e))
    }

    fn record_read(&mut self, path: &str, now: SimTime) -> Result<()> {
        check_rel_path(path)?;
        let resident = StorageTier::ALL
            .into_iter()
            .any(|t| self.tier_path(t, path).is_file());
        if !resident {
            return Err(OctoError::NotFound(format!("{path} has no readable copy")));
        }
        self.stats.record(path, now.as_millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TempTree;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::os::unix::fs::symlink;
    use StorageTier::{Hdd, Memory, Ssd};

    /// The walk before one listing served a whole planning cycle, kept as
    /// the reference the listing and the tier sums are tested against:
    /// collects `(relative_path, size_bytes)` of every regular file under
    /// `dir`, sorted by path, skipping dot-prefixed names at every level,
    /// with one `stat` by full path per entry.
    fn reference_walk(dir: &Path, prefix: &str, out: &mut Vec<(String, u64)>) -> Result<()> {
        let mut names: Vec<String> = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| io_err("listing", dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing", dir, e))?;
            match entry.file_name().into_string() {
                Ok(name) if !name.starts_with('.') => names.push(name),
                _ => {} // dotfiles and non-UTF-8 names are not backend files
            }
        }
        names.sort();
        for name in names {
            let full = dir.join(&name);
            let rel = if prefix.is_empty() {
                name
            } else {
                format!("{prefix}/{name}")
            };
            let meta = std::fs::metadata(&full).map_err(|e| io_err("stat", &full, e))?;
            if meta.is_dir() {
                reference_walk(&full, &rel, out)?;
            } else if meta.is_file() {
                out.push((rel, meta.len()));
            }
        }
        Ok(())
    }

    /// What the backend listed, and each tier's used bytes as one walk of
    /// its root summed them, before one listing served both: every tier
    /// walked by [`reference_walk`] and merged in a `BTreeMap`.
    fn reference_listing(be: &FsBackend) -> (Vec<FileRecord>, PerTier<u64>) {
        let mut merged: BTreeMap<String, (u64, Vec<StorageTier>)> = BTreeMap::new();
        let mut used = PerTier::default();
        for tier in StorageTier::ALL {
            let mut files = Vec::new();
            reference_walk(be.cfg.roots.get(tier), "", &mut files).unwrap();
            *used.get_mut(tier) = files.iter().map(|(_, size)| size).sum();
            for (path, size) in files {
                merged
                    .entry(path)
                    .or_insert((size, Vec::new()))
                    .1
                    .push(tier);
            }
        }
        let now = be.clock();
        let records = merged
            .into_iter()
            .map(|(path, (size, tiers))| be.record(path, size, tiers, now))
            .collect();
        (records, used)
    }

    fn used(be: &FsBackend, tier: StorageTier) -> u64 {
        be.tier_status(tier).unwrap().used.as_bytes()
    }

    fn tmp_base(tag: &str) -> TempTree {
        TempTree::new(&format!("octo-fsbackend-{tag}"))
    }

    fn small_cfg(base: &Path) -> FsBackendConfig {
        FsBackendConfig::under(base, PerTier::splat(ByteSize::mb(1)))
    }

    fn seed(cfg: &FsBackendConfig, tier: StorageTier, path: &str, bytes: &[u8]) {
        let full = cfg.roots.get(tier).join(path);
        std::fs::create_dir_all(full.parent().unwrap()).unwrap();
        std::fs::write(full, bytes).unwrap();
    }

    #[test]
    fn lists_a_seeded_tree_sorted_with_dotfiles_skipped() {
        let base = tmp_base("list");
        let cfg = small_cfg(&base);
        seed(&cfg, StorageTier::Ssd, "data/b.dat", b"bbbb");
        seed(&cfg, StorageTier::Hdd, "data/b.dat", b"bbbb");
        seed(&cfg, StorageTier::Memory, "a.dat", b"aa");
        seed(&cfg, StorageTier::Hdd, ".octo-tmp.ghost", b"ignored");
        let mut be = FsBackend::open(cfg).unwrap();
        be.record_read("a.dat", SimTime::from_secs(5)).unwrap();

        let files = be.list_files().unwrap();
        assert_eq!(files.len(), 2, "dotfile skipped");
        assert_eq!(files[0].path, "a.dat");
        assert_eq!(files[0].tier(), StorageTier::Memory);
        assert_eq!(files[0].reads, 1);
        assert!(files[0].heat > 0.0);
        assert_eq!(files[1].path, "data/b.dat");
        assert_eq!(files[1].tiers, vec![StorageTier::Ssd, StorageTier::Hdd]);
        assert_eq!(files[1].size, ByteSize::from_bytes(4));
        assert_eq!(files[1].heat, 0.0, "never-read file is coldest");
        assert_eq!(be.clock(), SimTime::from_secs(5));

        let ssd = be.tier_status(StorageTier::Ssd).unwrap();
        assert_eq!(ssd.used, ByteSize::from_bytes(4));
        assert_eq!(ssd.capacity, ByteSize::mb(1));
    }

    #[test]
    fn copy_verify_delete_moves_the_payload() {
        let base = tmp_base("move");
        let cfg = small_cfg(&base);
        let payload = vec![7u8; 100_000];
        seed(&cfg, StorageTier::Memory, "hot/f.bin", &payload);
        let mut be = FsBackend::open(cfg).unwrap();

        let n = be
            .copy_file("hot/f.bin", StorageTier::Memory, StorageTier::Hdd)
            .unwrap();
        assert_eq!(n, ByteSize::from_bytes(100_000));
        assert_eq!(
            be.verify_copy("hot/f.bin", StorageTier::Memory, StorageTier::Hdd)
                .unwrap(),
            ByteSize::from_bytes(100_000)
        );
        be.delete_replica("hot/f.bin", StorageTier::Memory).unwrap();

        let files = be.list_files().unwrap();
        assert_eq!(files[0].tiers, vec![StorageTier::Hdd]);
        let err = be
            .delete_replica("hot/f.bin", StorageTier::Hdd)
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_state", "last copy is protected");
        // Second copy onto an occupied tier is refused.
        seed(be.config(), StorageTier::Memory, "hot/f.bin", &payload);
        let err = be
            .copy_file("hot/f.bin", StorageTier::Memory, StorageTier::Hdd)
            .unwrap_err();
        assert_eq!(err.kind(), "already_exists");
    }

    #[test]
    fn verify_detects_corruption() {
        let base = tmp_base("corrupt");
        let cfg = small_cfg(&base);
        seed(&cfg, StorageTier::Ssd, "f", b"expected-bytes");
        seed(&cfg, StorageTier::Hdd, "f", b"corrupt-bytess");
        let be = FsBackend::open(cfg).unwrap();
        let err = be
            .verify_copy("f", StorageTier::Ssd, StorageTier::Hdd)
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_state");
    }

    #[test]
    fn stats_survive_reopen_and_plans_see_no_wall_clock() {
        let base = tmp_base("reopen");
        let cfg = small_cfg(&base);
        seed(&cfg, StorageTier::Ssd, "f", b"x");
        let mut be = FsBackend::open(cfg.clone()).unwrap();
        be.record_read("f", SimTime::from_secs(42)).unwrap();
        be.record_read("f", SimTime::from_secs(99)).unwrap();
        drop(be);

        let be = FsBackend::open(cfg).unwrap();
        assert_eq!(
            be.clock(),
            SimTime::from_secs(99),
            "clock is the newest access"
        );
        let rec = &be.list_files().unwrap()[0];
        assert_eq!(rec.reads, 2);
        assert_eq!(rec.last_access, Some(SimTime::from_secs(99)));
        let again = &be.list_files().unwrap()[0];
        assert_eq!(rec, again, "repeated listings are identical");
    }

    #[test]
    fn open_never_writes_the_snapshot_or_the_log() {
        use std::os::unix::fs::MetadataExt;
        let base = tmp_base("open-ro");
        let cfg = small_cfg(&base);
        let log = cfg.state_dir.join("octostats.log");
        FsBackend::open(cfg.clone()).unwrap();
        assert!(!cfg.sidecar_path().exists(), "no snapshot created");
        assert!(!log.exists(), "no log created");

        seed(&cfg, StorageTier::Ssd, "f", b"x");
        StatsSidecar::default().save(&cfg.sidecar_path()).unwrap();
        let mut be = FsBackend::open(cfg.clone()).unwrap();
        be.record_read("f", SimTime::from_secs(1)).unwrap();
        be.record_read("f", SimTime::from_secs(2)).unwrap();
        drop(be);
        // Tear the second record, as a crash mid-append would.
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();
        let state = || {
            [cfg.sidecar_path(), log.clone()].map(|p| {
                let m = std::fs::metadata(&p).unwrap();
                (std::fs::read(&p).unwrap(), m.ino(), m.modified().unwrap())
            })
        };
        let before = state();
        let be = FsBackend::open(cfg.clone()).unwrap();
        assert_eq!(be.list_files().unwrap()[0].reads, 1, "torn record dropped");
        assert_eq!(be.clock(), SimTime::from_secs(1));
        assert!(state() == before, "open left both files as they were");
    }

    #[test]
    fn cancel_flag_interrupts_a_copy_and_cleans_up() {
        let base = tmp_base("cancel");
        let cfg = small_cfg(&base);
        seed(&cfg, StorageTier::Memory, "f", &vec![1u8; 4096]);
        let mut be = FsBackend::open(cfg).unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        be.set_cancel_flag(Arc::clone(&flag));
        let err = be
            .copy_file("f", StorageTier::Memory, StorageTier::Hdd)
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_state");
        let leftovers: Vec<_> = std::fs::read_dir(be.config().roots.get(StorageTier::Hdd))
            .unwrap()
            .collect();
        assert!(leftovers.is_empty(), "no temp file left behind");
        // Clearing the flag lets the copy through.
        flag.store(false, Ordering::Relaxed);
        be.copy_file("f", StorageTier::Memory, StorageTier::Hdd)
            .unwrap();
        assert_eq!(
            be.verify_copy("f", StorageTier::Memory, StorageTier::Hdd)
                .unwrap(),
            ByteSize::from_bytes(4096)
        );
    }

    #[test]
    fn rejects_escaping_paths() {
        let base = tmp_base("escape");
        let mut be = FsBackend::open(small_cfg(&base)).unwrap();
        for bad in ["../etc/passwd", "/abs", "a/../b", "", "a//b", "./x"] {
            let err = be.record_read(bad, SimTime::ZERO).unwrap_err();
            assert_eq!(err.kind(), "invalid_argument", "path {bad:?}");
        }
    }

    #[test]
    fn bandwidth_budget_paces_the_copy() {
        let base = tmp_base("pace");
        let mut cfg = small_cfg(&base);
        cfg.bandwidth_bytes_per_sec = 256 * 1024; // one chunk per second
        seed(&cfg, StorageTier::Memory, "big", &vec![9u8; 128 * 1024]);
        let mut be = FsBackend::open(cfg).unwrap();
        let start = Instant::now();
        be.copy_file("big", StorageTier::Memory, StorageTier::Ssd)
            .unwrap();
        // 128 KiB at 256 KiB/s must take at least ~0.5 s.
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(400),
            "copy finished too fast for the budget: {:?}",
            start.elapsed()
        );
    }

    /// `octoctl/tests/record_history.rs`'s names, with the tier each sits on.
    const AWKWARD: [(StorageTier, &str); 13] = [
        (Memory, "plain/a.dat"),
        (Memory, "q\"uote\".dat"),
        (Memory, "with space/c d.dat"),
        (Memory, "new\nline.dat"),
        (Ssd, "données/π-1.bin"),
        (Ssd, "emoji 😀/f.dat"),
        (Ssd, "back\\slash.dat"),
        (Hdd, "deep/x/y/z.dat"),
        (Hdd, "日本語/ファイル.dat"),
        (Hdd, "tab\there.dat"),
        (Hdd, "mixed \"q\" \n 😀.dat"),
        (Hdd, "plain/e.dat"),
        (Ssd, "plain/a.dat"),
    ];

    #[test]
    fn listing_matches_the_reference_on_awkward_names() {
        use std::os::unix::ffi::OsStrExt;
        let base = tmp_base("awkward");
        let cfg = small_cfg(&base);
        for (i, (tier, path)) in AWKWARD.into_iter().enumerate() {
            seed(&cfg, tier, path, &vec![b'x'; 100 + i]);
        }
        // A walk yields `a/b` before `a-c`; byte order puts `a-c` first.
        seed(&cfg, Ssd, "a/b", b"ab");
        seed(&cfg, Ssd, "a-c", b"ac");
        // One path on two tiers with different sizes.
        seed(&cfg, Memory, "dup.dat", b"short");
        seed(&cfg, Hdd, "dup.dat", b"the longer copy");
        seed(&cfg, Memory, ".octo-tmp.dup.dat", b"temp");
        seed(&cfg, Ssd, "plain/.hidden", b"h");
        seed(&cfg, Hdd, ".dotdir/f.dat", b"f");
        let bad_name = std::ffi::OsStr::from_bytes(b"non-utf8-\xff.dat");
        std::fs::write(cfg.roots.get(Memory).join(bad_name), b"x").unwrap();
        // Links are followed: one to a file, one to a directory on another
        // tier.
        symlink(
            cfg.roots.get(Memory).join("dup.dat"),
            cfg.roots.get(Ssd).join("linked.dat"),
        )
        .unwrap();
        symlink(
            cfg.roots.get(Hdd).join("deep"),
            cfg.roots.get(Ssd).join("linked-dir"),
        )
        .unwrap();
        let mut be = FsBackend::open(cfg).unwrap();
        be.record_read("dup.dat", SimTime::from_secs(3)).unwrap();
        be.record_read("a-c", SimTime::from_secs(9)).unwrap();

        let (records, walked) = reference_listing(&be);
        let files = be.list_files().unwrap();
        assert_eq!(files, records);
        for tier in StorageTier::ALL {
            assert_eq!(used(&be, tier), *walked.get(tier), "{tier}");
        }
        let at = |p: &str| files.iter().position(|f| f.path == p).unwrap();
        assert!(at("a-c") < at("a/b"), "byte-wise path order");
        let dup = &files[at("dup.dat")];
        assert_eq!(dup.tiers, vec![Memory, Hdd]);
        assert_eq!(
            dup.size,
            ByteSize::from_bytes(5),
            "size from the highest tier"
        );
        assert_eq!(files[at("plain/a.dat")].tiers, vec![Memory, Ssd]);
        assert_eq!(files[at("linked.dat")].size, ByteSize::from_bytes(5));
        assert_eq!(files[at("linked-dir/x/y/z.dat")].tiers, vec![Ssd]);
        assert!(files.iter().all(|f| !f.path.contains("/.")
            && !f.path.starts_with('.')
            && !f.path.starts_with("non-utf8")));
        assert_eq!(files.len(), AWKWARD.len() - 1 + 5);
    }

    /// A relative path of one to three components drawn from names whose
    /// byte order and component order disagree.
    fn random_path(pick: usize) -> String {
        const NAMES: [&str; 6] = ["a", "a-c", "a.b", "b", "é", "z z"];
        let depth = 1 + pick % 3;
        let mut rest = pick / 3;
        let parts: Vec<&str> = (0..depth)
            .map(|_| {
                let name = NAMES[rest % NAMES.len()];
                rest /= NAMES.len();
                name
            })
            .collect();
        parts.join("/")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn random_trees_list_like_the_reference(
            ops in proptest::collection::vec((0usize..3, 0usize..648, 0u8..8, 0usize..3_000), 1..48),
        ) {
            let base = tmp_base("prop");
            let cfg = small_cfg(&base);
            let mut written: Vec<PathBuf> = Vec::new();
            for (tier, pick, kind, size) in ops {
                let full = cfg.roots.get(StorageTier::ALL[tier]).join(random_path(pick));
                // A path already taken by a file or a directory of the other
                // kind is skipped.
                if std::fs::create_dir_all(full.parent().unwrap()).is_err() {
                    continue;
                }
                match kind {
                    0 if !written.is_empty() => {
                        let _ = symlink(&written[size % written.len()], &full);
                    }
                    1 => {
                        let name = full.file_name().unwrap().to_str().unwrap();
                        let _ = std::fs::write(full.with_file_name(format!(".{name}")), b"dot");
                    }
                    _ => {
                        if std::fs::write(&full, vec![7u8; size]).is_ok() {
                            written.push(full);
                        }
                    }
                }
            }
            let be = FsBackend::open(cfg).unwrap();
            let (records, walked) = reference_listing(&be);
            prop_assert_eq!(be.list_files().unwrap(), records);
            for tier in StorageTier::ALL {
                prop_assert_eq!(used(&be, tier), *walked.get(tier));
            }
        }
    }

    #[test]
    fn tier_status_answers_from_the_latest_listing() {
        let base = tmp_base("observe");
        let cfg = small_cfg(&base);
        seed(&cfg, Memory, "a", &[1; 100]);
        seed(&cfg, Ssd, "b", &[2; 200]);
        let be = FsBackend::open(cfg.clone()).unwrap();
        assert_eq!(used(&be, Memory), 100);
        seed(&cfg, Memory, "late", &[3; 10]);
        assert_eq!(used(&be, Memory), 110, "a backend that never listed walks");

        be.list_files().unwrap();
        seed(&cfg, Memory, "later", &[4; 1]);
        assert_eq!(used(&be, Memory), 110, "the listing's sum, not a walk");
        be.list_files().unwrap();
        assert_eq!(used(&be, Memory), 111, "the next listing shows the file");
        assert_eq!(used(&be, Ssd), 200);
    }

    #[test]
    fn copies_and_deletes_clear_the_observation_even_when_they_fail() {
        type Step = fn(&mut FsBackend) -> Result<()>;
        let steps: [(&str, bool, Step); 5] = [
            ("copy", true, |be| be.copy_file("a", Memory, Hdd).map(drop)),
            ("copy onto a copy", false, |be| {
                be.copy_file("b", Ssd, Hdd).map(drop)
            }),
            ("copy of nothing", false, |be| {
                be.copy_file("none", Memory, Ssd).map(drop)
            }),
            ("delete", true, |be| be.delete_replica("b", Hdd)),
            ("delete of the last copy", false, |be| {
                be.delete_replica("a", Memory)
            }),
        ];
        for (what, succeeds, step) in steps {
            let base = tmp_base("clear");
            let cfg = small_cfg(&base);
            seed(&cfg, Memory, "a", &[1; 100]);
            seed(&cfg, Ssd, "b", &[2; 200]);
            seed(&cfg, Hdd, "b", &[2; 200]);
            let mut be = FsBackend::open(cfg.clone()).unwrap();
            be.list_files().unwrap();
            // Unseen by the listing: only a fresh walk counts it.
            for tier in StorageTier::ALL {
                seed(&cfg, tier, "outside", &[0; 7]);
            }
            assert_eq!(step(&mut be).is_ok(), succeeds, "{what}");
            let (_, walked) = reference_listing(&be);
            for tier in StorageTier::ALL {
                assert_eq!(used(&be, tier), *walked.get(tier), "after {what}: {tier}");
            }
        }
    }

    #[test]
    fn plan_rows_count_every_copy_of_a_size_mismatched_duplicate() {
        let base = tmp_base("plan-dup");
        let cfg = small_cfg(&base);
        seed(&cfg, Memory, "dup.dat", &[1; 300]);
        seed(&cfg, Hdd, "dup.dat", &[1; 700]);
        seed(&cfg, Ssd, "other.dat", &[2; 50]);
        let be = FsBackend::open(cfg).unwrap();
        let planner = octo_policies::PlannerConfig::default();
        let plan = octo_policies::plan_moves(&be, &planner).unwrap();
        let (_, walked) = reference_listing(&be);
        let rows: Vec<u64> = plan.tiers.iter().map(|r| r.used_bytes).collect();
        assert_eq!(rows, vec![300, 50, 700]);
        for (row, tier) in rows.into_iter().zip(StorageTier::ALL) {
            assert_eq!(row, *walked.get(tier), "{tier}");
        }
    }

    #[test]
    fn directory_links_into_a_listed_tree_are_not_followed() {
        // Links under the SSD root, each a relative target, and the real
        // files there. `ext` leads out of the roots to a tree holding a
        // link to itself.
        type Case<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a [&'a str]);
        let cases: [Case; 3] = [
            ("up", &[("d/up", "..")], &["d/x.dat", "top.dat"]),
            (
                "pair",
                &[("a/l", "../b"), ("b/l", "../a")],
                &["a/x.dat", "b/y.dat"],
            ),
            ("ext", &[("ext", "../outside")], &["a.dat", "ext/z.dat"]),
        ];
        let planner = octo_policies::PlannerConfig::default();
        for (tag, links, files) in cases {
            let base = tmp_base(&format!("cycle-{tag}"));
            let cfg = small_cfg(&base);
            let ssd = cfg.roots.get(Ssd);
            let mut sum = 0;
            for (i, path) in files.iter().enumerate() {
                let bytes = vec![1; 10 * (i + 1)];
                sum += bytes.len() as u64;
                match path.strip_prefix("ext/") {
                    Some(outside) => {
                        std::fs::create_dir_all(base.join("outside")).unwrap();
                        std::fs::write(base.join("outside").join(outside), bytes).unwrap();
                        symlink(".", base.join("outside/again")).unwrap();
                    }
                    None => seed(&cfg, Ssd, path, &bytes),
                }
            }
            for (link, target) in links {
                let at = ssd.join(link);
                std::fs::create_dir_all(at.parent().unwrap()).unwrap();
                symlink(target, at).unwrap();
            }
            let be = FsBackend::open(cfg).unwrap();
            assert_eq!(used(&be, Ssd), sum, "{tag}: a walk without a listing");
            let paths: Vec<String> = be
                .list_files()
                .unwrap()
                .into_iter()
                .map(|f| f.path)
                .collect();
            assert_eq!(paths, files, "{tag}");
            assert_eq!(used(&be, Ssd), sum, "{tag}");
            let plan = octo_policies::plan_moves(&be, &planner).unwrap();
            assert_eq!((plan.files, plan.tiers[1].used_bytes), (files.len(), sum));
        }
    }

    #[test]
    fn dangling_links_are_skipped_and_a_missing_root_stays_fatal() {
        let base = tmp_base("dangling");
        let cfg = small_cfg(&base);
        seed(&cfg, Ssd, "kept.dat", &[1; 10]);
        seed(&cfg, Ssd, "sub/kept.dat", &[1; 20]);
        let ssd = cfg.roots.get(Ssd);
        symlink(base.join("nowhere"), ssd.join("gone.dat")).unwrap();
        symlink(base.join("nowhere"), ssd.join("sub/gone.dat")).unwrap();
        symlink(base.join("nowhere"), ssd.join(format!("{TMP_PREFIX}gone"))).unwrap();
        let planner = octo_policies::PlannerConfig::default();

        let be = FsBackend::open(cfg.clone()).unwrap();
        assert_eq!(used(&be, Ssd), 30, "a walk without a listing");
        let paths: Vec<String> = be
            .list_files()
            .unwrap()
            .into_iter()
            .map(|f| f.path)
            .collect();
        assert_eq!(paths, ["kept.dat", "sub/kept.dat"]);
        assert_eq!(used(&be, Ssd), 30);
        let plan = octo_policies::plan_moves(&be, &planner).unwrap();
        assert_eq!((plan.files, plan.tiers[1].used_bytes), (2, 30));
        assert_eq!(be.sweep_temp_files().unwrap(), 0);

        // An unmounted root never looks like an empty tier.
        std::fs::remove_dir_all(cfg.roots.get(Hdd)).unwrap();
        assert!(be.list_files().is_err());
        assert!(
            be.tier_status(Hdd).is_err(),
            "a failed listing leaves no sums"
        );
        assert!(octo_policies::plan_moves(&be, &planner).is_err());
        assert!(be.sweep_temp_files().is_err());
    }
}
