//! [`StorageBackend`] over real local directories.
//!
//! Listings walk the tier roots; access statistics come from memory, where
//! `FsBackend::open` loaded the snapshot and replayed the access log (see
//! `log.rs`). Recording a read appends one log record.

use crate::log::AccessStats;
use crate::sidecar::{sync_dir, StatsSidecar};
use octo_common::{ByteSize, OctoError, PerTier, Result, SimTime, StorageTier};
use octo_dfs::backend::{FileRecord, StorageBackend, TierStatus};
use std::io::{Read, Write};
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
#[derive(Debug)]
pub struct FsBackend {
    cfg: FsBackendConfig,
    stats: AccessStats,
    cancel: Option<Arc<AtomicBool>>,
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

/// Collects `(relative_path, size_bytes)` of every regular file under
/// `dir`, sorted by path, skipping dot-prefixed names (temp files) at
/// every level.
fn walk(dir: &Path, prefix: &str, out: &mut Vec<(String, u64)>) -> Result<()> {
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
            walk(&full, &rel, out)?;
        } else if meta.is_file() {
            out.push((rel, meta.len()));
        }
    }
    Ok(())
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
    /// daemon's lock.
    pub fn sweep_temp_files(&self) -> Result<usize> {
        fn sweep(dir: &Path) -> Result<usize> {
            let mut removed = 0;
            let entries = std::fs::read_dir(dir).map_err(|e| io_err("listing", dir, e))?;
            for entry in entries {
                let entry = entry.map_err(|e| io_err("listing", dir, e))?;
                let path = entry.path();
                let kind = entry.file_type().map_err(|e| io_err("stat", &path, e))?;
                if kind.is_dir() {
                    removed += sweep(&path)?;
                } else if kind.is_file()
                    && entry.file_name().to_string_lossy().starts_with(TMP_PREFIX)
                {
                    std::fs::remove_file(&path).map_err(|e| io_err("deleting", &path, e))?;
                    removed += 1;
                }
            }
            Ok(removed)
        }
        let mut removed = 0;
        for (_, root) in self.cfg.roots.iter() {
            removed += sweep(root)?;
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
        // path → (size from the highest tier, tiers highest-first).
        let mut merged: std::collections::BTreeMap<String, (u64, Vec<StorageTier>)> =
            std::collections::BTreeMap::new();
        for tier in StorageTier::ALL {
            let mut files = Vec::new();
            walk(self.cfg.roots.get(tier), "", &mut files)?;
            for (path, size) in files {
                merged
                    .entry(path)
                    .or_insert((size, Vec::new()))
                    .1
                    .push(tier);
            }
        }
        let now = self.clock();
        let heat_cfg = &self.cfg.heat;
        Ok(merged
            .into_iter()
            .map(|(path, (size, tiers))| {
                let stats = self
                    .sidecar()
                    .entries
                    .get(&path)
                    .copied()
                    .unwrap_or_default();
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
            })
            .collect())
    }

    fn tier_status(&self, tier: StorageTier) -> Result<TierStatus> {
        let mut files = Vec::new();
        walk(self.cfg.roots.get(tier), "", &mut files)?;
        let used: u64 = files.iter().map(|(_, size)| size).sum();
        Ok(TierStatus {
            capacity: *self.cfg.capacities.get(tier),
            used: ByteSize::from_bytes(used),
        })
    }

    fn copy_file(&mut self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize> {
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

    fn tmp_base(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("octo-fsbackend-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
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
}
