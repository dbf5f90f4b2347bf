//! The daemon's PID lock.
//!
//! Mutual exclusion between `octoctl` processes that execute moves. The
//! lock is a JSON file created with `O_EXCL` (`File::create_new`), so of
//! any number of concurrent acquirers exactly one wins the syscall race.
//! A lock whose recorded PID is no longer alive (crashed daemon) is
//! *stale*: the acquirer unlinks it and retries the exclusive create
//! exactly once — under a reclaim race, the second unlink loser hits
//! `AlreadyExists` on the retry and reports the winner's fresh lock.

use octo_common::{OctoError, Result};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// What the lock file records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockInfo {
    /// PID of the holding process.
    pub pid: u32,
    /// Wall-clock acquisition time, milliseconds since the Unix epoch
    /// (informational; liveness is decided by the PID, not the age).
    pub acquired_unix_ms: u64,
}

/// A held PID lock; releases (unlinks) on drop.
#[derive(Debug)]
pub struct PidLock {
    path: PathBuf,
}

/// Whether a PID refers to a live process. On Linux this is a `/proc`
/// probe; elsewhere liveness cannot be checked cheaply without FFI, so
/// locks are conservatively treated as live (never reclaimed).
pub fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl PidLock {
    /// Acquires the lock for the current process, reclaiming a stale one.
    pub fn acquire(path: &Path) -> Result<PidLock> {
        Self::acquire_as(path, std::process::id())
    }

    /// Acquires recording an explicit PID (tests use a known-dead PID to
    /// fabricate stale locks).
    pub fn acquire_as(path: &Path, pid: u32) -> Result<PidLock> {
        match Self::try_create(path, pid) {
            Ok(lock) => Ok(lock),
            Err(first) => {
                let holder = Self::read(path);
                if let Some(info) = holder {
                    if pid_alive(info.pid) {
                        return Err(OctoError::InvalidState(format!(
                            "another octoctl (pid {}) holds the lock {}",
                            info.pid,
                            path.display()
                        )));
                    }
                    // Stale: the holder is gone. Unlink and retry the
                    // exclusive create once; a concurrent reclaimer that
                    // wins the retry makes ours fail cleanly.
                    let _ = std::fs::remove_file(path);
                    return Self::try_create(path, pid).map_err(|_| {
                        OctoError::InvalidState(format!(
                            "lost the stale-lock reclaim race on {}",
                            path.display()
                        ))
                    });
                }
                // Unreadable/corrupt lock: same reclaim path — we cannot
                // name a live holder, and create_new arbitrates the race.
                let _ = std::fs::remove_file(path);
                Self::try_create(path, pid).map_err(|_| first)
            }
        }
    }

    /// The recorded holder of a lock file, if present and well-formed.
    pub fn read(path: &Path) -> Option<LockInfo> {
        let text = std::fs::read_to_string(path).ok()?;
        serde_json::from_str(&text).ok()
    }

    fn try_create(path: &Path, pid: u32) -> Result<PidLock> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| OctoError::InvalidState(format!("creating {}: {e}", dir.display())))?;
        }
        let mut f = std::fs::File::create_new(path).map_err(|e| {
            OctoError::InvalidState(format!("lock {} not acquired: {e}", path.display()))
        })?;
        let info = LockInfo {
            pid,
            acquired_unix_ms: unix_ms(),
        };
        let text = serde_json::to_string(&info)
            .map_err(|e| OctoError::InvalidState(format!("serializing lock info: {e}")))?;
        f.write_all(text.as_bytes())
            .and_then(|_| f.sync_all())
            .map_err(|e| {
                OctoError::InvalidState(format!("writing lock {}: {e}", path.display()))
            })?;
        Ok(PidLock {
            path: path.to_path_buf(),
        })
    }
}

impl Drop for PidLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TempTree;

    /// A lock path in a fresh directory, and the directory's guard.
    fn tmp_lock(tag: &str) -> (TempTree, PathBuf) {
        let d = TempTree::new(&format!("octo-lock-{tag}"));
        let path = d.join("octoctl.pid");
        (d, path)
    }

    /// A PID that is certainly dead: PID 1 is always alive on Linux, so
    /// probe downward from the max PID space for a free slot.
    fn dead_pid() -> u32 {
        (400_000..500_000u32)
            .rev()
            .find(|p| !pid_alive(*p))
            .expect("some free pid below 500000")
    }

    #[test]
    fn exclusive_while_holder_lives() {
        let (_dir, path) = tmp_lock("live");
        let lock = PidLock::acquire(&path).unwrap();
        let info = PidLock::read(&path).unwrap();
        assert_eq!(info.pid, std::process::id());
        let err = PidLock::acquire(&path).unwrap_err();
        assert_eq!(err.kind(), "invalid_state");
        drop(lock);
        assert!(!path.exists(), "released on drop");
        let _relock = PidLock::acquire(&path).unwrap();
    }

    #[test]
    fn stale_lock_is_reclaimed() {
        let (_dir, path) = tmp_lock("stale");
        let ghost = PidLock::acquire_as(&path, dead_pid()).unwrap();
        std::mem::forget(ghost); // simulate a crash: file stays, process gone
        let lock = PidLock::acquire(&path).unwrap();
        assert_eq!(PidLock::read(&path).unwrap().pid, std::process::id());
        drop(lock);
    }

    #[test]
    fn corrupt_lock_is_reclaimed() {
        let (_dir, path) = tmp_lock("corrupt");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "not json at all").unwrap();
        let _lock = PidLock::acquire(&path).unwrap();
        assert_eq!(PidLock::read(&path).unwrap().pid, std::process::id());
    }
}
