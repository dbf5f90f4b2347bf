//! The persistent access-stats sidecar.
//!
//! One JSON file under the backend's state directory maps each
//! backend-relative path to its recorded read count and newest access
//! time. Entries are keyed in a `BTreeMap`, so the serialized form is
//! sorted and byte-stable, and saves go through a temp-file rename so a
//! crash mid-save never truncates the stats.

use octo_common::{OctoError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Recorded access statistics of one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SidecarEntry {
    /// Total recorded read accesses.
    pub reads: u64,
    /// Newest recorded access, in milliseconds of the backend's logical
    /// clock (commonly wall-clock milliseconds at record time; only the
    /// relative order matters for planning).
    pub last_access_ms: u64,
}

/// The whole sidecar: path → statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSidecar {
    /// Per-path statistics, sorted by path.
    pub entries: BTreeMap<String, SidecarEntry>,
}

impl StatsSidecar {
    /// Loads a sidecar; a missing file is an empty sidecar.
    pub fn load(path: &Path) -> Result<StatsSidecar> {
        match std::fs::read_to_string(path) {
            Ok(text) => serde_json::from_str(&text).map_err(|e| {
                OctoError::InvalidState(format!("corrupt stats sidecar {}: {e}", path.display()))
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(StatsSidecar::default()),
            Err(e) => Err(OctoError::InvalidState(format!(
                "reading stats sidecar {}: {e}",
                path.display()
            ))),
        }
    }

    /// Saves atomically: write a dot-prefixed temp file, then rename over
    /// the target.
    pub fn save(&self, path: &Path) -> Result<()> {
        let text = serde_json::to_string(self)
            .map_err(|e| OctoError::InvalidState(format!("serializing stats sidecar: {e}")))?;
        let dir = path.parent().ok_or_else(|| {
            OctoError::InvalidArgument(format!("sidecar path {} has no parent", path.display()))
        })?;
        std::fs::create_dir_all(dir).map_err(|e| {
            OctoError::InvalidState(format!("creating state dir {}: {e}", dir.display()))
        })?;
        let tmp = dir.join(".octostats.tmp");
        std::fs::write(&tmp, text).map_err(|e| {
            OctoError::InvalidState(format!("writing stats sidecar {}: {e}", tmp.display()))
        })?;
        std::fs::rename(&tmp, path).map_err(|e| {
            OctoError::InvalidState(format!(
                "renaming stats sidecar into {}: {e}",
                path.display()
            ))
        })
    }

    /// Records one read of `path` at `now_ms` (monotone per entry).
    pub fn record_read(&mut self, path: &str, now_ms: u64) {
        let e = self.entries.entry(path.to_string()).or_default();
        e.reads += 1;
        e.last_access_ms = e.last_access_ms.max(now_ms);
    }

    /// The newest access across all entries: the backend's logical clock.
    pub fn clock_ms(&self) -> u64 {
        self.entries
            .values()
            .map(|e| e.last_access_ms)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("octo-sidecar-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trips_and_sorts() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("octostats.json");
        let mut s = StatsSidecar::default();
        s.record_read("b.dat", 200);
        s.record_read("a.dat", 100);
        s.record_read("a.dat", 50); // older access never rewinds the clock
        s.save(&path).unwrap();
        let back = StatsSidecar::load(&path).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.entries["a.dat"].reads, 2);
        assert_eq!(back.entries["a.dat"].last_access_ms, 100);
        assert_eq!(back.clock_ms(), 200);
        // Deterministic bytes: saving the same stats twice is identical,
        // and keys serialize in sorted order.
        let first = std::fs::read(&path).unwrap();
        s.save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        let text = String::from_utf8(first).unwrap();
        assert!(text.find("a.dat").unwrap() < text.find("b.dat").unwrap());
    }

    #[test]
    fn large_sidecar_round_trips() {
        let dir = tmp_dir("large");
        let path = dir.join("octostats.json");
        let mut s = StatsSidecar::default();
        for i in 0..4000u64 {
            let name = match i % 4 {
                0 => format!("d{}/file-{i}.dat", i % 37),
                1 => format!("données/π-{i}.bin"),
                2 => format!("q\"uote\\d-{i}"),
                _ => format!("emoji-😀-{i}"),
            };
            for _ in 0..=i % 3 {
                s.record_read(&name, 1_000 + i * 7);
            }
        }
        s.save(&path).unwrap();
        let back = StatsSidecar::load(&path).unwrap();
        assert_eq!(back.entries.len(), 4000);
        assert_eq!(back, s);
        assert_eq!(back.clock_ms(), 1_000 + 3999 * 7);
    }

    #[test]
    fn missing_file_is_empty_and_corrupt_is_an_error() {
        let dir = tmp_dir("missing");
        let path = dir.join("octostats.json");
        assert_eq!(StatsSidecar::load(&path).unwrap(), StatsSidecar::default());
        std::fs::write(&path, "{not json").unwrap();
        assert!(StatsSidecar::load(&path).is_err());
    }
}
