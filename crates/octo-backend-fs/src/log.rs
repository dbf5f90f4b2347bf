//! The access log: one appended record per recorded read.
//!
//! [`AccessStats`] keeps every path's statistics and the logical clock in
//! memory. Recording a read updates its entry and appends one record to
//! `octostats.log` beside the `octostats.json` snapshot, so its cost does
//! not grow with the number of entries. A record is
//!
//! ```text
//! path_len: u32 LE | path: path_len bytes | reads: u64 LE
//!     | last_access_ms: u64 LE | FNV-1a of all the preceding bytes: u64 LE
//! ```
//!
//! It carries the entry's new absolute values, not an increment, so replay
//! merges records into the snapshot field by field with `max`: replaying a
//! record twice, in any order, or over a snapshot that already holds it
//! gives the same stats. A byte that starts no whole, checksummed record is
//! skipped, so a torn tail or a flipped byte loses only the records it
//! touches. Opening replays without writing anything.
//!
//! The record that brings the log to as many records as the snapshot has
//! entries (and at least [`COMPACT_FLOOR`]) compacts: the in-memory stats
//! become the new snapshot through the durable [`StatsSidecar::save`], and
//! then the log is emptied. A crash between the two leaves records the new
//! snapshot already holds, which replay merges to the same stats. Appends
//! are not synced: a power loss can drop the newest records, never ones a
//! compaction has written.

use crate::fs::{fnv1a, io_err, FNV1A_EMPTY};
use crate::sidecar::{SidecarEntry, StatsSidecar};
use octo_common::{OctoError, Result};
use std::io::Write;
use std::path::PathBuf;

/// File name of the access log, beside the snapshot.
const LOG_FILE: &str = "octostats.log";

/// The fewest log records that trigger a compaction, so a small snapshot
/// is not rewritten every few reads.
const COMPACT_FLOOR: usize = 1024;

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte slice"))
}

/// The record of `path`'s entry `e`.
fn encode(path: &str, e: SidecarEntry) -> Result<Vec<u8>> {
    let len = u32::try_from(path.len())
        .map_err(|_| OctoError::InvalidArgument(format!("path of {} bytes", path.len())))?;
    let mut rec = Vec::with_capacity(path.len() + 28);
    rec.extend_from_slice(&len.to_le_bytes());
    rec.extend_from_slice(path.as_bytes());
    rec.extend_from_slice(&e.reads.to_le_bytes());
    rec.extend_from_slice(&e.last_access_ms.to_le_bytes());
    let check = fnv1a(FNV1A_EMPTY, &rec);
    rec.extend_from_slice(&check.to_le_bytes());
    Ok(rec)
}

/// The whole, checksummed record at the start of `bytes`, if there is
/// one: its path, entry and length in bytes.
fn decode(bytes: &[u8]) -> Option<(&str, SidecarEntry, usize)> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    // Length, path, reads and last access; the checksum follows.
    let body = len.checked_add(20)?;
    let rec = bytes.get(..body.checked_add(8)?)?;
    if fnv1a(FNV1A_EMPTY, &rec[..body]) != u64_at(rec, body) {
        return None;
    }
    let path = std::str::from_utf8(&rec[4..4 + len]).ok()?;
    let e = SidecarEntry {
        reads: u64_at(rec, 4 + len),
        last_access_ms: u64_at(rec, 12 + len),
    };
    Some((path, e, rec.len()))
}

/// Merges `rec` into `path`'s entry field by field with `max`.
fn merge(stats: &mut StatsSidecar, path: &str, rec: SidecarEntry) {
    match stats.entries.get_mut(path) {
        Some(e) => {
            e.reads = e.reads.max(rec.reads);
            e.last_access_ms = e.last_access_ms.max(rec.last_access_ms);
        }
        None => {
            stats.entries.insert(path.to_string(), rec);
        }
    }
}

/// Merges every record found in `log` into `stats`, skipping bytes that
/// start none, and returns how many it merged.
fn replay(log: &[u8], stats: &mut StatsSidecar) -> usize {
    let (mut at, mut merged) = (0, 0);
    while at < log.len() {
        let Some((path, rec, len)) = decode(&log[at..]) else {
            at += 1;
            continue;
        };
        merge(stats, path, rec);
        at += len;
        merged += 1;
    }
    merged
}

/// Access statistics in memory, persisted as a snapshot plus a log.
#[derive(Debug)]
pub(crate) struct AccessStats {
    stats: StatsSidecar,
    /// The newest access over all entries: the backend's logical clock.
    clock_ms: u64,
    snapshot_path: PathBuf,
    log_path: PathBuf,
    /// Entries the snapshot held when it was loaded or last written.
    snapshot_entries: usize,
    /// Records in the log.
    log_records: usize,
    /// Opened by the first append, so that opening never creates the log.
    log: Option<std::fs::File>,
}

impl AccessStats {
    /// Loads the snapshot at `snapshot_path` and replays the log beside it.
    /// Writes nothing.
    pub(crate) fn open(snapshot_path: PathBuf) -> Result<AccessStats> {
        let log_path = snapshot_path.with_file_name(LOG_FILE);
        let mut stats = StatsSidecar::load(&snapshot_path)?;
        let snapshot_entries = stats.entries.len();
        let log_records = match std::fs::read(&log_path) {
            Ok(bytes) => replay(&bytes, &mut stats),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(io_err("reading access log", &log_path, e)),
        };
        let clock_ms = stats.entries.values().map(|e| e.last_access_ms).max();
        Ok(AccessStats {
            stats,
            clock_ms: clock_ms.unwrap_or(0),
            snapshot_path,
            log_path,
            snapshot_entries,
            log_records,
            log: None,
        })
    }

    /// Every path's statistics.
    pub(crate) fn stats(&self) -> &StatsSidecar {
        &self.stats
    }

    /// The newest recorded access, in milliseconds.
    pub(crate) fn clock_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Records one read of `path` at `now_ms`: appends the entry's new
    /// values to the log, then updates memory; compacts when due.
    pub(crate) fn record(&mut self, path: &str, now_ms: u64) -> Result<()> {
        let old = self.stats.entries.get(path).copied().unwrap_or_default();
        let new = SidecarEntry {
            reads: old.reads.saturating_add(1),
            last_access_ms: old.last_access_ms.max(now_ms),
        };
        let rec = encode(path, new)?;
        let log = match &mut self.log {
            Some(log) => log,
            None => self.log.insert(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.log_path)
                    .map_err(|e| io_err("opening access log", &self.log_path, e))?,
            ),
        };
        log.write_all(&rec)
            .map_err(|e| io_err("appending to access log", &self.log_path, e))?;
        merge(&mut self.stats, path, new);
        self.clock_ms = self.clock_ms.max(now_ms);
        self.log_records += 1;
        if self.log_records >= self.snapshot_entries.max(COMPACT_FLOOR) {
            self.compact()?;
        }
        Ok(())
    }

    /// Writes the in-memory stats as the new snapshot, then empties the
    /// log.
    fn compact(&mut self) -> Result<()> {
        self.stats.save(&self.snapshot_path)?;
        self.snapshot_entries = self.stats.entries.len();
        match std::fs::OpenOptions::new().write(true).open(&self.log_path) {
            Ok(log) => log
                .set_len(0)
                .map_err(|e| io_err("emptying access log", &self.log_path, e))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("opening access log", &self.log_path, e)),
        }
        self.log_records = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TempTree;
    use proptest::prelude::*;

    const PATHS: [&str; 6] = [
        "plain/a.dat",
        "q\"uote\".dat",
        "sp ace/b c.dat",
        "new\nline.dat",
        "données/π.bin",
        "emoji 😀.dat",
    ];

    fn tmp_dir(tag: &str) -> TempTree {
        let d = TempTree::new(&format!("octo-accesslog-{tag}"));
        std::fs::create_dir_all(&*d).unwrap();
        d
    }

    /// `base` with every record max-merged in, computed without the log
    /// decoder.
    fn merged(base: &StatsSidecar, records: &[(String, SidecarEntry)]) -> StatsSidecar {
        let mut s = base.clone();
        for (path, r) in records {
            let e = s.entries.entry(path.clone()).or_default();
            e.reads = e.reads.max(r.reads);
            e.last_access_ms = e.last_access_ms.max(r.last_access_ms);
        }
        s
    }

    #[test]
    fn torn_or_flipped_bytes_lose_only_their_records() {
        let dir = tmp_dir("torn");
        let snap_path = dir.join("octostats.json");
        let log_path = snap_path.with_file_name(LOG_FILE);
        let mut snap = StatsSidecar::default();
        snap.record_read(PATHS[0], 500);
        snap.record_read(PATHS[4], 900);
        snap.save(&snap_path).unwrap();

        let mut store = AccessStats::open(snap_path.clone()).unwrap();
        let (mut records, mut ends, mut end) = (Vec::new(), Vec::new(), 0);
        for k in 0..12u64 {
            let path = PATHS[(k * 5 % 6) as usize];
            store.record(path, 1_000 + (k * 37 % 11) * 100).unwrap();
            records.push((path.to_string(), store.stats().entries[path]));
            end += 28 + path.len();
            ends.push(end);
        }
        let log = std::fs::read(&log_path).unwrap();
        assert_eq!(log.len(), end, "one fixed-layout record per read");
        assert_eq!(store.stats(), &merged(&snap, &records));

        let reopen = |bytes: &[u8]| {
            std::fs::write(&log_path, bytes).unwrap();
            AccessStats::open(snap_path.clone()).unwrap()
        };
        for cut in 0..=log.len() {
            let whole = ends.iter().take_while(|&&e| e <= cut).count();
            let want = merged(&snap, &records[..whole]);
            let back = reopen(&log[..cut]);
            assert_eq!(back.stats(), &want, "cut at {cut}");
            assert_eq!(back.clock_ms(), want.clock_ms(), "cut at {cut}");
        }
        for at in 0..log.len() {
            let mut bad = log.clone();
            bad[at] ^= 0x41;
            let mut kept = records.clone();
            kept.remove(ends.iter().position(|&e| at < e).unwrap());
            assert_eq!(reopen(&bad).stats(), &merged(&snap, &kept), "flip at {at}");
        }

        // A record appended after a torn tail reads back, and so does
        // every whole record before the tear.
        let mut store = reopen(&log[..ends[6] + 5]);
        store.record(PATHS[3], 5_000).unwrap();
        let mut want = records[..7].to_vec();
        want.push((PATHS[3].to_string(), store.stats().entries[PATHS[3]]));
        let back = AccessStats::open(snap_path).unwrap();
        assert_eq!(back.stats(), &merged(&snap, &want));
        assert_eq!(back.stats(), store.stats());
    }

    #[test]
    fn compaction_waits_for_the_snapshot_size_and_survives_its_old_log() {
        let dir = tmp_dir("compact");
        let snap_path = dir.join("octostats.json");
        let log_path = snap_path.with_file_name(LOG_FILE);
        // A snapshot larger than the floor sets the threshold itself.
        let n = COMPACT_FLOOR + 300;
        let mut snap = StatsSidecar::default();
        for i in 0..n {
            snap.record_read(&format!("inherited/{i}"), i as u64);
        }
        snap.save(&snap_path).unwrap();

        let mut store = AccessStats::open(snap_path.clone()).unwrap();
        let mut pre_compaction = Vec::new();
        for k in 0..n {
            if k + 1 == n {
                pre_compaction = std::fs::read(&log_path).unwrap();
            }
            store
                .record(PATHS[k % PATHS.len()], 10_000 + k as u64)
                .unwrap();
            let len = std::fs::metadata(&log_path).unwrap().len();
            assert_eq!(len == 0, k + 1 == n, "record {k}: log of {len} bytes");
        }
        assert_eq!(&StatsSidecar::load(&snap_path).unwrap(), store.stats());

        // A crash after the snapshot was written but before the log was
        // emptied: replaying the old records changes nothing.
        std::fs::write(&log_path, &pre_compaction).unwrap();
        let back = AccessStats::open(snap_path).unwrap();
        assert_eq!(back.stats(), store.stats());
        assert_eq!(back.clock_ms(), store.clock_ms());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn record_reopen_compact_streams_match_the_reference_fold(
            inherited in 0usize..4,
            ops in proptest::collection::vec((0u8..12, 0usize..6, 0u64..2_000), 1..120),
        ) {
            let dir = tmp_dir("stream");
            let snap_path = dir.join("octostats.json");
            let mut reference = StatsSidecar::default();
            for (i, path) in PATHS.iter().take(inherited).enumerate() {
                reference.record_read(path, 100 * i as u64);
            }
            reference.save(&snap_path).unwrap();
            let mut store = AccessStats::open(snap_path.clone()).unwrap();
            for (op, path, at) in ops {
                match op {
                    0 => store = AccessStats::open(snap_path.clone()).unwrap(),
                    1 => store.compact().unwrap(),
                    _ => {
                        store.record(PATHS[path], at).unwrap();
                        reference.record_read(PATHS[path], at);
                    }
                }
                prop_assert_eq!(store.stats(), &reference);
                prop_assert_eq!(store.clock_ms(), reference.clock_ms());
            }
            let back = AccessStats::open(snap_path).unwrap();
            prop_assert_eq!(back.stats(), &reference);
        }
    }
}
