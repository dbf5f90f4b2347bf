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
//! touches.
//!
//! [`AccessStats::refresh`] catches up with what other processes wrote: it
//! replays only the log bytes appended since it last read the log. It
//! stops before a trailing partial record, which may be an append still in
//! flight, so the next refresh reads that record whole. It reloads the
//! snapshot and replays the whole log instead when a compaction replaced
//! the snapshot (its inode, length or modification time changed) or
//! emptied the log: the log is shorter than what was read of it, or no
//! longer holds the last bytes read where they were. The second test
//! catches a log that a compaction emptied just after a refresh had loaded
//! its new snapshot and read the old log, and that grew back past the read
//! offset before the next refresh. It checks the snapshot both before and
//! after reading the log, so a compaction that lands in between is seen
//! too. Opening is a refresh from the empty state, so there is one replay
//! path, and it writes nothing. A backend that records and then refreshes
//! replays its own records again, which the max-merge makes harmless.
//!
//! The record that brings the log to as many records as the snapshot has
//! entries (and at least [`COMPACT_FLOOR`]) compacts: the in-memory stats
//! become the new snapshot through the durable [`StatsSidecar::save`], and
//! then the log is emptied. A crash between the two leaves records the new
//! snapshot already holds, which replay merges to the same stats. Appends
//! are not synced: a power loss can drop the newest records, never ones a
//! compaction has written.

use crate::fs::{fnv1a, io_err, FNV1A_EMPTY};
use crate::sidecar::{SidecarEntry, SnapshotId, StatsSidecar};
use octo_common::{OctoError, Result};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// File name of the access log, beside the snapshot.
const LOG_FILE: &str = "octostats.log";

/// The fewest log records that trigger a compaction, so a small snapshot
/// is not rewritten every few reads.
const COMPACT_FLOOR: usize = 1024;

/// How many of the last bytes read a refresh checks again: the checksum
/// that ends the last whole record read, unless skipped bytes follow it.
const MARK_LEN: usize = 8;

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte slice"))
}

/// The record of `path`'s entry `e`.
pub(crate) fn encode(path: &str, e: SidecarEntry) -> Result<Vec<u8>> {
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

/// What the bytes at some offset of the log hold.
enum Decoded<'a> {
    /// A whole, checksummed record: its path, entry and length in bytes.
    Record(&'a str, SidecarEntry, usize),
    /// Fewer bytes than a record needs, or than its length prefix
    /// announces: an append still in flight, or one a crash cut short.
    Partial,
    /// No record.
    Garbage,
}

/// What starts at the beginning of `bytes`.
fn decode(bytes: &[u8]) -> Decoded<'_> {
    let Some(prefix) = bytes.first_chunk::<4>() else {
        return Decoded::Partial;
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    // Length, path, reads and last access; the checksum follows.
    let body = len.saturating_add(20);
    let Some(rec) = bytes.get(..body.saturating_add(8)) else {
        return Decoded::Partial;
    };
    if fnv1a(FNV1A_EMPTY, &rec[..body]) != u64_at(rec, body) {
        return Decoded::Garbage;
    }
    let Ok(path) = std::str::from_utf8(&rec[4..4 + len]) else {
        return Decoded::Garbage;
    };
    let e = SidecarEntry {
        reads: u64_at(rec, 4 + len),
        last_access_ms: u64_at(rec, 12 + len),
    };
    Decoded::Record(path, e, rec.len())
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

/// Merges every record found in `log` into `stats` and the clock `clock_ms`,
/// skipping bytes that start none. Returns how many records it merged and
/// how many bytes of `log` need no second look: all of them, except from
/// the first offset after the last record at which a partial record
/// starts. Appended bytes can complete a record there, never before it.
fn replay(log: &[u8], stats: &mut StatsSidecar, clock_ms: &mut u64) -> (usize, usize) {
    let (mut at, mut merged, mut partial) = (0, 0, None);
    while at < log.len() {
        match decode(&log[at..]) {
            Decoded::Record(path, rec, len) => {
                merge(stats, path, rec);
                *clock_ms = (*clock_ms).max(rec.last_access_ms);
                at += len;
                merged += 1;
                partial = None;
            }
            Decoded::Partial => {
                partial.get_or_insert(at);
                at += 1;
            }
            Decoded::Garbage => at += 1,
        }
    }
    (merged, partial.unwrap_or(log.len()))
}

/// What one [`FsBackend::refresh`](crate::FsBackend::refresh) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refresh {
    /// Whether it reloaded the snapshot and replayed the whole log, because
    /// a compaction had replaced the snapshot or emptied the log, instead of
    /// replaying only the log's new tail.
    pub reloaded: bool,
    /// Log records it replayed.
    pub records: usize,
}

/// Access statistics in memory, persisted as a snapshot plus a log.
#[derive(Debug)]
pub(crate) struct AccessStats {
    stats: StatsSidecar,
    /// The newest access over all entries: the backend's logical clock.
    clock_ms: u64,
    snapshot_path: PathBuf,
    log_path: PathBuf,
    /// The version of the snapshot `stats` started from; `None` for no
    /// snapshot.
    snapshot: Option<SnapshotId>,
    /// Bytes at the start of the log that `stats` holds: where the next
    /// refresh starts reading.
    log_read: u64,
    /// The last bytes before `log_read` (up to [`MARK_LEN`]) as they were
    /// read, which the next refresh finds there again unless the log was
    /// emptied since.
    log_mark: Vec<u8>,
    /// Entries the snapshot held when it was loaded or last written.
    snapshot_entries: usize,
    /// Records in the log.
    log_records: usize,
    /// Opened by the first append, so that opening never creates the log.
    log: Option<std::fs::File>,
}

impl AccessStats {
    /// Loads the snapshot at `snapshot_path` and replays the log beside it:
    /// a refresh from the empty state. Writes nothing.
    pub(crate) fn open(snapshot_path: PathBuf) -> Result<AccessStats> {
        let mut stats = AccessStats {
            stats: StatsSidecar::default(),
            clock_ms: 0,
            log_path: snapshot_path.with_file_name(LOG_FILE),
            snapshot_path,
            snapshot: None,
            log_read: 0,
            log_mark: Vec::with_capacity(MARK_LEN),
            snapshot_entries: 0,
            log_records: 0,
            log: None,
        };
        stats.refresh(|| {})?;
        Ok(stats)
    }

    /// Catches up with the snapshot and the log on disk: replays the log
    /// bytes appended since the last read, or reloads in full when a
    /// compaction replaced the snapshot or emptied the log. `between` runs
    /// once, after the first check of the snapshot and before the log is
    /// read: the window in which a test compacts from another backend.
    /// Writes nothing.
    pub(crate) fn refresh(&mut self, between: impl FnOnce()) -> Result<Refresh> {
        let mut between = Some(between);
        let mut done = Refresh {
            reloaded: false,
            records: 0,
        };
        let mut reload = SnapshotId::of(&self.snapshot_path)? != self.snapshot;
        loop {
            if reload {
                self.reload()?;
                done = Refresh {
                    reloaded: true,
                    records: 0,
                };
            }
            if let Some(between) = between.take() {
                between();
            }
            // Each pass after the first follows a compaction by another
            // process, so this ends unless compactions keep landing within
            // one reload.
            let Some(records) = self.replay_tail()? else {
                reload = true;
                continue;
            };
            done.records += records;
            reload = SnapshotId::of(&self.snapshot_path)? != self.snapshot;
            if !reload {
                return Ok(done);
            }
        }
    }

    /// Replaces the in-memory stats with the snapshot on disk, to which
    /// the whole log is still to be replayed.
    fn reload(&mut self) -> Result<()> {
        let (stats, version) = StatsSidecar::load_version(&self.snapshot_path)?;
        self.clock_ms = stats
            .entries
            .values()
            .map(|e| e.last_access_ms)
            .max()
            .unwrap_or(0);
        self.snapshot_entries = stats.entries.len();
        self.stats = stats;
        self.snapshot = version;
        self.log_read = 0;
        self.log_mark.clear();
        self.log_records = 0;
        Ok(())
    }

    /// Replays the log from where the last read stopped, and returns how
    /// many records it merged; `None` when the log is shorter than that or
    /// holds other bytes just before it, as after a compaction emptied it.
    fn replay_tail(&mut self) -> Result<Option<usize>> {
        let err = |e| io_err("reading access log", &self.log_path, e);
        let mut log = match std::fs::File::open(&self.log_path) {
            Ok(log) => log,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((self.log_read == 0).then_some(0));
            }
            Err(e) => return Err(err(e)),
        };
        let len = log.metadata().map_err(err)?.len();
        if len < self.log_read {
            return Ok(None);
        }
        // Read from the start of the mark, which must come back unchanged.
        let mark = self.log_mark.len();
        let from = self.log_read - mark as u64;
        log.seek(SeekFrom::Start(from)).map_err(err)?;
        let mut bytes = Vec::with_capacity(usize::try_from(len - from).unwrap_or(0));
        log.read_to_end(&mut bytes).map_err(err)?;
        if bytes.get(..mark) != Some(&self.log_mark[..]) {
            return Ok(None);
        }
        let (merged, read) = replay(&bytes[mark..], &mut self.stats, &mut self.clock_ms);
        let end = mark + read;
        self.log_read += read as u64;
        self.log_mark.clear();
        self.log_mark
            .extend_from_slice(&bytes[end.saturating_sub(MARK_LEN)..end]);
        self.log_records += merged;
        Ok(Some(merged))
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
    pub(crate) fn compact(&mut self) -> Result<()> {
        self.compact_with(|| {})
    }

    /// [`compact`](Self::compact), running `between` after the new snapshot
    /// is in place and before the log is emptied: the window in which a test
    /// refreshes another backend.
    pub(crate) fn compact_with(&mut self, between: impl FnOnce()) -> Result<()> {
        self.stats.save(&self.snapshot_path)?;
        self.snapshot_entries = self.stats.entries.len();
        between();
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

    fn append(log_path: &std::path::Path, bytes: &[u8]) {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log_path)
            .unwrap()
            .write_all(bytes)
            .unwrap();
    }

    /// Asserts that `store` holds what a fresh open of its files does.
    fn assert_fresh(store: &AccessStats, what: &str) {
        let fresh = AccessStats::open(store.snapshot_path.clone()).unwrap();
        assert_eq!(store.stats(), fresh.stats(), "{what}");
        assert_eq!(store.clock_ms(), fresh.clock_ms(), "{what}");
    }

    #[test]
    fn a_refresh_replays_the_new_tail_and_waits_for_a_partial_record() {
        let dir = tmp_dir("tail");
        let snap_path = dir.join("octostats.json");
        let log_path = snap_path.with_file_name(LOG_FILE);
        let mut snap = StatsSidecar::default();
        snap.record_read(PATHS[0], 500);
        snap.save(&snap_path).unwrap();
        let mut writer = AccessStats::open(snap_path.clone()).unwrap();
        let mut reader = AccessStats::open(snap_path.clone()).unwrap();
        let tail = |records| Refresh {
            reloaded: false,
            records,
        };

        for (k, path) in PATHS.iter().take(3).enumerate() {
            writer.record(path, 1_000 + k as u64).unwrap();
        }
        assert_eq!(reader.refresh(|| {}).unwrap(), tail(3));
        assert_eq!(reader.stats(), writer.stats());
        assert_fresh(&reader, "after three records");
        assert_eq!(reader.refresh(|| {}).unwrap(), tail(0), "nothing new");

        // An append in flight, cut at every byte: the refresh merges nothing
        // and reads the record whole once its last byte lands.
        let rec = encode(
            PATHS[5],
            SidecarEntry {
                reads: 7,
                last_access_ms: 9_000,
            },
        )
        .unwrap();
        for cut in 1..rec.len() {
            append(&log_path, &rec[..cut]);
            assert_eq!(reader.refresh(|| {}).unwrap(), tail(0), "cut at {cut}");
            assert_fresh(&reader, "a partial record");
            append(&log_path, &rec[cut..]);
            assert_eq!(reader.refresh(|| {}).unwrap(), tail(1), "cut at {cut}");
            assert_eq!(reader.stats().entries[PATHS[5]].reads, 7);
            assert_eq!(reader.clock_ms(), 9_000);
            assert_fresh(&reader, "a completed record");
        }

        // A record a crash cut short, then more appends: the refresh skips
        // the torn bytes and reads the records after them.
        append(&log_path, &rec[..rec.len() / 2]);
        assert_eq!(reader.refresh(|| {}).unwrap(), tail(0));
        writer.record(PATHS[1], 12_000).unwrap();
        writer.record(PATHS[2], 13_000).unwrap();
        assert_eq!(reader.refresh(|| {}).unwrap(), tail(2));
        assert_fresh(&reader, "after a torn record");
        assert_eq!(reader.clock_ms(), 13_000);
    }

    #[test]
    fn a_refresh_reloads_after_a_compaction_even_one_that_lands_mid_refresh() {
        let dir = tmp_dir("reload");
        let snap_path = dir.join("octostats.json");
        let log_path = snap_path.with_file_name(LOG_FILE);
        let mut writer = AccessStats::open(snap_path.clone()).unwrap();
        let mut reader = AccessStats::open(snap_path.clone()).unwrap();
        let mut at = 1_000;
        let mut record = |writer: &mut AccessStats, n: usize| {
            for k in 0..n {
                writer.record(PATHS[k % PATHS.len()], at).unwrap();
                at += 100;
            }
        };

        // Compactions between refreshes, with more records after them than
        // the reader had read before.
        record(&mut writer, 3);
        reader.refresh(|| {}).unwrap();
        record(&mut writer, 2);
        writer.compact().unwrap();
        record(&mut writer, 5);
        let done = reader.refresh(|| {}).unwrap();
        assert_eq!((done.reloaded, done.records), (true, 5));
        assert_eq!(reader.stats(), writer.stats());
        assert_fresh(&reader, "after a compaction");

        // The same, landing after the reader first checked the snapshot.
        record(&mut writer, 4);
        let done = reader
            .refresh(|| {
                record(&mut writer, 2);
                writer.compact().unwrap();
                record(&mut writer, 6);
            })
            .unwrap();
        assert_eq!((done.reloaded, done.records), (true, 6));
        assert_eq!(reader.stats(), writer.stats());
        assert_fresh(&reader, "after a compaction mid-refresh");

        // A log emptied under the reader, with the snapshot unchanged.
        std::fs::write(&log_path, b"").unwrap();
        assert!(reader.refresh(|| {}).unwrap().reloaded);
        assert_fresh(&reader, "after the log was emptied");
    }

    #[test]
    fn a_refresh_reloads_when_the_log_was_emptied_and_grew_back_past_it() {
        let dir = tmp_dir("regrow");
        let snap_path = dir.join("octostats.json");
        let log_path = snap_path.with_file_name(LOG_FILE);
        let mut writer = AccessStats::open(snap_path.clone()).unwrap();
        let mut reader = AccessStats::open(snap_path.clone()).unwrap();
        for (k, path) in PATHS.iter().take(4).enumerate() {
            writer.record(path, 1_000 + k as u64).unwrap();
        }
        let old_len = std::fs::metadata(&log_path).unwrap().len();

        // The reader refreshes after the compaction saved the new snapshot
        // and before it emptied the log: it loads the new snapshot and reads
        // the whole old log.
        writer
            .compact_with(|| {
                let done = reader.refresh(|| {}).unwrap();
                assert_eq!((done.reloaded, done.records), (true, 4));
            })
            .unwrap();
        assert_fresh(&reader, "after the compaction");

        // The log grows back past the reader's offset before its next
        // refresh, with records of other lengths than before.
        let mut k = 0;
        while std::fs::metadata(&log_path).unwrap().len() <= old_len {
            writer.record(PATHS[5 - k % 2], 5_000 + k as u64).unwrap();
            k += 1;
        }
        let done = reader.refresh(|| {}).unwrap();
        assert_eq!((done.reloaded, done.records), (true, k));
        assert_eq!(reader.stats(), writer.stats());
        assert_fresh(&reader, "after the log grew back");
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
