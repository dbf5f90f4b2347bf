//! The access-stats snapshot.
//!
//! One JSON file under the backend's state directory, `octostats.json`,
//! maps each backend-relative path to its read count and newest access
//! time. Entries are keyed in a `BTreeMap`, so the serialized form is
//! sorted and byte-stable. Reads recorded since the snapshot was written
//! live in the access log beside it (see `log.rs`); the backend rewrites
//! the snapshot only when it compacts that log. [`StatsSidecar::save`] is
//! durable: a crash mid-save leaves the previous snapshot whole, and a
//! returned save survives a power loss.
//!
//! [`StatsSidecar::load`] reads exactly the text `save` writes, with any
//! JSON whitespace between tokens, straight into the map through the JSON
//! shim's pull reader: one `String` per entry and no intermediate tree.
//! Any other text is a corrupt snapshot, reported with its byte offset.
//! The derived `Deserialize` stays as the reference the tests check that
//! reader against.

use octo_common::{OctoError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::os::unix::fs::MetadataExt;
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

/// Which version of the snapshot file was read. A compaction renames a new
/// file over the snapshot, which changes its inode and, in practice, its
/// length or modification time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapshotId {
    ino: u64,
    len: u64,
    mtime: (i64, i64),
}

impl SnapshotId {
    fn of_meta(m: &std::fs::Metadata) -> SnapshotId {
        SnapshotId {
            ino: m.ino(),
            len: m.len(),
            mtime: (m.mtime(), m.mtime_nsec()),
        }
    }

    /// The version of the snapshot at `path`; `None` when there is none.
    pub(crate) fn of(path: &Path) -> Result<Option<SnapshotId>> {
        match std::fs::metadata(path) {
            Ok(m) => Ok(Some(SnapshotId::of_meta(&m))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(read_err(path, e)),
        }
    }
}

fn read_err(path: &Path, e: std::io::Error) -> OctoError {
    OctoError::InvalidState(format!("reading stats sidecar {}: {e}", path.display()))
}

/// Reads `{"entries":[["<path>",{"reads":<u64>,"last_access_ms":<u64>}],…]}`,
/// the text [`StatsSidecar::save`] writes, allowing JSON whitespace between
/// tokens. As in the derived `Deserialize`, a path listed twice keeps its
/// last entry.
fn parse(bytes: &[u8]) -> std::result::Result<StatsSidecar, serde::Error> {
    let mut r = serde_json::Reader::new(bytes);
    r.expect(b'{')?;
    r.key("entries")?;
    r.expect(b'[')?;
    let mut entries = Vec::new();
    if !r.eat(b']') {
        loop {
            r.expect(b'[')?;
            let path = r.string()?;
            r.expect(b',')?;
            r.expect(b'{')?;
            r.key("reads")?;
            let reads = r.u64()?;
            r.expect(b',')?;
            r.key("last_access_ms")?;
            let last_access_ms = r.u64()?;
            r.expect(b'}')?;
            r.expect(b']')?;
            entries.push((
                path,
                SidecarEntry {
                    reads,
                    last_access_ms,
                },
            ));
            if !r.eat(b',') {
                break;
            }
        }
        r.expect(b']')?;
    }
    r.expect(b'}')?;
    r.end()?;
    // Sorted input, as `save` writes it, builds the map in one pass.
    Ok(StatsSidecar {
        entries: entries.into_iter().collect(),
    })
}

impl StatsSidecar {
    /// Loads a sidecar; a missing file is an empty sidecar.
    pub fn load(path: &Path) -> Result<StatsSidecar> {
        Ok(StatsSidecar::load_version(path)?.0)
    }

    /// Loads a sidecar and the version of the file it read; a missing file
    /// is an empty sidecar and no version.
    pub(crate) fn load_version(path: &Path) -> Result<(StatsSidecar, Option<SnapshotId>)> {
        let mut file = match std::fs::File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((StatsSidecar::default(), None))
            }
            Err(e) => return Err(read_err(path, e)),
        };
        let meta = file.metadata().map_err(|e| read_err(path, e))?;
        let mut bytes = Vec::with_capacity(usize::try_from(meta.len()).unwrap_or(0));
        file.read_to_end(&mut bytes)
            .map_err(|e| read_err(path, e))?;
        let stats = parse(&bytes).map_err(|e| {
            OctoError::InvalidState(format!("corrupt stats sidecar {}: {e}", path.display()))
        })?;
        Ok((stats, Some(SnapshotId::of_meta(&meta))))
    }

    /// Saves atomically and durably: write a dot-prefixed temp file and
    /// sync it, rename it over the target, then sync the directory so the
    /// rename itself survives a crash. The text streams out entry by entry
    /// (`StatsSidecar::write_json`); it is never held whole in memory.
    pub fn save(&self, path: &Path) -> Result<()> {
        let dir = path.parent().ok_or_else(|| {
            OctoError::InvalidArgument(format!("sidecar path {} has no parent", path.display()))
        })?;
        std::fs::create_dir_all(dir).map_err(|e| {
            OctoError::InvalidState(format!("creating state dir {}: {e}", dir.display()))
        })?;
        let tmp = dir.join(".octostats.tmp");
        let write = |f: std::fs::File| {
            let mut out = std::io::BufWriter::new(f);
            self.write_json(&mut out)?;
            out.into_inner().map_err(|e| e.into_error())?.sync_all()
        };
        std::fs::File::create(&tmp).and_then(write).map_err(|e| {
            OctoError::InvalidState(format!("writing stats sidecar {}: {e}", tmp.display()))
        })?;
        std::fs::rename(&tmp, path).map_err(|e| {
            OctoError::InvalidState(format!(
                "renaming stats sidecar into {}: {e}",
                path.display()
            ))
        })?;
        sync_dir(dir)
    }

    /// Writes exactly the bytes `serde_json::to_string(self)` makes, one
    /// entry at a time: `{"entries":[["path",{"reads":R,"last_access_ms":T}],...]}`,
    /// each path escaped by the shim's own string writer.
    fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(b"{\"entries\":[")?;
        let mut text = String::new();
        for (i, (path, e)) in self.entries.iter().enumerate() {
            text.clear();
            if i > 0 {
                text.push(',');
            }
            text.push('[');
            serde_json::write_json_string(&mut text, path);
            let (reads, last) = (e.reads, e.last_access_ms);
            let _ = write!(text, ",{{\"reads\":{reads},\"last_access_ms\":{last}}}]");
            out.write_all(text.as_bytes())?;
        }
        out.write_all(b"]}")
    }
}

/// The in-memory fold the backend ran before the access log, kept as the
/// reference that log replay is tested against.
#[cfg(test)]
impl StatsSidecar {
    /// Records one read of `path` at `now_ms` (monotone per entry).
    pub(crate) fn record_read(&mut self, path: &str, now_ms: u64) {
        let e = self.entries.entry(path.to_string()).or_default();
        e.reads += 1;
        e.last_access_ms = e.last_access_ms.max(now_ms);
    }

    /// The newest access across all entries: the backend's logical clock.
    pub(crate) fn clock_ms(&self) -> u64 {
        self.entries
            .values()
            .map(|e| e.last_access_ms)
            .max()
            .unwrap_or(0)
    }
}

/// Syncs a directory, making a create or rename inside it durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| OctoError::InvalidState(format!("syncing directory {}: {e}", dir.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TempTree;
    use octo_common::DetRng;
    use proptest::prelude::*;

    fn tmp_dir(tag: &str) -> TempTree {
        let d = TempTree::new(&format!("octo-sidecar-{tag}"));
        std::fs::create_dir_all(&*d).unwrap();
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
        let err = StatsSidecar::load(&path).unwrap_err().to_string();
        assert!(
            err.contains("corrupt stats sidecar") && err.contains("at offset 1"),
            "{err}"
        );
    }

    /// Paths a shell or a JSON writer trips over, one of each kind.
    const ADVERSARIAL: [&str; 10] = [
        "plain/a.dat",
        "q\"uote\".dat",
        "back\\slash",
        "new\nline\r",
        "tab\t\u{8}\u{c}",
        "ctl\u{1}\u{1f}\u{7f}",
        "données/π",
        "emoji 😀",
        "sep\u{2028}/x",
        "slash/",
    ];

    fn adversarial() -> StatsSidecar {
        let mut s = StatsSidecar::default();
        for (i, path) in ADVERSARIAL.into_iter().enumerate() {
            let i = i as u64;
            let last_access_ms = if i == 3 { u64::MAX } else { i * 1_000 };
            s.entries.insert(
                path.to_string(),
                SidecarEntry {
                    reads: i,
                    last_access_ms,
                },
            );
        }
        s
    }

    /// Reads `bytes` and checks the answer is the reference's, or an error
    /// that names its offset.
    fn check_against_reference(bytes: &[u8]) -> std::result::Result<StatsSidecar, String> {
        let reference = std::str::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<StatsSidecar>(text).map_err(|e| e.0));
        match parse(bytes) {
            Ok(read) => {
                assert_eq!(
                    Ok(&read),
                    reference.as_ref(),
                    "the reader accepted {:?}",
                    String::from_utf8_lossy(bytes)
                );
                Ok(read)
            }
            Err(e) => {
                assert!(e.0.contains(" at offset "), "{e}");
                Err(e.0)
            }
        }
    }

    #[test]
    fn save_writes_the_bytes_it_always_wrote() {
        let dir = tmp_dir("bytes");
        let path = dir.join("octostats.json");
        adversarial().save(&path).unwrap();
        let want = concat!(
            r#"{"entries":[["back\\slash",{"reads":2,"last_access_ms":2000}],"#,
            "[\"ctl\\u0001\\u001f\u{7f}\",{\"reads\":5,\"last_access_ms\":5000}],",
            r#"["données/π",{"reads":6,"last_access_ms":6000}],"#,
            r#"["emoji 😀",{"reads":7,"last_access_ms":7000}],"#,
            r#"["new\nline\r",{"reads":3,"last_access_ms":18446744073709551615}],"#,
            r#"["plain/a.dat",{"reads":0,"last_access_ms":0}],"#,
            r#"["q\"uote\".dat",{"reads":1,"last_access_ms":1000}],"#,
            "[\"sep\u{2028}/x\",{\"reads\":8,\"last_access_ms\":8000}],",
            r#"["slash/",{"reads":9,"last_access_ms":9000}],"#,
            r#"["tab\t\b\f",{"reads":4,"last_access_ms":4000}]]}"#,
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        assert_eq!(StatsSidecar::load(&path).unwrap(), adversarial());
    }

    #[test]
    fn every_truncation_and_byte_corruption_reads_as_the_reference_or_fails() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("octostats.json");
        let mut small = StatsSidecar::default();
        for path in ["q\"\\", "π\n", "😀"] {
            small.record_read(path, 42);
        }
        small.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(check_against_reference(&bytes), Ok(small));
        for cut in 0..bytes.len() {
            assert!(
                check_against_reference(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut accepted = 0;
        for at in 0..bytes.len() {
            for b in 0..=u8::MAX {
                let mut bad = bytes.clone();
                bad[at] = b;
                accepted += usize::from(check_against_reference(&bad).is_ok());
            }
        }
        // Whitespace, digits and string contents can change and still parse.
        assert!(accepted > bytes.len(), "{accepted}");
    }

    /// Characters the random paths draw from: JSON's escaped characters,
    /// control characters, and text of one to four UTF-8 bytes.
    const PALETTE: [char; 16] = [
        'a', 'Z', '/', ' ', '"', '\\', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', 'π', '日',
        '\u{2028}', '😀',
    ];

    /// Zero to two bytes of JSON whitespace.
    fn ws(rng: &mut DetRng, out: &mut String) {
        for _ in 0..rng.below(3) {
            out.push([' ', '\t', '\n', '\r'][rng.index(4)]);
        }
    }

    /// `s` as a JSON string, each character written raw, as its short
    /// escape or as a `\u` escape (a surrogate pair above the BMP), at
    /// random.
    fn json_string(s: &str, rng: &mut DetRng, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            let short = match c {
                '"' => Some('"'),
                '\\' => Some('\\'),
                '/' => Some('/'),
                '\n' => Some('n'),
                '\t' => Some('t'),
                _ => None,
            };
            let raw_ok = c != '"' && c != '\\';
            match (rng.below(3), short) {
                (0, Some(e)) => {
                    out.push('\\');
                    out.push(e);
                }
                (2, _) if raw_ok => out.push(c),
                _ => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        }
        out.push('"');
    }

    /// `entries` in the snapshot's shape, with whitespace between every two
    /// tokens and escapes drawn at random.
    fn spaced_text(entries: &[(String, SidecarEntry)], rng: &mut DetRng) -> String {
        let mut out = String::new();
        let token = |out: &mut String, rng: &mut DetRng, t: &str| {
            ws(rng, out);
            out.push_str(t);
        };
        for t in ["{", "\"entries\"", ":", "["] {
            token(&mut out, rng, t);
        }
        for (i, (path, e)) in entries.iter().enumerate() {
            if i > 0 {
                token(&mut out, rng, ",");
            }
            token(&mut out, rng, "[");
            ws(rng, &mut out);
            json_string(path, rng, &mut out);
            let (reads, last) = (e.reads.to_string(), e.last_access_ms.to_string());
            for t in [",", "{", "\"reads\"", ":", &reads, ","] {
                token(&mut out, rng, t);
            }
            for t in ["\"last_access_ms\"", ":", &last, "}", "]"] {
                token(&mut out, rng, t);
            }
        }
        for t in ["]", "}", ""] {
            token(&mut out, rng, t);
        }
        out
    }

    /// A path of 1 to 300 bytes drawn from [`PALETTE`].
    fn random_path(rng: &mut DetRng) -> String {
        let want = 1 + rng.index(300);
        let mut path = String::new();
        loop {
            let c = PALETTE[rng.index(PALETTE.len())];
            if path.len() + c.len_utf8() > want {
                break;
            }
            path.push(c);
        }
        if path.is_empty() {
            path.push('a');
        }
        path
    }

    fn random_u64(rng: &mut DetRng) -> u64 {
        match rng.below(4) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.below(u64::MAX),
        }
    }

    /// `n` random entries (fewer when paths repeat).
    fn random_sidecar(rng: &mut DetRng, n: usize) -> StatsSidecar {
        let mut sidecar = StatsSidecar::default();
        for _ in 0..n {
            let e = SidecarEntry {
                reads: random_u64(rng),
                last_access_ms: random_u64(rng),
            };
            sidecar.entries.insert(random_path(rng), e);
        }
        sidecar
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_snapshots_read_as_the_reference_does(seed in 0u64..u64::MAX, n in 0usize..301) {
            let mut rng = DetRng::seed_from_u64(seed);
            let sidecar = random_sidecar(&mut rng, n);
            let saved = serde_json::to_string(&sidecar).unwrap();
            prop_assert_eq!(check_against_reference(saved.as_bytes()), Ok(sidecar.clone()));

            // The same entries shuffled, a few listed twice, spaced and
            // escaped another way: the last of a path's entries counts.
            let mut entries: Vec<(String, SidecarEntry)> = sidecar.entries.into_iter().collect();
            for _ in 0..entries.len() / 16 {
                let (path, mut e) = entries[rng.index(entries.len())].clone();
                e.reads ^= 1;
                entries.insert(rng.index(entries.len() + 1), (path, e));
            }
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.index(i + 1));
            }
            let text = spaced_text(&entries, &mut rng);
            let want: BTreeMap<String, SidecarEntry> = entries.into_iter().collect();
            let read = check_against_reference(text.as_bytes());
            prop_assert_eq!(read, Ok(StatsSidecar { entries: want }));
        }

        #[test]
        fn random_snapshots_save_as_serde_json_does(seed in 0u64..u64::MAX, n in 0usize..301) {
            let sidecar = random_sidecar(&mut DetRng::seed_from_u64(seed), n);
            let mut streamed = Vec::new();
            sidecar.write_json(&mut streamed).unwrap();
            prop_assert_eq!(
                String::from_utf8(streamed).unwrap(),
                serde_json::to_string(&sidecar).unwrap()
            );
        }
    }
}
