//! In-memory span recorder for the traced runs.
//!
//! The benchmark wraps each call it makes into the program in a span:
//! name, start, end and the enclosing span. Spans stay in memory until the
//! run ends; a disabled recorder runs the wrapped call and records nothing,
//! so untraced runs pay one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a span with no enclosing span.
const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording, or [`ROOT`].
    pub parent: u32,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder shared by reference between the workload loop and the
/// timing backend wrapper (single-threaded, hence `RefCell`).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied().unwrap_or(ROOT);
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            let idx = spans.len() - 1;
            spans[idx].start_ns = self.now_ns();
            idx
        };
        self.open.borrow_mut().push(idx as u32);
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "spans still open");
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// What one span name accumulated over a recording.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    /// Sum of span durations.
    pub busy_s: f64,
    /// Sum of durations minus the time direct children cover.
    pub self_s: f64,
}

/// Totals per span name. Spans nest strictly (one thread, stack order),
/// so the time a span's children cover is the sum of their durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_s[s.parent as usize] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_s) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_s += s.secs();
        t.self_s += s.secs() - children;
    }
    out
}

/// Writes spans as tab-separated `index parent name start_ns end_ns`
/// lines (`parent` is `-` for a root span).
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            writeln!(out, "{i}\t-\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        } else {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}",
                s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        let tot = totals(&spans);
        assert_eq!(tot["inner"].calls, 2);
        let outer = tot["outer"];
        assert!(outer.busy_s >= tot["inner"].busy_s);
        assert!(outer.self_s < outer.busy_s - 0.009);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.take().is_empty());
    }
}
