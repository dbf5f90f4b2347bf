//! A [`StorageBackend`] wrapper that records one span per trait call.
//!
//! It sits between `plan_moves`/`execute_plan` and the real backend, so the
//! planner's and executor's self time is their span minus these children.
//! When tracing, it also counts, from the process's `/proc/self/io`
//! totals, the bytes each call read and wrote: that is how the sidecar
//! rewrite per recorded read and the bytes hashed per verified byte are
//! measured without looking inside the backend.

use crate::spans::Tracer;
use octo_common::{ByteSize, Result, SimTime, StorageTier};
use octo_dfs::backend::{FileRecord, StorageBackend, TierStatus};
use std::cell::Cell;

/// Bytes the process has read and written through syscalls so far
/// (`rchar`, `wchar`), or zeros where procfs is missing. The values are
/// taken before this call's own read of the file, which adds the returned
/// text length to `rchar`; that length is the third value.
fn io_totals() -> (u64, u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("rchar:"), field("wchar:"), text.len() as u64)
}

/// Runs `call` in a span and, when tracing, also returns the bytes the
/// process read and wrote during it.
fn io_span<R>(tracer: &Tracer, name: &'static str, call: impl FnOnce() -> R) -> (R, u64, u64) {
    if !tracer.enabled() {
        return (call(), 0, 0);
    }
    let (r0, w0, own_read) = io_totals();
    let out = tracer.span(name, call);
    let (r1, w1, _) = io_totals();
    (out, r1 - r0 - own_read, w1 - w0)
}

/// Byte and item counts gathered while tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendCounts {
    /// Files returned by `list_files`, summed over calls.
    pub files_listed: u64,
    /// Payload bytes `copy_file` reported copying.
    pub bytes_copied: u64,
    /// Bytes verified (the length `verify_copy` reports).
    pub bytes_verified: u64,
    /// Bytes the process read during `verify_copy` calls.
    pub verify_bytes_read: u64,
    /// Bytes the process wrote during `record_read` calls.
    pub record_bytes_written: u64,
}

pub struct TimedBackend<'t, B> {
    inner: B,
    tracer: &'t Tracer,
    counts: Cell<BackendCounts>,
}

impl<'t, B: StorageBackend> TimedBackend<'t, B> {
    pub fn new(inner: B, tracer: &'t Tracer) -> Self {
        TimedBackend {
            inner,
            tracer,
            counts: Cell::new(BackendCounts::default()),
        }
    }

    pub fn counts(&self) -> BackendCounts {
        self.counts.get()
    }

    fn count(&self, f: impl FnOnce(&mut BackendCounts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }
}

impl<B: StorageBackend> StorageBackend for TimedBackend<'_, B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn clock(&self) -> SimTime {
        self.tracer.span("backend_fs.clock", || self.inner.clock())
    }

    fn list_files(&self) -> Result<Vec<FileRecord>> {
        let files = self
            .tracer
            .span("backend_fs.list_files", || self.inner.list_files());
        if let Ok(f) = &files {
            let n = f.len() as u64;
            self.count(|c| c.files_listed += n);
        }
        files
    }

    fn tier_status(&self, tier: StorageTier) -> Result<TierStatus> {
        self.tracer
            .span("backend_fs.tier_status", || self.inner.tier_status(tier))
    }

    fn copy_file(&mut self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize> {
        let inner = &mut self.inner;
        let copied = self
            .tracer
            .span("backend_fs.copy_file", || inner.copy_file(path, from, to));
        if let Ok(b) = &copied {
            let n = b.as_bytes();
            self.count(|c| c.bytes_copied += n);
        }
        copied
    }

    fn verify_copy(&self, path: &str, from: StorageTier, to: StorageTier) -> Result<ByteSize> {
        let (verified, read, _) = io_span(self.tracer, "backend_fs.verify_copy", || {
            self.inner.verify_copy(path, from, to)
        });
        if let Ok(b) = &verified {
            let n = b.as_bytes();
            self.count(|c| {
                c.bytes_verified += n;
                c.verify_bytes_read += read;
            });
        }
        verified
    }

    fn delete_replica(&mut self, path: &str, tier: StorageTier) -> Result<()> {
        let inner = &mut self.inner;
        self.tracer.span("backend_fs.delete_replica", || {
            inner.delete_replica(path, tier)
        })
    }

    fn record_read(&mut self, path: &str, now: SimTime) -> Result<()> {
        let inner = &mut self.inner;
        let (out, _, written) = io_span(self.tracer, "backend_fs.record_read", || {
            inner.record_read(path, now)
        });
        self.count(|c| c.record_bytes_written += written);
        out
    }
}
