//! Library half of the `octoctl` serving front end (ROADMAP item 2).
//!
//! The binary (`src/main.rs`) is a thin argument parser over these
//! modules, which integration tests also exercise directly:
//!
//! * [`config`] — the flat JSON configuration file (`octoctl init`).
//! * [`lock`] — the daemon's `O_EXCL` PID lock with stale-PID reclaim.
//! * [`signals`] — SIGTERM/SIGINT to a shared [`AtomicBool`] shutdown
//!   flag, via the C `signal(2)` symbol (no external crate).
//! * [`exec`] — copy → verify → delete plan execution with cooperative
//!   cancellation; the crash-safety ordering is documented there.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

pub mod config;
pub mod exec;
pub mod lock;
pub mod signals;
#[cfg(test)]
mod testdir;

pub use config::OctoctlConfig;
pub use exec::{execute_plan, tier_by_label, ExecReport, MoveOutcome};
pub use lock::{LockInfo, PidLock};
