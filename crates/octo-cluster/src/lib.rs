//! Compute-cluster simulation over the tiered DFS.
//!
//! This crate is the paper's "12-node cluster": a deterministic
//! discrete-event simulator that replays synthetic workloads against
//! [`octo_dfs::TieredDfs`] under one of the four evaluation [`scenario`]s
//! (HDFS / HDFS+Cache / OctopusFS / Octopus++), with MapReduce-style slot
//! scheduling, bandwidth-accurate I/O through the `octo-simkit` flow model,
//! and the policy engine wired to the access stream.
//!
//! Three drivers exist:
//!
//! * [`sim::ClusterSim`] — job workloads (everything in §7.2–§7.5),
//!   usually through the [`run_trace`] convenience wrapper;
//! * [`sim::run_event_trace`] — the same simulator fed from an event-level
//!   access trace (`octo_workload::EventTrace`), compiled to a job stream
//!   first; explicit input deletions in the trace are honoured mid-run;
//! * [`dfsio::run_dfsio`] — the DFSIO write/read throughput study (§3.1,
//!   Figure 2).

pub mod dfsio;
pub mod resources;
pub mod runstats;
pub mod scenario;
pub mod sim;

pub use dfsio::{run_dfsio, DfsioConfig, DfsioReport};
pub use resources::ResourceMap;
pub use runstats::{FaultSummary, JobResult, RunReport, TaskStat};
pub use scenario::Scenario;
pub use sim::{run_event_trace, run_trace, ClusterSim, SimConfig, MONITOR_INTERVAL};
