//! Workload synthesis and trace replay (paper §7.1).
//!
//! Everything the cluster simulator executes starts here, as one of two
//! artifacts:
//!
//! * a job-level [`Trace`] — datasets ([`FileSpec`]) plus whole-file
//!   MapReduce jobs ([`JobSpec`]) sorted by submission time — produced by
//!   the SWIM-style statistical [`generator`]. The paper evaluates on
//!   workloads replayed from Facebook and CMU OpenCloud production traces;
//!   those are not freely available, so the generator regenerates their
//!   *published statistics* (Table 3's job-size mix, Figure 5's skewed
//!   popularity and re-access structure, the cold-file fraction) as a
//!   deterministic, seedable trace.
//! * an event-level [`EventTrace`] — raw `open`/`read`/`write`/`delete`
//!   records with timestamps, sizes and client ids, in the spirit of HDFS
//!   audit logs. These round-trip through JSONL and CSV ([`events`]), can
//!   be manufactured with controlled temporal/popularity structure by the
//!   [`synth`] generators (diurnal, bursty, heavy-tailed), and compile
//!   down to a job-level [`Trace`] via [`EventTrace::compile`].
//!
//! The crate also owns the [`faults`] module: replayable node-crash /
//! recovery / disk-loss schedules ([`FaultSchedule`]) the simulator
//! injects alongside either workload form.
//!
//! Every stochastic draw in this crate comes from a seeded
//! [`octo_common::DetRng`], so a `(config, seed)` pair pins any generated
//! artifact byte-for-byte — the property the scenario-matrix harness in
//! `octo-experiments` builds its reproducibility guarantees on.

pub mod bins;
pub mod events;
pub mod faults;
pub mod generator;
pub mod synth;
pub mod trace;

pub use bins::SizeBin;
pub use events::{EventTrace, TraceError, TraceEvent, TraceOp};
pub use faults::{FaultConfig, FaultEvent, FaultKind, FaultSchedule};
pub use generator::{generate, WorkloadConfig};
pub use synth::{synthesize, synthesize_mix, AccessPattern, MixConfig, SynthConfig};
pub use trace::{DeleteSpec, FileSpec, JobSpec, Trace, TraceKind};
