//! Deterministic discrete-event simulation kit.
//!
//! Two building blocks power the cluster simulator:
//!
//! * [`queue::EventQueue`] — a time-ordered event heap with deterministic
//!   FIFO tie-breaking, so two runs with the same inputs replay identically.
//! * [`flow::FlowModel`] — a max-min fair-share bandwidth model. Every
//!   storage device and NIC is a capacity resource; a transfer is a *flow*
//!   across a path of resources. The model computes each flow's rate with the
//!   classic progressive-filling algorithm and predicts the next completion,
//!   which the driver turns into an event. A flow start, cancel or
//!   completion recomputes only the flows that share resources with it,
//!   directly or transitively, with rates bit-identical to a recompute of
//!   every flow.
//!
//! The actual driver loop lives in `octo-cluster`; this crate is independent
//! of what the events mean.

pub mod flow;
pub mod queue;

pub use flow::{FlowModel, FlowState, ResourceId};
pub use queue::EventQueue;
