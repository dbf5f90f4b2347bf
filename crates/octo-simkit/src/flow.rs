//! Max-min fair-share bandwidth modelling.
//!
//! Every storage device (a tier on a node) and every NIC is a *resource* with
//! a fixed capacity in bytes/second. A data transfer is a *flow* across a
//! path of resources (e.g. `[source HDD, source NIC, dest NIC, dest SSD]`).
//!
//! Rates are assigned with the progressive-filling algorithm, which yields
//! the max-min fair allocation: repeatedly saturate the most contended
//! resource, freeze the flows it bottlenecks at their fair share, subtract
//! their consumption everywhere else, and continue. Unlike the naive
//! `min(capacity / flow_count)` approximation this lets un-bottlenecked flows
//! pick up the slack, which matters when fast memory devices share paths with
//! slow disks.
//!
//! # Component-local recompute
//!
//! Flows that share a resource, directly or through a chain of other flows,
//! form a *closed component*: no flow inside it crosses a resource outside
//! it. Progressive filling on one component never reads or writes another
//! component's state, so a flow start, cancel or completion only recomputes
//! the component around the mutated flows' resources (searched after the
//! removal, so a component that splits is recomputed whole). Every other
//! flow keeps the rate it already has.
//!
//! The rates are bit-identical to a global progressive filling over every
//! flow. Restricted to one component, the global algorithm's bottleneck
//! sequence, freeze order and subtractions from each resource's remaining
//! capacity happen in the same order as in a pass over that component
//! alone, provided the pass follows two rules:
//!
//! * the bottleneck is the first resource, in ascending [`ResourceId`], with
//!   the smallest fair share (a later resource must be strictly smaller to
//!   win, so ties, including `-0.0` against `0.0`, resolve as globally);
//! * the flows a bottleneck freezes are frozen in ascending [`FlowId`]. They
//!   all take the same share, so this order cannot change a subtraction;
//!   it keeps the global order anyway.
//!
//! The unit tests keep the global algorithm as an oracle and compare every
//! rate and remaining byte count bit for bit after random operation
//! sequences.
//!
//! # One recompute per instant
//!
//! Rates are recomputed once per instant, before any read. Every start,
//! cancel and completion joins its resources to one pending set, and a
//! single component recompute over their union runs before anything reads
//! a rate: when the clock moves (progress is materialized at the old
//! rates), and in [`FlowModel::next_completion`],
//! [`FlowModel::flow_state`] and [`FlowModel::utilization`]. This is
//! bit-identical to recomputing after each mutation. A component's rates
//! depend only on its final flow set, every component a mutation changed
//! holds one of the joined resources (a component that a removal split
//! keeps one of the removed flow's resources in each part), and no bytes
//! move within an instant, so no read can tell the two apart.
//!
//! The model is *lazy*: flow progress is only materialized when the clock
//! moves (`advance`), and every mutation bumps a version counter so the
//! driver can discard completion events that were scheduled before the world
//! changed.

use octo_common::{ByteSize, FlowId, SimDuration, SimTime};
use std::collections::HashMap;

/// Index of a capacity resource inside a [`FlowModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub usize);

/// A transfer still below this many remaining bytes counts as finished
/// (absorbs floating-point residue; real transfers are kilobytes and up).
const COMPLETION_EPS_BYTES: f64 = 1.0;

#[derive(Debug, Clone)]
struct Resource {
    capacity_bps: f64,
    /// Slots of the live flows crossing this resource, in ascending
    /// [`FlowId`] order.
    flows: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    path: Vec<ResourceId>,
    remaining: f64,
    rate: f64,
}

/// A snapshot of one flow's progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowState {
    /// Bytes left to transfer.
    pub remaining_bytes: f64,
    /// Current max-min fair rate in bytes/second.
    pub rate_bps: f64,
}

/// Buffers of the component recompute, kept between calls so that a
/// mutation allocates nothing once the model has seen its peak load.
#[derive(Debug, Default)]
struct Scratch {
    /// Bumped once per recompute; the marks below compare against it.
    stamp: u64,
    /// Whether resources were joined since the last recompute.
    dirty: bool,
    /// Per resource: equals `stamp` once the resource joined the component.
    in_component: Vec<u64>,
    /// Per flow slot: equals `stamp` while the flow awaits its rate.
    pending: Vec<u64>,
    /// Per resource: capacity not yet handed out to frozen flows.
    left_bps: Vec<f64>,
    /// Per resource: flows crossing it that are not frozen yet.
    unfrozen: Vec<usize>,
    /// The component's resources.
    component: Vec<usize>,
    /// Resources joined but not yet expanded by the component search.
    stack: Vec<usize>,
}

impl Scratch {
    /// Readies the pending set for a mutation's resources over a model
    /// with `n_resources` resources: starts an empty one unless resources
    /// are already pending. The per-resource buffers grow here, not in
    /// `add_resource`, so building a model allocates them once; they grow
    /// even while resources are pending, as one may have been added since.
    fn begin(&mut self, n_resources: usize) {
        if self.in_component.len() < n_resources {
            self.in_component.resize(n_resources, 0);
            self.left_bps.resize(n_resources, 0.0);
            self.unfrozen.resize(n_resources, 0);
        }
        if self.dirty {
            return;
        }
        self.stamp += 1;
        self.dirty = true;
        self.component.clear();
        self.stack.clear();
    }

    /// Adds resource `r` to the component unless it is there already.
    fn join(&mut self, r: ResourceId) {
        if self.in_component[r.0] != self.stamp {
            self.in_component[r.0] = self.stamp;
            self.stack.push(r.0);
        }
    }
}

/// The fair-share bandwidth model. See the module docs for the algorithm.
#[derive(Debug, Default)]
pub struct FlowModel {
    resources: Vec<Resource>,
    /// Live flows, densely packed: removing a flow moves the last one into
    /// its slot, so memory follows the live flows, not the ids issued.
    flows: Vec<Flow>,
    /// Slot of each live flow (looked up only, never iterated).
    slot_of: HashMap<FlowId, usize>,
    scratch: Scratch,
    last_advance: SimTime,
    version: u64,
}

impl FlowModel {
    /// An empty model with the progress clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource with the given capacity in bytes/second.
    ///
    /// Panics on non-positive or non-finite capacity: a zero-capacity
    /// resource would stall every flow routed through it forever.
    pub fn add_resource(&mut self, capacity_bps: f64) -> ResourceId {
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "resource capacity must be positive, got {capacity_bps}"
        );
        let id = ResourceId(self.resources.len());
        self.resources.push(Resource {
            capacity_bps,
            flows: Vec::new(),
        });
        id
    }

    /// The configured capacity of a resource in bytes/second.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.resources[r.0].capacity_bps
    }

    /// Monotone counter bumped on every mutation; completion events carry
    /// the version they were computed under and are dropped when stale.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of flows currently in flight.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Fraction of `r`'s capacity currently allocated to flows, in `[0, 1]`.
    pub fn utilization(&mut self, r: ResourceId) -> f64 {
        self.settle();
        let res = &self.resources[r.0];
        let used: f64 = res.flows.iter().map(|&s| self.flows[s].rate).sum();
        (used / res.capacity_bps).clamp(0.0, 1.0)
    }

    /// Starts a transfer of `bytes` across `path` at time `now`.
    ///
    /// The caller allocates the [`FlowId`]; paths must be non-empty and refer
    /// to registered resources. A path is a *set* of resources — duplicates
    /// are collapsed so a transfer never gets charged twice against the same
    /// device. Duplicate flow ids panic.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        id: FlowId,
        bytes: ByteSize,
        mut path: Vec<ResourceId>,
    ) {
        path.sort_unstable();
        path.dedup();
        assert!(!path.is_empty(), "flow {id} has an empty resource path");
        assert!(
            path.iter().all(|r| r.0 < self.resources.len()),
            "flow {id} references an unregistered resource"
        );
        assert!(
            !self.slot_of.contains_key(&id),
            "flow id {id} reused while still active"
        );
        self.advance(now);
        let slot = self.flows.len();
        self.scratch.begin(self.resources.len());
        for &r in &path {
            let listed = &mut self.resources[r.0].flows;
            let at = listed.partition_point(|&s| self.flows[s].id < id);
            listed.insert(at, slot);
            self.scratch.join(r);
        }
        self.flows.push(Flow {
            id,
            path,
            remaining: bytes.as_bytes() as f64,
            rate: 0.0,
        });
        self.slot_of.insert(id, slot);
        self.version += 1;
    }

    /// Cancels a flow (e.g. the file being transferred was deleted). Returns
    /// the bytes that had not yet been moved, or `None` for unknown ids.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<ByteSize> {
        self.advance(now);
        let slot = *self.slot_of.get(&id)?;
        self.scratch.begin(self.resources.len());
        let flow = self.remove(slot);
        self.version += 1;
        Some(ByteSize::from_bytes(flow.remaining.max(0.0).round() as u64))
    }

    /// A snapshot of one flow, or `None` once it completed or was cancelled.
    pub fn flow_state(&mut self, id: FlowId) -> Option<FlowState> {
        self.settle();
        self.slot_of.get(&id).map(|&s| FlowState {
            remaining_bytes: self.flows[s].remaining,
            rate_bps: self.flows[s].rate,
        })
    }

    /// When the earliest in-flight flow will finish, paired with the current
    /// version. `None` when nothing is in flight.
    ///
    /// The returned instant is rounded *up* to the next millisecond so that
    /// by the time the driver processes the event the flow really is done.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        self.settle();
        let mut earliest: Option<f64> = None;
        for f in &self.flows {
            if f.rate <= 0.0 {
                continue; // cannot finish; recompute will assign a rate later
            }
            let secs = (f.remaining.max(0.0)) / f.rate;
            earliest = Some(match earliest {
                Some(e) => e.min(secs),
                None => secs,
            });
        }
        let secs = earliest?;
        let ms = (secs * 1000.0).ceil().max(0.0) as u64;
        Some((now + SimDuration::from_millis(ms), self.version))
    }

    /// Advances progress to `now`, removes every flow that has finished, and
    /// returns their ids (in id order). Bumps the version when anything
    /// completed.
    pub fn collect_completed(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        let mut done: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|f| f.remaining <= COMPLETION_EPS_BYTES)
            .map(|f| f.id)
            .collect();
        if !done.is_empty() {
            done.sort_unstable();
            self.scratch.begin(self.resources.len());
            for id in &done {
                let slot = self.slot_of[id];
                self.remove(slot);
            }
            self.version += 1;
        }
        done
    }

    /// Recomputes the rates around every resource joined since the last
    /// recompute, if any.
    fn settle(&mut self) {
        if self.scratch.dirty {
            self.recompute_component();
            self.scratch.dirty = false;
        }
    }

    /// Materializes progress between `last_advance` and `now`, at the
    /// rates of the instant it leaves.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(
            now >= self.last_advance,
            "flow model asked to move backwards: {now} < {}",
            self.last_advance
        );
        let dt = now.duration_since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        if dt <= 0.0 {
            return;
        }
        self.settle();
        for f in &mut self.flows {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
    }

    /// Removes the flow in `slot`, joins its resources to the component
    /// being collected, and moves the last flow into the freed slot.
    fn remove(&mut self, slot: usize) -> Flow {
        let flow = self.flows.swap_remove(slot);
        self.slot_of.remove(&flow.id);
        for &r in &flow.path {
            let listed = &mut self.resources[r.0].flows;
            let at = listed
                .iter()
                .position(|&s| s == slot)
                .expect("a live flow is listed on every resource of its path");
            listed.remove(at);
            self.scratch.join(r);
        }
        let moved_from = self.flows.len();
        if let Some(moved) = self.flows.get(slot) {
            self.slot_of.insert(moved.id, slot);
            for r in &moved.path {
                let listed = &mut self.resources[r.0].flows;
                let at = listed
                    .iter()
                    .position(|&s| s == moved_from)
                    .expect("a live flow is listed on every resource of its path");
                listed[at] = slot;
            }
        }
        flow
    }

    /// Progressive filling over the closed component around the resources
    /// joined since [`Scratch::begin`] started the pending set: the max-min
    /// fair allocation of its flows. See the module docs for why this
    /// matches a global recompute.
    fn recompute_component(&mut self) {
        let FlowModel {
            resources,
            flows,
            scratch,
            ..
        } = self;
        if scratch.pending.len() < flows.len() {
            scratch.pending.resize(flows.len(), 0);
        }
        let stamp = scratch.stamp;

        // Close the component: every flow crossing a joined resource, and
        // every resource such a flow crosses.
        let mut unassigned = 0usize;
        while let Some(r) = scratch.stack.pop() {
            scratch.component.push(r);
            scratch.left_bps[r] = resources[r].capacity_bps;
            scratch.unfrozen[r] = resources[r].flows.len();
            for &s in &resources[r].flows {
                if scratch.pending[s] == stamp {
                    continue;
                }
                scratch.pending[s] = stamp;
                unassigned += 1;
                for &q in &flows[s].path {
                    scratch.join(q);
                }
            }
        }
        scratch.component.sort_unstable();

        while unassigned > 0 {
            // Find the bottleneck: the resource whose fair share is smallest.
            let mut bottleneck: Option<(usize, f64)> = None;
            for &r in &scratch.component {
                let c = scratch.unfrozen[r];
                if c == 0 {
                    continue;
                }
                let share = scratch.left_bps[r].max(0.0) / c as f64;
                match bottleneck {
                    Some((_, best)) if share >= best => {}
                    _ => bottleneck = Some((r, share)),
                }
            }
            let Some((b, share)) = bottleneck else {
                break; // no unassigned flow touches any resource (unreachable)
            };
            // Freeze every unassigned flow through the bottleneck at `share`
            // and charge its consumption to the rest of its path.
            for &s in &resources[b].flows {
                if scratch.pending[s] != stamp {
                    continue;
                }
                scratch.pending[s] = 0;
                let f = &mut flows[s];
                for r in &f.path {
                    scratch.left_bps[r.0] -= share;
                    scratch.unfrozen[r.0] -= 1;
                }
                f.rate = share;
                unassigned -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MB: f64 = 1024.0 * 1024.0;

    fn mbps(x: f64) -> f64 {
        x * MB
    }

    /// Runs a driver loop to completion; returns (flow, completion time).
    fn run_to_completion(model: &mut FlowModel, start: SimTime) -> Vec<(FlowId, SimTime)> {
        let mut done = Vec::new();
        let mut now = start;
        while model.active_flows() > 0 {
            let (t, _v) = model
                .next_completion(now)
                .expect("active flows must have a completion");
            now = t;
            for id in model.collect_completed(now) {
                done.push((id, now));
            }
        }
        done
    }

    #[test]
    fn single_flow_runs_at_capacity() {
        let mut m = FlowModel::new();
        let disk = m.add_resource(mbps(100.0));
        m.start_flow(SimTime::ZERO, FlowId(0), ByteSize::mb(200), vec![disk]);
        assert_eq!(m.flow_state(FlowId(0)).unwrap().rate_bps, mbps(100.0));
        let done = run_to_completion(&mut m, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        // 200MB at 100MB/s = 2s.
        assert_eq!(done[0].1, SimTime::from_secs(2));
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let mut m = FlowModel::new();
        let disk = m.add_resource(mbps(100.0));
        m.start_flow(SimTime::ZERO, FlowId(0), ByteSize::mb(100), vec![disk]);
        m.start_flow(SimTime::ZERO, FlowId(1), ByteSize::mb(300), vec![disk]);
        assert_eq!(m.flow_state(FlowId(0)).unwrap().rate_bps, mbps(50.0));
        let done = run_to_completion(&mut m, SimTime::ZERO);
        // Flow 0: 100MB at 50MB/s -> 2s. Then flow 1 has 200MB left at full
        // 100MB/s -> finishes at 2s + 2s = 4s.
        assert_eq!(done[0], (FlowId(0), SimTime::from_secs(2)));
        assert_eq!(done[1], (FlowId(1), SimTime::from_secs(4)));
    }

    #[test]
    fn path_is_bottlenecked_by_slowest_resource() {
        let mut m = FlowModel::new();
        let fast = m.add_resource(mbps(100.0));
        let slow = m.add_resource(mbps(50.0));
        m.start_flow(
            SimTime::ZERO,
            FlowId(0),
            ByteSize::mb(100),
            vec![fast, slow],
        );
        assert_eq!(m.flow_state(FlowId(0)).unwrap().rate_bps, mbps(50.0));
    }

    #[test]
    fn max_min_redistributes_slack() {
        // f0 uses only A; f1 uses A and B. B (30MB/s) bottlenecks f1, so
        // max-min gives f0 the leftover 70MB/s of A — the naive equal split
        // would wrongly cap f0 at 50.
        let mut m = FlowModel::new();
        let a = m.add_resource(mbps(100.0));
        let b = m.add_resource(mbps(30.0));
        m.start_flow(SimTime::ZERO, FlowId(0), ByteSize::mb(700), vec![a]);
        m.start_flow(SimTime::ZERO, FlowId(1), ByteSize::mb(300), vec![a, b]);
        let f0 = m.flow_state(FlowId(0)).unwrap().rate_bps;
        let f1 = m.flow_state(FlowId(1)).unwrap().rate_bps;
        assert!((f1 - mbps(30.0)).abs() < 1.0, "f1 rate {f1}");
        assert!((f0 - mbps(70.0)).abs() < 1.0, "f0 rate {f0}");
    }

    #[test]
    fn cancel_returns_unmoved_bytes() {
        let mut m = FlowModel::new();
        let disk = m.add_resource(mbps(100.0));
        m.start_flow(SimTime::ZERO, FlowId(0), ByteSize::mb(100), vec![disk]);
        // After 0.5s, 50MB have moved.
        let left = m.cancel_flow(SimTime::from_millis(500), FlowId(0)).unwrap();
        assert_eq!(left, ByteSize::mb(50));
        assert_eq!(m.active_flows(), 0);
        assert!(m.cancel_flow(SimTime::from_secs(1), FlowId(0)).is_none());
    }

    #[test]
    fn version_bumps_on_mutations_only() {
        let mut m = FlowModel::new();
        let disk = m.add_resource(mbps(100.0));
        let v0 = m.version();
        m.start_flow(SimTime::ZERO, FlowId(0), ByteSize::mb(10), vec![disk]);
        let v1 = m.version();
        assert!(v1 > v0);
        // Querying does not bump.
        let _ = m.next_completion(SimTime::ZERO);
        let _ = m.flow_state(FlowId(0));
        assert_eq!(m.version(), v1);
        // Collecting with nothing finished does not bump.
        let none = m.collect_completed(SimTime::from_millis(1));
        assert!(none.is_empty());
        assert_eq!(m.version(), v1);
    }

    #[test]
    #[should_panic(expected = "empty resource path")]
    fn empty_path_panics() {
        let mut m = FlowModel::new();
        m.start_flow(SimTime::ZERO, FlowId(0), ByteSize::mb(1), vec![]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let mut m = FlowModel::new();
        m.add_resource(0.0);
    }

    #[test]
    fn utilization_sums_the_rates_on_a_resource() {
        let mut m = FlowModel::new();
        let a = m.add_resource(mbps(100.0));
        let b = m.add_resource(mbps(100.0));
        m.start_flow(SimTime::ZERO, FlowId(0), ByteSize::mb(10), vec![a]);
        m.start_flow(SimTime::ZERO, FlowId(1), ByteSize::mb(10), vec![a]);
        assert!((m.utilization(a) - 1.0).abs() < 1e-9);
        assert_eq!(m.utilization(b), 0.0);
        m.cancel_flow(SimTime::ZERO, FlowId(0));
        assert!(
            (m.utilization(a) - 1.0).abs() < 1e-9,
            "the survivor takes A"
        );
    }

    #[test]
    fn a_split_component_is_recomputed_whole() {
        // A chain f0 -[B]- f1 -[C]- f2: cancelling the middle flow splits
        // one component into two, and both halves speed up.
        let mut m = FlowModel::new();
        let a = m.add_resource(mbps(100.0));
        let b = m.add_resource(mbps(40.0));
        let c = m.add_resource(mbps(40.0));
        let d = m.add_resource(mbps(100.0));
        m.start_flow(SimTime::ZERO, FlowId(0), ByteSize::mb(900), vec![a, b]);
        m.start_flow(SimTime::ZERO, FlowId(1), ByteSize::mb(900), vec![b, c]);
        m.start_flow(SimTime::ZERO, FlowId(2), ByteSize::mb(900), vec![c, d]);
        for id in 0..3 {
            assert_eq!(m.flow_state(FlowId(id)).unwrap().rate_bps, mbps(20.0));
        }
        m.cancel_flow(SimTime::ZERO, FlowId(1));
        assert_eq!(m.flow_state(FlowId(0)).unwrap().rate_bps, mbps(40.0));
        assert_eq!(m.flow_state(FlowId(2)).unwrap().rate_bps, mbps(40.0));
    }

    #[test]
    fn a_resource_added_between_two_starts_at_one_instant_joins_them() {
        // The second start joins a resource the pending set of the first
        // start has no mark for yet.
        let mut m = FlowModel::new();
        let a = m.add_resource(mbps(100.0));
        m.start_flow(SimTime::ZERO, FlowId(0), ByteSize::mb(100), vec![a]);
        let b = m.add_resource(mbps(40.0));
        m.start_flow(SimTime::ZERO, FlowId(1), ByteSize::mb(100), vec![a, b]);
        assert_eq!(m.flow_state(FlowId(0)).unwrap().rate_bps, mbps(60.0));
        assert_eq!(m.flow_state(FlowId(1)).unwrap().rate_bps, mbps(40.0));
    }

    #[test]
    fn slots_follow_live_flows_not_issued_ids() {
        let mut m = FlowModel::new();
        let disk = m.add_resource(mbps(100.0));
        let mut now = SimTime::ZERO;
        for id in 0..1000 {
            m.start_flow(now, FlowId(id), ByteSize::mb(1), vec![disk]);
            m.start_flow(now, FlowId(10_000 + id), ByteSize::mb(2), vec![disk]);
            now += SimDuration::from_millis(20);
            assert_eq!(m.collect_completed(now), vec![FlowId(id)]);
            m.cancel_flow(now, FlowId(10_000 + id));
        }
        assert_eq!(m.active_flows(), 0);
        assert!(m.flows.capacity() <= 4, "{} slots", m.flows.capacity());
        assert!(m.scratch.pending.len() <= 2);
        assert!(m.resources[disk.0].flows.is_empty());
    }

    /// The global progressive filling the model ran before it became
    /// component-local, kept as the bit-exact oracle: every mutation
    /// recomputes every flow's rate from scratch, in flow-id order.
    mod reference {
        use super::super::{FlowState, ResourceId, COMPLETION_EPS_BYTES};
        use octo_common::{ByteSize, FlowId, SimDuration, SimTime};
        use std::collections::BTreeMap;

        struct Flow {
            path: Vec<ResourceId>,
            remaining: f64,
            rate: f64,
        }

        #[derive(Default)]
        pub struct FullRecompute {
            capacity: Vec<f64>,
            flows: BTreeMap<FlowId, Flow>,
            last_advance: SimTime,
            version: u64,
        }

        impl FullRecompute {
            pub fn add_resource(&mut self, capacity_bps: f64) {
                self.capacity.push(capacity_bps);
            }

            pub fn states(&self) -> impl Iterator<Item = (FlowId, FlowState)> + '_ {
                self.flows.iter().map(|(id, f)| {
                    let state = FlowState {
                        remaining_bytes: f.remaining,
                        rate_bps: f.rate,
                    };
                    (*id, state)
                })
            }

            pub fn active_flows(&self) -> usize {
                self.flows.len()
            }

            pub fn start_flow(
                &mut self,
                now: SimTime,
                id: FlowId,
                bytes: ByteSize,
                mut path: Vec<ResourceId>,
            ) {
                path.sort_unstable();
                path.dedup();
                self.advance(now);
                let flow = Flow {
                    path,
                    remaining: bytes.as_bytes() as f64,
                    rate: 0.0,
                };
                assert!(self.flows.insert(id, flow).is_none());
                self.recompute_rates();
                self.version += 1;
            }

            pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<ByteSize> {
                self.advance(now);
                let flow = self.flows.remove(&id)?;
                self.recompute_rates();
                self.version += 1;
                Some(ByteSize::from_bytes(flow.remaining.max(0.0).round() as u64))
            }

            pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, u64)> {
                let mut earliest: Option<f64> = None;
                for f in self.flows.values() {
                    if f.rate <= 0.0 {
                        continue;
                    }
                    let secs = (f.remaining.max(0.0)) / f.rate;
                    earliest = Some(match earliest {
                        Some(e) => e.min(secs),
                        None => secs,
                    });
                }
                let secs = earliest?;
                let ms = (secs * 1000.0).ceil().max(0.0) as u64;
                Some((now + SimDuration::from_millis(ms), self.version))
            }

            pub fn collect_completed(&mut self, now: SimTime) -> Vec<FlowId> {
                self.advance(now);
                let done: Vec<FlowId> = self
                    .flows
                    .iter()
                    .filter(|(_, f)| f.remaining <= COMPLETION_EPS_BYTES)
                    .map(|(id, _)| *id)
                    .collect();
                if !done.is_empty() {
                    for id in &done {
                        self.flows.remove(id);
                    }
                    self.recompute_rates();
                    self.version += 1;
                }
                done
            }

            fn advance(&mut self, now: SimTime) {
                let dt = now.duration_since(self.last_advance).as_secs_f64();
                self.last_advance = now;
                if dt <= 0.0 {
                    return;
                }
                for f in self.flows.values_mut() {
                    f.remaining = (f.remaining - f.rate * dt).max(0.0);
                }
            }

            fn recompute_rates(&mut self) {
                let mut remaining_cap = self.capacity.clone();
                let mut count = vec![0usize; self.capacity.len()];
                let ids: Vec<FlowId> = self.flows.keys().copied().collect();
                let mut assigned: BTreeMap<FlowId, bool> =
                    ids.iter().map(|id| (*id, false)).collect();
                for f in self.flows.values() {
                    for r in &f.path {
                        count[r.0] += 1;
                    }
                }
                let mut unassigned = ids.len();
                while unassigned > 0 {
                    let mut bottleneck: Option<(usize, f64)> = None;
                    for (ri, &c) in count.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        let share = remaining_cap[ri].max(0.0) / c as f64;
                        match bottleneck {
                            Some((_, best)) if share >= best => {}
                            _ => bottleneck = Some((ri, share)),
                        }
                    }
                    let Some((b, share)) = bottleneck else {
                        break;
                    };
                    for id in &ids {
                        if assigned[id] {
                            continue;
                        }
                        let f = &self.flows[id];
                        if !f.path.contains(&ResourceId(b)) {
                            continue;
                        }
                        for r in f.path.clone() {
                            remaining_cap[r.0] -= share;
                            count[r.0] -= 1;
                        }
                        self.flows.get_mut(id).expect("flow exists").rate = share;
                        *assigned.get_mut(id).expect("id tracked") = true;
                        unassigned -= 1;
                    }
                }
            }
        }
    }

    /// A cluster laid out like `octo-cluster`'s `ResourceMap`: per node a
    /// memory, an SSD and an HDD device plus a NIC, registered in the same
    /// order in the model under test and in the oracle.
    struct Cluster {
        devices: Vec<[ResourceId; 3]>,
        nics: Vec<ResourceId>,
    }

    impl Cluster {
        fn new(
            nodes: usize,
            caps: [f64; 4],
            m: &mut FlowModel,
            oracle: &mut reference::FullRecompute,
        ) -> Self {
            let mut add = |c: f64| {
                oracle.add_resource(c);
                m.add_resource(c)
            };
            let mut devices = Vec::new();
            let mut nics = Vec::new();
            for _ in 0..nodes {
                devices.push([add(caps[0]), add(caps[1]), add(caps[2])]);
                nics.push(add(caps[3]));
            }
            Cluster { devices, nics }
        }

        fn nodes(&self) -> usize {
            self.nics.len()
        }

        fn device(&self, node: u32, tier: u32) -> ResourceId {
            self.devices[node as usize % self.nodes()][tier as usize % 3]
        }

        fn nic(&self, node: u32) -> ResourceId {
            self.nics[node as usize % self.nodes()]
        }

        /// The path of a new flow of `kind`: a local read, a remote read, a
        /// 3-replica write pipeline, or a tier transfer.
        fn path(&self, kind: u8, a: u32, b: u32, c: u32) -> Vec<ResourceId> {
            let n = self.nodes() as u32;
            match kind {
                0 => vec![self.device(a, b)],
                1 => {
                    let dst = a + 1 + b % (n - 1);
                    vec![self.device(a, c), self.nic(a), self.nic(dst)]
                }
                2 => {
                    let replicas = [(a, c), (b, c / 3), (a + b + 1, c / 9)];
                    let mut path: Vec<ResourceId> = replicas
                        .iter()
                        .map(|&(node, tier)| self.device(node, tier))
                        .collect();
                    let mut nodes: Vec<u32> = replicas.iter().map(|&(x, _)| x % n).collect();
                    nodes.sort_unstable();
                    nodes.dedup();
                    if nodes.len() > 1 {
                        path.extend(nodes.iter().map(|&x| self.nic(x)));
                    }
                    path
                }
                _ => {
                    let mut path = vec![self.device(a, c), self.device(b, c / 3)];
                    if a % n != b % n {
                        path.push(self.nic(a));
                        path.push(self.nic(b));
                    }
                    path
                }
            }
        }
    }

    /// Every observable of the model equals the oracle's, bit for bit.
    fn assert_matches(
        m: &mut FlowModel,
        oracle: &reference::FullRecompute,
        now: SimTime,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(m.active_flows(), oracle.active_flows());
        for (id, want) in oracle.states() {
            let got = m.flow_state(id);
            prop_assert!(got.is_some(), "{id} missing from the model");
            let got = got.expect("checked above");
            prop_assert_eq!(
                got.rate_bps.to_bits(),
                want.rate_bps.to_bits(),
                "{id} rate {} vs oracle {}",
                got.rate_bps,
                want.rate_bps
            );
            prop_assert_eq!(
                got.remaining_bytes.to_bits(),
                want.remaining_bytes.to_bits(),
                "{id} remaining {} vs oracle {}",
                got.remaining_bytes,
                want.remaining_bytes
            );
        }
        prop_assert_eq!(m.next_completion(now), oracle.next_completion(now));
        Ok(())
    }

    /// Per-tier-class capacities in MB/s. The small palette makes equal
    /// fair shares on different resources, and so bottleneck ties, common.
    const CAPS_MBPS: [f64; 5] = [112.0, 112.0, 400.0, 1600.0, 3200.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random flow starts (local and remote reads, 3-replica write
        /// pipelines, tier transfers), cancels, completions and clock moves
        /// over a multi-node cluster, several at one instant and others
        /// spread out, so components merge and split. Two ops in three
        /// read nothing after them, so bursts of starts, cancels (unknown
        /// ids included) and completions share one instant with no rate
        /// read between them. After each burst, and after every other op,
        /// the model must match the global recompute bit for bit.
        #[test]
        fn prop_component_recompute_matches_global_oracle(
            nodes in 2usize..7,
            caps in (0usize..5, 0usize..5, 0usize..5, 0usize..5),
            ops in proptest::collection::vec(
                ((0u8..10, 0u32..1000, 0u32..1000), (0u32..27, 0u64..(64 << 20), 0u8..3)),
                1..120,
            ),
        ) {
            let mut m = FlowModel::new();
            let mut oracle = reference::FullRecompute::default();
            let caps = [caps.0, caps.1, caps.2, caps.3].map(|i| mbps(CAPS_MBPS[i]));
            let cluster = Cluster::new(nodes, caps, &mut m, &mut oracle);
            let mut now = SimTime::ZERO;
            let mut issued = 0u64;
            for ((kind, a, b), (c, size, burst)) in ops {
                match kind {
                    0..=5 => {
                        // Ids mostly ascend, as the simulator issues them;
                        // every fifth comes from a descending range. Some
                        // flows of at most a byte finish at the instant
                        // they start.
                        issued += 1;
                        let id = FlowId(if c % 5 == 0 { 1_000_000 - issued } else { issued });
                        let bytes = ByteSize::from_bytes(match a % 16 {
                            0 => size % 2,
                            8 => size % 4096,
                            _ => size,
                        });
                        let path = cluster.path(kind % 4, a, b, c);
                        m.start_flow(now, id, bytes, path.clone());
                        oracle.start_flow(now, id, bytes, path);
                    }
                    6 => {
                        let live: Vec<FlowId> = oracle.states().map(|(id, _)| id).collect();
                        let id = if live.is_empty() || a % 10 == 0 {
                            FlowId(500_000) // never issued
                        } else {
                            live[a as usize % live.len()]
                        };
                        prop_assert_eq!(m.cancel_flow(now, id), oracle.cancel_flow(now, id));
                    }
                    7 => {
                        if a % 3 != 0 {
                            now += SimDuration::from_millis(u64::from(b) * 5);
                        }
                        prop_assert_eq!(m.collect_completed(now), oracle.collect_completed(now));
                    }
                    _ => {
                        if let Some((t, _)) = oracle.next_completion(now) {
                            now = t;
                        }
                        prop_assert_eq!(m.collect_completed(now), oracle.collect_completed(now));
                    }
                }
                if burst == 0 {
                    assert_matches(&mut m, &oracle, now)?;
                }
            }
            assert_matches(&mut m, &oracle, now)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rates never oversubscribe any resource, every flow gets a positive
        /// rate, and every flow is bottlenecked by some saturated resource
        /// (work conservation of the max-min allocation).
        #[test]
        fn prop_maxmin_invariants(
            caps in proptest::collection::vec(1.0f64..500.0, 1..6),
            paths in proptest::collection::vec(
                proptest::collection::vec(0usize..6, 1..4), 1..12),
        ) {
            let mut m = FlowModel::new();
            let rids: Vec<ResourceId> = caps.iter().map(|c| m.add_resource(mbps(*c))).collect();
            let mut used = false;
            for (i, p) in paths.iter().enumerate() {
                let mut path: Vec<ResourceId> = p.iter()
                    .map(|ri| rids[ri % rids.len()])
                    .collect();
                path.dedup();
                m.start_flow(SimTime::ZERO, FlowId(i as u64), ByteSize::mb(64), path);
                used = true;
            }
            prop_assume!(used);

            // (1) capacity conservation
            for (ri, r) in rids.iter().enumerate() {
                let sum: f64 = (0..paths.len())
                    .filter_map(|i| m.flow_state(FlowId(i as u64)))
                    .zip(paths.iter())
                    .filter(|(_, p)| p.iter().any(|x| rids[x % rids.len()] == *r))
                    .map(|(s, _)| s.rate_bps)
                    .sum();
                prop_assert!(sum <= mbps(caps[ri]) * (1.0 + 1e-9),
                    "resource {ri} oversubscribed: {sum} > {}", mbps(caps[ri]));
            }

            // (2) no starvation + (3) each flow hits a saturated resource
            for (i, path) in paths.iter().enumerate() {
                let st = m.flow_state(FlowId(i as u64)).unwrap();
                prop_assert!(st.rate_bps > 0.0, "flow {i} starved");
                let saturated = path.iter().any(|x| {
                    let r = rids[x % rids.len()];
                    m.utilization(r) > 1.0 - 1e-6
                });
                prop_assert!(saturated, "flow {i} not bottlenecked anywhere");
            }
        }

        /// Driving arbitrary flow mixes to completion conserves bytes:
        /// time-integrated progress equals each flow's size (all complete).
        #[test]
        fn prop_all_flows_complete(
            sizes in proptest::collection::vec(1u64..512, 1..10),
            staggers in proptest::collection::vec(0u64..5_000, 1..10),
        ) {
            let mut m = FlowModel::new();
            let disk = m.add_resource(mbps(100.0));
            let nic = m.add_resource(mbps(112.0));
            let n = sizes.len().min(staggers.len());
            let mut now = SimTime::ZERO;
            let mut started = 0usize;
            let mut completed = 0usize;
            // Interleave starts and completions deterministically.
            let mut starts: Vec<(SimTime, u64, u64)> = (0..n)
                .map(|i| (SimTime::from_millis(staggers[i]), i as u64, sizes[i]))
                .collect();
            starts.sort();
            let mut next_start = 0usize;
            loop {
                let next_completion = m.next_completion(now);
                let next_event = match (next_start < starts.len(), next_completion) {
                    (true, Some((tc, _))) => starts[next_start].0.min(tc),
                    (true, None) => starts[next_start].0,
                    (false, Some((tc, _))) => tc,
                    (false, None) => break,
                };
                now = next_event;
                completed += m.collect_completed(now).len();
                while next_start < starts.len() && starts[next_start].0 <= now {
                    let (_, id, sz) = starts[next_start];
                    let path = if id % 2 == 0 { vec![disk] } else { vec![disk, nic] };
                    m.start_flow(now, FlowId(id), ByteSize::mb(sz), path);
                    started += 1;
                    next_start += 1;
                }
            }
            prop_assert_eq!(started, n);
            prop_assert_eq!(completed, n);
            prop_assert_eq!(m.active_flows(), 0);
        }
    }
}
