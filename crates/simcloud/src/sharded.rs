//! The sharded simulation engine: one replay path, the epoch driver
//! ([`run_epochs`]), bit-identical to the sequential kernel at any thread
//! count (the engine-equivalence suite enforces this across seeds,
//! scheduler flavours, plain batches, fault plans, recovery policies and
//! workflow DAGs).
//!
//! The run alternates between *control instants* — VM placement, host
//! failures and repairs, VM degrades, retry wake-ups, submissions landing
//! on dead VMs — handled sequentially by the *real*
//! [`crate::broker::Broker`] and [`crate::datacenter`] entities, and *bulk
//! epochs* in between, where every VM's local events (submissions and
//! submission batches to live VMs, settle ticks, completions) replay in
//! parallel lanes up to the next control instant. Workflow DAGs add a
//! *release barrier*: replay is also bounded by the earliest completion
//! that can still release a cross-VM child, while releases whose parents
//! all share the child's VM resolve inside that VM's lane. A run without
//! dependencies is an edgeless plan, for which the barrier never binds;
//! a plain batch (no dependencies, no faults) has no control instant after
//! placement, so its whole replay is one final flush. A flush replays and
//! commits its due lanes in ascending-`VmId` chunks, so its memory is
//! bounded by a chunk's records rather than the fleet's; a chunk replays
//! on the worker pool only when its staged events pay for the fork, and
//! on the driver thread otherwise, through the same functions. Determinism
//! holds because the event queue's `(time, seq)` order already sorts
//! every control event against everything staged before it, cross-VM
//! effects only originate at control instants or barrier deliveries, and
//! each lane reproduces the queue's tick-coalescing rules with a one-slot
//! `armed` deadline. See DESIGN.md §"The epoch driver" for the horizon
//! rule, the barrier soundness argument, the chunked flush's memory
//! measurement, the fork cutover and one known gap: cross completions
//! that tie at one instant on different lanes reach the broker in `VmId`
//! order, where the kernel uses the order their ticks were armed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rayon::prelude::*;

use crate::broker::Broker;
use crate::cloudlet::{Cloudlet, CloudletStatus};
use crate::cloudlet_sched::{CloudletScheduler, RunningCloudlet};
use crate::cost::cloudlet_cost;
use crate::datacenter::Datacenter;
use crate::event::{Event, EventQueue, ScheduledEvent};
use crate::ids::{CloudletId, DatacenterId, EntityId, VmId};
use crate::kernel::{Context, Entity, RunStats, World};
use crate::network::{transfer_time, Topology};
use crate::time::SimTime;
use crate::vm::Vm;

/// Due lanes a flush replays before committing them: the chunk size that
/// bounds a flush's memory. On a 2-vCPU host, the benchmark's scale-batch
/// workload (seed 42, one 20 000-lane flush) peaks at 88.5–89.3 MB with
/// 512-lane chunks, 94.0–95.8 MB with 4 096-lane chunks and 118.6–118.9
/// MB unchunked.
const FLUSH_CHUNK_LANES: usize = 512;

/// Staged events (see [`Lane::staged`]) a flush chunk of two or more
/// lanes must hold before it replays on the worker pool; a smaller chunk
/// replays serially on the driver thread.
///
/// Measured on a 2-vCPU host (seed 42, chunks alternating between a fork
/// and a serial replay within one run): serial replay costs ~0.42 µs per
/// staged event. A forked chunk of `dag-chaos`'s release rounds, about
/// one event per lane, took 4.4× the serial time at 2–7 staged events,
/// 1.4× at 64–95, 1.2× at 128–191 and still 1.13–1.17× at 256–447, but
/// Fig. 6's 500-event replays over 10–100 lanes forked at 0.82–0.88× and
/// `scale-batch`'s 512-lane chunks of ~5 000 events at 0.61×. The
/// break-even lies near 100–200 µs of serial work, 250–450 events:
/// lane replay is allocation- and cache-bound, so a fork pays an order
/// of magnitude later than the ~20 µs of a compute-bound ACO stage
/// (`PAR_MIN_WORK` in `biosched_core::aco`).
const FORK_MIN_STAGED: usize = 256;

/// A completion notification produced by a lane replay, pending
/// delivery to the real broker at an epoch boundary.
struct PendingReturn {
    at: SimTime,
    /// Generation order: stable tie-break for same-instant returns.
    ord: u64,
    cloudlet: CloudletId,
}

impl PartialEq for PendingReturn {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.ord == other.ord
    }
}
impl Eq for PendingReturn {}
impl PartialOrd for PendingReturn {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingReturn {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.ord.cmp(&other.ord))
    }
}

/// One finished cloudlet from a lane replay.
struct FinishedCl {
    id: CloudletId,
    finish: SimTime,
    return_at: SimTime,
}

/// The dependency table the epoch driver replays against, compiled once
/// from the scenario before the entities are built.
///
/// Children are classified by where their release can be resolved:
///
/// * **local** — every parent is assigned to the same VM as the child
///   (and no fault shaping can move work between VMs). The release is
///   resolved entirely inside that VM's replay lane; the broker's
///   pending-parent counter for the child is masked so the parent's
///   completion notification never double-releases it.
/// * **cross** — anything else. The release goes through the real
///   broker's `CloudletReturn` handler, and the parent's completion is a
///   *release barrier* event: no lane may replay past it until it is
///   delivered.
///
/// Under fault shaping (a non-empty fault plan, or recovery) every child
/// is cross: a recovery retry can rewrite the assignment mid-run, so
/// the static same-VM classification would be unsound. A run without
/// dependencies compiles to an edgeless plan: no local children, no
/// cross parents, so the barrier never binds and replay is bounded by
/// control instants alone.
pub(crate) struct DagPlan {
    /// CSR offsets into `local_child`: `local_off[p]..local_off[p+1]`
    /// are the locally-released children of parent `p`. Empty for an
    /// edgeless plan.
    local_off: Vec<u32>,
    local_child: Vec<u32>,
    /// Parents with at least one cross child — their completions bound
    /// the release barrier. Empty for an edgeless plan.
    has_cross: Vec<bool>,
    /// Children resolved locally: masked in the broker.
    local_mask: Vec<bool>,
    /// Per-VM `(child, unfinished-local-parents)` counters, sorted by
    /// child id; moved into the lanes at driver start.
    lane_pending: Vec<Vec<(u32, u32)>>,
    /// Inputs the in-lane release arithmetic shares with
    /// `Broker::submit_one`.
    arrivals: Option<Vec<SimTime>>,
    topology: Topology,
}

impl DagPlan {
    /// Classifies every dependency edge and builds the replay table.
    /// `parents` is `None` for a run without dependencies.
    pub(crate) fn compile(
        parents: Option<&[Vec<CloudletId>]>,
        assignment: &[VmId],
        vm_count: usize,
        fault_shaped: bool,
        arrivals: Option<&[SimTime]>,
        topology: Topology,
    ) -> DagPlan {
        let n = assignment.len();
        let Some(parents) = parents else {
            return DagPlan {
                local_off: Vec::new(),
                local_child: Vec::new(),
                has_cross: Vec::new(),
                local_mask: Vec::new(),
                lane_pending: Vec::new(),
                arrivals: None,
                topology,
            };
        };
        let mut local_mask = vec![false; n];
        if !fault_shaped {
            for (c, ps) in parents.iter().enumerate() {
                local_mask[c] =
                    !ps.is_empty() && ps.iter().all(|p| assignment[p.index()] == assignment[c]);
            }
        }
        let mut local_counts = vec![0u32; n];
        let mut has_cross = vec![false; n];
        for (c, ps) in parents.iter().enumerate() {
            for p in ps {
                if local_mask[c] {
                    local_counts[p.index()] += 1;
                } else {
                    has_cross[p.index()] = true;
                }
            }
        }
        let mut local_off = vec![0u32; n + 1];
        for i in 0..n {
            local_off[i + 1] = local_off[i] + local_counts[i];
        }
        let mut cursor = local_off.clone();
        let mut local_child = vec![0u32; local_off[n] as usize];
        // Child ids ascend within each parent's slice (the fill loop runs
        // in child order), matching the broker's release order for the
        // same parent.
        for (c, ps) in parents.iter().enumerate() {
            if local_mask[c] {
                for p in ps {
                    let slot = &mut cursor[p.index()];
                    local_child[*slot as usize] = c as u32;
                    *slot += 1;
                }
            }
        }
        let mut lane_pending: Vec<Vec<(u32, u32)>> = vec![Vec::new(); vm_count];
        for (c, ps) in parents.iter().enumerate() {
            if local_mask[c] {
                lane_pending[assignment[c].index()]
                    .push((c as u32, u32::try_from(ps.len()).expect("parents fit u32")));
            }
        }
        DagPlan {
            local_off,
            local_child,
            has_cross,
            local_mask,
            lane_pending,
            arrivals: arrivals.map(<[SimTime]>::to_vec),
            topology,
        }
    }

    /// Whether `parent`'s completion can release a cross child.
    fn crosses(&self, parent: CloudletId) -> bool {
        self.has_cross.get(parent.index()) == Some(&true)
    }

    fn local_children(&self, parent: CloudletId) -> &[u32] {
        match self.local_off.get(parent.index()..=parent.index() + 1) {
            Some(&[lo, hi]) => &self.local_child[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// How far one lane-replay call may advance.
#[derive(Clone, Copy)]
enum Bound {
    /// A control instant: everything staged from the queue fires (it was
    /// popped before the control, so it is kernel-ordered before it);
    /// lane-local content (release notifications, released submissions)
    /// fires strictly before the instant; a tick exactly at the instant
    /// fires only if the queue already popped it.
    Control(SimTime),
    /// A release round: everything at or before the barrier fires.
    Round(SimTime),
    /// Final drain: replay to completion.
    All,
}

/// A queue-staged submission bound for a live VM.
enum Sub {
    /// A `CloudletSubmit`.
    One(CloudletId),
    /// A `CloudletSubmitBatch`: one event, replayed through
    /// `submit_many`.
    Batch(Box<[CloudletId]>),
}

impl Sub {
    fn cloudlets(&self) -> &[CloudletId] {
        match self {
            Sub::One(c) => std::slice::from_ref(c),
            Sub::Batch(cs) => cs,
        }
    }
}

/// One VM's staged work between flushes, plus its local release state.
#[derive(Default)]
struct Lane {
    /// Queue-staged submissions in pop (= kernel) order, consumed from
    /// `head`. Pop times are globally nondecreasing, so this stays
    /// sorted by construction.
    subs: Vec<(SimTime, Sub)>,
    head: usize,
    /// The queue tick already popped for this VM, if any.
    popped_tick: Option<SimTime>,
    /// Completion notifications of same-VM parents pending local release
    /// processing, ordered by (return time, generation).
    local_rets: BinaryHeap<Reverse<(SimTime, u64, CloudletId)>>,
    ret_ord: u64,
    /// Locally released submissions, ordered by (arrival, generation).
    /// Kept apart from `subs`: at equal times queue-staged submissions
    /// carry lower kernel sequence numbers and must fire first.
    local_subs: BinaryHeap<Reverse<(SimTime, u64, CloudletId)>>,
    sub_ord: u64,
    /// `(child, unfinished-local-parents)`, sorted by child id.
    local_pending: Vec<(u32, u32)>,
    /// Guard against selecting the lane twice in one flush.
    in_round: bool,
}

impl Lane {
    /// Earliest pending lane event, if any (queue-armed ticks live in the
    /// queue and are not lane content).
    fn next_time(&self) -> Option<SimTime> {
        let mut t = self.subs.get(self.head).map(|e| e.0);
        if let Some(Reverse((rt, _, _))) = self.local_rets.peek() {
            t = Some(t.map_or(*rt, |x| x.min(*rt)));
        }
        if let Some(Reverse((st, _, _))) = self.local_subs.peek() {
            t = Some(t.map_or(*st, |x| x.min(*st)));
        }
        if let Some(pt) = self.popped_tick {
            t = Some(t.map_or(pt, |x| x.min(pt)));
        }
        t
    }

    fn has_content(&self) -> bool {
        self.next_time().is_some()
    }

    /// Staged submissions: queue-staged ones (a batch counted by its
    /// cloudlets) and locally released ones.
    fn staged_subs(&self) -> usize {
        let queued: usize = self.subs[self.head..]
            .iter()
            .map(|(_, s)| s.cloudlets().len())
            .sum();
        queued + self.local_subs.len()
    }

    /// Events staged for replay: the staged submissions, pending local
    /// release notifications, and the settle tick if one is armed
    /// (`armed`, the queue's slot) or popped.
    fn staged(&self, armed: Option<SimTime>) -> usize {
        self.staged_subs()
            + self.local_rets.len()
            + usize::from(armed.or(self.popped_tick).is_some())
    }
}

/// Input to one lane's replay.
struct LaneSeg {
    vm: VmId,
    dc: usize,
    lane: Lane,
    armed_before: Option<SimTime>,
    sched: Box<dyn CloudletScheduler>,
    /// Broker→datacenter latency for this lane's datacenter (release
    /// arithmetic input).
    latency: SimTime,
}

/// The per-cloudlet records of one lane replay. A flush's serial branch
/// recycles one set across its lanes, so a one-event round allocates no
/// record vectors.
#[derive(Default)]
struct Records {
    queued: Vec<CloudletId>,
    started: Vec<(CloudletId, SimTime)>,
    finished: Vec<FinishedCl>,
    /// Locally released children and their submit times (committed to the
    /// world exactly as `Broker::submit_one` would set them).
    released: Vec<(CloudletId, SimTime)>,
}

/// Everything a lane replay reports back for the sequential commit.
struct LaneOut {
    vm: VmId,
    dc: usize,
    sched: Box<dyn CloudletScheduler>,
    /// The lane, with consumed entries removed and any still-pending
    /// local content retained for later rounds.
    lane: Lane,
    rec: Records,
    sub_events: u64,
    ticks: u64,
    last_event: SimTime,
    last_now: SimTime,
    armed_before: Option<SimTime>,
    armed_after: Option<SimTime>,
}

/// The epoch driver's mutable state.
struct Driver {
    queue: EventQueue,
    clock: SimTime,
    processed: u64,
    lanes: Vec<Lane>,
    /// Lazy min-heap of `(lane next-event time, vm)`; entries are
    /// validated against the lane's actual next event on peek.
    dirty: BinaryHeap<Reverse<(SimTime, u32)>>,
    returns: BinaryHeap<Reverse<PendingReturn>>,
    /// Mirror of `returns` restricted to barrier-relevant (cross-child)
    /// completions: its head is the earliest pending release.
    rel_ats: BinaryHeap<Reverse<SimTime>>,
    return_ord: u64,
    /// Cross-child cloudlets currently staged or executing in a lane.
    /// While any exist, replay is also bounded by the earliest lane
    /// event (their completion times are not yet known).
    rel_inflight: u64,
    /// Per-cloudlet flags behind `rel_inflight`, sized like the plan's
    /// `has_cross` (empty for an edgeless plan).
    in_flight: Vec<bool>,
    broker_id: EntityId,
    /// Emptied records for the next serially replayed lane.
    spare: Records,
}

/// Runs any scenario on the sharded engine: plain batch, fault-shaped,
/// recovering or workflow DAG.
///
/// The caller ([`crate::simulation::SimulationBuilder::run`]) has
/// validated the scenario and built the *real* datacenter and broker
/// entities exactly as the sequential kernel would. The loop alternates
/// between draining every queue event at or before the current release
/// barrier — VM-local deliveries (ticks, submissions and submission
/// batches to live VMs) are staged into lanes, control events
/// (placement, host failures and repairs, VM degrades, submissions
/// landing on dead VMs, cloudlet failures, retry wake-ups) are handled by
/// the real entities after a bounded flush — and *release rounds* that
/// replay all lanes up to the barrier and deliver matured completions to
/// the real broker (whose `CloudletReturn` handler performs the cross
/// releases). The barrier `B = min(R, G)` is sound: any future cross
/// release happens at the return time of a pending completion (≥ R), or
/// downstream of a staged cross-parent cloudlet whose completion is no
/// earlier than its lane's next event (≥ G, inductively over release
/// chains); queue events are never outrun because rounds fire only when
/// the earliest deliverable queue event lies beyond the barrier. With an
/// edgeless plan the barrier is always `None`: control instants alone
/// separate the parallel epochs, and a plain batch, which has none after
/// placement, replays in the final flush.
pub(crate) fn run_epochs(
    world: &mut World,
    dcs: &mut [Datacenter],
    broker: &mut Broker,
    max_events: u64,
    mut plan: DagPlan,
) -> RunStats {
    let broker_id = EntityId::from_index(dcs.len());
    let vm_count = world.vms.len();
    // Mask locally resolved children so the broker never double-releases
    // them (their counters keep a sentinel excess that no return clears).
    for (c, &masked) in plan.local_mask.iter().enumerate() {
        if masked {
            broker.mask_release(CloudletId::from_index(c));
        }
    }
    let mut lanes: Vec<Lane> = Vec::with_capacity(vm_count);
    for pending in std::mem::take(&mut plan.lane_pending) {
        lanes.push(Lane {
            local_pending: pending,
            ..Lane::default()
        });
    }
    lanes.resize_with(vm_count, Lane::default);
    let mut driver = Driver::new(lanes, plan.has_cross.len(), broker_id);
    // Start every entity at t=0 in registration order, as the kernel does.
    for i in 0..=dcs.len() {
        let id = EntityId::from_index(i);
        driver.queue.push(SimTime::ZERO, id, id, Event::Start);
    }
    // The kernel learns the broker address from the first submission; the
    // driver diverts submissions around the entity, so pre-seed the hint
    // (only ever read once submissions have landed — equivalent).
    for dc in dcs.iter_mut() {
        dc.set_broker_hint(broker_id);
    }

    loop {
        let barrier = driver.barrier();
        let head = driver.queue.peek_deliverable_time();
        if let Some(t) = head {
            if barrier.is_none_or(|b| t <= b) {
                let ev = driver.queue.pop().expect("deliverable head pops");
                match ev.event {
                    Event::VmTick { vm } => {
                        driver.stage_tick(vm, ev.time);
                    }
                    Event::CloudletSubmit { cloudlet, vm } if world.vm(vm).is_active() => {
                        driver.stage_sub(vm, ev.time, Sub::One(cloudlet), &plan);
                    }
                    Event::CloudletSubmitBatch { vm, cloudlets } if world.vm(vm).is_active() => {
                        driver.stage_sub(vm, ev.time, Sub::Batch(cloudlets), &plan);
                    }
                    _ => {
                        // A control event: cloudlet failures, host faults
                        // and repairs, degrades, retry wake-ups, placement
                        // traffic, dead-VM submissions. Everything staged
                        // at or before it replays first, matured
                        // completions deliver first — kernel order.
                        if let Event::CloudletFailed { cloudlet } = ev.event {
                            driver.settle(cloudlet);
                        }
                        driver.flush(world, dcs, Bound::Control(ev.time), &plan);
                        driver.deliver_returns(world, broker, Some(ev.time), false, &plan);
                        driver.clock = driver.clock.max(ev.time);
                        driver.processed += 1;
                        if driver.processed > max_events {
                            return RunStats {
                                end_time: driver.clock,
                                events_processed: driver.processed,
                                drained: false,
                            };
                        }
                        let dest = ev.dest;
                        let mut ctx = Context::attach(ev.time, dest, &mut driver.queue);
                        if dest.index() < dcs.len() {
                            dcs[dest.index()].handle(world, &mut ctx, ev);
                        } else {
                            broker.handle(world, &mut ctx, ev);
                        }
                    }
                }
                continue;
            }
        }
        // Every deliverable queue event (if any) lies beyond the barrier:
        // run a release round, or the final drain when nothing bounds us.
        match barrier {
            Some(b) => {
                driver.flush(world, dcs, Bound::Round(b), &plan);
                driver.deliver_returns(world, broker, Some(b), true, &plan);
                if driver.processed > max_events {
                    return RunStats {
                        end_time: driver.clock,
                        events_processed: driver.processed,
                        drained: false,
                    };
                }
            }
            None => {
                driver.flush(world, dcs, Bound::All, &plan);
                driver.deliver_returns(world, broker, None, true, &plan);
                if driver.queue.peek_deliverable_time().is_none() {
                    break;
                }
            }
        }
    }
    debug_assert!(driver.queue.is_empty(), "epoch driver left events behind");
    debug_assert!(driver.returns.is_empty(), "undelivered completions");
    debug_assert!(
        driver.lanes.iter().all(|l| !l.has_content()),
        "epoch driver left lane content behind"
    );
    let drained = driver.processed <= max_events;
    RunStats {
        end_time: driver.clock,
        events_processed: driver.processed,
        drained,
    }
}

impl Driver {
    /// A driver over `lanes` with an empty queue, tracking `cloudlets`
    /// in-flight flags (zero for an edgeless plan).
    fn new(lanes: Vec<Lane>, cloudlets: usize, broker_id: EntityId) -> Driver {
        Driver {
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            processed: 0,
            lanes,
            dirty: BinaryHeap::new(),
            returns: BinaryHeap::new(),
            rel_ats: BinaryHeap::new(),
            return_ord: 0,
            rel_inflight: 0,
            in_flight: vec![false; cloudlets],
            broker_id,
            spare: Records::default(),
        }
    }

    /// The release barrier: the earliest instant at which a cross release
    /// can still be injected. `None` when no cross release is pending or
    /// in flight anywhere.
    fn barrier(&mut self) -> Option<SimTime> {
        let r = self.rel_ats.peek().map(|Reverse(t)| *t);
        let g = if self.rel_inflight > 0 {
            self.peek_dirty()
        } else {
            None
        };
        match (r, g) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Earliest lane event across the fleet (validated lazy heap).
    fn peek_dirty(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, vm))) = self.dirty.peek() {
            if self.lanes[vm as usize].next_time() == Some(t) {
                return Some(t);
            }
            self.dirty.pop();
        }
        None
    }

    fn mark_dirty(&mut self, vm: VmId) {
        if let Some(t) = self.lanes[vm.index()].next_time() {
            self.dirty.push(Reverse((t, vm.0)));
        }
    }

    fn stage_tick(&mut self, vm: VmId, time: SimTime) {
        let lane = &mut self.lanes[vm.index()];
        debug_assert!(lane.popped_tick.is_none(), "one armed tick per VM");
        lane.popped_tick = Some(time);
        self.mark_dirty(vm);
    }

    fn stage_sub(&mut self, vm: VmId, time: SimTime, sub: Sub, plan: &DagPlan) {
        for c in sub.cloudlets() {
            if plan.crosses(*c) && !self.in_flight[c.index()] {
                self.in_flight[c.index()] = true;
                self.rel_inflight += 1;
            }
        }
        self.lanes[vm.index()].subs.push((time, sub));
        self.mark_dirty(vm);
    }

    /// A staged cloudlet finished, or a `CloudletFailed` control was
    /// popped for it: if it was an in-flight cross parent (a failed one's
    /// host died, or recovery drained it), release the barrier hold. A
    /// later retry re-stages (and re-counts) it.
    fn settle(&mut self, cloudlet: CloudletId) {
        if let Some(flag @ true) = self.in_flight.get_mut(cloudlet.index()) {
            *flag = false;
            self.rel_inflight -= 1;
        }
    }

    /// Replays every lane with an event due under `bound`, commits the
    /// results in ascending VM order and reconciles armed ticks.
    ///
    /// Due lanes replay and commit in ascending-`VmId` chunks, each chunk
    /// committed before the next is built, so a flush holds one chunk's
    /// replay records rather than the whole fleet's (a plain batch is a
    /// single flush of every lane). A chunk whose staged work pays for a
    /// fork ([`Driver::forks`]) replays on the worker pool; any other
    /// replays and commits lane by lane on the driver thread, through the
    /// same [`Driver::segment`], [`replay_lane`] and [`Driver::commit`].
    /// Neither chunking nor the serial interleave can change the trace: a
    /// lane's replay reads only its own VM, scheduler, armed tick and
    /// cloudlets, which no other lane's commit writes, and commit order
    /// stays ascending `VmId`.
    fn flush(&mut self, world: &mut World, dcs: &mut [Datacenter], bound: Bound, plan: &DagPlan) {
        let limit = match bound {
            Bound::Control(t) => Some(t),
            Bound::Round(b) => Some(b),
            Bound::All => None,
        };
        let mut due: Vec<VmId> = Vec::new();
        while let Some(&Reverse((t, vm))) = self.dirty.peek() {
            if limit.is_some_and(|b| t > b) {
                break;
            }
            self.dirty.pop();
            let lane = &mut self.lanes[vm as usize];
            if lane.next_time() == Some(t) && !lane.in_round {
                lane.in_round = true;
                due.push(VmId(vm));
            }
        }
        due.sort_unstable_by_key(|v| v.index());
        for vms in due.chunks(FLUSH_CHUNK_LANES) {
            if self.forks(vms) {
                let segs: Vec<LaneSeg> = vms
                    .iter()
                    .map(|&vm| self.segment(world, dcs, vm, plan))
                    .collect();
                let (vms, cloudlets) = (&world.vms, &world.cloudlets);
                let outs: Vec<LaneOut> = segs
                    .into_par_iter()
                    .map(|s| replay_lane(s, vms, cloudlets, plan, bound, Records::default()))
                    .collect();
                for out in outs {
                    self.commit(world, dcs, out, plan);
                }
            } else {
                for &vm in vms {
                    let seg = self.segment(world, dcs, vm, plan);
                    let rec = std::mem::take(&mut self.spare);
                    let out = replay_lane(seg, &world.vms, &world.cloudlets, plan, bound, rec);
                    self.spare = self.commit(world, dcs, out, plan);
                }
            }
        }
    }

    /// Whether a chunk of due lanes replays on the worker pool: it must
    /// hold two or more lanes and at least [`FORK_MIN_STAGED`] staged
    /// events. Keyed on the staged work, not on the lane count: most
    /// release rounds of a layered DAG carry one or two events in all.
    fn forks(&self, vms: &[VmId]) -> bool {
        if vms.len() < 2 {
            return false;
        }
        let mut staged = 0;
        for &vm in vms {
            staged += self.lanes[vm.index()].staged(self.queue.armed_tick(vm));
            if staged >= FORK_MIN_STAGED {
                return true;
            }
        }
        false
    }

    /// Moves a due lane and its VM's scheduler out for replay.
    fn segment(
        &mut self,
        world: &World,
        dcs: &mut [Datacenter],
        vm: VmId,
        plan: &DagPlan,
    ) -> LaneSeg {
        let mut lane = std::mem::take(&mut self.lanes[vm.index()]);
        lane.in_round = false;
        let dc = world
            .vm(vm)
            .datacenter
            .expect("lane content implies placement")
            .index();
        let sched = dcs[dc]
            .take_sched(vm)
            .expect("lane content implies a live scheduler");
        LaneSeg {
            vm,
            dc,
            lane,
            armed_before: self.queue.armed_tick(vm),
            sched,
            latency: plan.topology.latency_to(DatacenterId::from_index(dc)),
        }
    }

    /// Applies one lane replay to the world, the entities and the queue,
    /// and hands back its records emptied.
    fn commit(
        &mut self,
        world: &mut World,
        dcs: &mut [Datacenter],
        out: LaneOut,
        plan: &DagPlan,
    ) -> Records {
        let mut rec = out.rec;
        self.processed += out.ticks + out.sub_events;
        self.clock = self.clock.max(out.last_event);
        let dc_id = EntityId::from_index(out.dc);
        dcs[out.dc].put_sched(out.vm, out.sched);
        if out.armed_after != out.armed_before {
            self.queue.cancel_vm_tick(out.vm);
            if let Some(t) = out.armed_after {
                self.queue
                    .push_vm_tick(out.last_now, dc_id, dc_id, out.vm, t);
            }
        }
        for &c in &rec.queued {
            let cl = world.cloudlet_mut(c);
            cl.status = CloudletStatus::Queued;
            cl.vm = Some(out.vm);
        }
        for &(c, t) in &rec.released {
            world.cloudlet_mut(c).submit_time = Some(t);
        }
        for &(c, t) in &rec.started {
            let cl = world.cloudlet_mut(c);
            if cl.start_time.is_none() {
                cl.start_time = Some(t);
            }
            cl.status = CloudletStatus::Running;
        }
        let cost = dcs[out.dc].characteristics().cost;
        let vm_spec = &world.vms[out.vm.index()].spec;
        for f in rec.finished.drain(..) {
            let cl = &mut world.cloudlets[f.id.index()];
            // The effective start is the earliest recorded one: an earlier
            // epoch's, else this replay's first, committed just above.
            // Cost follows the execution span.
            let cpu_seconds = cl
                .start_time
                .map_or(0.0, |s| f.finish.saturating_sub(s).as_secs());
            cl.cost = cloudlet_cost(&cost, vm_spec, &cl.spec, cpu_seconds);
            cl.finish_time = Some(f.finish);
            cl.status = CloudletStatus::Finished;
            self.settle(f.id);
            if plan.crosses(f.id) {
                self.rel_ats.push(Reverse(f.return_at));
            }
            self.returns.push(Reverse(PendingReturn {
                at: f.return_at,
                ord: self.return_ord,
                cloudlet: f.id,
            }));
            self.return_ord += 1;
        }
        self.lanes[out.vm.index()] = out.lane;
        self.mark_dirty(out.vm);
        rec.queued.clear();
        rec.started.clear();
        rec.released.clear();
        rec
    }

    /// Delivers matured completions to the real broker in (time,
    /// generation) order. This is where cross releases happen: the
    /// broker's return handler decrements pending-parent counters and
    /// submits freed children. Without dependencies it only folds
    /// counters, so delivering at epoch granularity instead of
    /// interleaved with bulk ticks is unobservable.
    ///
    /// The final drain (`bound == None`) delivers every pending return,
    /// so it sorts the heap's buffer once in place instead of popping it
    /// entry by entry (`scale-batch`: 200 000 returns).
    fn deliver_returns(
        &mut self,
        world: &mut World,
        broker: &mut Broker,
        bound: Option<SimTime>,
        inclusive: bool,
        plan: &DagPlan,
    ) {
        let Some(h) = bound else {
            let mut all = std::mem::take(&mut self.returns).into_vec();
            // (at, ord) keys are unique, so an unstable sort is exact.
            all.sort_unstable_by(|Reverse(a), Reverse(b)| a.cmp(b));
            for Reverse(r) in all {
                self.deliver(world, broker, r, plan);
            }
            return;
        };
        while let Some(Reverse(head)) = self.returns.peek() {
            let due = if inclusive { head.at <= h } else { head.at < h };
            if !due {
                break;
            }
            let Reverse(r) = self.returns.pop().expect("peeked entry pops");
            self.deliver(world, broker, r, plan);
        }
    }

    /// Hands one completion to the real broker as a `CloudletReturn`.
    fn deliver(
        &mut self,
        world: &mut World,
        broker: &mut Broker,
        r: PendingReturn,
        plan: &DagPlan,
    ) {
        if plan.crosses(r.cloudlet) {
            let Some(Reverse(t)) = self.rel_ats.pop() else {
                unreachable!("cross return delivered without barrier entry");
            };
            debug_assert_eq!(t, r.at, "barrier mirror out of sync");
        }
        self.processed += 1;
        self.clock = self.clock.max(r.at);
        let ev = ScheduledEvent {
            time: r.at,
            seq: 0,
            dest: self.broker_id,
            src: self.broker_id,
            event: Event::CloudletReturn {
                cloudlet: r.cloudlet,
            },
        };
        let mut ctx = Context::attach(r.at, self.broker_id, &mut self.queue);
        broker.handle(world, &mut ctx, ev);
    }
}

/// Replays one lane under `bound`: queue-staged submissions and
/// submission batches, locally released submissions, local release
/// notifications and the settle timer, merged in kernel order. Mirrors
/// `Datacenter::handle_cloudlet_submit`, `handle_vm_tick` and
/// `apply_tick` against the VM's own scheduler.
fn replay_lane(
    seg: LaneSeg,
    vms: &[Vm],
    cloudlets: &[Cloudlet],
    plan: &DagPlan,
    bound: Bound,
    mut rec: Records,
) -> LaneOut {
    let LaneSeg {
        vm,
        dc,
        mut lane,
        armed_before,
        mut sched,
        latency,
    } = seg;
    let vm_spec = &vms[vm.index()].spec;
    let running = |c: CloudletId| {
        let spec = &cloudlets[c.index()].spec;
        RunningCloudlet::new(c, spec.length_mi, spec.pes)
    };
    // Sized from the staged submissions, each queued once here and most
    // started and finished here too: a hint, not a bound (cloudlets
    // queued in earlier epochs may also start or finish).
    let subs = lane.staged_subs();
    rec.queued.reserve(subs);
    rec.started.reserve(subs);
    rec.finished.reserve(subs);
    let (mut sub_events, mut ticks) = (0u64, 0u64);
    let (mut last_event, mut last_now) = (SimTime::ZERO, SimTime::ZERO);
    // The armed deadline: either the slot still in the queue or the tick
    // this epoch already popped — never both, since popping clears the
    // slot and nothing re-arms it until the flush.
    let popped_tick = lane.popped_tick;
    debug_assert!(
        armed_before.is_none() || popped_tick.is_none(),
        "popped and armed tick cannot coexist"
    );
    let mut armed = armed_before.or(popped_tick);
    // Event classes, in tie-break order at equal times:
    //   0 = local release notification (commutes with the submissions it
    //       does not create; processing it first means a same-instant
    //       released child lands *after* existing equal-time work, which
    //       is exactly the kernel's push-order),
    //   1 = queue-staged submission (lowest kernel seq),
    //   2 = locally released submission (pushed at release time, highest
    //       kernel seq),
    //   3 = settle tick (a tick armed earlier would carry a lower kernel
    //       seq, but a same-instant submit and settle commute on the
    //       scheduler, so the states agree).
    loop {
        let mut best: Option<(SimTime, u8)> = None;
        let mut consider = |t: SimTime, class: u8, ok: bool| {
            if ok && best.is_none_or(|(bt, bc)| t < bt || (t == bt && class < bc)) {
                best = Some((t, class));
            }
        };
        if let Some(&Reverse((t, _, _))) = lane.local_rets.peek() {
            let ok = match bound {
                Bound::Control(c) => t < c,
                Bound::Round(b) => t <= b,
                Bound::All => true,
            };
            consider(t, 0, ok);
        }
        if let Some(&(t, _)) = lane.subs.get(lane.head) {
            let ok = match bound {
                // Queue-staged entries were popped before the control, so
                // they are kernel-ordered before it even at equal times.
                Bound::Control(c) => {
                    debug_assert!(t <= c, "staged submission beyond control instant");
                    true
                }
                Bound::Round(b) => t <= b,
                Bound::All => true,
            };
            consider(t, 1, ok);
        }
        if let Some(&Reverse((t, _, _))) = lane.local_subs.peek() {
            let ok = match bound {
                Bound::Control(c) => t < c,
                Bound::Round(b) => t <= b,
                Bound::All => true,
            };
            consider(t, 2, ok);
        }
        if let Some(t) = armed {
            let ok = match bound {
                Bound::Control(c) => t < c || popped_tick == Some(t),
                Bound::Round(b) => t <= b,
                Bound::All => true,
            };
            consider(t, 3, ok);
        }
        let Some((now, class)) = best else { break };
        if class == 0 {
            // A same-VM parent's completion notification: decrement the
            // local pending counters and release freed children with the
            // broker's exact submit arithmetic. Not a kernel event for
            // this lane — the completion itself is counted when the
            // driver delivers it to the broker.
            let Some(Reverse((at, _, parent))) = lane.local_rets.pop() else {
                unreachable!("peeked entry pops");
            };
            for &child in plan.local_children(parent) {
                let slot = lane
                    .local_pending
                    .binary_search_by_key(&child, |e| e.0)
                    .expect("local child has a pending counter");
                let entry = &mut lane.local_pending[slot];
                debug_assert!(entry.1 > 0, "local child released twice");
                entry.1 -= 1;
                if entry.1 == 0 {
                    let c = CloudletId(child);
                    let spec = &cloudlets[c.index()].spec;
                    let in_delay = transfer_time(spec.file_size_mb, vm_spec.bw_mbps);
                    let wait = plan
                        .arrivals
                        .as_ref()
                        .map(|a| a[c.index()].saturating_sub(at))
                        .unwrap_or(SimTime::ZERO);
                    rec.released.push((c, at + wait));
                    lane.local_subs.push(Reverse((
                        at + wait + latency + in_delay,
                        lane.sub_ord,
                        c,
                    )));
                    lane.sub_ord += 1;
                }
            }
            continue;
        }
        last_now = now;
        last_event = last_event.max(now);
        let tick = match class {
            1 => {
                let sub = &lane.subs[lane.head].1;
                lane.head += 1;
                sub_events += 1;
                rec.queued.extend_from_slice(sub.cloudlets());
                match sub {
                    Sub::One(c) => sched.submit(now, running(*c)),
                    Sub::Batch(cs) => {
                        sched.submit_many(now, cs.iter().map(|&c| running(c)).collect())
                    }
                }
            }
            2 => {
                let Some(Reverse((_, _, c))) = lane.local_subs.pop() else {
                    unreachable!("peeked entry pops");
                };
                sub_events += 1;
                rec.queued.push(c);
                sched.submit(now, running(c))
            }
            _ => {
                armed = None;
                ticks += 1;
                sched.advance(now)
            }
        };
        rec.started.extend(tick.started.iter().map(|&c| (c, now)));
        for &c in &tick.finished {
            let cl = &cloudlets[c.index()];
            // Completion is notified after the output transfer; the cost
            // is settled at commit, once the start is recorded.
            let out_delay = transfer_time(cl.spec.output_size_mb, vm_spec.bw_mbps);
            let return_at = now + out_delay;
            last_event = last_event.max(return_at);
            if !plan.local_children(c).is_empty() {
                lane.local_rets.push(Reverse((return_at, lane.ret_ord, c)));
                lane.ret_ord += 1;
            }
            rec.finished.push(FinishedCl {
                id: c,
                finish: now,
                return_at,
            });
        }
        if let Some(p) = tick.next_completion {
            let t = p.max(now);
            if armed.is_none_or(|a| t < a || a < now) {
                armed = Some(t);
            }
        }
    }
    lane.popped_tick = None;
    // Compact only long lanes: dropping consumed batches frees the
    // broker's allocations on this worker thread, and doing that for every
    // drained lane of a plain batch serialized the workers on the
    // allocator (scale-batch lane replay took longer at 2 threads than at
    // 1). Short lanes keep them until the driver drops the lanes.
    if lane.head > 32 && lane.head * 2 >= lane.subs.len() {
        lane.subs.drain(..lane.head);
        lane.head = 0;
    }
    LaneOut {
        vm,
        dc,
        sched,
        lane,
        rec,
        sub_events,
        ticks,
        last_event,
        last_now,
        armed_before,
        armed_after: armed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three lanes on a driver with an empty queue.
    fn driver() -> Driver {
        let lanes = (0..3).map(|_| Lane::default()).collect();
        Driver::new(lanes, 0, EntityId(0))
    }

    #[test]
    fn a_chunk_forks_only_once_its_staged_events_reach_the_cutover() {
        let t = SimTime::ZERO;
        let mut d = driver();
        let batch = vec![CloudletId(0); FORK_MIN_STAGED - 4].into_boxed_slice();
        d.lanes[0].subs.push((t, Sub::Batch(batch)));
        d.lanes[1].subs.push((t, Sub::One(CloudletId(1))));
        d.lanes[1].popped_tick = Some(t);
        d.lanes[2].local_subs.push(Reverse((t, 0, CloudletId(2))));
        let all = [VmId(0), VmId(1), VmId(2)];
        assert_eq!(d.lanes[0].staged(None), FORK_MIN_STAGED - 4);
        assert_eq!(d.lanes[1].staged(None), 2);
        assert_eq!(d.lanes[2].staged(None), 1);
        assert!(!d.forks(&all), "one event below the cutover");

        // A queue-armed settle tick is one more staged event.
        d.queue
            .push_vm_tick(t, EntityId(0), EntityId(0), VmId(2), t);
        assert_eq!(d.lanes[2].staged(d.queue.armed_tick(VmId(2))), 2);
        assert!(d.forks(&all), "at the cutover");
        assert!(!d.forks(&all[..2]), "below it without lane 2");

        // Pending local release notifications count too.
        for c in [3, 4] {
            d.lanes[1]
                .local_rets
                .push(Reverse((t, u64::from(c), CloudletId(c))));
        }
        assert_eq!(d.lanes[1].staged(None), 4);
        assert!(d.forks(&all[..2]), "at the cutover again");

        // Consumed submissions do not count.
        d.lanes[0].head = 1;
        assert_eq!(d.lanes[0].staged(None), 0);
        assert!(!d.forks(&all), "far below once lane 0 is consumed");

        // A lone lane never forks, however much it holds.
        d.lanes[0].head = 0;
        assert!(!d.forks(&all[..1]));
    }
}
