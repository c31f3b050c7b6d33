//! The sharded simulation engine.
//!
//! Two replay paths live here, both bit-identical to the sequential
//! kernel at any thread count (the engine-equivalence suite enforces this
//! across seeds, scheduler flavours, fault plans, recovery policies,
//! resubmission and workflow DAGs):
//!
//! 1. **Free-running replay** ([`run`]) for the paper's dominant shape —
//!    a pre-computed cloudlet→VM assignment with no dependencies, no
//!    fault injection, no recovery and no resubmission. Every VM's
//!    timeline is independent of every other VM's once placement has
//!    happened, so the fleet is partitioned into contiguous shards that
//!    replay to completion on rayon workers with no synchronisation at
//!    all.
//!
//! 2. **The epoch driver** ([`run_epochs`]) for everything else. The run
//!    alternates between *control instants* — host failures and repairs,
//!    VM degrades, retry wake-ups, submissions landing on dead VMs —
//!    handled sequentially by the *real* [`crate::broker::Broker`] and
//!    [`crate::datacenter`] entities, and *bulk epochs* in between, where
//!    every VM's local events (submissions and submission batches to live
//!    VMs, settle ticks, completions) replay in parallel lanes up to the
//!    next control instant. Workflow DAGs add a *release barrier*: replay
//!    is also bounded by the earliest completion that can still release a
//!    cross-VM child, while releases whose parents all share the child's
//!    VM resolve inside that VM's lane. A run without dependencies is an
//!    edgeless plan, for which the barrier never binds. Determinism holds
//!    because the event queue's `(time, seq)` order already sorts every
//!    control event against everything staged before it, cross-VM effects
//!    only originate at control instants or barrier deliveries, and each
//!    lane reproduces the queue's tick-coalescing rules with a one-slot
//!    `armed` deadline. See DESIGN.md §"The epoch driver" for the horizon
//!    rule, the barrier soundness argument and why the free-running path
//!    stays.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rayon::prelude::*;

use crate::broker::Broker;
use crate::characteristics::CostModel;
use crate::cloudlet::{Cloudlet, CloudletStatus};
use crate::cloudlet_sched::{CloudletScheduler, RunningCloudlet, SchedulerKind};
use crate::cost::cloudlet_cost;
use crate::datacenter::{Datacenter, DatacenterBlueprint};
use crate::event::{Event, EventQueue, ScheduledEvent};
use crate::host::Host;
use crate::ids::{CloudletId, DatacenterId, EntityId, HostId, VmId};
use crate::kernel::{Context, Entity, RunStats, World};
use crate::network::{transfer_time, Topology};
use crate::time::SimTime;
use crate::vm::Vm;

/// Per-datacenter data the per-VM replay needs after placement.
struct DcInfo {
    scheduler: SchedulerKind,
    cost: CostModel,
}

/// Finished-cloudlet result produced by a shard.
struct Update {
    id: CloudletId,
    start: SimTime,
    finish: SimTime,
    cost: f64,
}

/// Everything a shard reports back for the deterministic merge.
struct ShardOut {
    updates: Vec<Update>,
    /// Latest event the shard's VMs would have put on the kernel clock
    /// (tick fires and completion returns, including output transfer).
    last_event: SimTime,
    /// `VmTick` events the sequential kernel would have delivered.
    ticks: u64,
}

/// Runs a plain batch scenario on the free-running sharded engine.
///
/// The caller ([`crate::simulation::SimulationBuilder::run`]) has already
/// validated the scenario and checked eligibility: no dependencies, no
/// fault injection (host failures, fault plans, recovery), no
/// resubmission. The event count is exact, so the run is reported as not
/// drained when it exceeds `max_events`, as the kernel would.
pub(crate) fn run(
    world: &mut World,
    blueprints: Vec<DatacenterBlueprint>,
    vm_placement: &[DatacenterId],
    assignment: &[VmId],
    arrivals: Option<&[SimTime]>,
    topology: &Topology,
    max_events: u64,
) -> RunStats {
    let dc_count = blueprints.len();

    // ---- Phase 1: VM placement, exactly as the kernel would order it.
    //
    // The kernel delivers `VmCreate`s ordered by (arrival time, push
    // sequence). All of a datacenter's creates share one latency and were
    // pushed in VM-index order, so each datacenter sees its VMs in index
    // order — which a single index-order loop over disjoint per-DC state
    // reproduces.
    let mut dc_infos = Vec::with_capacity(dc_count);
    let mut dc_states = Vec::with_capacity(dc_count);
    for blueprint in blueprints {
        assert!(!blueprint.hosts.is_empty(), "datacenter needs hosts");
        let hosts: Vec<Host> = blueprint
            .hosts
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Host::new(HostId::from_index(i), spec))
            .collect();
        dc_states.push((hosts, blueprint.allocation));
        dc_infos.push(DcInfo {
            scheduler: blueprint.scheduler,
            cost: blueprint.characteristics.cost,
        });
    }
    // The broker submits cloudlets when the last ack lands: each ack
    // arrives at its datacenter's latency, so readiness is the max.
    let mut t_ready = SimTime::ZERO;
    for (idx, dc) in vm_placement.iter().enumerate() {
        let vm_id = VmId::from_index(idx);
        world.vm_mut(vm_id).status = crate::vm::VmStatus::Requested;
        t_ready = t_ready.max(topology.latency_to(*dc));
        let spec = world.vm(vm_id).spec.clone();
        let (hosts, allocation) = &mut dc_states[dc.index()];
        let placed = allocation.select_host(hosts, &spec).and_then(|host_id| {
            let host = &mut hosts[host_id.index()];
            host.allocate_vm(vm_id, &spec).then_some(host_id)
        });
        match placed {
            Some(host_id) => world.vm_mut(vm_id).place(*dc, host_id),
            None => world.vm_mut(vm_id).reject(),
        }
    }
    drop(dc_states);

    // ---- Phase 2: submission grouping, mirroring the broker's batch
    // path bit for bit (same delay arithmetic, same group keys, same
    // first-occurrence order).
    let mut groups: Vec<(VmId, SimTime, Vec<CloudletId>)> = Vec::new();
    let mut group_of: HashMap<(u32, u64), usize> = HashMap::new();
    for idx in 0..assignment.len() {
        let cloudlet = CloudletId::from_index(idx);
        let vm_id = assignment[idx];
        let vm = world.vm(vm_id);
        if !vm.is_active() {
            world.cloudlet_mut(cloudlet).status = CloudletStatus::Failed;
            continue;
        }
        let dc = vm.datacenter.expect("active VM has a datacenter");
        let latency = topology.latency_to(dc);
        let spec = &world.cloudlets[idx].spec;
        let in_delay = transfer_time(spec.file_size_mb, vm.spec.bw_mbps);
        let wait = arrivals
            .map(|a| a[idx].saturating_sub(t_ready))
            .unwrap_or(SimTime::ZERO);
        let delay = wait + latency + in_delay;
        {
            let cl = world.cloudlet_mut(cloudlet);
            cl.submit_time = Some(t_ready + wait);
            cl.vm = Some(vm_id);
        }
        let slot = *group_of
            .entry((vm_id.0, delay.as_millis().to_bits()))
            .or_insert_with(|| {
                groups.push((vm_id, t_ready + delay, Vec::new()));
                groups.len() - 1
            });
        groups[slot].2.push(cloudlet);
    }
    let group_count = groups.len() as u64;

    // ---- Phase 3: per-VM replay across shards.
    let vm_count = world.vms.len();
    let mut per_vm: Vec<Vec<(SimTime, Vec<CloudletId>)>> = vec![Vec::new(); vm_count];
    for (vm_id, delivery, cls) in groups {
        per_vm[vm_id.index()].push((delivery, cls));
    }
    for subs in &mut per_vm {
        // Stable by delivery time: equal-time groups (distinct delays that
        // round to one instant) keep the broker's first-occurrence order.
        subs.sort_by_key(|g| g.0);
    }

    let threads = rayon::current_num_threads().max(1);
    let chunk = vm_count.div_ceil(threads).max(1);
    let ranges: Vec<(usize, usize)> = (0..vm_count)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(vm_count)))
        .collect();
    let vms = &world.vms;
    let cloudlets = &world.cloudlets;
    let per_vm_ref = &per_vm;
    let dc_infos_ref = &dc_infos;
    let shard_results: Vec<ShardOut> = ranges
        .into_par_iter()
        .map(|(lo, hi)| {
            let mut out = ShardOut {
                updates: Vec::new(),
                last_event: SimTime::ZERO,
                ticks: 0,
            };
            for vi in lo..hi {
                replay_vm(&vms[vi], &per_vm_ref[vi], cloudlets, dc_infos_ref, &mut out);
            }
            out
        })
        .collect();

    // ---- Deterministic merge. Shard results cover disjoint cloudlets
    // (each belongs to exactly one VM), so merge order cannot matter; we
    // still apply them in shard order.
    let start_events = dc_count as u64 + 1; // every entity gets a Start
    let mut events = start_events + 2 * vm_count as u64 + group_count;
    let mut end_time = t_ready;
    for shard in shard_results {
        end_time = end_time.max(shard.last_event);
        events += shard.ticks + shard.updates.len() as u64;
        for u in shard.updates {
            let cl = world.cloudlet_mut(u.id);
            cl.status = CloudletStatus::Finished;
            cl.start_time = Some(u.start);
            cl.finish_time = Some(u.finish);
            cl.cost = u.cost;
        }
    }
    RunStats {
        end_time,
        events_processed: events,
        drained: events <= max_events,
    }
}

/// Replays one VM's event sequence: submission batches interleaved with
/// the coalesced tick timer, exactly as the sequential kernel delivers
/// them.
fn replay_vm(
    vm: &Vm,
    subs: &[(SimTime, Vec<CloudletId>)],
    cloudlets: &[Cloudlet],
    dc_infos: &[DcInfo],
    out: &mut ShardOut,
) {
    if subs.is_empty() {
        return;
    }
    let dc = vm.datacenter.expect("VM with submissions is placed");
    let info = &dc_infos[dc.index()];
    let mut sched = info.scheduler.build(vm.spec.mips, vm.spec.pes);
    // The one-slot armed deadline reproduces the event queue's per-VM
    // coalescing: at most one live tick, superseded only by an earlier
    // one (see `EventQueue::push_vm_tick`).
    let mut armed: Option<SimTime> = None;
    let mut gi = 0usize;
    let mut starts: HashMap<CloudletId, SimTime> = HashMap::new();
    loop {
        // Next event is the earlier of the next submission batch and the
        // armed tick. On a tie the submission wins: submission events were
        // pushed when the fleet came up, before any tick could be armed,
        // so they carry lower sequence numbers.
        let next_sub = subs.get(gi).map(|g| g.0);
        let (now, is_sub) = match (next_sub, armed) {
            (Some(s), Some(a)) => {
                if s <= a {
                    (s, true)
                } else {
                    (a, false)
                }
            }
            (Some(s), None) => (s, true),
            (None, Some(a)) => (a, false),
            (None, None) => break,
        };
        out.last_event = out.last_event.max(now);
        let tick = if is_sub {
            let batch: Vec<RunningCloudlet> = subs[gi]
                .1
                .iter()
                .map(|&c| {
                    let cl = &cloudlets[c.index()];
                    RunningCloudlet::new(c, cl.spec.length_mi, cl.spec.pes)
                })
                .collect();
            gi += 1;
            sched.submit_many(now, batch)
        } else {
            armed = None;
            out.ticks += 1;
            sched.advance(now)
        };
        for c in &tick.started {
            starts.insert(*c, now);
        }
        for &c in &tick.finished {
            let start = starts[&c];
            // Mirrors `Datacenter::apply_tick`: cost from the execution
            // span, completion notified after the output transfer.
            let cpu_seconds = now.saturating_sub(start).as_secs();
            let spec = &cloudlets[c.index()].spec;
            let cost = cloudlet_cost(&info.cost, &vm.spec, spec, cpu_seconds);
            let out_delay = transfer_time(spec.output_size_mb, vm.spec.bw_mbps);
            out.last_event = out.last_event.max(now + out_delay);
            out.updates.push(Update {
                id: c,
                start,
                finish: now,
                cost,
            });
        }
        if let Some(p) = tick.next_completion {
            let t = p.max(now);
            if armed.is_none_or(|a| t < a || a < now) {
                armed = Some(t);
            }
        }
    }
}

// ====================================================================
// Epoch driver: fault shaping, recovery, resubmission and workflow DAGs.
// ====================================================================

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
    cost: f64,
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
/// Under fault shaping (host failures, recovery, resubmission) every
/// child is cross: resubmission can rewrite the assignment mid-run, so
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
    /// the release barrier.
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
                has_cross: vec![false; n],
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
    Batch(Vec<CloudletId>),
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
}

/// Input to one lane's parallel replay.
struct LaneSeg {
    vm: VmId,
    dc: usize,
    lane: Lane,
    armed_before: Option<SimTime>,
    sched: Box<dyn CloudletScheduler>,
    cost: CostModel,
    /// Broker→datacenter latency for this lane's datacenter (release
    /// arithmetic input).
    latency: SimTime,
}

/// Everything a lane replay reports back for the sequential commit.
struct LaneOut {
    vm: VmId,
    dc: usize,
    sched: Box<dyn CloudletScheduler>,
    /// The lane, with consumed entries removed and any still-pending
    /// local content retained for later rounds.
    lane: Lane,
    queued: Vec<CloudletId>,
    started: Vec<(CloudletId, SimTime)>,
    finished: Vec<FinishedCl>,
    /// Locally released children and their submit times (committed to the
    /// world exactly as `Broker::submit_one` would set them).
    released: Vec<(CloudletId, SimTime)>,
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
    in_flight: Vec<bool>,
    broker_id: EntityId,
}

/// Runs a fault-shaped, recovering, resubmitting or workflow-DAG scenario
/// on the epoch-sharded engine.
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
/// separate the parallel epochs.
pub(crate) fn run_epochs(
    world: &mut World,
    dcs: &mut [Datacenter],
    broker: &mut Broker,
    max_events: u64,
    mut plan: DagPlan,
) -> RunStats {
    let broker_id = EntityId::from_index(dcs.len());
    let n = world.cloudlets.len();
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
    let mut driver = Driver {
        queue: EventQueue::new(),
        clock: SimTime::ZERO,
        processed: 0,
        lanes,
        dirty: BinaryHeap::new(),
        returns: BinaryHeap::new(),
        rel_ats: BinaryHeap::new(),
        return_ord: 0,
        rel_inflight: 0,
        in_flight: vec![false; n],
        broker_id,
    };
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
                            driver.note_failed(cloudlet);
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
            if plan.has_cross[c.index()] && !self.in_flight[c.index()] {
                self.in_flight[c.index()] = true;
                self.rel_inflight += 1;
            }
        }
        self.lanes[vm.index()].subs.push((time, sub));
        self.mark_dirty(vm);
    }

    /// A `CloudletFailed` control was popped: if the cloudlet was staged
    /// as an in-flight cross parent (its host died, or recovery drained
    /// it), it can no longer complete — release the barrier hold. A
    /// later resubmission re-stages (and re-counts) it.
    fn note_failed(&mut self, cloudlet: CloudletId) {
        if self.in_flight[cloudlet.index()] {
            self.in_flight[cloudlet.index()] = false;
            self.rel_inflight -= 1;
        }
    }

    /// Replays every lane with an event due under `bound`, commits the
    /// results in ascending VM order and reconciles armed ticks.
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
        if due.is_empty() {
            return;
        }
        due.sort_unstable_by_key(|v| v.index());
        let mut segs: Vec<LaneSeg> = Vec::with_capacity(due.len());
        for vm in due {
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
            segs.push(LaneSeg {
                vm,
                dc,
                lane,
                armed_before: self.queue.armed_tick(vm),
                sched,
                cost: dcs[dc].characteristics().cost,
                latency: plan.topology.latency_to(DatacenterId::from_index(dc)),
            });
        }
        let vms = &world.vms;
        let cloudlets = &world.cloudlets;
        let outs: Vec<LaneOut> = if segs.len() > 1 {
            segs.into_par_iter()
                .map(|s| replay_lane(s, vms, cloudlets, plan, bound))
                .collect()
        } else {
            segs.into_iter()
                .map(|s| replay_lane(s, vms, cloudlets, plan, bound))
                .collect()
        };
        for out in outs {
            self.processed += out.ticks + out.sub_events;
            self.clock = self.clock.max(out.last_event);
            let dc_id = EntityId::from_index(out.dc);
            dcs[out.dc].put_sched(out.vm, out.sched);
            dcs[out.dc].note_completed(out.finished.len() as u64);
            if out.armed_after != out.armed_before {
                self.queue.cancel_vm_tick(out.vm);
                if let Some(t) = out.armed_after {
                    self.queue
                        .push_vm_tick(out.last_now, dc_id, dc_id, out.vm, t);
                }
            }
            for &c in &out.queued {
                let cl = world.cloudlet_mut(c);
                cl.status = CloudletStatus::Queued;
                cl.vm = Some(out.vm);
            }
            for &(c, t) in &out.released {
                world.cloudlet_mut(c).submit_time = Some(t);
            }
            for &(c, t) in &out.started {
                let cl = world.cloudlet_mut(c);
                if cl.start_time.is_none() {
                    cl.start_time = Some(t);
                }
                cl.status = CloudletStatus::Running;
            }
            for f in out.finished {
                let cl = world.cloudlet_mut(f.id);
                cl.finish_time = Some(f.finish);
                cl.status = CloudletStatus::Finished;
                cl.cost = f.cost;
                if self.in_flight[f.id.index()] {
                    self.in_flight[f.id.index()] = false;
                    self.rel_inflight -= 1;
                }
                if plan.has_cross[f.id.index()] {
                    self.rel_ats.push(Reverse(f.return_at));
                }
                self.returns.push(Reverse(PendingReturn {
                    at: f.return_at,
                    ord: self.return_ord,
                    cloudlet: f.id,
                }));
                self.return_ord += 1;
            }
            let vm = out.vm;
            self.lanes[vm.index()] = out.lane;
            self.mark_dirty(vm);
        }
    }

    /// Delivers matured completions to the real broker in (time,
    /// generation) order. This is where cross releases happen: the
    /// broker's return handler decrements pending-parent counters and
    /// submits freed children. Without dependencies it only folds
    /// counters, so delivering at epoch granularity instead of
    /// interleaved with bulk ticks is unobservable.
    fn deliver_returns(
        &mut self,
        world: &mut World,
        broker: &mut Broker,
        bound: Option<SimTime>,
        inclusive: bool,
        plan: &DagPlan,
    ) {
        while let Some(Reverse(head)) = self.returns.peek() {
            let due = match bound {
                None => true,
                Some(h) if inclusive => head.at <= h,
                Some(h) => head.at < h,
            };
            if !due {
                break;
            }
            let Reverse(r) = self.returns.pop().expect("peeked entry pops");
            if plan.has_cross[r.cloudlet.index()] {
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
) -> LaneOut {
    let LaneSeg {
        vm,
        dc,
        mut lane,
        armed_before,
        mut sched,
        cost,
        latency,
    } = seg;
    let vm_spec = &vms[vm.index()].spec;
    let running = |c: CloudletId| {
        let spec = &cloudlets[c.index()].spec;
        RunningCloudlet::new(c, spec.length_mi, spec.pes)
    };
    let mut queued = Vec::new();
    let mut started = Vec::new();
    let mut finished = Vec::new();
    let mut released = Vec::new();
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
    let mut local_starts: HashMap<CloudletId, SimTime> = HashMap::new();
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
                    released.push((c, at + wait));
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
                queued.extend_from_slice(sub.cloudlets());
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
                queued.push(c);
                sched.submit(now, running(c))
            }
            _ => {
                armed = None;
                ticks += 1;
                sched.advance(now)
            }
        };
        for &c in &tick.started {
            local_starts.entry(c).or_insert(now);
            started.push((c, now));
        }
        for &c in &tick.finished {
            let cl = &cloudlets[c.index()];
            // The effective start is the earliest recorded one (world from
            // earlier epochs, else this replay); cost from the execution
            // span, completion notified after the output transfer.
            let start = cl.start_time.or_else(|| local_starts.get(&c).copied());
            let cpu_seconds = start
                .map(|s| now.saturating_sub(s).as_secs())
                .unwrap_or(0.0);
            let cl_cost = cloudlet_cost(&cost, vm_spec, &cl.spec, cpu_seconds);
            let out_delay = transfer_time(cl.spec.output_size_mb, vm_spec.bw_mbps);
            let return_at = now + out_delay;
            last_event = last_event.max(return_at);
            if !plan.local_children(c).is_empty() {
                lane.local_rets.push(Reverse((return_at, lane.ret_ord, c)));
                lane.ret_ord += 1;
            }
            finished.push(FinishedCl {
                id: c,
                finish: now,
                cost: cl_cost,
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
    if lane.head > 32 && lane.head * 2 >= lane.subs.len() {
        lane.subs.drain(..lane.head);
        lane.head = 0;
    }
    LaneOut {
        vm,
        dc,
        sched,
        lane,
        queued,
        started,
        finished,
        released,
        sub_events,
        ticks,
        last_event,
        last_now,
        armed_before,
        armed_after: armed,
    }
}
