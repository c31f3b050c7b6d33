//! Simulation events and the deterministic event queue.
//!
//! The kernel advances by repeatedly popping the earliest scheduled event.
//! Ties on time are broken by insertion sequence number, which makes runs
//! fully deterministic for a fixed input.
//!
//! The queue is a *monotone radix heap* over an order-preserving `u64`
//! key of the event time. Bucket 0 holds the events at the last refill
//! time, appended in order and drained by cursor; bucket `i` holds the
//! events whose key first differs from that time at bit `i − 1`. A refill
//! moves only the lowest non-empty bucket, re-based on its earliest time,
//! and a bucket of one time is handed to bucket 0 whole (a bucket filled
//! only by pushes tracks its key range, so that needs no scan). Both
//! workload shapes stay cheap:
//!
//! - *tie-heavy* runs — a broker submitting 10⁶ cloudlets lands them on a
//!   handful of distinct delivery times — push and pop by O(1) appends and
//!   cursor reads on bucket 0;
//! - *distinct-timestamp* runs — time-shared heterogeneous finish times
//!   are all different — pay one bucket index (`xor` and
//!   `leading_zeros`) per push and move each event at most once per
//!   key bit, with no per-timestamp allocation or tree node.
//!
//! A push earlier than the last refill time (the epoch driver's pushes
//! before a time it already peeked) goes to a small `(time, seq)` binary
//! heap that drains before the buckets.
//!
//! `VmTick` timer events additionally go through [`EventQueue::push_vm_tick`],
//! which keeps one armed deadline per VM and lazily drops superseded or
//! cancelled ticks at pop time, so stale duplicates never reach the kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ids::{CloudletId, EntityId, HostId, VmId};
use crate::time::SimTime;

/// The payload of a scheduled event.
///
/// Events are the only communication channel between kernel entities
/// (brokers and datacenters), mirroring CloudSim's message-passing model.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Kernel start-of-simulation signal, delivered to every entity at t=0.
    Start,
    /// Broker asks a datacenter to instantiate a VM.
    VmCreate {
        /// The VM to create.
        vm: VmId,
    },
    /// Datacenter acknowledges (or refuses) a VM creation.
    VmCreateAck {
        /// The VM the request was about.
        vm: VmId,
        /// Whether a host was found.
        success: bool,
    },
    /// Broker submits a cloudlet for execution on a previously created VM.
    CloudletSubmit {
        /// The cloudlet to execute.
        cloudlet: CloudletId,
        /// The VM the scheduler bound it to.
        vm: VmId,
    },
    /// Broker submits a batch of cloudlets bound to one VM, all delivered
    /// at the same time — the VM's scheduler settles once for the whole
    /// group instead of once per cloudlet.
    CloudletSubmitBatch {
        /// The VM the batch is bound to.
        vm: VmId,
        /// The cloudlets, in submission order (boxed so the payload keeps
        /// every queued event at 48 bytes).
        cloudlets: Box<[CloudletId]>,
    },
    /// Datacenter returns a completed cloudlet to its broker.
    CloudletReturn {
        /// The finished cloudlet.
        cloudlet: CloudletId,
    },
    /// Datacenter-internal timer: re-evaluate the run-queue of one VM.
    VmTick {
        /// The VM whose queue should be settled.
        vm: VmId,
    },
    /// Datacenter returns a cloudlet that can no longer run (its VM was
    /// destroyed or never existed).
    CloudletFailed {
        /// The failed cloudlet.
        cloudlet: CloudletId,
    },
    /// Failure injection: a host goes down, taking its VMs with it.
    HostFail {
        /// The failing host (within the receiving datacenter).
        host: HostId,
    },
    /// Fault injection: a previously failed host comes back. Its PEs are
    /// repaired and the VMs that died with it are re-provisioned, so the
    /// capacity rejoins the fleet for subsequent retry batches.
    HostRepair {
        /// The repaired host (within the receiving datacenter).
        host: HostId,
    },
    /// Fault injection: a VM starts (or stops) straggling. The VM's
    /// effective per-PE rate becomes `factor × spec.mips`; `factor == 1.0`
    /// restores nominal speed. Work already queued keeps running at the
    /// new rate from the event time onward.
    VmDegrade {
        /// The straggling VM.
        vm: VmId,
        /// Multiplier on the VM's nominal MIPS, in `(0, 1]`.
        factor: f64,
    },
    /// Broker-internal timer: a retry batch's backoff expired; collect the
    /// pending failed cloudlets and reschedule them.
    RetryWake,
}

/// An event bound to a destination and a firing time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent {
    /// Simulated firing time.
    pub time: SimTime,
    /// Monotonic tie-breaker assigned by the queue.
    pub seq: u64,
    /// Receiving entity.
    pub dest: EntityId,
    /// Sending entity.
    pub src: EntityId,
    /// Payload.
    pub event: Event,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Radix buckets: bucket 0 plus one per bit of the 64-bit time key.
const BUCKETS: usize = 65;

/// Order-preserving map from an event time to a `u64` key: `a < b` as
/// times iff `key(a) < key(b)`, for every finite or infinite `f64`
/// (release builds only `debug_assert!` valid clocks). −0.0 and +0.0
/// compare equal as times, so adding +0.0 folds them into one key.
fn key(time: SimTime) -> u64 {
    let bits = (time.as_millis() + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The radix bucket of `key` relative to the last refill key: 0 when
/// they are equal, else one past the highest bit in which they differ.
fn bucket(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

/// Deterministic monotone radix future-event list.
///
/// Every insertion is stamped with a sequence number so same-time events
/// fire in submission order — the (time, seq) determinism contract the
/// kernel relies on.
#[derive(Debug)]
pub struct EventQueue {
    /// `buckets[0]` holds the events whose key equals `last`, appended in
    /// seq order and drained by `cursor`; `buckets[i]` holds those whose
    /// key first differs from `last` at bit `i − 1`. All keys of one time
    /// share a bucket, and every bucket keeps seq order within a time.
    buckets: [Vec<ScheduledEvent>; BUCKETS],
    /// The smallest and largest key in each bucket that only pushes have
    /// filled (`(u64::MAX, 0)` while empty), so handing a pushed bucket of
    /// one time to bucket 0 needs no scan; `None` once a refill moved
    /// events in, which the next refill of that bucket scans for.
    bounds: [Option<(u64, u64)>; BUCKETS],
    cursor: usize,
    /// The key of the last refill: no bucketed event lies below it.
    last: u64,
    /// Events pushed below `last` (the epoch driver's pushes before a
    /// time it already peeked), ordered by `(time, seq)`. They all precede
    /// every bucketed event, so they drain first.
    early: BinaryHeap<Reverse<ScheduledEvent>>,
    /// Earliest armed `VmTick` deadline per VM: the lazy-deletion index
    /// behind tick coalescing. An in-queue tick is delivered only if its
    /// time still matches this slot.
    tick_armed: Vec<Option<SimTime>>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    pending: usize,
    coalesced: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            bounds: [Some((u64::MAX, 0)); BUCKETS],
            cursor: 0,
            last: 0,
            early: BinaryHeap::new(),
            tick_armed: Vec::new(),
            next_seq: 0,
            pushed: 0,
            popped: 0,
            pending: 0,
            coalesced: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` for `dest` at absolute time `time`.
    ///
    /// `VmTick` events must go through [`EventQueue::push_vm_tick`] instead
    /// so the coalescing index stays consistent.
    pub fn push(&mut self, time: SimTime, src: EntityId, dest: EntityId, event: Event) {
        debug_assert!(
            !matches!(event, Event::VmTick { .. }),
            "VmTick events must be scheduled through push_vm_tick"
        );
        self.push_raw(time, src, dest, event);
    }

    fn push_raw(&mut self, time: SimTime, src: EntityId, dest: EntityId, event: Event) {
        debug_assert!(time.is_valid_clock(), "event scheduled at invalid time");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.pending += 1;
        let ev = ScheduledEvent {
            time,
            seq,
            dest,
            src,
            event,
        };
        let k = key(time);
        if k < self.last {
            self.early.push(Reverse(ev));
        } else {
            let b = bucket(k, self.last);
            self.buckets[b].push(ev);
            if let Some((lo, hi)) = &mut self.bounds[b] {
                *lo = (*lo).min(k);
                *hi = (*hi).max(k);
            }
        }
    }

    /// Schedules (or coalesces) the per-VM settle timer.
    ///
    /// Mirrors the classic pending-tick discipline: the new deadline is
    /// scheduled only if no tick is armed for `vm`, the new deadline is
    /// earlier than the armed one, or the armed one is already in the past.
    /// A superseded armed tick stays in the queue and is dropped at pop
    /// time (lazy deletion), so the earliest armed deadline always fires.
    pub fn push_vm_tick(
        &mut self,
        now: SimTime,
        src: EntityId,
        dest: EntityId,
        vm: VmId,
        time: SimTime,
    ) {
        if self.tick_armed.len() <= vm.index() {
            self.tick_armed.resize(vm.index() + 1, None);
        }
        let slot = &mut self.tick_armed[vm.index()];
        if slot.is_none_or(|armed| time < armed || armed < now) {
            *slot = Some(time);
            self.push_raw(time, src, dest, Event::VmTick { vm });
        }
    }

    /// The armed `VmTick` deadline for `vm`, if any. The epoch driver
    /// ([`crate::sharded`]) reads this to seed a VM's local tick state
    /// before a parallel replay segment.
    pub(crate) fn armed_tick(&self, vm: VmId) -> Option<SimTime> {
        self.tick_armed.get(vm.index()).copied().flatten()
    }

    /// Disarms `vm`'s settle timer; any in-queue tick for it is dropped at
    /// pop time. Used when the VM is destroyed.
    pub fn cancel_vm_tick(&mut self, vm: VmId) {
        if let Some(slot) = self.tick_armed.get_mut(vm.index()) {
            *slot = None;
        }
    }

    /// Removes and returns the earliest deliverable event, if any.
    ///
    /// Stale `VmTick`s — superseded by an earlier re-arm or cancelled —
    /// are dropped silently; the kernel never sees them.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        while self.ready() {
            let ev = self.take_head();
            if self.is_stale(&ev) {
                self.coalesced += 1;
                continue;
            }
            if let Event::VmTick { vm } = ev.event {
                self.tick_armed[vm.index()] = None;
            }
            self.popped += 1;
            return Some(ev);
        }
        None
    }

    /// Time of the earliest *deliverable* event.
    ///
    /// The returned time is exactly what a subsequent [`EventQueue::pop`]
    /// would deliver: stale coalesced `VmTick`s at the head are dropped in
    /// place rather than reported.
    /// (A stale head cannot simply be peeked around — pop would skip it
    /// and return a later event, so a plain peek could understate the next
    /// delivery time.) The epoch drivers ([`crate::sharded`]) use this to
    /// bound a replay round by the next real queue event.
    pub(crate) fn peek_deliverable_time(&mut self) -> Option<SimTime> {
        while self.ready() {
            let head = self.head();
            if !self.is_stale(head) {
                return Some(head.time);
            }
            self.take_head();
            self.coalesced += 1;
        }
        None
    }

    /// True for a `VmTick` whose deadline is no longer the armed one.
    fn is_stale(&self, ev: &ScheduledEvent) -> bool {
        match ev.event {
            Event::VmTick { vm } => self.armed_tick(vm) != Some(ev.time),
            _ => false,
        }
    }

    /// Makes the earliest pending event the head, refilling bucket 0 when
    /// it is drained; false when the queue is empty.
    fn ready(&mut self) -> bool {
        !self.early.is_empty() || self.cursor < self.buckets[0].len() || self.refill()
    }

    /// The earliest pending event. Requires a true [`Self::ready`].
    fn head(&self) -> &ScheduledEvent {
        match self.early.peek() {
            Some(Reverse(ev)) => ev,
            None => &self.buckets[0][self.cursor],
        }
    }

    /// Removes the earliest pending event. Requires a true [`Self::ready`].
    fn take_head(&mut self) -> ScheduledEvent {
        self.pending -= 1;
        if let Some(Reverse(ev)) = self.early.pop() {
            return ev;
        }
        let slot = &mut self.buckets[0][self.cursor];
        self.cursor += 1;
        // The drained slot keeps a payload-free placeholder until the
        // next refill clears bucket 0.
        let placeholder = ScheduledEvent {
            event: Event::Start,
            ..*slot
        };
        std::mem::replace(slot, placeholder)
    }

    /// Re-bases on the lowest non-empty radix bucket once bucket 0 is
    /// drained: its minimum key becomes `last`, and its events move to
    /// lower buckets in order. A bucket of one time is handed to bucket 0
    /// whole. False when no event is pending.
    fn refill(&mut self) -> bool {
        self.buckets[0].clear();
        self.cursor = 0;
        let Some(i) = (1..BUCKETS).find(|&i| !self.buckets[i].is_empty()) else {
            return false;
        };
        let (lo, hi) = self.bounds[i].unwrap_or_else(|| {
            self.buckets[i]
                .iter()
                .map(|ev| key(ev.time))
                .fold((u64::MAX, 0), |(lo, hi), k| (lo.min(k), hi.max(k)))
        });
        self.bounds[i] = Some((u64::MAX, 0));
        self.last = lo;
        let mut moving = std::mem::take(&mut self.buckets[i]);
        if lo == hi {
            self.buckets[0] = moving;
            return true;
        }
        // Count each target first: the busiest keeps `moving`'s storage,
        // the others grow once to their exact size, so a refill copies
        // only the events that leave and never over-allocates for them.
        let mut counts = [0usize; BUCKETS];
        for ev in &moving {
            counts[bucket(key(ev.time), lo)] += 1;
        }
        let keep = (0..i).max_by_key(|&b| counts[b]).expect("i ≥ 1");
        for (b, &n) in counts.iter().enumerate() {
            if n > 0 {
                self.bounds[b] = None;
                if b != keep {
                    self.buckets[b].reserve_exact(n);
                }
            }
        }
        for ev in moving.extract_if(.., |ev| bucket(key(ev.time), lo) != keep) {
            self.buckets[bucket(key(ev.time), lo)].push(ev);
        }
        self.buckets[keep] = moving;
        true
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total events ever pushed (diagnostics).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events ever delivered (diagnostics).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Stale `VmTick`s dropped by coalescing (diagnostics).
    pub fn total_coalesced(&self) -> u64 {
        self.coalesced
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn ev(q: &mut EventQueue, t: f64) {
        q.push(SimTime::new(t), EntityId(0), EntityId(1), Event::Start);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        ev(&mut q, 5.0);
        ev(&mut q, 1.0);
        ev(&mut q, 3.0);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_millis())
            .collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(SimTime::new(2.0), EntityId(0), EntityId(i), Event::Start);
        }
        let dests: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.dest.0).collect();
        assert_eq!(dests, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn scheduled_event_is_48_bytes() {
        assert_eq!(std::mem::size_of::<ScheduledEvent>(), 48);
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        ev(&mut q, 1.0);
        ev(&mut q, 2.0);
        assert_eq!(q.pending, 2);
        assert_eq!(q.peek_deliverable_time(), Some(SimTime::new(1.0)));
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.pending, 1);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.peek_deliverable_time().is_none());
        assert_eq!(q.total_popped(), 0);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        ev(&mut q, 10.0);
        ev(&mut q, 4.0);
        assert_eq!(q.pop().unwrap().time, SimTime::new(4.0));
        ev(&mut q, 7.0);
        ev(&mut q, 2.0);
        assert_eq!(q.pop().unwrap().time, SimTime::new(2.0));
        assert_eq!(q.pop().unwrap().time, SimTime::new(7.0));
        assert_eq!(q.pop().unwrap().time, SimTime::new(10.0));
    }

    #[test]
    fn same_time_push_while_draining_fires_in_order() {
        // Zero-delay sends issued while handling a time-t event must fire
        // at t, after everything already queued there.
        let mut q = EventQueue::new();
        q.push(SimTime::new(5.0), EntityId(0), EntityId(1), Event::Start);
        q.push(SimTime::new(5.0), EntityId(0), EntityId(2), Event::Start);
        assert_eq!(q.pop().unwrap().dest, EntityId(1));
        q.push(SimTime::new(5.0), EntityId(0), EntityId(3), Event::Start);
        assert_eq!(q.pop().unwrap().dest, EntityId(2));
        assert_eq!(q.pop().unwrap().dest, EntityId(3));
        assert!(q.pop().is_none());
    }

    fn tick(q: &mut EventQueue, now: f64, vm: u32, at: f64) {
        q.push_vm_tick(
            SimTime::new(now),
            EntityId(0),
            EntityId(0),
            VmId(vm),
            SimTime::new(at),
        );
    }

    #[test]
    fn superseded_tick_is_dropped_and_earliest_fires() {
        let mut q = EventQueue::new();
        tick(&mut q, 0.0, 0, 10.0);
        // Re-arm earlier: the 10.0 tick is superseded by lazy deletion.
        tick(&mut q, 0.0, 0, 5.0);
        let first = q.pop().expect("armed tick fires");
        assert_eq!(first.time, SimTime::new(5.0));
        assert!(matches!(first.event, Event::VmTick { vm: VmId(0) }));
        assert!(q.pop().is_none(), "stale 10.0 tick never delivered");
        assert_eq!(q.total_coalesced(), 1);
    }

    #[test]
    fn later_rearm_is_not_scheduled() {
        let mut q = EventQueue::new();
        tick(&mut q, 0.0, 0, 5.0);
        // A later (or equal) deadline must not supersede an earlier armed
        // one, and must not enqueue a duplicate at all.
        tick(&mut q, 0.0, 0, 8.0);
        tick(&mut q, 0.0, 0, 5.0);
        assert_eq!(q.pending, 1);
        assert_eq!(q.pop().unwrap().time, SimTime::new(5.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn rearm_after_delivery_fires_again() {
        let mut q = EventQueue::new();
        tick(&mut q, 0.0, 3, 5.0);
        assert_eq!(q.pop().unwrap().time, SimTime::new(5.0));
        tick(&mut q, 5.0, 3, 9.0);
        let ev = q.pop().expect("re-armed tick fires");
        assert_eq!(ev.time, SimTime::new(9.0));
        assert!(matches!(ev.event, Event::VmTick { vm: VmId(3) }));
    }

    #[test]
    fn cancelled_tick_is_dropped() {
        let mut q = EventQueue::new();
        tick(&mut q, 0.0, 1, 7.0);
        q.cancel_vm_tick(VmId(1));
        assert!(q.pop().is_none());
        assert_eq!(q.total_coalesced(), 1);
    }

    #[test]
    fn deliverable_peek_skips_stale_ticks() {
        let mut q = EventQueue::new();
        tick(&mut q, 0.0, 0, 3.0);
        tick(&mut q, 0.0, 0, 1.0); // supersedes the 3.0 tick
        ev(&mut q, 2.0);
        // Head order in the raw queue: tick@1 (live), ev@2, tick@3 (stale).
        assert_eq!(q.peek_deliverable_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.pop().unwrap().time, SimTime::new(1.0));
        // The stale 3.0 tick must not be reported; the event at 2.0 is next.
        assert_eq!(q.peek_deliverable_time(), Some(SimTime::new(2.0)));
        assert_eq!(q.pop().unwrap().time, SimTime::new(2.0));
        assert_eq!(q.peek_deliverable_time(), None);
        assert!(q.pop().is_none());
        assert_eq!(q.total_coalesced(), 1);
    }

    #[test]
    fn ticks_for_different_vms_are_independent() {
        let mut q = EventQueue::new();
        tick(&mut q, 0.0, 0, 6.0);
        tick(&mut q, 0.0, 1, 4.0);
        tick(&mut q, 0.0, 0, 2.0); // supersedes vm0's 6.0
        let order: Vec<(f64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| {
                let Event::VmTick { vm } = e.event else {
                    panic!("only ticks queued");
                };
                (e.time.as_millis(), vm.0)
            })
            .collect();
        assert_eq!(order, vec![(2.0, 0), (4.0, 1)]);
    }

    /// Times with heavy ties, both zeros, an ulp apart and far apart, so
    /// the radix buckets and the early heap all see traffic.
    const LADDER: [f64; 14] = [
        -0.0,
        0.0,
        0.0,
        1.0,
        1.0,
        1.0 + f64::EPSILON,
        2.5,
        3.0,
        3.0,
        7.25,
        1e3,
        65_536.0,
        1e9,
        4.5e15,
    ];

    /// The queue's specification: pending events in a plain list, the
    /// earliest `(time, seq)` found by a scan.
    #[derive(Default)]
    struct Oracle {
        pending: Vec<(SimTime, u64, u32, Option<u32>)>,
        armed: Vec<Option<SimTime>>,
        next_seq: u64,
        pushed: u64,
        popped: u64,
        coalesced: u64,
    }

    impl Oracle {
        fn push(&mut self, time: SimTime, dest: u32, tick: Option<u32>) {
            self.pending.push((time, self.next_seq, dest, tick));
            self.next_seq += 1;
            self.pushed += 1;
        }

        fn push_tick(&mut self, now: SimTime, vm: u32, time: SimTime, dest: u32) {
            let slot = &mut self.armed[vm as usize];
            if slot.is_none_or(|armed| time < armed || armed < now) {
                *slot = Some(time);
                self.push(time, dest, Some(vm));
            }
        }

        fn head(&self) -> Option<usize> {
            (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
        }

        fn stale(&self, i: usize) -> bool {
            let (time, _, _, tick) = self.pending[i];
            tick.is_some_and(|vm| self.armed[vm as usize] != Some(time))
        }

        fn pop(&mut self) -> Option<(u64, u64, u32)> {
            while let Some(i) = self.head() {
                let stale = self.stale(i);
                let (time, seq, dest, tick) = self.pending.swap_remove(i);
                if stale {
                    self.coalesced += 1;
                    continue;
                }
                if let Some(vm) = tick {
                    self.armed[vm as usize] = None;
                }
                self.popped += 1;
                return Some((time.as_millis().to_bits(), seq, dest));
            }
            None
        }

        fn peek(&mut self) -> Option<SimTime> {
            while let Some(i) = self.head() {
                if !self.stale(i) {
                    return Some(self.pending[i].0);
                }
                self.pending.swap_remove(i);
                self.coalesced += 1;
            }
            None
        }
    }

    /// One step: (kind, ladder index, vm, fraction in [0, 1)).
    fn ops() -> impl Strategy<Value = Vec<(u32, usize, u32, f64)>> {
        prop::collection::vec((0u32..9, 0..LADDER.len(), 0u32..4, 0.0f64..1.0), 1..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of pushes, tick arms and cancels, pops and
        /// deliverable peeks delivers the oracle's `(time, seq, dest)`
        /// sequence, with the oracle's counters after every step.
        #[test]
        fn matches_sorted_oracle(steps in ops()) {
            let mut q = EventQueue::new();
            let mut oracle = Oracle {
                armed: vec![None; 4],
                ..Oracle::default()
            };
            let mut now = SimTime::ZERO;
            for (dest, &(kind, pick, vm, frac)) in (0u32..).zip(&steps) {
                let at = SimTime::new(LADDER[pick]);
                match kind {
                    0 | 1 => {
                        q.push(at, EntityId(0), EntityId(dest), Event::Start);
                        oracle.push(at, dest, None);
                    }
                    2 => {
                        // A distinct timestamp, as time-shared finish times are.
                        let t = SimTime::new(frac * 1e7);
                        q.push(t, EntityId(0), EntityId(dest), Event::Start);
                        oracle.push(t, dest, None);
                    }
                    3 => {
                        let t = now + SimTime::new(LADDER[pick].abs() * frac);
                        q.push_vm_tick(now, EntityId(0), EntityId(dest), VmId(vm), t);
                        oracle.push_tick(now, vm, t, dest);
                    }
                    4 => {
                        q.cancel_vm_tick(VmId(vm));
                        oracle.armed[vm as usize] = None;
                    }
                    5 | 6 => {
                        let got = q
                            .pop()
                            .map(|e| (e.time.as_millis().to_bits(), e.seq, e.dest.0));
                        let want = oracle.pop();
                        prop_assert_eq!(got, want);
                        if let Some((bits, _, _)) = want {
                            now = SimTime::new(f64::from_bits(bits));
                        }
                    }
                    _ => {
                        // The epoch driver's pattern: peek the next
                        // delivery, then push before it.
                        let got = q.peek_deliverable_time();
                        let want = oracle.peek();
                        prop_assert_eq!(
                            got.map(|t| t.as_millis().to_bits()),
                            want.map(|t| t.as_millis().to_bits())
                        );
                        if let Some(t) = want {
                            let below = SimTime::new(t.as_millis() * frac);
                            q.push(below, EntityId(0), EntityId(dest), Event::Start);
                            oracle.push(below, dest, None);
                        }
                    }
                }
                prop_assert_eq!(q.pending, oracle.pending.len());
                prop_assert_eq!(q.total_pushed(), oracle.pushed);
                prop_assert_eq!(q.total_popped(), oracle.popped);
                prop_assert_eq!(q.total_coalesced(), oracle.coalesced);
            }
            // Drain: the tails agree too.
            loop {
                let got = q.pop().map(|e| (e.time.as_millis().to_bits(), e.seq, e.dest.0));
                prop_assert_eq!(got, oracle.pop());
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.total_coalesced(), oracle.coalesced);
        }
    }
}
