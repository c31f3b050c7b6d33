//! The discrete-event simulation kernel.
//!
//! The kernel owns the clock, the future-event list and the registered
//! entities (brokers and datacenters). Shared simulation objects — VMs and
//! cloudlets — live in the [`World`] arena so any entity can read or update
//! them while handling an event without passing them through messages.

use crate::cloudlet::{Cloudlet, CloudletSpec};
use crate::event::{Event, EventQueue, ScheduledEvent};
use crate::ids::{CloudletId, EntityId, VmId};
use crate::time::SimTime;
use crate::vm::{Vm, VmSpec};

/// Shared simulation state: dense arenas of VMs and cloudlets.
#[derive(Debug, Default)]
pub struct World {
    /// All VMs, indexed by [`VmId`].
    pub vms: Vec<Vm>,
    /// All cloudlets, indexed by [`CloudletId`].
    pub cloudlets: Vec<Cloudlet>,
    /// Run-level recovery counters, accumulated by the broker as faults
    /// strike and retries land. Stays zeroed on fault-free runs.
    pub resilience: crate::stats::ResilienceCounters,
}

impl World {
    /// Creates a world from VM and cloudlet specs.
    pub fn new(vm_specs: Vec<VmSpec>, cloudlet_specs: Vec<CloudletSpec>) -> Self {
        let vms = vm_specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Vm::new(VmId::from_index(i), s))
            .collect();
        let cloudlets = cloudlet_specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Cloudlet::new(CloudletId::from_index(i), s))
            .collect();
        World {
            vms,
            cloudlets,
            resilience: crate::stats::ResilienceCounters::default(),
        }
    }

    /// Immutable VM lookup.
    #[inline]
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.index()]
    }

    /// Mutable VM lookup.
    #[inline]
    pub fn vm_mut(&mut self, id: VmId) -> &mut Vm {
        &mut self.vms[id.index()]
    }

    /// Immutable cloudlet lookup.
    #[inline]
    pub fn cloudlet(&self, id: CloudletId) -> &Cloudlet {
        &self.cloudlets[id.index()]
    }

    /// Mutable cloudlet lookup.
    #[inline]
    pub fn cloudlet_mut(&mut self, id: CloudletId) -> &mut Cloudlet {
        &mut self.cloudlets[id.index()]
    }
}

/// Event-sending facilities handed to an entity while it handles an event.
pub struct Context<'a> {
    /// Current simulated time.
    pub now: SimTime,
    self_id: EntityId,
    queue: &'a mut EventQueue,
}

impl<'a> Context<'a> {
    /// Builds a context for `self_id` at `now` over `queue`. The epoch
    /// driver ([`crate::sharded`]) uses this to invoke the real entity
    /// handlers outside [`Kernel::run`].
    pub(crate) fn attach(now: SimTime, self_id: EntityId, queue: &'a mut EventQueue) -> Self {
        Context {
            now,
            self_id,
            queue,
        }
    }

    /// Schedules `event` for `dest` after `delay`.
    pub fn send(&mut self, dest: EntityId, delay: SimTime, event: Event) {
        debug_assert!(
            delay.as_millis() >= 0.0,
            "cannot schedule into the past (delay {delay:?})"
        );
        self.queue.push(self.now + delay, self.self_id, dest, event);
    }

    /// Schedules `event` for the sending entity itself after `delay`.
    pub fn send_self(&mut self, delay: SimTime, event: Event) {
        self.send(self.self_id, delay, event);
    }

    /// Arms (or coalesces) the self-addressed `VmTick` timer for `vm` at
    /// absolute time `at`. The queue keeps at most one live deadline per
    /// VM and lazily drops superseded duplicates.
    pub fn send_vm_tick(&mut self, vm: crate::ids::VmId, at: SimTime) {
        debug_assert!(
            at >= self.now,
            "cannot arm a tick in the past ({at:?} < {:?})",
            self.now
        );
        self.queue
            .push_vm_tick(self.now, self.self_id, self.self_id, vm, at);
    }

    /// Disarms `vm`'s tick timer (used when the VM is destroyed).
    pub fn cancel_vm_tick(&mut self, vm: crate::ids::VmId) {
        self.queue.cancel_vm_tick(vm);
    }
}

/// A simulation actor: reacts to events, mutates the world, sends events.
pub trait Entity: Send {
    /// The entity's kernel address.
    fn id(&self) -> EntityId;

    /// Handles one delivered event.
    fn handle(&mut self, world: &mut World, ctx: &mut Context<'_>, ev: ScheduledEvent);
}

/// Statistics from a completed kernel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Final clock value.
    pub end_time: SimTime,
    /// Events processed.
    pub events_processed: u64,
    /// Whether the run stopped on an empty queue (vs. the event limit).
    pub drained: bool,
}

/// The discrete-event engine.
pub struct Kernel {
    queue: EventQueue,
    clock: SimTime,
    entities: Vec<Option<Box<dyn Entity>>>,
    max_events: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Default runaway-event guard: large enough for paper-scale runs
    /// (10^6 cloudlets produce a few events each); small enough to catch
    /// infinite loops. Shared with the epoch-sharded driver.
    pub const DEFAULT_MAX_EVENTS: u64 = 200_000_000;

    /// Creates an empty kernel with a generous runaway-event guard.
    pub fn new() -> Self {
        Kernel {
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            entities: Vec::new(),
            max_events: Self::DEFAULT_MAX_EVENTS,
        }
    }

    /// Overrides the runaway-event guard.
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Reserves the entity id the next registered entity will receive.
    /// Entities usually need their own id at construction time.
    fn next_entity_id(&self) -> EntityId {
        EntityId::from_index(self.entities.len())
    }

    /// Registers an entity; its [`Entity::id`] must equal the number of
    /// entities registered before it.
    pub fn register(&mut self, entity: Box<dyn Entity>) -> EntityId {
        let id = entity.id();
        assert_eq!(
            id,
            self.next_entity_id(),
            "entity registered with the wrong id"
        );
        self.entities.push(Some(entity));
        id
    }

    /// Delivers `Start` to every entity at t=0 and runs to completion.
    pub fn run(&mut self, world: &mut World) -> RunStats {
        for idx in 0..self.entities.len() {
            let dest = EntityId::from_index(idx);
            self.queue.push(SimTime::ZERO, dest, dest, Event::Start);
        }
        self.run_queue(world)
    }

    /// Runs the event loop until the queue drains or the guard trips.
    fn run_queue(&mut self, world: &mut World) -> RunStats {
        let mut processed = 0u64;
        while let Some(ev) = self.queue.pop() {
            debug_assert!(
                ev.time >= self.clock,
                "event queue delivered time travel: {:?} < {:?}",
                ev.time,
                self.clock
            );
            self.clock = ev.time;
            processed += 1;
            if processed > self.max_events {
                return RunStats {
                    end_time: self.clock,
                    events_processed: processed,
                    drained: false,
                };
            }
            let slot = ev.dest.index();
            let mut entity = self.entities[slot]
                .take()
                .unwrap_or_else(|| panic!("event for unknown entity {:?}", ev.dest));
            {
                let mut ctx = Context {
                    now: self.clock,
                    self_id: ev.dest,
                    queue: &mut self.queue,
                };
                entity.handle(world, &mut ctx, ev);
            }
            self.entities[slot] = Some(entity);
        }
        RunStats {
            end_time: self.clock,
            events_processed: processed,
            drained: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test entity: forwards `Start` to a peer `hops` times, then stops.
    struct PingPong {
        id: EntityId,
        peer: Option<EntityId>,
        hops_left: u32,
        received: u32,
    }

    impl Entity for PingPong {
        fn id(&self) -> EntityId {
            self.id
        }

        fn handle(&mut self, _world: &mut World, ctx: &mut Context<'_>, _ev: ScheduledEvent) {
            self.received += 1;
            if self.hops_left > 0 {
                if let Some(peer) = self.peer {
                    self.hops_left -= 1;
                    ctx.send(peer, SimTime::new(1.0), Event::Start);
                }
            }
        }
    }

    #[test]
    fn entities_exchange_events_and_clock_advances() {
        let mut kernel = Kernel::new();
        let a_id = kernel.next_entity_id();
        kernel.register(Box::new(PingPong {
            id: a_id,
            peer: None, // set below via second entity pointing back
            hops_left: 0,
            received: 0,
        }));
        let b_id = kernel.next_entity_id();
        kernel.register(Box::new(PingPong {
            id: b_id,
            peer: Some(a_id),
            hops_left: 3,
            received: 0,
        }));
        let mut world = World::default();
        let stats = kernel.run(&mut world);
        assert!(stats.drained);
        // 2 Start events + 1 forwarded on B's start (B forwards only while
        // it has hops; A has no peer so forwards nothing).
        assert_eq!(stats.events_processed, 3);
        assert_eq!(stats.end_time, SimTime::new(1.0));
    }

    #[test]
    fn max_events_guard_trips() {
        struct Looper {
            id: EntityId,
        }
        impl Entity for Looper {
            fn id(&self) -> EntityId {
                self.id
            }
            fn handle(&mut self, _w: &mut World, ctx: &mut Context<'_>, _ev: ScheduledEvent) {
                ctx.send_self(SimTime::new(1.0), Event::Start);
            }
        }
        let mut kernel = Kernel::new().with_max_events(100);
        let id = kernel.next_entity_id();
        kernel.register(Box::new(Looper { id }));
        let mut world = World::default();
        let stats = kernel.run(&mut world);
        assert!(!stats.drained);
        assert_eq!(stats.events_processed, 101);
    }

    #[test]
    #[should_panic(expected = "wrong id")]
    fn mismatched_registration_panics() {
        let mut kernel = Kernel::new();
        kernel.register(Box::new(PingPong {
            id: EntityId(5),
            peer: None,
            hops_left: 0,
            received: 0,
        }));
    }

    #[test]
    fn world_arena_lookup() {
        let mut world = World::new(vec![VmSpec::default(); 2], vec![CloudletSpec::default(); 3]);
        assert_eq!(world.vms.len(), 2);
        assert_eq!(world.cloudlets.len(), 3);
        assert_eq!(world.vm(VmId(1)).id, VmId(1));
        assert_eq!(world.cloudlet(CloudletId(2)).id, CloudletId(2));
        world.vm_mut(VmId(0)).reject();
        assert!(!world.vm(VmId(0)).is_active());
        world.cloudlet_mut(CloudletId(0)).cost = 5.0;
        assert_eq!(world.cloudlet(CloudletId(0)).cost, 5.0);
    }

    #[test]
    fn empty_kernel_run_is_noop() {
        let mut kernel = Kernel::new();
        let mut world = World::default();
        let stats = kernel.run(&mut world);
        assert!(stats.drained);
        assert_eq!(stats.events_processed, 0);
        assert_eq!(stats.end_time, SimTime::ZERO);
    }
}
