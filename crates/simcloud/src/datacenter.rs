//! The datacenter entity.
//!
//! A datacenter owns hosts, places VMs on them first-fit, executes
//! cloudlets through per-VM cloudlet schedulers, accounts processing
//! cost, and reports completions back to the broker.

use crate::characteristics::DatacenterCharacteristics;
use crate::cloudlet::CloudletStatus;
use crate::cloudlet_sched::{CloudletScheduler, RunningCloudlet, SchedulerKind, Tick};
use crate::cost::cloudlet_cost;
use crate::event::{Event, ScheduledEvent};
use crate::host::{Host, HostSpec};
use crate::ids::{DatacenterId, EntityId, HostId, VmId};
use crate::kernel::{Context, Entity, World};
use crate::network::transfer_time;
use crate::time::SimTime;
use crate::vm_alloc::FirstFit;

/// Construction-time description of a datacenter.
pub struct DatacenterBlueprint {
    /// Host fleet.
    pub hosts: Vec<HostSpec>,
    /// Characteristics, including the cost model.
    pub characteristics: DatacenterCharacteristics,
    /// Per-VM cloudlet execution policy.
    pub scheduler: SchedulerKind,
}

impl DatacenterBlueprint {
    /// A blueprint with enough uniform hosts for `vm_count` copies of `vm`,
    /// packing `vms_per_host` on each — the standard scenario shape.
    pub fn sized_for(
        vm: &crate::vm::VmSpec,
        vm_count: usize,
        vms_per_host: u32,
        characteristics: DatacenterCharacteristics,
    ) -> Self {
        let host_spec = HostSpec::roomy_for(vm, vms_per_host);
        let host_count = vm_count.div_ceil(vms_per_host as usize).max(1);
        DatacenterBlueprint {
            hosts: vec![host_spec; host_count],
            characteristics,
            scheduler: SchedulerKind::SpaceShared,
        }
    }
}

/// The running datacenter entity.
pub struct Datacenter {
    entity: EntityId,
    /// Logical datacenter identity (used by cost/topology lookups).
    pub id: DatacenterId,
    characteristics: DatacenterCharacteristics,
    hosts: Vec<Host>,
    placement: FirstFit,
    scheduler_kind: SchedulerKind,
    /// Per-VM schedulers, lazily grown, indexed by `VmId`.
    vm_scheds: Vec<Option<Box<dyn CloudletScheduler>>>,
    /// Broker address, learned from the first cloudlet submission; needed
    /// by self-sent `VmTick` timers to route completions.
    broker_hint: Option<EntityId>,
    /// Failure schedule from the fault plan, armed on `Start`.
    failures: Vec<(HostId, SimTime)>,
    /// Repair schedule from the fault plan, armed on `Start`.
    repairs: Vec<(HostId, SimTime)>,
    /// Straggler schedule from the fault plan, armed on `Start`:
    /// `(vm, time, factor)` with `factor == 1.0` restoring nominal speed.
    degrades: Vec<(VmId, SimTime, f64)>,
    /// VMs that died with each host (indexed by host), remembered so a
    /// repair can re-provision them.
    dead_vms: Vec<Vec<VmId>>,
}

impl Datacenter {
    /// Builds a datacenter from its blueprint.
    pub fn new(entity: EntityId, id: DatacenterId, blueprint: DatacenterBlueprint) -> Self {
        assert!(!blueprint.hosts.is_empty(), "datacenter needs hosts");
        let hosts = blueprint
            .hosts
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Host::new(HostId::from_index(i), spec))
            .collect();
        Datacenter {
            entity,
            id,
            characteristics: blueprint.characteristics,
            hosts,
            placement: FirstFit::default(),
            scheduler_kind: blueprint.scheduler,
            vm_scheds: Vec::new(),
            broker_hint: None,
            failures: Vec::new(),
            repairs: Vec::new(),
            degrades: Vec::new(),
            dead_vms: Vec::new(),
        }
    }

    /// Installs the fault plan's failure, repair and straggler schedules
    /// for this datacenter. Called by the simulation builder, after
    /// [`crate::faults::FaultPlan::validate`], before the kernel starts;
    /// all three lists are armed as self-addressed events on `Start`.
    pub fn arm_faults(
        &mut self,
        failures: Vec<(HostId, SimTime)>,
        repairs: Vec<(HostId, SimTime)>,
        degrades: Vec<(VmId, SimTime, f64)>,
    ) {
        self.failures = failures;
        self.repairs = repairs;
        self.degrades = degrades;
    }

    /// The datacenter's characteristics (cost model etc.).
    pub fn characteristics(&self) -> &DatacenterCharacteristics {
        &self.characteristics
    }

    /// Lends `vm`'s scheduler to the epoch driver for a parallel replay
    /// segment; [`Datacenter::put_sched`] returns it afterwards.
    pub(crate) fn take_sched(&mut self, vm: VmId) -> Option<Box<dyn CloudletScheduler>> {
        self.vm_scheds.get_mut(vm.index()).and_then(Option::take)
    }

    /// Returns a scheduler lent out via [`Datacenter::take_sched`].
    pub(crate) fn put_sched(&mut self, vm: VmId, sched: Box<dyn CloudletScheduler>) {
        *Self::slot_mut(&mut self.vm_scheds, vm.index()) = Some(sched);
    }

    /// Pre-seeds the broker address. The kernel learns it from the first
    /// cloudlet submission; the epoch driver diverts submissions around
    /// the entity, so it installs the hint up front (observationally
    /// equivalent: the hint is only read once submissions have landed).
    pub(crate) fn set_broker_hint(&mut self, broker: EntityId) {
        self.broker_hint = Some(broker);
    }

    fn slot_mut<T: Default>(vec: &mut Vec<T>, idx: usize) -> &mut T {
        if vec.len() <= idx {
            vec.resize_with(idx + 1, T::default);
        }
        &mut vec[idx]
    }

    fn handle_vm_create(
        &mut self,
        world: &mut World,
        ctx: &mut Context<'_>,
        src: EntityId,
        vm_id: VmId,
    ) {
        let host = self
            .placement
            .select_host(ctx.now, &self.hosts, &world.vm(vm_id).spec);
        let success = host.is_some_and(|host| self.host_vm(world, vm_id, host));
        if !success {
            world.vm_mut(vm_id).reject();
        }
        ctx.send(
            src,
            SimTime::ZERO,
            Event::VmCreateAck { vm: vm_id, success },
        );
    }

    /// Places `vm_id` on `host_id` if it fits there, with a scheduler at
    /// the VM's current [`crate::vm::Vm::rate_factor`] (a degrade that
    /// fired before creation or during an outage still applies).
    fn host_vm(&mut self, world: &mut World, vm_id: VmId, host_id: HostId) -> bool {
        let vm = world.vm_mut(vm_id);
        if !self.hosts[host_id.index()].allocate_vm(vm_id, &vm.spec) {
            return false;
        }
        vm.place(self.id, host_id);
        *Self::slot_mut(&mut self.vm_scheds, vm_id.index()) =
            Some(self.scheduler_kind.build(vm.effective_mips(), vm.spec.pes));
        true
    }

    fn apply_tick(
        &mut self,
        world: &mut World,
        ctx: &mut Context<'_>,
        vm_id: VmId,
        tick: Tick,
        broker: EntityId,
    ) {
        let now = ctx.now;
        for started in tick.started {
            let cl = world.cloudlet_mut(started);
            if cl.start_time.is_none() {
                cl.start_time = Some(now);
            }
            cl.status = CloudletStatus::Running;
        }
        if !tick.finished.is_empty() {
            let vm_spec = world.vm(vm_id).spec.clone();
            for finished in tick.finished {
                let cl = world.cloudlet_mut(finished);
                cl.finish_time = Some(now);
                cl.status = CloudletStatus::Finished;
                let cpu_seconds = cl.execution_time().map(|t| t.as_secs()).unwrap_or(0.0);
                cl.cost =
                    cloudlet_cost(&self.characteristics.cost, &vm_spec, &cl.spec, cpu_seconds);
                // The completion notification travels back after the output
                // file crosses the VM's bandwidth.
                let out_delay = transfer_time(cl.spec.output_size_mb, vm_spec.bw_mbps);
                ctx.send(
                    broker,
                    out_delay,
                    Event::CloudletReturn { cloudlet: finished },
                );
            }
        }
        // Arm the next completion timer; the queue coalesces per VM and
        // only keeps a new deadline if it beats the one already armed.
        if let Some(next) = tick.next_completion {
            ctx.send_vm_tick(vm_id, next.max(now));
        }
    }

    /// Binds cloudlets that reach `vm_id` together: one cloudlet through
    /// the scheduler's `submit`, a batch through `submit_many`, which
    /// settles once for the whole group.
    fn handle_cloudlet_submit(
        &mut self,
        world: &mut World,
        ctx: &mut Context<'_>,
        src: EntityId,
        vm_id: VmId,
        cloudlets: &[crate::ids::CloudletId],
    ) {
        self.broker_hint = Some(src);
        for &cloudlet in cloudlets {
            let cl = world.cloudlet_mut(cloudlet);
            cl.status = CloudletStatus::Queued;
            cl.vm = Some(vm_id);
        }
        let Some(sched) = self
            .vm_scheds
            .get_mut(vm_id.index())
            .and_then(Option::as_mut)
        else {
            // The VM was destroyed (host failure) after the broker bound
            // the cloudlets — a genuine race, not a programming error.
            assert_eq!(
                world.vm(vm_id).status,
                crate::vm::VmStatus::Destroyed,
                "cloudlet submitted to VM {vm_id} that was never hosted here"
            );
            for &cloudlet in cloudlets {
                world.cloudlet_mut(cloudlet).status = CloudletStatus::Failed;
                ctx.send(src, SimTime::ZERO, Event::CloudletFailed { cloudlet });
            }
            return;
        };
        let running = |&id: &crate::ids::CloudletId| {
            let spec = &world.cloudlet(id).spec;
            RunningCloudlet::new(id, spec.length_mi, spec.pes)
        };
        let tick = match cloudlets {
            [one] => sched.submit(ctx.now, running(one)),
            _ => sched.submit_many(ctx.now, cloudlets.iter().map(running).collect()),
        };
        self.apply_tick(world, ctx, vm_id, tick, src);
    }

    /// Takes a host down: evicts its VMs, fails their queued/running
    /// cloudlets and reports each to the broker. The host index comes
    /// from a validated fault plan.
    fn handle_host_fail(&mut self, world: &mut World, ctx: &mut Context<'_>, host_id: HostId) {
        let victims = self.hosts[host_id.index()].fail();
        // Remember who died here so a later repair can re-provision them.
        Self::slot_mut(&mut self.dead_vms, host_id.index()).extend(victims.iter().copied());
        for vm_id in victims {
            world.vm_mut(vm_id).status = crate::vm::VmStatus::Destroyed;
            let orphans = self
                .vm_scheds
                .get_mut(vm_id.index())
                .and_then(Option::take)
                .map(|mut sched| sched.drain())
                .unwrap_or_default();
            ctx.cancel_vm_tick(vm_id);
            for cloudlet in orphans {
                world.cloudlet_mut(cloudlet).status = CloudletStatus::Failed;
                if let Some(broker) = self.broker_hint {
                    ctx.send(broker, SimTime::ZERO, Event::CloudletFailed { cloudlet });
                }
            }
        }
    }

    /// Brings a repaired host back online and re-provisions the VMs that
    /// died with it, at their current [`crate::vm::Vm::rate_factor`].
    /// Revived VMs come back empty; the broker's retry path discovers them
    /// simply by reading [`crate::vm::VmStatus::Active`] off the world.
    fn handle_host_repair(&mut self, world: &mut World, ctx: &mut Context<'_>, host_id: HostId) {
        let _ = ctx; // repairs re-provision silently; retries find the VM
        let host = &mut self.hosts[host_id.index()];
        if !host.is_failed() {
            return; // repair of a host that never failed is a no-op
        }
        host.repair();
        let victims = self
            .dead_vms
            .get_mut(host_id.index())
            .map(std::mem::take)
            .unwrap_or_default();
        for vm_id in victims {
            if world.vm(vm_id).status != crate::vm::VmStatus::Destroyed {
                continue; // already revived elsewhere
            }
            self.host_vm(world, vm_id, host_id);
        }
    }

    /// Applies a straggler factor to a VM: in-flight work is settled at
    /// the old rate up to `now`, then the VM runs at `factor × mips`.
    /// `factor == 1.0` restores nominal speed. A destroyed VM only has
    /// its [`crate::vm::Vm::rate_factor`] written, so a later repair
    /// revives it degraded.
    fn handle_vm_degrade(
        &mut self,
        world: &mut World,
        ctx: &mut Context<'_>,
        vm_id: VmId,
        factor: f64,
    ) {
        debug_assert!(
            factor > 0.0 && factor <= 1.0,
            "degrade factor must be in (0, 1], got {factor}"
        );
        let vm = world.vm_mut(vm_id);
        vm.rate_factor = factor;
        let mips = vm.effective_mips();
        let Some(sched) = self
            .vm_scheds
            .get_mut(vm_id.index())
            .and_then(Option::as_mut)
        else {
            return; // destroyed (or never-created) VM: factor recorded only
        };
        let tick = sched.set_rate(ctx.now, mips);
        // Completions landing exactly at the change instant are harvested
        // by the settle inside set_rate; a tick before any submission is
        // empty, so the self-entity fallback address is never used.
        let broker = self.broker_hint.unwrap_or(self.entity);
        self.apply_tick(world, ctx, vm_id, tick, broker);
    }

    fn handle_vm_tick(
        &mut self,
        world: &mut World,
        ctx: &mut Context<'_>,
        vm_id: VmId,
        broker: EntityId,
    ) {
        // The queue disarmed the timer when it delivered this tick.
        let Some(sched) = self
            .vm_scheds
            .get_mut(vm_id.index())
            .and_then(Option::as_mut)
        else {
            return;
        };
        let tick = sched.advance(ctx.now);
        self.apply_tick(world, ctx, vm_id, tick, broker);
    }
}

impl Entity for Datacenter {
    fn id(&self) -> EntityId {
        self.entity
    }

    fn handle(&mut self, world: &mut World, ctx: &mut Context<'_>, ev: ScheduledEvent) {
        match ev.event {
            Event::Start => {
                // Arm the fault-injection schedules: failures, then
                // repairs, then straggler intervals, each in plan order.
                let failures = std::mem::take(&mut self.failures);
                for (host, time) in failures {
                    ctx.send_self(time, Event::HostFail { host });
                }
                let repairs = std::mem::take(&mut self.repairs);
                for (host, time) in repairs {
                    ctx.send_self(time, Event::HostRepair { host });
                }
                let degrades = std::mem::take(&mut self.degrades);
                for (vm, time, factor) in degrades {
                    ctx.send_self(time, Event::VmDegrade { vm, factor });
                }
            }
            Event::HostFail { host } => self.handle_host_fail(world, ctx, host),
            Event::HostRepair { host } => self.handle_host_repair(world, ctx, host),
            Event::VmDegrade { vm, factor } => self.handle_vm_degrade(world, ctx, vm, factor),
            Event::VmCreate { vm } => self.handle_vm_create(world, ctx, ev.src, vm),
            Event::CloudletSubmit { cloudlet, vm } => {
                self.handle_cloudlet_submit(world, ctx, ev.src, vm, &[cloudlet])
            }
            Event::CloudletSubmitBatch { vm, cloudlets } => {
                self.handle_cloudlet_submit(world, ctx, ev.src, vm, &cloudlets)
            }
            // VmTicks are self-sent; a tick can only exist after a cloudlet
            // submission, which recorded the broker's address.
            Event::VmTick { vm } => {
                let broker = self
                    .broker_hint
                    .expect("VmTick before any cloudlet submission");
                self.handle_vm_tick(world, ctx, vm, broker)
            }
            other => panic!("datacenter received unexpected event {other:?}"),
        }
    }
}
