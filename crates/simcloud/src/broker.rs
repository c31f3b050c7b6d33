//! The datacenter broker entity.
//!
//! The broker mirrors CloudSim's `DatacenterBroker`: it requests VM
//! creation, and once every VM is acknowledged it submits cloudlets
//! according to a *pre-computed assignment* (cloudlet → VM). The assignment
//! is exactly what the paper's schedulers produce, which keeps the
//! scheduling algorithms outside the simulator — they are pure functions in
//! `biosched-core` — while the broker plays back their decisions.

use crate::cloudlet::CloudletStatus;
use crate::event::{Event, ScheduledEvent};
use crate::ids::{CloudletId, DatacenterId, EntityId, VmId};
use crate::kernel::{Context, Entity, World};
use crate::network::{transfer_time, Topology};
use crate::time::SimTime;

/// Retry/backoff policy for broker-level recovery.
///
/// A cloudlet whose attempt fails (host death, dead-VM submission) is
/// queued into the next retry batch; the batch wakes after a capped
/// exponential backoff and resubmits each member onto a VM chosen by the
/// installed [`Rescheduler`] (or cyclically over the surviving fleet).
/// Each cloudlet gets at most `max_attempts` retries before it is
/// permanently failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries allowed per cloudlet (beyond its first attempt).
    pub max_attempts: u8,
    /// Backoff before the first retry batch, in ms.
    pub base_backoff_ms: f64,
    /// Multiplier applied per already-spent retry of the batch's oldest
    /// member.
    pub backoff_factor: f64,
    /// Ceiling on the backoff, in ms.
    pub max_backoff_ms: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            base_backoff_ms: 250.0,
            backoff_factor: 2.0,
            max_backoff_ms: 4_000.0,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before a batch whose oldest member has already spent
    /// `spent` retries: `min(max, base × factor^spent)`.
    pub fn backoff(&self, spent: u8) -> SimTime {
        let raw = self.base_backoff_ms * self.backoff_factor.powi(i32::from(spent));
        SimTime::new(raw.min(self.max_backoff_ms))
    }

    /// Validates the policy fields.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("RecoveryPolicy.max_attempts must be at least 1".into());
        }
        for (name, v, lo) in [
            ("base_backoff_ms", self.base_backoff_ms, 0.0),
            ("backoff_factor", self.backoff_factor, 1.0),
            ("max_backoff_ms", self.max_backoff_ms, 0.0),
        ] {
            if !(v.is_finite() && v >= lo) {
                return Err(format!("RecoveryPolicy.{name} must be >= {lo}, got {v}"));
            }
        }
        Ok(())
    }
}

/// Fault-aware rebinding strategy for retry batches.
///
/// Implementations read the current fleet state off the world — which VMs
/// are [`crate::vm::VmStatus::Active`], and each VM's
/// [`crate::vm::Vm::rate_factor`] — and return one target VM per cloudlet,
/// in batch order. Targets that turn out inactive fall back to the
/// broker's cyclic rebinding, so a rescheduler can never strand work.
/// `biosched-core` schedulers plug in through this trait (the `workload`
/// crate adapts [`Rescheduler`] onto `Scheduler::schedule_with_cache`), so
/// every scheduler kind becomes fault-tolerant with no per-scheduler code.
pub trait Rescheduler: Send {
    /// Picks a VM for each cloudlet in `batch` (ascending cloudlet id).
    fn replan(&mut self, world: &World, now: SimTime, batch: &[CloudletId]) -> Vec<VmId>;
}

/// The broker entity.
pub struct Broker {
    entity: EntityId,
    /// Target datacenter entity per datacenter id.
    dc_entities: Vec<EntityId>,
    /// Which datacenter each VM should be created in.
    vm_placement: Vec<DatacenterId>,
    /// Which VM each cloudlet runs on (the scheduler's output).
    assignment: Vec<VmId>,
    /// Optional per-cloudlet arrival times (absolute, from t=0). Without
    /// them every cloudlet is submitted as soon as the fleet is up —
    /// the paper's batch model.
    arrivals: Option<Vec<SimTime>>,
    /// Optional workflow structure: `parents[c]` lists the cloudlets that
    /// must finish before `c` may be submitted.
    parents: Option<Vec<Vec<CloudletId>>>,
    /// Reverse adjacency derived from `parents`.
    children: Vec<Vec<u32>>,
    /// Unfinished-parent counters per cloudlet.
    pending_parents: Vec<u32>,
    topology: Topology,
    outstanding_vm_acks: usize,
    fleet_ready: bool,
    /// Fault tolerance: rebind failed cloudlets onto surviving VMs up to
    /// this many times each. `0` disables resubmission (paper behavior).
    max_retries: u8,
    /// Per-cloudlet retry counters (allocated lazily on first failure).
    retries: Vec<u8>,
    /// Cyclic cursor over the fleet for rebinding.
    rebind_cursor: usize,
    /// Cloudlets resubmitted over the whole run (diagnostics).
    resubmissions: u64,
    /// Batched retry/backoff recovery; `None` keeps the legacy immediate
    /// rebinding controlled by `max_retries`.
    recovery: Option<RecoveryPolicy>,
    /// Fault-aware rebinding for retry batches (falls back to cyclic).
    rescheduler: Option<Box<dyn Rescheduler>>,
    /// Failed cloudlets awaiting the next retry batch.
    retry_pending: Vec<CloudletId>,
    /// Whether a `RetryWake` timer is in flight.
    retry_wake_armed: bool,
    /// First-failure time per cloudlet, cleared on completion (lazily
    /// allocated); feeds the mean-time-to-recovery metric.
    first_failed_at: Vec<Option<SimTime>>,
}

impl Broker {
    /// Creates a broker.
    ///
    /// * `dc_entities[d]` — kernel address of datacenter `d`.
    /// * `vm_placement[v]` — datacenter VM `v` is created in.
    /// * `assignment[c]` — VM cloudlet `c` is bound to.
    pub fn new(
        entity: EntityId,
        dc_entities: Vec<EntityId>,
        vm_placement: Vec<DatacenterId>,
        assignment: Vec<VmId>,
        topology: Topology,
    ) -> Self {
        assert!(
            !dc_entities.is_empty(),
            "broker needs at least one datacenter"
        );
        for dc in &vm_placement {
            assert!(
                dc.index() < dc_entities.len(),
                "VM placed in unknown datacenter {dc}"
            );
        }
        Broker {
            entity,
            dc_entities,
            vm_placement,
            assignment,
            arrivals: None,
            parents: None,
            children: Vec::new(),
            pending_parents: Vec::new(),
            topology,
            outstanding_vm_acks: 0,
            fleet_ready: false,
            max_retries: 0,
            retries: Vec::new(),
            rebind_cursor: 0,
            resubmissions: 0,
            recovery: None,
            rescheduler: None,
            retry_pending: Vec::new(),
            retry_wake_armed: false,
            first_failed_at: Vec::new(),
        }
    }

    /// Enables batched retry/backoff recovery. Mutually exclusive with
    /// [`Broker::with_resubmission`] (the legacy immediate rebind).
    pub fn with_recovery(
        mut self,
        policy: RecoveryPolicy,
        rescheduler: Option<Box<dyn Rescheduler>>,
    ) -> Self {
        assert_eq!(
            self.max_retries, 0,
            "recovery and legacy resubmission are mutually exclusive"
        );
        policy.validate().expect("invalid RecoveryPolicy");
        self.recovery = Some(policy);
        self.rescheduler = rescheduler;
        self
    }

    /// Enables fault tolerance: a cloudlet whose VM dies (or never came
    /// up) is rebound to the next surviving VM and resubmitted, up to
    /// `max_retries` times.
    pub fn with_resubmission(mut self, max_retries: u8) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Cloudlets resubmitted after failures.
    pub fn resubmissions(&self) -> u64 {
        self.resubmissions
    }

    /// Declares workflow precedence: `parents[c]` must all finish before
    /// cloudlet `c` is submitted. The caller is responsible for supplying
    /// an acyclic graph ([`crate::simulation::SimulationBuilder`]
    /// validates this).
    pub fn with_dependencies(mut self, parents: Vec<Vec<CloudletId>>) -> Self {
        assert_eq!(
            parents.len(),
            self.assignment.len(),
            "dependencies must cover every cloudlet"
        );
        let n = parents.len();
        let mut children = vec![Vec::new(); n];
        let mut pending = vec![0u32; n];
        for (c, ps) in parents.iter().enumerate() {
            pending[c] = u32::try_from(ps.len()).expect("parent list fits u32");
            for p in ps {
                children[p.index()].push(c as u32);
            }
        }
        self.children = children;
        self.pending_parents = pending;
        self.parents = Some(parents);
        self
    }

    /// Marks `child` as released outside the broker: the sharded DAG
    /// driver resolves same-VM dependency chains inside lane replay, so
    /// the pending-parent counter is given a sentinel excess that parent
    /// completions can never drain. The counter thus never reaches zero
    /// and [`Broker::on_parent_done`] never double-releases the child.
    pub(crate) fn mask_release(&mut self, child: CloudletId) {
        self.pending_parents[child.index()] += 1;
    }

    /// Staggers cloudlet submissions: cloudlet `c` arrives at
    /// `arrivals[c]` (absolute simulated time). Cloudlets whose arrival
    /// precedes fleet readiness are submitted as soon as the fleet is up.
    pub fn with_arrivals(mut self, arrivals: Vec<SimTime>) -> Self {
        assert_eq!(
            arrivals.len(),
            self.assignment.len(),
            "arrivals must cover every cloudlet"
        );
        self.arrivals = Some(arrivals);
        self
    }

    fn request_vms(&mut self, world: &mut World, ctx: &mut Context<'_>) {
        assert_eq!(
            world.vms.len(),
            self.vm_placement.len(),
            "placement must cover every VM"
        );
        self.outstanding_vm_acks = world.vms.len();
        if self.outstanding_vm_acks == 0 {
            self.submit_cloudlets(world, ctx);
            return;
        }
        for (idx, dc) in self.vm_placement.iter().enumerate() {
            let vm = VmId::from_index(idx);
            world.vm_mut(vm).status = crate::vm::VmStatus::Requested;
            let latency = self.topology.latency_to(*dc);
            ctx.send(
                self.dc_entities[dc.index()],
                latency,
                Event::VmCreate { vm },
            );
        }
    }

    /// Fleet is up: submit every cloudlet whose parents (if any) are done.
    fn submit_cloudlets(&mut self, world: &mut World, ctx: &mut Context<'_>) {
        assert_eq!(
            world.cloudlets.len(),
            self.assignment.len(),
            "assignment must cover every cloudlet"
        );
        self.fleet_ready = true;
        if self.parents.is_none() && self.max_retries == 0 && self.recovery.is_none() {
            self.submit_all_batched(world, ctx);
            return;
        }
        for idx in 0..self.assignment.len() {
            let ready = self.parents.is_none() || self.pending_parents[idx] == 0;
            if ready {
                self.submit_one(world, ctx, idx);
            }
        }
    }

    /// The batch-model fast path: cloudlets that reach the same VM at the
    /// same instant travel in one `CloudletSubmitBatch` event, so the VM's
    /// scheduler settles once per group instead of once per cloudlet.
    ///
    /// Per-VM submission order is unchanged (groups keep cloudlet-index
    /// order, and distinct delivery times stay distinct events), so this
    /// is trace-equivalent to the per-cloudlet path. Workflow runs keep
    /// that path because child submissions depend on return order, and so
    /// do resubmission runs, where a rebind may interleave with a group.
    fn submit_all_batched(&mut self, world: &mut World, ctx: &mut Context<'_>) {
        let mut groups: Vec<(VmId, SimTime, Vec<CloudletId>)> = Vec::new();
        let mut group_of: std::collections::HashMap<(u32, u64), usize> =
            std::collections::HashMap::new();
        for idx in 0..self.assignment.len() {
            let cloudlet = CloudletId::from_index(idx);
            let vm_id = self.assignment[idx];
            let vm = world.vm(vm_id);
            if !vm.is_active() {
                // Dead-VM bookkeeping (cascade_failure) sends no events,
                // so handling it inline preserves event order.
                self.cascade_failure(world, cloudlet);
                continue;
            }
            let dc = vm.datacenter.expect("active VM has a datacenter");
            let latency = self.topology.latency_to(dc);
            let spec = &world.cloudlets[idx].spec;
            let in_delay = transfer_time(spec.file_size_mb, vm.spec.bw_mbps);
            let wait = self
                .arrivals
                .as_ref()
                .map(|a| a[idx].saturating_sub(ctx.now))
                .unwrap_or(SimTime::ZERO);
            world.cloudlet_mut(cloudlet).submit_time = Some(ctx.now + wait);
            let delay = wait + latency + in_delay;
            let slot = *group_of
                .entry((vm_id.0, delay.as_millis().to_bits()))
                .or_insert_with(|| {
                    groups.push((vm_id, delay, Vec::new()));
                    groups.len() - 1
                });
            groups[slot].2.push(cloudlet);
        }
        for (vm_id, delay, mut cloudlets) in groups {
            let dc = world.vm(vm_id).datacenter.expect("grouped VM is placed");
            let dest = self.dc_entities[dc.index()];
            if cloudlets.len() == 1 {
                let cloudlet = cloudlets.pop().expect("length checked");
                ctx.send(
                    dest,
                    delay,
                    Event::CloudletSubmit {
                        cloudlet,
                        vm: vm_id,
                    },
                );
            } else {
                ctx.send(
                    dest,
                    delay,
                    Event::CloudletSubmitBatch {
                        vm: vm_id,
                        cloudlets,
                    },
                );
            }
        }
    }

    /// Picks the next active VM cyclically, if any survives.
    fn next_active_vm(&mut self, world: &World) -> Option<VmId> {
        let n = world.vms.len();
        for step in 0..n {
            let idx = (self.rebind_cursor + step) % n;
            if world.vms[idx].is_active() {
                self.rebind_cursor = (idx + 1) % n;
                return Some(VmId::from_index(idx));
            }
        }
        None
    }

    /// Attempts to rebind a dead cloudlet onto a surviving VM. Returns
    /// true if it was resubmitted.
    fn try_resubmit(&mut self, world: &mut World, ctx: &mut Context<'_>, idx: usize) -> bool {
        if self.max_retries == 0 {
            return false;
        }
        if self.retries.is_empty() {
            self.retries = vec![0; self.assignment.len()];
        }
        if self.retries[idx] >= self.max_retries {
            return false;
        }
        let Some(new_vm) = self.next_active_vm(world) else {
            return false;
        };
        self.retries[idx] += 1;
        self.resubmissions += 1;
        self.assignment[idx] = new_vm;
        // Reset the record: the cloudlet gets a fresh life on a new VM.
        let cl = world.cloudlet_mut(CloudletId::from_index(idx));
        cl.status = crate::cloudlet::CloudletStatus::Created;
        cl.vm = None;
        cl.start_time = None;
        cl.finish_time = None;
        self.submit_one(world, ctx, idx);
        true
    }

    /// Submits one ready cloudlet, or fails it (and its descendants) if
    /// its VM never came up.
    fn submit_one(&mut self, world: &mut World, ctx: &mut Context<'_>, idx: usize) {
        let cloudlet = CloudletId::from_index(idx);
        let vm_id = self.assignment[idx];
        let vm = world.vm(vm_id);
        if !vm.is_active() {
            if self.recovery.is_some() {
                // Recovery mode: the dead-VM submission becomes a retry
                // candidate instead of a terminal failure.
                self.queue_retry(world, ctx, cloudlet);
            } else if !self.try_resubmit(world, ctx, idx) {
                self.cascade_failure(world, cloudlet);
            }
            return;
        }
        let dc = vm.datacenter.expect("active VM has a datacenter");
        let latency = self.topology.latency_to(dc);
        // Input file travels over the VM's bandwidth before execution.
        let spec = &world.cloudlets[idx].spec;
        let in_delay = transfer_time(spec.file_size_mb, vm.spec.bw_mbps);
        // An arrival in the future defers submission until then.
        let wait = self
            .arrivals
            .as_ref()
            .map(|a| a[idx].saturating_sub(ctx.now))
            .unwrap_or(SimTime::ZERO);
        let cl = world.cloudlet_mut(cloudlet);
        cl.submit_time = Some(ctx.now + wait);
        ctx.send(
            self.dc_entities[dc.index()],
            wait + latency + in_delay,
            Event::CloudletSubmit {
                cloudlet,
                vm: vm_id,
            },
        );
    }

    /// A parent completed: release any children that became ready.
    fn on_parent_done(&mut self, world: &mut World, ctx: &mut Context<'_>, parent: CloudletId) {
        if self.parents.is_none() {
            return;
        }
        let released: Vec<u32> = self.children[parent.index()]
            .iter()
            .copied()
            .filter(|&child| {
                let pending = &mut self.pending_parents[child as usize];
                debug_assert!(*pending > 0, "child released twice");
                *pending -= 1;
                *pending == 0
            })
            .collect();
        if self.fleet_ready {
            for child in released {
                self.submit_one(world, ctx, child as usize);
            }
        }
    }

    /// Books a failed attempt and queues the cloudlet into the next retry
    /// batch (or abandons it once its retry budget is spent). The wasted
    /// execution time of the attempt is charged to the world's resilience
    /// counters here, at the moment of failure.
    fn queue_retry(&mut self, world: &mut World, ctx: &mut Context<'_>, cloudlet: CloudletId) {
        let policy = self.recovery.expect("queue_retry requires recovery");
        let idx = cloudlet.index();
        if self.retries.is_empty() {
            self.retries = vec![0; self.assignment.len()];
        }
        if self.first_failed_at.is_empty() {
            self.first_failed_at = vec![None; self.assignment.len()];
        }
        {
            let cl = world.cloudlet(cloudlet);
            if let (Some(start), None) = (cl.start_time, cl.finish_time) {
                world.resilience.wasted_work_ms += ctx.now.saturating_sub(start).as_millis();
            }
        }
        if self.first_failed_at[idx].is_none() {
            self.first_failed_at[idx] = Some(ctx.now);
        }
        if self.retries[idx] >= policy.max_attempts {
            self.abandon(world, cloudlet);
            return;
        }
        self.retry_pending.push(cloudlet);
        self.arm_retry_wake(ctx, policy);
    }

    /// Arms the single in-flight `RetryWake` timer, backed off by the
    /// retry count of the oldest pending cloudlet.
    fn arm_retry_wake(&mut self, ctx: &mut Context<'_>, policy: RecoveryPolicy) {
        if self.retry_wake_armed || self.retry_pending.is_empty() {
            return;
        }
        self.retry_wake_armed = true;
        let spent = self.retries[self.retry_pending[0].index()];
        ctx.send_self(policy.backoff(spent), Event::RetryWake);
    }

    /// A retry batch's backoff expired: replan the pending cloudlets onto
    /// the surviving fleet and resubmit them.
    fn flush_retries(&mut self, world: &mut World, ctx: &mut Context<'_>) {
        let policy = self.recovery.expect("flush_retries requires recovery");
        if self.retry_pending.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.retry_pending);
        batch.sort_unstable_by_key(|c| c.0);
        batch.dedup();
        let targets: Vec<Option<VmId>> = match self.rescheduler.as_mut() {
            Some(rs) => {
                let picked = rs.replan(world, ctx.now, &batch);
                assert_eq!(
                    picked.len(),
                    batch.len(),
                    "rescheduler must pick one VM per cloudlet"
                );
                picked.into_iter().map(Some).collect()
            }
            None => vec![None; batch.len()],
        };
        for (i, &cloudlet) in batch.iter().enumerate() {
            let idx = cloudlet.index();
            // An inactive pick (or no rescheduler) falls back to cyclic
            // rebinding over whatever survives.
            let target = targets[i]
                .filter(|v| v.index() < world.vms.len() && world.vm(*v).is_active())
                .or_else(|| self.next_active_vm(world));
            let Some(vm) = target else {
                // Nothing alive right now. A scheduled repair may still
                // bring capacity back, so requeue — but charge the
                // attempt, which bounds a fleet that never recovers to
                // `max_attempts` idle wakes per cloudlet.
                self.retries[idx] += 1;
                if self.retries[idx] >= policy.max_attempts {
                    self.abandon(world, cloudlet);
                } else {
                    self.retry_pending.push(cloudlet);
                }
                continue;
            };
            self.retries[idx] += 1;
            self.resubmissions += 1;
            world.resilience.retries += 1;
            self.assignment[idx] = vm;
            // Fresh life on the new VM: wipe the previous attempt.
            let cl = world.cloudlet_mut(cloudlet);
            cl.status = CloudletStatus::Created;
            cl.vm = None;
            cl.start_time = None;
            cl.finish_time = None;
            self.submit_one(world, ctx, idx);
        }
        self.arm_retry_wake(ctx, policy);
    }

    /// Permanently fails a cloudlet whose retry budget is spent, plus any
    /// workflow descendants that can now never run.
    fn abandon(&mut self, world: &mut World, cloudlet: CloudletId) {
        world.resilience.abandoned += 1;
        world.cloudlet_mut(cloudlet).status = CloudletStatus::Failed;
        self.fail_descendants(world, cloudlet);
    }

    /// Fails every workflow descendant of the failed `cloudlet`.
    fn fail_descendants(&mut self, world: &mut World, cloudlet: CloudletId) {
        if self.parents.is_some() {
            let children: Vec<u32> = self.children[cloudlet.index()].clone();
            for child in children {
                self.cascade_failure(world, CloudletId(child));
            }
        }
    }

    /// Marks a cloudlet failed and transitively fails every descendant
    /// that can now never run.
    fn cascade_failure(&mut self, world: &mut World, root: CloudletId) {
        let mut stack = vec![root.0];
        while let Some(c) = stack.pop() {
            let cl = world.cloudlet_mut(CloudletId(c));
            if cl.status == CloudletStatus::Failed {
                continue;
            }
            cl.status = CloudletStatus::Failed;
            if self.parents.is_some() {
                stack.extend(self.children[c as usize].iter().copied());
            }
        }
    }
}

impl Entity for Broker {
    fn id(&self) -> EntityId {
        self.entity
    }

    fn handle(&mut self, world: &mut World, ctx: &mut Context<'_>, ev: ScheduledEvent) {
        match ev.event {
            Event::Start => self.request_vms(world, ctx),
            Event::VmCreateAck { .. } => {
                self.outstanding_vm_acks -= 1;
                if self.outstanding_vm_acks == 0 {
                    self.submit_cloudlets(world, ctx);
                }
            }
            Event::CloudletReturn { cloudlet } => {
                debug_assert!(
                    world.cloudlet(cloudlet).is_finished(),
                    "returned cloudlet must be finished"
                );
                // Close the recovery window for a cloudlet that had
                // failed at least once and now completed.
                if let Some(slot) = self.first_failed_at.get_mut(cloudlet.index()) {
                    if let Some(t0) = slot.take() {
                        world.resilience.recovered += 1;
                        world.resilience.recovery_time_ms += ctx.now.saturating_sub(t0).as_millis();
                    }
                }
                self.on_parent_done(world, ctx, cloudlet);
            }
            Event::CloudletFailed { cloudlet } => {
                debug_assert_eq!(
                    world.cloudlet(cloudlet).status,
                    CloudletStatus::Failed,
                    "reported cloudlet must be failed"
                );
                // Batched retry/backoff recovery takes precedence; the
                // legacy path rebinds immediately.
                if self.recovery.is_some() {
                    self.queue_retry(world, ctx, cloudlet);
                    return;
                }
                // Fault tolerance first: a surviving VM can take the work.
                if self.try_resubmit(world, ctx, cloudlet.index()) {
                    return;
                }
                // The datacenter marked the cloudlet itself; the broker
                // fails any descendants that now cannot run.
                self.fail_descendants(world, cloudlet);
            }
            Event::RetryWake => {
                self.retry_wake_armed = false;
                self.flush_retries(world, ctx);
            }
            other => panic!("broker received unexpected event {other:?}"),
        }
    }
}

/// Delay before execution for a cloudlet: broker→DC latency + input staging.
///
/// Exposed for analytical tests that want to predict event times.
pub fn submission_delay(
    topology: &Topology,
    dc: DatacenterId,
    file_size_mb: f64,
    vm_bw: f64,
) -> SimTime {
    topology.latency_to(dc) + transfer_time(file_size_mb, vm_bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_delay_combines_latency_and_staging() {
        let topo = Topology::with_latencies(vec![10.0]);
        let d = submission_delay(&topo, DatacenterId(0), 300.0, 500.0);
        // 10ms latency + 4.8s staging.
        assert!((d.as_millis() - 4_810.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown datacenter")]
    fn placement_into_unknown_dc_rejected() {
        let _ = Broker::new(
            EntityId(0),
            vec![EntityId(1)],
            vec![DatacenterId(3)],
            vec![],
            Topology::flat(1),
        );
    }

    #[test]
    #[should_panic(expected = "at least one datacenter")]
    fn broker_requires_datacenters() {
        let _ = Broker::new(EntityId(0), vec![], vec![], vec![], Topology::flat(0));
    }
}
