//! High-level simulation façade.
//!
//! Wires a broker, datacenters, VMs and cloudlets into a kernel, runs it to
//! completion and returns a [`SimulationOutcome`]. This is the API the
//! benchmark harness and the examples use:
//!
//! ```
//! use simcloud::prelude::*;
//!
//! let vms = vec![VmSpec::homogeneous_default(); 4];
//! let cloudlets = vec![CloudletSpec::homogeneous_default(); 16];
//! // Bind cloudlets to VMs cyclically (the paper's Base Test).
//! let assignment: Vec<VmId> =
//!     (0..16).map(|i| VmId::from_index(i % 4)).collect();
//!
//! let outcome = SimulationBuilder::new()
//!     .datacenter(DatacenterBlueprint::sized_for(
//!         &VmSpec::homogeneous_default(),
//!         4,
//!         2,
//!         DatacenterCharacteristics::default(),
//!     ))
//!     .vms(vms)
//!     .cloudlets(cloudlets)
//!     .assignment(assignment)
//!     .run()
//!     .expect("valid scenario");
//! assert_eq!(outcome.finished_count(), 16);
//! ```

use crate::broker::{Broker, RecoveryPolicy, Rescheduler};
use crate::cloudlet::CloudletSpec;
use crate::datacenter::{Datacenter, DatacenterBlueprint};
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::ids::{DatacenterId, HostId, VmId};
use crate::kernel::{Kernel, World};
use crate::network::Topology;
use crate::stats::{AggregateMetrics, CloudletRecord, RecordMode, SimulationOutcome};
use crate::time::SimTime;
use crate::vm::VmSpec;

/// Which execution engine runs the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The reference discrete-event kernel: one global event queue.
    #[default]
    Sequential,
    /// The sharded engine: per-VM timelines replayed across rayon
    /// workers, trace-equivalent to the sequential kernel. Every scenario
    /// — plain batch, fault injection, recovery, resubmission, workflow
    /// DAGs — runs on the epoch driver, which interleaves sequential
    /// control instants with parallel lane replay, bounds DAG replay by a
    /// release barrier and resolves same-VM releases inside the lanes. A
    /// plain batch has no control instant after placement, so its lanes
    /// replay in one parallel flush. Every scenario the builder accepts
    /// runs on the engine it asked for.
    Sharded,
}

impl EngineKind {
    /// Engine name for reports and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sequential => "sequential",
            EngineKind::Sharded => "sharded",
        }
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    /// Parses an engine name as the CLI and bench flags spell it:
    /// `sequential` (or `seq`) and `sharded`, in any case.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "sequential" | "seq" => Ok(EngineKind::Sequential),
            "sharded" => Ok(EngineKind::Sharded),
            _ => Err(format!("unknown engine '{s}' (try: sequential, sharded)")),
        }
    }
}

/// Builder for a full simulation run.
pub struct SimulationBuilder {
    datacenters: Vec<DatacenterBlueprint>,
    vms: Vec<VmSpec>,
    cloudlets: Vec<CloudletSpec>,
    vm_placement: Option<Vec<DatacenterId>>,
    assignment: Vec<VmId>,
    arrivals: Option<Vec<crate::time::SimTime>>,
    dependencies: Option<Vec<Vec<crate::ids::CloudletId>>>,
    topology: Option<Topology>,
    max_events: Option<u64>,
    max_retries: u8,
    engine: EngineKind,
    record_mode: RecordMode,
    faults: Option<FaultPlan>,
    recovery: Option<RecoveryPolicy>,
    rescheduler: Option<Box<dyn Rescheduler>>,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationBuilder {
    /// Starts an empty scenario.
    pub fn new() -> Self {
        SimulationBuilder {
            datacenters: Vec::new(),
            vms: Vec::new(),
            cloudlets: Vec::new(),
            vm_placement: None,
            assignment: Vec::new(),
            arrivals: None,
            dependencies: None,
            topology: None,
            max_events: None,
            max_retries: 0,
            engine: EngineKind::Sequential,
            record_mode: RecordMode::Full,
            faults: None,
            recovery: None,
            rescheduler: None,
        }
    }

    /// Installs a seeded chaos timeline ([`FaultPlan`]): host
    /// fail/repair windows and VM straggler intervals, compiled into the
    /// event queue before the run starts. An empty plan leaves the run
    /// byte-identical to one with no plan at all.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables broker-level batched retry/backoff recovery: failed
    /// cloudlets are collected into retry batches, backed off
    /// exponentially (capped), and resubmitted onto surviving VMs.
    /// Mutually exclusive with [`SimulationBuilder::resubmit_failures`].
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Installs a fault-aware [`Rescheduler`] consulted for each retry
    /// batch. Without one, retries rebind cyclically over survivors.
    /// Only meaningful together with [`SimulationBuilder::recovery`].
    pub fn rescheduler(mut self, rescheduler: Box<dyn Rescheduler>) -> Self {
        self.rescheduler = Some(rescheduler);
        self
    }

    /// Selects the execution engine. Defaults to the sequential kernel.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Selects how per-cloudlet results are retained. Defaults to
    /// [`RecordMode::Full`]; [`RecordMode::Aggregate`] folds the metrics
    /// at outcome construction and returns an empty record vector,
    /// keeping memory O(VMs) instead of O(cloudlets).
    pub fn record_mode(mut self, mode: RecordMode) -> Self {
        self.record_mode = mode;
        self
    }

    /// Adds a datacenter.
    pub fn datacenter(mut self, blueprint: DatacenterBlueprint) -> Self {
        self.datacenters.push(blueprint);
        self
    }

    /// Sets the VM fleet.
    pub fn vms(mut self, vms: Vec<VmSpec>) -> Self {
        self.vms = vms;
        self
    }

    /// Sets the cloudlet workload.
    pub fn cloudlets(mut self, cloudlets: Vec<CloudletSpec>) -> Self {
        self.cloudlets = cloudlets;
        self
    }

    /// Explicitly places each VM in a datacenter. Defaults to spreading
    /// VMs across datacenters cyclically.
    pub fn vm_placement(mut self, placement: Vec<DatacenterId>) -> Self {
        self.vm_placement = Some(placement);
        self
    }

    /// Sets the cloudlet→VM assignment (a scheduler's output).
    pub fn assignment(mut self, assignment: Vec<VmId>) -> Self {
        self.assignment = assignment;
        self
    }

    /// Staggers cloudlet arrivals (absolute times from t=0). Defaults to
    /// batch submission — everything arrives as soon as the fleet is up.
    pub fn arrivals(mut self, arrivals: Vec<crate::time::SimTime>) -> Self {
        self.arrivals = Some(arrivals);
        self
    }

    /// Declares workflow precedence: `parents[c]` lists the cloudlets
    /// that must finish before cloudlet `c` is submitted. The graph must
    /// be acyclic; `run` validates this.
    pub fn dependencies(mut self, parents: Vec<Vec<crate::ids::CloudletId>>) -> Self {
        self.dependencies = Some(parents);
        self
    }

    /// Sets the network topology. Defaults to zero-latency.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Enables fault tolerance: cloudlets whose VM dies are rebound to a
    /// surviving VM up to `max_retries` times.
    pub fn resubmit_failures(mut self, max_retries: u8) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Overrides the kernel's runaway-event guard.
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = Some(max);
        self
    }

    /// Validates the scenario, runs it to completion and collects metrics.
    pub fn run(self) -> Result<SimulationOutcome, SimError> {
        if self.datacenters.is_empty() {
            return Err(SimError::NoDatacenters);
        }
        if self.vms.is_empty() {
            return Err(SimError::NoVms);
        }
        let dc_count = self.datacenters.len();
        let vm_placement = match self.vm_placement {
            Some(p) => {
                if p.len() != self.vms.len() {
                    return Err(SimError::PlacementMismatch {
                        vms: self.vms.len(),
                        placements: p.len(),
                    });
                }
                if let Some(bad) = p.iter().find(|d| d.index() >= dc_count) {
                    return Err(SimError::UnknownDatacenter(*bad));
                }
                p
            }
            None => (0..self.vms.len())
                .map(|i| DatacenterId::from_index(i % dc_count))
                .collect(),
        };
        if self.assignment.len() != self.cloudlets.len() {
            return Err(SimError::AssignmentMismatch {
                cloudlets: self.cloudlets.len(),
                assignments: self.assignment.len(),
            });
        }
        if let Some(bad) = self.assignment.iter().find(|v| v.index() >= self.vms.len()) {
            return Err(SimError::UnknownVm(*bad));
        }
        if let Some(parents) = &self.dependencies {
            validate_dag(parents, self.cloudlets.len())
                .map_err(|what| SimError::InvalidDependencies { what })?;
        }
        if let Some(arrivals) = &self.arrivals {
            if arrivals.len() != self.cloudlets.len() {
                return Err(SimError::AssignmentMismatch {
                    cloudlets: self.cloudlets.len(),
                    assignments: arrivals.len(),
                });
            }
            if let Some(bad) = arrivals.iter().find(|t| !t.is_valid_clock()) {
                return Err(SimError::InvalidSpec {
                    what: format!("arrival time {bad:?} is not a valid clock value"),
                });
            }
        }
        for (i, vm) in self.vms.iter().enumerate() {
            vm.validate().map_err(|e| SimError::InvalidSpec {
                what: format!("vm {i}: {e}"),
            })?;
        }
        for (i, cl) in self.cloudlets.iter().enumerate() {
            cl.validate().map_err(|e| SimError::InvalidSpec {
                what: format!("cloudlet {i}: {e}"),
            })?;
        }
        if let Some(plan) = &self.faults {
            let hosts_per_dc: Vec<usize> = self.datacenters.iter().map(|d| d.hosts.len()).collect();
            plan.validate(&hosts_per_dc, self.vms.len())
                .map_err(|what| SimError::InvalidSpec {
                    what: format!("fault plan: {what}"),
                })?;
        }
        if let Some(policy) = &self.recovery {
            policy.validate().map_err(|what| SimError::InvalidSpec {
                what: format!("recovery policy: {what}"),
            })?;
            if self.max_retries > 0 {
                return Err(SimError::InvalidSpec {
                    what: "recovery and resubmit_failures are mutually exclusive".into(),
                });
            }
        }

        let topology = self.topology.unwrap_or_else(|| Topology::flat(dc_count));

        // Compile the fault plan into per-datacenter schedules: failures
        // ride the blueprint's existing injection list, repairs and
        // straggler intervals are armed via `Datacenter::arm_faults`. A
        // slowdown with an end compiles to two `VmDegrade` events (onset
        // factor, then 1.0 to restore).
        let mut dc_failures: Vec<Vec<(HostId, SimTime)>> = vec![Vec::new(); dc_count];
        let mut dc_repairs: Vec<Vec<(HostId, SimTime)>> = vec![Vec::new(); dc_count];
        let mut dc_degrades: Vec<Vec<(VmId, SimTime, f64)>> = vec![Vec::new(); dc_count];
        if let Some(plan) = &self.faults {
            for o in &plan.host_outages {
                dc_failures[o.datacenter.index()].push((o.host, o.fail_at));
                if let Some(r) = o.repair_at {
                    dc_repairs[o.datacenter.index()].push((o.host, r));
                }
            }
            for s in &plan.vm_slowdowns {
                let dc = vm_placement[s.vm.index()].index();
                dc_degrades[dc].push((s.vm, s.from, s.factor));
                if let Some(u) = s.until {
                    dc_degrades[dc].push((s.vm, u, 1.0));
                }
            }
        }

        // Engine routing: `EngineKind::Sharded` runs on the epoch driver
        // and `EngineKind::Sequential` on the kernel. A plain batch (no
        // dependencies, no fault shaping) compiles to an edgeless plan with
        // no control instant after placement. The dependency table is
        // compiled before the broker consumes the assignment, arrival and
        // topology vectors.
        let max_events = self.max_events.unwrap_or(Kernel::DEFAULT_MAX_EVENTS);
        let fault_shaped = self.datacenters.iter().any(|d| !d.failures.is_empty())
            || dc_failures.iter().any(|f| !f.is_empty())
            || dc_repairs.iter().any(|r| !r.is_empty())
            || dc_degrades.iter().any(|d| !d.is_empty())
            || self.recovery.is_some()
            || self.max_retries > 0;
        let plan = (self.engine == EngineKind::Sharded).then(|| {
            crate::sharded::DagPlan::compile(
                self.dependencies.as_deref(),
                &self.assignment,
                self.vms.len(),
                fault_shaped,
                self.arrivals.as_deref(),
                topology.clone(),
            )
        });

        let mut world = World::new(self.vms, self.cloudlets);

        // Both paths drive the same entities, built with dense ids
        // (datacenters first, broker last) — exactly the ids
        // `Kernel::register` would hand out in this order.
        let mut dcs = Vec::with_capacity(dc_count);
        let mut dc_entities = Vec::with_capacity(dc_count);
        for (i, mut blueprint) in self.datacenters.into_iter().enumerate() {
            blueprint.failures.append(&mut dc_failures[i]);
            let entity = crate::ids::EntityId::from_index(i);
            let mut dc = Datacenter::new(entity, DatacenterId::from_index(i), blueprint);
            dc.arm_faults(
                std::mem::take(&mut dc_repairs[i]),
                std::mem::take(&mut dc_degrades[i]),
            );
            dc_entities.push(entity);
            dcs.push(dc);
        }
        let broker_id = crate::ids::EntityId::from_index(dc_count);
        let mut broker = Broker::new(
            broker_id,
            dc_entities,
            vm_placement,
            self.assignment,
            topology,
        );
        if let Some(arrivals) = self.arrivals {
            broker = broker.with_arrivals(arrivals);
        }
        if let Some(parents) = self.dependencies {
            broker = broker.with_dependencies(parents);
        }
        if self.max_retries > 0 {
            broker = broker.with_resubmission(self.max_retries);
        }
        if let Some(policy) = self.recovery {
            broker = broker.with_recovery(policy, self.rescheduler);
        }

        let stats = match plan {
            Some(plan) => {
                crate::sharded::run_epochs(&mut world, &mut dcs, &mut broker, max_events, plan)
            }
            None => {
                let mut kernel = Kernel::new().with_max_events(max_events);
                for dc in dcs {
                    kernel.register(Box::new(dc));
                }
                kernel.register(Box::new(broker));
                kernel.run(&mut world)
            }
        };
        outcome_from_world(&world, stats, self.engine, self.record_mode)
    }
}

/// Collects run-level counters and the metric fold from the world, or
/// returns the runaway-guard error when the run hit its event limit.
///
/// The kernel owns the entities; rather than downcasting the broker we
/// recompute the counters from the world, which is equivalent and keeps
/// the kernel API minimal. The sharded engine shares this path, which
/// guarantees both engines derive their outcome identically. Every
/// cloudlet's record is folded into one [`AggregateMetrics`] in
/// cloudlet-id order whatever the [`RecordMode`]; `Full` additionally
/// keeps the records.
fn outcome_from_world(
    world: &World,
    stats: crate::kernel::RunStats,
    engine: EngineKind,
    mode: RecordMode,
) -> Result<SimulationOutcome, SimError> {
    if !stats.drained {
        return Err(SimError::EventLimitExceeded {
            processed: stats.events_processed,
        });
    }
    let vms_created = world.vms.iter().filter(|v| v.is_active()).count();
    let vms_rejected = world
        .vms
        .iter()
        .filter(|v| v.status == crate::vm::VmStatus::Rejected)
        .count();
    let mut aggregate = AggregateMetrics::new(world.vms.len());
    let mut records = match mode {
        RecordMode::Full => Vec::with_capacity(world.cloudlets.len()),
        RecordMode::Aggregate => Vec::new(),
    };
    for cl in &world.cloudlets {
        let record = CloudletRecord::from(cl);
        aggregate.observe(&record);
        if mode == RecordMode::Full {
            records.push(record);
        }
    }
    Ok(SimulationOutcome {
        records,
        aggregate,
        end_time: stats.end_time,
        events_processed: stats.events_processed,
        vms_created,
        vms_rejected,
        resilience: world.resilience,
        engine,
    })
}

/// Checks a parents-list DAG: every reference in range, no cycles
/// (Kahn's algorithm), correct length.
fn validate_dag(parents: &[Vec<crate::ids::CloudletId>], cloudlets: usize) -> Result<(), String> {
    if parents.len() != cloudlets {
        return Err(format!(
            "dependency list covers {} cloudlets, expected {cloudlets}",
            parents.len()
        ));
    }
    let mut indegree = vec![0usize; cloudlets];
    let mut children = vec![Vec::new(); cloudlets];
    for (c, ps) in parents.iter().enumerate() {
        for p in ps {
            if p.index() >= cloudlets {
                return Err(format!("cloudlet {c} depends on unknown cloudlet {p}"));
            }
            if p.index() == c {
                return Err(format!("cloudlet {c} depends on itself"));
            }
            indegree[c] += 1;
            children[p.index()].push(c);
        }
    }
    let mut ready: Vec<usize> = (0..cloudlets).filter(|c| indegree[*c] == 0).collect();
    let mut visited = 0usize;
    while let Some(c) = ready.pop() {
        visited += 1;
        for &child in &children[c] {
            indegree[child] -= 1;
            if indegree[child] == 0 {
                ready.push(child);
            }
        }
    }
    if visited != cloudlets {
        return Err(format!(
            "dependency graph has a cycle ({} of {cloudlets} cloudlets reachable)",
            visited
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::DatacenterCharacteristics;

    fn base_assignment(cloudlets: usize, vms: usize) -> Vec<VmId> {
        (0..cloudlets).map(|i| VmId::from_index(i % vms)).collect()
    }

    fn quick_run(vms: usize, cloudlets: usize) -> SimulationOutcome {
        let vm = VmSpec::homogeneous_default();
        SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                vms,
                4,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm; vms])
            .cloudlets(vec![CloudletSpec::homogeneous_default(); cloudlets])
            .assignment(base_assignment(cloudlets, vms))
            .run()
            .expect("valid scenario")
    }

    #[test]
    fn engine_kind_parses_its_names() {
        assert_eq!("sequential".parse(), Ok(EngineKind::Sequential));
        assert_eq!("SEQ".parse(), Ok(EngineKind::Sequential));
        assert_eq!("Sharded".parse(), Ok(EngineKind::Sharded));
        let err = "warp".parse::<EngineKind>().unwrap_err();
        assert!(err.contains("warp") && err.contains("(try: sequential, sharded)"));
    }

    #[test]
    fn all_cloudlets_finish() {
        let outcome = quick_run(4, 20);
        assert_eq!(outcome.finished_count(), 20);
        assert_eq!(outcome.vms_created, 4);
        assert_eq!(outcome.vms_rejected, 0);
        assert_eq!(outcome.failed_count(), 0);
        assert!(outcome.simulation_time_ms().unwrap() > 0.0);
    }

    #[test]
    fn homogeneous_cyclic_assignment_is_balanced() {
        let outcome = quick_run(4, 40);
        let counts = outcome.per_vm_counts(4);
        assert_eq!(counts, vec![10, 10, 10, 10]);
        // Identical tasks on identical VMs: near-zero imbalance.
        assert!(outcome.time_imbalance().unwrap() < 1e-9);
    }

    #[test]
    fn execution_time_matches_analytic_model() {
        // One VM, one cloudlet: exec = length/mips seconds.
        let vm = VmSpec::homogeneous_default(); // 1000 MIPS
        let cl = CloudletSpec::new(250.0, 300.0, 300.0, 1); // 0.25s
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm])
            .cloudlets(vec![cl])
            .assignment(vec![VmId(0)])
            .run()
            .unwrap();
        let exec = outcome.records[0].execution_ms.unwrap();
        assert!((exec - 250.0).abs() < 1e-6, "expected 250ms, got {exec}");
    }

    #[test]
    fn queued_cloudlets_serialize_on_one_vm() {
        let vm = VmSpec::homogeneous_default();
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm])
            .cloudlets(vec![CloudletSpec::homogeneous_default(); 3])
            .assignment(vec![VmId(0); 3])
            .run()
            .unwrap();
        // Three 250ms tasks back-to-back: makespan 750ms.
        let sim = outcome.simulation_time_ms().unwrap();
        assert!((sim - 750.0).abs() < 1e-6, "expected 750ms, got {sim}");
    }

    #[test]
    fn rejected_vms_fail_their_cloudlets() {
        let vm = VmSpec::homogeneous_default();
        // Datacenter sized for a single VM, but two requested.
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm.clone(), vm])
            .cloudlets(vec![CloudletSpec::homogeneous_default(); 4])
            .assignment(vec![VmId(0), VmId(1), VmId(0), VmId(1)])
            .run()
            .unwrap();
        assert_eq!(outcome.vms_created, 1);
        assert_eq!(outcome.vms_rejected, 1);
        assert_eq!(outcome.failed_count(), 2);
        assert_eq!(outcome.finished_count(), 2);
    }

    #[test]
    fn validation_errors() {
        let vm = VmSpec::homogeneous_default();
        assert!(matches!(
            SimulationBuilder::new().run(),
            Err(SimError::NoDatacenters)
        ));
        assert!(matches!(
            SimulationBuilder::new()
                .datacenter(DatacenterBlueprint::sized_for(
                    &vm,
                    1,
                    1,
                    DatacenterCharacteristics::default()
                ))
                .run(),
            Err(SimError::NoVms)
        ));
        // Assignment to a VM that does not exist.
        let err = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm])
            .cloudlets(vec![CloudletSpec::homogeneous_default()])
            .assignment(vec![VmId(9)])
            .run();
        assert!(matches!(err, Err(SimError::UnknownVm(_))));
    }

    #[test]
    fn staggered_arrivals_delay_submission() {
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        let cl = CloudletSpec::new(1_000.0, 0.0, 0.0, 1);
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                2,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm; 2])
            .cloudlets(vec![cl; 2])
            .assignment(vec![VmId(0), VmId(1)])
            .arrivals(vec![
                crate::time::SimTime::ZERO,
                crate::time::SimTime::new(5_000.0),
            ])
            .run()
            .unwrap();
        let first = &outcome.records[0];
        let second = &outcome.records[1];
        assert!((first.start.unwrap().as_millis()).abs() < 1e-9);
        assert!((second.start.unwrap().as_millis() - 5_000.0).abs() < 1e-9);
        assert_eq!(second.submit.unwrap(), crate::time::SimTime::new(5_000.0));
        // Makespan spans from the first start to the last finish.
        assert!((outcome.simulation_time_ms().unwrap() - 6_000.0).abs() < 1e-9);
    }

    #[test]
    fn arrivals_length_mismatch_rejected() {
        let vm = VmSpec::homogeneous_default();
        let err = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm])
            .cloudlets(vec![CloudletSpec::homogeneous_default(); 2])
            .assignment(vec![VmId(0); 2])
            .arrivals(vec![crate::time::SimTime::ZERO])
            .run();
        assert!(matches!(err, Err(SimError::AssignmentMismatch { .. })));
    }

    #[test]
    fn host_failure_kills_resident_work() {
        use crate::ids::HostId;
        use crate::time::SimTime;
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        // Two hosts, one VM each; host 0 dies mid-run.
        let blueprint =
            DatacenterBlueprint::sized_for(&vm, 2, 1, DatacenterCharacteristics::default())
                .with_failure(HostId(0), SimTime::new(500.0));
        let long = CloudletSpec::new(2_000.0, 0.0, 0.0, 1); // 2s solo
        let outcome = SimulationBuilder::new()
            .datacenter(blueprint)
            .vms(vec![vm; 2])
            .cloudlets(vec![long; 4])
            .assignment(vec![VmId(0), VmId(1), VmId(0), VmId(1)])
            .run()
            .unwrap();
        // VM0's two cloudlets die with the host; VM1's two finish.
        assert_eq!(outcome.finished_count(), 2);
        assert_eq!(outcome.failed_count(), 2);
        for r in &outcome.records {
            match r.vm {
                Some(VmId(0)) => assert_eq!(r.status, crate::cloudlet::CloudletStatus::Failed),
                Some(VmId(1)) => assert_eq!(r.status, crate::cloudlet::CloudletStatus::Finished),
                other => panic!("unexpected vm {other:?}"),
            }
        }
    }

    #[test]
    fn resubmission_recovers_from_host_failure() {
        use crate::ids::HostId;
        use crate::time::SimTime;
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        // Host 0 dies at t=500 while VM0 runs its queue; with resubmission
        // the orphans move to VM1 and everything still finishes.
        let blueprint =
            DatacenterBlueprint::sized_for(&vm, 2, 1, DatacenterCharacteristics::default())
                .with_failure(HostId(0), SimTime::new(500.0));
        let outcome = SimulationBuilder::new()
            .datacenter(blueprint)
            .vms(vec![vm; 2])
            .cloudlets(vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1); 4])
            .assignment(vec![VmId(0), VmId(1), VmId(0), VmId(1)])
            .resubmit_failures(3)
            .run()
            .unwrap();
        assert_eq!(outcome.finished_count(), 4, "resubmission saves the work");
        assert_eq!(outcome.failed_count(), 0);
        // Anything finishing after the failure must be on the survivor.
        for r in &outcome.records {
            if r.finish.unwrap() > SimTime::new(500.0) {
                assert_eq!(r.vm, Some(VmId(1)), "rescued work runs on VM1");
            }
        }
    }

    #[test]
    fn resubmission_gives_up_when_no_vm_survives() {
        use crate::ids::HostId;
        use crate::time::SimTime;
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        let blueprint =
            DatacenterBlueprint::sized_for(&vm, 1, 1, DatacenterCharacteristics::default())
                .with_failure(HostId(0), SimTime::new(100.0));
        let outcome = SimulationBuilder::new()
            .datacenter(blueprint)
            .vms(vec![vm])
            .cloudlets(vec![CloudletSpec::new(5_000.0, 0.0, 0.0, 1); 2])
            .assignment(vec![VmId(0); 2])
            .resubmit_failures(5)
            .run()
            .unwrap();
        assert_eq!(outcome.finished_count(), 0);
        assert_eq!(outcome.failed_count(), 2);
    }

    #[test]
    fn failure_before_submission_fails_cloudlets_cleanly() {
        use crate::ids::HostId;
        use crate::time::SimTime;
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        // Host dies at t=100; the cloudlet arrives at t=500, after its VM
        // is gone — it must fail, not crash the kernel.
        let blueprint =
            DatacenterBlueprint::sized_for(&vm, 1, 1, DatacenterCharacteristics::default())
                .with_failure(HostId(0), SimTime::new(100.0));
        let outcome = SimulationBuilder::new()
            .datacenter(blueprint)
            .vms(vec![vm])
            .cloudlets(vec![CloudletSpec::new(1_000.0, 0.0, 0.0, 1)])
            .assignment(vec![VmId(0)])
            .arrivals(vec![SimTime::new(500.0)])
            .run()
            .unwrap();
        assert_eq!(outcome.finished_count(), 0);
        assert_eq!(outcome.failed_count(), 1);
    }

    #[test]
    fn workflow_chain_serializes_across_vms() {
        use crate::ids::CloudletId;
        // Two VMs, three chained 1s tasks on alternating VMs: each child
        // starts only after its parent finishes, despite idle VMs.
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        let cl = CloudletSpec::new(1_000.0, 0.0, 0.0, 1);
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                2,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm; 2])
            .cloudlets(vec![cl; 3])
            .assignment(vec![VmId(0), VmId(1), VmId(0)])
            .dependencies(vec![vec![], vec![CloudletId(0)], vec![CloudletId(1)]])
            .run()
            .unwrap();
        assert_eq!(outcome.finished_count(), 3);
        let f = |i: usize| outcome.records[i].finish.unwrap().as_millis();
        let s = |i: usize| outcome.records[i].start.unwrap().as_millis();
        assert!(s(1) >= f(0));
        assert!(s(2) >= f(1));
        // Chain of three 1s tasks: at least 3s of simulated span.
        assert!(f(2) - s(0) >= 3_000.0 - 1e-6);
    }

    #[test]
    fn workflow_diamond_joins_on_slowest_parent() {
        use crate::ids::CloudletId;
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        // c0 -> {c1 (1s), c2 (3s)} -> c3; all on distinct VMs.
        let cloudlets = vec![
            CloudletSpec::new(500.0, 0.0, 0.0, 1),
            CloudletSpec::new(1_000.0, 0.0, 0.0, 1),
            CloudletSpec::new(3_000.0, 0.0, 0.0, 1),
            CloudletSpec::new(500.0, 0.0, 0.0, 1),
        ];
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                4,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm; 4])
            .cloudlets(cloudlets)
            .assignment((0..4).map(VmId::from_index).collect())
            .dependencies(vec![
                vec![],
                vec![CloudletId(0)],
                vec![CloudletId(0)],
                vec![CloudletId(1), CloudletId(2)],
            ])
            .run()
            .unwrap();
        assert_eq!(outcome.finished_count(), 4);
        let f = |i: usize| outcome.records[i].finish.unwrap().as_millis();
        let s = |i: usize| outcome.records[i].start.unwrap().as_millis();
        // Join waits for the slow branch, not the fast one.
        assert!(s(3) >= f(2));
        assert!(f(2) > f(1));
    }

    #[test]
    fn cyclic_dependencies_rejected() {
        use crate::ids::CloudletId;
        let vm = VmSpec::homogeneous_default();
        let err = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm])
            .cloudlets(vec![CloudletSpec::homogeneous_default(); 2])
            .assignment(vec![VmId(0); 2])
            .dependencies(vec![vec![CloudletId(1)], vec![CloudletId(0)]])
            .run();
        assert!(matches!(err, Err(SimError::InvalidDependencies { .. })));
        // Self-loop.
        let vm = VmSpec::homogeneous_default();
        let err = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm])
            .cloudlets(vec![CloudletSpec::homogeneous_default()])
            .assignment(vec![VmId(0)])
            .dependencies(vec![vec![CloudletId(0)]])
            .run();
        assert!(matches!(err, Err(SimError::InvalidDependencies { .. })));
    }

    #[test]
    fn failed_parent_cascades_to_descendants() {
        use crate::ids::{CloudletId, HostId};
        use crate::time::SimTime;
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        // VM0's host dies while c0 runs; c1 (child, on healthy VM1) and
        // c2 (grandchild) must cascade to Failed; c3 is independent.
        let blueprint =
            DatacenterBlueprint::sized_for(&vm, 2, 1, DatacenterCharacteristics::default())
                .with_failure(HostId(0), SimTime::new(500.0));
        let outcome = SimulationBuilder::new()
            .datacenter(blueprint)
            .vms(vec![vm; 2])
            .cloudlets(vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1); 4])
            .assignment(vec![VmId(0), VmId(1), VmId(1), VmId(1)])
            .dependencies(vec![
                vec![],
                vec![CloudletId(0)],
                vec![CloudletId(1)],
                vec![],
            ])
            .run()
            .unwrap();
        use crate::cloudlet::CloudletStatus;
        assert_eq!(outcome.records[0].status, CloudletStatus::Failed);
        assert_eq!(outcome.records[1].status, CloudletStatus::Failed);
        assert_eq!(outcome.records[2].status, CloudletStatus::Failed);
        assert_eq!(outcome.records[3].status, CloudletStatus::Finished);
        assert_eq!(outcome.failed_count(), 3);
    }

    #[test]
    fn sharded_runs_fault_injection_on_epoch_driver() {
        use crate::faults::{FaultPlan, HostOutage};
        use crate::ids::HostId;
        let vm = VmSpec::homogeneous_default();
        let base = || {
            SimulationBuilder::new()
                .engine(EngineKind::Sharded)
                .datacenter(DatacenterBlueprint::sized_for(
                    &vm,
                    2,
                    1,
                    DatacenterCharacteristics::default(),
                ))
                .vms(vec![vm.clone(); 2])
                .cloudlets(vec![CloudletSpec::homogeneous_default(); 4])
                .assignment(base_assignment(4, 2))
        };
        // Blueprint-level failure injection runs sharded.
        let vm2 = VmSpec::homogeneous_default();
        let ok = SimulationBuilder::new()
            .engine(EngineKind::Sharded)
            .datacenter(
                DatacenterBlueprint::sized_for(&vm2, 2, 1, DatacenterCharacteristics::default())
                    .with_failure(HostId(0), SimTime::new(500.0)),
            )
            .vms(vec![vm2; 2])
            .cloudlets(vec![CloudletSpec::homogeneous_default(); 4])
            .assignment(base_assignment(4, 2))
            .run()
            .unwrap();
        assert_eq!(ok.engine, EngineKind::Sharded);
        // A non-empty fault plan: same.
        let mut plan = FaultPlan::healthy();
        plan.host_outages.push(HostOutage {
            datacenter: DatacenterId(0),
            host: HostId(0),
            fail_at: SimTime::new(500.0),
            repair_at: None,
        });
        let ok = base().faults(plan).run().unwrap();
        assert_eq!(ok.engine, EngineKind::Sharded);
        // Recovery alone also stays on the sharded engine.
        let ok = base()
            .recovery(crate::broker::RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(ok.engine, EngineKind::Sharded);
        // An all-healthy plan injects nothing: a plain batch, an edgeless
        // plan with no control instant after placement.
        let ok = base().faults(FaultPlan::healthy()).run().unwrap();
        assert_eq!(ok.engine, EngineKind::Sharded);
        assert_eq!(ok.finished_count(), 4);
        // A workflow DAG runs on the epoch driver too.
        let ok = base()
            .dependencies(vec![
                vec![],
                vec![crate::ids::CloudletId(0)],
                vec![],
                vec![],
            ])
            .run()
            .unwrap();
        assert_eq!(ok.engine, EngineKind::Sharded);
        assert_eq!(ok.finished_count(), 4);
    }

    #[test]
    fn event_guard_trips_on_every_engine_path() {
        use crate::ids::{CloudletId, HostId};
        let vm = VmSpec::homogeneous_default();
        let base = |engine: EngineKind| {
            SimulationBuilder::new()
                .engine(engine)
                .vms(vec![vm.clone(); 2])
                .cloudlets(vec![CloudletSpec::homogeneous_default(); 4])
                .assignment(base_assignment(4, 2))
                .max_events(3)
        };
        let blueprint =
            || DatacenterBlueprint::sized_for(&vm, 2, 1, DatacenterCharacteristics::default());
        for engine in [EngineKind::Sequential, EngineKind::Sharded] {
            let plain = base(engine).datacenter(blueprint()).run();
            let faulted = base(engine)
                .datacenter(blueprint().with_failure(HostId(0), SimTime::new(100.0)))
                .run();
            let dag = base(engine)
                .datacenter(blueprint())
                .dependencies(vec![vec![], vec![], vec![CloudletId(0)], vec![]])
                .run();
            for (shape, result) in [("plain", plain), ("faulted", faulted), ("dag", dag)] {
                assert!(
                    matches!(result, Err(SimError::EventLimitExceeded { .. })),
                    "{engine:?} / {shape}: a tiny event budget must trip the guard"
                );
            }
        }
    }

    #[test]
    fn healthy_fault_plan_is_byte_identical() {
        use crate::faults::FaultPlan;
        let run = |with_plan: bool| {
            let vm = VmSpec::homogeneous_default();
            let mut b = SimulationBuilder::new()
                .datacenter(DatacenterBlueprint::sized_for(
                    &vm,
                    4,
                    2,
                    DatacenterCharacteristics::default(),
                ))
                .vms(vec![vm; 4])
                .cloudlets(vec![CloudletSpec::homogeneous_default(); 24])
                .assignment(base_assignment(24, 4));
            if with_plan {
                b = b.faults(FaultPlan::healthy());
            }
            b.run().unwrap()
        };
        let plain = run(false);
        let healthy = run(true);
        assert_eq!(plain.events_processed, healthy.events_processed);
        assert_eq!(plain.resilience, healthy.resilience);
        for (a, b) in plain.records.iter().zip(&healthy.records) {
            assert_eq!(a.finish, b.finish);
            assert_eq!(
                a.execution_ms.map(f64::to_bits),
                b.execution_ms.map(f64::to_bits)
            );
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
    }

    #[test]
    fn vm_degrade_slows_and_recovers() {
        use crate::faults::{FaultPlan, VmSlowdown};
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        let run = |until: Option<f64>| {
            let mut plan = FaultPlan::healthy();
            plan.vm_slowdowns.push(VmSlowdown {
                vm: VmId(0),
                from: SimTime::new(500.0),
                factor: 0.5,
                until: until.map(SimTime::new),
            });
            SimulationBuilder::new()
                .datacenter(DatacenterBlueprint::sized_for(
                    &vm,
                    1,
                    1,
                    DatacenterCharacteristics::default(),
                ))
                .vms(vec![vm.clone()])
                .cloudlets(vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1)])
                .assignment(vec![VmId(0)])
                .faults(plan)
                .run()
                .unwrap()
        };
        // Permanent straggler: 500 MI at full speed, 1500 MI at half
        // speed -> 500 + 3000 = 3500 ms.
        let o = run(None);
        let finish = o.records[0].finish.unwrap().as_millis();
        assert!(
            (finish - 3_500.0).abs() < 1e-6,
            "expected 3500, got {finish}"
        );
        // Recovering straggler: degraded for [500, 1500) executes 500 MI,
        // the remaining 1000 MI run at full speed -> finish at 2500 ms.
        let o = run(Some(1_500.0));
        let finish = o.records[0].finish.unwrap().as_millis();
        assert!(
            (finish - 2_500.0).abs() < 1e-6,
            "expected 2500, got {finish}"
        );
        assert_eq!(o.finished_count(), 1);
    }

    #[test]
    fn host_repair_revives_capacity_for_retries() {
        use crate::broker::RecoveryPolicy;
        use crate::faults::{FaultPlan, HostOutage};
        use crate::ids::HostId;
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        let mut plan = FaultPlan::healthy();
        plan.host_outages.push(HostOutage {
            datacenter: DatacenterId(0),
            host: HostId(0),
            fail_at: SimTime::new(500.0),
            repair_at: Some(SimTime::new(1_000.0)),
        });
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm])
            .cloudlets(vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1)])
            .assignment(vec![VmId(0)])
            .faults(plan)
            .recovery(RecoveryPolicy {
                max_attempts: 3,
                base_backoff_ms: 600.0,
                backoff_factor: 2.0,
                max_backoff_ms: 5_000.0,
            })
            .run()
            .unwrap();
        // The single VM dies at 500 and is revived at 1000; the retry
        // wakes at 500 + 600 = 1100 and lands on the repaired host.
        assert_eq!(outcome.finished_count(), 1, "repair saves the work");
        assert_eq!(outcome.failed_count(), 0);
        let r = &outcome.records[0];
        assert!((r.start.unwrap().as_millis() - 1_100.0).abs() < 1e-6);
        assert!((r.finish.unwrap().as_millis() - 3_100.0).abs() < 1e-6);
        assert_eq!(outcome.resilience.retries, 1);
        assert!((outcome.resilience.wasted_work_ms - 500.0).abs() < 1e-6);
        assert_eq!(outcome.resilience.recovered, 1);
        assert!((outcome.mean_time_to_recovery_ms().unwrap() - 2_600.0).abs() < 1e-6);
        assert_eq!(outcome.completion_ratio(), Some(1.0));
        let g = outcome.goodput().unwrap();
        assert!((g - 2_000.0 / 2_500.0).abs() < 1e-12, "goodput {g}");
    }

    #[test]
    fn recovery_reschedules_onto_survivors() {
        use crate::broker::RecoveryPolicy;
        use crate::faults::{FaultPlan, HostOutage};
        use crate::ids::HostId;
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        let mut plan = FaultPlan::healthy();
        plan.host_outages.push(HostOutage {
            datacenter: DatacenterId(0),
            host: HostId(0),
            fail_at: SimTime::new(500.0),
            repair_at: None,
        });
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                2,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm; 2])
            .cloudlets(vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1); 4])
            .assignment(vec![VmId(0), VmId(1), VmId(0), VmId(1)])
            .faults(plan)
            .recovery(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(outcome.finished_count(), 4, "retries save the orphans");
        assert_eq!(outcome.failed_count(), 0);
        assert_eq!(outcome.resilience.retries, 2);
        assert_eq!(outcome.resilience.recovered, 2);
        assert!(outcome.resilience.wasted_work_ms > 0.0);
        assert!(outcome.goodput().unwrap() < 1.0);
        for r in &outcome.records {
            if r.finish.unwrap() > SimTime::new(500.0) {
                assert_eq!(r.vm, Some(VmId(1)), "rescued work runs on VM1");
            }
        }
    }

    #[test]
    fn recovery_respects_custom_rescheduler() {
        use crate::broker::{RecoveryPolicy, Rescheduler};
        use crate::faults::{FaultPlan, HostOutage};
        use crate::ids::{CloudletId, HostId};
        use crate::kernel::World;
        // Always picks the last VM — distinguishable from the cyclic
        // fallback, which would hand the orphans to VM1 first.
        struct LastVm;
        impl Rescheduler for LastVm {
            fn replan(&mut self, world: &World, _now: SimTime, batch: &[CloudletId]) -> Vec<VmId> {
                let last = VmId::from_index(world.vms.len() - 1);
                vec![last; batch.len()]
            }
        }
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        let mut plan = FaultPlan::healthy();
        plan.host_outages.push(HostOutage {
            datacenter: DatacenterId(0),
            host: HostId(0),
            fail_at: SimTime::new(500.0),
            repair_at: None,
        });
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                3,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm; 3])
            .cloudlets(vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1); 3])
            .assignment(vec![VmId(0), VmId(1), VmId(2)])
            .faults(plan)
            .recovery(RecoveryPolicy::default())
            .rescheduler(Box::new(LastVm))
            .run()
            .unwrap();
        assert_eq!(outcome.finished_count(), 3);
        assert_eq!(
            outcome.records[0].vm,
            Some(VmId(2)),
            "the rescheduler's pick wins over cyclic rebinding"
        );
    }

    #[test]
    fn recovery_abandons_after_budget() {
        use crate::broker::RecoveryPolicy;
        use crate::faults::{FaultPlan, HostOutage};
        use crate::ids::HostId;
        let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
        let mut plan = FaultPlan::healthy();
        plan.host_outages.push(HostOutage {
            datacenter: DatacenterId(0),
            host: HostId(0),
            fail_at: SimTime::new(100.0),
            repair_at: None,
        });
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm])
            .cloudlets(vec![CloudletSpec::new(5_000.0, 0.0, 0.0, 1); 2])
            .assignment(vec![VmId(0); 2])
            .faults(plan)
            .recovery(RecoveryPolicy {
                max_attempts: 2,
                ..RecoveryPolicy::default()
            })
            .run()
            .unwrap();
        assert_eq!(outcome.finished_count(), 0);
        assert_eq!(outcome.failed_count(), 2);
        assert_eq!(outcome.failed_count(), 2);
        assert_eq!(outcome.resilience.abandoned, 2);
        assert_eq!(outcome.resilience.recovered, 0);
        assert_eq!(outcome.completion_ratio(), Some(0.0));
    }

    #[test]
    fn recovery_excludes_legacy_resubmission() {
        use crate::broker::RecoveryPolicy;
        let vm = VmSpec::homogeneous_default();
        let err = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm])
            .cloudlets(vec![CloudletSpec::homogeneous_default()])
            .assignment(vec![VmId(0)])
            .resubmit_failures(2)
            .recovery(RecoveryPolicy::default())
            .run();
        assert!(matches!(err, Err(SimError::InvalidSpec { .. })));
    }

    #[test]
    fn multi_datacenter_spread() {
        let vm = VmSpec::homogeneous_default();
        let outcome = SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                2,
                1,
                DatacenterCharacteristics::default(),
            ))
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                2,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm; 4])
            .cloudlets(vec![CloudletSpec::homogeneous_default(); 8])
            .assignment(base_assignment(8, 4))
            .run()
            .unwrap();
        assert_eq!(outcome.vms_created, 4);
        assert_eq!(outcome.finished_count(), 8);
    }
}
