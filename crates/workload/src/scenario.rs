//! A complete experimental scenario: workload + infrastructure.
//!
//! [`Scenario`] bundles everything one experiment point needs — VM fleet,
//! cloudlet batch, datacenter cost models and VM placement — and knows how
//! to derive both the scheduler-facing [`SchedulingProblem`] and the
//! simulator-facing [`simcloud::simulation::SimulationBuilder`] from one
//! consistent description.

use biosched_core::assignment::Assignment;
use biosched_core::problem::{DatacenterView, SchedulingProblem};
use simcloud::characteristics::{CostModel, DatacenterCharacteristics};
use simcloud::cloudlet::CloudletSpec;
use simcloud::datacenter::DatacenterBlueprint;
use simcloud::error::SimError;
use simcloud::host::HostSpec;
use simcloud::ids::DatacenterId;
use simcloud::simulation::SimulationBuilder;
use simcloud::stats::{RecordMode, SimulationOutcome};
use simcloud::vm::VmSpec;

/// How many VMs each simulated host is sized to hold.
const VMS_PER_HOST: u32 = 4;

/// One datacenter's configuration inside a scenario.
#[derive(Debug, Clone)]
pub struct DatacenterSetup {
    /// Resource prices (Table VII).
    pub cost: CostModel,
}

/// A fully specified experiment point.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// VM fleet.
    pub vms: Vec<VmSpec>,
    /// Cloudlet batch.
    pub cloudlets: Vec<CloudletSpec>,
    /// Datacenters.
    pub datacenters: Vec<DatacenterSetup>,
    /// Which datacenter each VM lives in.
    pub vm_placement: Vec<DatacenterId>,
    /// Per-VM cloudlet execution policy. CloudSim's stock examples (and
    /// hence the paper) use the time-shared scheduler, where contention
    /// inflates observed execution times — load-blind schedulers pay for
    /// piling work onto few VMs in Eq. 13's imbalance.
    pub vm_scheduler: simcloud::cloudlet_sched::SchedulerKind,
    /// Optional per-cloudlet arrival times (ms from t=0). `None` is the
    /// paper's batch model: everything arrives at once.
    pub arrivals: Option<Vec<f64>>,
    /// Optional workflow precedence: `parents[c]` must finish before
    /// cloudlet `c` is submitted (see the `workflow` generators).
    pub dependencies: Option<Vec<Vec<simcloud::ids::CloudletId>>>,
    /// Optional chaos timeline (host outages, VM stragglers), explicit or
    /// seeded; the only way to inject a failure. An all-healthy plan is
    /// trace-identical to no plan at all.
    pub faults: Option<simcloud::faults::FaultPlan>,
    /// Optional broker retry/backoff policy; see
    /// [`simcloud::broker::RecoveryPolicy`]. Runs on either engine (the
    /// sharded engine executes retries between replay epochs).
    pub recovery: Option<simcloud::broker::RecoveryPolicy>,
}

impl Scenario {
    /// The scheduler-facing view of this scenario.
    pub fn problem(&self) -> SchedulingProblem {
        SchedulingProblem::new(
            self.vms.clone(),
            self.cloudlets.clone(),
            self.datacenters
                .iter()
                .enumerate()
                .map(|(i, d)| DatacenterView {
                    id: DatacenterId::from_index(i),
                    cost: d.cost,
                })
                .collect(),
            self.vm_placement.clone(),
        )
        .expect("scenario generators produce consistent problems")
    }

    /// Host fleet for datacenter `dc`: uniform hosts roomy enough for the
    /// largest VM placed there, packed [`VMS_PER_HOST`] per host.
    fn hosts_for(&self, dc: usize) -> Vec<HostSpec> {
        let placed: Vec<&VmSpec> = self
            .vm_placement
            .iter()
            .enumerate()
            .filter(|(_, d)| d.index() == dc)
            .map(|(v, _)| &self.vms[v])
            .collect();
        if placed.is_empty() {
            // A host is mandatory even for an idle datacenter.
            return vec![HostSpec::roomy_for(&VmSpec::homogeneous_default(), 1)];
        }
        // The envelope VM: per-dimension maximum over everything placed.
        let envelope = VmSpec {
            mips: placed.iter().map(|v| v.mips).fold(0.0, f64::max),
            size_mb: placed.iter().map(|v| v.size_mb).fold(0.0, f64::max),
            ram_mb: placed.iter().map(|v| v.ram_mb).fold(0.0, f64::max),
            bw_mbps: placed.iter().map(|v| v.bw_mbps).fold(0.0, f64::max),
            pes: placed.iter().map(|v| v.pes).max().expect("non-empty"),
        };
        let host = HostSpec::roomy_for(&envelope, VMS_PER_HOST);
        let count = placed.len().div_ceil(VMS_PER_HOST as usize);
        vec![host; count]
    }

    /// Runs `assignment` through the discrete-event simulator on the
    /// default (sequential) engine.
    pub fn simulate(&self, assignment: Assignment) -> Result<SimulationOutcome, SimError> {
        self.simulate_mode(
            assignment,
            simcloud::simulation::EngineKind::Sequential,
            RecordMode::Full,
        )
    }

    /// Runs `assignment` on a chosen simulation engine in a chosen
    /// [`RecordMode`]. The sharded engine replays every scenario shape —
    /// fault plans, recovery and workflow DAGs included — bit-identically
    /// to the sequential kernel. The sweep pipeline runs in
    /// [`RecordMode::Aggregate`] (metrics folded at settlement, no
    /// per-cloudlet vector); pass [`RecordMode::Full`] when the caller
    /// needs the records themselves (CSV export, SLA/energy drill-downs
    /// over individual cloudlets).
    pub fn simulate_mode(
        &self,
        assignment: Assignment,
        engine: simcloud::simulation::EngineKind,
        mode: RecordMode,
    ) -> Result<SimulationOutcome, SimError> {
        self.builder(assignment, engine, mode).run()
    }

    /// [`Scenario::simulate_mode`] with a fault-aware
    /// [`Rescheduler`](simcloud::broker::Rescheduler) handling the broker's
    /// retry batches (see [`crate::resilience`]).
    pub fn simulate_resilient(
        &self,
        assignment: Assignment,
        engine: simcloud::simulation::EngineKind,
        mode: RecordMode,
        rescheduler: Box<dyn simcloud::broker::Rescheduler>,
    ) -> Result<SimulationOutcome, SimError> {
        self.builder(assignment, engine, mode)
            .rescheduler(rescheduler)
            .run()
    }

    /// Lowers the scenario into a fully configured simulation builder.
    fn builder(
        &self,
        assignment: Assignment,
        engine: simcloud::simulation::EngineKind,
        mode: RecordMode,
    ) -> SimulationBuilder {
        let mut builder = SimulationBuilder::new().engine(engine).record_mode(mode);
        for (i, dc) in self.datacenters.iter().enumerate() {
            builder = builder.datacenter(DatacenterBlueprint {
                hosts: self.hosts_for(i),
                characteristics: DatacenterCharacteristics::with_cost(dc.cost),
                scheduler: self.vm_scheduler,
            });
        }
        if let Some(arrivals) = &self.arrivals {
            builder = builder.arrivals(
                arrivals
                    .iter()
                    .map(|ms| simcloud::time::SimTime::new(*ms))
                    .collect(),
            );
        }
        if let Some(parents) = &self.dependencies {
            builder = builder.dependencies(parents.clone());
        }
        if let Some(plan) = &self.faults {
            builder = builder.faults(plan.clone());
        }
        if let Some(policy) = self.recovery {
            builder = builder.recovery(policy);
        }
        builder
            .vms(self.vms.clone())
            .cloudlets(self.cloudlets.clone())
            .vm_placement(self.vm_placement.clone())
            .assignment(assignment.into_vec())
    }

    /// Host count per datacenter, as the simulator will build them —
    /// the fleet shape [`simcloud::faults::FaultPlan::generate`] samples
    /// outages over.
    pub fn host_counts(&self) -> Vec<usize> {
        (0..self.datacenters.len())
            .map(|i| self.hosts_for(i).len())
            .collect()
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Number of cloudlets.
    pub fn cloudlet_count(&self) -> usize {
        self.cloudlets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biosched_core::prelude::*;

    fn tiny_scenario() -> Scenario {
        Scenario {
            vms: vec![VmSpec::homogeneous_default(); 6],
            cloudlets: vec![CloudletSpec::homogeneous_default(); 12],
            datacenters: vec![
                DatacenterSetup {
                    cost: CostModel::table_vii_midpoint(),
                },
                DatacenterSetup {
                    cost: CostModel::free(),
                },
            ],
            vm_placement: (0..6)
                .map(|i| DatacenterId(u32::from(i % 2 == 1)))
                .collect(),
            vm_scheduler: simcloud::cloudlet_sched::SchedulerKind::TimeShared,
            arrivals: None,
            dependencies: None,
            faults: None,
            recovery: None,
        }
    }

    #[test]
    fn problem_matches_scenario_shape() {
        let s = tiny_scenario();
        let p = s.problem();
        assert_eq!(p.vm_count(), 6);
        assert_eq!(p.cloudlet_count(), 12);
        assert_eq!(p.datacenters.len(), 2);
        assert_eq!(p.vms_in_datacenter(DatacenterId(0)).len(), 3);
    }

    #[test]
    fn simulate_round_trip_finishes_everything() {
        let s = tiny_scenario();
        let assignment = AlgorithmKind::BaseTest.build(0).schedule(&s.problem());
        let outcome = s.simulate(assignment).expect("simulation must run");
        assert_eq!(outcome.finished_count(), 12);
        assert_eq!(outcome.vms_created, 6);
        assert_eq!(outcome.vms_rejected, 0);
    }

    #[test]
    fn hosts_cover_all_placed_vms() {
        let s = tiny_scenario();
        // 3 VMs per DC, 4 per host -> 1 host each.
        assert_eq!(s.hosts_for(0).len(), 1);
        assert_eq!(s.hosts_for(1).len(), 1);
    }

    #[test]
    fn empty_datacenter_still_gets_a_host() {
        let mut s = tiny_scenario();
        s.vm_placement = vec![DatacenterId(0); 6];
        assert_eq!(s.hosts_for(1).len(), 1);
        // And the scenario still simulates fine.
        let a = AlgorithmKind::BaseTest.build(0).schedule(&s.problem());
        assert!(s.simulate(a).is_ok());
    }
}
