//! The paper's heterogeneous scenario (Section VI-B, Tables V, VI, VII).
//!
//! VM MIPS ratings are drawn uniformly from 500–4000 (Table V), cloudlet
//! lengths from 1000–20000 MI (Table VI), and datacenter prices from the
//! Table VII ranges (memory 0.01–0.05, storage 0.001–0.004, bandwidth
//! 0.01–0.05, processing fixed at 3). The paper sweeps 50–950 VMs against
//! 5000 cloudlets across these datacenters.

use rand::rngs::StdRng;
use rand::Rng;
use simcloud::characteristics::CostModel;
use simcloud::cloudlet::CloudletSpec;
use simcloud::ids::DatacenterId;
use simcloud::rng::stream;
use simcloud::vm::VmSpec;

use crate::scenario::{DatacenterSetup, Scenario};

/// The paper's heterogeneous cloudlet count.
pub const PAPER_CLOUDLETS: usize = 5_000;

/// Datacenters in the heterogeneous study (the paper leaves the count
/// implicit; four spans the Table VII price ranges meaningfully).
pub const DEFAULT_DATACENTERS: usize = 4;

/// VM-count x-axis of Fig. 6 (50, 150, …, 950).
pub fn fig6_vm_points() -> Vec<usize> {
    (0..10).map(|k| 50 + k * 100).collect()
}

/// Generator for heterogeneous experiment points.
#[derive(Debug, Clone)]
pub struct HeterogeneousScenario {
    /// Number of VMs.
    pub vm_count: usize,
    /// Number of cloudlets.
    pub cloudlet_count: usize,
    /// Number of datacenters with independently drawn prices.
    pub datacenter_count: usize,
    /// Workload-generation seed.
    pub seed: u64,
}

impl HeterogeneousScenario {
    /// A paper point: `vm_count` VMs, 5000 cloudlets, 4 datacenters.
    pub fn paper(vm_count: usize, seed: u64) -> Self {
        HeterogeneousScenario {
            vm_count,
            cloudlet_count: PAPER_CLOUDLETS,
            datacenter_count: DEFAULT_DATACENTERS,
            seed,
        }
    }

    /// Draws one VM spec per Table V.
    fn draw_vm(rng: &mut StdRng) -> VmSpec {
        VmSpec::new(rng.gen_range(500.0..=4_000.0), 5_000.0, 512.0, 500.0, 1)
    }

    /// Draws one cloudlet spec per Table VI.
    fn draw_cloudlet(rng: &mut StdRng) -> CloudletSpec {
        CloudletSpec::new(rng.gen_range(1_000.0..=20_000.0), 300.0, 300.0, 1)
    }

    /// Draws one datacenter's prices per Table VII.
    fn draw_cost(rng: &mut StdRng) -> CostModel {
        CostModel::new(
            rng.gen_range(0.01..=0.05),
            rng.gen_range(0.001..=0.004),
            rng.gen_range(0.01..=0.05),
            3.0,
        )
    }

    /// Materializes the scenario (deterministic per seed).
    pub fn build(&self) -> Scenario {
        assert!(self.vm_count > 0, "scenario needs VMs");
        assert!(self.datacenter_count > 0, "scenario needs datacenters");
        let mut vm_rng = stream(self.seed, "workload/vms");
        let mut cl_rng = stream(self.seed, "workload/cloudlets");
        let mut dc_rng = stream(self.seed, "workload/datacenters");

        let vms: Vec<VmSpec> = (0..self.vm_count)
            .map(|_| Self::draw_vm(&mut vm_rng))
            .collect();
        let cloudlets: Vec<CloudletSpec> = (0..self.cloudlet_count)
            .map(|_| Self::draw_cloudlet(&mut cl_rng))
            .collect();
        let datacenters: Vec<DatacenterSetup> = (0..self.datacenter_count)
            .map(|_| DatacenterSetup {
                cost: Self::draw_cost(&mut dc_rng),
            })
            .collect();
        let vm_placement: Vec<DatacenterId> = (0..self.vm_count)
            .map(|i| DatacenterId::from_index(i % self.datacenter_count))
            .collect();
        Scenario {
            vms,
            cloudlets,
            datacenters,
            vm_placement,
            vm_scheduler: simcloud::cloudlet_sched::SchedulerKind::TimeShared,
            arrivals: None,
            dependencies: None,
            faults: None,
            recovery: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_table_ranges() {
        let s = HeterogeneousScenario::paper(100, 42).build();
        assert!(s.vms.iter().all(|v| (500.0..=4_000.0).contains(&v.mips)));
        assert!(s.vms.iter().all(|v| v.ram_mb == 512.0 && v.pes == 1));
        assert!(s
            .cloudlets
            .iter()
            .all(|c| (1_000.0..=20_000.0).contains(&c.length_mi)));
        for d in &s.datacenters {
            assert!((0.01..=0.05).contains(&d.cost.per_memory));
            assert!((0.001..=0.004).contains(&d.cost.per_storage));
            assert!((0.01..=0.05).contains(&d.cost.per_bandwidth));
            assert_eq!(d.cost.per_processing, 3.0);
        }
    }

    #[test]
    fn workload_is_actually_heterogeneous() {
        let s = HeterogeneousScenario::paper(50, 1).build();
        assert!(!s.problem().is_homogeneous());
        let first = s.vms[0].mips;
        assert!(s.vms.iter().any(|v| (v.mips - first).abs() > 1.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = HeterogeneousScenario::paper(30, 9).build();
        let b = HeterogeneousScenario::paper(30, 9).build();
        assert_eq!(a.vms, b.vms);
        assert_eq!(a.cloudlets, b.cloudlets);
        let c = HeterogeneousScenario::paper(30, 10).build();
        assert_ne!(a.vms, c.vms);
    }

    #[test]
    fn placement_spreads_across_datacenters() {
        let s = HeterogeneousScenario::paper(40, 2).build();
        for d in 0..DEFAULT_DATACENTERS {
            let count = s.vm_placement.iter().filter(|dc| dc.index() == d).count();
            assert_eq!(count, 10);
        }
    }

    #[test]
    fn fig6_schedulers_materialize_the_etc_matrix() {
        // A fig6 point: the paper-profile colony and the racer both read
        // each Eq. 6 time many times over, so both fill the matrix.
        use biosched_core::eval::EvalCache;
        use biosched_core::objective::Objective;
        use biosched_core::scheduler::AlgorithmKind;
        let problem = HeterogeneousScenario {
            vm_count: 100,
            cloudlet_count: 500,
            datacenter_count: DEFAULT_DATACENTERS,
            seed: 42,
        }
        .build()
        .problem();
        for kind in [
            AlgorithmKind::AntColony,
            AlgorithmKind::Racing(Objective::Makespan),
        ] {
            let cache = EvalCache::new(&problem);
            kind.build(1).schedule_with_cache(&problem, &cache);
            assert!(cache.has_dense_etc(), "{kind} left the matrix unbuilt");
        }
    }

    #[test]
    fn fig6_axis() {
        let pts = fig6_vm_points();
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0], 50);
        assert_eq!(pts[9], 950);
    }

    #[test]
    fn vm_count_sweep_changes_only_fleet() {
        let a = HeterogeneousScenario::paper(50, 5).build();
        let b = HeterogeneousScenario::paper(150, 5).build();
        assert_eq!(a.cloudlets, b.cloudlets, "same seed, same workload");
        assert_eq!(b.vm_count(), 150);
    }
}
