//! The paper's homogeneous scenario (Section VI-B, Tables III & IV).
//!
//! Identical VMs (1000 MIPS, 5000 MB image, 512 MB RAM, 500 Mbps, 1 PE)
//! receive identical cloudlets (250 MI, 300 MB in/out, 1 PE) in one free
//! datacenter. The paper sweeps 1 000–9 000 and 10 000–90 000 VMs against
//! 1 000 000 cloudlets; [`HomogeneousScenario::scaled`] keeps the same
//! cloudlet:VM ratios at tractable sizes.

use simcloud::characteristics::CostModel;
use simcloud::cloudlet::CloudletSpec;
use simcloud::ids::DatacenterId;
use simcloud::vm::VmSpec;

use crate::scenario::{DatacenterSetup, Scenario};

/// The paper's full-scale cloudlet count.
pub const PAPER_CLOUDLETS: usize = 1_000_000;

/// VM-count x-axis of Figs. 4a/5a.
pub fn fig4a_vm_points() -> Vec<usize> {
    (1..=9).map(|k| k * 1_000).collect()
}

/// VM-count x-axis of Figs. 4b/5b.
pub fn fig4b_vm_points() -> Vec<usize> {
    (1..=9).map(|k| k * 10_000).step_by(2).collect()
}

/// Generator for homogeneous experiment points.
#[derive(Debug, Clone)]
pub struct HomogeneousScenario {
    /// Number of identical VMs.
    pub vm_count: usize,
    /// Number of identical cloudlets.
    pub cloudlet_count: usize,
}

impl HomogeneousScenario {
    /// An exact paper-scale point: `vm_count` VMs, 10⁶ cloudlets.
    pub fn paper(vm_count: usize) -> Self {
        HomogeneousScenario {
            vm_count,
            cloudlet_count: PAPER_CLOUDLETS,
        }
    }

    /// A scaled point preserving the paper's cloudlet:VM ratio.
    ///
    /// The paper pairs 10⁶ cloudlets with 10³–10⁵ VMs; `scale` divides
    /// both sides (e.g. `scale = 100` turns the 1000-VM point into 10 VMs
    /// and 10 000 cloudlets).
    pub fn scaled(vm_count: usize, scale: usize) -> Self {
        let scale = scale.max(1);
        HomogeneousScenario {
            vm_count: (vm_count / scale).max(1),
            cloudlet_count: (PAPER_CLOUDLETS / scale).max(1),
        }
    }

    /// Materializes the scenario.
    pub fn build(&self) -> Scenario {
        Scenario {
            vms: vec![VmSpec::homogeneous_default(); self.vm_count],
            cloudlets: vec![CloudletSpec::homogeneous_default(); self.cloudlet_count],
            // Cost is not an objective in the homogeneous study; a single
            // free datacenter matches the paper's setup.
            datacenters: vec![DatacenterSetup {
                cost: CostModel::free(),
            }],
            vm_placement: vec![DatacenterId(0); self.vm_count],
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
    fn tables_iii_iv_defaults() {
        let s = HomogeneousScenario {
            vm_count: 3,
            cloudlet_count: 5,
        }
        .build();
        assert_eq!(s.vms.len(), 3);
        assert_eq!(s.cloudlets.len(), 5);
        assert!(s.vms.iter().all(|v| *v == VmSpec::homogeneous_default()));
        assert!(s
            .cloudlets
            .iter()
            .all(|c| *c == CloudletSpec::homogeneous_default()));
        assert_eq!(s.datacenters.len(), 1);
        assert_eq!(s.datacenters[0].cost, CostModel::free());
    }

    #[test]
    fn figure_x_axes() {
        assert_eq!(
            fig4a_vm_points(),
            vec![1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000]
        );
        assert_eq!(
            fig4b_vm_points(),
            vec![10_000, 30_000, 50_000, 70_000, 90_000]
        );
    }

    #[test]
    fn paper_scale_ratio() {
        let s = HomogeneousScenario::paper(1_000);
        assert_eq!(s.cloudlet_count, 1_000_000);
    }

    #[test]
    fn scaled_preserves_ratio() {
        let full = HomogeneousScenario::paper(1_000);
        let scaled = HomogeneousScenario::scaled(1_000, 100);
        let full_ratio = full.cloudlet_count as f64 / full.vm_count as f64;
        let scaled_ratio = scaled.cloudlet_count as f64 / scaled.vm_count as f64;
        assert!((full_ratio - scaled_ratio).abs() < 1e-9);
        assert_eq!(scaled.vm_count, 10);
        assert_eq!(scaled.cloudlet_count, 10_000);
    }

    #[test]
    fn scale_never_degenerates_to_zero() {
        let s = HomogeneousScenario::scaled(100, 1_000_000);
        assert!(s.vm_count >= 1);
        assert!(s.cloudlet_count >= 1);
    }

    #[test]
    fn problem_is_homogeneous() {
        let p = HomogeneousScenario {
            vm_count: 4,
            cloudlet_count: 8,
        }
        .build()
        .problem();
        assert!(p.is_homogeneous());
    }
}
