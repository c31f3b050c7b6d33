//! Random Biased Sampling scheduler (Section V of the paper).
//!
//! RBS organizes VMs into a network of groups. Each group carries a
//! walk-in-length threshold υ (1…q, ascending — Algorithm 3 line 5) and a
//! node-in-degree NID equal to the number of free VMs in the group. Every
//! incoming cloudlet draws a random walk-in-length ω; the *execution test*
//! admits the cloudlet into a group when `ω ≥ υ` and the group still has
//! free VMs. A failed test increments ω by one and forwards the cloudlet to
//! the next group (Algorithm 3 lines 10–16). Inside a group, VMs are used
//! cyclically (Step 6 of Section V).
//!
//! When every group's NID reaches zero the network "re-advertises" all VMs
//! as free again — each group's NID is reset in place (the group topology
//! and cyclic cursors are preserved; nothing is rebuilt), mirroring the
//! dynamic re-sampling of the original biased random sampling load
//! balancer \[20\]. A running free-VM counter detects exhaustion in O(1)
//! instead of scanning every group per walk step. The bias of low-υ groups
//! plus the randomness of ω is what produces the fluctuating balance the
//! paper observes in Figs. 4 and 6.

//!
//! ```
//! use biosched_core::rbs::{RandomBiasedSampling, RbsParams};
//! use biosched_core::problem::SchedulingProblem;
//! use biosched_core::scheduler::Scheduler;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::homogeneous_default(); 20],
//!     vec![CloudletSpec::homogeneous_default(); 100],
//!     CostModel::free(),
//! );
//! let plan = RandomBiasedSampling::new(RbsParams::paper(), 42).schedule(&problem);
//! // NID-bounded rounds keep counts near-even.
//! let counts = plan.counts_per_vm(20);
//! assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
//! ```
use rand::rngs::StdRng;
use rand::Rng;
use simcloud::ids::VmId;
use simcloud::rng::stream;

use crate::assignment::Assignment;
use crate::eval::EvalCache;
use crate::problem::SchedulingProblem;
use crate::scheduler::Scheduler;

/// RBS tuning parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RbsParams {
    /// Number of VMs per group (the paper's `groupSize(number(r))`).
    pub group_size: usize,
}

impl RbsParams {
    /// Study default: groups of 10 VMs.
    pub fn paper() -> Self {
        RbsParams { group_size: 10 }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.group_size == 0 {
            return Err("group_size must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for RbsParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// One VM group in the RBS resource network.
#[derive(Debug, Clone)]
struct Group {
    /// Walk-in-length threshold υ (1-based).
    threshold: u32,
    /// Member VMs.
    vms: Vec<u32>,
    /// Free VMs remaining in this advertisement round (the NID).
    nid: usize,
    /// Cyclic cursor for Step 6's within-group assignment.
    cursor: usize,
}

/// The RBS scheduler.
pub struct RandomBiasedSampling {
    params: RbsParams,
    rng: StdRng,
}

impl RandomBiasedSampling {
    /// Creates an RBS scheduler with the given parameters and seed.
    pub fn new(params: RbsParams, seed: u64) -> Self {
        params.validate().expect("invalid RbsParams");
        RandomBiasedSampling {
            params,
            rng: stream(seed, "rbs"),
        }
    }

    fn build_groups(&self, vm_count: usize) -> Vec<Group> {
        let size = self.params.group_size.min(vm_count).max(1);
        let mut groups = Vec::with_capacity(vm_count.div_ceil(size));
        let mut start = 0u32;
        let mut threshold = 1u32;
        while (start as usize) < vm_count {
            let end = ((start as usize + size).min(vm_count)) as u32;
            let vms: Vec<u32> = (start..end).collect();
            groups.push(Group {
                threshold,
                nid: vms.len(),
                cursor: 0,
                vms,
            });
            start = end;
            threshold += 1;
        }
        groups
    }
}

impl Scheduler for RandomBiasedSampling {
    fn name(&self) -> &'static str {
        "rbs"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        let v = problem.vm_count();
        let mut groups = self.build_groups(v);
        let q = groups.len() as u32;
        let mut map = Vec::with_capacity(problem.cloudlet_count());
        // Where the walk resumes scanning the group ring.
        let mut ring = 0usize;
        // Free VMs across all groups this advertisement round (Σ NID),
        // kept incrementally so exhaustion is an O(1) check per walk step.
        let mut free: usize = groups.iter().map(|g| g.nid).sum();

        for _ in 0..problem.cloudlet_count() {
            // Step 3: the cloudlet draws a random walk-in-length.
            let mut omega: u32 = self.rng.gen_range(1..=q);
            // Walk the ring until a group passes the execution test. The
            // walk terminates: ω only grows, and once ω ≥ q every non-empty
            // group passes; if all NIDs are zero we re-advertise.
            loop {
                if free == 0 {
                    for g in &mut groups {
                        g.nid = g.vms.len();
                        free += g.nid;
                    }
                }
                let group_count = groups.len();
                let group = &mut groups[ring];
                ring = (ring + 1) % group_count;
                if group.nid > 0 && omega >= group.threshold {
                    // Step 5-6: take the group's next VM cyclically.
                    let vm = group.vms[group.cursor % group.vms.len()];
                    group.cursor = (group.cursor + 1) % group.vms.len();
                    group.nid -= 1;
                    free -= 1;
                    map.push(VmId(vm));
                    break;
                }
                // Execution test failed: ω is incremented and the cloudlet
                // moves on (Algorithm 3 line 14).
                omega = omega.saturating_add(1);
            }
        }
        Assignment::new(map)
    }

    /// RBS never evaluates execution times or costs — the biased random
    /// walk looks only at group occupancy and the RNG stream — so a shared
    /// cache changes nothing. The explicit override documents that the
    /// pass-through is intentional (not an unported scheduler) for the
    /// sweep's shared-cache path.
    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        _cache: &EvalCache,
    ) -> Assignment {
        self.schedule(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn problem(vms: usize, cloudlets: usize) -> SchedulingProblem {
        SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default(); vms],
            vec![CloudletSpec::homogeneous_default(); cloudlets],
            CostModel::free(),
        )
    }

    #[test]
    fn covers_all_cloudlets_with_valid_vms() {
        let p = problem(25, 100);
        let a = RandomBiasedSampling::new(RbsParams::paper(), 1).schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn group_structure_partitions_vms() {
        let rbs = RandomBiasedSampling::new(RbsParams { group_size: 10 }, 0);
        let groups = rbs.build_groups(25);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].vms.len(), 10);
        assert_eq!(groups[2].vms.len(), 5);
        assert_eq!(groups[0].threshold, 1);
        assert_eq!(groups[2].threshold, 3);
        let all: Vec<u32> = groups.iter().flat_map(|g| g.vms.clone()).collect();
        assert_eq!(all, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn nid_limits_one_round_then_readvertises() {
        // 4 VMs in one group: first 4 cloudlets exhaust the NID, the 5th
        // forces a re-advertisement and assignment proceeds.
        let p = problem(4, 9);
        let a = RandomBiasedSampling::new(RbsParams { group_size: 4 }, 2).schedule(&p);
        let counts = a.counts_per_vm(4);
        assert_eq!(counts.iter().sum::<usize>(), 9);
        // Cyclic within-group use keeps counts within 1 of each other.
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    }

    #[test]
    fn spread_is_roughly_balanced_but_noisy() {
        let p = problem(50, 500);
        let a = RandomBiasedSampling::new(RbsParams::paper(), 3).schedule(&p);
        let counts = a.counts_per_vm(50);
        assert!(counts.iter().all(|c| *c > 0), "every VM should see work");
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // Noisy but bounded: nothing starves, nothing hoards.
        assert!(
            max <= 3 * min.max(1),
            "spread too skewed: max={max} min={min}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem(20, 60);
        let a = RandomBiasedSampling::new(RbsParams::paper(), 7).schedule(&p);
        let b = RandomBiasedSampling::new(RbsParams::paper(), 7).schedule(&p);
        assert_eq!(a, b);
        let c = RandomBiasedSampling::new(RbsParams::paper(), 8).schedule(&p);
        assert_ne!(a, c);
    }

    #[test]
    fn single_group_single_vm() {
        let p = problem(1, 5);
        let a = RandomBiasedSampling::new(RbsParams::paper(), 4).schedule(&p);
        assert!(a.as_slice().iter().all(|v| v.index() == 0));
    }

    #[test]
    fn group_size_larger_than_fleet_is_one_group() {
        let p = problem(3, 12);
        let a = RandomBiasedSampling::new(RbsParams { group_size: 100 }, 5).schedule(&p);
        assert!(a.validate(&p).is_ok());
        // One group -> pure cyclic within it.
        let counts = a.counts_per_vm(3);
        assert_eq!(counts, vec![4, 4, 4]);
    }

    #[test]
    fn group_size_one_still_covers_everyone() {
        let p = problem(7, 70);
        let a = RandomBiasedSampling::new(RbsParams { group_size: 1 }, 6).schedule(&p);
        let counts = a.counts_per_vm(7);
        assert!(counts.iter().all(|c| *c > 0), "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 70);
    }

    #[test]
    fn params_validation() {
        assert!(RbsParams { group_size: 0 }.validate().is_err());
        assert!(RbsParams::paper().validate().is_ok());
    }
}
