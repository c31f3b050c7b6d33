//! Honey Bee Optimization scheduler (Section III of the paper).
//!
//! Cloudlets form food sources split into groups; forager bees (one per
//! datacenter) evaluate the Eq. 1 cost of each datacenter, and scout bees
//! place each cloudlet on the least-loaded VM of the most profitable
//! (cheapest) datacenter. The `facLB` load-balance factor caps how much of
//! the total load the best datacenter may absorb before bees spill to the
//! next one (Algorithm 1, lines 10–14).
//!
//! Interpretation notes (the paper's Algorithm 1 is informal):
//!
//! * "The DC with the highest fitness value … receives a percentage of the
//!   tasks" — we bound the best DC's share of assigned cloudlets by
//!   `fac_lb`; overflow goes to the next-cheapest DC, recursively.
//! * "assign(Cloudlet, Datacenter(VM_leastLoad))" — within a datacenter the
//!   scout picks the VM with the smallest accumulated expected execution
//!   time (Eq. 6), which is HBO's only makespan awareness.
//! * Groups are processed largest-first (Algorithm 1 line 6's `max`),
//!   which matters when several scheduling rounds interleave.

//!
//! ```
//! use biosched_core::hbo::{HboParams, HoneyBee};
//! use biosched_core::problem::{DatacenterView, SchedulingProblem};
//! use biosched_core::scheduler::Scheduler;
//! use simcloud::ids::DatacenterId;
//! use simcloud::prelude::*;
//!
//! // Two datacenters, the second far cheaper.
//! let problem = SchedulingProblem::new(
//!     vec![VmSpec::homogeneous_default(); 4],
//!     vec![CloudletSpec::new(5_000.0, 300.0, 300.0, 1); 12],
//!     vec![
//!         DatacenterView { id: DatacenterId(0), cost: CostModel::new(0.05, 0.004, 0.05, 3.0) },
//!         DatacenterView { id: DatacenterId(1), cost: CostModel::new(0.01, 0.001, 0.01, 3.0) },
//!     ],
//!     vec![DatacenterId(0), DatacenterId(0), DatacenterId(1), DatacenterId(1)],
//! ).unwrap();
//! let plan = HoneyBee::new(HboParams::paper(), 42).schedule(&problem);
//! // The cheap datacenter (VMs 2 and 3) receives the majority of the work.
//! let cheap = plan.as_slice().iter().filter(|vm| vm.index() >= 2).count();
//! assert!(cheap > 6);
//! ```
mod fitness;

pub use fitness::best_rate_in_dc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use simcloud::ids::VmId;
use simcloud::rng::stream;

use crate::assignment::Assignment;
use crate::eval::{EvalCache, MinLoadHeap};
use crate::problem::SchedulingProblem;
use crate::scheduler::Scheduler;

/// HBO tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HboParams {
    /// Number of cloudlet groups (foragers). `None` uses one per
    /// datacenter, the paper's rule ("n equals the number of DCs").
    pub groups: Option<usize>,
    /// Load-balance factor `facLB`: the maximum share of cloudlets the
    /// current best datacenter may hold before scouts spill over.
    pub fac_lb: f64,
    /// Shuffle cloudlet order inside groups (scout randomness). Off keeps
    /// the algorithm fully order-deterministic.
    pub shuffle: bool,
}

impl HboParams {
    /// Study defaults: per-DC foragers, 70% spill threshold, shuffling on.
    pub fn paper() -> Self {
        HboParams {
            groups: None,
            fac_lb: 0.7,
            shuffle: true,
        }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.fac_lb > 0.0 && self.fac_lb <= 1.0) {
            return Err(format!("fac_lb must be in (0,1], got {}", self.fac_lb));
        }
        if self.groups == Some(0) {
            return Err("groups must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for HboParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// The HBO scheduler.
pub struct HoneyBee {
    params: HboParams,
    rng: StdRng,
}

impl HoneyBee {
    /// Creates an HBO scheduler with the given parameters and seed.
    pub fn new(params: HboParams, seed: u64) -> Self {
        params.validate().expect("invalid HboParams");
        HoneyBee {
            params,
            rng: stream(seed, "hbo"),
        }
    }

    fn run(&mut self, problem: &SchedulingProblem, cache: &EvalCache) -> Assignment {
        let dc_count = problem.datacenters.len();
        let c = problem.cloudlet_count();

        // Forager ranking: datacenters ordered by their cheapest Eq. 1
        // rate. TCL_j scales all datacenters identically, so the ranking
        // is cloudlet-independent and computed once per round.
        let mut dc_order: Vec<usize> = (0..dc_count).collect();
        let rates: Vec<f64> = (0..dc_count)
            .map(|d| {
                let dc = &problem.datacenters[d];
                best_rate_in_dc(
                    &dc.cost,
                    problem
                        .vm_placement
                        .iter()
                        .enumerate()
                        .filter(|(_, placed)| placed.index() == d)
                        .map(|(v, _)| &problem.vms[v]),
                )
            })
            .collect();
        dc_order.sort_by(|a, b| rates[*a].total_cmp(&rates[*b]));
        // Datacenters with no VMs can never take work.
        dc_order.retain(|d| rates[*d].is_finite());
        assert!(
            !dc_order.is_empty(),
            "every datacenter is empty — nothing can host cloudlets"
        );

        // Scout state: per-DC least-loaded heap of (load, vm).
        let mut heaps: Vec<MinLoadHeap> = vec![MinLoadHeap::new(); dc_count];
        for (v, dc) in problem.vm_placement.iter().enumerate() {
            heaps[dc.index()].push(0.0, v as u32);
        }

        // Cloudlet groups: q foragers, largest total length first.
        let q = self.params.groups.unwrap_or(dc_count).max(1).min(c.max(1));
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); q];
        for i in 0..c {
            groups[i % q].push(i);
        }
        // Hoist the per-group length sums out of the comparator: the old
        // closure recomputed both sums on every comparison (O(C log q)
        // additions). Same summation order, stable sort — the resulting
        // permutation is byte-identical.
        let mut keyed: Vec<(f64, Vec<usize>)> = groups
            .into_iter()
            .map(|g| (g.iter().map(|i| cache.cloudlet_len_mi(*i)).sum(), g))
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut groups: Vec<Vec<usize>> = keyed.into_iter().map(|(_, g)| g).collect();
        if self.params.shuffle {
            for g in &mut groups {
                g.shuffle(&mut self.rng);
            }
        }

        let mut map = vec![VmId(0); c];
        let mut assigned_per_dc = vec![0usize; dc_count];
        let mut assigned_total = 0usize;

        for group in groups {
            for cl_idx in group {
                // Forager choice: cheapest DC whose share is under facLB.
                let chosen = dc_order
                    .iter()
                    .copied()
                    .find(|d| {
                        // Share the DC would hold *after* taking this
                        // cloudlet must stay within facLB.
                        let share = (assigned_per_dc[*d] + 1) as f64 / (assigned_total + 1) as f64;
                        share <= self.params.fac_lb
                    })
                    .unwrap_or_else(|| {
                        // All shares at the cap (possible with many DCs):
                        // take the least-utilized one.
                        dc_order
                            .iter()
                            .copied()
                            .min_by_key(|d| assigned_per_dc[*d])
                            .expect("dc_order is non-empty")
                    });

                // Scout choice: least-loaded VM inside the chosen DC.
                let (load, vm) = heaps[chosen].pop().expect("chosen DC has VMs");
                map[cl_idx] = VmId(vm);
                let new_load = load + cache.exec_ms(cl_idx, vm as usize);
                heaps[chosen].push(new_load, vm);
                assigned_per_dc[chosen] += 1;
                assigned_total += 1;
            }
        }
        Assignment::new(map)
    }
}

impl Scheduler for HoneyBee {
    fn name(&self) -> &'static str {
        "honey-bee"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        self.run(problem, &EvalCache::new(problem))
    }

    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        self.run(problem, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{score_assignment, Objective};
    use crate::problem::DatacenterView;
    use crate::round_robin::RoundRobin;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::ids::DatacenterId;
    use simcloud::vm::VmSpec;

    /// Two datacenters: dc0 expensive, dc1 cheap; 4 VMs in each.
    fn two_dc_problem(cloudlets: usize) -> SchedulingProblem {
        let vms = vec![VmSpec::homogeneous_default(); 8];
        let placement: Vec<DatacenterId> =
            (0..8).map(|i| DatacenterId(u32::from(i >= 4))).collect();
        SchedulingProblem::new(
            vms,
            vec![CloudletSpec::new(5_000.0, 300.0, 300.0, 1); cloudlets],
            vec![
                DatacenterView {
                    id: DatacenterId(0),
                    cost: CostModel::new(0.05, 0.004, 0.05, 3.0),
                },
                DatacenterView {
                    id: DatacenterId(1),
                    cost: CostModel::new(0.01, 0.001, 0.01, 3.0),
                },
            ],
            placement,
        )
        .unwrap()
    }

    #[test]
    fn prefers_cheap_datacenter_up_to_fac_lb() {
        let p = two_dc_problem(100);
        let a = HoneyBee::new(HboParams::paper(), 1).schedule(&p);
        let counts = a.counts_per_vm(8);
        let dc0: usize = counts[..4].iter().sum();
        let dc1: usize = counts[4..].iter().sum();
        // dc1 (cheap) should hold about fac_lb = 70% of the load.
        assert!(dc1 > dc0, "cheap DC must dominate: dc0={dc0} dc1={dc1}");
        assert!(
            (dc1 as f64 / 100.0 - 0.7).abs() < 0.1,
            "cheap DC share should hover near facLB, got {dc1}"
        );
    }

    #[test]
    fn beats_round_robin_on_cost() {
        let p = two_dc_problem(60);
        let hbo = HoneyBee::new(HboParams::paper(), 2).schedule(&p);
        let rr = RoundRobin::new().schedule(&p);
        let hbo_cost = score_assignment(&p, &hbo, Objective::Cost);
        let rr_cost = score_assignment(&p, &rr, Objective::Cost);
        assert!(
            hbo_cost < rr_cost,
            "HBO cost {hbo_cost} must beat RR cost {rr_cost}"
        );
    }

    #[test]
    fn balances_within_datacenter() {
        let p = two_dc_problem(80);
        let a = HoneyBee::new(HboParams::paper(), 3).schedule(&p);
        let counts = a.counts_per_vm(8);
        // Within the cheap DC the least-loaded heap spreads evenly.
        let dc1 = &counts[4..];
        let min = dc1.iter().min().unwrap();
        let max = dc1.iter().max().unwrap();
        assert!(max - min <= 1, "uneven spread in cheap DC: {dc1:?}");
    }

    #[test]
    fn fac_lb_one_sends_everything_to_cheapest() {
        let p = two_dc_problem(40);
        let params = HboParams {
            fac_lb: 1.0,
            shuffle: false,
            ..HboParams::paper()
        };
        let a = HoneyBee::new(params, 4).schedule(&p);
        let counts = a.counts_per_vm(8);
        let dc0: usize = counts[..4].iter().sum();
        assert_eq!(dc0, 0, "with facLB=1 nothing should spill to dc0");
    }

    #[test]
    fn single_dc_degenerates_to_least_loaded() {
        let p = SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default(); 4],
            vec![CloudletSpec::homogeneous_default(); 40],
            CostModel::default(),
        );
        let a = HoneyBee::new(HboParams::paper(), 5).schedule(&p);
        let counts = a.counts_per_vm(4);
        assert_eq!(counts, vec![10, 10, 10, 10]);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = two_dc_problem(30);
        let a = HoneyBee::new(HboParams::paper(), 6).schedule(&p);
        let b = HoneyBee::new(HboParams::paper(), 6).schedule(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_group_count_overrides_dc_rule() {
        let p = two_dc_problem(24);
        let params = HboParams {
            groups: Some(6),
            shuffle: false,
            ..HboParams::paper()
        };
        let a = HoneyBee::new(params, 8).schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a.len(), 24);
    }

    #[test]
    fn more_groups_than_cloudlets_clamps() {
        let p = two_dc_problem(2);
        let params = HboParams {
            groups: Some(50),
            ..HboParams::paper()
        };
        let a = HoneyBee::new(params, 9).schedule(&p);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn params_validation() {
        assert!(HboParams {
            fac_lb: 0.0,
            ..HboParams::paper()
        }
        .validate()
        .is_err());
        assert!(HboParams {
            fac_lb: 1.5,
            ..HboParams::paper()
        }
        .validate()
        .is_err());
        assert!(HboParams {
            groups: Some(0),
            ..HboParams::paper()
        }
        .validate()
        .is_err());
        assert!(HboParams::paper().validate().is_ok());
    }
}
