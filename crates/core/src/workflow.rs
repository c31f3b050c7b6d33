//! Workflow-aware scheduling: HEFT.
//!
//! The paper's studied algorithms bind independent cloudlets; its related
//! work, however, is dominated by *workflow* schedulers (PSO for DAGs
//! \[18\]/\[3\]/\[23\]). This module provides the classic list-scheduling
//! reference those works compare against — **HEFT** (Heterogeneous
//! Earliest Finish Time): rank tasks by upward rank over mean execution
//! times, then greedily place each on the VM minimizing its earliest
//! finish time honoring parent completions.
//!
//! ```
//! use biosched_core::problem::SchedulingProblem;
//! use biosched_core::workflow::heft;
//! use simcloud::ids::CloudletId;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::new(500.0, 5000.0, 512.0, 500.0, 1),
//!          VmSpec::new(4000.0, 5000.0, 512.0, 500.0, 1)],
//!     vec![CloudletSpec::new(1_000.0, 0.0, 0.0, 1); 3],
//!     CostModel::default(),
//! );
//! // A chain: 0 -> 1 -> 2. HEFT keeps it on the fast VM.
//! let parents = vec![vec![], vec![CloudletId(0)], vec![CloudletId(1)]];
//! let plan = heft(&problem, &parents);
//! assert!(plan.as_slice().iter().all(|vm| vm.index() == 1));
//! ```

use simcloud::ids::{CloudletId, VmId};

use crate::assignment::Assignment;
use crate::eval::EvalCache;
use crate::problem::SchedulingProblem;

/// Upward ranks over mean Eq. 6 execution times.
///
/// `rank(c) = w̄(c) + max over children rank(child)`, where `w̄(c)` is the
/// task's mean expected execution time across the fleet. Higher rank =
/// closer to the critical path's head.
pub fn upward_ranks(problem: &SchedulingProblem, parents: &[Vec<CloudletId>]) -> Vec<f64> {
    ranks(&EvalCache::new(problem), parents)
}

/// [`upward_ranks`] over a built cache.
fn ranks(cache: &EvalCache, parents: &[Vec<CloudletId>]) -> Vec<f64> {
    let n = cache.cloudlet_count();
    assert_eq!(parents.len(), n, "parents must cover every cloudlet");
    let v = cache.vm_count();
    let mean_w: Vec<f64> = (0..n)
        .map(|c| (0..v).map(|vm| cache.exec_ms(c, vm)).sum::<f64>() / v as f64)
        .collect();

    // Process in reverse topological order: children before parents.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut child_count = vec![0usize; n];
    for (c, ps) in parents.iter().enumerate() {
        for p in ps {
            children[p.index()].push(c);
            child_count[p.index()] += 1;
        }
    }
    let mut pending_children = child_count.clone();
    let mut ready: Vec<usize> = (0..n).filter(|c| pending_children[*c] == 0).collect();
    let mut rank = vec![0.0f64; n];
    let mut visited = 0usize;
    while let Some(c) = ready.pop() {
        visited += 1;
        let best_child = children[c]
            .iter()
            .map(|&ch| rank[ch])
            .fold(0.0f64, f64::max);
        rank[c] = mean_w[c] + best_child;
        for p in &parents[c] {
            let slot = &mut pending_children[p.index()];
            *slot -= 1;
            if *slot == 0 {
                ready.push(p.index());
            }
        }
    }
    assert_eq!(visited, n, "dependency graph must be acyclic");
    rank
}

/// HEFT: schedules a DAG onto the fleet, returning a cloudlet→VM plan.
///
/// Insertion-free variant: a VM is modeled as a FIFO ready-time (matching
/// the simulator's space-shared queue), so `EFT(c, v) = max(ready[v],
/// latest parent finish) + d(c, v)`.
pub fn heft(problem: &SchedulingProblem, parents: &[Vec<CloudletId>]) -> Assignment {
    list_schedule(&EvalCache::new(problem), parents).0
}

/// HEFT's own makespan estimate for a plan it produced — the largest
/// predicted finish time. Useful for quick comparisons without running
/// the simulator.
pub fn heft_estimate_ms(problem: &SchedulingProblem, parents: &[Vec<CloudletId>]) -> f64 {
    list_schedule(&EvalCache::new(problem), parents).1
}

/// HEFT's list schedule over a built cache: the plan and its largest
/// predicted finish time.
fn list_schedule(cache: &EvalCache, parents: &[Vec<CloudletId>]) -> (Assignment, f64) {
    let n = cache.cloudlet_count();
    let v = cache.vm_count();
    let ranks = ranks(cache, parents);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|a, b| ranks[*b].total_cmp(&ranks[*a]));

    let mut vm_ready = vec![0.0f64; v];
    let mut finish = vec![0.0f64; n];
    let mut map = vec![VmId(0); n];
    for c in order {
        let parents_done = parents[c]
            .iter()
            .map(|p| finish[p.index()])
            .fold(0.0f64, f64::max);
        let mut best = (f64::INFINITY, 0usize);
        for (vm, ready) in vm_ready.iter().enumerate() {
            let est = ready.max(parents_done);
            let eft = est + cache.exec_ms(c, vm);
            if eft < best.0 {
                best = (eft, vm);
            }
        }
        let (eft, vm) = best;
        finish[c] = eft;
        vm_ready[vm] = eft;
        map[c] = VmId::from_index(vm);
    }
    let makespan = finish.into_iter().fold(0.0, f64::max);
    (Assignment::new(map), makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn fleet(mips: &[f64]) -> Vec<VmSpec> {
        mips.iter()
            .map(|m| VmSpec::new(*m, 5_000.0, 512.0, 500.0, 1))
            .collect()
    }

    fn pure_compute(lengths: &[f64]) -> Vec<CloudletSpec> {
        lengths
            .iter()
            .map(|l| CloudletSpec::new(*l, 0.0, 0.0, 1))
            .collect()
    }

    #[test]
    fn ranks_decrease_along_chains() {
        let p = SchedulingProblem::single_datacenter(
            fleet(&[1_000.0]),
            pure_compute(&[100.0, 100.0, 100.0]),
            CostModel::free(),
        );
        let parents = vec![vec![], vec![CloudletId(0)], vec![CloudletId(1)]];
        let ranks = upward_ranks(&p, &parents);
        assert!(ranks[0] > ranks[1]);
        assert!(ranks[1] > ranks[2]);
        // Head of the chain carries the whole path: 300ms.
        assert!((ranks[0] - 300.0).abs() < 1e-9);
    }

    #[test]
    fn chain_sticks_to_the_fastest_vm() {
        let p = SchedulingProblem::single_datacenter(
            fleet(&[500.0, 4_000.0, 1_000.0]),
            pure_compute(&[1_000.0; 4]),
            CostModel::free(),
        );
        let parents = vec![
            vec![],
            vec![CloudletId(0)],
            vec![CloudletId(1)],
            vec![CloudletId(2)],
        ];
        let plan = heft(&p, &parents);
        assert!(plan.as_slice().iter().all(|vm| vm.index() == 1));
    }

    #[test]
    fn parallel_branches_spread_across_vms() {
        // Independent tasks (no edges) on two equal VMs: HEFT must use
        // both instead of queueing everything on one.
        let p = SchedulingProblem::single_datacenter(
            fleet(&[1_000.0, 1_000.0]),
            pure_compute(&[1_000.0; 4]),
            CostModel::free(),
        );
        let parents = vec![vec![]; 4];
        let plan = heft(&p, &parents);
        let counts = plan.counts_per_vm(2);
        assert_eq!(counts, vec![2, 2]);
    }

    #[test]
    fn estimate_matches_hand_computed_chain() {
        let p = SchedulingProblem::single_datacenter(
            fleet(&[1_000.0, 2_000.0]),
            pure_compute(&[1_000.0, 1_000.0]),
            CostModel::free(),
        );
        let parents = vec![vec![], vec![CloudletId(0)]];
        // Both on the 2000-MIPS VM: 500 + 500 = 1000ms.
        assert!((heft_estimate_ms(&p, &parents) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cyclic_graph_panics() {
        let p = SchedulingProblem::single_datacenter(
            fleet(&[1_000.0]),
            pure_compute(&[100.0, 100.0]),
            CostModel::free(),
        );
        let parents = vec![vec![CloudletId(1)], vec![CloudletId(0)]];
        let _ = upward_ranks(&p, &parents);
    }

    #[test]
    fn empty_workflow() {
        let p = SchedulingProblem::single_datacenter(fleet(&[1_000.0]), vec![], CostModel::free());
        let plan = heft(&p, &[]);
        assert!(plan.is_empty());
    }
}
