//! Min-Min and Max-Min greedy baselines.
//!
//! These are the classic list-scheduling heuristics the paper's related
//! work compares against (an improved Max-Min is proposed in \[4\]). Both
//! track per-VM ready times and repeatedly pick the cloudlet whose best
//! completion time is smallest (Min-Min) or largest (Max-Min), assigning
//! it to its best VM.
//!
//! Complexity is O(C·V) per step with the standard incremental trick
//! (only cloudlets whose cached best VM was just loaded need rescoring),
//! so they are practical for the heterogeneous scenario's sizes and used
//! in `repro extended`; they are not part of the paper's figure set.

use simcloud::ids::VmId;

use crate::assignment::Assignment;
use crate::eval::{EvalCache, LoadTracker};
use crate::problem::SchedulingProblem;
use crate::scheduler::Scheduler;

/// Which extreme the heuristic selects each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Min,
    Max,
}

fn schedule_greedy(cache: &EvalCache, mode: Mode) -> Assignment {
    let c = cache.cloudlet_count();
    // Declared Eq. 6 reads, in whole-plan units of C reads: the initial
    // C·V sweep is V units, each rescan reads one row of V, and the loop
    // rescans at most C(C−1)/2 times (every unassigned cloudlet after
    // every pick), so at most V + V(C−1)/2 = V(C+1)/2 units. Measured on
    // 100 VMs × 1 000 cloudlets (CLI `compare`, seed 42): 499 500
    // rescans on the homogeneous problem for both heuristics, the bound
    // itself; 304 847 (Min-Min) and 163 003 (Max-Min) on the
    // heterogeneous one.
    let v = cache.vm_count() as u64;
    cache.expect_evaluations(v * (c as u64 + 1) / 2);
    let mut map = vec![VmId(0); c];
    // A VM's ready time is exactly its tracked estimated load: assignments
    // only ever append work, so completion = load + d.
    let mut tracker = LoadTracker::new(cache);

    // Cached best (completion, vm) per unassigned cloudlet.
    let mut best: Vec<(f64, usize)> = (0..c)
        .map(|cl| best_vm(cache, cl, tracker.loads()))
        .collect();
    let mut unassigned: Vec<usize> = (0..c).collect();

    while !unassigned.is_empty() {
        // Select the extreme cloudlet by cached best completion.
        let sel_pos = match mode {
            Mode::Min => unassigned
                .iter()
                .enumerate()
                .min_by(|a, b| best[*a.1].0.total_cmp(&best[*b.1].0))
                .map(|(pos, _)| pos)
                .expect("unassigned is non-empty"),
            Mode::Max => unassigned
                .iter()
                .enumerate()
                .max_by(|a, b| best[*a.1].0.total_cmp(&best[*b.1].0))
                .map(|(pos, _)| pos)
                .expect("unassigned is non-empty"),
        };
        let cl = unassigned.swap_remove(sel_pos);
        let (_, vm) = best[cl];
        map[cl] = VmId::from_index(vm);
        tracker.assign(cache, cl, vm);

        // Only cloudlets whose cached best used `vm` can have changed —
        // every other VM's ready time is untouched and `vm` only got
        // worse, so their cached optimum still stands.
        for &other in &unassigned {
            if best[other].1 == vm {
                best[other] = best_vm(cache, other, tracker.loads());
            }
        }
    }
    Assignment::new(map)
}

/// Best (completion time, vm) for a cloudlet given current ready times.
fn best_vm(cache: &EvalCache, cl: usize, ready: &[f64]) -> (f64, usize) {
    let mut best = (f64::INFINITY, 0usize);
    for (vm, r) in ready.iter().enumerate() {
        let completion = r + cache.exec_ms(cl, vm);
        if completion < best.0 {
            best = (completion, vm);
        }
    }
    best
}

/// The Min-Min heuristic: shortest tasks first, each on its fastest VM.
#[derive(Debug, Default, Clone)]
pub struct MinMin;

impl MinMin {
    /// Creates the scheduler.
    pub fn new() -> Self {
        MinMin
    }
}

impl Scheduler for MinMin {
    fn name(&self) -> &'static str {
        "min-min"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        schedule_greedy(&EvalCache::new(problem), Mode::Min)
    }

    fn schedule_with_cache(
        &mut self,
        _problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        schedule_greedy(cache, Mode::Min)
    }
}

/// The Max-Min heuristic: longest tasks first, each on its fastest VM.
#[derive(Debug, Default, Clone)]
pub struct MaxMin;

impl MaxMin {
    /// Creates the scheduler.
    pub fn new() -> Self {
        MaxMin
    }
}

impl Scheduler for MaxMin {
    fn name(&self) -> &'static str {
        "max-min"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        schedule_greedy(&EvalCache::new(problem), Mode::Max)
    }

    fn schedule_with_cache(
        &mut self,
        _problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        schedule_greedy(cache, Mode::Max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn mixed_problem() -> SchedulingProblem {
        let vms = vec![
            VmSpec::new(500.0, 100.0, 100.0, 500.0, 1),
            VmSpec::new(2_000.0, 100.0, 100.0, 500.0, 1),
        ];
        let cloudlets = vec![
            CloudletSpec::new(1_000.0, 0.0, 0.0, 1),
            CloudletSpec::new(8_000.0, 0.0, 0.0, 1),
            CloudletSpec::new(2_000.0, 0.0, 0.0, 1),
            CloudletSpec::new(4_000.0, 0.0, 0.0, 1),
        ];
        SchedulingProblem::single_datacenter(vms, cloudlets, CostModel::free())
    }

    #[test]
    fn both_produce_valid_assignments() {
        let p = mixed_problem();
        for a in [MinMin::new().schedule(&p), MaxMin::new().schedule(&p)] {
            assert!(a.validate(&p).is_ok());
        }
    }

    #[test]
    fn maxmin_handles_long_tasks_first() {
        let p = mixed_problem();
        let a = MaxMin::new().schedule(&p);
        // The longest task (8000 MI) must land on the fast VM: it was
        // selected first, when the fast VM was idle.
        assert_eq!(a.vm_for(1), VmId(1));
    }

    #[test]
    fn minmin_first_pick_is_shortest_on_fastest() {
        let p = mixed_problem();
        let a = MinMin::new().schedule(&p);
        // The 1000 MI task has the globally smallest completion (0.5s on
        // the fast VM) so Min-Min assigns it there first.
        assert_eq!(a.vm_for(0), VmId(1));
    }

    #[test]
    fn both_beat_the_degenerate_single_vm_plan() {
        // Greedy heuristics are not optimal (Min-Min famously hoards the
        // fastest VM), but both must beat piling everything on one VM.
        let p = mixed_problem();
        let total_mi = 15_000.0;
        let worst = total_mi / 500.0 * 1_000.0; // everything on the slow VM
        let mn = MinMin::new().schedule(&p).estimated_makespan_ms(&p);
        let mx = MaxMin::new().schedule(&p).estimated_makespan_ms(&p);
        assert!(mn < worst, "min-min {mn} vs worst {worst}");
        assert!(mx < worst, "max-min {mx} vs worst {worst}");
    }

    #[test]
    fn deterministic() {
        let p = mixed_problem();
        assert_eq!(MinMin::new().schedule(&p), MinMin::new().schedule(&p));
        assert_eq!(MaxMin::new().schedule(&p), MaxMin::new().schedule(&p));
    }

    #[test]
    fn single_vm_everything_serializes() {
        let p = SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default()],
            vec![CloudletSpec::homogeneous_default(); 6],
            CostModel::free(),
        );
        let a = MinMin::new().schedule(&p);
        assert!(a.as_slice().iter().all(|v| v.index() == 0));
    }
}
