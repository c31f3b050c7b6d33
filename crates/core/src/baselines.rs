//! Cheap production baselines: least-connection, weighted round-robin,
//! shortest-job-first and best-fit.
//!
//! The load balancers real brokers (nginx, HAProxy, LVS) ship as
//! defaults, plus the two classic greedy schedulers every cloud
//! survey compares against. They cost O(C log V) or O(C·V) per round,
//! carry their state across scheduling rounds (like
//! [`crate::round_robin::RoundRobin`]'s cursor), and give the
//! metaheuristics a realistic "what production does today" reference
//! line. All are fully deterministic — no seed — so their wave plans
//! are byte-identical at any thread count by construction.

use simcloud::ids::VmId;

use crate::assignment::Assignment;
use crate::eval::{EvalCache, MinLoadHeap};
use crate::problem::SchedulingProblem;
use crate::scheduler::Scheduler;

/// Least-connection balancer: each cloudlet goes to the VM with the
/// smallest *estimated busy time* (Eq. 6 load scored through
/// [`EvalCache`]), ties broken by the lower VM id. The per-VM load
/// vector persists across scheduling rounds, so under the streaming
/// broker each wave sees the backlog the previous waves created —
/// the connection-count analog of the classic balancer.
#[derive(Debug, Default, Clone)]
pub struct LeastConnection {
    /// Estimated busy ms per VM, accumulated across rounds. Reset when
    /// the fleet size changes.
    load: Vec<f64>,
}

impl LeastConnection {
    /// A balancer with an idle fleet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LeastConnection {
    fn name(&self) -> &'static str {
        "least-connection"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        self.schedule_with_cache(problem, &EvalCache::new(problem))
    }

    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        let v = problem.vm_count();
        if self.load.len() != v {
            self.load = vec![0.0; v];
        }
        let mut heap = MinLoadHeap::new();
        for (vm, &load) in self.load.iter().enumerate() {
            heap.push(load, vm as u32);
        }
        let mut map = Vec::with_capacity(problem.cloudlet_count());
        for c in 0..problem.cloudlet_count() {
            let (load, vm) = heap.pop().expect("fleet is non-empty");
            let updated = load + cache.exec_ms(c, vm as usize);
            self.load[vm as usize] = updated;
            heap.push(updated, vm);
            map.push(VmId(vm));
        }
        Assignment::new(map)
    }
}

/// Weighted round-robin via virtual finish times (the weighted-fair-
/// queueing formulation): VM `v` with weight `w_v = mips·pes` is picked
/// at virtual times `1/w_v, 2/w_v, …`, so over any long window VMs
/// receive cloudlets proportionally to capacity while picks stay
/// interleaved (no bursts onto one VM, unlike naive credit schemes).
/// O(log V) per cloudlet through [`MinLoadHeap`]; the virtual clock
/// persists across rounds so waves continue the cycle where the last
/// one stopped.
#[derive(Debug, Default, Clone)]
pub struct WeightedRoundRobin {
    /// Next virtual finish time per VM. Reset when the fleet changes.
    vtime: Vec<f64>,
}

impl WeightedRoundRobin {
    /// A balancer at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity weights; a degenerate all-zero fleet falls back to
    /// uniform weights (plain round-robin order).
    fn weights(problem: &SchedulingProblem) -> Vec<f64> {
        let mut w: Vec<f64> = problem
            .vms
            .iter()
            .map(|vm| {
                let cap = vm.mips * f64::from(vm.pes);
                if cap.is_finite() && cap > 0.0 {
                    cap
                } else {
                    0.0
                }
            })
            .collect();
        if w.iter().all(|&x| x == 0.0) {
            w.iter_mut().for_each(|x| *x = 1.0);
        }
        w
    }
}

impl Scheduler for WeightedRoundRobin {
    fn name(&self) -> &'static str {
        "weighted-round-robin"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        let v = problem.vm_count();
        let weights = Self::weights(problem);
        if self.vtime.len() != v {
            self.vtime = weights
                .iter()
                .map(|&w| if w > 0.0 { 1.0 / w } else { f64::INFINITY })
                .collect();
        }
        let mut heap = MinLoadHeap::new();
        for (vm, &t) in self.vtime.iter().enumerate() {
            heap.push(t, vm as u32);
        }
        let mut map = Vec::with_capacity(problem.cloudlet_count());
        for _ in 0..problem.cloudlet_count() {
            let (t, vm) = heap.pop().expect("fleet is non-empty");
            let next = t + 1.0 / weights[vm as usize];
            self.vtime[vm as usize] = next;
            heap.push(next, vm);
            map.push(VmId(vm));
        }
        Assignment::new(map)
    }
}

/// Shortest-job-first: cloudlets are considered in ascending
/// `length_mi` order (ties by the lower cloudlet id) and each goes to
/// the VM with the smallest estimated busy time, exactly like
/// [`LeastConnection`]'s placement rule. Only the *visit order*
/// differs — short jobs grab the idle VMs first, which minimises mean
/// flow time on uniform fleets (the classic SJF guarantee). The
/// assignment is still emitted in original cloudlet order. O(C log C)
/// for the sort plus O(C log V) through [`MinLoadHeap`]; the load
/// vector persists across rounds like the other balancers.
#[derive(Debug, Default, Clone)]
pub struct ShortestJobFirst {
    /// Estimated busy ms per VM, accumulated across rounds. Reset when
    /// the fleet size changes.
    load: Vec<f64>,
}

impl ShortestJobFirst {
    /// A scheduler with an idle fleet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for ShortestJobFirst {
    fn name(&self) -> &'static str {
        "shortest-job-first"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        self.schedule_with_cache(problem, &EvalCache::new(problem))
    }

    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        let v = problem.vm_count();
        if self.load.len() != v {
            self.load = vec![0.0; v];
        }
        let mut order: Vec<usize> = (0..problem.cloudlet_count()).collect();
        order.sort_by(|&a, &b| {
            problem.cloudlets[a]
                .length_mi
                .total_cmp(&problem.cloudlets[b].length_mi)
                .then(a.cmp(&b))
        });
        let mut heap = MinLoadHeap::new();
        for (vm, &load) in self.load.iter().enumerate() {
            heap.push(load, vm as u32);
        }
        let mut map = vec![VmId(0); problem.cloudlet_count()];
        for c in order {
            let (load, vm) = heap.pop().expect("fleet is non-empty");
            let updated = load + cache.exec_ms(c, vm as usize);
            self.load[vm as usize] = updated;
            heap.push(updated, vm);
            map[c] = VmId(vm);
        }
        Assignment::new(map)
    }
}

/// Best-fit: each cloudlet (in arrival order) goes to the VM that
/// minimises its *estimated finish time* `load[v] + exec_ms(c, v)` —
/// the bin-packing "tightest fit" transplanted to heterogeneous
/// fleets. Unlike [`LeastConnection`], which picks the least-loaded VM
/// and only then pays the execution cost, best-fit folds the per-VM
/// execution speed into the choice, so a busy fast VM can beat an idle
/// slow one. O(C·V) — the finish time depends on the (cloudlet, VM)
/// pair, so no heap applies. Load persists across rounds.
#[derive(Debug, Default, Clone)]
pub struct BestFit {
    /// Estimated busy ms per VM, accumulated across rounds. Reset when
    /// the fleet size changes.
    load: Vec<f64>,
}

impl BestFit {
    /// A scheduler with an idle fleet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        self.schedule_with_cache(problem, &EvalCache::new(problem))
    }

    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        let v = problem.vm_count();
        if self.load.len() != v {
            self.load = vec![0.0; v];
        }
        let mut map = Vec::with_capacity(problem.cloudlet_count());
        for c in 0..problem.cloudlet_count() {
            let mut best_vm = 0usize;
            let mut best_finish = f64::INFINITY;
            for (vm, &load) in self.load.iter().enumerate() {
                let finish = load + cache.exec_ms(c, vm);
                if finish.total_cmp(&best_finish).is_lt() {
                    best_finish = finish;
                    best_vm = vm;
                }
            }
            self.load[best_vm] = best_finish;
            map.push(VmId(best_vm as u32));
        }
        Assignment::new(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{score_assignment, Objective};
    use crate::round_robin::RoundRobin;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn hetero_problem(vms: usize, cloudlets: usize) -> SchedulingProblem {
        let vm_specs: Vec<VmSpec> = (0..vms)
            .map(|i| {
                let mips = if i % 2 == 0 { 500.0 } else { 2_000.0 };
                VmSpec::new(mips, 5_000.0, 512.0, 500.0, 1)
            })
            .collect();
        let cls: Vec<CloudletSpec> = (0..cloudlets)
            .map(|i| CloudletSpec::new(1_000.0 + 500.0 * (i % 5) as f64, 100.0, 100.0, 1))
            .collect();
        SchedulingProblem::single_datacenter(vm_specs, cls, CostModel::default())
    }

    fn uniform_problem(vms: usize, cloudlets: usize) -> SchedulingProblem {
        SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default(); vms],
            vec![CloudletSpec::homogeneous_default(); cloudlets],
            CostModel::free(),
        )
    }

    #[test]
    fn least_connection_is_valid_and_deterministic() {
        let p = hetero_problem(6, 40);
        let a = LeastConnection::new().schedule(&p);
        let b = LeastConnection::new().schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a, b);
    }

    #[test]
    fn least_connection_beats_round_robin_on_hetero_makespan() {
        let p = hetero_problem(8, 80);
        let lc = LeastConnection::new().schedule(&p);
        let rr = RoundRobin::new().schedule(&p);
        let lc_score = score_assignment(&p, &lc, Objective::Makespan);
        let rr_score = score_assignment(&p, &rr, Objective::Makespan);
        assert!(lc_score <= rr_score, "LC {lc_score} vs RR {rr_score}");
    }

    #[test]
    fn least_connection_load_persists_across_rounds() {
        // Round 1 loads VM 0 heavily; round 2 must remember that and
        // route elsewhere first.
        let p1 = uniform_problem(3, 1);
        let mut lc = LeastConnection::new();
        let first = lc.schedule(&p1);
        assert_eq!(first.as_slice(), &[VmId(0)]);
        let second = lc.schedule(&p1);
        assert_eq!(second.as_slice(), &[VmId(1)], "VM 0 already busy");
        // A fresh instance would have gone back to VM 0.
        assert_eq!(LeastConnection::new().schedule(&p1).as_slice(), &[VmId(0)]);
    }

    #[test]
    fn least_connection_shared_cache_matches_private() {
        let p = hetero_problem(5, 30);
        let cache = EvalCache::new(&p);
        let private = LeastConnection::new().schedule(&p);
        let shared = LeastConnection::new().schedule_with_cache(&p, &cache);
        assert_eq!(private, shared);
    }

    #[test]
    fn wrr_allocates_proportionally_to_capacity() {
        // VMs at 500 vs 2000 MIPS: the fast ones should receive ~4× the
        // cloudlets over a long window.
        let p = hetero_problem(2, 100);
        let a = WeightedRoundRobin::new().schedule(&p);
        let counts = a.counts_per_vm(2);
        assert!(a.validate(&p).is_ok());
        assert_eq!(counts[0] + counts[1], 100);
        assert!(
            counts[1] >= 3 * counts[0] && counts[0] > 0,
            "expected ~1:4 split, got {counts:?}"
        );
    }

    #[test]
    fn wrr_on_uniform_fleet_is_fair() {
        let p = uniform_problem(5, 100);
        let a = WeightedRoundRobin::new().schedule(&p);
        let counts = a.counts_per_vm(5);
        assert!(counts.iter().all(|&c| c == 20), "{counts:?}");
    }

    #[test]
    fn wrr_virtual_clock_persists_across_rounds() {
        let p = uniform_problem(3, 2);
        let mut wrr = WeightedRoundRobin::new();
        let first = wrr.schedule(&p);
        let second = wrr.schedule(&p);
        // Uniform weights degenerate to cyclic order that resumes.
        assert_eq!(first.as_slice(), &[VmId(0), VmId(1)]);
        assert_eq!(second.as_slice(), &[VmId(2), VmId(0)]);
    }

    #[test]
    fn wrr_is_deterministic() {
        let p = hetero_problem(7, 50);
        assert_eq!(
            WeightedRoundRobin::new().schedule(&p),
            WeightedRoundRobin::new().schedule(&p)
        );
    }

    #[test]
    fn sjf_visits_shortest_cloudlets_first() {
        // Lengths 3000/1000/2000 on three idle uniform VMs: sorted
        // order is c1, c2, c0, and the heap hands out VMs 0, 1, 2 in
        // that visit order — so the emitted map reveals the sort.
        let vms = vec![VmSpec::homogeneous_default(); 3];
        let cls = vec![
            CloudletSpec::new(3_000.0, 0.0, 0.0, 1),
            CloudletSpec::new(1_000.0, 0.0, 0.0, 1),
            CloudletSpec::new(2_000.0, 0.0, 0.0, 1),
        ];
        let p = SchedulingProblem::single_datacenter(vms, cls, CostModel::free());
        let a = ShortestJobFirst::new().schedule(&p);
        assert_eq!(a.as_slice(), &[VmId(2), VmId(0), VmId(1)]);
    }

    #[test]
    fn sjf_is_valid_deterministic_and_cache_agnostic() {
        let p = hetero_problem(6, 40);
        let cache = EvalCache::new(&p);
        let a = ShortestJobFirst::new().schedule(&p);
        let b = ShortestJobFirst::new().schedule(&p);
        let shared = ShortestJobFirst::new().schedule_with_cache(&p, &cache);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a, b);
        assert_eq!(a, shared);
    }

    #[test]
    fn sjf_load_persists_across_rounds() {
        let p = uniform_problem(3, 1);
        let mut sjf = ShortestJobFirst::new();
        assert_eq!(sjf.schedule(&p).as_slice(), &[VmId(0)]);
        assert_eq!(sjf.schedule(&p).as_slice(), &[VmId(1)], "VM 0 already busy");
        assert_eq!(ShortestJobFirst::new().schedule(&p).as_slice(), &[VmId(0)]);
    }

    #[test]
    fn best_fit_prefers_fast_busy_vm_over_slow_idle_one() {
        // VM 0 at 500 MIPS (slow), VM 1 at 2000 MIPS (fast), no input
        // staging. Every job finishes sooner on the fast VM even after
        // it absorbs the whole backlog (2.25 s vs 4.0 s for the last
        // one), so best-fit piles all three onto it. Least-connection,
        // blind to speed until after the pick, sends the first job to
        // the idle slow VM (tie on load, lower id).
        let vms = vec![
            VmSpec::new(500.0, 5_000.0, 512.0, 500.0, 1),
            VmSpec::new(2_000.0, 5_000.0, 512.0, 500.0, 1),
        ];
        let cls: Vec<CloudletSpec> = [1_000.0, 1_500.0, 2_000.0]
            .iter()
            .map(|&len| CloudletSpec::new(len, 0.0, 0.0, 1))
            .collect();
        let p = SchedulingProblem::single_datacenter(vms, cls, CostModel::free());
        let bf = BestFit::new().schedule(&p);
        assert!(
            bf.as_slice().iter().all(|&vm| vm == VmId(1)),
            "all jobs should pile onto the fast VM: {:?}",
            bf.as_slice()
        );
        let lc = LeastConnection::new().schedule(&p);
        assert_eq!(
            lc.as_slice()[0],
            VmId(0),
            "LC sends job 0 to the idle slow VM"
        );
    }

    #[test]
    fn best_fit_never_loses_to_least_connection_on_hetero_makespan() {
        let p = hetero_problem(8, 80);
        let bf = BestFit::new().schedule(&p);
        let lc = LeastConnection::new().schedule(&p);
        assert!(bf.validate(&p).is_ok());
        let bf_score = score_assignment(&p, &bf, Objective::Makespan);
        let lc_score = score_assignment(&p, &lc, Objective::Makespan);
        assert!(bf_score <= lc_score, "BF {bf_score} vs LC {lc_score}");
    }

    #[test]
    fn best_fit_is_deterministic_and_cache_agnostic() {
        let p = hetero_problem(5, 30);
        let cache = EvalCache::new(&p);
        let a = BestFit::new().schedule(&p);
        let b = BestFit::new().schedule(&p);
        let shared = BestFit::new().schedule_with_cache(&p, &cache);
        assert_eq!(a, b);
        assert_eq!(a, shared);
    }

    #[test]
    fn best_fit_load_persists_across_rounds() {
        let p = uniform_problem(3, 1);
        let mut bf = BestFit::new();
        assert_eq!(bf.schedule(&p).as_slice(), &[VmId(0)]);
        assert_eq!(bf.schedule(&p).as_slice(), &[VmId(1)], "VM 0 already busy");
        assert_eq!(BestFit::new().schedule(&p).as_slice(), &[VmId(0)]);
    }
}
