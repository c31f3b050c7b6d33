//! Incremental load tracking for cache-backed scoring.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::eval::EvalCache;
use crate::objective::Objective;

/// Multiset insert over bit-keyed `f64` values.
fn ms_insert(set: &mut BTreeMap<u64, u32>, bits: u64) {
    *set.entry(bits).or_insert(0) += 1;
}

/// Multiset remove; panics if the value is absent (a tracker bug).
fn ms_remove(set: &mut BTreeMap<u64, u32>, bits: u64) {
    match set.get_mut(&bits) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            set.remove(&bits);
        }
        None => unreachable!("tracker multiset lost a value"),
    }
}

/// Incremental per-VM busy-time tracker.
///
/// Maintains, under `assign` / `unassign` / speculative `score_if` moves:
///
/// * the per-VM estimated load (sum of Eq. 6 times of bound cloudlets),
/// * a sorted multiset of those loads — makespan is an O(1) max lookup,
/// * a sorted multiset of the assigned cloudlets' `d` values plus their
///   running sum — the Eq. 13 imbalance is an O(1) min/max/sum read,
/// * the running Eq. 1 cost total.
///
/// Each (re)assignment is O(log V + log C) for the multiset updates; the
/// three objective scores are O(1) reads. The multisets key values by
/// [`f64::to_bits`], which orders non-negative floats correctly and lets
/// speculative moves revert *exactly* (the inserted key is removed, the
/// removed key reinserted — no floating-point drift).
///
/// Floating-point caveat: `unassign` subtracts from a running sum, and
/// `(x + d) - d` is not always `x` in IEEE arithmetic. Assign-only
/// sequences match a from-scratch [`EvalCache::score`] bit for bit (same
/// accumulation per VM when performed in cloudlet order); sequences with
/// unassignments agree to relative rounding error only.
#[derive(Debug, Clone)]
pub struct LoadTracker {
    /// Estimated busy time per VM, in ms.
    load: Vec<f64>,
    /// Which VM each cloudlet is currently bound to, if any.
    vm_of: Vec<Option<u32>>,
    /// Multiset of `load` values (every VM, idle ones included).
    loads_ms: BTreeMap<u64, u32>,
    /// Multiset of the assigned cloudlets' Eq. 6 times.
    d_values: BTreeMap<u64, u32>,
    /// Running sum of the assigned cloudlets' Eq. 6 times.
    d_sum: f64,
    /// Running Eq. 1 cost total.
    cost_total: f64,
    /// Number of currently assigned cloudlets.
    assigned: usize,
}

impl LoadTracker {
    /// An empty tracker sized for `cache`'s problem — every VM idle,
    /// every cloudlet unassigned.
    pub fn new(cache: &EvalCache) -> Self {
        let mut loads_ms = BTreeMap::new();
        loads_ms.insert(0.0f64.to_bits(), cache.vm_count() as u32);
        LoadTracker {
            load: vec![0.0; cache.vm_count()],
            vm_of: vec![None; cache.cloudlet_count()],
            loads_ms,
            d_values: BTreeMap::new(),
            d_sum: 0.0,
            cost_total: 0.0,
            assigned: 0,
        }
    }

    /// Binds cloudlet `c` to VM `v`. Panics (debug) if `c` is already
    /// assigned — use [`LoadTracker::reassign`] to move it.
    pub fn assign(&mut self, cache: &EvalCache, c: usize, v: usize) {
        debug_assert!(self.vm_of[c].is_none(), "cloudlet {c} already assigned");
        let d = cache.exec_ms(c, v);
        let old = self.load[v];
        let new = old + d;
        ms_remove(&mut self.loads_ms, old.to_bits());
        ms_insert(&mut self.loads_ms, new.to_bits());
        self.load[v] = new;
        ms_insert(&mut self.d_values, d.to_bits());
        self.d_sum += d;
        self.cost_total += cache.cost(c, v);
        self.vm_of[c] = Some(v as u32);
        self.assigned += 1;
    }

    /// Unbinds cloudlet `c`, returning the VM it was on. Panics if `c` is
    /// not assigned.
    pub fn unassign(&mut self, cache: &EvalCache, c: usize) -> usize {
        let v = self.vm_of[c].take().expect("cloudlet not assigned") as usize;
        let d = cache.exec_ms(c, v);
        let old = self.load[v];
        // Clamp at zero: `(x + d) - d` can round below zero, and negative
        // floats would break the bit-keyed multiset's ordering.
        let new = (old - d).max(0.0);
        ms_remove(&mut self.loads_ms, old.to_bits());
        ms_insert(&mut self.loads_ms, new.to_bits());
        self.load[v] = new;
        ms_remove(&mut self.d_values, d.to_bits());
        self.d_sum -= d;
        self.cost_total -= cache.cost(c, v);
        self.assigned -= 1;
        if self.assigned == 0 {
            // Drop any accumulated rounding residue once nothing is bound.
            self.d_sum = 0.0;
            self.cost_total = 0.0;
        }
        v
    }

    /// Moves cloudlet `c` to VM `v` (no-op when already there).
    pub fn reassign(&mut self, cache: &EvalCache, c: usize, v: usize) {
        if self.vm_of[c] == Some(v as u32) {
            return;
        }
        if self.vm_of[c].is_some() {
            self.unassign(cache, c);
        }
        self.assign(cache, c, v);
    }

    /// The VM cloudlet `c` is bound to, if any.
    pub fn vm_of(&self, c: usize) -> Option<usize> {
        self.vm_of[c].map(|v| v as usize)
    }

    /// Estimated busy time of VM `v`, in ms.
    #[inline]
    pub fn load(&self, v: usize) -> f64 {
        self.load[v]
    }

    /// Estimated busy time of every VM, in ms.
    pub fn loads(&self) -> &[f64] {
        &self.load
    }

    /// Estimated makespan — the largest per-VM load (O(1)).
    pub fn makespan(&self) -> f64 {
        self.loads_ms
            .last_key_value()
            .map(|(bits, _)| f64::from_bits(*bits))
            .unwrap_or(0.0)
    }

    /// Running Eq. 1 cost of the assigned cloudlets (O(1)).
    pub fn cost(&self) -> f64 {
        self.cost_total
    }

    /// Eq. 13 imbalance over the assigned cloudlets' Eq. 6 times (O(1)):
    /// `(max d − min d) / (mean d)`, 0 when nothing is assigned or every
    /// time is zero.
    pub fn balance(&self) -> f64 {
        if self.assigned == 0 || self.d_sum == 0.0 {
            return 0.0;
        }
        let min = f64::from_bits(*self.d_values.first_key_value().expect("assigned > 0").0);
        let max = f64::from_bits(*self.d_values.last_key_value().expect("assigned > 0").0);
        (max - min) / (self.d_sum / self.assigned as f64)
    }

    /// Current score under `objective` — lower is better.
    pub fn score(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Makespan => self.makespan(),
            Objective::Cost => self.cost(),
            Objective::Balance => self.balance(),
        }
    }

    /// Score the tracker *would* have if unassigned cloudlet `c` were
    /// bound to VM `v`. The speculative move is applied and then reverted
    /// exactly (bit-keyed multiset insert/remove, scalar save/restore), so
    /// the tracker state is untouched down to the last bit.
    pub fn score_if(&mut self, cache: &EvalCache, c: usize, v: usize, objective: Objective) -> f64 {
        debug_assert!(
            self.vm_of[c].is_none(),
            "score_if needs an unassigned cloudlet"
        );
        let d = cache.exec_ms(c, v);
        let old = self.load[v];
        let old_bits = old.to_bits();
        let new = old + d;
        let new_bits = new.to_bits();
        let saved_sum = self.d_sum;
        let saved_cost = self.cost_total;

        ms_remove(&mut self.loads_ms, old_bits);
        ms_insert(&mut self.loads_ms, new_bits);
        self.load[v] = new;
        ms_insert(&mut self.d_values, d.to_bits());
        self.d_sum += d;
        self.cost_total += cache.cost(c, v);
        self.assigned += 1;

        let score = self.score(objective);

        self.assigned -= 1;
        self.cost_total = saved_cost;
        self.d_sum = saved_sum;
        ms_remove(&mut self.d_values, d.to_bits());
        self.load[v] = old;
        ms_remove(&mut self.loads_ms, new_bits);
        ms_insert(&mut self.loads_ms, old_bits);
        score
    }
}

/// Min-heap of `(load, vm)` pairs ordered by [`f64::total_cmp`] then VM id
/// — the "least-loaded VM" structure HBO's scouts pop from and push back
/// with the updated load. Extracted here so the tie-breaking order is
/// defined once.
#[derive(Debug, Clone, Default)]
pub struct MinLoadHeap {
    heap: BinaryHeap<Reverse<(TotalF64, u32)>>,
}

/// Total order over f64 load values (`total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl MinLoadHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a `(load, vm)` entry.
    pub fn push(&mut self, load: f64, vm: u32) {
        self.heap.push(Reverse((TotalF64(load), vm)));
    }

    /// Removes and returns the least-loaded entry (ties broken by the
    /// smaller VM id).
    pub fn pop(&mut self) -> Option<(f64, u32)> {
        self.heap
            .pop()
            .map(|Reverse((TotalF64(load), vm))| (load, vm))
    }

    /// The least-loaded entry without removing it.
    pub fn peek(&self) -> Option<(f64, u32)> {
        self.heap
            .peek()
            .map(|Reverse((TotalF64(load), vm))| (*load, *vm))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SchedulingProblem;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::ids::VmId;
    use simcloud::vm::VmSpec;

    fn hetero_problem() -> SchedulingProblem {
        let vms: Vec<VmSpec> = (0..5)
            .map(|i| VmSpec::new(500.0 + 600.0 * (i % 3) as f64, 5_000.0, 512.0, 500.0, 1))
            .collect();
        let cloudlets: Vec<CloudletSpec> = (0..17)
            .map(|i| CloudletSpec::new(800.0 + 400.0 * (i % 7) as f64, 150.0, 150.0, 1))
            .collect();
        SchedulingProblem::single_datacenter(vms, cloudlets, CostModel::new(0.01, 0.001, 0.01, 3.0))
    }

    #[test]
    fn assign_only_matches_from_scratch_bitwise() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        let mut tracker = LoadTracker::new(&cache);
        let plan: Vec<VmId> = (0..p.cloudlet_count())
            .map(|c| VmId(((c * 3 + 1) % p.vm_count()) as u32))
            .collect();
        for (c, vm) in plan.iter().enumerate() {
            tracker.assign(&cache, c, vm.index());
        }
        for objective in Objective::ALL {
            assert_eq!(
                tracker.score(objective).to_bits(),
                cache.score(&plan, objective).to_bits(),
                "{objective:?} diverged"
            );
        }
        assert_eq!(tracker.assigned, p.cloudlet_count());
    }

    #[test]
    fn unassign_restores_scores_approximately() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        let mut tracker = LoadTracker::new(&cache);
        for c in 0..p.cloudlet_count() {
            tracker.assign(&cache, c, c % p.vm_count());
        }
        let before: Vec<f64> = Objective::ALL.iter().map(|o| tracker.score(*o)).collect();
        // Move a few cloudlets away and back.
        for c in [0, 5, 11] {
            let v = tracker.unassign(&cache, c);
            tracker.assign(&cache, c, (v + 2) % p.vm_count());
            tracker.reassign(&cache, c, v);
        }
        for (objective, b) in Objective::ALL.iter().zip(before) {
            let after = tracker.score(*objective);
            assert!(
                (after - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{objective:?}: {after} vs {b}"
            );
        }
    }

    #[test]
    fn score_if_leaves_state_bit_identical() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        let mut tracker = LoadTracker::new(&cache);
        for c in 1..p.cloudlet_count() {
            tracker.assign(&cache, c, (c * 2) % p.vm_count());
        }
        let loads_before: Vec<u64> = tracker.loads().iter().map(|l| l.to_bits()).collect();
        let scores_before: Vec<u64> = Objective::ALL
            .iter()
            .map(|o| tracker.score(*o).to_bits())
            .collect();
        for v in 0..p.vm_count() {
            for objective in Objective::ALL {
                let speculative = tracker.score_if(&cache, 0, v, objective);
                assert!(speculative.is_finite());
            }
        }
        let loads_after: Vec<u64> = tracker.loads().iter().map(|l| l.to_bits()).collect();
        let scores_after: Vec<u64> = Objective::ALL
            .iter()
            .map(|o| tracker.score(*o).to_bits())
            .collect();
        assert_eq!(loads_before, loads_after);
        assert_eq!(scores_before, scores_after);
        assert_eq!(tracker.vm_of(0), None);
    }

    #[test]
    fn score_if_equals_commit_then_score() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        let mut tracker = LoadTracker::new(&cache);
        for c in 1..6 {
            tracker.assign(&cache, c, c % p.vm_count());
        }
        for objective in Objective::ALL {
            let speculative = tracker.score_if(&cache, 0, 3, objective);
            tracker.assign(&cache, 0, 3);
            assert_eq!(speculative.to_bits(), tracker.score(objective).to_bits());
            tracker.unassign(&cache, 0);
        }
    }

    #[test]
    fn makespan_counts_idle_vms_as_zero() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        let mut tracker = LoadTracker::new(&cache);
        assert_eq!(tracker.makespan(), 0.0);
        assert_eq!(tracker.balance(), 0.0);
        assert_eq!(tracker.cost(), 0.0);
        tracker.assign(&cache, 0, 2);
        assert_eq!(tracker.makespan().to_bits(), cache.exec_ms(0, 2).to_bits());
        assert_eq!(tracker.balance(), 0.0, "single cloudlet has max == min");
    }

    #[test]
    fn min_load_heap_orders_by_load_then_vm() {
        let mut heap = MinLoadHeap::new();
        assert!(heap.is_empty());
        heap.push(5.0, 1);
        heap.push(2.0, 9);
        heap.push(2.0, 3);
        heap.push(7.0, 0);
        assert_eq!(heap.len(), 4);
        assert_eq!(heap.peek(), Some((2.0, 3)));
        assert_eq!(heap.pop(), Some((2.0, 3)));
        assert_eq!(heap.pop(), Some((2.0, 9)));
        assert_eq!(heap.pop(), Some((5.0, 1)));
        assert_eq!(heap.pop(), Some((7.0, 0)));
        assert_eq!(heap.pop(), None);
    }
}
