//! Frozen pre-overhaul ACO implementation — the equivalence baseline.
//!
//! This module is a verbatim snapshot of the colony construction loop as
//! it existed before the scheduler hot-path overhaul (sequential colonies,
//! per-candidate `powf`, `HashSet` tabu, `HashMap` pheromone storage). It
//! exists for two reasons:
//!
//! 1. **Equivalence testing** — with full rows (k ≥ #VMs) the optimized
//!    [`super::AntColony`] must produce byte-identical assignments per
//!    seed; the `scheduler_equivalence` integration test compares the two
//!    paths across thread counts. Do not "optimize" this module: its value
//!    is that it stays exactly as the pre-overhaul commit left it.
//! 2. **Benchmark baseline** — `schedbench` times it next to the
//!    optimized path so the speedup is measured against the real former
//!    implementation, not a guess.
//!    Its random-k branch (k < #VMs) has no `AntColony` counterpart.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud::ids::VmId;
use simcloud::rng::stream;

use crate::assignment::Assignment;
use crate::eval::{self, EvalCache};
use crate::problem::SchedulingProblem;

use super::AcoParams;

/// Floor below which pheromone cannot decay (mirrors the live matrix).
const MIN_PHEROMONE: f64 = 1e-12;

/// The pre-overhaul sparse pheromone store: base + `HashMap` deposits.
struct RefPheromone {
    base: f64,
    deposits: HashMap<(u32, u32), f64>,
    scale: f64,
}

impl RefPheromone {
    fn new(initial: f64) -> Self {
        assert!(initial > 0.0 && initial.is_finite());
        RefPheromone {
            base: initial,
            deposits: HashMap::new(),
            scale: 1.0,
        }
    }

    #[inline]
    fn get(&self, slot: u32, vm: u32) -> f64 {
        let extra = self
            .deposits
            .get(&(slot, vm))
            .map_or(0.0, |raw| raw * self.scale);
        (self.base + extra).max(MIN_PHEROMONE)
    }

    fn evaporate(&mut self, rho: f64) {
        let keep = 1.0 - rho;
        self.base = (self.base * keep).max(MIN_PHEROMONE);
        self.scale *= keep;
        if self.scale < 1e-100 {
            for raw in self.deposits.values_mut() {
                *raw *= self.scale;
            }
            self.scale = 1.0;
        }
    }

    fn deposit(&mut self, slot: u32, vm: u32, amount: f64) {
        *self.deposits.entry((slot, vm)).or_insert(0.0) += amount / self.scale;
    }
}

/// Schedules `problem` with the pre-overhaul ACO loop. Byte-identical to
/// [`AntColony`](super::AntColony)'s `schedule` for any seed when
/// k ≥ #VMs (full rows); its random-k branch is only schedbench's
/// `reference_aco_k32_ms` timing baseline.
pub fn schedule_reference(
    params: &AcoParams,
    seed: u64,
    problem: &SchedulingProblem,
) -> Assignment {
    params.validate().expect("invalid AcoParams");
    let mut rng = stream(seed, "aco");
    let c = problem.cloudlet_count();
    let v = problem.vm_count();
    let cache = EvalCache::new(problem);
    let fleet_cap = ((v as f64 * params.max_vm_fraction).ceil() as usize).max(1);
    let batch = params.batch_size.min(fleet_cap).max(1);
    let mut map = Vec::with_capacity(c);
    let mut start = 0;
    while start < c {
        let end = (start + batch).min(c);
        map.extend(run_colony(&cache, start..end, params, &mut rng));
        start = end;
    }
    Assignment::new(map)
}

fn run_colony(
    cache: &EvalCache,
    slots: Range<usize>,
    params: &AcoParams,
    rng: &mut StdRng,
) -> Vec<VmId> {
    let mut pheromone = RefPheromone::new(params.initial_pheromone);
    let mut best: Option<(Vec<u32>, f64)> = None;

    for _ in 0..params.iterations {
        let seeds: Vec<u64> = (0..params.ants).map(|_| rng.gen()).collect();
        let tours = eval::par_map_if(slots.len() >= 32, &seeds, |&seed| {
            construct_tour(cache, slots.clone(), &pheromone, params, seed)
        });

        pheromone.evaporate(params.rho);
        for (tour, len) in &tours {
            let dq = params.q / len.max(f64::MIN_POSITIVE);
            for (i, vm) in tour.iter().enumerate() {
                pheromone.deposit(i as u32, *vm, dq);
            }
        }

        for (tour, len) in tours {
            if best.as_ref().is_none_or(|(_, b)| len < *b) {
                best = Some((tour, len));
            }
        }
        let (bt, bl) = best.as_ref().expect("ants always produce tours");
        let dq = params.q / bl.max(f64::MIN_POSITIVE);
        for (i, vm) in bt.iter().enumerate() {
            pheromone.deposit(i as u32, *vm, dq);
        }
    }

    best.expect("ants always produce tours")
        .0
        .into_iter()
        .map(VmId)
        .collect()
}

fn construct_tour(
    cache: &EvalCache,
    slots: Range<usize>,
    pheromone: &RefPheromone,
    params: &AcoParams,
    seed: u64,
) -> (Vec<u32>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let v = cache.vm_count();
    let b = slots.len();

    let mut tabu: HashSet<u32> = HashSet::with_capacity(b);
    let mut tour = Vec::with_capacity(b);
    let mut length = 0.0;
    let mut candidates: Vec<u32> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();

    for (slot_idx, c) in slots.enumerate() {
        candidates.clear();
        weights.clear();
        let free = v - tabu.len();
        let k = params.candidates.unwrap_or(v).min(v);

        if k >= free {
            candidates.extend((0..v as u32).filter(|j| !tabu.contains(j)));
        } else {
            let mut attempts = 0;
            let max_attempts = 6 * k;
            while candidates.len() < k && attempts < max_attempts {
                attempts += 1;
                let j = rng.gen_range(0..v) as u32;
                if !tabu.contains(&j) && !candidates.contains(&j) {
                    candidates.push(j);
                }
            }
            if candidates.is_empty() {
                let start = rng.gen_range(0..v);
                for off in 0..v {
                    let j = ((start + off) % v) as u32;
                    if !tabu.contains(&j) {
                        candidates.push(j);
                        break;
                    }
                }
            }
        }

        let mut total = 0.0;
        for &j in &candidates {
            let tau = pheromone.get(slot_idx as u32, j);
            let eta = cache.heuristic(c, j as usize);
            let w = tau.powf(params.alpha) * eta.powf(params.beta);
            let w = if w.is_finite() { w } else { 0.0 };
            total += w;
            weights.push(w);
        }
        let pick = if params.q0 > 0.0 && rng.gen_range(0.0..1.0) < params.q0 {
            weights
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("candidates are non-empty")
        } else {
            roulette(&mut rng, &weights, total)
        };
        let j = candidates[pick];
        tabu.insert(j);
        tour.push(j);
        length += cache.exec_ms(c, j as usize);
    }
    (tour, length)
}

fn roulette(rng: &mut StdRng, weights: &[f64], total: f64) -> usize {
    if !(total.is_finite() && total > 0.0) {
        return rng.gen_range(0..weights.len());
    }
    let mut spin = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        spin -= w;
        if spin <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    #[test]
    fn reference_is_valid_and_deterministic() {
        let vms: Vec<VmSpec> = (0..10)
            .map(|i| {
                let mips = if i % 2 == 0 { 500.0 } else { 4_000.0 };
                VmSpec::new(mips, 5_000.0, 512.0, 500.0, 1)
            })
            .collect();
        let p = SchedulingProblem::single_datacenter(
            vms,
            vec![CloudletSpec::new(10_000.0, 0.0, 0.0, 1); 37],
            CostModel::default(),
        );
        let a = schedule_reference(&AcoParams::fast(), 1, &p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a, schedule_reference(&AcoParams::fast(), 1, &p));
    }
}
