//! Batch (population) evaluation — the crate's single parallel fan-out.

use simcloud::ids::VmId;

use crate::assignment::Assignment;
use crate::eval::EvalCache;
use crate::objective::Objective;

/// Below this many items [`par_map`] stays sequential: thread dispatch
/// costs more than it saves on tiny batches.
pub const MIN_PAR_ITEMS: usize = 8;

/// Order-preserving map over `items`, parallel when the `parallel` feature
/// is enabled and the batch has at least [`MIN_PAR_ITEMS`] items. `f` must
/// be deterministic per item for schedulers to stay reproducible — the
/// output order always matches the input order regardless of thread count.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Send + Sync,
{
    #[cfg(feature = "parallel")]
    {
        use rayon::prelude::*;
        if items.len() >= MIN_PAR_ITEMS {
            return items.par_iter().map(&f).collect();
        }
    }
    items.iter().map(f).collect()
}

/// [`par_map`] with an extra caller-side gate: when `parallel_worthwhile`
/// is false (e.g. each item is too cheap to amortize a fork), the map runs
/// sequentially regardless of batch size.
pub fn par_map_if<T, U, F>(parallel_worthwhile: bool, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Send + Sync,
{
    if parallel_worthwhile {
        par_map(items, f)
    } else {
        items.iter().map(f).collect()
    }
}

/// [`par_map_if`] over exclusive references, for stateful items that each
/// advance independently: `f` may mutate its item. Same order and
/// thread-count independence guarantees.
pub fn par_map_mut_if<T, U, F>(parallel_worthwhile: bool, items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&mut T) -> U + Send + Sync,
{
    #[cfg(feature = "parallel")]
    {
        use rayon::prelude::*;
        if parallel_worthwhile && items.len() >= MIN_PAR_ITEMS {
            let refs: Vec<&mut T> = items.iter_mut().collect();
            return refs.into_par_iter().map(f).collect();
        }
    }
    let _ = parallel_worthwhile;
    items.iter_mut().map(f).collect()
}

/// Anything an [`EvalCache`] can score as a complete cloudlet→VM plan:
/// typed plans ([`Assignment`], `[VmId]`) and the raw `u32` chromosomes
/// GA/ACO breed.
pub trait Genome {
    /// Scores this genome under `objective` — lower is better. Bit-identical
    /// to [`crate::objective::score_assignment`] on the cached problem.
    fn score(&self, cache: &EvalCache, objective: Objective) -> f64;
}

impl Genome for [VmId] {
    fn score(&self, cache: &EvalCache, objective: Objective) -> f64 {
        cache.score(self, objective)
    }
}

impl Genome for Vec<VmId> {
    fn score(&self, cache: &EvalCache, objective: Objective) -> f64 {
        cache.score(self, objective)
    }
}

impl Genome for Assignment {
    fn score(&self, cache: &EvalCache, objective: Objective) -> f64 {
        cache.score(self.as_slice(), objective)
    }
}

impl Genome for [u32] {
    fn score(&self, cache: &EvalCache, objective: Objective) -> f64 {
        cache.score_genes(self, objective)
    }
}

impl Genome for Vec<u32> {
    fn score(&self, cache: &EvalCache, objective: Objective) -> f64 {
        cache.score_genes(self, objective)
    }
}

/// Scores every genome of a population, in input order — the shared entry
/// point GA, PSO and ACO use instead of private per-algorithm `rayon`
/// call sites. Parallel under the `parallel` feature for populations of
/// at least [`MIN_PAR_ITEMS`]; scoring draws no randomness, so results are
/// identical at any thread count.
pub fn evaluate_population<G>(cache: &EvalCache, population: &[G], objective: Objective) -> Vec<f64>
where
    G: Genome + Sync,
{
    par_map(population, |genome| genome.score(cache, objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SchedulingProblem;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn problem() -> SchedulingProblem {
        let vms: Vec<VmSpec> = (0..4)
            .map(|i| VmSpec::new(500.0 + 500.0 * i as f64, 5_000.0, 512.0, 500.0, 1))
            .collect();
        SchedulingProblem::single_datacenter(
            vms,
            vec![CloudletSpec::new(2_000.0, 100.0, 100.0, 1); 12],
            CostModel::new(0.01, 0.001, 0.01, 3.0),
        )
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = par_map(&items, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let gated = par_map_if(false, &items, |x| x + 1);
        assert_eq!(gated[99], 100);
    }

    #[test]
    fn population_scores_match_serial_scoring() {
        let p = problem();
        let cache = EvalCache::new(&p);
        let population: Vec<Vec<u32>> = (0..20)
            .map(|i| (0..12).map(|c| ((c + i) % 4) as u32).collect())
            .collect();
        for objective in Objective::ALL {
            let batch = evaluate_population(&cache, &population, objective);
            for (genes, score) in population.iter().zip(&batch) {
                assert_eq!(
                    score.to_bits(),
                    cache.score_genes(genes, objective).to_bits()
                );
            }
        }
    }

    #[test]
    fn genome_impls_agree() {
        let p = problem();
        let cache = EvalCache::new(&p);
        let genes: Vec<u32> = (0..12).map(|c| (c % 4) as u32).collect();
        let plan: Vec<simcloud::ids::VmId> =
            genes.iter().map(|g| simcloud::ids::VmId(*g)).collect();
        let assignment = Assignment::new(plan.clone());
        for objective in Objective::ALL {
            let from_genes = genes.score(&cache, objective).to_bits();
            assert_eq!(from_genes, plan.score(&cache, objective).to_bits());
            assert_eq!(from_genes, assignment.score(&cache, objective).to_bits());
        }
    }
}
