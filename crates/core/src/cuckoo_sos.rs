//! Discrete cuckoo-flavored Symbiotic Organisms Search scheduler.
//!
//! Related-work family (arXiv 2311.15358): SOS evolves an *ecosystem* of
//! candidate assignments through three interaction phases per iteration,
//! here discretized over cloudlet→VM gene vectors and hybridized with a
//! cuckoo-style brood-parasitism jump:
//!
//! * **Mutualism** — organism `i` and a random partner `j` exchange genes
//!   with a pull toward the ecosystem's best: every child gene comes from
//!   `{xᵢ[d], xⱼ[d], best[d]}` (the discrete analog of
//!   `xᵢ + rand·(best − mutual_vector)`). Greedy acceptance.
//! * **Commensalism** — organism `i` copies a sparse random subset of a
//!   partner's genes (the partner is unaffected, as in the metaphor).
//!   Greedy acceptance.
//! * **Parasitism (cuckoo)** — a parasite clone of `i` re-rolls a
//!   [`CsosParams::pa`] fraction of its genes uniformly (the cuckoo's
//!   egg), then is laid into a random *other* nest: it replaces that
//!   victim only if strictly fitter.
//!
//! Greedy acceptance in every phase makes the ecosystem's best score
//! monotone non-increasing — the property the racing driver's incumbent
//! contract relies on. All scoring goes through [`EvalCache`]; the phase
//! loop is sequential per organism (organism `i` sees the ecosystem as
//! already updated by organisms `0..i` of the same iteration), so plans
//! are bit-identical per seed at any thread count.
//!
//! [`CsosRun`] implements the population stepper contract
//! ([`PopulationRun`], one step = one full ecosystem iteration);
//! [`CuckooSos`] is the shared one-shot scheduler over it.
//!
//! ```
//! use biosched_core::cuckoo_sos::{CsosParams, CuckooSos};
//! use biosched_core::problem::SchedulingProblem;
//! use biosched_core::scheduler::Scheduler;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::new(1000.0, 5000.0, 512.0, 500.0, 1); 4],
//!     vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1); 16],
//!     CostModel::default(),
//! );
//! let plan = CuckooSos::new(CsosParams::fast(), 42).schedule(&problem);
//! assert!(plan.validate(&problem).is_ok());
//! ```
use rand::rngs::StdRng;
use rand::Rng;

use crate::eval::{evaluate_population, EvalCache};
use crate::objective::Objective;
use crate::population::{bernoulli_skip, seed_genomes, PopulationRun, Stepped};

/// Cuckoo-SOS tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CsosParams {
    /// Ecosystem size (number of organisms).
    pub population: usize,
    /// Ecosystem iterations (each runs all three phases per organism).
    pub iterations: usize,
    /// Fraction of genes the cuckoo parasite re-rolls uniformly.
    pub pa: f64,
    /// Probability a commensalism gene is copied from the partner.
    pub commensal_rate: f64,
    /// What the ecosystem optimizes.
    pub objective: Objective,
}

impl CsosParams {
    /// Literature-standard configuration.
    pub fn standard() -> Self {
        CsosParams {
            population: 20,
            iterations: 30,
            pa: 0.25,
            commensal_rate: 0.25,
            objective: Objective::Makespan,
        }
    }

    /// A cheaper configuration for sweeps and debug-mode tests.
    pub fn fast() -> Self {
        CsosParams {
            population: 8,
            iterations: 10,
            ..Self::standard()
        }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.population < 2 {
            return Err("population must be at least 2 (phases need a partner)".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.pa) {
            return Err(format!("pa must be in [0,1], got {}", self.pa));
        }
        if !(0.0..=1.0).contains(&self.commensal_rate) {
            return Err(format!(
                "commensal_rate must be in [0,1], got {}",
                self.commensal_rate
            ));
        }
        Ok(())
    }
}

impl Default for CsosParams {
    fn default() -> Self {
        Self::standard()
    }
}

/// Mutualism move rule: every child gene comes from the organism itself
/// (probability 1/2), the partner (1/4) or the ecosystem's best (1/4) —
/// the discrete rendering of "step toward best minus the mutual vector".
fn mutualism_child(rng: &mut StdRng, xi: &[u32], xj: &[u32], best: &[u32]) -> Vec<u32> {
    (0..xi.len())
        .map(|d| {
            let u: f64 = rng.gen();
            if u < 0.5 {
                xi[d]
            } else if u < 0.75 {
                xj[d]
            } else {
                best[d]
            }
        })
        .collect()
}

/// Commensalism move rule: the child is the organism with a sparse
/// `rate`-fraction of genes copied from the (unaffected) partner.
fn commensalism_child(rng: &mut StdRng, xi: &[u32], xk: &[u32], rate: f64) -> Vec<u32> {
    let mut child = xi.to_vec();
    let mut d = bernoulli_skip(rng, rate);
    while d < child.len() {
        child[d] = xk[d];
        d = d
            .saturating_add(1)
            .saturating_add(bernoulli_skip(rng, rate));
    }
    child
}

/// Cuckoo parasitism move rule: a clone of the host with a `pa`-fraction
/// of genes re-rolled uniformly over the fleet — the cuckoo's egg.
fn parasite_egg(rng: &mut StdRng, host: &[u32], v: u32, pa: f64) -> Vec<u32> {
    let mut egg = host.to_vec();
    let mut d = bernoulli_skip(rng, pa);
    while d < egg.len() {
        egg[d] = rng.gen_range(0..v);
        d = d.saturating_add(1).saturating_add(bernoulli_skip(rng, pa));
    }
    egg
}

/// The cuckoo-SOS scheduler: steps a fresh [`CsosRun`] to done per call.
pub type CuckooSos = Stepped<CsosRun>;

/// The anytime cuckoo-SOS run: ecosystem state plus an iteration cursor.
///
/// One [`PopulationRun::step`] call runs all three phases over every
/// organism — `3 × population` full-assignment evaluations, the run's
/// deterministic budget unit.
pub struct CsosRun {
    params: CsosParams,
    rng: StdRng,
    organisms: Vec<(Vec<u32>, f64)>,
    v: u32,
    iter: usize,
}

impl CsosRun {
    /// Index of the fittest organism.
    fn best_index(&self) -> usize {
        self.organisms
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The fittest organism's objective score.
    fn best_score(&self) -> f64 {
        self.organisms.get(self.best_index()).map_or(0.0, |o| o.1)
    }

    /// Draws a partner index distinct from `i`.
    fn partner(&mut self, i: usize) -> usize {
        let n = self.organisms.len();
        let j = self.rng.gen_range(0..n - 1);
        if j >= i {
            j + 1
        } else {
            j
        }
    }
}

impl PopulationRun for CsosRun {
    type Params = CsosParams;
    const NAME: &'static str = "cuckoo-sos";

    fn validate(params: &CsosParams) -> Result<(), String> {
        params.validate()
    }

    /// Ecosystem of one cyclic organism, an optional warm `incumbent`
    /// clone, and random fill, batch-scored through the evaluation kernel.
    fn start(
        params: CsosParams,
        mut rng: StdRng,
        cache: &EvalCache,
        incumbent: Option<&[u32]>,
    ) -> Self {
        let dims = cache.cloudlet_count();
        let v = (cache.vm_count() as u32).max(1);
        let genomes = seed_genomes(&mut rng, dims, v, params.population, incumbent);
        let scores = evaluate_population(cache, &genomes, params.objective);
        CsosRun {
            params,
            rng,
            organisms: genomes.into_iter().zip(scores).collect(),
            v,
            iter: 0,
        }
    }

    fn init_units(&self) -> u64 {
        self.organisms.len() as u64
    }

    fn step_units(&self) -> u64 {
        3 * self.organisms.len() as u64
    }

    fn iterations(&self) -> usize {
        self.params.iterations
    }

    fn done(&self) -> bool {
        self.iter >= self.params.iterations || self.organisms.is_empty()
    }

    fn best_genes(&self) -> &[u32] {
        if self.organisms.is_empty() {
            &[]
        } else {
            &self.organisms[self.best_index()].0
        }
    }

    fn into_rng(self) -> StdRng {
        self.rng
    }

    /// One ecosystem iteration: mutualism, commensalism and cuckoo
    /// parasitism for every organism, in index order.
    fn step(&mut self, cache: &EvalCache) -> f64 {
        if self.done() {
            return self.best_score();
        }
        let objective = self.params.objective;
        for i in 0..self.organisms.len() {
            let best = self.best_index();
            // Mutualism with a random partner, pulled toward the best.
            let j = self.partner(i);
            let child = {
                let xi = &self.organisms[i].0;
                let xj = &self.organisms[j].0;
                let xb = &self.organisms[best].0;
                mutualism_child(&mut self.rng, xi, xj, xb)
            };
            let score = cache.score_genes(&child, objective);
            if score < self.organisms[i].1 {
                self.organisms[i] = (child, score);
            }
            // Commensalism: benefit from a partner that stays unchanged.
            let k = self.partner(i);
            let child = {
                let xi = &self.organisms[i].0;
                let xk = &self.organisms[k].0;
                commensalism_child(&mut self.rng, xi, xk, self.params.commensal_rate)
            };
            let score = cache.score_genes(&child, objective);
            if score < self.organisms[i].1 {
                self.organisms[i] = (child, score);
            }
            // Cuckoo parasitism: lay a mutated egg in another nest.
            let egg = parasite_egg(&mut self.rng, &self.organisms[i].0, self.v, self.params.pa);
            let score = cache.score_genes(&egg, objective);
            let m = self.partner(i);
            if score < self.organisms[m].1 {
                self.organisms[m] = (egg, score);
            }
        }
        self.iter += 1;
        self.best_score()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::score_assignment;
    use crate::problem::SchedulingProblem;
    use crate::round_robin::RoundRobin;
    use crate::scheduler::Scheduler;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::rng::stream;
    use simcloud::vm::VmSpec;

    fn hetero_problem(vms: usize, cloudlets: usize) -> SchedulingProblem {
        let vm_specs: Vec<VmSpec> = (0..vms)
            .map(|i| VmSpec::new(500.0 + 700.0 * (i % 4) as f64, 5_000.0, 512.0, 500.0, 1))
            .collect();
        let cls: Vec<CloudletSpec> = (0..cloudlets)
            .map(|i| CloudletSpec::new(1_200.0 + 800.0 * (i % 7) as f64, 300.0, 300.0, 1))
            .collect();
        SchedulingProblem::single_datacenter(vm_specs, cls, CostModel::default())
    }

    #[test]
    fn produces_valid_assignments() {
        let p = hetero_problem(6, 30);
        let a = CuckooSos::new(CsosParams::fast(), 1).schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a.len(), 30);
    }

    #[test]
    fn deterministic_per_seed_and_rounds_advance() {
        let p = hetero_problem(5, 20);
        let a = CuckooSos::new(CsosParams::fast(), 9).schedule(&p);
        let b = CuckooSos::new(CsosParams::fast(), 9).schedule(&p);
        assert_eq!(a, b);
        // A second round on the same instance draws a fresh stream.
        let mut s = CuckooSos::new(CsosParams::fast(), 9);
        let first = s.schedule(&p);
        let second = s.schedule(&p);
        assert_eq!(first, a);
        assert_ne!(first, second);
    }

    #[test]
    fn mutualism_genes_come_only_from_participants() {
        // The distinct SOS move rule: no gene value outside
        // {xi[d], xj[d], best[d]} can appear in a mutualism child.
        let mut rng = stream(7, "test");
        let xi = vec![1u32; 64];
        let xj = vec![2u32; 64];
        let best = vec![3u32; 64];
        let child = mutualism_child(&mut rng, &xi, &xj, &best);
        assert!(child.iter().all(|g| [1, 2, 3].contains(g)));
        // All three sources are actually used at these lengths.
        for wanted in [1u32, 2, 3] {
            assert!(child.contains(&wanted), "source {wanted} never drawn");
        }
    }

    #[test]
    fn commensalism_partner_is_untouched_and_sparse() {
        let mut rng = stream(11, "test");
        let xi = vec![0u32; 200];
        let xk = vec![5u32; 200];
        let child = commensalism_child(&mut rng, &xi, &xk, 0.25);
        let copied = child.iter().filter(|g| **g == 5).count();
        assert!(copied > 0, "rate 0.25 over 200 genes must copy something");
        assert!(copied < 200, "commensalism must stay sparse");
        // Degenerate rates.
        assert_eq!(commensalism_child(&mut rng, &xi, &xk, 0.0), xi);
        assert_eq!(commensalism_child(&mut rng, &xi, &xk, 1.0), xk);
    }

    #[test]
    fn parasite_egg_rerolls_only_a_fraction() {
        let mut rng = stream(13, "test");
        let host = vec![9u32; 300];
        let egg = parasite_egg(&mut rng, &host, 10, 0.2);
        let changed = egg.iter().filter(|g| **g != 9).count();
        assert!(changed > 0);
        assert!(changed < 150, "pa=0.2 should not re-roll half the genome");
        assert!(egg.iter().all(|g| *g < 10));
    }

    #[test]
    fn never_loses_to_its_cyclic_seed() {
        let p = hetero_problem(5, 25);
        let sos = CuckooSos::new(CsosParams::fast(), 2).schedule(&p);
        let rr = RoundRobin::new().schedule(&p);
        let sos_score = score_assignment(&p, &sos, Objective::Makespan);
        let rr_score = score_assignment(&p, &rr, Objective::Makespan);
        assert!(sos_score <= rr_score, "SOS {sos_score} vs RR {rr_score}");
    }

    #[test]
    fn params_validation() {
        assert!(CsosParams {
            population: 1,
            ..CsosParams::standard()
        }
        .validate()
        .is_err());
        assert!(CsosParams {
            pa: 1.5,
            ..CsosParams::standard()
        }
        .validate()
        .is_err());
        assert!(CsosParams {
            iterations: 0,
            ..CsosParams::standard()
        }
        .validate()
        .is_err());
        assert!(CsosParams::standard().validate().is_ok());
    }

    #[test]
    fn empty_workload_is_empty_plan() {
        let p = SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default()],
            vec![],
            CostModel::free(),
        );
        assert!(CuckooSos::new(CsosParams::fast(), 1)
            .schedule(&p)
            .is_empty());
    }
}
