//! Genetic Algorithm scheduler — related-work baseline.
//!
//! Section II's first family of heuristics: GA schedulers ([6] Ge & Wei,
//! [10] Jang et al., [31] Zhao et al.). The paper repeats the survey
//! verdict that "GA scheduling algorithms are slow for Cloud due [to] the
//! time to converge" [17] — this implementation exists to make that
//! comparison measurable (see `repro convergence`).
//!
//! Standard generational GA over assignment chromosomes:
//! tournament selection, uniform crossover, per-gene mutation, elitism.
//! [`GaRun`] implements the population stepper contract
//! ([`PopulationRun`], one step = one generation); [`Genetic`] is the
//! shared one-shot scheduler over it.

//!
//! ```
//! use biosched_core::ga::{GaParams, Genetic};
//! use biosched_core::problem::SchedulingProblem;
//! use biosched_core::scheduler::Scheduler;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::new(1000.0, 5000.0, 512.0, 500.0, 1); 4],
//!     vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1); 16],
//!     CostModel::default(),
//! );
//! let plan = Genetic::new(GaParams::fast(), 42).schedule(&problem);
//! assert!(plan.validate(&problem).is_ok());
//! ```
use rand::rngs::StdRng;
use rand::Rng;

use crate::eval::{evaluate_population, EvalCache};
use crate::objective::Objective;
use crate::population::{bernoulli_skip, seed_genomes, PopulationRun, Stepped};

/// GA tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GaParams {
    /// Population size.
    pub population: usize,
    /// Generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability a child gene comes from parent B (uniform crossover).
    pub crossover_mix: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Chromosomes carried over unchanged each generation.
    pub elites: usize,
    /// What the population optimizes.
    pub objective: Objective,
}

impl GaParams {
    /// Literature-standard configuration.
    pub fn standard() -> Self {
        GaParams {
            population: 40,
            generations: 60,
            tournament: 3,
            crossover_mix: 0.5,
            mutation_rate: 0.02,
            elites: 2,
            objective: Objective::Makespan,
        }
    }

    /// A cheaper configuration for sweeps and debug-mode tests.
    pub fn fast() -> Self {
        GaParams {
            population: 16,
            generations: 20,
            ..Self::standard()
        }
    }

    /// Iteration-count scaling law: the standard profile up to
    /// [`crate::aco::AcoParams::SCALE_CUTOVER`] cloudlets, a reduced
    /// profile above it (chromosomes are cloudlet-length vectors, so at
    /// 10⁶ genes the per-generation cost is what must shrink).
    pub fn for_scale(cloudlets: usize) -> Self {
        if cloudlets > crate::aco::AcoParams::SCALE_CUTOVER {
            GaParams {
                population: 12,
                generations: 8,
                ..Self::standard()
            }
        } else {
            Self::standard()
        }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.population < 2 {
            return Err("population must be at least 2".into());
        }
        if self.generations == 0 {
            return Err("generations must be at least 1".into());
        }
        if self.tournament == 0 || self.tournament > self.population {
            return Err(format!(
                "tournament must be in [1, population], got {}",
                self.tournament
            ));
        }
        if !(0.0..=1.0).contains(&self.crossover_mix) {
            return Err("crossover_mix must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err("mutation_rate must be in [0,1]".into());
        }
        if self.elites >= self.population {
            return Err("elites must be smaller than the population".into());
        }
        Ok(())
    }
}

impl Default for GaParams {
    fn default() -> Self {
        Self::standard()
    }
}

/// The GA scheduler: steps a fresh [`GaRun`] to done per call.
pub type Genetic = Stepped<GaRun>;

/// The anytime GA run: scored population plus a generation cursor.
///
/// One [`PopulationRun::step`] call breeds and scores one generation
/// (`population − elites` full-assignment evaluations, the run's
/// deterministic budget unit).
pub struct GaRun {
    params: GaParams,
    rng: StdRng,
    population: Vec<(Vec<u32>, f64)>,
    dims: usize,
    v: u32,
    generation: usize,
}

impl GaRun {
    /// First fittest chromosome in current population order — the same
    /// pick a stable ascending sort followed by `population[0]` makes.
    fn best_index(&self) -> usize {
        let mut best = 0;
        for i in 1..self.population.len() {
            if self.population[i].1 < self.population[best].1 {
                best = i;
            }
        }
        best
    }

    /// Tournament selection by index: draws the same RNG stream as
    /// picking references would, without ever cloning a chromosome (at
    /// 10⁶-gene chromosomes a per-parent clone dominates the breeding
    /// loop).
    fn tournament_pick(&mut self) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for _ in 0..self.params.tournament {
            let i = self.rng.gen_range(0..self.population.len());
            let score = self.population[i].1;
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((i, score));
            }
        }
        best.expect("tournament >= 1").0
    }
}

impl PopulationRun for GaRun {
    type Params = GaParams;
    const NAME: &'static str = "ga";

    fn validate(params: &GaParams) -> Result<(), String> {
        params.validate()
    }

    /// Seeds the population (cyclic chromosome, warm incumbent, random
    /// fill). Chromosomes are bred sequentially (the RNG stream defines
    /// the schedule) and scored as one batch through the evaluation
    /// kernel; scoring draws no randomness, so results are seed-stable at
    /// any thread count.
    fn start(
        params: GaParams,
        mut rng: StdRng,
        cache: &EvalCache,
        incumbent: Option<&[u32]>,
    ) -> Self {
        let dims = cache.cloudlet_count();
        let v = (cache.vm_count() as u32).max(1);
        let genomes = seed_genomes(&mut rng, dims, v, params.population, incumbent);
        let scores = evaluate_population(cache, &genomes, params.objective);
        GaRun {
            params,
            rng,
            population: genomes.into_iter().zip(scores).collect(),
            dims,
            v,
            generation: 0,
        }
    }

    fn init_units(&self) -> u64 {
        self.population.len() as u64
    }

    /// Children scored; elites carry their scores over.
    fn step_units(&self) -> u64 {
        (self.params.population - self.params.elites) as u64
    }

    fn iterations(&self) -> usize {
        self.params.generations
    }

    fn done(&self) -> bool {
        self.generation >= self.params.generations || self.population.is_empty()
    }

    fn best_genes(&self) -> &[u32] {
        if self.population.is_empty() {
            &[]
        } else {
            &self.population[self.best_index()].0
        }
    }

    fn into_rng(self) -> StdRng {
        self.rng
    }

    /// One generation: sort, keep elites, breed children by tournament +
    /// uniform crossover + geometric-skip mutation, batch-score. The best
    /// score is monotone via elitism.
    fn step(&mut self, cache: &EvalCache) -> f64 {
        if self.done() {
            return self.population.get(self.best_index()).map_or(0.0, |b| b.1);
        }
        let dims = self.dims;
        let v = self.v;
        self.population.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut next: Vec<(Vec<u32>, f64)> = self.population[..self.params.elites].to_vec();
        let mut children: Vec<Vec<u32>> = Vec::with_capacity(self.params.population - next.len());
        let mutation = self.params.mutation_rate;
        while next.len() + children.len() < self.params.population {
            let pa = self.tournament_pick();
            let pb = self.tournament_pick();
            let mut child = Vec::with_capacity(dims);
            for d in 0..dims {
                let from_b = self.rng.gen_bool(self.params.crossover_mix);
                let (parent_a, parent_b) = (&self.population[pa].0, &self.population[pb].0);
                child.push(if from_b { parent_b[d] } else { parent_a[d] });
            }
            let mut d = bernoulli_skip(&mut self.rng, mutation);
            while d < dims {
                child[d] = self.rng.gen_range(0..v);
                d = d
                    .saturating_add(1)
                    .saturating_add(bernoulli_skip(&mut self.rng, mutation));
            }
            children.push(child);
        }
        let scores = evaluate_population(cache, &children, self.params.objective);
        next.extend(children.into_iter().zip(scores));
        self.population = next;
        self.generation += 1;
        self.population
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::INFINITY, f64::min)
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
    use simcloud::vm::VmSpec;

    fn hetero_problem(vms: usize, cloudlets: usize) -> SchedulingProblem {
        let vm_specs: Vec<VmSpec> = (0..vms)
            .map(|i| VmSpec::new(500.0 + 600.0 * (i % 5) as f64, 5_000.0, 512.0, 500.0, 1))
            .collect();
        let cls: Vec<CloudletSpec> = (0..cloudlets)
            .map(|i| CloudletSpec::new(1_500.0 + 900.0 * (i % 9) as f64, 300.0, 300.0, 1))
            .collect();
        SchedulingProblem::single_datacenter(vm_specs, cls, CostModel::default())
    }

    #[test]
    fn produces_valid_assignments() {
        let p = hetero_problem(7, 25);
        let a = Genetic::new(GaParams::fast(), 1).schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a.len(), 25);
    }

    #[test]
    fn never_loses_to_its_cyclic_seed() {
        // The cyclic chromosome is in the initial population and elitism
        // preserves the best, so GA can only match or improve on it.
        let p = hetero_problem(6, 36);
        let ga = Genetic::new(GaParams::fast(), 2).schedule(&p);
        let rr = RoundRobin::new().schedule(&p);
        let ga_score = score_assignment(&p, &ga, Objective::Makespan);
        let rr_score = score_assignment(&p, &rr, Objective::Makespan);
        assert!(ga_score <= rr_score, "GA {ga_score} vs RR {rr_score}");
    }

    #[test]
    fn more_generations_never_hurt() {
        let p = hetero_problem(6, 30);
        let short = Genetic::new(
            GaParams {
                generations: 2,
                ..GaParams::fast()
            },
            3,
        )
        .schedule(&p);
        let long = Genetic::new(
            GaParams {
                generations: 80,
                ..GaParams::fast()
            },
            3,
        )
        .schedule(&p);
        let s_short = score_assignment(&p, &short, Objective::Makespan);
        let s_long = score_assignment(&p, &long, Objective::Makespan);
        assert!(s_long <= s_short);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = hetero_problem(5, 20);
        assert_eq!(
            Genetic::new(GaParams::fast(), 9).schedule(&p),
            Genetic::new(GaParams::fast(), 9).schedule(&p)
        );
    }

    #[test]
    fn trace_is_monotone_via_elitism() {
        let p = hetero_problem(6, 30);
        let (plan, trace) = Genetic::new(GaParams::fast(), 10).schedule_traced(&p);
        assert_eq!(trace.len(), GaParams::fast().generations);
        // Elitism guarantees the best never regresses.
        assert!(trace.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        let final_score = score_assignment(&p, &plan, Objective::Makespan);
        assert!((trace.last().unwrap() - final_score).abs() < 1e-9);
        // Tracing does not change the result.
        assert_eq!(plan, Genetic::new(GaParams::fast(), 10).schedule(&p));
    }

    #[test]
    fn params_validation() {
        assert!(GaParams {
            population: 1,
            ..GaParams::standard()
        }
        .validate()
        .is_err());
        assert!(GaParams {
            tournament: 0,
            ..GaParams::standard()
        }
        .validate()
        .is_err());
        assert!(GaParams {
            mutation_rate: 1.5,
            ..GaParams::standard()
        }
        .validate()
        .is_err());
        assert!(GaParams {
            elites: 40,
            ..GaParams::standard()
        }
        .validate()
        .is_err());
        assert!(GaParams::standard().validate().is_ok());
    }

    #[test]
    fn for_scale_reduces_effort_above_cutover() {
        assert_eq!(GaParams::for_scale(10_000), GaParams::standard());
        let big = GaParams::for_scale(1_000_000);
        assert!(big.population < GaParams::standard().population);
        assert!(big.generations < GaParams::standard().generations);
        assert!(big.validate().is_ok());
    }

    #[test]
    fn extreme_mutation_rates_stay_valid() {
        // The geometric-skip sampler must handle both degenerate rates:
        // p=1 mutates every gene, p=0 skips the mutation pass entirely.
        let p = hetero_problem(5, 24);
        for rate in [0.0, 1.0] {
            let a = Genetic::new(
                GaParams {
                    mutation_rate: rate,
                    ..GaParams::fast()
                },
                4,
            )
            .schedule(&p);
            assert!(a.validate(&p).is_ok(), "mutation_rate={rate}");
        }
    }

    #[test]
    fn empty_workload_is_empty_plan() {
        let p = SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default()],
            vec![],
            CostModel::free(),
        );
        assert!(Genetic::new(GaParams::fast(), 1).schedule(&p).is_empty());
    }
}
