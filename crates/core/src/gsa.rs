//! Gravitational Search Algorithm (GSA) scheduler.
//!
//! Related-work family (arXiv 2311.07004): candidate assignments are
//! *agents* in a continuous search space (one dimension per cloudlet,
//! positions decoded to VM indices by the same decoder as PSO). Each
//! iteration, agents are weighted by fitness-derived **masses** — the
//! ecosystem best gets mass 1, the worst mass 0 — and every agent is
//! pulled toward the `Kbest` heaviest agents with force
//! `G(t) · M_j · (x_j − x_i) / (R_ij + ε)`, where the gravitational
//! constant `G(t) = G₀·e^(−α·t/T)` decays over time and `Kbest` shrinks
//! linearly from the whole population to a single agent — exploration
//! early, exploitation late.
//!
//! All fitness goes through the batch evaluation kernel
//! ([`evaluate_population`]), which is RNG-free and thread-invariant, and
//! the force loop is plain sequential arithmetic, so plans are
//! bit-identical per seed at any thread count.
//!
//! [`GsaRun`] implements the population stepper contract
//! ([`PopulationRun`], one step = one full swarm iteration, `population`
//! evaluation units); [`Gsa`] is the shared one-shot scheduler over it.
//!
//! ```
//! use biosched_core::gsa::{Gsa, GsaParams};
//! use biosched_core::problem::SchedulingProblem;
//! use biosched_core::scheduler::Scheduler;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::new(1000.0, 5000.0, 512.0, 500.0, 1); 4],
//!     vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1); 16],
//!     CostModel::default(),
//! );
//! let plan = Gsa::new(GsaParams::fast(), 42).schedule(&problem);
//! assert!(plan.validate(&problem).is_ok());
//! ```
use rand::rngs::StdRng;
use rand::Rng;

use crate::eval::{evaluate_population, EvalCache};
use crate::objective::Objective;
use crate::population::{decode, encode_midpoints, PopulationRun, Stepped};

/// Softening constant keeping the force finite at zero distance.
const EPS: f64 = 1e-9;

/// GSA tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GsaParams {
    /// Number of agents.
    pub population: usize,
    /// Swarm iterations.
    pub iterations: usize,
    /// Initial gravitational constant `G₀`.
    pub g0: f64,
    /// Gravitational decay exponent `α` in `G(t) = G₀·e^(−α·t/T)`.
    pub alpha: f64,
    /// What the swarm optimizes.
    pub objective: Objective,
}

impl GsaParams {
    /// Literature-standard configuration.
    pub fn standard() -> Self {
        GsaParams {
            population: 20,
            iterations: 40,
            g0: 100.0,
            alpha: 20.0,
            objective: Objective::Makespan,
        }
    }

    /// A cheaper configuration for sweeps and debug-mode tests.
    pub fn fast() -> Self {
        GsaParams {
            population: 8,
            iterations: 10,
            ..Self::standard()
        }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.population < 2 {
            return Err("population must be at least 2 (forces need a peer)".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be at least 1".into());
        }
        if self.g0 <= 0.0 || !self.g0.is_finite() {
            return Err(format!("g0 must be positive and finite, got {}", self.g0));
        }
        if self.alpha < 0.0 || !self.alpha.is_finite() {
            return Err(format!(
                "alpha must be non-negative and finite, got {}",
                self.alpha
            ));
        }
        Ok(())
    }
}

impl Default for GsaParams {
    fn default() -> Self {
        Self::standard()
    }
}

/// Normalized masses from raw objective scores (lower score = heavier):
/// `m_i = (worst − f_i)/(worst − best)`, then `M_i = m_i / Σm`. The best
/// agent always carries the largest mass; the worst carries zero (all
/// agents weigh the same when scores are tied).
fn masses(scores: &[f64]) -> Vec<f64> {
    let best = scores.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = worst - best;
    let raw: Vec<f64> = if span <= 0.0 || !span.is_finite() {
        vec![1.0; scores.len()]
    } else {
        scores.iter().map(|f| (worst - f) / span).collect()
    };
    let total: f64 = raw.iter().sum();
    raw.iter().map(|m| m / total.max(EPS)).collect()
}

/// `G(t) = G₀·e^(−α·t/T)` — monotone decay over the run.
fn gravity(g0: f64, alpha: f64, iter: usize, iterations: usize) -> f64 {
    g0 * (-alpha * iter as f64 / iterations.max(1) as f64).exp()
}

/// `Kbest` attractor-count law: shrinks linearly from the full
/// population at iteration 0 to a single agent on the last iteration.
fn kbest(population: usize, iter: usize, iterations: usize) -> usize {
    if population == 0 {
        return 0;
    }
    let shrink = (population - 1) * iter / iterations.saturating_sub(1).max(1);
    (population - shrink).max(1)
}

/// The gravitational search scheduler: steps a fresh [`GsaRun`] to done
/// per call.
pub type Gsa = Stepped<GsaRun>;

/// The anytime GSA run: agent positions, velocities and scores plus an
/// iteration cursor. One [`PopulationRun::step`] is one synchronous swarm
/// update (`population` full-assignment evaluations).
pub struct GsaRun {
    params: GsaParams,
    rng: StdRng,
    positions: Vec<Vec<f64>>,
    velocities: Vec<Vec<f64>>,
    scores: Vec<f64>,
    best_genes: Vec<u32>,
    best_score: f64,
    v: u32,
    iter: usize,
}

impl PopulationRun for GsaRun {
    type Params = GsaParams;
    const NAME: &'static str = "gsa";

    fn validate(params: &GsaParams) -> Result<(), String> {
        params.validate()
    }

    /// Agents uniform over the fleet (agent 0 optionally warm-started on
    /// the `incumbent` plan's cell midpoints), batch-scored.
    fn start(
        params: GsaParams,
        mut rng: StdRng,
        cache: &EvalCache,
        incumbent: Option<&[u32]>,
    ) -> Self {
        let dims = cache.cloudlet_count();
        let v = (cache.vm_count() as u32).max(1);
        let n = if dims == 0 { 0 } else { params.population };
        let mut positions: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..dims)
                    .map(|_| rng.gen_range(0.0..f64::from(v)))
                    .collect()
            })
            .collect();
        if let (Some(inc), Some(first)) = (
            incumbent.filter(|inc| !inc.is_empty()),
            positions.first_mut(),
        ) {
            encode_midpoints(first, inc, v);
        }
        let genomes: Vec<Vec<u32>> = positions.iter().map(|p| decode(p, v)).collect();
        let scores = evaluate_population(cache, &genomes, params.objective);
        let (best_genes, best_score) = genomes
            .into_iter()
            .zip(scores.iter().copied())
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((Vec::new(), 0.0));
        GsaRun {
            velocities: vec![vec![0.0; dims]; n],
            params,
            rng,
            positions,
            scores,
            best_genes,
            best_score,
            v,
            iter: 0,
        }
    }

    fn init_units(&self) -> u64 {
        self.positions.len() as u64
    }

    fn step_units(&self) -> u64 {
        self.positions.len() as u64
    }

    fn iterations(&self) -> usize {
        self.params.iterations
    }

    fn done(&self) -> bool {
        self.iter >= self.params.iterations || self.positions.is_empty()
    }

    /// Best-ever decoded plan.
    fn best_genes(&self) -> &[u32] {
        &self.best_genes
    }

    fn into_rng(self) -> StdRng {
        self.rng
    }

    /// One synchronous swarm iteration: masses from current fitness,
    /// forces from the `Kbest` heaviest agents at decayed `G(t)`,
    /// velocity/position update, batch re-score. Returns the best-ever
    /// score.
    fn step(&mut self, cache: &EvalCache) -> f64 {
        if self.done() {
            return self.best_score;
        }
        let n = self.positions.len();
        let dims = self.positions[0].len();
        let m = masses(&self.scores);
        let g = gravity(
            self.params.g0,
            self.params.alpha,
            self.iter,
            self.params.iterations,
        );
        let k = kbest(n, self.iter, self.params.iterations);
        // The k heaviest agents, deterministic tie-break by index.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| m[b].total_cmp(&m[a]).then(a.cmp(&b)));
        let attractors = &order[..k];
        // Synchronous update: all forces read the iteration-start
        // snapshot of positions.
        let mut accels: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut accel = vec![0.0; dims];
            for &j in attractors {
                if j == i {
                    continue;
                }
                let r: f64 = self.rng.gen();
                let dist = self.positions[i]
                    .iter()
                    .zip(&self.positions[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                let coef = r * g * m[j] / (dist + EPS);
                for (a, (pj, pi)) in accel
                    .iter_mut()
                    .zip(self.positions[j].iter().zip(&self.positions[i]))
                {
                    *a += coef * (pj - pi);
                }
            }
            accels.push(accel);
        }
        let rng = &mut self.rng;
        for ((velocity, position), accel) in self
            .velocities
            .iter_mut()
            .zip(self.positions.iter_mut())
            .zip(&accels)
        {
            let inertia: f64 = rng.gen();
            for ((v, p), a) in velocity.iter_mut().zip(position.iter_mut()).zip(accel) {
                *v = inertia * *v + a;
                *p += *v;
            }
        }
        let genomes: Vec<Vec<u32>> = self.positions.iter().map(|p| decode(p, self.v)).collect();
        self.scores = evaluate_population(cache, &genomes, self.params.objective);
        for (genome, score) in genomes.into_iter().zip(self.scores.iter().copied()) {
            if score < self.best_score {
                self.best_genes = genome;
                self.best_score = score;
            }
        }
        self.iter += 1;
        self.best_score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SchedulingProblem;
    use crate::scheduler::Scheduler;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
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
        let a = Gsa::new(GsaParams::fast(), 1).schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a.len(), 30);
    }

    #[test]
    fn deterministic_per_seed_and_rounds_advance() {
        let p = hetero_problem(5, 20);
        let a = Gsa::new(GsaParams::fast(), 9).schedule(&p);
        let b = Gsa::new(GsaParams::fast(), 9).schedule(&p);
        assert_eq!(a, b);
        let mut s = Gsa::new(GsaParams::fast(), 9);
        let first = s.schedule(&p);
        let second = s.schedule(&p);
        assert_eq!(first, a);
        assert_ne!(first, second);
    }

    #[test]
    fn masses_rank_by_fitness() {
        // The distinct GSA rule: best agent heaviest, worst weightless.
        let m = masses(&[1.0, 2.0, 3.0]);
        assert!((m[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((m[1] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m[2], 0.0);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Tied scores weigh the same.
        let tied = masses(&[5.0, 5.0]);
        assert_eq!(tied[0], tied[1]);
    }

    #[test]
    fn gravity_decays_monotonically() {
        let mut last = f64::INFINITY;
        for t in 0..10 {
            let g = gravity(100.0, 20.0, t, 10);
            assert!(g > 0.0 && g < last);
            last = g;
        }
        assert_eq!(gravity(100.0, 20.0, 0, 10), 100.0);
    }

    #[test]
    fn kbest_shrinks_linearly_to_one() {
        assert_eq!(kbest(20, 0, 40), 20);
        assert_eq!(kbest(20, 39, 40), 1);
        let mut last = usize::MAX;
        for t in 0..40 {
            let k = kbest(20, t, 40);
            assert!(k >= 1 && k <= last);
            last = k;
        }
    }

    #[test]
    fn lighter_agents_fall_toward_heavier_ones() {
        // Two agents on a line: the worse (massless) one must accelerate
        // toward the better one; the better one feels no pull from a
        // massless peer. Drive one full step and check the motion.
        let p = hetero_problem(4, 6);
        let cache = EvalCache::new(&p);
        let mut run = GsaRun::cold(
            GsaParams {
                population: 2,
                iterations: 1,
                ..GsaParams::standard()
            },
            5,
            &cache,
            None,
        );
        run.positions[0] = vec![0.5; 6];
        run.positions[1] = vec![3.5; 6];
        run.scores = vec![1.0, 2.0]; // agent 0 fitter → mass 1, agent 1 → mass 0
        let before = run.positions.clone();
        run.step(&cache);
        // Massless agent 1 moved toward agent 0 (every coordinate down).
        assert!(run.positions[1]
            .iter()
            .zip(&before[1])
            .all(|(now, was)| now < was));
        // Agent 0 felt no force from the massless peer.
        assert_eq!(run.positions[0], before[0]);
    }

    #[test]
    fn warm_incumbent_seeds_agent_zero() {
        let p = hetero_problem(4, 8);
        let cache = EvalCache::new(&p);
        let inc: Vec<u32> = vec![2; 8];
        let run = GsaRun::cold(GsaParams::fast(), 7, &cache, Some(&inc));
        assert!(run.positions[0].iter().all(|x| (*x - 2.5).abs() < 1e-12));
    }

    #[test]
    fn params_validation() {
        assert!(GsaParams {
            population: 1,
            ..GsaParams::standard()
        }
        .validate()
        .is_err());
        assert!(GsaParams {
            g0: 0.0,
            ..GsaParams::standard()
        }
        .validate()
        .is_err());
        assert!(GsaParams {
            alpha: -1.0,
            ..GsaParams::standard()
        }
        .validate()
        .is_err());
        assert!(GsaParams::standard().validate().is_ok());
    }

    #[test]
    fn empty_workload_is_empty_plan() {
        let p = SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default()],
            vec![],
            CostModel::free(),
        );
        assert!(Gsa::new(GsaParams::fast(), 1).schedule(&p).is_empty());
    }
}
