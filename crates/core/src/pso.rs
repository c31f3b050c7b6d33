//! Particle Swarm Optimization scheduler — related-work baseline.
//!
//! Section II surveys PSO-based cloud schedulers at length ([18] Pandey et
//! al., [23] Rodriguez & Buyya, [12]/[11] renumbering PSO) and notes that
//! "PSO is the algorithm with the fastest convergence when compared to GA
//! and ACO" [30]. This module implements the discrete PSO those works use:
//!
//! * **Encoding** — one dimension per cloudlet; the continuous position is
//!   discretized by rounding into a VM index ([23]'s "rounded integer
//!   specifying the index of the resource assigned to each task").
//! * **Dynamics** — the classic inertia-weight update
//!   `v ← w·v + c1·r1·(pbest − x) + c2·r2·(gbest − x)`, with `w` decaying
//!   linearly over the run and velocity clamped to ±`v_max`.
//! * **Fitness** — selectable [`Objective`]; [18] optimizes cost, most
//!   others makespan.
//! * **Stepping** — [`PsoRun`] implements the population stepper contract
//!   ([`PopulationRun`], one step = one swarm iteration);
//!   [`ParticleSwarm`] is the shared one-shot scheduler over it.

//!
//! ```
//! use biosched_core::pso::{ParticleSwarm, PsoParams};
//! use biosched_core::problem::SchedulingProblem;
//! use biosched_core::scheduler::Scheduler;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::new(1000.0, 5000.0, 512.0, 500.0, 1); 4],
//!     vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1); 16],
//!     CostModel::default(),
//! );
//! let plan = ParticleSwarm::new(PsoParams::fast(), 42).schedule(&problem);
//! assert_eq!(plan.len(), 16);
//! ```
use rand::rngs::StdRng;
use rand::Rng;

use crate::eval::{evaluate_population, EvalCache};
use crate::objective::Objective;
use crate::population::{decode, encode_midpoints, PopulationRun, Stepped};

/// PSO tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PsoParams {
    /// Swarm size.
    pub particles: usize,
    /// Iterations.
    pub iterations: usize,
    /// Inertia weight at the first iteration.
    pub inertia_start: f64,
    /// Inertia weight at the last iteration.
    pub inertia_end: f64,
    /// Cognitive coefficient c1 (pull toward the particle's best).
    pub cognitive: f64,
    /// Social coefficient c2 (pull toward the swarm's best).
    pub social: f64,
    /// Velocity clamp as a fraction of the VM count.
    pub v_max_fraction: f64,
    /// What the swarm optimizes.
    pub objective: Objective,
}

impl PsoParams {
    /// Literature-standard configuration (w 0.9→0.4, c1=c2=2).
    pub fn standard() -> Self {
        PsoParams {
            particles: 30,
            iterations: 50,
            inertia_start: 0.9,
            inertia_end: 0.4,
            cognitive: 2.0,
            social: 2.0,
            v_max_fraction: 0.25,
            objective: Objective::Makespan,
        }
    }

    /// A cheaper configuration for sweeps and debug-mode tests.
    pub fn fast() -> Self {
        PsoParams {
            particles: 12,
            iterations: 15,
            ..Self::standard()
        }
    }

    /// Iteration-count scaling law: the standard profile up to
    /// [`crate::aco::AcoParams::SCALE_CUTOVER`] cloudlets, a reduced
    /// profile above it (positions/velocities are cloudlet-length
    /// vectors, so swarm × iterations is what must shrink at 10⁶ scale).
    pub fn for_scale(cloudlets: usize) -> Self {
        if cloudlets > crate::aco::AcoParams::SCALE_CUTOVER {
            PsoParams {
                particles: 10,
                iterations: 8,
                ..Self::standard()
            }
        } else {
            Self::standard()
        }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.particles == 0 {
            return Err("particles must be at least 1".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be at least 1".into());
        }
        for (name, v) in [
            ("inertia_start", self.inertia_start),
            ("inertia_end", self.inertia_end),
            ("cognitive", self.cognitive),
            ("social", self.social),
            ("v_max_fraction", self.v_max_fraction),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        Ok(())
    }
}

impl Default for PsoParams {
    fn default() -> Self {
        Self::standard()
    }
}

/// One particle of the swarm.
struct Particle {
    position: Vec<f64>,
    velocity: Vec<f64>,
    best_position: Vec<f64>,
    best_score: f64,
}

/// The PSO scheduler: steps a fresh [`PsoRun`] to done per call.
pub type ParticleSwarm = Stepped<PsoRun>;

/// The anytime PSO run: swarm state plus an iteration cursor.
///
/// One [`PopulationRun::step`] call is one asynchronous swarm iteration
/// (`particles` full-assignment evaluations, the run's deterministic
/// budget unit).
pub struct PsoRun {
    params: PsoParams,
    rng: StdRng,
    swarm: Vec<Particle>,
    /// Swarm-best position, its decoded plan and its score.
    global_best: (Vec<f64>, Vec<u32>, f64),
    v: u32,
    dims: usize,
    v_max: f64,
    iter: usize,
}

impl PopulationRun for PsoRun {
    type Params = PsoParams;
    const NAME: &'static str = "pso";

    fn validate(params: &PsoParams) -> Result<(), String> {
        params.validate()
    }

    fn start(
        params: PsoParams,
        mut rng: StdRng,
        cache: &EvalCache,
        incumbent: Option<&[u32]>,
    ) -> Self {
        let dims = cache.cloudlet_count();
        let v = (cache.vm_count() as u32).max(1);
        let vf = f64::from(v);
        let v_max = (vf * params.v_max_fraction).max(1.0);
        // Initialize the swarm uniformly over the VM range.
        let n = if dims == 0 { 0 } else { params.particles };
        let mut swarm: Vec<Particle> = (0..n)
            .map(|_| {
                let position: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..vf)).collect();
                let velocity: Vec<f64> = (0..dims).map(|_| rng.gen_range(-v_max..v_max)).collect();
                Particle {
                    best_position: position.clone(),
                    best_score: f64::INFINITY,
                    position,
                    velocity,
                }
            })
            .collect();
        // Warm start (streaming broker): particle 0 sits at the center of
        // the previous wave's plan, so the swarm's social pull starts from
        // the surviving optimum instead of uniform noise.
        if let Some((inc, p0)) = incumbent
            .filter(|inc| !inc.is_empty())
            .zip(swarm.first_mut())
        {
            encode_midpoints(&mut p0.position, inc, v);
            p0.best_position.clone_from(&p0.position);
        }
        // The initial sweep is order-independent (no RNG in scoring, no
        // gbest yet), so it batches through the evaluation kernel. The
        // step loop must stay sequential: gbest updates inside the
        // particle loop (asynchronous PSO), so particle k sees the best
        // found by particles 0..k of the same iteration.
        let decoded: Vec<Vec<u32>> = swarm.iter().map(|p| decode(&p.position, v)).collect();
        let scores = evaluate_population(cache, &decoded, params.objective);
        for (p, score) in swarm.iter_mut().zip(scores) {
            p.best_score = score;
        }
        let global_best = swarm
            .iter()
            .zip(decoded)
            .min_by(|a, b| a.0.best_score.total_cmp(&b.0.best_score))
            .map(|(p, genes)| (p.best_position.clone(), genes, p.best_score))
            .unwrap_or_default();
        PsoRun {
            params,
            rng,
            swarm,
            global_best,
            v,
            dims,
            v_max,
            iter: 0,
        }
    }

    fn init_units(&self) -> u64 {
        self.swarm.len() as u64
    }

    fn step_units(&self) -> u64 {
        self.swarm.len() as u64
    }

    fn iterations(&self) -> usize {
        self.params.iterations
    }

    fn done(&self) -> bool {
        self.iter >= self.params.iterations || self.swarm.is_empty()
    }

    fn best_genes(&self) -> &[u32] {
        &self.global_best.1
    }

    fn into_rng(self) -> StdRng {
        self.rng
    }

    /// One asynchronous swarm iteration (inertia interpolated by the
    /// iteration cursor).
    fn step(&mut self, cache: &EvalCache) -> f64 {
        if self.done() {
            return self.global_best.2;
        }
        let dims = self.dims;
        let progress = self.iter as f64 / self.params.iterations.max(1) as f64;
        let w = self.params.inertia_start
            + (self.params.inertia_end - self.params.inertia_start) * progress;
        for p in &mut self.swarm {
            for d in 0..dims {
                let r1: f64 = self.rng.gen_range(0.0..1.0);
                let r2: f64 = self.rng.gen_range(0.0..1.0);
                let vel = w * p.velocity[d]
                    + self.params.cognitive * r1 * (p.best_position[d] - p.position[d])
                    + self.params.social * r2 * (self.global_best.0[d] - p.position[d]);
                p.velocity[d] = vel.clamp(-self.v_max, self.v_max);
                p.position[d] += p.velocity[d];
            }
            let genes = decode(&p.position, self.v);
            let score = cache.score_genes(&genes, self.params.objective);
            if score < p.best_score {
                p.best_score = score;
                p.best_position.clone_from(&p.position);
            }
            if score < self.global_best.2 {
                self.global_best = (p.position.clone(), genes, score);
            }
        }
        self.iter += 1;
        self.global_best.2
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
            .map(|i| VmSpec::new(500.0 + 500.0 * (i % 7) as f64, 5_000.0, 512.0, 500.0, 1))
            .collect();
        let cls: Vec<CloudletSpec> = (0..cloudlets)
            .map(|i| CloudletSpec::new(1_000.0 + 750.0 * (i % 11) as f64, 300.0, 300.0, 1))
            .collect();
        SchedulingProblem::single_datacenter(vm_specs, cls, CostModel::default())
    }

    #[test]
    fn produces_valid_assignments() {
        let p = hetero_problem(8, 30);
        let a = ParticleSwarm::new(PsoParams::fast(), 1).schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a.len(), 30);
    }

    #[test]
    fn beats_round_robin_on_its_objective() {
        let p = hetero_problem(6, 40);
        let pso = ParticleSwarm::new(PsoParams::standard(), 2).schedule(&p);
        let rr = RoundRobin::new().schedule(&p);
        let pso_score = score_assignment(&p, &pso, Objective::Makespan);
        let rr_score = score_assignment(&p, &rr, Objective::Makespan);
        assert!(
            pso_score <= rr_score,
            "PSO {pso_score} should not lose to RR {rr_score} on makespan"
        );
    }

    #[test]
    fn cost_objective_steers_the_swarm() {
        use crate::problem::DatacenterView;
        use simcloud::ids::DatacenterId;
        // Two DCs, one much cheaper.
        let vms = vec![VmSpec::homogeneous_default(); 6];
        let placement: Vec<DatacenterId> =
            (0..6).map(|i| DatacenterId(u32::from(i >= 3))).collect();
        let p = SchedulingProblem::new(
            vms,
            vec![CloudletSpec::new(5_000.0, 300.0, 300.0, 1); 24],
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
        .unwrap();
        let params = PsoParams {
            objective: Objective::Cost,
            ..PsoParams::standard()
        };
        let a = ParticleSwarm::new(params, 3).schedule(&p);
        let cheap_share =
            a.as_slice().iter().filter(|vm| vm.index() >= 3).count() as f64 / a.len() as f64;
        assert!(
            cheap_share > 0.6,
            "cost-driven swarm should favor the cheap DC, got {cheap_share}"
        );
    }

    #[test]
    fn more_iterations_never_hurt() {
        let p = hetero_problem(8, 30);
        let short = ParticleSwarm::new(
            PsoParams {
                iterations: 2,
                ..PsoParams::fast()
            },
            4,
        )
        .schedule(&p);
        let long = ParticleSwarm::new(
            PsoParams {
                iterations: 60,
                ..PsoParams::fast()
            },
            4,
        )
        .schedule(&p);
        let s_short = score_assignment(&p, &short, Objective::Makespan);
        let s_long = score_assignment(&p, &long, Objective::Makespan);
        assert!(
            s_long <= s_short,
            "long run {s_long} vs short run {s_short}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = hetero_problem(5, 20);
        let a = ParticleSwarm::new(PsoParams::fast(), 6).schedule(&p);
        let b = ParticleSwarm::new(PsoParams::fast(), 6).schedule(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_is_monotone_nonincreasing() {
        let p = hetero_problem(8, 40);
        let (plan, trace) = ParticleSwarm::new(PsoParams::fast(), 8).schedule_traced(&p);
        assert_eq!(trace.len(), PsoParams::fast().iterations);
        assert!(trace.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        // The final trace point is the returned plan's score.
        let final_score = score_assignment(&p, &plan, Objective::Makespan);
        assert!((trace.last().unwrap() - final_score).abs() < 1e-9);
        // Tracing does not change the result.
        let untraced = ParticleSwarm::new(PsoParams::fast(), 8).schedule(&p);
        assert_eq!(plan, untraced);
    }

    #[test]
    fn params_validation() {
        assert!(PsoParams {
            particles: 0,
            ..PsoParams::standard()
        }
        .validate()
        .is_err());
        assert!(PsoParams {
            inertia_start: -1.0,
            ..PsoParams::standard()
        }
        .validate()
        .is_err());
        assert!(PsoParams::standard().validate().is_ok());
    }

    #[test]
    fn for_scale_reduces_effort_above_cutover() {
        assert_eq!(PsoParams::for_scale(10_000), PsoParams::standard());
        let big = PsoParams::for_scale(1_000_000);
        assert!(big.particles < PsoParams::standard().particles);
        assert!(big.iterations < PsoParams::standard().iterations);
        assert!(big.validate().is_ok());
    }

    #[test]
    fn empty_workload_is_empty_plan() {
        let p = SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default()],
            vec![],
            CostModel::free(),
        );
        let a = ParticleSwarm::new(PsoParams::fast(), 7).schedule(&p);
        assert!(a.is_empty());
    }
}
