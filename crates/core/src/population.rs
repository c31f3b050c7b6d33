//! The one stepper contract of the population metaheuristics (GA, PSO,
//! cuckoo-SOS, GSA) and the scheduler that drives it.
//!
//! Each family implements [`PopulationRun`] on its anytime `*Run` state
//! (one `step` = one native iteration, charged in deterministic
//! evaluation units). Everything else is written once, here and in
//! [`crate::racing`]:
//!
//! * [`Stepped`] steps a fresh run to done behind the ordinary
//!   [`Scheduler`] interface (`Genetic`, `ParticleSwarm`, `CuckooSos` and
//!   `Gsa` are aliases of it), so a one-shot plan and a stepped plan are
//!   the same bits by construction;
//! * the racer funds the same runs step by step as anytime members.
//!
//! The shared representation helpers live here too: the initial gene
//! population of GA and cuckoo-SOS, and the continuous encode/decode
//! pair of PSO and GSA.
use rand::rngs::StdRng;
use rand::Rng;
use simcloud::ids::VmId;
use simcloud::rng::stream;

use crate::assignment::Assignment;
use crate::eval::EvalCache;
use crate::problem::SchedulingProblem;
use crate::scheduler::Scheduler;
use crate::warm::WarmState;

/// An anytime population run: scored population state plus an iteration
/// cursor, advanced one native iteration per [`PopulationRun::step`].
pub trait PopulationRun: Sized + Send {
    /// The family's tuning parameters.
    type Params: Clone + Send;
    /// RNG stream label, scheduler name and racing provenance key.
    const NAME: &'static str;

    /// Checks parameter sanity.
    fn validate(params: &Self::Params) -> Result<(), String>;

    /// Starts a run drawing from an already-positioned RNG stream; a warm
    /// `incumbent` plan (wrapped positionally when sizes differ) seeds one
    /// population member. Charges [`PopulationRun::init_units`].
    fn start(
        params: Self::Params,
        rng: StdRng,
        cache: &EvalCache,
        incumbent: Option<&[u32]>,
    ) -> Self;

    /// Starts a run on the family's own stream of `seed`.
    fn cold(params: Self::Params, seed: u64, cache: &EvalCache, incumbent: Option<&[u32]>) -> Self {
        Self::start(
            validated::<Self>(params),
            stream(seed, Self::NAME),
            cache,
            incumbent,
        )
    }

    /// Evaluation units charged by population initialization.
    fn init_units(&self) -> u64;

    /// Evaluation units one [`PopulationRun::step`] charges.
    fn step_units(&self) -> u64;

    /// Iterations a run to completion takes (from the params).
    fn iterations(&self) -> usize;

    /// Evaluation units a run to completion costs:
    /// `init + iterations · step`.
    fn full_units(&self) -> u64 {
        self.init_units() + self.iterations() as u64 * self.step_units()
    }

    /// True once every planned iteration has run (or the workload is
    /// empty).
    fn done(&self) -> bool;

    /// One native iteration. Returns the best score so far (monotone
    /// non-increasing across steps).
    fn step(&mut self, cache: &EvalCache) -> f64;

    /// The best plan so far as cloudlet→VM genes (empty for an empty
    /// workload).
    fn best_genes(&self) -> &[u32];

    /// Hands back the advanced RNG stream.
    fn into_rng(self) -> StdRng;
}

fn validated<R: PopulationRun>(params: R::Params) -> R::Params {
    if let Err(e) = R::validate(&params) {
        panic!("invalid {} params: {e}", R::NAME);
    }
    params
}

/// One-shot scheduler over a [`PopulationRun`]: every call steps a fresh
/// run to done. One RNG stream is carried across calls, so successive
/// rounds on one instance keep drawing fresh randomness.
pub struct Stepped<R: PopulationRun> {
    params: R::Params,
    rng: StdRng,
}

impl<R: PopulationRun> Stepped<R> {
    /// Creates a scheduler with the given parameters and seed.
    pub fn new(params: R::Params, seed: u64) -> Self {
        Stepped {
            params: validated::<R>(params),
            rng: stream(seed, R::NAME),
        }
    }

    /// Like [`Scheduler::schedule`], but also returns the best objective
    /// score after every iteration: the family's convergence curve.
    pub fn schedule_traced(&mut self, problem: &SchedulingProblem) -> (Assignment, Vec<f64>) {
        self.run(&EvalCache::new(problem), true, None)
    }

    fn run(
        &mut self,
        cache: &EvalCache,
        traced: bool,
        incumbent: Option<&[u32]>,
    ) -> (Assignment, Vec<f64>) {
        let mut run = R::start(self.params.clone(), self.rng.clone(), cache, incumbent);
        cache.expect_evaluations(run.full_units());
        let mut trace = Vec::new();
        while !run.done() {
            let best = run.step(cache);
            if traced {
                trace.push(best);
            }
        }
        let plan = Assignment::new(run.best_genes().iter().map(|&g| VmId(g)).collect());
        self.rng = run.into_rng();
        (plan, trace)
    }
}

impl<R: PopulationRun> Scheduler for Stepped<R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        self.run(&EvalCache::new(problem), false, None).0
    }

    fn schedule_with_cache(
        &mut self,
        _problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        self.run(cache, false, None).0
    }

    fn schedule_warm(
        &mut self,
        _problem: &SchedulingProblem,
        cache: &EvalCache,
        warm: &mut WarmState,
    ) -> Assignment {
        let plan = self.run(cache, false, warm.incumbent.as_deref()).0;
        warm.note_plan(&plan);
        plan
    }
}

/// Initial gene population: one cyclic genome (so the search never ends
/// worse than the Base Test on a homogeneous fleet), the warm `incumbent`
/// wrapped positionally onto this workload, then uniform random genomes up
/// to `population`. Empty for an empty workload.
pub(crate) fn seed_genomes(
    rng: &mut StdRng,
    dims: usize,
    v: u32,
    population: usize,
    incumbent: Option<&[u32]>,
) -> Vec<Vec<u32>> {
    let mut genomes: Vec<Vec<u32>> = Vec::with_capacity(population);
    if dims > 0 {
        genomes.push((0..dims).map(|i| (i as u32) % v).collect());
        if let Some(inc) = incumbent.filter(|inc| !inc.is_empty()) {
            genomes.push((0..dims).map(|i| inc[i % inc.len()].min(v - 1)).collect());
        }
        while genomes.len() < population {
            genomes.push((0..dims).map(|_| rng.gen_range(0..v)).collect());
        }
    }
    genomes
}

/// Geometric-skip gap to the next selected gene for a per-gene Bernoulli
/// with probability `p`: `floor(ln(1-u)/ln(1-p))` for `u ~ U[0,1)` is the
/// number of unselected genes before the next hit, so a genome costs
/// `O(dims·p)` draws instead of one coin per gene, with the same
/// distribution.
pub(crate) fn bernoulli_skip(rng: &mut StdRng, p: f64) -> usize {
    if p >= 1.0 {
        return 0;
    }
    if p <= 0.0 {
        return usize::MAX;
    }
    let u: f64 = rng.gen();
    let skip = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    if skip.is_finite() && skip >= 0.0 {
        skip as usize
    } else {
        usize::MAX
    }
}

/// Decodes a continuous position into VM indices over a fleet of `v`
/// VMs: wrap into `[0, v)` with `rem_euclid`, floor, clamp (NaN maps to
/// VM 0).
pub(crate) fn decode(position: &[f64], v: u32) -> Vec<u32> {
    position
        .iter()
        .map(|x| (x.rem_euclid(f64::from(v)) as u32).min(v - 1))
        .collect()
}

/// Places `position` on the cell midpoints of the warm `incumbent`
/// (wrapped positionally), so it decodes back to the incumbent plan.
pub(crate) fn encode_midpoints(position: &mut [f64], incumbent: &[u32], v: u32) {
    for (i, x) in position.iter_mut().enumerate() {
        *x = f64::from(incumbent[i % incumbent.len()].min(v - 1)) + 0.5;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuckoo_sos::{CsosParams, CsosRun};
    use crate::ga::{GaParams, GaRun};
    use crate::gsa::{GsaParams, GsaRun};
    use crate::objective::Objective;
    use crate::pso::{PsoParams, PsoRun};
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

    /// The anytime contract the racing driver relies on: a cold run
    /// stepped to completion takes `iterations` steps of `step_units`
    /// each, never lets its best regress, costs `full_units`, and is the
    /// one-shot schedule, same bits.
    fn check_stepped_matches_one_shot<R: PopulationRun>(
        params: R::Params,
        seed: u64,
        step_units: u64,
    ) {
        let p = hetero_problem(6, 28);
        let cache = EvalCache::new(&p);
        let mut run = R::cold(params.clone(), seed, &cache, None);
        let mut units = run.init_units();
        let mut steps = 0;
        let mut last = f64::INFINITY;
        while !run.done() {
            let best = run.step(&cache);
            assert!(best <= last + 1e-12, "{}: best regressed", R::NAME);
            last = best;
            units += run.step_units();
            steps += 1;
        }
        assert_eq!(steps, run.iterations(), "{}", R::NAME);
        assert_eq!(run.step_units(), step_units, "{}", R::NAME);
        assert_eq!(units, run.full_units(), "{}", R::NAME);
        let stepped = Assignment::new(run.best_genes().iter().map(|&g| VmId(g)).collect());
        let one_shot = Stepped::<R>::new(params, seed).schedule(&p);
        assert_eq!(stepped, one_shot, "{}", R::NAME);
        assert_eq!(cache.score(stepped.as_slice(), Objective::Makespan), last);
    }

    #[test]
    fn stepped_runs_match_one_shot_bitwise() {
        // Children per generation (population − elites), particles,
        // three phases per organism, agents.
        check_stepped_matches_one_shot::<GaRun>(GaParams::fast(), 21, 16 - 2);
        check_stepped_matches_one_shot::<PsoRun>(PsoParams::fast(), 21, 12);
        check_stepped_matches_one_shot::<CsosRun>(CsosParams::fast(), 3, 3 * 8);
        check_stepped_matches_one_shot::<GsaRun>(GsaParams::fast(), 3, 8);
    }

    #[test]
    fn decode_wraps_out_of_range_positions() {
        let genes = decode(&[-0.5, 3.99, 12.3, 4.0, f64::NAN], 4);
        // -0.5 wraps to 3.5 -> vm3; 4.0 wraps to 0.0 -> vm0; NaN -> vm0.
        assert_eq!(genes, [3, 3, 0, 0, 0]);
    }

    #[test]
    fn midpoints_decode_back_to_the_incumbent() {
        let mut position = vec![0.0; 5];
        encode_midpoints(&mut position, &[2, 9, 1], 4);
        assert_eq!(position, [2.5, 3.5, 1.5, 2.5, 3.5]);
        assert_eq!(decode(&position, 4), [2, 3, 1, 2, 3]);
    }
}
