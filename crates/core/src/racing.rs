//! Anytime racing meta-scheduler.
//!
//! The paper's future-work proposal is "pick the right bio-inspired
//! algorithm per workload". [`crate::portfolio::Portfolio`] does that by
//! running every candidate to completion — decision time is the *sum* of
//! the members. The racer gets the same answer-quality contract at a
//! fraction of the cost by slicing every metaheuristic into its native
//! iterations (the `AnytimeScheduler` interface) and running a
//! successive-halving elimination race over the pool:
//!
//! 1. Every member is funded one **quantum** of budget per round; budget
//!    is counted in *deterministic evaluation units* — full-assignment
//!    evaluations through [`EvalCache`], never wall clock — so races are
//!    bit-identical across thread counts and engines.
//! 2. After each round the active members are ranked by incumbent score
//!    and the bottom half is eliminated.
//! 3. The last survivor runs to completion on its unchanged RNG path, so
//!    the racer's plan is never worse than the survivor's standalone
//!    full-budget plan *exactly*; eliminated members are covered by the
//!    pruning guarantee (their partial incumbents already lost every
//!    head-to-head ranking they were funded for).
//!
//! The racer also keeps a cross-sweep memory, the `RaceBook`: a
//! per-workload-family posterior over member ranks (families are coarse
//! log₂ buckets of fleet size and cloudlets-per-VM pressure). The book
//! orders the roster — historically strong families are funded first and
//! win score ties — and persists inside the scheduler instance, so it is
//! carried across the points of a sweep and across the waves of a stream
//! (the broker keeps warm scheduler instances resident). Everything it
//! does is a deterministic function of race history.
//!
//! ```
//! use biosched_core::racing::{RaceParams, RacingScheduler};
//! use biosched_core::objective::Objective;
//! use biosched_core::problem::SchedulingProblem;
//! use biosched_core::scheduler::Scheduler;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::new(1000.0, 5000.0, 512.0, 500.0, 1); 4],
//!     vec![CloudletSpec::new(2_000.0, 0.0, 0.0, 1); 16],
//!     CostModel::default(),
//! );
//! let mut racer = RacingScheduler::new(RaceParams::new(Objective::Makespan), 42);
//! let plan = racer.schedule(&problem);
//! assert!(plan.validate(&problem).is_ok());
//! assert!(racer.last_report().is_some());
//! ```
use std::collections::BTreeMap;

use simcloud::ids::VmId;

use crate::aco::{AcoParams, AcoRun};
use crate::assignment::Assignment;
use crate::cuckoo_sos::{CsosParams, CsosRun};
use crate::eval::EvalCache;
use crate::ga::{GaParams, GaRun};
use crate::gsa::{GsaParams, GsaRun};
use crate::hbo::{HboParams, HoneyBee};
use crate::objective::Objective;
use crate::population::PopulationRun;
use crate::problem::SchedulingProblem;
use crate::pso::{PsoParams, PsoRun};
use crate::scheduler::{MetaProvenance, Scheduler};

/// What one [`AnytimeScheduler::step`] call reports back to the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepReport {
    /// Deterministic evaluation units this step charged (full-assignment
    /// evaluations through [`EvalCache`]).
    pub units: u64,
    /// The member's best objective score so far (lower is better).
    pub incumbent_score: f64,
    /// True once the member has exhausted its own iteration budget.
    pub done: bool,
}

/// A scheduler that can be advanced one native iteration at a time and
/// interrogated for its best plan so far. Metaheuristics implement it by
/// iteration slicing over their `*Run` steppers; one-shot heuristics race
/// as a single step. All scoring must go through the shared [`EvalCache`]
/// under a common objective, so incumbents are comparable across members.
trait AnytimeScheduler: Send {
    /// Stable member name (provenance key).
    fn name(&self) -> &'static str;
    /// Advances one native iteration and reports cost + incumbent score.
    fn step(&mut self, cache: &EvalCache) -> StepReport;
    /// The best plan found so far (cloudlet→VM genes).
    fn incumbent(&self) -> Vec<u32>;
    /// Total evaluation units a standalone run to completion costs.
    fn full_cost(&self) -> u64;
}

/// Racing-driver tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceParams {
    /// The objective every member races under.
    pub objective: Objective,
    /// Per-member full-run budget in evaluation units; `None` picks a
    /// scale-aware default (smaller above the ACO scale cutover).
    pub target_units: Option<u64>,
    /// Units each active member is funded per elimination round; `None`
    /// defaults to 1/16 of the largest member's full cost.
    pub quantum: Option<u64>,
    /// Hard total-budget cap; `None` defaults to the sum of all members'
    /// full costs (i.e. never binds before the race finishes).
    pub budget: Option<u64>,
}

impl RaceParams {
    /// Default racing configuration for an objective.
    pub fn new(objective: Objective) -> Self {
        RaceParams {
            objective,
            target_units: None,
            quantum: None,
            budget: None,
        }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.target_units == Some(0) {
            return Err("target_units must be at least 1".into());
        }
        if self.quantum == Some(0) {
            return Err("quantum must be at least 1".into());
        }
        if self.budget == Some(0) {
            return Err("budget must be at least 1".into());
        }
        Ok(())
    }

    /// The per-member full-run budget for a workload size.
    fn resolved_target(&self, cloudlets: usize) -> u64 {
        self.target_units.unwrap_or({
            if cloudlets > AcoParams::SCALE_CUTOVER {
                384
            } else {
                1536
            }
        })
    }
}

impl Default for RaceParams {
    fn default() -> Self {
        Self::new(Objective::Makespan)
    }
}

/// Provenance of one finished race.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceReport {
    /// The member whose incumbent won (produced the returned plan).
    pub winner: &'static str,
    /// The winning objective score.
    pub best_score: f64,
    /// Total evaluation units the race spent.
    pub total_units: u64,
    /// Sum of all members' standalone full costs (what the run-everyone
    /// portfolio would have spent).
    pub portfolio_units: u64,
    /// Units spent per member, roster order.
    pub spent: Vec<(&'static str, u64)>,
}

// ---------------------------------------------------------------------------
// Members
// ---------------------------------------------------------------------------

/// ACO member: steps [`AcoRun`] one iteration (all colonies in lockstep)
/// at a time. The run reports tour lengths; the racer re-scores the
/// incumbent through the shared cache so members stay comparable (that
/// bookkeeping evaluation is not charged — it exists only for ranking).
struct AcoMember {
    run: AcoRun,
    objective: Objective,
    full: u64,
}

impl AnytimeScheduler for AcoMember {
    fn name(&self) -> &'static str {
        "ant-colony"
    }

    fn step(&mut self, cache: &EvalCache) -> StepReport {
        let units = self.run.step_units();
        self.run.step(cache);
        let genes = self.run.incumbent().unwrap_or_default();
        StepReport {
            units,
            incumbent_score: cache.score_genes(&genes, self.objective),
            done: self.run.done(),
        }
    }

    fn incumbent(&self) -> Vec<u32> {
        self.run.incumbent().unwrap_or_default()
    }

    fn full_cost(&self) -> u64 {
        self.full
    }
}

/// Population member: steps any [`PopulationRun`] one native iteration
/// at a time. The first step also carries the run's init charge.
struct PopulationMember<R> {
    run: R,
    charged_init: bool,
}

impl<R: PopulationRun + 'static> PopulationMember<R> {
    fn boxed(run: R) -> Box<dyn AnytimeScheduler> {
        Box::new(PopulationMember {
            run,
            charged_init: false,
        })
    }
}

impl<R: PopulationRun> AnytimeScheduler for PopulationMember<R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    fn step(&mut self, cache: &EvalCache) -> StepReport {
        let mut units = 0;
        if !self.charged_init {
            self.charged_init = true;
            units += self.run.init_units();
        }
        units += self.run.step_units();
        let score = self.run.step(cache);
        StepReport {
            units,
            incumbent_score: score,
            done: self.run.done(),
        }
    }

    fn incumbent(&self) -> Vec<u32> {
        self.run.best_genes().to_vec()
    }

    fn full_cost(&self) -> u64 {
        self.run.full_units()
    }
}

/// One-shot heuristic member: the plan is computed at roster-build time
/// (where the problem snapshot is available) and the race charges its
/// single evaluation unit on the first step.
struct OneShotMember {
    name: &'static str,
    genes: Vec<u32>,
    score: f64,
    stepped: bool,
}

impl AnytimeScheduler for OneShotMember {
    fn name(&self) -> &'static str {
        self.name
    }

    fn step(&mut self, _cache: &EvalCache) -> StepReport {
        let units = u64::from(!self.stepped);
        self.stepped = true;
        StepReport {
            units,
            incumbent_score: self.score,
            done: true,
        }
    }

    fn incumbent(&self) -> Vec<u32> {
        self.genes.clone()
    }

    fn full_cost(&self) -> u64 {
        1
    }
}

/// Number of members in the canonical roster.
const ROSTER_SIZE: usize = 6;

/// Builds the canonical roster with every member's iteration budget
/// normalized to `target` evaluation units, warm state applied (ACO gets
/// the pheromone prior, population members the incumbent plan).
fn build_roster(
    seed: u64,
    objective: Objective,
    target: u64,
    problem: &SchedulingProblem,
    cache: &EvalCache,
    warm: Option<&crate::warm::WarmState>,
) -> Vec<Box<dyn AnytimeScheduler>> {
    let pheromone = warm.and_then(|w| w.pheromone.as_ref());

    // The one-shot heuristic runs first and doubles as the population
    // members' shared warm start (unless a stream wave carries its own
    // incumbent): every evolving member refines the same strong plan, so
    // early race scores are predictive of full-run quality instead of
    // measuring how fast each family escapes a random init — the
    // late-bloomer pathology that makes halving races prune the eventual
    // winner.
    let mut hbo = HoneyBee::new(HboParams::paper(), seed);
    let hbo_plan = hbo.schedule_with_cache(problem, cache);
    let hbo_genes: Vec<u32> = hbo_plan.as_slice().iter().map(|vm| vm.0).collect();
    let hbo_score = cache.score_genes(&hbo_genes, objective);
    let incumbent: Option<&[u32]> = warm
        .and_then(|w| w.incumbent.as_deref())
        .or(Some(&hbo_genes));

    let aco_params = AcoParams {
        iterations: (target / AcoParams::fast().ants as u64).max(1) as usize,
        ..AcoParams::fast()
    };
    let aco_full = (aco_params.ants * aco_params.iterations) as u64;
    let aco = AcoRun::cold(aco_params, seed, cache, pheromone);

    let ga = GaRun::cold(
        GaParams {
            population: 16,
            generations: ((target.saturating_sub(16)) / 14).max(1) as usize,
            objective,
            ..GaParams::standard()
        },
        seed,
        cache,
        incumbent,
    );
    let pso = PsoRun::cold(
        PsoParams {
            particles: 24,
            iterations: ((target.saturating_sub(24)) / 24).max(1) as usize,
            objective,
            ..PsoParams::standard()
        },
        seed,
        cache,
        incumbent,
    );
    let csos = CsosRun::cold(
        CsosParams {
            population: 16,
            iterations: ((target.saturating_sub(16)) / 48).max(1) as usize,
            objective,
            ..CsosParams::standard()
        },
        seed,
        cache,
        incumbent,
    );
    let gsa = GsaRun::cold(
        GsaParams {
            population: 24,
            iterations: ((target.saturating_sub(24)) / 24).max(1) as usize,
            objective,
            ..GsaParams::standard()
        },
        seed,
        cache,
        incumbent,
    );

    vec![
        Box::new(AcoMember {
            run: aco,
            objective,
            full: aco_full,
        }),
        PopulationMember::boxed(ga),
        PopulationMember::boxed(pso),
        PopulationMember::boxed(csos),
        PopulationMember::boxed(gsa),
        Box::new(OneShotMember {
            name: "honey-bee",
            genes: hbo_genes,
            score: hbo_score,
            stepped: false,
        }),
    ]
}

/// Runs every canonical roster member standalone to its full racing
/// budget and returns `(name, best score)` per member — the comparison
/// baseline for the racer's never-worse property (tests and racebench).
/// Uses the same member seeds a fresh racer's first race would, so the
/// winner's standalone run is the racer's own survivor path.
pub fn standalone_scores(
    seed: u64,
    params: &RaceParams,
    problem: &SchedulingProblem,
    cache: &EvalCache,
) -> Vec<(&'static str, f64)> {
    let target = params.resolved_target(cache.cloudlet_count());
    let mut members = build_roster(seed, params.objective, target, problem, cache, None);
    members
        .iter_mut()
        .map(|member| {
            let mut score = f64::INFINITY;
            loop {
                let rep = member.step(cache);
                score = score.min(rep.incumbent_score);
                if rep.done {
                    break;
                }
            }
            (member.name(), score)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// RaceBook
// ---------------------------------------------------------------------------

/// Per-member running rank statistics inside one workload family.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct MemberStat {
    rank_sum: u64,
    races: u64,
}

/// Cross-sweep racing memory: a per-workload-family posterior over member
/// final ranks. Families are coarse log₂ buckets of fleet size and
/// cloudlets-per-VM pressure, so nearby sweep points and stream waves
/// share a family. The book orders the roster (historically strong
/// members are funded first and win score ties); every update is a
/// deterministic function of the finished race's final standings.
#[derive(Debug, Clone, Default, PartialEq)]
struct RaceBook {
    stats: BTreeMap<String, [MemberStat; ROSTER_SIZE]>,
}

impl RaceBook {
    /// An empty book (canonical roster order everywhere).
    fn new() -> Self {
        Self::default()
    }

    /// The workload-family key of a problem snapshot: log₂ buckets of the
    /// fleet size and of the cloudlets-per-VM ratio.
    fn family_key(cache: &EvalCache) -> String {
        let v = cache.vm_count().max(1);
        let ratio = (cache.cloudlet_count() / v).max(1);
        format!("v{}:r{}", v.ilog2(), ratio.ilog2())
    }

    /// Funding order for a family: canonical roster indices sorted by
    /// historical mean final rank (ascending; unraced families keep
    /// canonical order; ties break canonically).
    fn order(&self, key: &str) -> [usize; ROSTER_SIZE] {
        let mut order = [0usize; ROSTER_SIZE];
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = i;
        }
        if let Some(stats) = self.stats.get(key) {
            // Integer cross-multiplication: mean_a < mean_b ⇔
            // sum_a·races_b < sum_b·races_a (unraced members sort last).
            order.sort_by(|&a, &b| {
                let (sa, sb) = (stats[a], stats[b]);
                match (sa.races, sb.races) {
                    (0, 0) => a.cmp(&b),
                    (0, _) => std::cmp::Ordering::Greater,
                    (_, 0) => std::cmp::Ordering::Less,
                    _ => (sa.rank_sum * sb.races)
                        .cmp(&(sb.rank_sum * sa.races))
                        .then(a.cmp(&b)),
                }
            });
        }
        order
    }

    /// Records a finished race's final standings (`ranks[i]` = canonical
    /// member `i`'s final rank, 0 = winner).
    fn record(&mut self, key: &str, ranks: &[usize; ROSTER_SIZE]) {
        let stats = self.stats.entry(key.to_string()).or_default();
        for (stat, &rank) in stats.iter_mut().zip(ranks.iter()) {
            stat.rank_sum += rank as u64;
            stat.races += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Racing driver
// ---------------------------------------------------------------------------

/// The budget-aware racing meta-scheduler (see the module docs).
pub struct RacingScheduler {
    params: RaceParams,
    seed: u64,
    rounds: u64,
    book: RaceBook,
    last_report: Option<RaceReport>,
}

impl RacingScheduler {
    /// Creates a racer with the given parameters and seed.
    pub fn new(params: RaceParams, seed: u64) -> Self {
        params.validate().expect("invalid RaceParams");
        RacingScheduler {
            params,
            seed,
            rounds: 0,
            book: RaceBook::new(),
            last_report: None,
        }
    }

    /// Provenance of the most recent race.
    pub fn last_report(&self) -> Option<&RaceReport> {
        self.last_report.as_ref()
    }

    /// Per-round run seed (successive `schedule` calls draw fresh member
    /// streams, like the other stochastic kinds).
    fn round_seed(&mut self) -> u64 {
        let round = self.rounds;
        self.rounds += 1;
        self.seed
            .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Runs one elimination race and returns the winning plan.
    fn race(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        warm: Option<&crate::warm::WarmState>,
    ) -> Assignment {
        let seed = self.round_seed();
        if cache.cloudlet_count() == 0 {
            self.last_report = Some(RaceReport {
                winner: "none",
                best_score: 0.0,
                total_units: 0,
                portfolio_units: 0,
                spent: Vec::new(),
            });
            return Assignment::new(Vec::new());
        }
        let key = RaceBook::family_key(cache);
        let target = self.params.resolved_target(cache.cloudlet_count());
        let mut members = build_roster(seed, self.params.objective, target, problem, cache, warm);
        let n = members.len();
        let full: Vec<u64> = members.iter().map(|m| m.full_cost()).collect();
        let portfolio_units: u64 = full.iter().sum();
        let max_full = full.iter().copied().max().unwrap_or(1);
        let quantum = self.params.quantum.unwrap_or((max_full / 16).max(1));
        let budget = self.params.budget.unwrap_or(portfolio_units);
        cache.expect_evaluations(budget);

        // Funding order & tie-break priority from the book.
        let order = self.book.order(&key);
        let mut priority = [0usize; ROSTER_SIZE];
        for (pos, &idx) in order.iter().enumerate() {
            priority[idx] = pos;
        }

        let mut active: Vec<usize> = order.to_vec();
        let mut spent = vec![0u64; n];
        let mut scores = vec![f64::INFINITY; n];
        let mut done = vec![false; n];
        let mut total: u64 = 0;
        let mut best: Option<(f64, Vec<u32>, usize)> = None;

        let fund = |i: usize,
                    cap: u64,
                    members: &mut Vec<Box<dyn AnytimeScheduler>>,
                    spent: &mut Vec<u64>,
                    scores: &mut Vec<f64>,
                    done: &mut Vec<bool>,
                    total: &mut u64,
                    best: &mut Option<(f64, Vec<u32>, usize)>| {
            // At least one step per funding call; after that, stop before
            // a step that would overshoot the cap (estimated by the
            // previous step's cost — steps are constant-cost per member
            // except the first, which also carries the init charge).
            let mut used = 0u64;
            let mut last = 0u64;
            while !done[i] && *total < budget {
                if used > 0 && used.saturating_add(last) > cap {
                    break;
                }
                let rep = members[i].step(cache);
                used += rep.units;
                last = rep.units;
                spent[i] += rep.units;
                *total += rep.units;
                scores[i] = rep.incumbent_score;
                done[i] = rep.done;
                if best
                    .as_ref()
                    .is_none_or(|(b, _, _)| rep.incumbent_score < *b)
                {
                    *best = Some((rep.incumbent_score, members[i].incumbent(), i));
                }
                if used >= cap {
                    break;
                }
            }
        };

        // Successive-halving rounds. The quantum doubles after the first
        // cut and then holds: later cuts compare members at meaningfully
        // deeper run fractions — shallow-cut races are what prune
        // late-converging families (GA) in favor of fast starters — while
        // the cap keeps the runner-up's sunk cost bounded so the whole
        // race stays well under the run-everyone portfolio cost.
        let mut round_quantum = quantum;
        while active.len() > 1 && total < budget && active.iter().any(|&i| !done[i]) {
            for &i in &active.clone() {
                fund(
                    i,
                    round_quantum,
                    &mut members,
                    &mut spent,
                    &mut scores,
                    &mut done,
                    &mut total,
                    &mut best,
                );
            }
            round_quantum = round_quantum
                .saturating_mul(2)
                .min(quantum.saturating_mul(2));
            let keep = active.len().div_ceil(2);
            active.sort_by(|&a, &b| {
                scores[a]
                    .total_cmp(&scores[b])
                    .then(priority[a].cmp(&priority[b]))
            });
            active.truncate(keep);
        }
        // The survivor completes its standalone run on its unchanged RNG
        // path — the exact never-worse anchor.
        if let [survivor] = active[..] {
            fund(
                survivor,
                u64::MAX,
                &mut members,
                &mut spent,
                &mut scores,
                &mut done,
                &mut total,
                &mut best,
            );
        }

        let (best_score, genes, winner_idx) = best.expect("every member stepped at least once");
        // Final standings by observed score (ties break by funding
        // priority) feed the book.
        let mut standing: Vec<usize> = (0..n).collect();
        standing.sort_by(|&a, &b| {
            scores[a]
                .total_cmp(&scores[b])
                .then(priority[a].cmp(&priority[b]))
        });
        let mut ranks = [0usize; ROSTER_SIZE];
        for (rank, &idx) in standing.iter().enumerate() {
            ranks[idx] = rank;
        }
        self.book.record(&key, &ranks);

        self.last_report = Some(RaceReport {
            winner: members[winner_idx].name(),
            best_score,
            total_units: total,
            portfolio_units,
            spent: members
                .iter()
                .zip(spent.iter())
                .map(|(m, &u)| (m.name(), u))
                .collect(),
        });
        Assignment::new(genes.into_iter().map(VmId).collect())
    }
}

impl Scheduler for RacingScheduler {
    fn name(&self) -> &'static str {
        "racing"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        self.schedule_with_cache(problem, &EvalCache::new(problem))
    }

    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        self.race(problem, cache, None)
    }

    fn schedule_warm(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        warm: &mut crate::warm::WarmState,
    ) -> Assignment {
        let plan = self.race(problem, cache, Some(warm));
        warm.note_plan(&plan);
        plan
    }

    fn last_meta(&self) -> Option<MetaProvenance> {
        self.last_report.as_ref().map(|r| MetaProvenance {
            winner: r.winner.to_string(),
            spent: r
                .spent
                .iter()
                .map(|(name, units)| (name.to_string(), *units))
                .collect(),
            total_units: r.total_units,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warm::WarmState;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn hetero_problem(vms: usize, cloudlets: usize) -> SchedulingProblem {
        let vm_specs: Vec<VmSpec> = (0..vms)
            .map(|i| VmSpec::new(500.0 + 650.0 * (i % 4) as f64, 5_000.0, 512.0, 500.0, 1))
            .collect();
        let cls: Vec<CloudletSpec> = (0..cloudlets)
            .map(|i| CloudletSpec::new(1_100.0 + 850.0 * (i % 6) as f64, 300.0, 300.0, 1))
            .collect();
        SchedulingProblem::single_datacenter(vm_specs, cls, CostModel::default())
    }

    fn small_params() -> RaceParams {
        RaceParams {
            target_units: Some(240),
            ..RaceParams::new(Objective::Makespan)
        }
    }

    #[test]
    fn produces_valid_plans_with_provenance() {
        let p = hetero_problem(6, 40);
        let mut racer = RacingScheduler::new(small_params(), 3);
        let plan = racer.schedule(&p);
        assert!(plan.validate(&p).is_ok());
        assert_eq!(plan.len(), 40);
        let report = racer.last_report().expect("race ran");
        assert!(report.spent.iter().any(|(name, _)| *name == report.winner));
        assert!(report.total_units > 0);
        assert_eq!(report.spent.len(), ROSTER_SIZE);
        assert!(
            report.spent.iter().all(|(_, u)| *u > 0),
            "{:?}",
            report.spent
        );
        let meta = racer.last_meta().expect("provenance exported");
        assert_eq!(meta.winner, report.winner);
        assert_eq!(meta.total_units, report.total_units);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = hetero_problem(5, 30);
        let run = |seed| {
            let mut racer = RacingScheduler::new(small_params(), seed);
            let plan = racer.schedule(&p);
            let report = racer.last_report().cloned().expect("race ran");
            (plan, report)
        };
        let (a, ra) = run(9);
        let (b, rb) = run(9);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        let (c, _) = run(10);
        assert_ne!(a, c);
    }

    #[test]
    fn racer_spends_well_under_the_portfolio_budget() {
        let p = hetero_problem(8, 64);
        let mut racer = RacingScheduler::new(RaceParams::new(Objective::Makespan), 5);
        racer.schedule(&p);
        let report = racer.last_report().expect("race ran");
        assert!(
            (report.total_units as f64) <= 0.35 * report.portfolio_units as f64,
            "race spent {} of portfolio {}",
            report.total_units,
            report.portfolio_units
        );
    }

    #[test]
    fn never_worse_than_any_member_standalone() {
        // Each member standalone at its full racing budget vs the racer:
        // the racer's plan must score at least as well (the survivor
        // anchor makes this exact for the winner; deterministic seeds
        // make it stable for the eliminated members).
        let p = hetero_problem(6, 48);
        let cache = EvalCache::new(&p);
        let objective = Objective::Makespan;
        let params = small_params();
        let seed = 7;
        let mut racer = RacingScheduler::new(params.clone(), seed);
        let plan = racer.schedule_with_cache(&p, &cache);
        let raced = cache.score(plan.as_slice(), objective);
        let target = params.resolved_target(p.cloudlet_count());
        // round_seed(0) == seed: members standalone see the same streams.
        let mut members = build_roster(seed, objective, target, &p, &cache, None);
        for member in members.iter_mut() {
            loop {
                let rep = member.step(&cache);
                if rep.done {
                    assert!(
                        raced <= rep.incumbent_score + 1e-9,
                        "racer {raced} lost to standalone {} at {}",
                        member.name(),
                        rep.incumbent_score
                    );
                    break;
                }
            }
        }
    }

    #[test]
    fn budget_cap_binds() {
        let p = hetero_problem(6, 40);
        let params = RaceParams {
            budget: Some(100),
            ..small_params()
        };
        let mut racer = RacingScheduler::new(params, 11);
        let plan = racer.schedule(&p);
        assert!(plan.validate(&p).is_ok());
        let report = racer.last_report().expect("race ran");
        // The cap is checked between steps, so the overshoot is at most
        // one step of the member that crossed it — the largest being
        // cuckoo-SOS's init-carrying first step (population + 3×population
        // units).
        assert!(
            report.total_units <= 100 + 64,
            "spent {}",
            report.total_units
        );
    }

    #[test]
    fn book_learns_and_reorders() {
        let mut book = RaceBook::new();
        let key = "v3:r2";
        assert_eq!(book.order(key), [0, 1, 2, 3, 4, 5]);
        // Member 4 keeps winning, member 0 keeps losing.
        book.record(key, &[5, 1, 2, 3, 0, 4]);
        book.record(key, &[5, 2, 1, 3, 0, 4]);
        let order = book.order(key);
        assert_eq!(order[0], 4);
        assert_eq!(order[5], 0);
        assert_eq!(book.stats[key][0].races, 2);
    }

    #[test]
    fn book_persists_across_rounds_on_one_instance() {
        let p = hetero_problem(6, 40);
        let mut racer = RacingScheduler::new(small_params(), 13);
        let key = RaceBook::family_key(&EvalCache::new(&p));
        racer.schedule(&p);
        assert_eq!(racer.book.stats[&key][0].races, 1);
        racer.schedule(&p);
        assert_eq!(racer.book.stats[&key][0].races, 2);
    }

    #[test]
    fn warm_race_is_deterministic_and_notes_plan() {
        let p = hetero_problem(6, 36);
        let cache = EvalCache::new(&p);
        let run = || {
            let mut warm = WarmState::default();
            let mut racer = RacingScheduler::new(small_params(), 17);
            let first = racer.schedule_warm(&p, &cache, &mut warm);
            assert!(warm.incumbent.is_some(), "plan noted for the next wave");
            let second = racer.schedule_warm(&p, &cache, &mut warm);
            (first, second)
        };
        let (a1, a2) = run();
        let (b1, b2) = run();
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    #[test]
    fn family_key_buckets_scale() {
        let small = EvalCache::new(&hetero_problem(8, 32));
        let big = EvalCache::new(&hetero_problem(8, 1024));
        assert_eq!(RaceBook::family_key(&small), "v3:r2");
        assert_ne!(RaceBook::family_key(&small), RaceBook::family_key(&big));
    }

    #[test]
    fn empty_workload_short_circuits() {
        let p = SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default()],
            vec![],
            CostModel::free(),
        );
        let mut racer = RacingScheduler::new(RaceParams::default(), 1);
        assert!(racer.schedule(&p).is_empty());
        assert_eq!(racer.last_report().unwrap().total_units, 0);
    }

    #[test]
    fn params_validation() {
        assert!(RaceParams {
            quantum: Some(0),
            ..RaceParams::default()
        }
        .validate()
        .is_err());
        assert!(RaceParams {
            target_units: Some(0),
            ..RaceParams::default()
        }
        .validate()
        .is_err());
        assert!(RaceParams::default().validate().is_ok());
    }
}
