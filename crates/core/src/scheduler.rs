//! The `Scheduler` trait and the algorithm registry.

use crate::aco::{AcoParams, AntColony};
use crate::assignment::Assignment;
use crate::baselines::{BestFit, LeastConnection, ShortestJobFirst, WeightedRoundRobin};
use crate::cuckoo_sos::{CsosParams, CuckooSos};
use crate::eval::EvalCache;
use crate::ga::{GaParams, Genetic};
use crate::gsa::{Gsa, GsaParams};
use crate::hbo::{HboParams, HoneyBee};
use crate::hybrid::Hybrid;
use crate::minmax::{MaxMin, MinMin};
use crate::objective::Objective;
use crate::portfolio::Portfolio;
use crate::problem::SchedulingProblem;
use crate::pso::{ParticleSwarm, PsoParams};
use crate::racing::{RaceParams, RacingScheduler};
use crate::rbs::{RandomBiasedSampling, RbsParams};
use crate::round_robin::RoundRobin;
use crate::warm::WarmState;

/// Provenance exported by meta-schedulers (portfolio, racer): which
/// member's plan was returned and what each member cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaProvenance {
    /// Name of the member whose plan won.
    pub winner: String,
    /// Per-member budget spent, in deterministic evaluation units
    /// (full-assignment evaluations; 1 for one-shot heuristics).
    pub spent: Vec<(String, u64)>,
    /// Total units spent across all members.
    pub total_units: u64,
}

/// A cloudlet→VM scheduling algorithm.
///
/// Implementations are deterministic for a fixed construction seed; calling
/// [`Scheduler::schedule`] twice on the same problem may advance internal
/// RNG state (matching how the paper's schedulers run round after round).
pub trait Scheduler: Send {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Computes a complete assignment for `problem`.
    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment;

    /// Computes a complete assignment reusing a prebuilt [`EvalCache`].
    ///
    /// `cache` must have been built from this exact `problem`. The sweep
    /// pipeline builds one cache per scenario point and shares it across
    /// every algorithm and repetition at that point; the assignment must be
    /// byte-identical to what [`Scheduler::schedule`] produces, because
    /// `EvalCache` construction is deterministic. The default ignores the
    /// cache and calls `schedule`, so external implementations keep working
    /// unchanged (they just rebuild their own state as before).
    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        let _ = cache;
        self.schedule(problem)
    }

    /// Computes an assignment for one wave of the streaming broker,
    /// reading and updating the [`WarmState`] carried between waves.
    ///
    /// The default delegates to [`Scheduler::schedule_with_cache`] and
    /// records the plan as the next wave's incumbent — correct for every
    /// kind whose cross-round state already lives inside the instance
    /// (round-robin's cursor, least-connection's load vector). ACO, GA
    /// and PSO override this to consume the warm state (pheromone
    /// matrix, incumbent-seeded population). Warm plans are *not*
    /// claimed equal to cold plans; each mode is separately
    /// deterministic per seed at any thread count.
    fn schedule_warm(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        warm: &mut WarmState,
    ) -> Assignment {
        let plan = self.schedule_with_cache(problem, cache);
        warm.note_plan(&plan);
        plan
    }

    /// Provenance of the most recent scheduling decision, for
    /// meta-schedulers that pick among members (portfolio, racer).
    /// Single-algorithm schedulers keep the `None` default.
    fn last_meta(&self) -> Option<MetaProvenance> {
        None
    }
}

/// Every algorithm in the study, constructible by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// CloudSim's default cyclic binder — the paper's Base Test.
    BaseTest,
    /// Ant Colony Optimization (Section IV).
    AntColony,
    /// Honey Bee Optimization (Section III).
    HoneyBee,
    /// Random Biased Sampling (Section V).
    Rbs,
    /// Min-Min greedy baseline (related work, \[4\]).
    MinMin,
    /// Max-Min greedy baseline (related work, \[4\]).
    MaxMin,
    /// Discrete Particle Swarm Optimization (related work, \[18\]/\[23\]).
    Pso,
    /// Genetic Algorithm (related work, \[6\]/\[31\]).
    Ga,
    /// The paper's future-work adaptive hybrid, fixed to an objective.
    Hybrid(Objective),
    /// Least-connection balancer (production baseline, streaming PR).
    LeastConnection,
    /// Weighted round-robin balancer (production baseline, streaming PR).
    WeightedRoundRobin,
    /// Shortest-job-first greedy baseline (related-work survey staple).
    Sjf,
    /// Best-fit greedy baseline: min estimated finish per cloudlet.
    BestFit,
    /// Discrete cuckoo search / symbiotic organisms search hybrid
    /// (related work, arXiv 2311.15358).
    CuckooSos,
    /// Discrete gravitational search (related work, arXiv 2311.07004).
    Gsa,
    /// Run-everyone portfolio over the paper set, fixed to an objective.
    Portfolio(Objective),
    /// Anytime racing meta-scheduler, fixed to an objective.
    Racing(Objective),
}

impl AlgorithmKind {
    /// The four algorithms the paper's figures compare.
    pub const PAPER_SET: [AlgorithmKind; 4] = [
        AlgorithmKind::AntColony,
        AlgorithmKind::BaseTest,
        AlgorithmKind::HoneyBee,
        AlgorithmKind::Rbs,
    ];

    /// Display label (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            AlgorithmKind::BaseTest => "Base Test",
            AlgorithmKind::AntColony => "AntColony",
            AlgorithmKind::HoneyBee => "HoneyBee",
            AlgorithmKind::Rbs => "RBS",
            AlgorithmKind::MinMin => "MinMin",
            AlgorithmKind::MaxMin => "MaxMin",
            AlgorithmKind::Pso => "PSO",
            AlgorithmKind::Ga => "GA",
            AlgorithmKind::Hybrid(_) => "Hybrid",
            AlgorithmKind::LeastConnection => "LeastConn",
            AlgorithmKind::WeightedRoundRobin => "WeightedRR",
            AlgorithmKind::Sjf => "SJF",
            AlgorithmKind::BestFit => "BestFit",
            AlgorithmKind::CuckooSos => "CuckooSOS",
            AlgorithmKind::Gsa => "GSA",
            AlgorithmKind::Portfolio(_) => "Portfolio",
            AlgorithmKind::Racing(_) => "Racing",
        }
    }

    /// Instantiates the scheduler with default parameters and `seed`.
    pub fn build(self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            AlgorithmKind::BaseTest => Box::new(RoundRobin::new()),
            AlgorithmKind::AntColony => Box::new(AntColony::new(AcoParams::default(), seed)),
            AlgorithmKind::HoneyBee => Box::new(HoneyBee::new(HboParams::default(), seed)),
            AlgorithmKind::Rbs => Box::new(RandomBiasedSampling::new(RbsParams::default(), seed)),
            AlgorithmKind::MinMin => Box::new(MinMin::new()),
            AlgorithmKind::MaxMin => Box::new(MaxMin::new()),
            AlgorithmKind::Pso => Box::new(ParticleSwarm::new(PsoParams::standard(), seed)),
            AlgorithmKind::Ga => Box::new(Genetic::new(GaParams::standard(), seed)),
            AlgorithmKind::Hybrid(objective) => Box::new(Hybrid::new(objective, seed)),
            AlgorithmKind::LeastConnection => Box::new(LeastConnection::new()),
            AlgorithmKind::WeightedRoundRobin => Box::new(WeightedRoundRobin::new()),
            AlgorithmKind::Sjf => Box::new(ShortestJobFirst::new()),
            AlgorithmKind::BestFit => Box::new(BestFit::new()),
            AlgorithmKind::CuckooSos => Box::new(CuckooSos::new(CsosParams::standard(), seed)),
            AlgorithmKind::Gsa => Box::new(Gsa::new(GsaParams::standard(), seed)),
            AlgorithmKind::Portfolio(objective) => Box::new(Portfolio::paper_set(objective, seed)),
            AlgorithmKind::Racing(objective) => {
                Box::new(RacingScheduler::new(RaceParams::new(objective), seed))
            }
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn small_problem() -> SchedulingProblem {
        SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default(); 3],
            vec![CloudletSpec::homogeneous_default(); 10],
            CostModel::default(),
        )
    }

    #[test]
    fn every_kind_builds_and_schedules() {
        let p = small_problem();
        let kinds = [
            AlgorithmKind::BaseTest,
            AlgorithmKind::AntColony,
            AlgorithmKind::HoneyBee,
            AlgorithmKind::Rbs,
            AlgorithmKind::MinMin,
            AlgorithmKind::MaxMin,
            AlgorithmKind::Pso,
            AlgorithmKind::Ga,
            AlgorithmKind::Hybrid(Objective::Makespan),
            AlgorithmKind::LeastConnection,
            AlgorithmKind::WeightedRoundRobin,
            AlgorithmKind::Sjf,
            AlgorithmKind::BestFit,
            AlgorithmKind::CuckooSos,
            AlgorithmKind::Gsa,
            AlgorithmKind::Portfolio(Objective::Makespan),
            AlgorithmKind::Racing(Objective::Makespan),
        ];
        for kind in kinds {
            let mut s = kind.build(42);
            let a = s.schedule(&p);
            a.validate(&p)
                .unwrap_or_else(|e| panic!("{} produced invalid assignment: {e}", s.name()));
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let p = small_problem();
        for kind in AlgorithmKind::PAPER_SET {
            let a = kind.build(7).schedule(&p);
            let b = kind.build(7).schedule(&p);
            assert_eq!(a, b, "{kind} must be deterministic for a fixed seed");
        }
    }

    #[test]
    fn shared_cache_matches_private_cache_for_every_kind() {
        let p = small_problem();
        let cache = EvalCache::new(&p);
        let kinds = [
            AlgorithmKind::BaseTest,
            AlgorithmKind::AntColony,
            AlgorithmKind::HoneyBee,
            AlgorithmKind::Rbs,
            AlgorithmKind::MinMin,
            AlgorithmKind::MaxMin,
            AlgorithmKind::Pso,
            AlgorithmKind::Ga,
            AlgorithmKind::Hybrid(Objective::Makespan),
            AlgorithmKind::Hybrid(Objective::Cost),
            AlgorithmKind::Hybrid(Objective::Balance),
            AlgorithmKind::LeastConnection,
            AlgorithmKind::WeightedRoundRobin,
            AlgorithmKind::Sjf,
            AlgorithmKind::BestFit,
            AlgorithmKind::CuckooSos,
            AlgorithmKind::Gsa,
            AlgorithmKind::Portfolio(Objective::Makespan),
            AlgorithmKind::Racing(Objective::Makespan),
        ];
        for kind in kinds {
            for seed in [7u64, 42, 1_234] {
                let private = kind.build(seed).schedule(&p);
                let shared = kind.build(seed).schedule_with_cache(&p, &cache);
                assert_eq!(
                    private, shared,
                    "{kind} seed {seed}: shared-cache path must be byte-identical"
                );
            }
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(AlgorithmKind::BaseTest.label(), "Base Test");
        assert_eq!(AlgorithmKind::AntColony.to_string(), "AntColony");
        assert_eq!(AlgorithmKind::PAPER_SET.len(), 4);
    }
}
