//! Portfolio meta-scheduler.
//!
//! A second reading of the paper's future-work proposal: instead of
//! *predicting* which algorithm suits the declared objective (the
//! [`crate::hybrid::Hybrid`] approach), run a portfolio of candidates and
//! *measure* which assignment scores best under the objective's analytic
//! estimate. Decision time is the sum of the candidates'; quality is, by
//! construction, the best of them — the classic algorithm-portfolio
//! trade-off.

//!
//! ```
//! use biosched_core::objective::Objective;
//! use biosched_core::portfolio::Portfolio;
//! use biosched_core::problem::SchedulingProblem;
//! use biosched_core::scheduler::Scheduler;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::new(500.0, 5000.0, 512.0, 500.0, 1),
//!          VmSpec::new(2000.0, 5000.0, 512.0, 500.0, 1)],
//!     vec![CloudletSpec::new(4_000.0, 300.0, 300.0, 1); 8],
//!     CostModel::default(),
//! );
//! let mut portfolio = Portfolio::paper_set(Objective::Makespan, 42);
//! let plan = portfolio.schedule(&problem);
//! assert!(plan.validate(&problem).is_ok());
//! assert!(portfolio.last_meta().is_some());
//! ```
use crate::assignment::Assignment;
use crate::eval::EvalCache;
use crate::objective::Objective;
use crate::problem::SchedulingProblem;
use crate::scheduler::{AlgorithmKind, MetaProvenance, Scheduler};

/// Runs every candidate and keeps the best-scoring assignment.
pub struct Portfolio {
    candidates: Vec<Box<dyn Scheduler>>,
    objective: Objective,
    /// Which candidate won the most recent round (diagnostics).
    last_winner: Option<usize>,
}

impl Portfolio {
    /// Builds a portfolio from explicit candidates; an empty list is an
    /// error.
    pub fn new(candidates: Vec<Box<dyn Scheduler>>, objective: Objective) -> Result<Self, String> {
        if candidates.is_empty() {
            return Err("portfolio needs candidates".into());
        }
        Ok(Portfolio {
            candidates,
            objective,
            last_winner: None,
        })
    }

    /// The paper's four studied algorithms as a portfolio.
    pub fn paper_set(objective: Objective, seed: u64) -> Self {
        Portfolio::new(
            AlgorithmKind::PAPER_SET
                .iter()
                .map(|k| k.build(seed))
                .collect(),
            objective,
        )
        .expect("the paper set is non-empty")
    }

    /// The objective candidates compete on.
    pub fn objective(&self) -> Objective {
        self.objective
    }
}

impl Scheduler for Portfolio {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        // One cache runs and scores every candidate's plan this round.
        self.schedule_with_cache(problem, &EvalCache::new(problem))
    }

    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        let mut best: Option<(usize, f64, Assignment)> = None;
        for (i, candidate) in self.candidates.iter_mut().enumerate() {
            let assignment = candidate.schedule_with_cache(problem, cache);
            debug_assert!(assignment.validate(problem).is_ok());
            let score = cache.score(assignment.as_slice(), self.objective);
            if best.as_ref().is_none_or(|(_, s, _)| score < *s) {
                best = Some((i, score, assignment));
            }
        }
        let (winner, _, assignment) = best.expect("portfolio has candidates");
        self.last_winner = Some(winner);
        assignment
    }

    fn last_meta(&self) -> Option<MetaProvenance> {
        // Every candidate runs to completion each round; in the racer's
        // evaluation-unit currency that is one full decision per member.
        self.last_winner.map(|i| MetaProvenance {
            winner: self.candidates[i].name().to_string(),
            spent: self
                .candidates
                .iter()
                .map(|c| (c.name().to_string(), 1))
                .collect(),
            total_units: self.candidates.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aco::{AcoParams, AntColony};
    use crate::hbo::{HboParams, HoneyBee};
    use crate::objective::score_assignment;
    use crate::round_robin::RoundRobin;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn problem() -> SchedulingProblem {
        let vms: Vec<VmSpec> = (0..8)
            .map(|i| VmSpec::new(500.0 + 450.0 * i as f64, 5_000.0, 512.0, 500.0, 1))
            .collect();
        let cls: Vec<CloudletSpec> = (0..40)
            .map(|i| CloudletSpec::new(1_000.0 + 480.0 * i as f64, 300.0, 300.0, 1))
            .collect();
        SchedulingProblem::single_datacenter(vms, cls, CostModel::default())
    }

    fn fast_portfolio(objective: Objective) -> Portfolio {
        Portfolio::new(
            vec![
                Box::new(RoundRobin::new()),
                Box::new(AntColony::new(AcoParams::fast(), 1)),
                Box::new(HoneyBee::new(HboParams::paper(), 1)),
            ],
            objective,
        )
        .expect("non-empty candidates")
    }

    #[test]
    fn never_worse_than_any_candidate() {
        let p = problem();
        let portfolio_score = {
            let mut portfolio = fast_portfolio(Objective::Makespan);
            let a = portfolio.schedule(&p);
            score_assignment(&p, &a, Objective::Makespan)
        };
        for mut candidate in [
            Box::new(RoundRobin::new()) as Box<dyn Scheduler>,
            Box::new(AntColony::new(AcoParams::fast(), 1)),
            Box::new(HoneyBee::new(HboParams::paper(), 1)),
        ] {
            let s = score_assignment(&p, &candidate.schedule(&p), Objective::Makespan);
            assert!(
                portfolio_score <= s + 1e-9,
                "portfolio {portfolio_score} lost to {} ({s})",
                candidate.name()
            );
        }
    }

    #[test]
    fn reports_the_winner() {
        let p = problem();
        let mut portfolio = fast_portfolio(Objective::Makespan);
        assert!(portfolio.last_meta().is_none());
        let _ = portfolio.schedule(&p);
        let winner = portfolio.last_meta().expect("a round was run").winner;
        assert!(["base-test", "ant-colony", "honey-bee"].contains(&winner.as_str()));
    }

    #[test]
    fn objective_steers_the_winner() {
        // On a strongly heterogeneous problem the makespan portfolio picks
        // a load/speed-aware candidate, not the blind cycle.
        let p = problem();
        let mut portfolio = fast_portfolio(Objective::Makespan);
        let _ = portfolio.schedule(&p);
        let winner = portfolio.last_meta().expect("a round was run").winner;
        assert_ne!(winner, "base-test");
        assert_eq!(portfolio.objective(), Objective::Makespan);
    }

    #[test]
    fn paper_set_portfolio_schedules_validly() {
        let p = problem();
        let mut portfolio = Portfolio::paper_set(Objective::Cost, 5);
        let a = portfolio.schedule(&p);
        assert!(a.validate(&p).is_ok());
    }

    #[test]
    fn empty_portfolio_rejected() {
        let err = Portfolio::new(vec![], Objective::Makespan).err();
        assert!(err.is_some_and(|e| e.contains("candidates")));
    }
}
