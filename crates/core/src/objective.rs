//! Scheduling objectives.
//!
//! The paper's central observation is that no single bio-inspired scheduler
//! wins on every axis: ACO wins when *computation power* is the objective,
//! HBO when *cost* is. [`Objective`] names the axes, and
//! [`score_assignment`] evaluates an assignment against one — used by the
//! adaptive hybrid scheduler (the paper's future-work proposal) and by
//! tests that verify each algorithm actually optimizes its own objective.

use crate::assignment::Assignment;
use crate::eval::EvalCache;
use crate::problem::SchedulingProblem;

/// What a scheduler should optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize total completion time (the paper's "computation power").
    #[default]
    Makespan,
    /// Minimize processing cost (Section VI-C-4).
    Cost,
    /// Minimize the degree of time imbalance (Eq. 13).
    Balance,
}

impl Objective {
    /// All objectives, for exhaustive sweeps.
    pub const ALL: [Objective; 3] = [Objective::Makespan, Objective::Cost, Objective::Balance];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Objective::Makespan => "makespan",
            Objective::Cost => "cost",
            Objective::Balance => "balance",
        }
    }
}

/// Predicted score of an assignment under an objective — *lower is better*.
///
/// These are analytic estimates from Eq. 6 (no simulation), suitable for
/// comparing candidate assignments quickly:
///
/// * `Makespan` — the largest per-VM estimated busy time.
/// * `Cost` — total Eq. 1-style processing cost using estimated CPU time.
/// * `Balance` — the Eq. 13 imbalance over per-cloudlet estimated times.
///
/// This is the one-shot convenience wrapper over the evaluation kernel: it
/// builds a factor-only [`EvalCache`] per call. Callers that score many
/// assignments against the same problem (every population-based scheduler)
/// should build the cache once and use [`EvalCache::score`] /
/// [`crate::eval::evaluate_population`] directly — the results are
/// bit-identical.
pub fn score_assignment(
    problem: &SchedulingProblem,
    assignment: &Assignment,
    objective: Objective,
) -> f64 {
    EvalCache::new(problem).score(assignment.as_slice(), objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::ids::VmId;
    use simcloud::vm::VmSpec;

    fn problem() -> SchedulingProblem {
        SchedulingProblem::single_datacenter(
            vec![
                VmSpec::new(1_000.0, 100.0, 100.0, 500.0, 1),
                VmSpec::new(2_000.0, 100.0, 100.0, 500.0, 1),
            ],
            vec![CloudletSpec::new(1_000.0, 0.0, 0.0, 1); 4],
            CostModel::new(0.01, 0.001, 0.01, 3.0),
        )
    }

    #[test]
    fn makespan_score_prefers_balanced_fast_usage() {
        let p = problem();
        // All four on the slow VM: 4 x 1000ms = 4000ms makespan.
        let all_slow = Assignment::new(vec![VmId(0); 4]);
        // Spread 2/2: slow does 2000ms, fast does 1000ms.
        let spread = Assignment::new(vec![VmId(0), VmId(1), VmId(0), VmId(1)]);
        let s_slow = score_assignment(&p, &all_slow, Objective::Makespan);
        let s_spread = score_assignment(&p, &spread, Objective::Makespan);
        assert!(s_spread < s_slow);
        assert!((s_spread - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn balance_score_zero_for_identical_times() {
        let p = problem();
        // All on the same VM -> identical estimated per-cloudlet times.
        let a = Assignment::new(vec![VmId(1); 4]);
        assert_eq!(score_assignment(&p, &a, Objective::Balance), 0.0);
        // Mixed VMs -> imbalance > 0 (times 1000 vs 500).
        let b = Assignment::new(vec![VmId(0), VmId(1), VmId(0), VmId(1)]);
        assert!(score_assignment(&p, &b, Objective::Balance) > 0.0);
    }

    #[test]
    fn cost_score_sums_cloudlet_costs() {
        let p = problem();
        let a = Assignment::new(vec![VmId(0); 4]);
        let s = score_assignment(&p, &a, Objective::Cost);
        assert!(s > 0.0);
        // Doubling the workload doubles the cost estimate.
        let p2 = SchedulingProblem::single_datacenter(
            p.vms.clone(),
            vec![CloudletSpec::new(1_000.0, 0.0, 0.0, 1); 8],
            CostModel::new(0.01, 0.001, 0.01, 3.0),
        );
        let a2 = Assignment::new(vec![VmId(0); 8]);
        let s2 = score_assignment(&p2, &a2, Objective::Cost);
        assert!((s2 - 2.0 * s).abs() < 1e-9);
    }

    #[test]
    fn labels() {
        assert_eq!(Objective::Makespan.label(), "makespan");
        assert_eq!(Objective::ALL.len(), 3);
    }
}
