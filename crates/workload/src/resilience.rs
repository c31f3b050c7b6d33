//! Fault-injection experiments: chaos campaigns, fault-aware
//! rescheduling and resilience metrics.
//!
//! The simulator's fault layer ([`simcloud::faults`]) replays a seeded
//! chaos timeline and the broker retries orphaned cloudlets under a
//! [`RecoveryPolicy`]. This module closes the loop at the experiment
//! level: [`CacheRescheduler`] adapts any study [`Scheduler`] into the
//! broker's [`Rescheduler`] slot — retry batches are re-planned by the
//! *same* algorithm that produced the initial assignment, over the fleet
//! that is actually alive (and at its degraded speeds) — and
//! [`resilience_sweep`] measures how each algorithm degrades as the host
//! failure rate climbs.

use biosched_core::eval::EvalCache;
use biosched_core::problem::SchedulingProblem;
use biosched_core::scheduler::{AlgorithmKind, Scheduler};
use rayon::prelude::*;
use simcloud::broker::{RecoveryPolicy, Rescheduler};
use simcloud::error::SimError;
use simcloud::faults::{FaultPlan, FaultSpec};
use simcloud::ids::{CloudletId, VmId};
use simcloud::kernel::World;
use simcloud::simulation::EngineKind;
use simcloud::stats::{RecordMode, SimulationOutcome};
use simcloud::time::SimTime;

use crate::scenario::Scenario;
use crate::sweep::{summarize, RepeatedMetric};

/// Adapts a study [`Scheduler`] into the broker's [`Rescheduler`] slot.
///
/// Each retry batch becomes a fresh sub-problem over the VMs that are
/// alive *now*, with each VM's MIPS scaled to its current effective rate
/// (so stragglers look slow to the algorithm, exactly as they are), and
/// the wrapped scheduler re-plans it through `schedule_with_cache` — its
/// internal state (ACO pheromones and RNG, the Base Test's cursor)
/// carries across rounds like a resident broker-side scheduler's would.
/// Sub-problem VM indices are mapped back to real fleet ids before the
/// plan is returned.
pub struct CacheRescheduler {
    scheduler: Box<dyn Scheduler>,
    problem: SchedulingProblem,
}

impl CacheRescheduler {
    /// Wraps `scheduler` for retry planning over `problem`'s workload.
    ///
    /// `problem` must be the same scheduler-facing view the initial
    /// assignment was computed from ([`Scenario::problem`]).
    pub fn new(scheduler: Box<dyn Scheduler>, problem: SchedulingProblem) -> Self {
        CacheRescheduler { scheduler, problem }
    }
}

impl Rescheduler for CacheRescheduler {
    fn replan(&mut self, world: &World, _now: SimTime, batch: &[CloudletId]) -> Vec<VmId> {
        let alive: Vec<VmId> = world
            .vms
            .iter()
            .filter(|v| v.is_active())
            .map(|v| v.id)
            .collect();
        if alive.is_empty() {
            // Nothing to plan onto; the broker re-queues the batch.
            return vec![VmId(0); batch.len()];
        }
        let vms = alive
            .iter()
            .map(|&id| {
                let vm = world.vm(id);
                let mut spec = self.problem.vms[id.index()].clone();
                spec.mips = vm.effective_mips();
                spec
            })
            .collect();
        let placement = alive
            .iter()
            .map(|&id| self.problem.vm_placement[id.index()])
            .collect();
        let cloudlets = batch
            .iter()
            .map(|&c| self.problem.cloudlets[c.index()].clone())
            .collect();
        let sub =
            SchedulingProblem::new(vms, cloudlets, self.problem.datacenters.clone(), placement)
                .expect("alive-fleet sub-problems inherit scenario consistency");
        let cache = EvalCache::new(&sub);
        let plan = self.scheduler.schedule_with_cache(&sub, &cache);
        assert_eq!(
            plan.len(),
            batch.len(),
            "rescheduler returned a partial plan"
        );
        (0..batch.len())
            .map(|slot| alive[plan.vm_for(slot).index()])
            .collect()
    }
}

/// Arms `scenario` with a generated chaos timeline and a retry policy.
///
/// The plan is drawn from `(spec, fault_seed)` over the scenario's own
/// fleet shape ([`Scenario::host_counts`]), so the same seed reproduces
/// the same timeline on every rerun and at every thread count.
pub fn inject_faults(
    scenario: &mut Scenario,
    spec: &FaultSpec,
    fault_seed: u64,
    policy: RecoveryPolicy,
) {
    let plan = FaultPlan::generate(
        spec,
        fault_seed,
        &scenario.host_counts(),
        scenario.vm_count(),
    );
    scenario.faults = Some(plan);
    scenario.recovery = Some(policy);
}

/// Resilience metrics for one (faulted scenario, algorithm) run.
#[derive(Debug, Clone)]
pub struct ResiliencePointResult {
    /// Algorithm that planned (and re-planned) the work.
    pub algorithm: AlgorithmKind,
    /// Fraction of observed cloudlets that finished.
    pub completion_ratio: f64,
    /// Useful execution time over total (useful + wasted) execution time.
    pub goodput: f64,
    /// Broker resubmissions that actually went back out.
    pub retries: u64,
    /// Cloudlets abandoned after exhausting their retry budget.
    pub abandoned: u64,
    /// Execution time lost to failures, in ms.
    pub wasted_work_ms: f64,
    /// Mean failure→completion gap over recovered cloudlets, in ms
    /// (0 when nothing needed recovering).
    pub mttr_ms: f64,
    /// Eq. 12 simulated makespan in ms.
    pub simulation_time_ms: f64,
    /// Cloudlets that finished.
    pub finished: usize,
}

/// Runs one algorithm over a faulted scenario with fault-aware retries.
///
/// The algorithm plans the initial assignment, then the *same* scheduler
/// instance re-plans every retry batch via [`CacheRescheduler`]. The
/// scenario must carry a [`RecoveryPolicy`] (see [`inject_faults`]);
/// an un-faulted scenario degenerates to a plain [`crate::sweep`] point
/// with perfect resilience metrics. Both engines produce bit-identical
/// results; [`EngineKind::Sharded`] replays the bulk of the timeline in
/// parallel between fault instants.
pub fn run_resilient_point(
    scenario: &Scenario,
    algorithm: AlgorithmKind,
    seed: u64,
    engine: EngineKind,
) -> Result<ResiliencePointResult, SimError> {
    let problem = scenario.problem();
    let cache = EvalCache::new(&problem);
    let mut scheduler = algorithm.build(seed);
    let assignment = scheduler.schedule_with_cache(&problem, &cache);
    assignment
        .validate(&problem)
        .unwrap_or_else(|e| panic!("{algorithm} produced an invalid assignment: {e}"));
    let rescheduler = CacheRescheduler::new(scheduler, problem);
    let outcome = scenario.simulate_resilient(
        assignment,
        engine,
        RecordMode::Aggregate,
        Box::new(rescheduler),
    )?;
    Ok(point_from_outcome(algorithm, &outcome))
}

fn point_from_outcome(
    algorithm: AlgorithmKind,
    outcome: &SimulationOutcome,
) -> ResiliencePointResult {
    ResiliencePointResult {
        algorithm,
        completion_ratio: outcome.completion_ratio().unwrap_or(1.0),
        goodput: outcome.goodput().unwrap_or(1.0),
        retries: outcome.resilience.retries,
        abandoned: outcome.resilience.abandoned,
        wasted_work_ms: outcome.resilience.wasted_work_ms,
        mttr_ms: outcome.mean_time_to_recovery_ms().unwrap_or(0.0),
        simulation_time_ms: outcome.simulation_time_ms().unwrap_or(0.0),
        finished: outcome.finished_count(),
    }
}

/// [`ResiliencePointResult`] aggregated over repeated seeds, with ~95%
/// confidence intervals.
#[derive(Debug, Clone)]
pub struct ResilienceSummary {
    /// Algorithm that produced the points.
    pub algorithm: AlgorithmKind,
    /// Repetitions aggregated.
    pub reps: usize,
    /// Completion ratio over reps.
    pub completion_ratio: RepeatedMetric,
    /// Goodput over reps.
    pub goodput: RepeatedMetric,
    /// Retry count over reps.
    pub retries: RepeatedMetric,
    /// Wasted work over reps, in ms.
    pub wasted_work_ms: RepeatedMetric,
    /// Mean time to recovery over reps, in ms.
    pub mttr_ms: RepeatedMetric,
    /// Makespan over reps, in ms.
    pub simulation_time_ms: RepeatedMetric,
}

/// Sweeps algorithms over a grid of chaos intensities.
///
/// For each `fail_fractions[i]`, `make_scenario(seed)` builds the rep's
/// workload, [`inject_faults`] arms it with `spec` at that host-failure
/// fraction (fault seed = workload seed), and every algorithm runs
/// [`run_resilient_point`]. Reps use seeds `base_seed..base_seed + reps`
/// as one flat rayon work list; results come back `[fraction][algorithm]`
/// with CIs over reps. Deterministic for fixed seeds at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn resilience_sweep<F>(
    fail_fractions: &[f64],
    algorithms: &[AlgorithmKind],
    spec: &FaultSpec,
    policy: RecoveryPolicy,
    base_seed: u64,
    reps: usize,
    engine: EngineKind,
    make_scenario: F,
) -> Vec<Vec<ResilienceSummary>>
where
    F: Fn(u64) -> Scenario + Sync,
{
    assert!(reps > 0, "need at least one repetition");
    let a = algorithms.len();
    let tasks: Vec<(usize, usize, usize)> = (0..fail_fractions.len())
        .flat_map(|fi| (0..reps).flat_map(move |ri| (0..a).map(move |ai| (fi, ri, ai))))
        .collect();
    let flat: Vec<ResiliencePointResult> = tasks
        .par_iter()
        .map(|&(fi, ri, ai)| {
            let seed = base_seed + ri as u64;
            let mut scenario = make_scenario(seed);
            let mut spec = spec.clone();
            spec.host_fail_fraction = fail_fractions[fi];
            inject_faults(&mut scenario, &spec, seed, policy);
            run_resilient_point(&scenario, algorithms[ai], seed, engine)
                .unwrap_or_else(|e| panic!("resilience point failed: {e}"))
        })
        .collect();
    (0..fail_fractions.len())
        .map(|fi| {
            (0..a)
                .map(|ai| {
                    let per_rep: Vec<&ResiliencePointResult> = (0..reps)
                        .map(|ri| &flat[fi * reps * a + ri * a + ai])
                        .collect();
                    let pick = |f: fn(&ResiliencePointResult) -> f64| -> RepeatedMetric {
                        let values: Vec<f64> = per_rep.iter().map(|r| f(r)).collect();
                        summarize(&values)
                    };
                    ResilienceSummary {
                        algorithm: algorithms[ai],
                        reps,
                        completion_ratio: pick(|r| r.completion_ratio),
                        goodput: pick(|r| r.goodput),
                        retries: pick(|r| r.retries as f64),
                        wasted_work_ms: pick(|r| r.wasted_work_ms),
                        mttr_ms: pick(|r| r.mttr_ms),
                        simulation_time_ms: pick(|r| r.simulation_time_ms),
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heterogeneous::HeterogeneousScenario;

    /// A chaos campaign that repairs fast enough for a patient policy.
    fn gentle_spec(fail_fraction: f64) -> FaultSpec {
        FaultSpec {
            host_fail_fraction: fail_fraction,
            fail_window_ms: (500.0, 8_000.0),
            repair_after_ms: Some((2_000.0, 5_000.0)),
            straggler_fraction: 0.2,
            ..FaultSpec::default()
        }
    }

    /// A policy with enough budget to outlast every gentle repair.
    fn patient_policy() -> RecoveryPolicy {
        RecoveryPolicy {
            max_attempts: 6,
            base_backoff_ms: 500.0,
            backoff_factor: 2.0,
            max_backoff_ms: 4_000.0,
        }
    }

    fn scenario(seed: u64) -> Scenario {
        HeterogeneousScenario {
            vm_count: 8,
            cloudlet_count: 40,
            datacenter_count: 2,
            seed,
        }
        .build()
    }

    #[test]
    fn resilient_point_is_deterministic_and_engine_independent() {
        let mut s = scenario(3);
        inject_faults(&mut s, &gentle_spec(0.3), 7, patient_policy());
        let a =
            run_resilient_point(&s, AlgorithmKind::AntColony, 3, EngineKind::Sequential).unwrap();
        let b =
            run_resilient_point(&s, AlgorithmKind::AntColony, 3, EngineKind::Sequential).unwrap();
        let c = run_resilient_point(&s, AlgorithmKind::AntColony, 3, EngineKind::Sharded).unwrap();
        for other in [&b, &c] {
            assert_eq!(
                a.completion_ratio.to_bits(),
                other.completion_ratio.to_bits()
            );
            assert_eq!(a.goodput.to_bits(), other.goodput.to_bits());
            assert_eq!(a.wasted_work_ms.to_bits(), other.wasted_work_ms.to_bits());
            assert_eq!(a.retries, other.retries);
            assert_eq!(a.abandoned, other.abandoned);
            assert_eq!(a.mttr_ms.to_bits(), other.mttr_ms.to_bits());
            assert_eq!(a.finished, other.finished);
            assert_eq!(
                a.simulation_time_ms.to_bits(),
                other.simulation_time_ms.to_bits()
            );
        }
    }

    #[test]
    fn paper_set_survives_gentle_chaos() {
        // The acceptance bar: with repairs and a patient retry budget,
        // every paper algorithm keeps completion ratio at 1.0 and pays a
        // real (nonzero) resilience bill.
        let mut any_retries = false;
        for algorithm in AlgorithmKind::PAPER_SET {
            // 16 VMs over 2 DCs -> 4 hosts; at 0.9 some host fails with
            // near certainty, exercising the retry path for every
            // algorithm.
            let mut s = HeterogeneousScenario {
                vm_count: 16,
                cloudlet_count: 64,
                datacenter_count: 2,
                seed: 11,
            }
            .build();
            inject_faults(&mut s, &gentle_spec(0.9), 11, patient_policy());
            let r = run_resilient_point(&s, algorithm, 11, EngineKind::Sharded).unwrap();
            assert!(
                r.completion_ratio >= 0.99,
                "{algorithm} lost work under gentle chaos: {}",
                r.completion_ratio
            );
            assert_eq!(r.abandoned, 0, "{algorithm} abandoned cloudlets");
            any_retries |= r.retries > 0;
        }
        assert!(any_retries, "half the hosts failing must force retries");
    }

    #[test]
    fn faulted_run_reports_resilience_costs() {
        let mut s = scenario(5);
        inject_faults(&mut s, &gentle_spec(0.6), 5, patient_policy());
        let r =
            run_resilient_point(&s, AlgorithmKind::BaseTest, 5, EngineKind::Sequential).unwrap();
        if r.retries > 0 {
            assert!(r.goodput <= 1.0);
            assert!(r.mttr_ms > 0.0 || r.wasted_work_ms >= 0.0);
        }
        // The same workload unfaulted is perfectly resilient.
        let clean = scenario(5);
        let c = run_resilient_point(&clean, AlgorithmKind::BaseTest, 5, EngineKind::Sequential)
            .unwrap();
        assert_eq!(c.completion_ratio, 1.0);
        assert_eq!(c.goodput, 1.0);
        assert_eq!(c.retries, 0);
        assert_eq!(c.wasted_work_ms, 0.0);
    }

    #[test]
    fn full_and_aggregate_modes_agree_under_faults() {
        // A gentle campaign, and a total loss: inputs land at 4.8 s, then
        // every host dies for good a second or two into the first
        // attempts, long before any of them finishes.
        let total_loss = FaultSpec {
            host_fail_fraction: 1.0,
            fail_window_ms: (6_000.0, 7_000.0),
            repair_after_ms: None,
            straggler_fraction: 0.0,
            ..FaultSpec::default()
        };
        let outcomes: Vec<SimulationOutcome> = [gentle_spec(0.4), total_loss]
            .iter()
            .map(|spec| {
                let mut s = scenario(9);
                inject_faults(&mut s, spec, 9, patient_policy());
                let problem = s.problem();
                let cache = EvalCache::new(&problem);
                let run = |mode: RecordMode| {
                    let mut scheduler = AlgorithmKind::Rbs.build(9);
                    let assignment = scheduler.schedule_with_cache(&problem, &cache);
                    let rescheduler = CacheRescheduler::new(scheduler, problem.clone());
                    s.simulate_resilient(
                        assignment,
                        EngineKind::Sequential,
                        mode,
                        Box::new(rescheduler),
                    )
                    .unwrap()
                };
                let full = run(RecordMode::Full);
                let agg = run(RecordMode::Aggregate);
                assert_eq!(full.finished_count(), agg.finished_count());
                assert_eq!(full.failed_count(), agg.failed_count());
                assert_eq!(full.observed_count(), agg.observed_count());
                assert_eq!(full.resilience, agg.resilience);
                assert_eq!(full.total_cost().to_bits(), agg.total_cost().to_bits());
                assert_eq!(
                    full.goodput().map(f64::to_bits),
                    agg.goodput().map(f64::to_bits)
                );
                assert_eq!(
                    full.completion_ratio().map(f64::to_bits),
                    agg.completion_ratio().map(f64::to_bits)
                );
                agg
            })
            .collect();
        // Nothing finished but work was wasted: the empty sums read +0.0.
        let lost = &outcomes[1];
        assert_eq!(lost.finished_count(), 0);
        assert!(lost.resilience.wasted_work_ms > 0.0, "no attempt ran");
        assert_eq!(lost.total_cost().to_bits(), 0.0f64.to_bits());
        assert_eq!(lost.goodput().map(f64::to_bits), Some(0.0f64.to_bits()));
    }

    #[test]
    fn sweep_degrades_gracefully_with_cis() {
        let summaries = resilience_sweep(
            &[0.0, 0.5],
            &[AlgorithmKind::BaseTest, AlgorithmKind::Rbs],
            &gentle_spec(0.0),
            patient_policy(),
            21,
            3,
            EngineKind::Sequential,
            scenario,
        );
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].len(), 2);
        for s in &summaries[0] {
            // No host failures: nothing wasted, nothing retried for
            // host reasons (stragglers slow VMs but kill nothing).
            assert_eq!(s.reps, 3);
            assert_eq!(s.completion_ratio.mean, 1.0);
            assert_eq!(s.wasted_work_ms.mean, 0.0);
        }
        for s in &summaries[1] {
            assert!(s.completion_ratio.mean >= 0.99);
            assert!(
                s.retries.mean > 0.0,
                "{}: half the hosts down must cost retries",
                s.algorithm
            );
            assert!(s.wasted_work_ms.mean > 0.0);
        }
    }
}
