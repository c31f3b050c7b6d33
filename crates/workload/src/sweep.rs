//! Experiment execution: run algorithms over scenario sweeps.
//!
//! One *point* = (scenario, algorithm): the scheduler is timed (the
//! paper's "scheduling time" metric), its assignment is simulated, and the
//! paper's four metrics are collected.
//!
//! The executor is *flat*: a sweep expands to one `(point × algorithm)`
//! (or `(point × algorithm × rep)`) rayon work list instead of nesting
//! "parallel over points, serial over algorithms" — no point serializes
//! its whole algorithm set behind one slow ACO run. Tasks at the same
//! point share one read-only [`PointArtifacts`] (scenario + problem +
//! [`EvalCache`]), built lazily by the first task to arrive and dropped by
//! the last to finish, and every simulation runs under
//! [`RecordMode::Aggregate`] so a point retains O(VMs) memory, not
//! O(cloudlets). Metrics are bit-identical to the old nested executor:
//! `EvalCache` construction is deterministic (shared = private) and every
//! outcome answers from the same metric fold whatever its record mode.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use biosched_core::eval::EvalCache;
use biosched_core::problem::SchedulingProblem;
use biosched_core::scheduler::AlgorithmKind;
use rayon::prelude::*;
use simcloud::simulation::EngineKind;
use simcloud::stats::RecordMode;

use crate::scenario::Scenario;

/// All metrics the paper reports for one (scenario, algorithm) pair.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Algorithm that produced this point.
    pub algorithm: AlgorithmKind,
    /// Number of VMs in the scenario.
    pub vm_count: usize,
    /// Number of cloudlets in the scenario.
    pub cloudlet_count: usize,
    /// Wall-clock time the scheduler took (Figs. 5/6b). Times the
    /// `schedule_with_cache` call only; building the shared evaluation
    /// cache is reported separately in `cache_build_ms` so sharing it
    /// across algorithms does not skew the paper's metric.
    pub scheduling_time_ms: f64,
    /// Wall-clock time spent building this point's shared
    /// [`PointArtifacts`] (problem + [`EvalCache`]), amortized over every
    /// algorithm and rep at the point. Reported once per artifact build;
    /// tasks that reused an existing cache report the same figure.
    pub cache_build_ms: f64,
    /// Eq. 12 simulated makespan in ms (Figs. 4/6a).
    pub simulation_time_ms: f64,
    /// Eq. 13 degree of time imbalance (Fig. 6c).
    pub imbalance: f64,
    /// Total processing cost (Fig. 6d).
    pub total_cost: f64,
    /// Mean per-cloudlet execution time in ms (diagnostics).
    pub mean_execution_ms: f64,
    /// Cloudlets that finished (sanity: should equal `cloudlet_count`).
    pub finished: usize,
    /// Engine the point was simulated on.
    pub engine: EngineKind,
    /// Winning member name when the algorithm is a meta-scheduler
    /// (portfolio or racer); `None` for single-algorithm kinds.
    pub meta_winner: Option<String>,
    /// Per-member budget spent by a meta-scheduler, rendered as
    /// `name:units;name:units` (deterministic evaluation units).
    pub meta_spent: Option<String>,
}

/// Read-only state every task at one scenario point shares: the scenario,
/// its scheduler-facing problem, and one evaluation cache.
pub struct PointArtifacts {
    /// The scenario itself.
    pub scenario: Scenario,
    /// Scheduler-facing view, built once.
    pub problem: SchedulingProblem,
    /// Evaluation cache over `problem`, built once, shared read-only.
    pub cache: EvalCache,
    /// Wall-clock ms spent building `problem` + `cache`.
    pub cache_build_ms: f64,
}

impl PointArtifacts {
    /// Builds the shared state for one scenario point.
    pub fn build(scenario: Scenario) -> Self {
        let started = Instant::now();
        let problem = scenario.problem();
        let cache = EvalCache::new(&problem);
        let cache_build_ms = started.elapsed().as_secs_f64() * 1_000.0;
        PointArtifacts {
            scenario,
            problem,
            cache,
            cache_build_ms,
        }
    }
}

/// Lazily built, reference-counted slot for one point's artifacts.
///
/// The first task to arrive builds the artifacts under the lock; the last
/// task to release drops them, bounding peak memory to the artifacts of
/// points actually in flight rather than the whole sweep.
struct ArtifactCell {
    artifacts: Mutex<Option<Arc<PointArtifacts>>>,
    remaining: AtomicUsize,
}

impl ArtifactCell {
    fn new(users: usize) -> Self {
        ArtifactCell {
            artifacts: Mutex::new(None),
            remaining: AtomicUsize::new(users),
        }
    }

    fn acquire(&self, make: impl FnOnce() -> Scenario) -> Arc<PointArtifacts> {
        let mut slot = self.artifacts.lock().expect("artifact lock poisoned");
        slot.get_or_insert_with(|| Arc::new(PointArtifacts::build(make())))
            .clone()
    }

    fn release(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.artifacts
                .lock()
                .expect("artifact lock poisoned")
                .take();
        }
    }
}

/// Runs one algorithm over one scenario and collects every metric.
///
/// Panics if the simulation itself fails — scenario generators are
/// responsible for producing feasible infrastructure.
pub fn run_point(scenario: &Scenario, algorithm: AlgorithmKind, seed: u64) -> PointResult {
    run_point_on(scenario, algorithm, seed, EngineKind::Sequential)
}

/// [`run_point`] on a chosen simulation engine. Metrics are identical
/// across engines (the sharded kernel is trace-equivalent); only
/// wall-clock differs. Builds private [`PointArtifacts`] for the call.
pub fn run_point_on(
    scenario: &Scenario,
    algorithm: AlgorithmKind,
    seed: u64,
    engine: EngineKind,
) -> PointResult {
    let artifacts = PointArtifacts::build(scenario.clone());
    run_point_with(&artifacts, algorithm, seed, engine, RecordMode::Aggregate)
}

/// Runs one algorithm over prebuilt shared [`PointArtifacts`].
///
/// Only the `schedule_with_cache` call is timed as scheduling time; the
/// (shared) cache build is carried in `PointResult::cache_build_ms`.
pub fn run_point_with(
    artifacts: &PointArtifacts,
    algorithm: AlgorithmKind,
    seed: u64,
    engine: EngineKind,
    mode: RecordMode,
) -> PointResult {
    let problem = &artifacts.problem;
    let mut scheduler = algorithm.build(seed);

    let started = Instant::now();
    let assignment = scheduler.schedule_with_cache(problem, &artifacts.cache);
    let scheduling_time_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let meta = scheduler.last_meta();

    assignment
        .validate(problem)
        .unwrap_or_else(|e| panic!("{algorithm} produced an invalid assignment: {e}"));
    let outcome = artifacts
        .scenario
        .simulate_mode(assignment, engine, mode)
        .unwrap_or_else(|e| panic!("simulation failed for {algorithm}: {e}"));

    PointResult {
        algorithm,
        vm_count: artifacts.scenario.vm_count(),
        cloudlet_count: artifacts.scenario.cloudlet_count(),
        scheduling_time_ms,
        cache_build_ms: artifacts.cache_build_ms,
        simulation_time_ms: outcome.simulation_time_ms().unwrap_or(0.0),
        imbalance: outcome.time_imbalance().unwrap_or(0.0),
        total_cost: outcome.total_cost(),
        mean_execution_ms: outcome.mean_execution_ms().unwrap_or(0.0),
        finished: outcome.finished_count(),
        engine: outcome.engine,
        meta_winner: meta.as_ref().map(|m| m.winner.clone()),
        meta_spent: meta.as_ref().map(|m| {
            m.spent
                .iter()
                .map(|(name, units)| format!("{name}:{units}"))
                .collect::<Vec<_>>()
                .join(";")
        }),
    }
}

/// Runs `algorithms` over every scenario produced by `make_scenario` for
/// the given x-axis `points`, as one flat parallel work list.
///
/// Returns one `Vec<PointResult>` per point, ordered like `points`, each
/// ordered like `algorithms`.
pub fn sweep<F>(
    points: &[usize],
    algorithms: &[AlgorithmKind],
    seed: u64,
    make_scenario: F,
) -> Vec<Vec<PointResult>>
where
    F: Fn(usize) -> Scenario + Sync,
{
    sweep_on(
        points,
        algorithms,
        seed,
        EngineKind::Sequential,
        make_scenario,
    )
}

/// [`sweep`] with every point simulated on a chosen engine, in
/// [`RecordMode::Aggregate`] (metric-identical to full records).
pub fn sweep_on<F>(
    points: &[usize],
    algorithms: &[AlgorithmKind],
    seed: u64,
    engine: EngineKind,
    make_scenario: F,
) -> Vec<Vec<PointResult>>
where
    F: Fn(usize) -> Scenario + Sync,
{
    sweep_mode_on(
        points,
        algorithms,
        seed,
        engine,
        RecordMode::Aggregate,
        make_scenario,
    )
}

/// [`sweep_on`] with an explicit [`RecordMode`] — the benches use this to
/// measure Full-vs-Aggregate memory; experiment callers want the
/// [`sweep_on`] default.
pub fn sweep_mode_on<F>(
    points: &[usize],
    algorithms: &[AlgorithmKind],
    seed: u64,
    engine: EngineKind,
    mode: RecordMode,
    make_scenario: F,
) -> Vec<Vec<PointResult>>
where
    F: Fn(usize) -> Scenario + Sync,
{
    if algorithms.is_empty() {
        return points.iter().map(|_| Vec::new()).collect();
    }
    let cells: Vec<ArtifactCell> = points
        .iter()
        .map(|_| ArtifactCell::new(algorithms.len()))
        .collect();
    // Flat (point × algorithm) task list, point-major so the regrouping
    // below is a plain chunking of the order-preserving parallel collect.
    let tasks: Vec<(usize, usize)> = (0..points.len())
        .flat_map(|pi| (0..algorithms.len()).map(move |ai| (pi, ai)))
        .collect();
    let flat: Vec<PointResult> = tasks
        .par_iter()
        .map(|&(pi, ai)| {
            let cell = &cells[pi];
            let artifacts = cell.acquire(|| make_scenario(points[pi]));
            let result = run_point_with(&artifacts, algorithms[ai], seed, engine, mode);
            cell.release();
            result
        })
        .collect();
    flat.chunks(algorithms.len()).map(<[_]>::to_vec).collect()
}

/// Mean and spread of one metric over repeated seeded runs.
#[derive(Debug, Clone, Copy)]
pub struct RepeatedMetric {
    /// Mean over repetitions.
    pub mean: f64,
    /// Half-width of the ~95% confidence interval.
    pub ci95: f64,
}

/// A point result aggregated over several seeds.
#[derive(Debug, Clone)]
pub struct RepeatedPointResult {
    /// Algorithm that produced this point.
    pub algorithm: AlgorithmKind,
    /// Number of VMs in the scenario.
    pub vm_count: usize,
    /// Repetitions aggregated.
    pub reps: usize,
    /// Eq. 12 simulated makespan.
    pub simulation_time_ms: RepeatedMetric,
    /// Scheduler wall-clock.
    pub scheduling_time_ms: RepeatedMetric,
    /// Eq. 13 imbalance.
    pub imbalance: RepeatedMetric,
    /// Total processing cost.
    pub total_cost: RepeatedMetric,
    /// Engine every repetition was simulated on.
    pub engine: EngineKind,
}

/// Two-sided 95% Student-t critical values for 1–30 degrees of freedom.
/// The paper's error bars aggregate 5 seeds, where the old normal
/// approximation (1.96) understated the interval by 42%: df = 4 needs
/// 2.776. Past 30 df the normal value is within 2% and used directly.
const T95: [f64; 30] = [
    12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624, 2.306004, 2.262157,
    2.228139, 2.200985, 2.178813, 2.160369, 2.144787, 2.131450, 2.119905, 2.109816, 2.100922,
    2.093024, 2.085963, 2.079614, 2.073873, 2.068658, 2.063899, 2.059539, 2.055529, 2.051831,
    2.048407, 2.045230, 2.042272,
];

/// 95% two-sided critical value for `df` degrees of freedom.
fn t95(df: usize) -> f64 {
    if df == 0 {
        return 0.0;
    }
    T95.get(df - 1).copied().unwrap_or(1.96)
}

pub(crate) fn summarize(values: &[f64]) -> RepeatedMetric {
    let n = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = if values.len() > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    RepeatedMetric {
        mean,
        ci95: if values.len() > 1 {
            t95(values.len() - 1) * var.sqrt() / n.sqrt()
        } else {
            0.0
        },
    }
}

/// Folds raw per-rep results into a [`RepeatedPointResult`].
fn aggregate_reps(algorithm: AlgorithmKind, results: &[PointResult]) -> RepeatedPointResult {
    let pick = |f: fn(&PointResult) -> f64| -> RepeatedMetric {
        let values: Vec<f64> = results.iter().map(f).collect();
        summarize(&values)
    };
    RepeatedPointResult {
        algorithm,
        vm_count: results[0].vm_count,
        reps: results.len(),
        simulation_time_ms: pick(|r| r.simulation_time_ms),
        scheduling_time_ms: pick(|r| r.scheduling_time_ms),
        imbalance: pick(|r| r.imbalance),
        total_cost: pick(|r| r.total_cost),
        engine: results[0].engine,
    }
}

/// Runs one algorithm over `reps` seeded variants of a scenario and
/// aggregates every metric. `make_scenario(seed)` builds the variant;
/// seeds are `base_seed..base_seed + reps`, also used for the scheduler.
pub fn run_point_repeated<F>(
    algorithm: AlgorithmKind,
    base_seed: u64,
    reps: usize,
    make_scenario: F,
) -> RepeatedPointResult
where
    F: Fn(u64) -> Scenario + Sync,
{
    run_point_repeated_on(
        algorithm,
        base_seed,
        reps,
        EngineKind::Sequential,
        make_scenario,
    )
}

/// [`run_point_repeated`] with every repetition simulated on a chosen
/// engine. Metrics are identical across engines (the sharded kernel is
/// trace-equivalent); only wall-clock differs.
pub fn run_point_repeated_on<F>(
    algorithm: AlgorithmKind,
    base_seed: u64,
    reps: usize,
    engine: EngineKind,
    make_scenario: F,
) -> RepeatedPointResult
where
    F: Fn(u64) -> Scenario + Sync,
{
    assert!(reps > 0, "need at least one repetition");
    let results: Vec<PointResult> = (0..reps as u64)
        .into_par_iter()
        .map(|r| {
            let seed = base_seed + r;
            run_point_on(&make_scenario(seed), algorithm, seed, engine)
        })
        .collect();
    aggregate_reps(algorithm, &results)
}

/// Repeated sweep over a full grid, as one flat `(point × rep ×
/// algorithm)` parallel work list.
///
/// `make_scenario(x, seed)` builds the scenario for x-axis value `x` and
/// workload seed `seed`; seeds are `base_seed..base_seed + reps` and also
/// seed the schedulers, like [`run_point_repeated_on`]. Every `(point,
/// rep)` pair shares one lazily built [`PointArtifacts`] across all
/// algorithms (the workload varies per rep, so reps cannot share), and
/// tasks are ordered rep-major so sharing tasks sit adjacent in the work
/// list. Results come back as one `Vec<RepeatedPointResult>` per point,
/// ordered like `points`, each ordered like `algorithms` — exactly what
/// the old nested "serial points × serial algorithms × parallel reps"
/// loop produced, without a slow algorithm serializing its whole point.
pub fn sweep_repeated_on<F>(
    points: &[usize],
    algorithms: &[AlgorithmKind],
    base_seed: u64,
    reps: usize,
    engine: EngineKind,
    make_scenario: F,
) -> Vec<Vec<RepeatedPointResult>>
where
    F: Fn(usize, u64) -> Scenario + Sync,
{
    assert!(reps > 0, "need at least one repetition");
    if algorithms.is_empty() {
        return points.iter().map(|_| Vec::new()).collect();
    }
    let a = algorithms.len();
    let cells: Vec<ArtifactCell> = (0..points.len() * reps)
        .map(|_| ArtifactCell::new(a))
        .collect();
    // (point, rep, algorithm) lexicographic: all users of one artifact
    // cell are contiguous, so a work-chunk tends to build, use and free a
    // cell without another thread ever waiting on its lock.
    let tasks: Vec<(usize, usize, usize)> = (0..points.len())
        .flat_map(|pi| (0..reps).flat_map(move |ri| (0..a).map(move |ai| (pi, ri, ai))))
        .collect();
    let flat: Vec<PointResult> = tasks
        .par_iter()
        .map(|&(pi, ri, ai)| {
            let seed = base_seed + ri as u64;
            let cell = &cells[pi * reps + ri];
            let artifacts = cell.acquire(|| make_scenario(points[pi], seed));
            let result = run_point_with(
                &artifacts,
                algorithms[ai],
                seed,
                engine,
                RecordMode::Aggregate,
            );
            cell.release();
            result
        })
        .collect();
    // flat[pi*reps*a + ri*a + ai] → regroup to [point][algorithm] over reps.
    (0..points.len())
        .map(|pi| {
            (0..a)
                .map(|ai| {
                    let per_rep: Vec<PointResult> = (0..reps)
                        .map(|ri| flat[pi * reps * a + ri * a + ai].clone())
                        .collect();
                    aggregate_reps(algorithms[ai], &per_rep)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heterogeneous::HeterogeneousScenario;
    use crate::homogeneous::HomogeneousScenario;

    #[test]
    fn run_point_collects_all_metrics() {
        let scenario = HomogeneousScenario {
            vm_count: 4,
            cloudlet_count: 20,
        }
        .build();
        let r = run_point(&scenario, AlgorithmKind::BaseTest, 0);
        assert_eq!(r.finished, 20);
        assert_eq!(r.vm_count, 4);
        assert!(r.simulation_time_ms > 0.0);
        assert!(r.scheduling_time_ms >= 0.0);
        assert!(r.mean_execution_ms > 0.0);
        // Homogeneous + free DC: zero cost, near-zero imbalance.
        assert_eq!(r.total_cost, 0.0);
        assert!(r.imbalance < 1e-9);
    }

    #[test]
    fn sweep_orders_points_and_algorithms() {
        let results = sweep(
            &[2, 4],
            &[AlgorithmKind::BaseTest, AlgorithmKind::Rbs],
            1,
            |vms| {
                HomogeneousScenario {
                    vm_count: vms,
                    cloudlet_count: 8,
                }
                .build()
            },
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].len(), 2);
        assert_eq!(results[0][0].vm_count, 2);
        assert_eq!(results[1][0].vm_count, 4);
        assert_eq!(results[0][0].algorithm, AlgorithmKind::BaseTest);
        assert_eq!(results[0][1].algorithm, AlgorithmKind::Rbs);
    }

    #[test]
    fn repeated_points_aggregate_with_spread() {
        let r = run_point_repeated(AlgorithmKind::Rbs, 100, 4, |seed| {
            HeterogeneousScenario {
                vm_count: 6,
                cloudlet_count: 30,
                datacenter_count: 2,
                seed,
            }
            .build()
        });
        assert_eq!(r.reps, 4);
        assert!(r.simulation_time_ms.mean > 0.0);
        // Different seeds -> different workloads -> nonzero spread.
        assert!(r.simulation_time_ms.ci95 > 0.0);
        assert!(r.total_cost.ci95 >= 0.0);
    }

    #[test]
    fn single_rep_has_zero_ci() {
        let r = run_point_repeated(AlgorithmKind::BaseTest, 7, 1, |seed| {
            HeterogeneousScenario {
                vm_count: 4,
                cloudlet_count: 10,
                datacenter_count: 2,
                seed,
            }
            .build()
        });
        assert_eq!(r.simulation_time_ms.ci95, 0.0);
    }

    #[test]
    fn repeated_metrics_match_across_engines() {
        let make = |seed| {
            HeterogeneousScenario {
                vm_count: 6,
                cloudlet_count: 30,
                datacenter_count: 2,
                seed,
            }
            .build()
        };
        let seq =
            run_point_repeated_on(AlgorithmKind::HoneyBee, 5, 3, EngineKind::Sequential, make);
        let sh = run_point_repeated_on(AlgorithmKind::HoneyBee, 5, 3, EngineKind::Sharded, make);
        // The sharded kernel is trace-equivalent: every simulated metric
        // aggregates to the same bits; only wall-clock may differ.
        assert_eq!(
            seq.simulation_time_ms.mean.to_bits(),
            sh.simulation_time_ms.mean.to_bits()
        );
        assert_eq!(seq.imbalance.mean.to_bits(), sh.imbalance.mean.to_bits());
        assert_eq!(seq.total_cost.mean.to_bits(), sh.total_cost.mean.to_bits());
    }

    #[test]
    fn meta_provenance_flows_into_points_and_matches_across_engines() {
        use biosched_core::objective::Objective;
        let scenario = HeterogeneousScenario {
            vm_count: 6,
            cloudlet_count: 30,
            datacenter_count: 2,
            seed: 17,
        }
        .build();
        let kind = AlgorithmKind::Racing(Objective::Makespan);
        let seq = run_point_on(&scenario, kind, 17, EngineKind::Sequential);
        let sh = run_point_on(&scenario, kind, 17, EngineKind::Sharded);
        // The race budget is counted in evaluation units, so the winner,
        // the per-member spend, and every simulated metric are
        // bit-identical across engines.
        assert_eq!(
            seq.simulation_time_ms.to_bits(),
            sh.simulation_time_ms.to_bits()
        );
        assert_eq!(seq.total_cost.to_bits(), sh.total_cost.to_bits());
        assert_eq!(seq.meta_winner, sh.meta_winner);
        assert_eq!(seq.meta_spent, sh.meta_spent);
        let winner = seq.meta_winner.as_deref().expect("racer reports a winner");
        let spent = seq.meta_spent.as_deref().expect("racer reports spend");
        assert!(spent.contains(&format!("{winner}:")), "{spent}");
        assert_eq!(spent.matches(';').count(), 5, "six roster members");

        let portfolio = run_point(&scenario, AlgorithmKind::Portfolio(Objective::Makespan), 17);
        assert!(portfolio.meta_winner.is_some());
        // Plain schedulers leave the provenance columns empty.
        let plain = run_point(&scenario, AlgorithmKind::HoneyBee, 17);
        assert_eq!(plain.meta_winner, None);
        assert_eq!(plain.meta_spent, None);
    }

    #[test]
    fn ci95_uses_student_t_at_five_reps() {
        // Five values with sample sd = sqrt(2.5): the paper's rep count.
        let m = summarize(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.mean, 2.0);
        let sd = 2.5f64.sqrt();
        let multiplier = m.ci95 / (sd / 5.0f64.sqrt());
        // df = 4 → t = 2.776445, not the normal 1.96.
        assert!(
            (multiplier - 2.776445).abs() < 1e-6,
            "expected the df=4 Student-t multiplier, got {multiplier}"
        );
    }

    #[test]
    fn ci95_falls_back_to_normal_past_thirty_df() {
        let values: Vec<f64> = (0..40).map(f64::from).collect();
        let m = summarize(&values);
        let n = values.len() as f64;
        let sd = (values.iter().map(|v| (v - m.mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
        let multiplier = m.ci95 / (sd / n.sqrt());
        assert!((multiplier - 1.96).abs() < 1e-9);
    }

    #[test]
    fn flat_repeated_sweep_matches_per_point_aggregation() {
        let make = |vms: usize, seed: u64| {
            HeterogeneousScenario {
                vm_count: vms,
                cloudlet_count: 24,
                datacenter_count: 2,
                seed,
            }
            .build()
        };
        let algorithms = [AlgorithmKind::BaseTest, AlgorithmKind::HoneyBee];
        let points = [4usize, 6];
        let flat = sweep_repeated_on(&points, &algorithms, 11, 3, EngineKind::Sequential, make);
        assert_eq!(flat.len(), 2);
        for (pi, &vms) in points.iter().enumerate() {
            assert_eq!(flat[pi].len(), 2);
            for (ai, &alg) in algorithms.iter().enumerate() {
                let nested = run_point_repeated_on(alg, 11, 3, EngineKind::Sequential, |seed| {
                    make(vms, seed)
                });
                let got = &flat[pi][ai];
                assert_eq!(got.algorithm, alg);
                assert_eq!(got.vm_count, vms);
                assert_eq!(got.reps, 3);
                // Simulated metrics are seed-deterministic: the flat
                // executor must aggregate the very same bits.
                assert_eq!(
                    got.simulation_time_ms.mean.to_bits(),
                    nested.simulation_time_ms.mean.to_bits()
                );
                assert_eq!(
                    got.imbalance.mean.to_bits(),
                    nested.imbalance.mean.to_bits()
                );
                assert_eq!(
                    got.total_cost.mean.to_bits(),
                    nested.total_cost.mean.to_bits()
                );
                assert_eq!(
                    got.imbalance.ci95.to_bits(),
                    nested.imbalance.ci95.to_bits()
                );
            }
        }
    }

    #[test]
    fn shared_artifacts_report_cache_build_time() {
        let results = sweep(
            &[4],
            &[AlgorithmKind::BaseTest, AlgorithmKind::HoneyBee],
            1,
            |vms| {
                HomogeneousScenario {
                    vm_count: vms,
                    cloudlet_count: 16,
                }
                .build()
            },
        );
        // Both algorithms at the point share one artifact build and must
        // report the same figure.
        assert!(results[0][0].cache_build_ms >= 0.0);
        assert_eq!(
            results[0][0].cache_build_ms.to_bits(),
            results[0][1].cache_build_ms.to_bits()
        );
    }

    #[test]
    fn point_results_record_engine_provenance() {
        let scenario = HomogeneousScenario {
            vm_count: 4,
            cloudlet_count: 12,
        }
        .build();
        for engine in [EngineKind::Sequential, EngineKind::Sharded] {
            let r = run_point_on(&scenario, AlgorithmKind::BaseTest, 0, engine);
            assert_eq!(r.engine, engine);
        }
        let rep =
            run_point_repeated_on(AlgorithmKind::BaseTest, 3, 2, EngineKind::Sharded, |seed| {
                HeterogeneousScenario {
                    vm_count: 4,
                    cloudlet_count: 10,
                    datacenter_count: 2,
                    seed,
                }
                .build()
            });
        assert_eq!(rep.engine, EngineKind::Sharded);
    }

    #[test]
    fn heterogeneous_point_accrues_cost() {
        let scenario = HeterogeneousScenario {
            vm_count: 8,
            cloudlet_count: 40,
            datacenter_count: 2,
            seed: 3,
        }
        .build();
        let r = run_point(&scenario, AlgorithmKind::HoneyBee, 3);
        assert_eq!(r.finished, 40);
        assert!(r.total_cost > 0.0);
        assert!(r.imbalance > 0.0, "heterogeneous exec times must spread");
    }
}
