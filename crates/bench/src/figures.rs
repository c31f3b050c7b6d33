//! Regeneration of every figure in the paper's evaluation section.
//!
//! Each function runs the corresponding experiment sweep and returns
//! [`FigureSeries`] data ready for CSV export or terminal rendering. The
//! mapping to the paper:
//!
//! | Function | Paper figure | Metric |
//! |---|---|---|
//! | [`homogeneous_sweep`] (small axis) | Fig. 4a + Fig. 5a | simulation & scheduling time |
//! | [`homogeneous_sweep`] (large axis) | Fig. 4b + Fig. 5b | simulation & scheduling time |
//! | [`heterogeneous_sweep`] | Fig. 6a–6d | all four metrics |
//! | [`heterogeneous_sweep_repeated`] | Fig. 6 with error bars | all four metrics, mean ± CI95 |

use biosched_core::scheduler::AlgorithmKind;
use biosched_metrics::series::FigureSeries;
use biosched_workload::heterogeneous::{HeterogeneousScenario, DEFAULT_DATACENTERS};
use biosched_workload::homogeneous::HomogeneousScenario;
use biosched_workload::scenario::Scenario;
use biosched_workload::sweep::{sweep, sweep_repeated, PointResult, RepeatedPointResult};
use simcloud::simulation::EngineKind;

/// Which metric of a [`PointResult`] a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Eq. 12 simulated makespan (Figs. 4, 6a).
    SimulationTime,
    /// Scheduler wall-clock (Figs. 5, 6b).
    SchedulingTime,
    /// Eq. 13 degree of time imbalance (Fig. 6c).
    Imbalance,
    /// Total processing cost (Fig. 6d).
    ProcessingCost,
}

impl Metric {
    /// Extracts this metric from a point result.
    fn of(self, r: &PointResult) -> f64 {
        match self {
            Metric::SimulationTime => r.simulation_time_ms,
            Metric::SchedulingTime => r.scheduling_time_ms,
            Metric::Imbalance => r.imbalance,
            Metric::ProcessingCost => r.total_cost,
        }
    }

    /// Axis label.
    fn label(self) -> &'static str {
        match self {
            Metric::SimulationTime => "Simulation Time of Cloudlets (ms)",
            Metric::SchedulingTime => "Scheduling Time (wall ms)",
            Metric::Imbalance => "Time Degree of Imbalance",
            Metric::ProcessingCost => "Processing Cost",
        }
    }
}

/// Builds one figure from sweep results.
pub fn figure_from_results(
    title: &str,
    points: &[usize],
    results: &[Vec<PointResult>],
    metric: Metric,
) -> FigureSeries {
    let mut fig = FigureSeries::new(
        title,
        "Number of Virtual Machines (VMs)",
        metric.label(),
        points.iter().map(|p| *p as f64).collect(),
    );
    if results.is_empty() {
        return fig;
    }
    let algorithms: Vec<AlgorithmKind> = results[0].iter().map(|r| r.algorithm).collect();
    for (ai, alg) in algorithms.iter().enumerate() {
        let values: Vec<f64> = results.iter().map(|row| metric.of(&row[ai])).collect();
        fig.push_series(alg.label(), values);
    }
    fig
}

/// Runs the homogeneous sweep behind Figs. 4 and 5, simulating every
/// point on `engine`.
///
/// `scale` divides the paper's sizes (see
/// [`HomogeneousScenario::scaled`]); 1 reproduces the paper exactly.
/// Returns the raw results for the given VM-count points.
pub fn homogeneous_sweep(
    points: &[usize],
    scale: usize,
    seed: u64,
    engine: EngineKind,
) -> Vec<Vec<PointResult>> {
    sweep(points, &AlgorithmKind::PAPER_SET, seed, engine, |vms| {
        HomogeneousScenario::scaled(vms, scale).build()
    })
}

/// Runs the heterogeneous sweep behind Figs. 6a–6d, simulating every
/// point on `engine`.
pub fn heterogeneous_sweep(
    points: &[usize],
    cloudlets: usize,
    seed: u64,
    engine: EngineKind,
) -> Vec<Vec<PointResult>> {
    sweep(points, &AlgorithmKind::PAPER_SET, seed, engine, |vms| {
        hetero_scenario(vms, cloudlets, seed)
    })
}

/// Fig. 6 with error bars: every point aggregated over `reps` seeds
/// (workload *and* scheduler seed vary together), each repetition
/// simulated on `engine`. Returns, per VM point, one
/// [`RepeatedPointResult`] per paper algorithm.
pub fn heterogeneous_sweep_repeated(
    points: &[usize],
    cloudlets: usize,
    base_seed: u64,
    reps: usize,
    engine: EngineKind,
) -> Vec<Vec<RepeatedPointResult>> {
    sweep_repeated(
        points,
        &AlgorithmKind::PAPER_SET,
        base_seed,
        reps,
        engine,
        |vms, seed| hetero_scenario(vms, cloudlets, seed),
    )
}

/// The Fig. 6 scenario at one VM count.
fn hetero_scenario(vm_count: usize, cloudlet_count: usize, seed: u64) -> Scenario {
    HeterogeneousScenario {
        vm_count,
        cloudlet_count,
        datacenter_count: DEFAULT_DATACENTERS,
        seed,
    }
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_extraction_orders_series_like_algorithms() {
        let points = [4usize, 8];
        let results = homogeneous_sweep(&points, 1_000, 0, EngineKind::Sequential);
        let fig = figure_from_results("t", &points, &results, Metric::SimulationTime);
        assert_eq!(fig.series.len(), 4);
        assert_eq!(fig.series[0].0, "AntColony");
        assert_eq!(fig.series[1].0, "Base Test");
        assert_eq!(fig.x, vec![4.0, 8.0]);
    }

    #[test]
    fn metrics_extract_expected_fields() {
        let points = [6usize];
        let results = heterogeneous_sweep(&points, 30, 1, EngineKind::Sequential);
        let r = &results[0][0];
        assert_eq!(Metric::SimulationTime.of(r), r.simulation_time_ms);
        assert_eq!(Metric::SchedulingTime.of(r), r.scheduling_time_ms);
        assert_eq!(Metric::Imbalance.of(r), r.imbalance);
        assert_eq!(Metric::ProcessingCost.of(r), r.total_cost);
    }

    #[test]
    fn empty_results_build_empty_figure() {
        let fig = figure_from_results("t", &[], &[], Metric::Imbalance);
        assert!(fig.series.is_empty());
    }
}
