//! Convergence curves for the population heuristics.
//!
//! The paper justifies its algorithm choices with convergence-speed
//! claims ("HBO was also chosen because of the speed in which it
//! converges", "PSO is the algorithm with the fastest convergence when
//! compared to GA and ACO" \[30\], "GA … slow … due to the time to
//! converge" \[17\]). This module produces the measurement those claims
//! call for: per-iteration best scores for ACO, PSO and GA on the same
//! problem, normalized to each algorithm's starting point so the units
//! (tour length vs makespan estimate) compare fairly.

use biosched_core::aco::{AcoParams, AntColony};
use biosched_core::ga::{GaParams, Genetic};
use biosched_core::pso::{ParticleSwarm, PsoParams};
use biosched_metrics::series::FigureSeries;
use biosched_workload::heterogeneous::HeterogeneousScenario;

/// Shape of the convergence experiment.
#[derive(Debug, Clone, Copy)]
pub struct ConvergenceConfig {
    /// Fleet size.
    pub vms: usize,
    /// Workload size.
    pub cloudlets: usize,
    /// Iterations/generations every algorithm runs.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConvergenceConfig {
    fn default() -> Self {
        ConvergenceConfig {
            vms: 60,
            cloudlets: 120,
            iterations: 40,
            seed: 42,
        }
    }
}

/// Normalizes a trace to its first value (1.0 = starting quality).
fn normalize(trace: &[f64]) -> Vec<f64> {
    let first = trace.first().copied().unwrap_or(1.0);
    if first == 0.0 {
        return trace.to_vec();
    }
    trace.iter().map(|v| v / first).collect()
}

/// Pads a trace to `len` by repeating its last value (an algorithm that
/// stops early has converged; its curve stays flat).
fn pad(mut trace: Vec<f64>, len: usize) -> Vec<f64> {
    let last = trace.last().copied().unwrap_or(1.0);
    trace.resize(len, last);
    trace
}

/// Runs the three traced heuristics and returns the convergence figure.
pub fn convergence_figure(config: ConvergenceConfig) -> FigureSeries {
    let problem = HeterogeneousScenario {
        vm_count: config.vms,
        cloudlet_count: config.cloudlets,
        datacenter_count: 4,
        seed: config.seed,
    }
    .build()
    .problem();

    let iterations = config.iterations.max(1);
    let (_, aco_trace) = AntColony::new(
        AcoParams {
            iterations,
            ..AcoParams::paper()
        },
        config.seed,
    )
    .schedule_traced(&problem);
    let (_, pso_trace) = ParticleSwarm::new(
        PsoParams {
            iterations,
            ..PsoParams::standard()
        },
        config.seed,
    )
    .schedule_traced(&problem);
    let (_, ga_trace) = Genetic::new(
        GaParams {
            generations: iterations,
            ..GaParams::standard()
        },
        config.seed,
    )
    .schedule_traced(&problem);

    let mut fig = FigureSeries::new(
        "Convergence — best score relative to iteration 1",
        "iteration",
        "best score / initial best score",
        (1..=iterations).map(|i| i as f64).collect(),
    );
    fig.push_series("ACO", pad(normalize(&aco_trace), iterations));
    fig.push_series("PSO", pad(normalize(&pso_trace), iterations));
    fig.push_series("GA", pad(normalize(&ga_trace), iterations));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_has_three_full_series() {
        let fig = convergence_figure(ConvergenceConfig {
            vms: 10,
            cloudlets: 20,
            iterations: 6,
            seed: 1,
        });
        assert_eq!(fig.series.len(), 3);
        for (name, values) in &fig.series {
            assert_eq!(values.len(), 6, "{name} trace length");
            assert!((values[0] - 1.0).abs() < 1e-9, "{name} starts at 1.0");
            assert!(
                values.windows(2).all(|w| w[1] <= w[0] + 1e-9),
                "{name} must be non-increasing"
            );
        }
    }

    #[test]
    fn normalize_and_pad() {
        assert_eq!(normalize(&[4.0, 2.0]), vec![1.0, 0.5]);
        assert_eq!(pad(vec![1.0, 0.5], 4), vec![1.0, 0.5, 0.5, 0.5]);
        assert_eq!(normalize(&[]), Vec::<f64>::new());
    }
}
