//! Pipeline-overhaul equivalence suite.
//!
//! The overhaul's contract is that none of the paper's numbers move:
//! streaming aggregation ([`RecordMode::Aggregate`]) must reproduce the
//! full-record metrics bit-for-bit on both simulation engines, and the
//! flat shared-artifact sweep must produce the same rows as running each
//! point by itself.

use biosched_core::scheduler::AlgorithmKind;
use biosched_workload::heterogeneous::HeterogeneousScenario;
use biosched_workload::homogeneous::HomogeneousScenario;
use biosched_workload::scenario::Scenario;
use biosched_workload::sweep::{run_point, run_point_with, sweep, PointArtifacts};
use simcloud::prelude::{EngineKind, RecordMode};

const SEEDS: [u64; 3] = [3, 41, 977];

fn scenarios(seed: u64) -> Vec<(&'static str, Scenario)> {
    vec![
        (
            "homogeneous",
            HomogeneousScenario {
                vm_count: 8,
                cloudlet_count: 80,
            }
            .build(),
        ),
        (
            "heterogeneous",
            HeterogeneousScenario {
                vm_count: 10,
                cloudlet_count: 60,
                datacenter_count: 3,
                seed,
            }
            .build(),
        ),
    ]
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Aggregate-mode outcomes must carry the very same bits as full-record
/// outcomes for every metric the figures consume, on both engines.
#[test]
fn aggregate_mode_matches_full_records_bitwise() {
    for seed in SEEDS {
        for (label, scenario) in scenarios(seed) {
            let assignment = AlgorithmKind::HoneyBee
                .build(seed)
                .schedule(&scenario.problem());
            for engine in [EngineKind::Sequential, EngineKind::Sharded] {
                let full = scenario
                    .simulate_mode(assignment.clone(), engine, RecordMode::Full)
                    .expect("full-mode simulation");
                let agg = scenario
                    .simulate_mode(assignment.clone(), engine, RecordMode::Aggregate)
                    .expect("aggregate-mode simulation");
                let ctx = format!("{label}, seed {seed}, {engine:?}");
                assert_eq!(full.finished_count(), agg.finished_count(), "{ctx}");
                assert_eq!(
                    bits(full.simulation_time_ms()),
                    bits(agg.simulation_time_ms()),
                    "{ctx}: makespan"
                );
                assert_eq!(
                    bits(full.time_imbalance()),
                    bits(agg.time_imbalance()),
                    "{ctx}: imbalance"
                );
                assert_eq!(
                    full.total_cost().to_bits(),
                    agg.total_cost().to_bits(),
                    "{ctx}: cost"
                );
                assert_eq!(
                    bits(full.mean_execution_ms()),
                    bits(agg.mean_execution_ms()),
                    "{ctx}: mean execution"
                );
                assert_eq!(
                    full.per_vm_usage(scenario.vm_count()),
                    agg.per_vm_usage(scenario.vm_count()),
                    "{ctx}: per-VM usage"
                );
                // Full mode keeps the records; aggregate mode must not.
                assert_eq!(full.records.len(), scenario.cloudlet_count(), "{ctx}");
                assert!(agg.records.is_empty(), "{ctx}");
            }
        }
    }
}

/// A point run through the shared-artifact entry point must match the
/// standalone per-point runner on every reported metric.
#[test]
fn shared_artifacts_match_standalone_point_runs() {
    for seed in SEEDS {
        for (label, scenario) in scenarios(seed) {
            let artifacts = PointArtifacts::build(scenario.clone());
            for alg in AlgorithmKind::PAPER_SET {
                let standalone = run_point(&scenario, alg, seed, EngineKind::Sequential);
                let shared = run_point_with(&artifacts, alg, seed, EngineKind::Sequential);
                let ctx = format!("{label}, seed {seed}, {alg:?}");
                assert_eq!(standalone.finished, shared.finished, "{ctx}");
                assert_eq!(
                    standalone.simulation_time_ms.to_bits(),
                    shared.simulation_time_ms.to_bits(),
                    "{ctx}: makespan"
                );
                assert_eq!(
                    standalone.imbalance.to_bits(),
                    shared.imbalance.to_bits(),
                    "{ctx}: imbalance"
                );
                assert_eq!(
                    standalone.total_cost.to_bits(),
                    shared.total_cost.to_bits(),
                    "{ctx}: cost"
                );
            }
        }
    }
}

/// The fault layer's zero-cost contract: an armed-but-empty
/// [`FaultPlan`] (and its all-healthy builder) must be trace-identical
/// to no plan at all, on both engines, for every paper metric.
#[test]
fn all_healthy_fault_plan_changes_nothing() {
    use simcloud::faults::FaultPlan;
    for seed in SEEDS {
        for (label, scenario) in scenarios(seed) {
            let assignment = AlgorithmKind::Rbs.build(seed).schedule(&scenario.problem());
            let mut healthy = scenario.clone();
            healthy.faults = Some(FaultPlan::healthy());
            for engine in [EngineKind::Sequential, EngineKind::Sharded] {
                let plain = scenario
                    .simulate_mode(assignment.clone(), engine, RecordMode::Full)
                    .expect("plain simulation");
                let armed = healthy
                    .simulate_mode(assignment.clone(), engine, RecordMode::Full)
                    .expect("all-healthy simulation");
                let ctx = format!("{label}, seed {seed}, {engine:?}");
                assert_eq!(plain.engine, armed.engine, "{ctx}: engine choice");
                assert_eq!(
                    plain.events_processed, armed.events_processed,
                    "{ctx}: event count"
                );
                assert_eq!(plain.resilience, armed.resilience, "{ctx}: counters");
                assert_eq!(
                    bits(plain.simulation_time_ms()),
                    bits(armed.simulation_time_ms()),
                    "{ctx}: makespan"
                );
                assert_eq!(
                    plain.total_cost().to_bits(),
                    armed.total_cost().to_bits(),
                    "{ctx}: cost"
                );
                for (a, b) in plain.records.iter().zip(&armed.records) {
                    assert_eq!(a.finish, b.finish, "{ctx}: finish times");
                    assert_eq!(
                        a.execution_ms.map(f64::to_bits),
                        b.execution_ms.map(f64::to_bits),
                        "{ctx}: execution"
                    );
                }
            }
        }
    }
}

/// The flat executor must regroup its results exactly like the nested
/// point-by-point loop it replaced, on either engine: every row equals
/// the sequential engine's standalone run of that point, bit for bit.
#[test]
fn flat_sweep_matches_pointwise_runs() {
    let points = [4usize, 8, 12];
    let algorithms = [
        AlgorithmKind::AntColony,
        AlgorithmKind::BaseTest,
        AlgorithmKind::HoneyBee,
        AlgorithmKind::Rbs,
    ];
    let seed = 7;
    let make = |vms: usize| {
        HeterogeneousScenario {
            vm_count: vms,
            cloudlet_count: 40,
            datacenter_count: 2,
            seed,
        }
        .build()
    };
    let lone: Vec<Vec<_>> = points
        .iter()
        .map(|&vms| {
            let scenario = make(vms);
            algorithms
                .iter()
                .map(|&alg| run_point(&scenario, alg, seed, EngineKind::Sequential))
                .collect()
        })
        .collect();
    for engine in [EngineKind::Sequential, EngineKind::Sharded] {
        let flat = sweep(&points, &algorithms, seed, engine, make);
        assert_eq!(flat.len(), points.len());
        for (pi, &vms) in points.iter().enumerate() {
            assert_eq!(flat[pi].len(), algorithms.len());
            for (ai, &alg) in algorithms.iter().enumerate() {
                let lone = &lone[pi][ai];
                let got = &flat[pi][ai];
                let ctx = format!("{vms} VMs, {alg:?}, {engine:?}");
                assert_eq!(got.engine, engine, "{ctx}");
                assert_eq!(got.algorithm, alg, "{ctx}");
                assert_eq!(got.vm_count, vms, "{ctx}");
                assert_eq!(got.finished, lone.finished, "{ctx}");
                assert_eq!(
                    got.simulation_time_ms.to_bits(),
                    lone.simulation_time_ms.to_bits(),
                    "{ctx}: makespan"
                );
                assert_eq!(
                    got.imbalance.to_bits(),
                    lone.imbalance.to_bits(),
                    "{ctx}: imbalance"
                );
                assert_eq!(
                    got.total_cost.to_bits(),
                    lone.total_cost.to_bits(),
                    "{ctx}: cost"
                );
            }
        }
    }
}
