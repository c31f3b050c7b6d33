//! End-to-end reporting: sweep results → figure series and tables → CSV,
//! verifying the presentation layer faithfully carries the data.

use biosched::prelude::*;

fn small_sweep() -> (Vec<usize>, Vec<Vec<PointResult>>) {
    let points = vec![4usize, 8];
    let results = sweep(
        &points,
        &[AlgorithmKind::BaseTest, AlgorithmKind::Rbs],
        3,
        EngineKind::Sequential,
        |vms| {
            HeterogeneousScenario {
                vm_count: vms,
                cloudlet_count: 24,
                datacenter_count: 2,
                seed: 3,
            }
            .build()
        },
    );
    (points, results)
}

#[test]
fn sweep_to_figure_to_csv_roundtrip() {
    let (points, results) = small_sweep();
    let mut fig = FigureSeries::new(
        "test",
        "VMs",
        "ms",
        points.iter().map(|p| *p as f64).collect(),
    );
    for (ai, name) in ["Base Test", "RBS"].iter().enumerate() {
        fig.push_series(
            *name,
            results
                .iter()
                .map(|row| row[ai].simulation_time_ms)
                .collect(),
        );
    }
    let csv = fig.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], "VMs,Base Test,RBS");
    assert_eq!(lines.len(), 3);
    // The first data row carries the first point's actual measurement.
    let first_makespan = results[0][0].simulation_time_ms;
    assert!(
        lines[1].contains(&format!("{first_makespan}")),
        "CSV row {} must carry {first_makespan}",
        lines[1]
    );
}

#[test]
fn metrics_table_to_csv() {
    let (_, results) = small_sweep();
    let mut table = Table::new(vec!["algorithm", "makespan"]);
    for r in &results[0] {
        table.push_row(vec![
            r.algorithm.label().to_string(),
            fmt_value(r.simulation_time_ms),
        ]);
    }
    let csv = table.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], "algorithm,makespan");
    assert!(lines[1].starts_with("Base Test,"), "{csv}");
    assert!(lines[2].starts_with("RBS,"), "{csv}");
}

#[test]
fn percentiles_over_real_outcomes() {
    use biosched::metrics::distribution::percentile;
    let scenario = HeterogeneousScenario {
        vm_count: 10,
        cloudlet_count: 100,
        datacenter_count: 2,
        seed: 5,
    }
    .build();
    let outcome = scenario
        .simulate(
            AlgorithmKind::BaseTest
                .build(5)
                .schedule(&scenario.problem()),
        )
        .unwrap();
    let execs: Vec<f64> = outcome
        .records
        .iter()
        .filter_map(|r| r.execution_ms)
        .collect();
    let p50 = percentile(&execs, 0.5).unwrap();
    let p99 = percentile(&execs, 0.99).unwrap();
    assert!(p99 >= p50);
}
