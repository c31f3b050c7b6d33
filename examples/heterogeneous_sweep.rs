//! Mini reproduction of the paper's Fig. 6 on your terminal.
//!
//! ```sh
//! cargo run --release --example heterogeneous_sweep
//! ```
//!
//! Sweeps the VM count across a compressed Fig. 6 x-axis, collects all
//! four metrics for the four studied algorithms, and renders ASCII charts.
//! For the full-resolution sweep use the `repro` binary:
//! `cargo run --release -p biosched-bench --bin repro -- fig6`.

use biosched::prelude::*;

fn main() {
    let points = [25usize, 75, 150, 300];
    let cloudlets = 400;
    println!("sweeping {points:?} VMs × {cloudlets} cloudlets (seed 42)…\n");
    let results = sweep(
        &points,
        &AlgorithmKind::PAPER_SET,
        42,
        EngineKind::Sequential,
        |vms| {
            HeterogeneousScenario {
                vm_count: vms,
                cloudlet_count: cloudlets,
                datacenter_count: 4,
                seed: 42,
            }
            .build()
        },
    );

    type Extractor = fn(&PointResult) -> f64;
    let extractors: [(&str, &str, Extractor); 3] = [
        ("Simulation Time (cf. Fig 6a)", "makespan ms", |r| {
            r.simulation_time_ms
        }),
        ("Degree of Time Imbalance (cf. Fig 6c)", "imbalance", |r| {
            r.imbalance
        }),
        ("Processing Cost (cf. Fig 6d)", "cost", |r| r.total_cost),
    ];

    for (title, y_label, extract) in extractors {
        let mut fig = FigureSeries::new(
            title,
            "VMs",
            y_label,
            points.iter().map(|p| *p as f64).collect(),
        );
        for (ai, alg) in AlgorithmKind::PAPER_SET.iter().enumerate() {
            fig.push_series(
                alg.label(),
                results.iter().map(|row| extract(&row[ai])).collect(),
            );
        }
        println!("{}", fig.render_ascii(64, 14));
    }

    // The headline comparison at the largest point.
    let last = results.last().expect("non-empty sweep");
    let best_makespan = last
        .iter()
        .min_by(|a, b| a.simulation_time_ms.total_cmp(&b.simulation_time_ms))
        .expect("non-empty row");
    let best_cost = last
        .iter()
        .min_by(|a, b| a.total_cost.total_cmp(&b.total_cost))
        .expect("non-empty row");
    println!(
        "at {} VMs: best makespan = {} ({:.0} ms), best cost = {} ({:.0})",
        last[0].vm_count,
        best_makespan.algorithm,
        best_makespan.simulation_time_ms,
        best_cost.algorithm,
        best_cost.total_cost,
    );
}
