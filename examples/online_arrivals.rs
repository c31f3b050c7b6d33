//! Online scheduling with dynamic arrivals and a host failure.
//!
//! ```sh
//! cargo run --release --example online_arrivals
//! ```
//!
//! The paper's introduction motivates schedulers that "adapt to changes
//! along with defined demand". This example drives that regime end to
//! end: cloudlets arrive in Poisson waves, the scheduler is re-invoked
//! per wave with its internal state carried over, and halfway through the
//! run a host fails, taking its VMs — and their queued work — with it.

use biosched::prelude::*;
use biosched::workload::online::{run_online, WavePlan};
use simcloud::ids::HostId;
use simcloud::time::SimTime;

fn main() {
    let scenario = HeterogeneousScenario {
        vm_count: 24,
        cloudlet_count: 240,
        datacenter_count: 2,
        seed: 31,
    }
    .build();
    let plan = WavePlan::poisson(scenario.cloudlet_count(), 30, 8_000.0, 31);
    println!(
        "workload: {} cloudlets arriving in {} Poisson waves over ~{:.0}s\n",
        scenario.cloudlet_count(),
        plan.waves.len(),
        plan.wave_times.last().unwrap_or(&0.0) / 1_000.0
    );

    // Part 1: online vs batch, per algorithm.
    let mut table = Table::new(vec![
        "algorithm",
        "rounds",
        "last finish (s)",
        "mean exec (ms)",
        "finished",
    ]);
    for kind in [
        AlgorithmKind::BaseTest,
        AlgorithmKind::HoneyBee,
        AlgorithmKind::Rbs,
    ] {
        let mut scheduler = kind.build(31);
        let result = run_online(&scenario, scheduler.as_mut(), &plan).expect("feasible scenario");
        let last_finish = result
            .outcome
            .records
            .iter()
            .filter_map(|r| Some(r.finish?.as_secs()))
            .fold(0.0, f64::max);
        table.push_row(vec![
            kind.label().to_string(),
            result.rounds.to_string(),
            fmt_value(last_finish),
            fmt_value(result.outcome.mean_execution_ms().unwrap_or(0.0)),
            result.outcome.finished_count().to_string(),
        ]);
    }
    println!("online (per-wave) scheduling:\n{}", table.render());

    // Part 2: inject a host failure and watch the loss accounting.
    let mut faulty = scenario.clone();
    // Datacenter 0, host 0 dies 20 simulated seconds in.
    faulty
        .host_failures
        .push((0, HostId(0), SimTime::from_secs(20.0)));
    let mut scheduler = AlgorithmKind::BaseTest.build(31);
    let assignment = scheduler.schedule(&faulty.problem());
    let outcome = faulty.simulate(assignment).expect("feasible scenario");
    // `vms_created` counts VMs still active at the end of the run, so
    // after a failure it reports the survivors.
    println!(
        "with a host failure at t=20s: finished {} / failed {} cloudlets; {} of {} VMs survived",
        outcome.finished_count(),
        outcome.failed_count(),
        outcome.vms_created,
        faulty.vm_count(),
    );
    assert_eq!(
        outcome.finished_count() + outcome.failed_count(),
        faulty.cloudlet_count(),
        "conservation: every cloudlet finishes or fails"
    );
    println!("conservation check passed: finished + failed == submitted");

    // Part 3: energy as the fifth metric.
    let energy = estimate_energy(&outcome, faulty.vm_count(), &PowerModel::commodity_server())
        .expect("run finished work");
    println!(
        "energy: {:.1} Wh total ({:.1}% dynamic), mean utilization {:.1}%",
        energy.total_wh(),
        100.0 * energy.dynamic_joules / energy.total_joules(),
        100.0 * energy.mean_utilization
    );
}
