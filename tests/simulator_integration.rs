//! Cross-crate integration tests of the simulation substrate: analytic
//! validation of the DES against closed-form expectations, determinism,
//! and failure handling through the full Scenario → simulate pipeline.

use biosched::prelude::*;
use simcloud::cloudlet_sched::SchedulerKind;
use simcloud::datacenter::DatacenterBlueprint;

/// One VM at 1000 MIPS, pure-compute cloudlets: simulated times must match
/// hand-computed values exactly.
#[test]
fn space_shared_serial_execution_is_exact() {
    let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
    let cloudlets: Vec<CloudletSpec> = [500.0, 1_000.0, 250.0]
        .iter()
        .map(|mi| CloudletSpec::new(*mi, 0.0, 0.0, 1))
        .collect();
    let outcome = SimulationBuilder::new()
        .datacenter(DatacenterBlueprint::sized_for(
            &vm,
            1,
            1,
            DatacenterCharacteristics::default(),
        ))
        .vms(vec![vm])
        .cloudlets(cloudlets)
        .assignment(vec![VmId(0); 3])
        .run()
        .unwrap();
    // Serial FIFO: 500ms + 1000ms + 250ms.
    assert!((outcome.simulation_time_ms().unwrap() - 1_750.0).abs() < 1e-6);
    let execs: Vec<f64> = outcome
        .records
        .iter()
        .map(|r| r.execution_ms.unwrap())
        .collect();
    assert!((execs[0] - 500.0).abs() < 1e-6);
    assert!((execs[1] - 1_000.0).abs() < 1e-6);
    assert!((execs[2] - 250.0).abs() < 1e-6);
}

/// Two equal cloudlets time-sharing one PE finish together at 2× the
/// solo time.
#[test]
fn time_shared_contention_is_exact() {
    let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
    let scenario_cl = CloudletSpec::new(1_000.0, 0.0, 0.0, 1);
    let mut blueprint =
        DatacenterBlueprint::sized_for(&vm, 1, 1, DatacenterCharacteristics::default());
    blueprint.scheduler = SchedulerKind::TimeShared;
    let outcome = SimulationBuilder::new()
        .datacenter(blueprint)
        .vms(vec![vm])
        .cloudlets(vec![scenario_cl; 2])
        .assignment(vec![VmId(0); 2])
        .run()
        .unwrap();
    for r in &outcome.records {
        assert!(
            (r.execution_ms.unwrap() - 2_000.0).abs() < 1e-6,
            "each contended cloudlet runs at half speed: {:?}",
            r.execution_ms
        );
    }
}

/// Input staging delays execution start by fileSize×8/bw seconds.
#[test]
fn input_transfer_delays_start() {
    let vm = VmSpec::new(1_000.0, 5_000.0, 512.0, 500.0, 1);
    let cl = CloudletSpec::new(250.0, 300.0, 0.0, 1); // 4.8s staging
    let outcome = SimulationBuilder::new()
        .datacenter(DatacenterBlueprint::sized_for(
            &vm,
            1,
            1,
            DatacenterCharacteristics::default(),
        ))
        .vms(vec![vm])
        .cloudlets(vec![cl])
        .assignment(vec![VmId(0)])
        .run()
        .unwrap();
    let r = &outcome.records[0];
    let start = r.start.unwrap().as_millis();
    assert!((start - 4_800.0).abs() < 1e-6, "staging delay, got {start}");
    assert!((r.finish.unwrap().as_millis() - 5_050.0).abs() < 1e-6);
}

/// The same scenario + assignment always produces an identical outcome.
#[test]
fn simulation_is_deterministic() {
    let scenario = HeterogeneousScenario {
        vm_count: 20,
        cloudlet_count: 100,
        datacenter_count: 3,
        seed: 5,
    }
    .build();
    let assignment = AlgorithmKind::Rbs.build(5).schedule(&scenario.problem());
    let a = scenario.simulate(assignment.clone()).unwrap();
    let b = scenario.simulate(assignment).unwrap();
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.total_cost(), b.total_cost());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.finish, rb.finish);
        assert_eq!(ra.cost, rb.cost);
    }
}

/// Conservation: every cloudlet either finishes or fails, never vanishes.
#[test]
fn cloudlet_conservation_under_rejections() {
    // Tiny datacenter that can host only 2 of 5 requested VMs.
    let vm = VmSpec::homogeneous_default();
    let outcome = SimulationBuilder::new()
        .datacenter(DatacenterBlueprint::sized_for(
            &vm,
            2,
            1,
            DatacenterCharacteristics::default(),
        ))
        .vms(vec![vm; 5])
        .cloudlets(vec![CloudletSpec::homogeneous_default(); 20])
        .assignment((0..20).map(|i| VmId::from_index(i % 5)).collect())
        .run()
        .unwrap();
    assert_eq!(outcome.vms_created, 2);
    assert_eq!(outcome.vms_rejected, 3);
    assert_eq!(outcome.finished_count() + outcome.failed_count(), 20);
    // Exactly the cloudlets bound to the two surviving VMs finish.
    assert_eq!(outcome.finished_count(), 8);
}

/// Makespan equals the simulated clock's busy window and bounds every
/// per-cloudlet execution.
#[test]
fn makespan_bounds_execution_times() {
    let scenario = HeterogeneousScenario {
        vm_count: 15,
        cloudlet_count: 120,
        datacenter_count: 2,
        seed: 8,
    }
    .build();
    let assignment = AlgorithmKind::HoneyBee
        .build(8)
        .schedule(&scenario.problem());
    let outcome = scenario.simulate(assignment).unwrap();
    let makespan = outcome.simulation_time_ms().unwrap();
    for r in outcome.records.iter() {
        let exec = r.execution_ms.unwrap();
        assert!(
            exec <= makespan + 1e-6,
            "execution {exec} cannot exceed makespan {makespan}"
        );
    }
    assert!(outcome.end_time.as_millis() >= makespan);
}

/// Multi-datacenter topologies with per-DC latency shift submission times.
#[test]
fn topology_latency_shifts_submissions() {
    let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
    let cl = CloudletSpec::new(1_000.0, 0.0, 0.0, 1);
    let run = |latency: f64| {
        SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                1,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm.clone()])
            .cloudlets(vec![cl.clone()])
            .assignment(vec![VmId(0)])
            .topology(Topology::with_latencies(vec![latency]))
            .run()
            .unwrap()
    };
    let near = run(0.0);
    let far = run(250.0);
    let start_near = near.records[0].start.unwrap().as_millis();
    let start_far = far.records[0].start.unwrap().as_millis();
    // VM creation and cloudlet submission each cross the link once.
    assert!(
        (start_far - start_near - 500.0).abs() < 1e-6,
        "two one-way latencies expected, got {}",
        start_far - start_near
    );
}

/// Deadlines flow end to end: a queued cloudlet misses a tight SLA while
/// the first one meets it.
#[test]
fn sla_accounting_end_to_end() {
    let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
    // Solo runtime 1s. Deadline 1.5s: the first (runs 0-1s) meets it; the
    // second (queued, finishes at 2s) misses.
    let cl = CloudletSpec::new(1_000.0, 0.0, 0.0, 1).with_deadline(1_500.0);
    let outcome = SimulationBuilder::new()
        .datacenter(DatacenterBlueprint::sized_for(
            &vm,
            1,
            1,
            DatacenterCharacteristics::default(),
        ))
        .vms(vec![vm])
        .cloudlets(vec![cl; 2])
        .assignment(vec![VmId(0); 2])
        .run()
        .unwrap();
    assert_eq!(outcome.records[0].met_deadline, Some(true));
    assert_eq!(outcome.records[1].met_deadline, Some(false));
    assert_eq!(outcome.sla_violations(), 1);
    assert!((outcome.sla_attainment().unwrap() - 0.5).abs() < 1e-12);
}

/// SLA attainment is monotone in deadline slack: looser SLAs are easier
/// to meet, for every scheduler.
#[test]
fn sla_attainment_monotone_in_slack() {
    use biosched::workload::traces::attach_deadlines;
    for kind in [AlgorithmKind::BaseTest, AlgorithmKind::MaxMin] {
        let mut previous = -1.0f64;
        for slack in [2.0, 8.0, 64.0] {
            let mut scenario = HeterogeneousScenario {
                vm_count: 20,
                cloudlet_count: 120,
                datacenter_count: 2,
                seed: 23,
            }
            .build();
            attach_deadlines(&mut scenario.cloudlets, 2_000.0, slack);
            let problem = scenario.problem();
            let outcome = scenario
                .simulate(kind.build(23).schedule(&problem))
                .unwrap();
            let attainment = outcome.sla_attainment().unwrap();
            assert!(
                attainment >= previous,
                "{kind}: slack {slack} attainment {attainment} fell below {previous}"
            );
            previous = attainment;
        }
        assert!(
            previous > 0.9,
            "{kind}: with 64x slack nearly everything should meet its SLA, got {previous}"
        );
    }
}

/// Arrivals and dependencies compose: a child released by its parent
/// still waits for its own arrival time, and vice versa.
#[test]
fn arrivals_and_dependencies_compose() {
    use simcloud::ids::CloudletId;
    use simcloud::time::SimTime;
    let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
    let cl = CloudletSpec::new(1_000.0, 0.0, 0.0, 1); // 1s each
    let run = |child_arrival: f64| {
        SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(
                &vm,
                2,
                1,
                DatacenterCharacteristics::default(),
            ))
            .vms(vec![vm.clone(); 2])
            .cloudlets(vec![cl.clone(); 2])
            .assignment(vec![VmId(0), VmId(1)])
            .dependencies(vec![vec![], vec![CloudletId(0)]])
            .arrivals(vec![SimTime::ZERO, SimTime::new(child_arrival)])
            .run()
            .unwrap()
    };
    // Parent finishes at 1000ms. Child arriving early starts right then…
    let early = run(100.0);
    assert!((early.records[1].start.unwrap().as_millis() - 1_000.0).abs() < 1e-6);
    // …while a late-arriving child waits for its own arrival.
    let late = run(5_000.0);
    assert!((late.records[1].start.unwrap().as_millis() - 5_000.0).abs() < 1e-6);
}

/// Per-VM busy time from the outcome matches the assignment's work split
/// in a space-shared run.
#[test]
fn per_vm_busy_matches_work_split() {
    let vm = VmSpec::new(1_000.0, 100.0, 128.0, 500.0, 1);
    let outcome = SimulationBuilder::new()
        .datacenter(DatacenterBlueprint::sized_for(
            &vm,
            2,
            1,
            DatacenterCharacteristics::default(),
        ))
        .vms(vec![vm; 2])
        .cloudlets(vec![
            CloudletSpec::new(1_000.0, 0.0, 0.0, 1),
            CloudletSpec::new(2_000.0, 0.0, 0.0, 1),
            CloudletSpec::new(500.0, 0.0, 0.0, 1),
        ])
        .assignment(vec![VmId(0), VmId(1), VmId(0)])
        .run()
        .unwrap();
    let busy = outcome.per_vm_busy_ms(2);
    assert!((busy[0] - 1_500.0).abs() < 1e-6);
    assert!((busy[1] - 2_000.0).abs() < 1e-6);
}

/// Costs accumulate per the datacenter's cost model and scale with prices.
#[test]
fn cost_scales_with_datacenter_prices() {
    let build = |per_processing: f64| {
        let vm = VmSpec::homogeneous_default();
        let chars =
            DatacenterCharacteristics::with_cost(CostModel::new(0.0, 0.0, 0.0, per_processing));
        SimulationBuilder::new()
            .datacenter(DatacenterBlueprint::sized_for(&vm, 2, 1, chars))
            .vms(vec![vm; 2])
            .cloudlets(vec![CloudletSpec::new(1_000.0, 0.0, 0.0, 1); 4])
            .assignment((0..4).map(|i| VmId::from_index(i % 2)).collect())
            .run()
            .unwrap()
    };
    let cheap = build(1.0);
    let dear = build(3.0);
    assert!(cheap.total_cost() > 0.0);
    assert!(
        (dear.total_cost() - 3.0 * cheap.total_cost()).abs() < 1e-9,
        "pure CPU-priced cost must scale linearly"
    );
}
