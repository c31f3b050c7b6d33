//! Property-based tests over randomly generated scheduling problems.
//!
//! Strategy: generate arbitrary (but feasible) fleets, workloads and
//! price books, then assert the invariants every scheduler and the
//! simulator must uphold regardless of input.

use biosched::prelude::*;
use proptest::prelude::*;
use simcloud::cloudlet_sched::SchedulerKind;

/// A random feasible scenario: 1–24 VMs, 1–60 cloudlets, 1–4 datacenters.
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        1usize..=24,
        1usize..=60,
        1usize..=4,
        0u64..1_000,
        prop::bool::ANY,
    )
        .prop_map(|(vms, cloudlets, dcs, seed, time_shared)| {
            let mut s = HeterogeneousScenario {
                vm_count: vms,
                cloudlet_count: cloudlets,
                datacenter_count: dcs,
                seed,
            }
            .build();
            s.vm_scheduler = if time_shared {
                SchedulerKind::TimeShared
            } else {
                SchedulerKind::SpaceShared
            };
            s
        })
}

/// Fast scheduler set (ACO in its cheap configuration to keep debug-mode
/// proptest runs tractable).
fn schedulers(seed: u64) -> Vec<(&'static str, Box<dyn Scheduler>)> {
    vec![
        ("base", Box::new(RoundRobin::new())),
        ("aco", Box::new(AntColony::new(AcoParams::fast(), seed))),
        ("hbo", Box::new(HoneyBee::new(HboParams::paper(), seed))),
        (
            "rbs",
            Box::new(RandomBiasedSampling::new(RbsParams::paper(), seed)),
        ),
        ("minmin", Box::new(MinMin::new())),
        ("maxmin", Box::new(MaxMin::new())),
        ("hybrid", Box::new(Hybrid::new(Objective::Makespan, seed))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every scheduler covers every cloudlet with an existing VM.
    #[test]
    fn all_schedulers_produce_valid_assignments(scenario in scenario_strategy()) {
        let problem = scenario.problem();
        for (name, mut s) in schedulers(1) {
            let a = s.schedule(&problem);
            prop_assert!(a.validate(&problem).is_ok(), "{name} invalid");
            prop_assert_eq!(a.len(), problem.cloudlet_count(), "{} incomplete", name);
        }
    }

    /// Simulating any valid assignment conserves cloudlets and yields
    /// physically sane metrics.
    #[test]
    fn simulation_invariants(scenario in scenario_strategy(), seed in 0u64..100) {
        let problem = scenario.problem();
        let a = RandomBiasedSampling::new(RbsParams::paper(), seed).schedule(&problem);
        let outcome = scenario.simulate(a).expect("generated scenarios are feasible");
        prop_assert_eq!(
            outcome.finished_count() + outcome.failed_count(),
            problem.cloudlet_count()
        );
        prop_assert_eq!(outcome.failed_count(), 0, "generators size hosts for all VMs");
        let makespan = outcome.simulation_time_ms().expect("all finished");
        prop_assert!(makespan > 0.0);
        for r in &outcome.records {
            let exec = r.execution_ms.expect("finished");
            prop_assert!(exec > 0.0);
            prop_assert!(exec <= makespan + 1e-6);
            prop_assert!(r.cost >= 0.0);
            prop_assert!(r.start.unwrap() <= r.finish.unwrap());
            prop_assert!(r.submit.unwrap() <= r.start.unwrap());
        }
        if let Some(im) = outcome.time_imbalance() {
            prop_assert!(im >= 0.0);
        }
    }

    /// Determinism: same seed, same problem -> identical assignment for
    /// every stochastic scheduler.
    #[test]
    fn stochastic_schedulers_are_seed_deterministic(
        scenario in scenario_strategy(),
        seed in 0u64..50,
    ) {
        let problem = scenario.problem();
        for kind in [AlgorithmKind::Rbs, AlgorithmKind::HoneyBee] {
            let a = kind.build(seed).schedule(&problem);
            let b = kind.build(seed).schedule(&problem);
            prop_assert_eq!(a, b, "{} not deterministic", kind);
        }
    }

    /// Estimated load accounting: per-VM loads sum to the total of all
    /// per-cloudlet expected times.
    #[test]
    fn load_accounting_balances(scenario in scenario_strategy()) {
        let problem = scenario.problem();
        let a = RoundRobin::new().schedule(&problem);
        let per_vm = a.estimated_load_ms(&problem);
        let total_direct: f64 = (0..problem.cloudlet_count())
            .map(|c| problem.expected_exec_ms(c, a.vm_for(c).index()))
            .sum();
        let total_per_vm: f64 = per_vm.iter().sum();
        prop_assert!((total_direct - total_per_vm).abs() < 1e-6 * total_direct.max(1.0));
        let makespan = a.estimated_makespan_ms(&problem);
        prop_assert!(per_vm.iter().all(|l| *l <= makespan + 1e-9));
    }

    /// Eq. 6 monotonicity: a faster VM never increases expected time.
    #[test]
    fn heuristic_prefers_faster_vms(
        mips_lo in 500.0f64..2_000.0,
        boost in 1.1f64..4.0,
        length in 1_000.0f64..20_000.0,
    ) {
        let vms = vec![
            VmSpec::new(mips_lo, 5_000.0, 512.0, 500.0, 1),
            VmSpec::new(mips_lo * boost, 5_000.0, 512.0, 500.0, 1),
        ];
        let p = SchedulingProblem::single_datacenter(
            vms,
            vec![CloudletSpec::new(length, 300.0, 300.0, 1)],
            CostModel::default(),
        );
        prop_assert!(p.expected_exec_ms(0, 1) < p.expected_exec_ms(0, 0));
        prop_assert!(p.heuristic(0, 1) > p.heuristic(0, 0));
    }

    /// Objective scores are non-negative and total-cost scoring is
    /// additive in the workload.
    #[test]
    fn objective_scores_sane(scenario in scenario_strategy()) {
        let problem = scenario.problem();
        let a = RoundRobin::new().schedule(&problem);
        for obj in Objective::ALL {
            let s = score_assignment(&problem, &a, obj);
            prop_assert!(s >= 0.0, "{:?} produced {}", obj, s);
            prop_assert!(s.is_finite());
        }
    }
}

/// Simulated makespan can never beat the analytic lower bound
/// total_work / total_capacity (pure-compute workloads).
#[test]
fn makespan_respects_capacity_lower_bound() {
    let mut scenario = HeterogeneousScenario {
        vm_count: 10,
        cloudlet_count: 80,
        datacenter_count: 2,
        seed: 17,
    }
    .build();
    // Strip file transfers so the bound is exact.
    for cl in &mut scenario.cloudlets {
        cl.file_size_mb = 0.0;
        cl.output_size_mb = 0.0;
    }
    let problem = scenario.problem();
    let total_mi: f64 = problem.cloudlets.iter().map(|c| c.length_mi).sum();
    let total_mips: f64 = problem.vms.iter().map(|v| v.total_mips()).sum();
    let bound_ms = total_mi / total_mips * 1_000.0;
    for kind in AlgorithmKind::PAPER_SET {
        let a = if kind == AlgorithmKind::AntColony {
            AntColony::new(AcoParams::fast(), 17).schedule(&problem)
        } else {
            kind.build(17).schedule(&problem)
        };
        let outcome = scenario.simulate(a).unwrap();
        let makespan = outcome.simulation_time_ms().unwrap();
        assert!(
            makespan >= bound_ms - 1e-6,
            "{kind}: makespan {makespan} below capacity bound {bound_ms}"
        );
    }
}
