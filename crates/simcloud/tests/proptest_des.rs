//! Property-based tests of the discrete-event substrate itself, driven
//! through the raw `SimulationBuilder` (no workload generators, no
//! schedulers) so the invariants tested are the kernel's own.

use proptest::prelude::*;
use simcloud::prelude::*;

/// A raw random scenario: fleet shape, workload shape, assignment.
#[derive(Debug, Clone)]
struct RawScenario {
    vms: Vec<VmSpec>,
    cloudlets: Vec<CloudletSpec>,
    assignment: Vec<VmId>,
    time_shared: bool,
}

fn raw_scenario() -> impl Strategy<Value = RawScenario> {
    let vm = (500.0f64..4_000.0, 1u32..=4)
        .prop_map(|(mips, pes)| VmSpec::new(mips, 5_000.0, 512.0, 500.0, pes));
    let cloudlet = (100.0f64..20_000.0, 0.0f64..400.0, 1u32..=4)
        .prop_map(|(len, file, pes)| CloudletSpec::new(len, file, file, pes));
    (
        prop::collection::vec(vm, 1..8),
        prop::collection::vec(cloudlet, 1..40),
        prop::bool::ANY,
        any::<u64>(),
    )
        .prop_map(|(vms, cloudlets, time_shared, pick)| {
            let assignment = (0..cloudlets.len())
                .map(|i| VmId::from_index(((pick as usize).wrapping_add(i * 7)) % vms.len()))
                .collect();
            RawScenario {
                vms,
                cloudlets,
                assignment,
                time_shared,
            }
        })
}

fn run(raw: &RawScenario) -> SimulationOutcome {
    // One roomy host per VM: every VM is created, nothing is rejected.
    let envelope = VmSpec {
        mips: raw.vms.iter().map(|v| v.mips).fold(0.0, f64::max),
        size_mb: 5_000.0,
        ram_mb: 512.0,
        bw_mbps: 500.0,
        pes: raw.vms.iter().map(|v| v.pes).max().unwrap(),
    };
    let mut blueprint = simcloud::datacenter::DatacenterBlueprint::sized_for(
        &envelope,
        raw.vms.len(),
        1,
        DatacenterCharacteristics::default(),
    );
    blueprint.scheduler = if raw.time_shared {
        SchedulerKind::TimeShared
    } else {
        SchedulerKind::SpaceShared
    };
    SimulationBuilder::new()
        .datacenter(blueprint)
        .vms(raw.vms.clone())
        .cloudlets(raw.cloudlets.clone())
        .assignment(raw.assignment.clone())
        .run()
        .expect("raw scenarios are feasible by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kernel always drains; every cloudlet finishes; the clock never
    /// precedes the work it measures.
    #[test]
    fn kernel_always_completes(raw in raw_scenario()) {
        let outcome = run(&raw);
        prop_assert_eq!(outcome.finished_count(), raw.cloudlets.len());
        prop_assert_eq!(outcome.failed_count(), 0);
        prop_assert_eq!(outcome.vms_created, raw.vms.len());
        let makespan = outcome.simulation_time_ms().unwrap();
        prop_assert!(outcome.end_time.as_millis() + 1e-9 >= makespan);
    }

    /// Per-cloudlet compute lower bound: nothing finishes faster than its
    /// solo runtime on its assigned VM.
    #[test]
    fn no_cloudlet_beats_physics(raw in raw_scenario()) {
        let outcome = run(&raw);
        for (i, r) in outcome.records.iter().enumerate() {
            let vm = &raw.vms[raw.assignment[i].index()];
            let cl = &raw.cloudlets[i];
            let effective_pes = cl.pes.min(vm.pes);
            let solo_ms = cl.length_mi / (vm.mips * f64::from(effective_pes)) * 1_000.0;
            let exec = r.execution_ms.unwrap();
            prop_assert!(
                exec + 1e-6 >= solo_ms,
                "cloudlet {i} ran in {exec}ms, below solo bound {solo_ms}ms"
            );
        }
    }

    /// Event accounting: the kernel processes at least one event per
    /// cloudlet and per VM, and a bounded multiple of them.
    #[test]
    fn event_count_is_linear(raw in raw_scenario()) {
        let outcome = run(&raw);
        let n = raw.cloudlets.len() as u64;
        let v = raw.vms.len() as u64;
        prop_assert!(outcome.events_processed >= n + v);
        // Submit + finish + ticks + acks: comfortably under 8 events per
        // object (a regression here means a tick storm).
        prop_assert!(
            outcome.events_processed <= 8 * (n + v) + 16,
            "event storm: {} events for {} cloudlets / {} VMs",
            outcome.events_processed, n, v
        );
    }

    /// Runs are bit-identical when repeated.
    #[test]
    fn repeat_runs_identical(raw in raw_scenario()) {
        let a = run(&raw);
        let b = run(&raw);
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(a.end_time, b.end_time);
        for (ra, rb) in a.records.iter().zip(&b.records) {
            prop_assert_eq!(ra.finish, rb.finish);
            prop_assert_eq!(ra.start, rb.start);
        }
    }

    /// Fluid lower bound per VM: the last completion on a VM can never
    /// precede (work assigned to it) / (its peak capacity), under either
    /// sharing discipline. (A cross-discipline *upper* bound does not
    /// exist: space-shared FIFO suffers head-of-line blocking from
    /// multi-PE cloudlets that time-shared does not.)
    #[test]
    fn per_vm_fluid_lower_bound(raw in raw_scenario()) {
        let outcome = run(&raw);
        let v = raw.vms.len();
        let mut work_mi = vec![0.0f64; v];
        for (i, vm) in raw.assignment.iter().enumerate() {
            work_mi[vm.index()] += raw.cloudlets[i].length_mi;
        }
        let mut last_finish = vec![0.0f64; v];
        let mut first_start = vec![f64::INFINITY; v];
        for (i, r) in outcome.records.iter().enumerate() {
            let vm = raw.assignment[i].index();
            last_finish[vm] = last_finish[vm].max(r.finish.unwrap().as_millis());
            first_start[vm] = first_start[vm].min(r.start.unwrap().as_millis());
        }
        for vm in 0..v {
            if work_mi[vm] == 0.0 {
                continue;
            }
            let bound_ms = work_mi[vm] / raw.vms[vm].total_mips() * 1_000.0;
            let busy_span = last_finish[vm] - first_start[vm].min(last_finish[vm]);
            prop_assert!(
                busy_span + 1e-6 >= bound_ms
                    || last_finish[vm] + 1e-6 >= bound_ms,
                "vm {vm} finished {bound_ms}ms of fluid work in {busy_span}ms"
            );
        }
    }
}
