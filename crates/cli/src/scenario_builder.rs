//! Builds a [`Scenario`] from parsed CLI options.

use biosched_workload::heterogeneous::HeterogeneousScenario;
use biosched_workload::homogeneous::HomogeneousScenario;
use biosched_workload::scenario::Scenario;
use biosched_workload::traces::attach_deadlines;

use crate::args::CommonOpts;

/// Reference MIPS for SLA deadline attachment (mid Table V).
const SLA_REFERENCE_MIPS: f64 = 2_000.0;

/// Materializes the scenario the options describe.
pub fn build_scenario(opts: &CommonOpts) -> Scenario {
    let mut scenario = if opts.homogeneous {
        HomogeneousScenario {
            vm_count: opts.vms,
            cloudlet_count: opts.cloudlets,
        }
        .build()
    } else {
        HeterogeneousScenario {
            vm_count: opts.vms,
            cloudlet_count: opts.cloudlets,
            datacenter_count: opts.datacenters,
            seed: opts.seed,
        }
        .build()
    };
    scenario.vm_scheduler = opts.vm_scheduler;
    if let Some(slack) = opts.sla_slack {
        attach_deadlines(&mut scenario.cloudlets, SLA_REFERENCE_MIPS, slack);
    }
    if let Some(spec) = &opts.faults {
        biosched_workload::resilience::inject_faults(
            &mut scenario,
            spec,
            opts.fault_seed.unwrap_or(opts.seed),
            simcloud::broker::RecoveryPolicy::default(),
        );
    }
    scenario
}

/// One-line human description of the scenario.
pub fn describe_scenario(opts: &CommonOpts) -> String {
    format!(
        "{} scenario: {} VMs, {} cloudlets, {} datacenter(s), {} VMs, seed {}{}",
        if opts.homogeneous {
            "homogeneous (Tables III/IV)"
        } else {
            "heterogeneous (Tables V-VII)"
        },
        opts.vms,
        opts.cloudlets,
        if opts.homogeneous {
            1
        } else {
            opts.datacenters
        },
        match opts.vm_scheduler {
            simcloud::cloudlet_sched::SchedulerKind::TimeShared => "time-shared",
            simcloud::cloudlet_sched::SchedulerKind::SpaceShared => "space-shared",
            simcloud::cloudlet_sched::SchedulerKind::SpaceSharedBackfill => {
                "space-shared+backfill"
            }
        },
        opts.seed,
        match (&opts.sla_slack, &opts.faults) {
            (Some(s), Some(_)) => format!(", SLA slack {s}x, faults armed"),
            (Some(s), None) => format!(", SLA slack {s}x"),
            (None, Some(_)) => ", faults armed".to_string(),
            (None, None) => String::new(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneous_by_default() {
        let opts = CommonOpts::default();
        let s = build_scenario(&opts);
        assert_eq!(s.vm_count(), 50);
        assert_eq!(s.cloudlet_count(), 500);
        assert_eq!(s.datacenters.len(), 4);
        assert!(!s.problem().is_homogeneous());
    }

    #[test]
    fn homogeneous_flag_switches_tables() {
        let opts = CommonOpts {
            homogeneous: true,
            vms: 8,
            cloudlets: 16,
            ..CommonOpts::default()
        };
        let s = build_scenario(&opts);
        assert!(s.problem().is_homogeneous());
        assert_eq!(s.datacenters.len(), 1);
    }

    #[test]
    fn sla_slack_attaches_deadlines() {
        let opts = CommonOpts {
            sla_slack: Some(4.0),
            cloudlets: 10,
            ..CommonOpts::default()
        };
        let s = build_scenario(&opts);
        assert!(s.cloudlets.iter().all(|c| c.deadline_ms.is_some()));
    }

    #[test]
    fn description_mentions_key_facts() {
        let opts = CommonOpts::default();
        let d = describe_scenario(&opts);
        assert!(d.contains("heterogeneous"));
        assert!(d.contains("50 VMs"));
        assert!(d.contains("seed 42"));
    }
}
