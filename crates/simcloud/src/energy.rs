//! Energy accounting.
//!
//! The paper's related work includes energy-aware schedulers (\[27\] Wang &
//! Wang); this module adds the standard linear power model so energy can
//! be reported as a fifth metric next to the paper's four. A machine draws
//! `idle_w` watts while powered and ramps linearly to `peak_w` at full
//! utilization — the model used throughout the CloudSim power package.

use crate::stats::SimulationOutcome;

/// Linear power model: `P(u) = idle + (peak − idle) · u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Power draw at zero utilization, in watts.
    pub idle_w: f64,
    /// Power draw at full utilization, in watts.
    pub peak_w: f64,
}

impl PowerModel {
    /// Creates a model; peak must be at least idle.
    pub fn new(idle_w: f64, peak_w: f64) -> Self {
        assert!(
            idle_w >= 0.0 && peak_w >= idle_w,
            "need 0 <= idle ({idle_w}) <= peak ({peak_w})"
        );
        PowerModel { idle_w, peak_w }
    }

    /// Power draw at utilization `u ∈ [0, 1]` (clamped).
    pub fn power(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        self.idle_w + (self.peak_w - self.idle_w) * u
    }

    /// A typical commodity server: 100 W idle, 250 W at full load.
    pub fn commodity_server() -> Self {
        PowerModel::new(100.0, 250.0)
    }
}

/// Energy breakdown of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Idle-floor energy: every VM powered for the whole window.
    pub idle_joules: f64,
    /// Dynamic energy: proportional to per-VM busy time.
    pub dynamic_joules: f64,
    /// Mean VM utilization over the window, in `[0, 1]`.
    pub mean_utilization: f64,
}

impl EnergyReport {
    /// Total energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.idle_joules + self.dynamic_joules
    }

    /// Total energy in watt-hours.
    pub fn total_wh(&self) -> f64 {
        self.total_joules() / 3_600.0
    }
}

/// Estimates the energy a run consumed under the linear model, treating
/// each VM as an independently powered unit (one VM per accounting slot;
/// consolidate externally if several VMs share a host).
///
/// The window is the run's busy span (Eq. 12); per-VM busy time is the sum
/// of execution times of the cloudlets it finished. Returns `None` when no
/// cloudlet finished (no meaningful window).
pub fn estimate_energy(
    outcome: &SimulationOutcome,
    vm_count: usize,
    model: &PowerModel,
) -> Option<EnergyReport> {
    let window_s = outcome.simulation_time_ms()? / 1_000.0;
    if window_s <= 0.0 || vm_count == 0 {
        return None;
    }
    // One fused pass (and the only data Aggregate mode retains per VM).
    let usage = outcome.per_vm_usage(vm_count);
    let mut idle_joules = 0.0;
    let mut dynamic_joules = 0.0;
    let mut util_sum = 0.0;
    for b in &usage.busy_ms {
        // A VM cannot be busier than the window; time-shared contention
        // can make the per-cloudlet sum exceed it, so clamp.
        let busy = (b / 1_000.0).min(window_s);
        idle_joules += model.idle_w * window_s;
        dynamic_joules += (model.peak_w - model.idle_w) * busy;
        util_sum += busy / window_s;
    }
    Some(EnergyReport {
        idle_joules,
        dynamic_joules,
        mean_utilization: util_sum / vm_count as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloudlet::CloudletStatus;
    use crate::ids::{CloudletId, VmId};
    use crate::stats::{AggregateMetrics, CloudletRecord};
    use crate::time::SimTime;

    fn outcome(records: Vec<CloudletRecord>) -> SimulationOutcome {
        let mut aggregate = AggregateMetrics::new(2);
        for r in &records {
            aggregate.observe(r);
        }
        SimulationOutcome {
            records,
            aggregate,
            end_time: SimTime::new(1_000.0),
            events_processed: 1,
            vms_created: 2,
            vms_rejected: 0,
            engine: crate::simulation::EngineKind::Sequential,
            resilience: crate::stats::ResilienceCounters::default(),
        }
    }

    fn rec(vm: u32, start: f64, finish: f64) -> CloudletRecord {
        CloudletRecord {
            id: CloudletId(0),
            vm: Some(VmId(vm)),
            submit: Some(SimTime::ZERO),
            start: Some(SimTime::new(start)),
            finish: Some(SimTime::new(finish)),
            execution_ms: Some(finish - start),
            cost: 0.0,
            status: CloudletStatus::Finished,
            met_deadline: None,
        }
    }

    #[test]
    fn power_is_linear_and_clamped() {
        let m = PowerModel::new(100.0, 300.0);
        assert_eq!(m.power(0.0), 100.0);
        assert_eq!(m.power(0.5), 200.0);
        assert_eq!(m.power(1.0), 300.0);
        assert_eq!(m.power(2.0), 300.0);
        assert_eq!(m.power(-1.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "idle")]
    fn peak_below_idle_rejected() {
        let _ = PowerModel::new(200.0, 100.0);
    }

    #[test]
    fn energy_accounting_matches_hand_math() {
        // Window: 1000ms (0..1000). VM0 busy 1000ms, VM1 busy 500ms.
        let o = outcome(vec![rec(0, 0.0, 1_000.0), rec(1, 0.0, 500.0)]);
        let m = PowerModel::new(100.0, 200.0);
        let e = estimate_energy(&o, 2, &m).unwrap();
        // Idle: 2 VMs × 100W × 1s = 200 J.
        assert!((e.idle_joules - 200.0).abs() < 1e-9);
        // Dynamic: 100W × (1.0 + 0.5)s = 150 J.
        assert!((e.dynamic_joules - 150.0).abs() < 1e-9);
        assert!((e.total_joules() - 350.0).abs() < 1e-9);
        assert!((e.mean_utilization - 0.75).abs() < 1e-9);
        assert!((e.total_wh() - 350.0 / 3_600.0).abs() < 1e-12);
    }

    #[test]
    fn busier_schedule_costs_more_dynamic_energy() {
        let light = outcome(vec![rec(0, 0.0, 200.0)]);
        let heavy = outcome(vec![rec(0, 0.0, 200.0), rec(1, 0.0, 200.0)]);
        let m = PowerModel::commodity_server();
        let el = estimate_energy(&light, 2, &m).unwrap();
        let eh = estimate_energy(&heavy, 2, &m).unwrap();
        assert!(eh.dynamic_joules > el.dynamic_joules);
        assert_eq!(el.idle_joules, eh.idle_joules, "same window, same floor");
    }

    #[test]
    fn contended_busy_time_is_clamped_to_window() {
        // Two cloudlets, each "executing" the whole window on the same VM
        // (time-shared overlap): busy must clamp at the window.
        let o = outcome(vec![rec(0, 0.0, 1_000.0), rec(0, 0.0, 1_000.0)]);
        let m = PowerModel::new(0.0, 100.0);
        let e = estimate_energy(&o, 1, &m).unwrap();
        assert!((e.dynamic_joules - 100.0).abs() < 1e-9, "clamped at 1s");
        assert!((e.mean_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_outcome_has_no_energy() {
        let o = outcome(vec![]);
        assert!(estimate_energy(&o, 2, &PowerModel::commodity_server()).is_none());
    }
}
