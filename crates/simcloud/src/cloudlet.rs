//! Cloudlets — the unit of work scheduled onto VMs.
//!
//! A cloudlet is CloudSim's task abstraction: a fixed amount of compute
//! (`length` in million instructions) plus an input and output file that
//! must be moved over the VM's bandwidth. [`CloudletSpec`] mirrors the
//! paper's Table IV / Table VI fields.

use crate::ids::{CloudletId, VmId};
use crate::time::SimTime;

/// Static description of a cloudlet.
///
/// Field names follow the paper's Table IV: `cLength`, `cFileSize`,
/// `cOutputSize`, `cPesNumber`.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudletSpec {
    /// Compute demand in million instructions (MI).
    pub length_mi: f64,
    /// Input file size in MB (transferred in before execution).
    pub file_size_mb: f64,
    /// Output file size in MB (transferred out after execution).
    pub output_size_mb: f64,
    /// Number of PEs the cloudlet needs concurrently.
    pub pes: u32,
    /// Optional SLA deadline: the cloudlet should finish within this many
    /// milliseconds of its submission (the paper's introduction names
    /// "deadlines for hard real-time applications" and "SLA agreements"
    /// as the demands schedulers must react to).
    pub deadline_ms: Option<f64>,
}

impl CloudletSpec {
    /// Creates a spec with no deadline, validating every field.
    pub fn new(length_mi: f64, file_size_mb: f64, output_size_mb: f64, pes: u32) -> Self {
        let spec = CloudletSpec {
            length_mi,
            file_size_mb,
            output_size_mb,
            pes,
            deadline_ms: None,
        };
        spec.validate().expect("invalid CloudletSpec");
        spec
    }

    /// Attaches an SLA deadline (ms from submission).
    pub fn with_deadline(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self.validate().expect("invalid CloudletSpec");
        self
    }

    /// Checks all fields for physical plausibility.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.length_mi.is_finite() && self.length_mi > 0.0) {
            return Err(format!(
                "CloudletSpec.length_mi must be positive, got {}",
                self.length_mi
            ));
        }
        for (name, v) in [
            ("file_size_mb", self.file_size_mb),
            ("output_size_mb", self.output_size_mb),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("CloudletSpec.{name} must be non-negative, got {v}"));
            }
        }
        if self.pes == 0 {
            return Err("CloudletSpec.pes must be at least 1".into());
        }
        if let Some(d) = self.deadline_ms {
            if !(d.is_finite() && d > 0.0) {
                return Err(format!(
                    "CloudletSpec.deadline_ms must be positive, got {d}"
                ));
            }
        }
        Ok(())
    }

    /// The paper's homogeneous-scenario cloudlet (Table IV).
    pub fn homogeneous_default() -> Self {
        CloudletSpec::new(250.0, 300.0, 300.0, 1)
    }
}

impl Default for CloudletSpec {
    fn default() -> Self {
        Self::homogeneous_default()
    }
}

/// Lifecycle state of a cloudlet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CloudletStatus {
    /// Declared but not yet submitted.
    #[default]
    Created,
    /// Submitted to a datacenter, waiting in a VM queue.
    Queued,
    /// Executing on a VM.
    Running,
    /// Completed.
    Finished,
    /// Could not run (e.g. its VM was rejected).
    Failed,
}

/// Execution record of one cloudlet, filled in as the simulation runs.
#[derive(Debug, Clone)]
pub struct Cloudlet {
    /// Identity in the world arena.
    pub id: CloudletId,
    /// Static demand.
    pub spec: CloudletSpec,
    /// Lifecycle state.
    pub status: CloudletStatus,
    /// VM the scheduler bound this cloudlet to.
    pub vm: Option<VmId>,
    /// Time the broker submitted the cloudlet.
    pub submit_time: Option<SimTime>,
    /// Time execution began on the VM.
    pub start_time: Option<SimTime>,
    /// Time execution finished.
    pub finish_time: Option<SimTime>,
    /// Accumulated processing cost (filled by the datacenter's cost model).
    pub cost: f64,
}

impl Cloudlet {
    /// Creates a fresh cloudlet.
    pub fn new(id: CloudletId, spec: CloudletSpec) -> Self {
        Cloudlet {
            id,
            spec,
            status: CloudletStatus::Created,
            vm: None,
            submit_time: None,
            start_time: None,
            finish_time: None,
            cost: 0.0,
        }
    }

    /// Wall (simulated) execution time: finish − start.
    ///
    /// `None` until the cloudlet has both started and finished.
    pub fn execution_time(&self) -> Option<SimTime> {
        match (self.start_time, self.finish_time) {
            (Some(s), Some(f)) => Some(f.saturating_sub(s)),
            _ => None,
        }
    }

    /// Total turnaround: finish − submit.
    fn turnaround_time(&self) -> Option<SimTime> {
        match (self.submit_time, self.finish_time) {
            (Some(s), Some(f)) => Some(f.saturating_sub(s)),
            _ => None,
        }
    }

    /// True once the cloudlet has completed successfully.
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.status == CloudletStatus::Finished
    }

    /// SLA check: `Some(true)` if the cloudlet had a deadline and met it,
    /// `Some(false)` if it had one and missed (or failed), `None` if it
    /// carries no deadline.
    pub fn met_deadline(&self) -> Option<bool> {
        let deadline = self.spec.deadline_ms?;
        if self.status == CloudletStatus::Failed {
            return Some(false);
        }
        let turnaround = self.turnaround_time()?;
        Some(turnaround.as_millis() <= deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_defaults() {
        let c = CloudletSpec::homogeneous_default();
        assert_eq!(c.length_mi, 250.0);
        assert_eq!(c.file_size_mb, 300.0);
        assert_eq!(c.output_size_mb, 300.0);
        assert_eq!(c.pes, 1);
    }

    #[test]
    fn validation() {
        assert!(CloudletSpec {
            length_mi: 0.0,
            ..CloudletSpec::default()
        }
        .validate()
        .is_err());
        assert!(CloudletSpec {
            file_size_mb: -1.0,
            ..CloudletSpec::default()
        }
        .validate()
        .is_err());
        assert!(CloudletSpec {
            pes: 0,
            ..CloudletSpec::default()
        }
        .validate()
        .is_err());
        // zero-size files are allowed (pure-compute tasks)
        assert!(CloudletSpec {
            file_size_mb: 0.0,
            output_size_mb: 0.0,
            ..CloudletSpec::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn timing_math() {
        let mut c = Cloudlet::new(CloudletId(0), CloudletSpec::default());
        assert!(c.execution_time().is_none());
        c.submit_time = Some(SimTime::new(10.0));
        c.start_time = Some(SimTime::new(15.0));
        assert!(c.execution_time().is_none());
        c.finish_time = Some(SimTime::new(40.0));
        assert_eq!(c.execution_time().unwrap().as_millis(), 25.0);
        assert_eq!(c.turnaround_time().unwrap().as_millis(), 30.0);
    }

    #[test]
    fn deadline_validation_and_builder() {
        let c = CloudletSpec::homogeneous_default().with_deadline(500.0);
        assert_eq!(c.deadline_ms, Some(500.0));
        assert!(CloudletSpec {
            deadline_ms: Some(-1.0),
            ..CloudletSpec::default()
        }
        .validate()
        .is_err());
        assert!(CloudletSpec {
            deadline_ms: Some(f64::NAN),
            ..CloudletSpec::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn met_deadline_semantics() {
        let spec = CloudletSpec::homogeneous_default().with_deadline(100.0);
        let mut c = Cloudlet::new(CloudletId(0), spec);
        // No deadline info until it runs.
        assert_eq!(c.met_deadline(), None);
        c.submit_time = Some(SimTime::ZERO);
        c.start_time = Some(SimTime::new(10.0));
        c.finish_time = Some(SimTime::new(90.0));
        c.status = CloudletStatus::Finished;
        assert_eq!(c.met_deadline(), Some(true), "90ms turnaround <= 100ms");
        c.finish_time = Some(SimTime::new(150.0));
        assert_eq!(c.met_deadline(), Some(false));
        // Failed cloudlets with deadlines count as misses.
        let mut failed = Cloudlet::new(CloudletId(1), CloudletSpec::default().with_deadline(1.0));
        failed.status = CloudletStatus::Failed;
        assert_eq!(failed.met_deadline(), Some(false));
        // Best-effort cloudlets never report SLA results.
        let mut best_effort = Cloudlet::new(CloudletId(2), CloudletSpec::default());
        best_effort.submit_time = Some(SimTime::ZERO);
        best_effort.finish_time = Some(SimTime::new(1.0));
        best_effort.status = CloudletStatus::Finished;
        assert_eq!(best_effort.met_deadline(), None);
    }

    #[test]
    fn fresh_cloudlet_state() {
        let c = Cloudlet::new(CloudletId(7), CloudletSpec::default());
        assert_eq!(c.status, CloudletStatus::Created);
        assert!(!c.is_finished());
        assert_eq!(c.cost, 0.0);
        assert!(c.vm.is_none());
    }
}
