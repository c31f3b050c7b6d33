//! Error types for scenario construction and execution.

use std::fmt;

use crate::ids::{DatacenterId, VmId};

/// Errors produced while validating or running a simulation scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The scenario declared no datacenters.
    NoDatacenters,
    /// The scenario declared no VMs.
    NoVms,
    /// `vm_placement` length differs from the VM count.
    PlacementMismatch {
        /// Number of VMs declared.
        vms: usize,
        /// Number of placement entries supplied.
        placements: usize,
    },
    /// A placement referenced a datacenter that does not exist.
    UnknownDatacenter(DatacenterId),
    /// `assignment` length differs from the cloudlet count.
    AssignmentMismatch {
        /// Number of cloudlets declared.
        cloudlets: usize,
        /// Number of assignment entries supplied.
        assignments: usize,
    },
    /// An assignment referenced a VM that does not exist.
    UnknownVm(VmId),
    /// A VM or cloudlet spec failed validation.
    InvalidSpec {
        /// Human-readable description.
        what: String,
    },
    /// The kernel's runaway-event guard tripped before the queue drained.
    EventLimitExceeded {
        /// Events processed before the guard stopped the run.
        processed: u64,
    },
    /// Workflow dependencies contain a cycle (or reference a missing
    /// cloudlet), so some cloudlets could never be released.
    InvalidDependencies {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoDatacenters => write!(f, "scenario has no datacenters"),
            SimError::NoVms => write!(f, "scenario has no VMs"),
            SimError::PlacementMismatch { vms, placements } => write!(
                f,
                "vm_placement covers {placements} VMs but the scenario has {vms}"
            ),
            SimError::UnknownDatacenter(dc) => {
                write!(f, "placement references unknown datacenter {dc}")
            }
            SimError::AssignmentMismatch {
                cloudlets,
                assignments,
            } => write!(
                f,
                "assignment covers {assignments} cloudlets but the scenario has {cloudlets}"
            ),
            SimError::UnknownVm(vm) => write!(f, "assignment references unknown VM {vm}"),
            SimError::InvalidSpec { what } => write!(f, "invalid spec: {what}"),
            SimError::EventLimitExceeded { processed } => write!(
                f,
                "event limit exceeded after {processed} events (likely a scheduling loop)"
            ),
            SimError::InvalidDependencies { what } => {
                write!(f, "invalid workflow dependencies: {what}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(SimError::NoDatacenters.to_string().contains("datacenters"));
        assert!(SimError::UnknownVm(VmId(3)).to_string().contains("vm3"));
        assert!(SimError::PlacementMismatch {
            vms: 2,
            placements: 1
        }
        .to_string()
        .contains("covers 1"));
        assert!(SimError::EventLimitExceeded { processed: 10 }
            .to_string()
            .contains("10"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(SimError::NoVms);
        assert_eq!(e.to_string(), "scenario has no VMs");
    }
}
