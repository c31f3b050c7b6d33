//! # simcloud — a discrete-event cloud simulator
//!
//! `simcloud` is a from-scratch Rust substitute for the parts of CloudSim
//! exercised by *"Performance Analysis of Bio-Inspired Scheduling
//! Algorithms for Cloud Environments"* (Al Buhussain, De Grande,
//! Boukerche; IPDPS-W 2016): datacenters with priced resources, hosts with
//! processing elements and RAM/bandwidth/storage provisioners, VMs with
//! space- or time-shared cloudlet schedulers, a broker that plays back a
//! cloudlet→VM assignment, and a deterministic event kernel.
//!
//! The crate deliberately separates *deciding* from *executing*: scheduling
//! algorithms (in `biosched-core`) are pure functions that produce an
//! assignment, and the simulator measures what that assignment costs in
//! simulated time, balance and money.
//!
//! ## Layers
//!
//! * [`kernel`] — event queue, clock, entity dispatch ([`kernel::Kernel`]),
//!   plus a sharded per-VM replay engine selected via
//!   [`simulation::EngineKind`] (trace-equivalent, parallel over VMs).
//! * Resources — [`pe`], [`host`], [`provisioner`], [`characteristics`].
//! * Execution — [`cloudlet_sched`] (space/time shared), [`datacenter`]
//!   (with first-fit VM→host placement), [`broker`], [`network`], [`cost`].
//! * Measurement — [`stats::SimulationOutcome`] with the paper's Eq. 12
//!   (simulation time) and Eq. 13 (time imbalance).
//! * Orchestration — [`simulation::SimulationBuilder`], the one-call API.
//!
//! See the crate-level example on [`simulation::SimulationBuilder`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod broker;
pub mod characteristics;
pub mod cloudlet;
pub mod cloudlet_sched;
pub mod cost;
pub mod datacenter;
pub mod energy;
pub mod error;
pub mod event;
pub mod faults;
pub mod host;
pub mod ids;
pub mod kernel;
pub mod network;
pub mod pe;
pub mod provisioner;
pub mod rng;
mod sharded;
pub mod simulation;
pub mod stats;
pub mod time;
pub mod vm;
mod vm_alloc;

/// Convenience re-exports for scenario construction.
pub mod prelude {
    pub use crate::broker::{RecoveryPolicy, Rescheduler};
    pub use crate::characteristics::{CostModel, DatacenterCharacteristics};
    pub use crate::cloudlet::{Cloudlet, CloudletSpec, CloudletStatus};
    pub use crate::cloudlet_sched::SchedulerKind;
    pub use crate::datacenter::DatacenterBlueprint;
    pub use crate::energy::{estimate_energy, EnergyReport, PowerModel};
    pub use crate::error::SimError;
    pub use crate::faults::{FaultPlan, FaultSpec, HostOutage, VmSlowdown};
    pub use crate::host::{Host, HostSpec};
    pub use crate::ids::{CloudletId, DatacenterId, HostId, VmId};
    pub use crate::network::Topology;
    pub use crate::simulation::{EngineKind, SimulationBuilder};
    pub use crate::stats::{
        CloudletRecord, RecordMode, ResilienceCounters, SimulationOutcome, VmUsage,
    };
    pub use crate::time::SimTime;
    pub use crate::vm::{Vm, VmSpec, VmStatus};
}
