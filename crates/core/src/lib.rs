//! # biosched-core — bio-inspired cloud task schedulers
//!
//! Faithful Rust implementations of the algorithms studied in
//! *"Performance Analysis of Bio-Inspired Scheduling Algorithms for Cloud
//! Environments"* (Al Buhussain, De Grande, Boukerche; IPDPS-W 2016):
//!
//! * [`aco::AntColony`] — Ant Colony Optimization (Section IV, Table II),
//! * [`hbo::HoneyBee`] — Honey Bee Optimization (Section III, Eqs. 1–4),
//! * [`rbs::RandomBiasedSampling`] — Random Biased Sampling (Section V),
//! * [`round_robin::RoundRobin`] — the Base Test (CloudSim's cyclic
//!   binder, Section VI-A),
//!
//! plus two related-work baselines ([`minmax::MinMin`] /
//! [`minmax::MaxMin`]) and the paper's future-work proposal, an
//! objective-driven adaptive [`hybrid::Hybrid`].
//!
//! Four population metaheuristics from the related work — [`ga::Genetic`],
//! [`pso::ParticleSwarm`], [`cuckoo_sos::CuckooSos`] and [`gsa::Gsa`] —
//! share one stepper contract, [`population::PopulationRun`]: each is an
//! anytime run advanced one native iteration at a time. The same runs
//! back both the one-shot scheduler ([`population::Stepped`]) and the
//! members of the anytime [`racing::RacingScheduler`].
//!
//! All schedulers are pure: they map a [`problem::SchedulingProblem`]
//! snapshot to an [`assignment::Assignment`] (a cloudlet→VM vector) that
//! the `simcloud` broker plays back. Every stochastic scheduler takes a
//! seed and is fully deterministic for it.
//!
//! ```
//! use biosched_core::prelude::*;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::homogeneous_default(); 4],
//!     vec![CloudletSpec::homogeneous_default(); 16],
//!     CostModel::default(),
//! );
//! let mut scheduler = AlgorithmKind::AntColony.build(42);
//! let assignment = scheduler.schedule(&problem);
//! assert!(assignment.validate(&problem).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aco;
pub mod assignment;
pub mod baselines;
pub mod cuckoo_sos;
pub mod dnc;
pub mod eval;
pub mod ga;
pub mod gsa;
pub mod hbo;
pub mod hybrid;
pub mod minmax;
pub mod objective;
pub mod population;
pub mod portfolio;
pub mod problem;
pub mod pso;
pub mod racing;
pub mod rbs;
pub mod round_robin;
pub mod scheduler;
pub mod tuning;
pub mod warm;
pub mod workflow;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::aco::{AcoParams, AntColony};
    pub use crate::assignment::Assignment;
    pub use crate::baselines::{LeastConnection, WeightedRoundRobin};
    pub use crate::cuckoo_sos::{CsosParams, CuckooSos};
    pub use crate::dnc::{DivideAndConquer, ShardSpec};
    pub use crate::eval::{evaluate_population, EvalCache, LoadTracker};
    pub use crate::ga::{GaParams, Genetic};
    pub use crate::gsa::{Gsa, GsaParams};
    pub use crate::hbo::{HboParams, HoneyBee};
    pub use crate::hybrid::Hybrid;
    pub use crate::minmax::{MaxMin, MinMin};
    pub use crate::objective::{score_assignment, Objective};
    pub use crate::portfolio::Portfolio;
    pub use crate::problem::{DatacenterView, SchedulingProblem};
    pub use crate::pso::{ParticleSwarm, PsoParams};
    pub use crate::racing::{RaceParams, RacingScheduler};
    pub use crate::rbs::{RandomBiasedSampling, RbsParams};
    pub use crate::round_robin::RoundRobin;
    pub use crate::scheduler::{AlgorithmKind, Scheduler};
    pub use crate::tuning::SchedTuning;
    pub use crate::warm::WarmState;
    pub use crate::workflow::{heft, heft_estimate_ms, upward_ranks};
}
