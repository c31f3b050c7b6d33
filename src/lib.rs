//! # biosched — bio-inspired cloud scheduling, end to end
//!
//! A Rust reproduction of *"Performance Analysis of Bio-Inspired
//! Scheduling Algorithms for Cloud Environments"* (Al Buhussain,
//! De Grande, Boukerche; IPDPS Workshops 2016), packaged as a facade over
//! four crates:
//!
//! * [`simcloud`] — a discrete-event cloud simulator (the CloudSim
//!   substitute): datacenters, hosts, VMs, cloudlets, brokers, cost model.
//! * [`core`] — the schedulers: Ant Colony Optimization,
//!   Honey Bee Optimization, Random Biased Sampling, the cyclic Base
//!   Test, Min-Min/Max-Min baselines, and an adaptive hybrid.
//! * [`workload`] — the paper's homogeneous and
//!   heterogeneous scenario generators plus stress workloads.
//! * [`metrics`] — percentiles, figure series, reports.
//!
//! ## Quickstart
//!
//! ```
//! use biosched::prelude::*;
//!
//! // The paper's heterogeneous setup, scaled down: 20 VMs, 100 cloudlets.
//! let scenario = HeterogeneousScenario {
//!     vm_count: 20,
//!     cloudlet_count: 100,
//!     datacenter_count: 4,
//!     seed: 42,
//! }
//! .build();
//!
//! // Schedule with ACO and measure with the simulator.
//! let problem = scenario.problem();
//! let mut scheduler = AlgorithmKind::AntColony.build(42);
//! let assignment = scheduler.schedule(&problem);
//! let outcome = scenario.simulate(assignment).expect("feasible scenario");
//!
//! assert_eq!(outcome.finished_count(), 100);
//! println!("makespan: {:.1} ms", outcome.simulation_time_ms().unwrap());
//! println!("imbalance: {:.2}", outcome.time_imbalance().unwrap());
//! println!("cost: {:.1}", outcome.total_cost());
//! ```
//!
//! ## Beyond the paper's batch model
//!
//! The simulator also supports workflow DAGs, staggered arrivals, seeded
//! host outages and stragglers with retry/backoff recovery, SLA deadlines
//! and energy accounting:
//!
//! ```
//! use biosched::core::workflow::heft;
//! use biosched::prelude::*;
//! use biosched::workload::workflow;
//!
//! // A fork-join workflow on a small heterogeneous fleet.
//! let mut scenario = HeterogeneousScenario {
//!     vm_count: 8, cloudlet_count: 1, datacenter_count: 2, seed: 7,
//! }
//! .build();
//! let wf = workflow::fork_join(4, 2, 2_000.0);
//! wf.install(&mut scenario);
//!
//! let problem = scenario.problem();
//! let plan = heft(&problem, &wf.parents);
//! let outcome = scenario.simulate(plan).expect("feasible");
//! assert_eq!(outcome.finished_count(), wf.len());
//!
//! // Precedence held: no child started before its parents finished.
//! for (c, parents) in wf.parents.iter().enumerate() {
//!     for p in parents {
//!         assert!(outcome.records[c].start >= outcome.records[p.index()].finish);
//!     }
//! }
//! ```
//!
//! To regenerate the paper's tables and figures, run the harness binary:
//! `cargo run --release -p biosched-bench --bin repro -- all`, or use the
//! `biosched` CLI (`cargo run --release -p biosched-cli -- help`) for
//! ad-hoc experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use biosched_core as core;
pub use biosched_metrics as metrics;
pub use biosched_workload as workload;
pub use simcloud;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use biosched_core::prelude::*;
    pub use biosched_metrics::prelude::*;
    pub use biosched_workload::prelude::*;
    pub use simcloud::prelude::*;
}
