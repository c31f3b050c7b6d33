//! The shared evaluation kernel.
//!
//! Every scheduler in this crate ultimately scores candidate cloudlet→VM
//! bindings with the same two formulas: the Eq. 6 expected execution time
//! `d(c, v)` and the Eq. 1 processing cost. Before this module existed each
//! algorithm recomputed those quantities in its own inner loop through
//! [`crate::problem::SchedulingProblem::expected_exec_ms`], and each kept a
//! private per-VM load vector for makespan/balance bookkeeping. This module
//! centralizes all of it:
//!
//! * [`EvalCache`] — built once per problem; precomputes the per-VM rate
//!   factors and per-cloudlet lengths so `d(c, v)` is recomputed exactly
//!   from cached factors, or read from a dense ETC matrix built when a
//!   caller's declared reads pay for it (the table rule in DESIGN.md
//!   "Evaluation kernel"), and scores whole assignments with the same
//!   floating-point evaluation order as
//!   [`crate::objective::score_assignment`] — results are bit-identical.
//! * [`LoadTracker`] — incremental per-VM busy time with running min / max /
//!   sum order statistics, so makespan, the Eq. 13 imbalance and the Eq. 1
//!   total cost update in O(log V) per (re)assignment instead of O(C·V)
//!   from scratch.
//! * [`evaluate_population`] / [`par_map`] — the one place batch scoring
//!   fans out over threads (behind the `parallel` feature); GA, PSO and
//!   ACO all route their population/tour evaluation through it instead of
//!   owning private `rayon` call sites.
//!
//! Determinism: nothing in this module draws randomness, and the parallel
//! map is order-preserving, so schedulers refactored onto the kernel
//! produce byte-identical assignments per seed.

mod cache;
mod population;
mod tracker;

pub use cache::{CandidateBlock, EvalCache};
pub use population::{
    evaluate_population, par_map, par_map_if, par_map_mut_if, Genome, MIN_PAR_ITEMS,
};
pub use tracker::{LoadTracker, MinLoadHeap};
