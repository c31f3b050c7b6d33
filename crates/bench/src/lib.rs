//! # biosched-bench — experiment harness
//!
//! Everything needed to regenerate the paper's evaluation section:
//!
//! * [`figures`] — sweep runners + figure extraction for Figs. 4, 5, 6a–d.
//! * [`tables`] — Tables I–VII printed from the implementation's defaults.
//! * [`extended`] / [`convergence`] — the all-scheduler comparison and
//!   the ACO/PSO/GA convergence curves.
//! * [`harness`] — declared flags, scoped thread pools, the child-process
//!   protocol and the JSON report layout shared by the seven bench
//!   binaries (`simbench`, `schedbench`, `reprobench`, `faultbench`,
//!   `streambench`, `dagbench`, `racebench`).
//! * [`rss`] — peak-RSS probe (`VmHWM`) behind every report's RSS figure.
//!
//! The `repro` binary drives the figure modules. Every binary's flags,
//! output file and CI job are listed in the crate's `README.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod convergence;
pub mod extended;
pub mod figures;
pub mod harness;
pub mod rss;
pub mod tables;
