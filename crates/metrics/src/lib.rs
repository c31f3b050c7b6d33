//! # biosched-metrics — measurement, statistics and reporting
//!
//! Utilities shared by the benchmark harness and examples:
//!
//! * [`series`] — figure data ([`series::FigureSeries`]) with CSV export
//!   and an ASCII line-chart renderer.
//! * [`report`] — aligned terminal tables and CSV files.
//! * [`distribution`] — nearest-rank percentiles.
//!
//! The paper's metric *definitions* (Eq. 12 simulation time, Eq. 13 time
//! imbalance, processing cost) live on
//! [`simcloud::stats::SimulationOutcome`], next to the data they are
//! computed from; this crate handles aggregation and presentation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distribution;
pub mod report;
pub mod series;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::distribution::percentile;
    pub use crate::report::{fmt_value, Table};
    pub use crate::series::{csv_escape, FigureSeries};
}
