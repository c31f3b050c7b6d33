//! # biosched-cli — the `biosched` command-line tool
//!
//! Subcommands: `run`, `compare`, `sweep`, `workflow`, `online`,
//! `stream`, `describe`.
//! See [`commands::usage`] or run `biosched help`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod commands;
pub mod scenario_builder;
