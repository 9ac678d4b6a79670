//! # resacc-bench
//!
//! Reproduction harness for every table and figure in the ResAcc paper's
//! evaluation (Section VII + appendices). Each experiment is a function in
//! [`harness`] that prints the same rows/series the paper reports; the
//! `repro` binary dispatches on experiment id (`repro table3`, `repro fig21`,
//! `repro all`). Criterion micro-benchmarks live under `benches/`.
//!
//! Absolute numbers are produced on synthetic laptop-scale analogues of the
//! paper's datasets ([`datasets`]) — the claims under reproduction are the
//! *shapes*: who wins, by what factor, and where parameter sweeps turn.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod emit;
pub mod harness;

pub use datasets::{build, build_all, Dataset, Scale};
