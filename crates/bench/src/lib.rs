//! # pas-bench
//!
//! The experiment harness regenerating every figure of the paper and
//! every quantitative claim the reproduction tracks (the E-numbers of
//! DESIGN.md's "Paper → code" table).
//!
//! Each experiment lives in [`experiments`] as a pure function returning
//! [`CsvTable`]s, registered by name in [`experiments::EXPERIMENTS`]:
//! `exp-all` writes every table under `results/`, and
//! `exp-all --only NAME` prints one experiment to stdout.
//!
//! The engine-vs-reference rewrites record their perf trajectories as
//! the nine repo-root `BENCH_*.json` files (E13, E19–E26), listed with
//! their sizing and gates in [`records::RECORDS`], written by
//! [`bench_file`], and regenerated by `exp-scaling --bench-json` (see
//! README.md).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod bench_file;
pub mod experiments;
pub mod harness;
pub mod records;

pub use harness::CsvTable;
