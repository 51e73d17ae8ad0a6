//! Uniprocessor power-aware **total flow** scheduling for equal-work jobs
//! (paper §4, building on Pruhs–Uthaisombut–Woeginger).
//!
//! Total flow is `Σ_i (C_i − r_i)`. For equal-work jobs the optimum runs
//! jobs in release (FIFO) order, and Theorem 1 pins down the optimal
//! speeds relative to the last job's speed `σ_n` (for `P = σ^α`):
//!
//! * `C_i < r_{i+1}` (a gap follows) → `σ_i = σ_n`;
//! * `C_i > r_{i+1}` (job `i` delays its successor) →
//!   `σ_i^α = σ_{i+1}^α + σ_n^α`;
//! * `C_i = r_{i+1}` (boundary) → `σ_n^α ≤ σ_i^α ≤ σ_{i+1}^α + σ_n^α`.
//!
//! These are the KKT conditions of a convex program, so a speed profile
//! satisfying them **is** optimal ([`kkt`] verifies them for any
//! solution). [`solver`] resolves the profile for a trial `u = σ_n^α`
//! *directly* by block decomposition (a forward contact sweep plus an
//! exact per-segment cascade solve — see [`solver::FlowWorkspace`]) and
//! inverts `u` against the energy budget (laptop) or the flow target
//! (server) with derivative-seeded Newton, the damped fixed-point
//! iteration surviving as [`solver::solve_for_u_reference`] — an
//! *arbitrarily-good approximation*, which Theorem 8 shows is the best
//! possible: [`hardness`] reproduces the paper's three-job witness whose
//! exact optimum requires roots of a degree-12 polynomial with
//! unsolvable Galois group. [`curve`] samples the flow↔energy tradeoff,
//! the flow analog of Figure 1, warm-starting each point from its
//! neighbour.

pub mod curve;
pub mod hardness;
pub mod kkt;
pub mod resilient;
pub mod solver;

pub use kkt::{KktReport, Relation};
pub use resilient::{
    laptop_resilient, solve_for_u_resilient, FallbackEvent, FallbackStage, ResilientSolve,
};
pub use solver::{
    laptop, server, solve_for_u, solve_for_u_reference, BusyBlock, FlowSolution, FlowWorkspace,
};
