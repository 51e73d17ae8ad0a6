//! Multiprocessor power-aware scheduling (paper §5).
//!
//! The processors share one energy supply (a multi-core laptop, or a
//! server farm metered in aggregate). Two structural observations drive
//! the algorithms:
//!
//! 1. **Makespan**: in a non-dominated schedule every processor finishes
//!    at the same time (else slow the early finishers and save energy);
//! 2. **Total flow**: every processor's *last* job runs at the same
//!    speed (else average them).
//!
//! For **equal-work jobs**, Theorem 10 shows an optimal schedule exists
//! with jobs distributed in *cyclic order* (job `i` on processor
//! `i mod m`) for any symmetric non-decreasing metric — [`cyclic`]
//! implements the assignment and the brute-force enumerator the tests
//! use to confirm its optimality. [`makespan`] combines the cyclic
//! assignment with per-processor frontiers and equalized finish times;
//! [`flow`] combines it with per-processor Theorem-1 solves sharing a
//! global `u = σ_n^α`.
//!
//! For **unequal work**, Theorem 11 shows even two-processor makespan
//! with immediate releases is NP-hard, by reduction from Partition —
//! [`partition`] implements the reduction in both directions, exact
//! solvers (pseudo-polynomial subset-sum DP; `L_α`-norm branch and
//! bound), and the LPT / local-search heuristics that the §5 PTAS remark
//! (Alon et al.) motivates. The branch and bound is **incremental**:
//! its search state is a `pas_numeric::SortedLoads` (sorted load vector
//! with prefix sums), so the waterfill pruning bound is an `O(log m)`
//! query instead of a per-node re-sort — the seed engine survives as
//! `partition::min_norm_assignment_reference`, the equivalence oracle,
//! following the same engine-vs-reference convention as `yds_reference`
//! and `solve_for_u_reference` (see `BENCH_multi.json` for the measured
//! gap). [`makespan`]'s `laptop_immediate` turns the optimal assignment
//! into an executable immediate-release schedule.

pub mod cyclic;
pub mod flow;
pub mod makespan;
pub mod partition;

pub use cyclic::cyclic_assignment;
