//! Parallel branch and bound for the `L_α`-norm assignment problem.
//!
//! Theorem 11 makes exact multiprocessor makespan exponential, so the
//! exact solver's constant factor matters for the experiment sizes. This
//! module parallelizes [`crate::multi::partition::min_norm_assignment`]
//! (the incremental engine — same `SearchCore`/`descend` search core,
//! same seeded incumbent) across subtrees:
//!
//! * the first few levels of the search tree are expanded breadth-first
//!   — with the sequential engine's own branching rule
//!   (`SearchCore::candidates`: equal-load symmetry breaking and
//!   identical-job dominance) — into a **shared work deque** of prefix
//!   assignments, until there are several tasks per worker (so one
//!   heavy subtree cannot serialize the run);
//! * each task resumes `descend` with the dominance floor its prefix
//!   implies (`SearchCore::replay`), so the prefix boundary prunes the
//!   same orderings of identical jobs the sequential search does;
//! * the worker count respects [`std::thread::available_parallelism`]
//!   (capped by the task count) instead of spawning a thread per branch
//!   unconditionally;
//! * all workers share the incumbent best norm through a lock-free
//!   `AtomicU64` (f64 bits, monotone-decreasing CAS), seeded with the
//!   LPT + local-search upper bound, so pruning stays global from the
//!   first node.
//!
//! Determinism: the *norm* returned equals the sequential solver's
//! exactly (both find the true optimum); the labelling may differ among
//! norm-ties, so tests compare norms, not labels.

use crate::budget::{Budgeted, Degradation, SharedGate, SolveBudget};
use crate::multi::partition::{descend, Incumbent, SearchCore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

/// Shared incumbent: best norm found so far, stored as f64 bits.
///
/// Monotone decreasing updates via CAS; loads are `Acquire` so a worker
/// that sees a better bound also sees it fully (the payload labels are
/// merged after join, so only the *bound* needs to be shared).
struct SharedBest(AtomicU64);

impl SharedBest {
    fn new(seed: f64) -> Self {
        SharedBest(AtomicU64::new(seed.to_bits()))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Lower the incumbent to `value` if it improves; returns whether it
    /// did. Standard CAS loop — `fetch_min` on the bit pattern is not
    /// order-preserving for floats, so compare as f64.
    fn offer(&self, value: f64) -> bool {
        let mut current = self.0.load(Ordering::Acquire);
        loop {
            if value >= f64::from_bits(current) {
                return false;
            }
            match self.0.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }
}

/// A worker-side incumbent: prunes against the global atomic, keeps the
/// best labelling it found locally (labels are merged after join).
struct ParIncumbent<'a> {
    shared: &'a SharedBest,
    best: f64,
    labels: Vec<usize>,
}

impl Incumbent for ParIncumbent<'_> {
    fn prune_at(&self) -> f64 {
        self.shared.get()
    }

    fn offer(&mut self, norm: f64, labels: &[usize]) {
        if norm < self.best {
            self.best = norm;
            self.labels.copy_from_slice(labels);
        }
        self.shared.offer(norm);
    }
}

/// Exact minimum of `Σ L_p^α` over assignments of `works` to `m`
/// processors — parallel version of
/// [`crate::multi::partition::min_norm_assignment`], same result.
///
/// Worker count: [`std::thread::available_parallelism`], capped by the
/// number of frontier tasks. Use
/// [`min_norm_assignment_parallel_with`] to pin it explicitly.
///
/// # Panics
/// If `m == 0`.
pub fn min_norm_assignment_parallel(works: &[f64], m: usize, alpha: f64) -> (Vec<usize>, f64) {
    let workers = thread::available_parallelism().map_or(1, usize::from);
    min_norm_assignment_parallel_with(works, m, alpha, workers)
}

/// [`min_norm_assignment_parallel`] with an explicit worker count —
/// also the hook tests use to exercise the deque/atomic machinery on
/// single-core machines.
///
/// # Panics
/// If `m == 0` or `workers == 0`.
pub fn min_norm_assignment_parallel_with(
    works: &[f64],
    m: usize,
    alpha: f64,
    workers: usize,
) -> (Vec<usize>, f64) {
    min_norm_assignment_parallel_budgeted_with(works, m, alpha, &SolveBudget::UNLIMITED, workers)
        .into_value()
}

/// Budgeted parallel search with the worker count chosen from
/// [`std::thread::available_parallelism`]. See
/// [`min_norm_assignment_parallel_budgeted_with`].
///
/// # Panics
/// If `m == 0`.
pub fn min_norm_assignment_parallel_budgeted(
    works: &[f64],
    m: usize,
    alpha: f64,
    budget: &SolveBudget,
) -> Budgeted<(Vec<usize>, f64)> {
    let workers = thread::available_parallelism().map_or(1, usize::from);
    min_norm_assignment_parallel_budgeted_with(works, m, alpha, budget, workers)
}

/// Parallel version of
/// [`min_norm_assignment_budgeted`](crate::multi::partition::min_norm_assignment_budgeted):
/// workers share a stop flag and a batched node counter, so exhaustion
/// is detected within one batch (~64 nodes) per worker; every subtree a
/// worker abandons contributes its relaxation bound to the shared
/// certificate, keeping the degraded result's gap sound even though
/// the frontier is split across threads.
///
/// With an unlimited budget this is exactly
/// [`min_norm_assignment_parallel_with`].
///
/// # Panics
/// If `m == 0` or `workers == 0`.
pub fn min_norm_assignment_parallel_budgeted_with(
    works: &[f64],
    m: usize,
    alpha: f64,
    budget: &SolveBudget,
    workers: usize,
) -> Budgeted<(Vec<usize>, f64)> {
    assert!(m > 0, "need at least one processor");
    assert!(workers > 0, "need at least one worker");
    let n = works.len();
    if n <= 2 || m == 1 || workers == 1 {
        // Nothing to parallelize (n ≤ 2 has at most two distinct
        // branches after symmetry breaking).
        return crate::multi::partition::min_norm_assignment_budgeted(works, m, alpha, budget);
    }
    let core = SearchCore::new(works, m, alpha);
    let (seed_labels, seed_norm) = core.seed_incumbent();

    // Expand the top of the tree breadth-first into frontier tasks:
    // prefix label vectors, branched exactly like the sequential engine,
    // until there are a few tasks per worker (or the tree is exhausted,
    // in which case the frontier IS the leaf set).
    let target = 4 * workers;
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    let mut cands = vec![0usize; m];
    let mut depth = 0usize;
    while depth < n && frontier.len() < target {
        let mut next = Vec::with_capacity(frontier.len() * m);
        for prefix in &frontier {
            let (st, floor) = core.replay(prefix);
            let count = core.candidates(&st, depth, floor, &mut cands);
            for &slot in &cands[..count] {
                let mut child = prefix.clone();
                child.push(slot);
                next.push(child);
            }
        }
        frontier = next;
        depth += 1;
    }

    let best = SharedBest::new(seed_norm);
    let gate = SharedGate::new(budget);
    let queue: Mutex<Vec<Vec<usize>>> = Mutex::new(frontier);
    let workers = workers.min(queue.lock().expect("unpoisoned").len().max(1));

    let results = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let core = &core;
                let best = &best;
                let queue = &queue;
                let gate = &gate;
                scope.spawn(move || {
                    let mut inc = ParIncumbent {
                        shared: best,
                        best: f64::INFINITY,
                        labels: vec![0usize; n],
                    };
                    let mut labels = vec![0usize; n];
                    let mut scratch = vec![0usize; n * m];
                    let mut wgate = gate.worker();
                    loop {
                        let Some(prefix) = queue.lock().expect("unpoisoned").pop() else {
                            break;
                        };
                        // Rebuild the committed loads for this subtree.
                        // Even after exhaustion the queue is drained:
                        // `descend`'s first tick fails and the subtree's
                        // root bound joins the certificate, so no part
                        // of the tree escapes accounting.
                        let (mut st, floor) = core.replay(&prefix);
                        labels[..prefix.len()].copy_from_slice(&prefix);
                        descend(
                            core,
                            &mut st,
                            &mut labels,
                            prefix.len(),
                            floor,
                            &mut scratch,
                            &mut inc,
                            &mut wgate,
                        );
                    }
                    (inc.best, inc.labels)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker does not panic"))
            .collect::<Vec<_>>()
    });

    // Merge worker results with the heuristic seed: if no worker beat
    // the seed (it was already optimal), the seed labelling stands.
    let (norm, labels_sorted) = results
        .into_iter()
        .chain(std::iter::once((seed_norm, seed_labels)))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least the seed");

    let value = (core.unsort_labels(&labels_sorted), norm);
    if gate.exhausted() {
        let lower_bound = norm.min(gate.min_abandoned());
        Budgeted::Degraded(Degradation {
            bound_gap: norm - lower_bound,
            lower_bound,
            value,
            nodes: gate.nodes(),
            elapsed: gate.elapsed(),
        })
    } else {
        Budgeted::Exact(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::partition::{min_norm_assignment, min_norm_assignment_reference};

    #[test]
    fn matches_sequential_optimum() {
        for (n, m) in [(8usize, 2usize), (10, 3), (12, 2), (14, 3), (15, 6)] {
            let works: Vec<f64> = (0..n).map(|k| 0.3 + (k as f64 * 0.61) % 2.7).collect();
            let (_, seq) = min_norm_assignment(&works, m, 3.0);
            let (_, reference) = min_norm_assignment_reference(&works, m, 3.0);
            // Pinned worker count so the deque/atomic path runs even on
            // single-core CI machines.
            let (labels, par) = super::min_norm_assignment_parallel_with(&works, m, 3.0, 3);
            assert!(
                (seq - par).abs() < 1e-9 * seq,
                "n={n} m={m}: sequential {seq} vs parallel {par}"
            );
            assert!(
                (reference - par).abs() < 1e-9 * reference,
                "n={n} m={m}: reference {reference} vs parallel {par}"
            );
            // The returned labelling realizes the claimed norm.
            let mut loads = vec![0.0f64; m];
            for (w, &p) in works.iter().zip(&labels) {
                loads[p] += w;
            }
            let realized: f64 = loads.iter().map(|l| l.powi(3)).sum();
            assert!((realized - par).abs() < 1e-9 * par);
        }
    }

    #[test]
    fn trivial_cases_delegate() {
        let (labels, norm) = min_norm_assignment_parallel(&[2.0], 3, 3.0);
        assert_eq!(labels, vec![0]);
        assert!((norm - 8.0).abs() < 1e-12);
        let (_, norm1) = min_norm_assignment_parallel(&[1.0, 2.0, 3.0], 1, 2.0);
        assert!((norm1 - 36.0).abs() < 1e-12);
    }

    #[test]
    fn shared_best_orders_correctly() {
        let b = SharedBest::new(f64::INFINITY);
        assert!(b.offer(10.0));
        assert!(!b.offer(11.0));
        assert!(b.offer(9.5));
        assert!((b.get() - 9.5).abs() < 1e-300);
    }

    #[test]
    fn equal_works_split_evenly() {
        let works = vec![1.0; 9];
        let (_, norm) = super::min_norm_assignment_parallel_with(&works, 3, 2.0, 4);
        assert!((norm - 27.0).abs() < 1e-9); // 3 procs × 3² = 27
    }

    #[test]
    fn budgeted_parallel_degrades_soundly() {
        let works: Vec<f64> = (0..16).map(|k| 0.3 + (k as f64 * 0.61) % 2.7).collect();
        let (m, alpha) = (4usize, 3.0);
        let (_, opt) = min_norm_assignment(&works, m, alpha);
        // Tiny node budget: must degrade, with a sound certificate.
        let out = super::min_norm_assignment_parallel_budgeted_with(
            &works,
            m,
            alpha,
            &SolveBudget::nodes(16),
            3,
        );
        let d = out.degradation().expect("16 nodes cannot finish n=16");
        assert!(d.bound_gap >= 0.0);
        assert!(d.lower_bound <= opt + 1e-9 * opt);
        assert!(d.value.1 >= opt - 1e-9 * opt);
        // Unlimited budget through the same entry: exact and equal to
        // the sequential optimum.
        let exact = super::min_norm_assignment_parallel_budgeted_with(
            &works,
            m,
            alpha,
            &SolveBudget::UNLIMITED,
            3,
        );
        assert!(!exact.is_degraded());
        assert!((exact.value().1 - opt).abs() < 1e-9 * opt);
    }

    #[test]
    fn more_processors_than_jobs() {
        let works = [2.0, 1.0, 0.5];
        let (labels, norm) = super::min_norm_assignment_parallel_with(&works, 8, 3.0, 2);
        // Optimal: every job alone.
        assert!((norm - (8.0 + 1.0 + 0.125)).abs() < 1e-9);
        let distinct: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(distinct.len(), 3);
    }
}
