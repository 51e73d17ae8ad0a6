//! Equivalence oracle for the incremental `L_α`-norm branch and bound.
//!
//! `multi::partition::min_norm_assignment` (incremental sorted-loads
//! state, seeded incumbent, equal-load symmetry breaking) and the kept
//! seed engine `min_norm_assignment_reference` (per-node re-sort and
//! re-scan) must return assignments of identical `L_α` norm — exact
//! optima are unique in value even when the labelling ties — across
//! uniform, skewed, and duplicate-weight job families, including
//! `m > n` and single-job edge cases. The returned labelling must also
//! *realize* its claimed norm.
//!
//! Instances with forced duplicate works (all equal, two values, grid
//! snapped) are also checked against an `m^n` enumeration, because the
//! search prunes orderings of identical jobs: there the exact and
//! node-budgeted solvers must both agree with the enumeration.

use power_aware_scheduling::budget::SolveBudget;
use power_aware_scheduling::multi::partition::{
    local_search, lpt_assignment, min_norm_assignment, min_norm_assignment_budgeted,
    min_norm_assignment_reference,
};
use proptest::prelude::*;

/// Norm agreement required between the engines.
const NORM_TOL: f64 = 1e-9;

/// Check both engines on one instance; returns the incremental
/// engine's norm.
fn check_engines(works: &[f64], m: usize, alpha: f64, label: &str) -> f64 {
    let (inc_labels, inc) = min_norm_assignment(works, m, alpha);
    let (_, reference) = min_norm_assignment_reference(works, m, alpha);
    assert!(
        (inc - reference).abs() <= NORM_TOL * reference.max(1.0),
        "{label}: incremental {inc} vs reference {reference}"
    );
    let realized = realized_norm(works, &inc_labels, m, alpha);
    assert!(
        (realized - inc).abs() <= NORM_TOL * inc.max(1.0),
        "{label}: incremental claims {inc} but realizes {realized}"
    );
    inc
}

/// `Σ L_p^α` realized by a labelling.
fn realized_norm(works: &[f64], labels: &[usize], m: usize, alpha: f64) -> f64 {
    let mut loads = vec![0.0f64; m];
    for (w, &p) in works.iter().zip(labels) {
        assert!(p < m, "label {p} out of range");
        loads[p] += w;
    }
    loads.iter().map(|l| l.powf(alpha)).sum()
}

/// The optimum by enumerating all `m^n` labellings.
fn brute_force_min_norm(works: &[f64], m: usize, alpha: f64) -> f64 {
    fn go(k: usize, works: &[f64], loads: &mut [f64], alpha: f64, best: &mut f64) {
        if k == works.len() {
            *best = best.min(loads.iter().map(|l| l.powf(alpha)).sum());
            return;
        }
        for p in 0..loads.len() {
            let saved = loads[p];
            loads[p] += works[k];
            go(k + 1, works, loads, alpha, best);
            loads[p] = saved;
        }
    }
    let mut best = f64::INFINITY;
    go(0, works, &mut vec![0.0; m], alpha, &mut best);
    best
}

/// The exact and `nodes`-budgeted solvers against the enumeration:
/// the exact norm equals the optimum, labellings realize their norms,
/// and a degraded run's certificate brackets the optimum.
fn check_against_brute_force(works: &[f64], m: usize, alpha: f64, nodes: u64, label: &str) {
    let opt = brute_force_min_norm(works, m, alpha);
    let tol = NORM_TOL * opt.max(1.0);
    let (labels, norm) = min_norm_assignment(works, m, alpha);
    assert!(
        (norm - opt).abs() <= tol,
        "{label}: incremental {norm} vs brute force {opt}"
    );
    let realized = realized_norm(works, &labels, m, alpha);
    assert!(
        (realized - norm).abs() <= tol,
        "{label}: incremental claims {norm} but realizes {realized}"
    );
    let out = min_norm_assignment_budgeted(works, m, alpha, &SolveBudget::nodes(nodes));
    let (labels, norm) = out.value();
    let realized = realized_norm(works, labels, m, alpha);
    assert!(
        (realized - norm).abs() <= tol,
        "{label}: budgeted({nodes}) claims {norm} but realizes {realized}"
    );
    match out.degradation() {
        Some(d) => {
            assert!(
                d.lower_bound <= opt + tol,
                "{label}: budgeted({nodes}) bound {} above optimum {opt}",
                d.lower_bound
            );
            assert!(
                *norm >= opt - tol,
                "{label}: budgeted({nodes}) incumbent {norm} below optimum {opt}"
            );
        }
        None => assert!(
            (norm - opt).abs() <= tol,
            "{label}: budgeted({nodes}) exact {norm} vs brute force {opt}"
        ),
    }
}

#[test]
fn single_job_families() {
    for m in [1usize, 2, 7] {
        let norm = check_engines(&[2.5], m, 3.0, &format!("single job, m={m}"));
        assert!((norm - 2.5f64.powi(3)).abs() < 1e-9);
    }
}

#[test]
fn more_processors_than_jobs() {
    // m > n: optimum puts every job alone, norm = Σ w^α.
    let works = [3.0, 2.0, 1.0];
    for m in [4usize, 8, 16] {
        let norm = check_engines(&works, m, 3.0, &format!("m={m} > n=3"));
        assert!((norm - (27.0 + 8.0 + 1.0)).abs() < 1e-9);
    }
}

#[test]
fn duplicate_weight_families() {
    // All-equal and few-distinct-values instances: the adversarial case
    // for symmetry breaking (every prefix has many tied loads).
    for (n, m) in [(9usize, 3usize), (12, 4), (13, 5)] {
        let works = vec![1.5; n];
        check_engines(&works, m, 3.0, &format!("all-equal n={n} m={m}"));
        let works: Vec<f64> = (0..n).map(|k| 1.0 + (k % 3) as f64).collect();
        check_engines(&works, m, 2.0, &format!("three-valued n={n} m={m}"));
    }
}

#[test]
fn heuristics_bound_the_optimum() {
    // LPT ≥ local-search ≥ optimum, on a mixed family.
    let works: Vec<f64> = (0..13).map(|k| 0.4 + (k as f64 * 0.77) % 2.9).collect();
    let (m, alpha) = (4usize, 3.0);
    let (_, opt) = min_norm_assignment(&works, m, alpha);
    let (lpt_labels, lpt) = lpt_assignment(&works, m, alpha);
    let (_, ls) = local_search(&works, m, alpha, lpt_labels);
    assert!(opt <= lpt + 1e-9 && opt <= ls + 1e-9);
    assert!(ls <= lpt + 1e-12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn uniform_family_norms_agree(
        works in proptest::collection::vec(0.2f64..4.0, 1..13),
        m in 1usize..5,
        alpha in 2.0f64..4.0,
    ) {
        check_engines(&works, m, alpha, "proptest uniform");
    }

    #[test]
    fn skewed_family_norms_agree(
        raw in proptest::collection::vec(0.1f64..1.5, 2..12),
        m in 2usize..5,
    ) {
        // Cubing skews the weights: a few dominant jobs, many tiny ones.
        let works: Vec<f64> = raw.iter().map(|w| w * w * w + 0.05).collect();
        check_engines(&works, m, 3.0, "proptest skewed");
    }

    #[test]
    fn duplicate_family_norms_agree(
        picks in proptest::collection::vec(0usize..3, 2..14),
        m in 2usize..5,
    ) {
        // Weights drawn from a 3-value set: maximal load ties.
        let table = [0.5, 1.25, 2.0];
        let works: Vec<f64> = picks.iter().map(|&i| table[i]).collect();
        check_engines(&works, m, 3.0, "proptest duplicates");
    }

    #[test]
    fn all_equal_works_match_brute_force(
        w in 0.2f64..3.0,
        n in 1usize..11,
        m in 1usize..5,
        alpha in 2usize..4,
        nodes in 0u64..40,
    ) {
        let works = vec![w; n];
        check_against_brute_force(&works, m, alpha as f64, nodes, "all-equal");
    }

    #[test]
    fn two_valued_works_match_brute_force(
        values in (0.2f64..3.0, 0.2f64..3.0),
        picks in proptest::collection::vec(0usize..2, 1..11),
        m in 1usize..5,
        alpha in 2usize..4,
        nodes in 0u64..40,
    ) {
        let works: Vec<f64> = picks
            .iter()
            .map(|&i| if i == 0 { values.0 } else { values.1 })
            .collect();
        check_against_brute_force(&works, m, alpha as f64, nodes, "two-valued");
    }

    #[test]
    fn grid_snapped_works_match_brute_force(
        raw in proptest::collection::vec(0.2f64..3.0, 1..11),
        m in 1usize..5,
        alpha in 2usize..4,
        nodes in 0u64..40,
    ) {
        // Snapped to a 0.25 grid: a handful of distinct works, repeated.
        let works: Vec<f64> = raw.iter().map(|w| (w / 0.25).round() * 0.25).collect();
        check_against_brute_force(&works, m, alpha as f64, nodes, "grid-snapped");
    }
}
