//! Integration tests for the paper's two hardness results.
//!
//! * **Theorem 8** (flow inexactness): the degree-12 witness polynomial,
//!   reproduced exactly, plus the measured correction to the paper's
//!   boundary window (see `flow::hardness` module docs and E6 in
//!   DESIGN.md's "Paper → code" table).
//! * **Theorem 11** (multiprocessor NP-hardness): the Partition
//!   reduction decides correctly in both directions against the exact
//!   subset-sum oracle.

use power_aware_scheduling::flow::hardness;
use power_aware_scheduling::multi::partition;
use power_aware_scheduling::workload::generators;

#[test]
fn theorem8_polynomial_reproduced_exactly() {
    // The elimination of (1)-(3) at E=9 equals the paper's printed
    // coefficients term by term.
    let ours = hardness::boundary_polynomial(9.0);
    let paper = hardness::witness_polynomial();
    assert_eq!(ours.coeffs(), paper.coeffs());
    assert_eq!(paper.degree(), Some(12));
}

#[test]
fn theorem8_witness_verified_inside_measured_window() {
    let report = hardness::verify_witness(1e-12).unwrap();
    // Boundary configuration: J2 completes exactly at t=1.
    assert!((report.solution.completions[1] - 1.0).abs() < 1e-8);
    // Equations (1)-(3) hold ...
    for r in report.equation_residuals {
        assert!(r < 1e-6, "residual {r}");
    }
    // ... and σ2 sits on a root of the degree-12 polynomial: the
    // quantity Theorem 8 proves has no radical expression.
    assert!(report.root_distance < 1e-7);
}

#[test]
fn theorem8_paper_budget_discrepancy_is_stable() {
    // Documented reproduction finding: at the paper's E=9 the optimum is
    // the all-push configuration σ³ ∝ (3, 2, 1), which IS expressible in
    // radicals; the boundary critical point the paper's polynomial
    // describes has strictly larger flow.
    let report = hardness::paper_budget_report(1e-12).unwrap();
    assert_eq!(report.signature, "PP");
    assert!((report.cube_ratios[0] - 3.0).abs() < 1e-6);
    assert!((report.cube_ratios[1] - 2.0).abs() < 1e-6);
    let boundary = report.boundary_flow.unwrap();
    assert!(boundary > report.optimal_flow);
    // The measured window brackets the verified budget.
    let (lo, hi) = hardness::measured_boundary_window();
    assert!(lo < hardness::VERIFIED_BUDGET && hardness::VERIFIED_BUDGET < hi);
    assert!(
        hardness::PAPER_BUDGET < lo,
        "E=9 lies below the measured window"
    );
}

#[test]
fn theorem11_reduction_decides_partition() {
    // Yes instances from the generator...
    for seed in 0..8 {
        let values = generators::partition_yes_instance(4, 30, seed);
        assert!(partition::partition_witness(&values).is_some());
        assert!(
            partition::schedule_decides_partition(&values, 3.0),
            "{values:?}"
        );
    }
    // ...and assorted no instances.
    for values in [
        vec![1u64, 2],
        vec![2, 4, 8, 32],
        vec![3, 3, 3],
        vec![10, 9, 2],
    ] {
        let expected = partition::partition_witness(&values).is_some();
        assert_eq!(
            partition::schedule_decides_partition(&values, 3.0),
            expected,
            "{values:?}"
        );
    }
}

#[test]
fn theorem11_works_for_other_alphas() {
    // The reduction's convexity argument is alpha-independent.
    let values = vec![5u64, 4, 3, 2, 1, 1];
    let expected = partition::partition_witness(&values).is_some();
    for alpha in [1.5, 2.0, 3.0, 4.0] {
        assert_eq!(
            partition::schedule_decides_partition(&values, alpha),
            expected,
            "alpha {alpha}"
        );
    }
}
