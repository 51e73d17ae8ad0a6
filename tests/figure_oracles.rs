//! Integration tests: the paper's Figures 1–3, through the public API.
//!
//! These are the workspace's acceptance tests for experiment E1–E3 (see
//! DESIGN.md's "Paper → code" table): every number is checked against
//! the closed forms behind the paper's Figures 1–3 (§3) for the instance
//! `r = [0, 5, 6]`, `w = [5, 2, 1]`, `power = speed³`, each written out
//! beside the test that asserts it.

use power_aware_scheduling::prelude::*;

fn paper_instance() -> Instance {
    Instance::from_pairs(&[(0.0, 5.0), (5.0, 2.0), (6.0, 1.0)]).unwrap()
}

/// The hand-derived closed form for M(E), piecewise by configuration.
fn oracle_makespan(e: f64) -> f64 {
    if e >= 17.0 {
        6.0 + (e - 13.0).powf(-0.5)
    } else if e >= 8.0 {
        5.0 + 3.0 * 3f64.sqrt() * (e - 5.0).powf(-0.5)
    } else {
        8f64.powf(1.5) * e.powf(-0.5)
    }
}

#[test]
fn figure1_curve_matches_oracle_everywhere() {
    let instance = paper_instance();
    let model = PolyPower::CUBE;
    let frontier = Frontier::build(&instance, &model);
    for k in 0..=600 {
        let e = 6.0 + 15.0 * k as f64 / 600.0;
        let got = frontier.makespan(&model, e).unwrap();
        let want = oracle_makespan(e);
        assert!(
            (got - want).abs() < 1e-9,
            "E={e}: frontier {got} vs oracle {want}"
        );
        // And IncMerge agrees with the frontier.
        let im = makespan::laptop(&instance, &model, e).unwrap().makespan();
        assert!((im - want).abs() < 1e-9, "E={e}: incmerge {im}");
    }
}

#[test]
fn figure1_breakpoints_exact() {
    let frontier = Frontier::build(&paper_instance(), &PolyPower::CUBE);
    let bp = frontier.breakpoints();
    assert_eq!(bp.len(), 2);
    assert!(
        (bp[0] - 17.0).abs() < 1e-9,
        "paper: configuration change at 17"
    );
    assert!(
        (bp[1] - 8.0).abs() < 1e-9,
        "paper: configuration change at 8"
    );
}

#[test]
fn figure2_derivative_series() {
    // dM/dE is continuous, negative, increasing toward 0.
    let model = PolyPower::CUBE;
    let frontier = Frontier::build(&paper_instance(), &model);
    let mut prev = f64::NEG_INFINITY;
    for k in 0..=300 {
        let e = 6.0 + 15.0 * k as f64 / 300.0;
        let d = frontier.makespan_derivative(&model, e).unwrap();
        assert!(d < 0.0, "E={e}: derivative {d} not negative");
        assert!(d >= prev - 1e-12, "E={e}: derivative decreased");
        prev = d;
    }
    // Exact values at the breakpoints (C¹ continuity).
    assert!((frontier.makespan_derivative(&model, 8.0).unwrap() + 0.5).abs() < 1e-9);
    assert!((frontier.makespan_derivative(&model, 17.0).unwrap() + 1.0 / 16.0).abs() < 1e-9);
}

#[test]
fn figure3_second_derivative_jumps() {
    let model = PolyPower::CUBE;
    let frontier = Frontier::build(&paper_instance(), &model);
    let h = 1e-9;
    let cases = [
        // (energy, left value, right value)
        (8.0, 3.0 / 32.0, 0.25),
        (
            17.0,
            9.0 * 3f64.sqrt() / (4.0 * 12f64.powf(2.5)),
            3.0 / 128.0,
        ),
    ];
    for (e, left, right) in cases {
        let l = frontier.makespan_second_derivative(&model, e - h).unwrap();
        let r = frontier.makespan_second_derivative(&model, e + h).unwrap();
        assert!((l - left).abs() < 1e-6, "E={e}-: {l} vs {left}");
        assert!((r - right).abs() < 1e-6, "E={e}+: {r} vs {right}");
        assert!((l - r).abs() > 1e-3, "no jump at {e}");
    }
}

#[test]
fn figure1_axis_range_endpoints() {
    // The figure's x-axis spans [6, 21]: M(6) ≈ 9.2376 (tick 9.25 on the
    // paper's axis), M(21) ≈ 6.3536.
    let model = PolyPower::CUBE;
    let frontier = Frontier::build(&paper_instance(), &model);
    assert!((frontier.makespan(&model, 6.0).unwrap() - 9.237_604_307).abs() < 1e-6);
    assert!((frontier.makespan(&model, 21.0).unwrap() - 6.353_553_391).abs() < 1e-6);
}

#[test]
fn energy_makespan_curve_is_convex_decreasing() {
    // Non-dominated frontier of a convex bicriteria problem: M(E)
    // strictly decreasing and convex over the sampled range.
    let model = PolyPower::CUBE;
    let frontier = Frontier::build(&paper_instance(), &model);
    let samples: Vec<(f64, f64)> = (0..=150)
        .map(|k| {
            let e = 6.0 + 0.1 * k as f64;
            (e, frontier.makespan(&model, e).unwrap())
        })
        .collect();
    for w in samples.windows(2) {
        assert!(w[1].1 < w[0].1, "not decreasing at E={}", w[1].0);
    }
    for w in samples.windows(3) {
        let mid = 0.5 * (w[0].1 + w[2].1);
        assert!(w[1].1 <= mid + 1e-12, "not convex at E={}", w[1].0);
    }
}
