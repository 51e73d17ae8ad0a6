//! The Theorem-8 impossibility witness — with a measured correction.
//!
//! **Theorem 8 (paper §4).** With `power = speed³` there is no exact
//! algorithm minimizing total flow for a given energy budget using
//! `+, −, ×, ÷` and k-th roots, even for equal-work jobs on a
//! uniprocessor.
//!
//! The witness: jobs `J1, J2` released at time 0 and `J3` at time 1, all
//! of unit work. When the optimum finishes `J2` exactly at time 1 (the
//! boundary case of Theorem 1), the speeds satisfy
//!
//! ```text
//! (1)  σ1² + σ2² + σ3² = E        (energy)
//! (2)  1/σ1 + 1/σ2     = 1        (J2 completes at t = 1)
//! (3)  σ1³ = σ2³ + σ3³            (Theorem 1, push case at J1)
//! ```
//!
//! Eliminating `σ1` (via (2)) and `σ3` (via (3)) gives a degree-12
//! polynomial in `σ2` — implemented for any budget by
//! [`boundary_polynomial`]; at the paper's budget `E = 9` it reproduces
//! the paper's printed coefficients *exactly* (asserted in tests). The
//! paper reports (via GAP) that its Galois group is not solvable, hence
//! no radical expression for `σ2` — the group-theoretic step is cited
//! from the paper's Theorem 8, not recomputed.
//!
//! ## Reproduction deviation (E6 in DESIGN.md's "Paper → code" table)
//!
//! The paper states the boundary configuration is optimal for budgets in
//! `≈[8.43, 11.54]` and instantiates the argument at `E = 9`. Our
//! measurements — the Theorem-1 KKT solver *and* an independent direct
//! numerical minimization — both find the boundary window to be
//! `≈[10.3216, 11.5420]`:
//!
//! * the lower end is where the pure-push configuration's `C2` reaches 1:
//!   `E_lo = (1 + 2^{2/3} + 3^{2/3})·(2^{-1/3} + 3^{-1/3})² ≈ 10.3216`;
//! * the upper end is where `σ2` meets `σ3` (gap transition):
//!   `E_hi = (2^{2/3} + 2)·(1 + 2^{-1/3})² ≈ 11.5420`.
//!
//! At `E = 9 < E_lo` the optimum is the all-push configuration with
//! `σ1³ : σ2³ : σ3³ = 3 : 2 : 1` — expressible in radicals. The paper's
//! polynomial at `E = 9` describes the critical point of the
//! `C2 = 1`-*constrained* problem, which is not the global optimum there.
//! Theorem 8's argument goes through verbatim at any budget inside the
//! measured window (the default here is `E = 11`), where our solver's
//! `σ2` converges to a root of [`boundary_polynomial`]`(11)`.

use crate::error::CoreError;
use crate::flow::solver::{self, FlowSolution};
use pas_numeric::Polynomial;
use pas_workload::Instance;

/// The paper's witness instance: unit-work jobs at times 0, 0, 1.
pub fn witness_instance() -> Instance {
    Instance::equal_work(&[0.0, 0.0, 1.0], 1.0).expect("static witness is valid")
}

/// The budget the paper instantiates Theorem 8 at.
pub const PAPER_BUDGET: f64 = 9.0;

/// A budget inside the *measured* boundary window (see module docs),
/// where the hardness argument applies to the actual optimum.
pub const VERIFIED_BUDGET: f64 = 11.0;

/// The measured boundary-configuration window `(E_lo, E_hi)`:
/// `E_lo = (1+2^{2/3}+3^{2/3})(2^{-1/3}+3^{-1/3})²`,
/// `E_hi = (2^{2/3}+2)(1+2^{-1/3})²`.
pub fn measured_boundary_window() -> (f64, f64) {
    let c = |x: f64, p: f64| x.powf(p);
    let lo = (1.0 + c(2.0, 2.0 / 3.0) + c(3.0, 2.0 / 3.0))
        * (c(2.0, -1.0 / 3.0) + c(3.0, -1.0 / 3.0)).powi(2);
    let hi = (c(2.0, 2.0 / 3.0) + 2.0) * (1.0 + c(2.0, -1.0 / 3.0)).powi(2);
    (lo, hi)
}

/// The degree-12 polynomial in `σ2` from the proof of Theorem 8, exactly
/// as printed in the paper (descending coefficients):
///
/// ```text
/// 2σ₂¹² − 12σ₂¹¹ + 6σ₂¹⁰ + 108σ₂⁹ − 159σ₂⁸ − 738σ₂⁷ + 2415σ₂⁶
///   − 1026σ₂⁵ − 5940σ₂⁴ + 12150σ₂³ − 10449σ₂² + 4374σ₂ − 729 = 0
/// ```
///
/// Identical to [`boundary_polynomial`]`(9.0)` (asserted in tests).
pub fn witness_polynomial() -> Polynomial {
    Polynomial::from_descending(vec![
        2.0, -12.0, 6.0, 108.0, -159.0, -738.0, 2415.0, -1026.0, -5940.0, 12150.0, -10449.0,
        4374.0, -729.0,
    ])
}

/// Eliminate `σ1` and `σ3` from the boundary system (1)–(3) at budget
/// `e`, producing the degree-12 polynomial in `s = σ2`:
///
/// ```text
/// s⁶·(1 − (s−1)³)²  −  (e·(s−1)² − s²·(1 + (s−1)²))³
/// ```
///
/// (both sides of `(σ1³−σ2³)² = (e−σ1²−σ2²)³` cleared by `(s−1)⁶` after
/// substituting `σ1 = s/(s−1)`).
pub fn boundary_polynomial(e: f64) -> Polynomial {
    let s = Polynomial::new(vec![0.0, 1.0]);
    let sm1 = Polynomial::new(vec![-1.0, 1.0]);
    let sm1_2 = sm1.mul(&sm1);
    let sm1_3 = sm1_2.mul(&sm1);
    let s2 = s.mul(&s);
    let s6 = s2.mul(&s2).mul(&s2);
    // LHS: s^6 (1 - (s-1)^3)^2
    let one_minus = Polynomial::constant(1.0).add(&sm1_3.scale(-1.0));
    let lhs = s6.mul(&one_minus.mul(&one_minus));
    // RHS: (e (s-1)^2 - s^2 (1 + (s-1)^2))^3
    let inner = sm1_2
        .scale(e)
        .add(&s2.mul(&Polynomial::constant(1.0).add(&sm1_2)).scale(-1.0));
    let rhs = inner.mul(&inner).mul(&inner);
    lhs.add(&rhs.scale(-1.0))
}

/// Everything the witness verification produces.
#[derive(Debug, Clone)]
pub struct WitnessReport {
    /// The budget the report was computed at.
    pub budget: f64,
    /// The approximate optimal solution at that budget.
    pub solution: FlowSolution,
    /// `|p_E(σ2)|` — residual of [`boundary_polynomial`] at the solver's σ2.
    pub polynomial_residual: f64,
    /// Residuals of equations (1), (2), (3).
    pub equation_residuals: [f64; 3],
    /// The polynomial root nearest the solver's σ2.
    pub nearest_root: f64,
    /// `|σ2 − nearest_root|`.
    pub root_distance: f64,
}

/// Solve the witness instance at `budget` and check the boundary system:
/// equations (1)–(3) and membership of `σ2` among the roots of
/// [`boundary_polynomial`]`(budget)`.
///
/// Meaningful for budgets inside [`measured_boundary_window`] (e.g.
/// [`VERIFIED_BUDGET`]); at the paper's `E = 9` the optimum is *not* in
/// the boundary configuration (see module docs) and the residuals are
/// large — [`paper_budget_report`] documents that case instead.
///
/// # Errors
/// Propagates flow-solver errors.
pub fn verify_witness_at(budget: f64, tol: f64) -> Result<WitnessReport, CoreError> {
    let instance = witness_instance();
    let solution = solver::laptop(&instance, 3.0, budget, tol)?;
    let [s1, s2, s3] = [solution.speeds[0], solution.speeds[1], solution.speeds[2]];

    let eq1 = (s1 * s1 + s2 * s2 + s3 * s3 - budget).abs();
    let eq2 = (1.0 / s1 + 1.0 / s2 - 1.0).abs();
    let eq3 = (s1.powi(3) - s2.powi(3) - s3.powi(3)).abs();

    let poly = boundary_polynomial(budget);
    let polynomial_residual = poly.eval(s2).abs();
    let roots = poly.real_roots_in(1.0, 3.0, 4_000, 1e-13);
    let (nearest_root, root_distance) = roots
        .iter()
        .map(|&r| (r, (r - s2).abs()))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((f64::NAN, f64::INFINITY));

    Ok(WitnessReport {
        budget,
        solution,
        polynomial_residual,
        equation_residuals: [eq1, eq2, eq3],
        nearest_root,
        root_distance,
    })
}

/// [`verify_witness_at`] at the [`VERIFIED_BUDGET`].
///
/// # Errors
/// Propagates flow-solver errors.
pub fn verify_witness(tol: f64) -> Result<WitnessReport, CoreError> {
    verify_witness_at(VERIFIED_BUDGET, tol)
}

/// What actually happens at the paper's budget `E = 9`.
#[derive(Debug, Clone)]
pub struct PaperBudgetReport {
    /// The optimum at `E = 9`.
    pub solution: FlowSolution,
    /// Configuration signature (measured: `"PP"`, not the boundary `"P="`).
    pub signature: String,
    /// `σ_i³ / σ_3³` — measured `[3, 2, 1]`, i.e. radical-expressible.
    pub cube_ratios: [f64; 3],
    /// Flow of the (non-optimal) boundary critical point at `E = 9`,
    /// reconstructed from the paper polynomial's root near 1.96.
    pub boundary_flow: Option<f64>,
    /// Flow of the true optimum (strictly smaller).
    pub optimal_flow: f64,
}

/// Reproduce the discrepancy at the paper's budget: the optimum at
/// `E = 9` is the all-push configuration with cube ratios `3:2:1`, and
/// the boundary critical point described by the paper's polynomial has
/// strictly larger flow.
///
/// # Errors
/// Propagates flow-solver errors.
pub fn paper_budget_report(tol: f64) -> Result<PaperBudgetReport, CoreError> {
    let instance = witness_instance();
    let solution = solver::laptop(&instance, 3.0, PAPER_BUDGET, tol)?;
    let u = solution.speeds[2].powi(3);
    let cube_ratios = [
        solution.speeds[0].powi(3) / u,
        solution.speeds[1].powi(3) / u,
        1.0,
    ];
    let signature = solution.kkt.signature();
    let optimal_flow = solution.total_flow;

    // Reconstruct the boundary critical point from the paper polynomial:
    // σ2 is its root in (1.9, 2); σ1 = σ2/(σ2−1); σ3³ = σ1³ − σ2³.
    let boundary_flow = witness_polynomial()
        .real_roots_in(1.9, 2.0, 2_000, 1e-13)
        .first()
        .map(|&s2| {
            let s1 = s2 / (s2 - 1.0);
            let s3 = (s1.powi(3) - s2.powi(3)).powf(1.0 / 3.0);
            // C1 = 1/σ1, C2 = 1, C3 = 1 + 1/σ3; releases 0, 0, 1.
            (1.0 / s1) + 1.0 + (1.0 / s3)
        });

    Ok(PaperBudgetReport {
        solution,
        signature,
        cube_ratios,
        boundary_flow,
        optimal_flow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polynomial_matches_paper_constant_term() {
        let p = witness_polynomial();
        assert_eq!(p.degree(), Some(12));
        assert_eq!(p.eval(0.0), -729.0);
        assert_eq!(p.coeffs()[12], 2.0);
    }

    #[test]
    fn elimination_at_9_reproduces_paper_polynomial_exactly() {
        let ours = boundary_polynomial(9.0);
        let paper = witness_polynomial();
        assert_eq!(ours.degree(), paper.degree());
        for (a, b) in ours.coeffs().iter().zip(paper.coeffs()) {
            assert_eq!(a, b, "coefficient mismatch: {ours} vs {paper}");
        }
    }

    #[test]
    fn measured_window_values() {
        let (lo, hi) = measured_boundary_window();
        assert!((lo - 10.3216).abs() < 1e-3, "lo = {lo}");
        assert!((hi - 11.5420).abs() < 1e-3, "hi = {hi}");
    }

    #[test]
    fn boundary_case_holds_inside_measured_window() {
        let report = verify_witness(1e-12).unwrap();
        let c2 = report.solution.completions[1];
        assert!((c2 - 1.0).abs() < 1e-8, "C2 = {c2}");
        assert_eq!(report.solution.kkt.signature(), "P=");
    }

    #[test]
    fn equations_hold_at_verified_budget() {
        let report = verify_witness(1e-12).unwrap();
        for (k, r) in report.equation_residuals.iter().enumerate() {
            assert!(*r < 1e-6, "equation {} residual {r}", k + 1);
        }
    }

    #[test]
    fn sigma2_is_a_root_of_the_degree12_polynomial() {
        let report = verify_witness(1e-12).unwrap();
        let p = boundary_polynomial(VERIFIED_BUDGET);
        let (_, dp) = p.eval_with_derivative(report.solution.speeds[1]);
        let normalized = report.polynomial_residual / dp.abs().max(1.0);
        assert!(
            normalized < 1e-7,
            "normalized residual {normalized} (raw {})",
            report.polynomial_residual
        );
        assert!(
            report.root_distance < 1e-7,
            "σ2 = {} vs nearest root {}",
            report.solution.speeds[1],
            report.nearest_root
        );
    }

    #[test]
    fn residual_shrinks_with_tolerance() {
        let loose = verify_witness(1e-4).unwrap();
        let tight = verify_witness(1e-12).unwrap();
        assert!(
            tight.root_distance <= loose.root_distance + 1e-12,
            "tight {} vs loose {}",
            tight.root_distance,
            loose.root_distance
        );
    }

    #[test]
    fn verified_budget_energy_spent_exactly() {
        let report = verify_witness(1e-12).unwrap();
        assert!((report.solution.energy - VERIFIED_BUDGET).abs() < 1e-6);
    }

    #[test]
    fn paper_budget_optimum_is_push_with_radical_speeds() {
        let report = paper_budget_report(1e-12).unwrap();
        assert_eq!(report.signature, "PP");
        // σ1³:σ2³:σ3³ = 3:2:1 — expressible in radicals.
        assert!(
            (report.cube_ratios[0] - 3.0).abs() < 1e-6,
            "{:?}",
            report.cube_ratios
        );
        assert!(
            (report.cube_ratios[1] - 2.0).abs() < 1e-6,
            "{:?}",
            report.cube_ratios
        );
        // The boundary critical point exists but has strictly larger flow.
        let boundary = report.boundary_flow.expect("root near 1.96 exists");
        assert!(
            boundary > report.optimal_flow + 0.1,
            "boundary {boundary} vs optimal {}",
            report.optimal_flow
        );
    }

    #[test]
    fn sturm_chain_certifies_root_inventory() {
        // Certified count: the scan-based root isolation in the window
        // (1, 3) finds every real root the Sturm chain says exists, for
        // both the paper polynomial and the verified-budget elimination.
        for poly in [witness_polynomial(), boundary_polynomial(VERIFIED_BUDGET)] {
            let chain = pas_numeric::SturmChain::new(&poly);
            let certified = chain.count_roots(1.0 + 1e-9, 3.0);
            let found = poly.real_roots_in(1.0, 3.0, 8_000, 1e-13).len();
            assert_eq!(certified, found, "scan missed roots of {poly}");
            assert!(certified >= 1, "no roots in the physical window");
        }
    }

    #[test]
    fn paper_polynomial_root_matches_constrained_system() {
        // The paper's polynomial root near 1.96 satisfies (1)-(3) at E=9.
        let roots = witness_polynomial().real_roots_in(1.9, 2.0, 2_000, 1e-13);
        assert!(!roots.is_empty());
        let s2 = roots[0];
        let s1 = s2 / (s2 - 1.0);
        let s3cubed = s1.powi(3) - s2.powi(3);
        assert!(s3cubed > 0.0);
        let s3 = s3cubed.powf(1.0 / 3.0);
        assert!((s1 * s1 + s2 * s2 + s3 * s3 - 9.0).abs() < 1e-9);
        assert!((1.0 / s1 + 1.0 / s2 - 1.0).abs() < 1e-12);
    }
}
