//! Floating-point comparison helpers with explicit tolerances.
//!
//! The scheduling algorithms repeatedly compare completion times against
//! release times (the three-way case split of Theorem 1, block-boundary
//! detection in `IncMerge`, ...). Those comparisons must use a single,
//! clearly documented tolerance convention, which this module provides.

/// `x` is a usable positive quantity: finite and strictly greater than
/// zero. Rejects NaN, infinities, zero and negatives — the validation
/// every budget/target/tolerance parameter in the workspace needs.
#[inline]
pub fn is_positive_finite(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// `a` strictly exceeds `b` *and* both are honest numbers (NaN on either
/// side fails). The NaN-rejecting form of `a > b` for input validation.
#[inline]
pub fn strictly_exceeds(a: f64, b: f64) -> bool {
    !a.is_nan() && !b.is_nan() && a > b
}

/// Absolute-tolerance comparison: `|a - b| <= tol`.
///
/// Use when the quantities share a natural scale (e.g. times within one
/// instance).
#[inline]
pub fn approx_eq_abs(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Relative-tolerance comparison: `|a - b| <= tol * max(|a|, |b|)`.
///
/// Use when the quantities can span orders of magnitude (e.g. energies).
#[inline]
pub fn approx_eq_rel(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= tol * scale
}

/// Combined comparison: true when either the absolute test (with `abs_tol`)
/// or the relative test (with `rel_tol`) passes.
///
/// This is the default comparison used across the workspace: the absolute
/// branch handles values near zero, the relative branch large values.
#[inline]
pub fn approx_eq(a: f64, b: f64, abs_tol: f64, rel_tol: f64) -> bool {
    approx_eq_abs(a, b, abs_tol) || approx_eq_rel(a, b, rel_tol)
}

/// Three-way classification of `a` vs `b` under an absolute tolerance.
///
/// Returns [`std::cmp::Ordering::Equal`] when `|a - b| <= tol`, otherwise
/// the strict ordering. This is the primitive behind the Theorem-1 case
/// split (`C_i < r_{i+1}`, `=`, `>`).
#[inline]
pub fn classify(a: f64, b: f64, tol: f64) -> std::cmp::Ordering {
    if approx_eq_abs(a, b, tol) {
        std::cmp::Ordering::Equal
    } else if a < b {
        std::cmp::Ordering::Less
    } else {
        std::cmp::Ordering::Greater
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn abs_comparison_symmetric() {
        assert!(approx_eq_abs(1.0, 1.0 + 1e-12, 1e-9));
        assert!(approx_eq_abs(1.0 + 1e-12, 1.0, 1e-9));
        assert!(!approx_eq_abs(1.0, 1.1, 1e-9));
    }

    #[test]
    fn rel_comparison_scales() {
        assert!(approx_eq_rel(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq_rel(1.0, 1.0 + 1e-3, 1e-9));
    }

    #[test]
    fn combined_handles_zero() {
        // Relative comparison alone fails near zero; combined must pass.
        assert!(approx_eq(0.0, 1e-15, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-3, 1e-12, 1e-9));
    }

    #[test]
    fn classify_three_way() {
        assert_eq!(classify(1.0, 2.0, 1e-9), Ordering::Less);
        assert_eq!(classify(2.0, 1.0, 1e-9), Ordering::Greater);
        assert_eq!(classify(1.0, 1.0 + 1e-12, 1e-9), Ordering::Equal);
    }
}
