//! Dense univariate polynomials over `f64`.
//!
//! Theorem 8 of the paper reduces exact flow minimization to finding a root
//! of a specific degree-12 integer polynomial whose Galois group is not
//! solvable. This module provides the polynomial arithmetic needed to
//! state that witness, isolate its real roots, and measure residuals of
//! approximate solutions. Coefficients are stored in ascending order
//! (`coeffs[k]` multiplies `x^k`).

use crate::roots::{bisect, RootError};
use crate::sum::NeumaierSum;

/// A dense univariate polynomial with `f64` coefficients, ascending order.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Build from ascending coefficients (`coeffs[k]` is the `x^k` term).
    /// Trailing zeros are trimmed; the zero polynomial is `[]`.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Polynomial { coeffs };
        p.trim();
        p
    }

    /// Build from *descending* coefficients, the order papers print them in.
    pub fn from_descending(mut coeffs: Vec<f64>) -> Self {
        coeffs.reverse();
        Polynomial::new(coeffs)
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial { coeffs: vec![] }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Polynomial::new(vec![c])
    }

    fn trim(&mut self) {
        while self.coeffs.last() == Some(&0.0) {
            self.coeffs.pop();
        }
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Ascending coefficient slice.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Evaluate at `x` by Horner's rule.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Evaluate `(p(x), p'(x))` in one Horner pass.
    pub fn eval_with_derivative(&self, x: f64) -> (f64, f64) {
        let mut p = 0.0;
        let mut dp = 0.0;
        for &c in self.coeffs.iter().rev() {
            dp = dp * x + p;
            p = p * x + c;
        }
        (p, dp)
    }

    /// Formal derivative.
    pub fn derivative(&self) -> Polynomial {
        if self.coeffs.len() <= 1 {
            return Polynomial::zero();
        }
        Polynomial::new(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(k, &c)| c * k as f64)
                .collect(),
        )
    }

    /// Cauchy bound: all real roots lie in `[-B, B]` with
    /// `B = 1 + max_k |a_k / a_n|`.
    pub fn cauchy_root_bound(&self) -> Option<f64> {
        let lead = *self.coeffs.last()?;
        if lead == 0.0 {
            return None;
        }
        let max_ratio = self.coeffs[..self.coeffs.len() - 1]
            .iter()
            .map(|c| (c / lead).abs())
            .fold(0.0, f64::max);
        Some(1.0 + max_ratio)
    }

    /// Isolate and refine the real roots in `[lo, hi]`.
    ///
    /// Scans `grid` equal subintervals for sign changes and refines each by
    /// bisection to `xtol`. Roots of even multiplicity that do not cross
    /// zero are not found (sufficient for the square-free witness
    /// polynomial of Theorem 8; documented limitation).
    pub fn real_roots_in(&self, lo: f64, hi: f64, grid: usize, xtol: f64) -> Vec<f64> {
        let mut roots = Vec::new();
        if self.coeffs.len() <= 1 || grid == 0 || !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return roots;
        }
        let step = (hi - lo) / grid as f64;
        let mut x0 = lo;
        let mut f0 = self.eval(x0);
        for k in 1..=grid {
            let x1 = if k == grid { hi } else { lo + step * k as f64 };
            let f1 = self.eval(x1);
            if f0 == 0.0 {
                push_unique(&mut roots, x0, xtol);
            } else if f1 != 0.0 && (f0 < 0.0) != (f1 < 0.0) {
                if let Ok(r) = bisect(|x| self.eval(x), x0, x1, xtol, 0.0) {
                    push_unique(&mut roots, r, xtol);
                }
            }
            x0 = x1;
            f0 = f1;
        }
        if f0 == 0.0 {
            push_unique(&mut roots, x0, xtol);
        }
        roots
    }

    /// Isolate all real roots using the Cauchy bound as the search window.
    pub fn real_roots(&self, grid: usize, xtol: f64) -> Result<Vec<f64>, RootError> {
        let bound = self.cauchy_root_bound().unwrap_or(0.0);
        Ok(self.real_roots_in(-bound, bound, grid, xtol))
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0.0; n];
        for (k, slot) in out.iter_mut().enumerate() {
            let a = self.coeffs.get(k).copied().unwrap_or(0.0);
            let b = other.coeffs.get(k).copied().unwrap_or(0.0);
            *slot = a + b;
        }
        Polynomial::new(out)
    }

    /// Polynomial multiplication (schoolbook with compensated accumulation).
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        if self.coeffs.is_empty() || other.coeffs.is_empty() {
            return Polynomial::zero();
        }
        let n = self.coeffs.len() + other.coeffs.len() - 1;
        let mut out = vec![0.0; n];
        for (k, slot) in out.iter_mut().enumerate() {
            let mut acc = NeumaierSum::new();
            let i_lo = k.saturating_sub(other.coeffs.len() - 1);
            let i_hi = k.min(self.coeffs.len() - 1);
            for i in i_lo..=i_hi {
                acc.add(self.coeffs[i] * other.coeffs[k - i]);
            }
            *slot = acc.total();
        }
        Polynomial::new(out)
    }

    /// Scale by a constant.
    pub fn scale(&self, c: f64) -> Polynomial {
        Polynomial::new(self.coeffs.iter().map(|&a| a * c).collect())
    }
}

fn push_unique(roots: &mut Vec<f64>, r: f64, xtol: f64) {
    if roots
        .last()
        .is_none_or(|&prev| (r - prev).abs() > 10.0 * xtol.max(1e-15))
    {
        roots.push(r);
    }
}

impl std::fmt::Display for Polynomial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.coeffs.is_empty() {
            return write!(f, "0");
        }
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate().rev() {
            if c == 0.0 {
                continue;
            }
            if first {
                write!(f, "{c}")?;
                first = false;
            } else if c < 0.0 {
                write!(f, " - {}", -c)?;
            } else {
                write!(f, " + {c}")?;
            }
            if k >= 1 {
                write!(f, "·x")?;
                if k >= 2 {
                    write!(f, "^{k}")?;
                }
            }
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coeffs: &[f64]) -> Polynomial {
        Polynomial::new(coeffs.to_vec())
    }

    #[test]
    fn eval_matches_manual_expansion() {
        // 1 + 2x + 3x^2 at x = 2 -> 1 + 4 + 12 = 17.
        assert_eq!(p(&[1.0, 2.0, 3.0]).eval(2.0), 17.0);
    }

    #[test]
    fn from_descending_reverses() {
        // x^2 - 3x + 2 printed descending.
        let q = Polynomial::from_descending(vec![1.0, -3.0, 2.0]);
        assert_eq!(q.eval(1.0), 0.0);
        assert_eq!(q.eval(2.0), 0.0);
        assert_eq!(q.eval(0.0), 2.0);
    }

    #[test]
    fn degree_and_trim() {
        assert_eq!(p(&[1.0, 0.0, 0.0]).degree(), Some(0));
        assert_eq!(Polynomial::zero().degree(), None);
        assert_eq!(p(&[0.0, 0.0, 5.0]).degree(), Some(2));
    }

    #[test]
    fn derivative_of_cubic() {
        // d/dx (x^3 - 2x) = 3x^2 - 2
        let q = p(&[0.0, -2.0, 0.0, 1.0]).derivative();
        assert_eq!(q, p(&[-2.0, 0.0, 3.0]));
    }

    #[test]
    fn eval_with_derivative_agrees_with_separate_eval() {
        let q = p(&[3.0, -1.0, 0.5, 2.0]);
        let d = q.derivative();
        for &x in &[-2.0, -0.5, 0.0, 1.0, 3.7] {
            let (v, dv) = q.eval_with_derivative(x);
            assert!((v - q.eval(x)).abs() < 1e-12);
            assert!((dv - d.eval(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_matches_known_product() {
        // (x - 1)(x + 1) = x^2 - 1
        let q = p(&[-1.0, 1.0]).mul(&p(&[1.0, 1.0]));
        assert_eq!(q, p(&[-1.0, 0.0, 1.0]));
    }

    #[test]
    fn add_and_scale() {
        let q = p(&[1.0, 2.0]).add(&p(&[1.0, -2.0, 4.0]));
        assert_eq!(q, p(&[2.0, 0.0, 4.0]));
        assert_eq!(q.scale(0.5), p(&[1.0, 0.0, 2.0]));
    }

    #[test]
    fn cauchy_bound_contains_roots() {
        // Roots at 1, 2, 3: (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6.
        let q = p(&[-6.0, 11.0, -6.0, 1.0]);
        let b = q.cauchy_root_bound().unwrap();
        assert!(b >= 3.0);
    }

    #[test]
    fn real_roots_of_cubic() {
        let q = p(&[-6.0, 11.0, -6.0, 1.0]);
        let roots = q.real_roots(4000, 1e-12).unwrap();
        assert_eq!(roots.len(), 3);
        for (r, want) in roots.iter().zip([1.0, 2.0, 3.0]) {
            assert!((r - want).abs() < 1e-9, "root {r} vs {want}");
        }
    }

    #[test]
    fn real_roots_in_window_only() {
        let q = p(&[-6.0, 11.0, -6.0, 1.0]);
        let roots = q.real_roots_in(1.5, 3.5, 1000, 1e-12);
        assert_eq!(roots.len(), 2);
    }

    #[test]
    fn display_renders_signs() {
        let q = p(&[-6.0, 11.0, -6.0, 1.0]);
        let s = format!("{q}");
        assert!(s.contains("x^3"), "{s}");
        assert!(s.contains("- 6"), "{s}");
    }
}
