//! Numeric differentiation with Richardson extrapolation.
//!
//! The frontier module computes `dM/dE` and `d²M/dE²` in closed form for
//! the canonical `σ^α` power model (Figures 2 and 3 of the paper). These
//! routines provide an independent numeric cross-check of those closed
//! forms, and the only way to plot the derivative curves for general
//! convex power models where no closed form exists.

/// Central-difference first derivative with one Richardson extrapolation
/// step: error `O(h⁴)` for smooth `f`.
pub fn derivative(mut f: impl FnMut(f64) -> f64, x: f64, h: f64) -> f64 {
    let d = |f: &mut dyn FnMut(f64) -> f64, h: f64| (f(x + h) - f(x - h)) / (2.0 * h);
    let d_h = d(&mut f, h);
    let d_h2 = d(&mut f, h / 2.0);
    (4.0 * d_h2 - d_h) / 3.0
}

/// Central-difference second derivative with one Richardson step.
pub fn second_derivative(mut f: impl FnMut(f64) -> f64, x: f64, h: f64) -> f64 {
    let d2 = |f: &mut dyn FnMut(f64) -> f64, h: f64| (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h);
    let d_h = d2(&mut f, h);
    let d_h2 = d2(&mut f, h / 2.0);
    (4.0 * d_h2 - d_h) / 3.0
}

/// Numerically check convexity of `f` on `[lo, hi]` by testing the
/// midpoint inequality on `samples` random-ish (deterministic low
/// discrepancy) triples. Returns the worst violation (negative slack
/// means a violation of at least that size).
pub fn convexity_slack(mut f: impl FnMut(f64) -> f64, lo: f64, hi: f64, samples: usize) -> f64 {
    let mut worst: f64 = f64::INFINITY;
    // Golden-ratio low-discrepancy sequence over pairs.
    let phi = 0.618_033_988_749_894_9_f64;
    let mut u = 0.11;
    let mut v = 0.37;
    for _ in 0..samples {
        u = (u + phi) % 1.0;
        v = (v + phi * phi) % 1.0;
        let a = lo + (hi - lo) * u;
        let b = lo + (hi - lo) * v;
        if (a - b).abs() < 1e-12 {
            continue;
        }
        let mid = 0.5 * (a + b);
        let slack = 0.5 * (f(a) + f(b)) - f(mid);
        worst = worst.min(slack);
    }
    if worst == f64::INFINITY {
        0.0
    } else {
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivative_of_cube() {
        // d/dx x^3 at 2 = 12.
        let d = derivative(|x| x * x * x, 2.0, 1e-4);
        assert!((d - 12.0).abs() < 1e-8, "{d}");
    }

    #[test]
    fn second_derivative_of_cube() {
        // d²/dx² x^3 at 2 = 12.
        let d = second_derivative(|x| x * x * x, 2.0, 1e-3);
        assert!((d - 12.0).abs() < 1e-6, "{d}");
    }

    #[test]
    fn convexity_slack_sign() {
        // x^2 is convex: slack >= 0. -x^2 is concave: slack < 0.
        assert!(convexity_slack(|x| x * x, -1.0, 1.0, 500) >= -1e-12);
        assert!(convexity_slack(|x| -x * x, -1.0, 1.0, 500) < 0.0);
    }
}
