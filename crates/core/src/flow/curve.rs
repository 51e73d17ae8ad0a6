//! The flow ↔ energy tradeoff curve (the flow analog of Figure 1).
//!
//! §4 of the paper notes that the corresponding figure of
//! Pruhs–Uthaisombut–Woeginger *omits parts of the curve* where the
//! optimum finishes a job exactly at another's release — the boundary
//! configurations that Theorem 8 proves cannot be described exactly.
//! This module samples the curve numerically (which the approximation
//! algorithm can do arbitrarily well) and tags each sample with its
//! configuration signature so those boundary regions are visible in the
//! output.
//!
//! Sweeps share one [`FlowWorkspace`] (instance validation and cascade
//! sums paid once) and visit energies in **monotone order**, threading
//! each solved point's `u` into the next `laptop` call as its Newton
//! seed: adjacent energies have adjacent `u`, so the warm-started search
//! converges in a couple of evaluations where a cold start pays a full
//! bracket expansion plus bisection. [`configuration_changes`] reuses
//! the same workspace (and the nearest endpoint's `u`) for every probe
//! of its signature bisection.

use crate::error::CoreError;
use crate::flow::solver::FlowWorkspace;
use pas_workload::Instance;

/// One sample of the flow↔energy curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Energy of the optimal schedule at this sample.
    pub energy: f64,
    /// Its total flow.
    pub flow: f64,
    /// The parameter `u = σ_n^α`.
    pub u: f64,
    /// Configuration signature (one `G`/`P`/`=` per job boundary).
    pub signature: String,
}

/// Sample the optimal flow at each energy in `energies`.
///
/// Energies are solved in ascending order (results are returned in the
/// caller's order) so each point warm-starts from its lower neighbour.
///
/// # Errors
/// Propagates solver errors (equal-work requirement, invalid budgets).
pub fn tradeoff_curve(
    instance: &Instance,
    alpha: f64,
    energies: &[f64],
    tol: f64,
) -> Result<Vec<CurvePoint>, CoreError> {
    sweep_curve(&FlowWorkspace::new(instance, alpha)?, energies, tol)
}

/// [`tradeoff_curve`] on a given workspace.
fn sweep_curve(
    ws: &FlowWorkspace,
    energies: &[f64],
    tol: f64,
) -> Result<Vec<CurvePoint>, CoreError> {
    let mut order: Vec<usize> = (0..energies.len()).collect();
    order.sort_by(|&i, &j| energies[i].total_cmp(&energies[j]));
    let mut points: Vec<Option<CurvePoint>> = vec![None; energies.len()];
    let mut seed = None;
    for &i in &order {
        let sol = ws.laptop(energies[i], tol, seed)?;
        seed = Some(sol.u);
        points[i] = Some(CurvePoint {
            energy: sol.energy,
            flow: sol.total_flow,
            u: sol.u,
            signature: sol.kkt.signature(),
        });
    }
    Ok(points.into_iter().map(|p| p.expect("all solved")).collect())
}

/// The energies (within `[lo, hi]`, refined to `precision`) at which the
/// optimal configuration changes — the flow analog of the frontier
/// breakpoints. Found by bisection on the configuration signature, every
/// probe warm-started from the nearest already-solved energy.
///
/// # Errors
/// Propagates solver errors.
pub fn configuration_changes(
    instance: &Instance,
    alpha: f64,
    lo: f64,
    hi: f64,
    precision: f64,
) -> Result<Vec<f64>, CoreError> {
    let ws = FlowWorkspace::new(instance, alpha)?;
    let sig_at = |e: f64, seed: Option<f64>| -> Result<(String, f64), CoreError> {
        let sol = ws.laptop(e, 1e-10, seed)?;
        Ok((sol.kkt.signature(), sol.u))
    };
    let mut changes = Vec::new();
    // Scan on a coarse grid, bisect each change.
    let grid = 64;
    let step = (hi - lo) / grid as f64;
    let mut prev_e = lo;
    let (mut prev_sig, mut prev_u) = sig_at(lo, None)?;
    for k in 1..=grid {
        let e = lo + step * k as f64;
        let (sig, u) = sig_at(e, Some(prev_u))?;
        if sig != prev_sig {
            // Bisect to `precision`, seeding each probe from the nearest
            // bracket endpoint's solution.
            let (mut a, mut b) = (prev_e, e);
            let (mut u_a, mut u_b) = (prev_u, u);
            let sig_a = prev_sig.clone();
            while b - a > precision {
                let mid = 0.5 * (a + b);
                let seed = if mid - a <= b - mid { u_a } else { u_b };
                let (sig_mid, u_mid) = sig_at(mid, Some(seed))?;
                if sig_mid == sig_a {
                    a = mid;
                    u_a = u_mid;
                } else {
                    b = mid;
                    u_b = u_mid;
                }
            }
            changes.push(0.5 * (a + b));
        }
        prev_e = e;
        prev_sig = sig;
        prev_u = u;
    }
    Ok(changes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_decreasing_and_convexish() {
        let inst = Instance::equal_work(&[0.0, 0.0, 1.0], 1.0).unwrap();
        let energies: Vec<f64> = (1..=40).map(|k| 0.5 * k as f64).collect();
        let pts = tradeoff_curve(&inst, 3.0, &energies, 1e-10).unwrap();
        for pair in pts.windows(2) {
            assert!(pair[1].flow < pair[0].flow, "flow not decreasing");
        }
        // Midpoint convexity on a few triples (the optimal tradeoff
        // curve of a convex program is convex).
        for k in (2..pts.len() - 2).step_by(3) {
            let (a, b, c) = (&pts[k - 1], &pts[k], &pts[k + 1]);
            // Equally spaced energies -> f(b) <= (f(a)+f(c))/2 + eps.
            assert!(
                b.flow <= 0.5 * (a.flow + c.flow) + 1e-7,
                "convexity violated near E={}",
                b.energy
            );
        }
    }

    #[test]
    fn curve_sweep_takes_the_configuration_walk() {
        let inst = pas_workload::generators::equal_work_poisson(300, 1.5, 1.0, 7);
        let ws = FlowWorkspace::new(&inst, 3.0).unwrap();
        let w = inst.total_work();
        let energies: Vec<f64> = (0..30).map(|k| w * (0.5 + 0.1 * k as f64)).collect();
        let pts = sweep_curve(&ws, &energies, 1e-10).unwrap();
        // The signature changes along the curve, yet after the cold
        // start every decomposition of every search walks.
        let signatures: std::collections::HashSet<&str> =
            pts.iter().map(|p| p.signature.as_str()).collect();
        assert!(signatures.len() > 10, "{signatures:?}");
        assert_eq!(ws.sweeps(), 1);
    }

    #[test]
    fn unsorted_energies_return_in_caller_order() {
        let inst = Instance::equal_work(&[0.0, 0.0, 1.0], 1.0).unwrap();
        let energies = [12.0, 5.0, 20.0, 8.0];
        let pts = tradeoff_curve(&inst, 3.0, &energies, 1e-10).unwrap();
        for (pt, &e) in pts.iter().zip(&energies) {
            assert!((pt.energy - e).abs() < 1e-6 * e, "{} vs {e}", pt.energy);
        }
    }

    #[test]
    fn hardness_instance_has_boundary_configuration_window() {
        // Measured window [≈10.32, ≈11.54] (the paper prints ≈[8.43,
        // 11.54]; see flow::hardness module docs for the discrepancy):
        // inside it the optimum finishes J2 exactly at time 1 ("P=").
        let inst = Instance::equal_work(&[0.0, 0.0, 1.0], 1.0).unwrap();
        let pts = tradeoff_curve(&inst, 3.0, &[10.5, 11.0, 11.4], 1e-11).unwrap();
        for p in &pts {
            assert_eq!(p.signature, "P=", "E={}: {}", p.energy, p.signature);
        }
        // Below the window: J2 pushes J3 (includes the paper's E=9).
        let low = tradeoff_curve(&inst, 3.0, &[5.0, 9.0], 1e-11).unwrap();
        assert_eq!(low[0].signature, "PP");
        assert_eq!(low[1].signature, "PP");
        // Above the window: a gap after J2.
        let high = tradeoff_curve(&inst, 3.0, &[20.0], 1e-11).unwrap();
        assert_eq!(high[0].signature, "PG");
    }

    #[test]
    fn configuration_change_energies_match_closed_forms() {
        // Closed-form window endpoints (flow::hardness):
        // E_lo = (1+2^{2/3}+3^{2/3})(2^{-1/3}+3^{-1/3})² ≈ 10.3216,
        // E_hi = (2^{2/3}+2)(1+2^{-1/3})² ≈ 11.5420.
        let inst = Instance::equal_work(&[0.0, 0.0, 1.0], 1.0).unwrap();
        let changes = configuration_changes(&inst, 3.0, 5.0, 20.0, 1e-4).unwrap();
        let (lo, hi) = crate::flow::hardness::measured_boundary_window();
        assert_eq!(changes.len(), 2, "{changes:?}");
        assert!((changes[0] - lo).abs() < 0.02, "{changes:?} vs {lo}");
        assert!((changes[1] - hi).abs() < 0.02, "{changes:?} vs {hi}");
    }
}
