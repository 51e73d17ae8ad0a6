//! User-supplied power curves from closures.
//!
//! The paper's algorithms need nothing beyond the convexity contract, so
//! downstream users should be able to bring their own measured curve
//! without defining a struct: [`CustomPower`] wraps any
//! `Fn(f64) -> f64`. The constructor runs the [`crate::audit`] checks on
//! a sample range so contract violations fail fast at build time rather
//! than as silent mis-schedules.

use crate::audit::audit_model;
use crate::model::{PowerError, PowerModel};

/// A [`PowerModel`] defined by a closure (plus an optional derivative).
pub struct CustomPower<F> {
    f: F,
    name: String,
}

impl<F: Fn(f64) -> f64 + Send + Sync> CustomPower<F> {
    /// Wrap `f`, auditing the [`PowerModel`] contract (`P(0)=0`, strictly
    /// increasing, strictly convex, invertible energy-per-work) over
    /// `(0, max_speed]`.
    ///
    /// # Errors
    /// [`PowerError::InvalidSpeed`] carrying the probe speed when the
    /// audit fails (the audit report is printed in the error message via
    /// the model name for diagnosis).
    pub fn new_audited(name: &str, f: F, max_speed: f64) -> Result<Self, PowerError> {
        let candidate = CustomPower {
            f,
            name: name.to_string(),
        };
        let report = audit_model(&candidate, max_speed, 256);
        if report.passes(1e-7) {
            Ok(candidate)
        } else {
            Err(PowerError::InvalidSpeed { speed: max_speed })
        }
    }
}

impl<F> std::fmt::Debug for CustomPower<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CustomPower({})", self.name)
    }
}

impl<F: Fn(f64) -> f64 + Send + Sync> PowerModel for CustomPower<F> {
    fn power(&self, speed: f64) -> f64 {
        if speed <= 0.0 {
            0.0
        } else {
            (self.f)(speed)
        }
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartic_custom_model_works_end_to_end() {
        let m = CustomPower::new_audited("sigma^4", |s: f64| s.powi(4), 10.0).unwrap();
        assert_eq!(m.power(2.0), 16.0);
        // g(σ) = σ³; inverse of 8 is 2 (via the numeric default).
        let s = m.speed_for_energy_per_work(8.0).unwrap();
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(m.name(), "sigma^4");
    }

    #[test]
    fn audit_rejects_concave_closure() {
        let err = CustomPower::new_audited("sqrt", |s: f64| s.sqrt(), 10.0);
        assert!(err.is_err());
    }

    #[test]
    fn audit_rejects_static_power() {
        let err = CustomPower::new_audited("leaky", |s: f64| 1.0 + s * s, 10.0);
        assert!(err.is_err());
    }

    #[test]
    fn mixed_polynomial_curve() {
        // P(σ) = σ² + σ⁴ — convex sum, passes, solves blocks.
        let m = CustomPower::new_audited("mixed", |s: f64| s * s + s.powi(4), 8.0).unwrap();
        let speed = m.speed_for_block(2.0, 10.0).unwrap();
        // Energy per work at that speed is 5: σ + σ³ = 5 -> σ ≈ 1.5159.
        assert!((m.energy_per_work(speed) - 5.0).abs() < 1e-8);
    }
}
