//! The canonical polynomial power model `P(σ) = c·σ^α`.
//!
//! This is the model of Yao, Demers, Shenker (FOCS 1995) used throughout
//! the paper's examples: power equals speed to a constant exponent
//! `α > 1`, derived from CMOS switching-loss approximations (`α ≈ 3` for
//! voltage scaling, hence `power = speed³` in Figures 1–3).

use crate::model::{PowerError, PowerModel};

/// `P(σ) = coefficient · σ^alpha`, `alpha > 1`, `coefficient > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolyPower {
    /// The exponent `α > 1`.
    alpha: f64,
    /// Multiplicative constant (default 1).
    coefficient: f64,
}

impl PolyPower {
    /// The `P(σ) = σ³` model used by the paper's running example.
    pub const CUBE: PolyPower = PolyPower {
        alpha: 3.0,
        coefficient: 1.0,
    };

    /// Create `P(σ) = σ^alpha`.
    ///
    /// # Panics
    /// If `alpha <= 1` (the power function would not be strictly convex)
    /// or `alpha` is not finite.
    pub fn new(alpha: f64) -> Self {
        Self::with_coefficient(alpha, 1.0)
    }

    /// Create `P(σ) = coefficient · σ^alpha`.
    ///
    /// # Panics
    /// If `alpha <= 1`, `coefficient <= 0`, or either is not finite.
    pub fn with_coefficient(alpha: f64, coefficient: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 1.0,
            "PolyPower requires alpha > 1 (got {alpha}); the power function \
             must be strictly convex"
        );
        assert!(
            coefficient.is_finite() && coefficient > 0.0,
            "PolyPower requires a positive coefficient (got {coefficient})"
        );
        PolyPower { alpha, coefficient }
    }

    /// The exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The multiplicative constant.
    pub fn coefficient(&self) -> f64 {
        self.coefficient
    }
}

impl Default for PolyPower {
    /// The paper's default: `P(σ) = σ³`.
    fn default() -> Self {
        PolyPower::CUBE
    }
}

impl PowerModel for PolyPower {
    fn power(&self, speed: f64) -> f64 {
        self.coefficient * speed.powf(self.alpha)
    }

    fn name(&self) -> String {
        if self.coefficient == 1.0 {
            format!("sigma^{}", self.alpha)
        } else {
            format!("{}*sigma^{}", self.coefficient, self.alpha)
        }
    }

    fn energy_per_work(&self, speed: f64) -> f64 {
        if speed <= 0.0 {
            return 0.0;
        }
        self.coefficient * speed.powf(self.alpha - 1.0)
    }

    fn speed_for_energy_per_work(&self, e: f64) -> Result<f64, PowerError> {
        if e < 0.0 {
            return Err(PowerError::Unreachable { energy_per_work: e });
        }
        // Closed-form inverse of `g(σ) = c·σ^{α-1}`.
        Ok((e / self.coefficient).powf(1.0 / (self.alpha - 1.0)))
    }

    fn power_derivative(&self, speed: f64) -> f64 {
        if speed <= 0.0 {
            return 0.0;
        }
        self.coefficient * self.alpha * speed.powf(self.alpha - 1.0)
    }

    fn power_second_derivative(&self, speed: f64) -> f64 {
        if speed <= 0.0 {
            return 0.0;
        }
        self.coefficient * self.alpha * (self.alpha - 1.0) * speed.powf(self.alpha - 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_matches_paper_example() {
        // Block of 2 work at speed 2 under σ³: energy = w·σ² = 8
        // (the {J2} block of the paper's Figure-1 instance at E ≥ 17).
        let m = PolyPower::CUBE;
        assert_eq!(m.energy(2.0, 2.0), 8.0);
        // Block of 5 work at speed 1: energy 5 (the {J1} block).
        assert_eq!(m.energy(5.0, 1.0), 5.0);
    }

    #[test]
    fn inverse_is_exact() {
        let m = PolyPower::new(3.0);
        // g(σ) = σ²; g⁻¹(9) = 3.
        assert_eq!(m.speed_for_energy_per_work(9.0).unwrap(), 3.0);
        // Round trip at awkward values.
        for &e in &[1e-6, 0.3, 1.0, 123.456, 1e9] {
            let s = m.speed_for_energy_per_work(e).unwrap();
            assert!((m.energy_per_work(s) - e).abs() / e < 1e-12);
        }
    }

    #[test]
    fn fractional_alpha() {
        let m = PolyPower::new(1.5);
        let s = m.speed_for_energy_per_work(2.0).unwrap();
        // g(σ) = σ^0.5 -> σ = 4.
        assert!((s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn coefficient_scales_power() {
        let m = PolyPower::with_coefficient(2.0, 3.0);
        assert_eq!(m.power(2.0), 12.0);
        assert_eq!(m.energy_per_work(2.0), 6.0);
        let s = m.speed_for_energy_per_work(6.0).unwrap();
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn derivative_closed_form() {
        let m = PolyPower::new(3.0);
        assert_eq!(m.power_derivative(2.0), 12.0);
        assert_eq!(m.power_derivative(0.0), 0.0);
        // P'' = 6σ for σ³.
        assert_eq!(m.power_second_derivative(2.0), 12.0);
        let numeric = pas_numeric::diff::second_derivative(|s| m.power(s), 2.0, 1e-4);
        assert!((m.power_second_derivative(2.0) - numeric).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "alpha > 1")]
    fn rejects_linear_power() {
        let _ = PolyPower::new(1.0);
    }

    #[test]
    #[should_panic(expected = "positive coefficient")]
    fn rejects_nonpositive_coefficient() {
        let _ = PolyPower::with_coefficient(3.0, 0.0);
    }

    #[test]
    fn zero_speed_draws_no_power() {
        let m = PolyPower::new(2.5);
        assert_eq!(m.power(0.0), 0.0);
        assert_eq!(m.energy_per_work(0.0), 0.0);
    }

    #[test]
    fn name_is_descriptive() {
        assert_eq!(PolyPower::CUBE.name(), "sigma^3");
        assert_eq!(PolyPower::with_coefficient(2.0, 0.5).name(), "0.5*sigma^2");
    }
}
