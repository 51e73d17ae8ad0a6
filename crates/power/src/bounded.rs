//! Speed-range restrictions: `[σ_min, σ_max]` clamping.
//!
//! The paper's §6 suggests "imposing minimum and/or maximum speeds is one
//! way to partially incorporate [discrete speed settings] without going
//! all the way to the discrete case". [`BoundedPower`] wraps any inner
//! model with such a range; inverse queries report unreachability instead
//! of silently clamping so schedulers can react (e.g. declare an energy
//! budget infeasible).

use crate::model::{PowerError, PowerModel};

/// A [`PowerModel`] restricted to speeds in `[min_speed, max_speed]`
/// (plus the always-allowed idle speed 0).
#[derive(Debug, Clone)]
pub struct BoundedPower<M> {
    inner: M,
    min_speed: f64,
    max_speed: f64,
}

impl<M: PowerModel> BoundedPower<M> {
    /// Restrict `inner` to `[min_speed, max_speed]`.
    ///
    /// # Panics
    /// If `min_speed < 0`, `max_speed <= min_speed`, or either is not
    /// finite.
    pub fn new(inner: M, min_speed: f64, max_speed: f64) -> Self {
        assert!(
            min_speed >= 0.0 && min_speed.is_finite(),
            "min_speed must be finite and non-negative (got {min_speed})"
        );
        assert!(
            max_speed > min_speed && max_speed.is_finite(),
            "max_speed must exceed min_speed (got [{min_speed}, {max_speed}])"
        );
        BoundedPower {
            inner,
            min_speed,
            max_speed,
        }
    }

    /// The inner, unrestricted model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Lower speed bound.
    pub fn min_speed(&self) -> f64 {
        self.min_speed
    }

    /// Upper speed bound.
    pub fn max_speed(&self) -> f64 {
        self.max_speed
    }
}

impl<M: PowerModel> PowerModel for BoundedPower<M> {
    fn power(&self, speed: f64) -> f64 {
        self.inner.power(speed)
    }

    fn name(&self) -> String {
        format!(
            "{}|[{},{}]",
            self.inner.name(),
            self.min_speed,
            self.max_speed
        )
    }

    fn energy_per_work(&self, speed: f64) -> f64 {
        self.inner.energy_per_work(speed)
    }

    /// The inverse query respects the bounds: an `e` whose unbounded
    /// solution falls outside `[min, max]` is reported unreachable.
    fn speed_for_energy_per_work(&self, e: f64) -> Result<f64, PowerError> {
        let s = self.inner.speed_for_energy_per_work(e)?;
        if s == 0.0 && self.min_speed == 0.0 {
            return Ok(0.0);
        }
        if s < self.min_speed - 1e-12 || s > self.max_speed + 1e-12 {
            return Err(PowerError::Unreachable { energy_per_work: e });
        }
        Ok(s.clamp(self.min_speed, self.max_speed))
    }

    fn power_derivative(&self, speed: f64) -> f64 {
        self.inner.power_derivative(speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::PolyPower;

    fn bounded() -> BoundedPower<PolyPower> {
        BoundedPower::new(PolyPower::CUBE, 0.5, 2.0)
    }

    #[test]
    fn passthrough_power() {
        let m = bounded();
        assert_eq!(m.power(1.5), 1.5f64.powi(3));
        assert_eq!(m.energy(2.0, 2.0), 8.0);
    }

    #[test]
    fn inverse_within_range() {
        let m = bounded();
        // g(σ)=σ², e=1 -> σ=1 in range.
        assert!((m.speed_for_energy_per_work(1.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_out_of_range_is_unreachable() {
        let m = bounded();
        // e = 9 -> σ = 3 > max 2.
        assert!(matches!(
            m.speed_for_energy_per_work(9.0),
            Err(PowerError::Unreachable { .. })
        ));
        // e = 0.01 -> σ = 0.1 < min 0.5.
        assert!(m.speed_for_energy_per_work(0.01).is_err());
    }

    #[test]
    #[should_panic(expected = "max_speed must exceed min_speed")]
    fn rejects_inverted_bounds() {
        let _ = BoundedPower::new(PolyPower::CUBE, 2.0, 1.0);
    }
}
