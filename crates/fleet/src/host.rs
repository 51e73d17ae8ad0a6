//! Host actors: per-machine engine configuration for the fleet.
//!
//! A host couples a power model (continuous `σ^α`, or a
//! [`DiscreteSpeeds`] frequency ladder, each optionally wrapped in a
//! [`HostPower`] idle/sleep envelope), an online policy, an optional
//! hard speed cap, an availability window, and optional admission
//! control. The fleet dispatcher routes arrivals *to* hosts; each host
//! then runs the ordinary `pas_sim` single-machine engine over its
//! assigned jobs — the fleet layer adds no second scheduler, so every
//! per-machine invariant (and its test suite) carries over verbatim.

use pas_core::online::{Bkp, Qoa};
use pas_power::{DiscreteSpeeds, HostPower, PolyPower, PowerError, PowerModel};
use pas_sim::online::{AdmissionConfig, Decision, OnlinePolicy, ReadyView};

/// The power models a fleet host can run: the closed-form polynomial
/// family, or a discrete frequency ladder over it (the two-level
/// emulation curve). An enum rather than a trait object so host
/// configurations stay `Clone + PartialEq`-comparable and serializable
/// by hand.
#[derive(Debug, Clone)]
pub enum EnginePower {
    /// Continuous `c·σ^α`.
    Poly(PolyPower),
    /// A [`DiscreteSpeeds`] ladder over a polynomial base.
    Ladder(DiscreteSpeeds<PolyPower>),
}

impl PowerModel for EnginePower {
    fn power(&self, speed: f64) -> f64 {
        match self {
            EnginePower::Poly(m) => m.power(speed),
            EnginePower::Ladder(m) => m.power(speed),
        }
    }
    fn name(&self) -> String {
        match self {
            EnginePower::Poly(m) => m.name(),
            EnginePower::Ladder(m) => m.name(),
        }
    }
    fn energy_per_work(&self, speed: f64) -> f64 {
        match self {
            EnginePower::Poly(m) => m.energy_per_work(speed),
            EnginePower::Ladder(m) => m.energy_per_work(speed),
        }
    }
    fn energy(&self, work: f64, speed: f64) -> f64 {
        match self {
            EnginePower::Poly(m) => m.energy(work, speed),
            EnginePower::Ladder(m) => m.energy(work, speed),
        }
    }
    fn speed_for_energy_per_work(&self, e: f64) -> Result<f64, PowerError> {
        match self {
            EnginePower::Poly(m) => m.speed_for_energy_per_work(e),
            EnginePower::Ladder(m) => m.speed_for_energy_per_work(e),
        }
    }
    fn power_derivative(&self, speed: f64) -> f64 {
        match self {
            EnginePower::Poly(m) => m.power_derivative(speed),
            EnginePower::Ladder(m) => m.power_derivative(speed),
        }
    }
    fn power_second_derivative(&self, speed: f64) -> f64 {
        match self {
            EnginePower::Poly(m) => m.power_second_derivative(speed),
            EnginePower::Ladder(m) => m.power_second_derivative(speed),
        }
    }
    fn speed_for_block(&self, work: f64, budget: f64) -> Result<f64, PowerError> {
        match self {
            EnginePower::Poly(m) => m.speed_for_block(work, budget),
            EnginePower::Ladder(m) => m.speed_for_block(work, budget),
        }
    }
}

impl EnginePower {
    /// A nominal "how fast is this host" rating for weighted dispatch:
    /// the ladder's top level, or `1.0` for the unbounded continuous
    /// family.
    pub fn speed_rating(&self) -> f64 {
        match self {
            EnginePower::Poly(_) => 1.0,
            EnginePower::Ladder(d) => d.max_speed(),
        }
    }
}

/// Run the earliest-admitted ready job at one fixed speed — the
/// simplest well-defined host policy, and the one whose fleet energy is
/// hand-computable (the 3-host golden oracle in
/// `tests/fleet_equivalence.rs` uses it).
#[derive(Debug, Clone)]
pub struct FixedSpeed {
    speed: f64,
}

impl FixedSpeed {
    /// Always run at `speed`.
    ///
    /// # Panics
    /// If `speed` is non-finite or non-positive.
    pub fn new(speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "fixed speed must be finite and positive: {speed}"
        );
        FixedSpeed { speed }
    }
}

impl OnlinePolicy for FixedSpeed {
    fn decide(&mut self, _now: f64, ready: &dyn ReadyView, _energy_spent: f64) -> Option<Decision> {
        let first = ready.first()?;
        Some(Decision {
            job: first.id,
            speed: self.speed,
            recheck_after: None,
        })
    }

    fn save_state(&self) -> Option<Vec<f64>> {
        Some(vec![]) // stateless: the speed is configuration, not state
    }

    fn load_state(&mut self, state: &[f64]) -> bool {
        state.is_empty()
    }

    fn name(&self) -> String {
        format!("fixed({})", self.speed)
    }
}

/// Which online policy a host runs, as configuration data (so host
/// configs stay cloneable and the replay path can rebuild a *fresh*
/// policy bit-identically for every run).
#[derive(Debug, Clone, PartialEq)]
pub enum HostPolicy {
    /// [`FixedSpeed`] at the given speed.
    Fixed {
        /// The constant speed.
        speed: f64,
    },
    /// `pas_core::online::Qoa` (budget-paced qOA).
    Qoa {
        /// Per-work energy allowance.
        allowance: f64,
        /// Power-law exponent the speed rule assumes.
        alpha: f64,
        /// Aggressiveness parameter (`q ≈ 2α − 1` in the literature).
        q: f64,
    },
    /// `pas_core::online::Bkp` (density-scaled, budget-free).
    Bkp {
        /// Density multiplier.
        factor: f64,
    },
}

impl HostPolicy {
    /// Check the parameter domain the policy constructors assert:
    /// `Fixed` needs a finite `speed > 0`; `Qoa` a finite
    /// `allowance > 0`, `alpha > 1` and `q > 0`; `Bkp` a `factor > 0`.
    /// NaN fails every comparison, so it is rejected too.
    ///
    /// # Errors
    /// The first parameter out of range, with its value.
    pub fn validate(&self) -> Result<(), String> {
        let finite_positive = |v: f64| v.is_finite() && v > 0.0;
        let params = match *self {
            HostPolicy::Fixed { speed } => vec![(
                "fixed speed",
                speed,
                finite_positive(speed),
                "finite and > 0",
            )],
            HostPolicy::Qoa {
                allowance,
                alpha,
                q,
            } => vec![
                (
                    "qoa allowance",
                    allowance,
                    finite_positive(allowance),
                    "finite and > 0",
                ),
                ("qoa alpha", alpha, alpha > 1.0, "> 1"),
                ("qoa q", q, q > 0.0, "> 0"),
            ],
            HostPolicy::Bkp { factor } => vec![("bkp factor", factor, factor > 0.0, "> 0")],
        };
        match params.into_iter().find(|&(_, _, ok, _)| !ok) {
            Some((name, v, _, domain)) => Err(format!("{name} {v} must be {domain}")),
            None => Ok(()),
        }
    }

    /// Instantiate a fresh policy instance for one engine run.
    pub fn build(&self, model: &EnginePower) -> Box<dyn OnlinePolicy> {
        match self {
            HostPolicy::Fixed { speed } => Box::new(FixedSpeed::new(*speed)),
            HostPolicy::Qoa {
                allowance,
                alpha,
                q,
            } => Box::new(Qoa::new(model.clone(), *allowance, *alpha, *q)),
            HostPolicy::Bkp { factor } => Box::new(Bkp::new(*factor)),
        }
    }
}

/// One host's full configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Unique host id (routing key; also the per-host fault-seed input).
    pub id: u32,
    /// Power envelope: dynamic model plus idle/sleep floors.
    pub power: HostPower<EnginePower>,
    /// The online policy this host runs.
    pub policy: HostPolicy,
    /// Hard per-host speed cap, enforced as a full-horizon throttle in
    /// the host's fault plan (clamps are counted in the resilience
    /// report, exactly like transient throttles).
    pub speed_cap: Option<f64>,
    /// When the host joins the fleet (0 = from the start).
    pub available_from: f64,
    /// Optional bounded admission queue (shedding is per-host and
    /// aggregates into the fleet totals).
    pub admission: Option<AdmissionConfig>,
}

impl HostConfig {
    /// A host with the given id and power envelope, a [`FixedSpeed`]
    /// policy at speed 1, no cap, available from t = 0, no admission
    /// bound. Adjust fields directly for anything fancier.
    pub fn new(id: u32, power: HostPower<EnginePower>) -> Self {
        HostConfig {
            id,
            power,
            policy: HostPolicy::Fixed { speed: 1.0 },
            speed_cap: None,
            available_from: 0.0,
            admission: None,
        }
    }

    /// The dispatch weight for [`crate::DispatchPolicy::WeightedFastest`]:
    /// the speed cap if set, else the model's nominal rating.
    pub fn speed_rating(&self) -> f64 {
        match self.speed_cap {
            Some(cap) => cap,
            None => self.power.model().speed_rating(),
        }
    }

    /// Estimated engine cost *per assigned job* for the parallel
    /// executor's LPT ordering: a slower host grinds longer over the
    /// same assignment, so cost scales inversely with the speed rating.
    /// Purely a scheduling heuristic — results never depend on it.
    pub fn cost_weight(&self) -> f64 {
        1.0 / self.speed_rating()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_power::discrete::ATHLON64_GHZ;

    #[test]
    fn engine_power_delegates_both_arms() {
        let poly = EnginePower::Poly(PolyPower::CUBE);
        assert_eq!(poly.power(2.0), 8.0);
        let ladder =
            EnginePower::Ladder(DiscreteSpeeds::new(PolyPower::CUBE, ATHLON64_GHZ.to_vec()));
        // At a ladder level the two agree; between levels the ladder is
        // dearer (convexity).
        assert_eq!(ladder.power(1.8), PolyPower::CUBE.power(1.8));
        assert!(ladder.power(1.2) > PolyPower::CUBE.power(1.2));
        assert!(ladder.name().starts_with("ladder3"));
        assert_eq!(ladder.speed_rating(), 2.0);
        assert_eq!(poly.speed_rating(), 1.0);
    }

    #[test]
    fn fixed_speed_policy_snapshot_contract() {
        let mut p = FixedSpeed::new(1.5);
        assert_eq!(p.save_state(), Some(vec![]));
        assert!(p.load_state(&[]));
        assert!(!p.load_state(&[1.0]));
        assert_eq!(p.name(), "fixed(1.5)");
    }

    #[test]
    #[should_panic(expected = "fixed speed must be finite and positive")]
    fn fixed_speed_rejects_zero() {
        let _ = FixedSpeed::new(0.0);
    }

    #[test]
    fn host_config_rating_prefers_cap() {
        let mut h = HostConfig::new(
            0,
            HostPower::dynamic_only(EnginePower::Poly(PolyPower::CUBE)),
        );
        assert_eq!(h.speed_rating(), 1.0);
        h.speed_cap = Some(0.7);
        assert_eq!(h.speed_rating(), 0.7);
    }

    #[test]
    fn cost_weight_is_inverse_rating() {
        let mut h = HostConfig::new(
            0,
            HostPower::dynamic_only(EnginePower::Poly(PolyPower::CUBE)),
        );
        assert_eq!(h.cost_weight(), 1.0);
        h.speed_cap = Some(0.5);
        assert_eq!(h.cost_weight(), 2.0, "capped-slow hosts cost more per job");
    }
}
