//! Discrete speed sets: what real DVFS hardware offers.
//!
//! The paper's introduction quotes the AMD Athlon 64 data sheet (2000,
//! 1800, 800 MHz) and §6 lists discrete speeds as the most obvious gap
//! between the continuous model and real systems. [`DiscreteSpeeds`]
//! couples a finite speed list with an underlying continuous
//! [`PowerModel`]; the two-adjacent-level emulation in
//! `pas-core::discrete` uses it to round continuous-optimal schedules to
//! hardware-executable ones (a standard construction: by convexity, a
//! target speed is optimally emulated by time-slicing the two levels that
//! bracket it).

use crate::model::{PowerError, PowerModel};

/// A finite, strictly increasing set of legal speeds over a continuous
/// power curve.
#[derive(Debug, Clone)]
pub struct DiscreteSpeeds<M> {
    model: M,
    levels: Vec<f64>,
}

/// The AMD Athlon 64 frequency table from the paper's introduction,
/// normalized to GHz.
pub const ATHLON64_GHZ: [f64; 3] = [0.8, 1.8, 2.0];

impl<M: PowerModel> DiscreteSpeeds<M> {
    /// Build from a speed list (sorted and deduplicated automatically).
    ///
    /// # Panics
    /// If `levels` is empty or contains a non-finite or non-positive
    /// entry.
    pub fn new(model: M, mut levels: Vec<f64>) -> Self {
        assert!(!levels.is_empty(), "at least one speed level required");
        assert!(
            levels.iter().all(|s| s.is_finite() && *s > 0.0),
            "all speed levels must be finite and positive: {levels:?}"
        );
        levels.sort_by(|a, b| a.partial_cmp(b).expect("finite levels"));
        levels.dedup();
        DiscreteSpeeds { model, levels }
    }

    /// Evenly spaced levels `max/k, 2·max/k, …, max` — the synthetic
    /// ladders used by the §6 level-count experiments.
    pub fn uniform(model: M, k: usize, max: f64) -> Self {
        assert!(k >= 1, "need at least one level");
        let levels = (1..=k).map(|i| max * i as f64 / k as f64).collect();
        DiscreteSpeeds::new(model, levels)
    }

    /// The sorted speed levels.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// The continuous model the levels are drawn from.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Highest available speed.
    pub fn max_speed(&self) -> f64 {
        *self.levels.last().expect("non-empty")
    }

    /// Lowest available speed.
    pub fn min_speed(&self) -> f64 {
        self.levels[0]
    }

    /// The pair of adjacent levels bracketing `target`, as indices
    /// `(lo, hi)` into [`DiscreteSpeeds::levels`].
    ///
    /// * `target` below the lowest level brackets to `(0, 0)`;
    /// * above the highest to `(last, last)`;
    /// * exact hits return `(i, i)`.
    pub fn bracketing_levels(&self, target: f64) -> (usize, usize) {
        let n = self.levels.len();
        match self
            .levels
            .binary_search_by(|s| s.partial_cmp(&target).expect("finite"))
        {
            Ok(i) => (i, i),
            Err(0) => (0, 0),
            Err(i) if i == n => (n - 1, n - 1),
            Err(i) => (i - 1, i),
        }
    }

    /// Time split emulating constant speed `target` for `work` units:
    /// returns `(t_lo, t_hi)`, the durations to spend at the bracketing
    /// lower/upper levels so total time and total work both match the
    /// continuous execution. When `target` is outside the level range the
    /// nearest level is used alone and **total time changes** (the
    /// returned durations still complete the work).
    pub fn two_level_split(&self, work: f64, target: f64) -> TwoLevelSplit {
        let (i, j) = self.bracketing_levels(target);
        let (lo, hi) = (self.levels[i], self.levels[j]);
        if i == j {
            return TwoLevelSplit {
                lo_speed: lo,
                hi_speed: hi,
                // On a level, or outside the ladder: run everything at
                // the nearest level.
                lo_time: work / lo,
                hi_time: 0.0,
                exact: (lo - target).abs() <= 1e-12 * target.abs().max(1.0),
            };
        }
        // Solve t_lo + t_hi = work/target (same duration) and
        // lo·t_lo + hi·t_hi = work (same work).
        let duration = work / target;
        let hi_time = (work - lo * duration) / (hi - lo);
        let lo_time = duration - hi_time;
        TwoLevelSplit {
            lo_speed: lo,
            hi_speed: hi,
            lo_time,
            hi_time,
            exact: true,
        }
    }

    /// Energy of a [`TwoLevelSplit`] under the underlying model.
    pub fn split_energy(&self, split: &TwoLevelSplit) -> f64 {
        self.model.power(split.lo_speed) * split.lo_time
            + self.model.power(split.hi_speed) * split.hi_time
    }

    /// Largest ratio between adjacent levels, `max_i s_{i+1}/s_i` (`1.0`
    /// for a single-level ladder).
    ///
    /// This is the ladder's "coarseness": for an underlying
    /// [`crate::PolyPower`] with exponent `α`, the emulation curve of the
    /// [`PowerModel`] impl below is sandwiched as
    /// `model.power(σ) ≤ ladder.power(σ) ≤ r^α · model.power(σ)` with
    /// `r = max_adjacent_ratio()`, which is what the proptest bracketing
    /// family in `crates/power/tests` pins across every solver entry.
    pub fn max_adjacent_ratio(&self) -> f64 {
        self.levels
            .windows(2)
            .map(|w| w[1] / w[0])
            .fold(1.0, f64::max)
    }
}

/// The two-level emulation power curve, as a [`PowerModel`].
///
/// For a target speed inside the ladder range, the cheapest
/// hardware-executable emulation time-slices the two adjacent levels
/// bracketing it ([`DiscreteSpeeds::two_level_split`]); its average power
/// over the emulation window is exactly the **linear interpolation** of
/// the underlying model between those levels. Outside the ladder range
/// the curve falls back to the continuous model (the engine never asks
/// for such speeds once caps are applied, and the fallback keeps the
/// trait contract intact: `P(0)=0`, continuity, convexity).
///
/// Contract check: the curve is continuous (interpolation meets the
/// model at every level), increasing, and convex — chord slopes of a
/// convex function increase with the segment, and the boundary slopes
/// `P'(s_min)`/`P'(s_max)` bracket the first/last chord. It is only
/// *weakly* convex on the interior of each segment, but the quantity
/// every algorithm actually consults, `g(σ) = P(σ)/σ`, stays **strictly
/// increasing**: each chord `aσ + b` has `b < 0` (it lies above a convex
/// curve through the origin), so `g(σ) = a + b/σ` strictly increases.
/// The same shape gives `g` a closed-form inverse
/// (`speed_for_energy_per_work` below).
impl<M: PowerModel> PowerModel for DiscreteSpeeds<M> {
    fn power(&self, speed: f64) -> f64 {
        let (lo, hi) = (self.min_speed(), self.max_speed());
        if !(lo..=hi).contains(&speed) {
            return self.model.power(speed);
        }
        let (i, j) = self.bracketing_levels(speed);
        if i == j {
            return self.model.power(self.levels[i]);
        }
        let (sl, sh) = (self.levels[i], self.levels[j]);
        let (pl, ph) = (self.model.power(sl), self.model.power(sh));
        pl + (ph - pl) * (speed - sl) / (sh - sl)
    }

    fn name(&self) -> String {
        format!("ladder{}[{}]", self.levels.len(), self.model.name())
    }

    /// The closed-form inverse of `g(σ) = P(σ)/σ` on the curve above, with
    /// no bisection.
    ///
    /// Outside the ladder the curve is the model's, so the model inverts
    /// it. Inside, the level densities `g_k = P(s_k)/s_k` increase with
    /// `k`; the segment whose end densities bracket `e` has chord
    /// `P = aσ + b`, and `a + b/σ = e` has the one root `σ = b/(e − a)`
    /// (`b < 0` and `e < a`). It is evaluated in the equivalent form
    /// `s_l·s_h·(g_h − g_l) / (s_h·(g_h − e) + s_l·(e − g_l))`, whose
    /// denominator adds two non-negative terms and so never cancels. A
    /// level's own density gives back that level exactly. The trait's
    /// default bisection over [`PowerModel::energy_per_work`] is the
    /// oracle this is tested against.
    fn speed_for_energy_per_work(&self, e: f64) -> Result<f64, PowerError> {
        if e < 0.0 {
            return Err(PowerError::Unreachable { energy_per_work: e });
        }
        if e == 0.0 {
            return Ok(0.0);
        }
        // Binary search for the first level whose density reaches `e`,
        // keeping the densities of the final bracket `[lo - 1, lo]` so no
        // level's power is evaluated twice.
        let (mut lo, mut hi) = (0, self.levels.len());
        let (mut gl, mut gh) = (0.0, 0.0);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let g = self.model.power(self.levels[mid]) / self.levels[mid];
            if g < e {
                (lo, gl) = (mid + 1, g);
            } else {
                (hi, gh) = (mid, g);
            }
        }
        if lo == self.levels.len() {
            return self.model.speed_for_energy_per_work(e);
        }
        let sh = self.levels[lo];
        if gh == e {
            return Ok(sh);
        }
        if lo == 0 {
            return self.model.speed_for_energy_per_work(e);
        }
        let sl = self.levels[lo - 1];
        Ok(sl * sh * (gh - gl) / (sh * (gh - e) + sl * (e - gl)))
    }
}

/// Result of emulating a continuous speed with two adjacent levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoLevelSplit {
    /// Lower level used.
    pub lo_speed: f64,
    /// Upper level used.
    pub hi_speed: f64,
    /// Time at the lower level.
    pub lo_time: f64,
    /// Time at the upper level.
    pub hi_time: f64,
    /// Whether duration and work both match the continuous target
    /// (false when the target fell outside the ladder).
    pub exact: bool,
}

impl TwoLevelSplit {
    /// Total duration of the emulation.
    pub fn duration(&self) -> f64 {
        self.lo_time + self.hi_time
    }

    /// Work completed by the emulation.
    pub fn work(&self) -> f64 {
        self.lo_speed * self.lo_time + self.hi_speed * self.hi_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::PolyPower;

    fn athlon() -> DiscreteSpeeds<PolyPower> {
        DiscreteSpeeds::new(PolyPower::CUBE, ATHLON64_GHZ.to_vec())
    }

    #[test]
    fn levels_sorted_and_deduped() {
        let d = DiscreteSpeeds::new(PolyPower::CUBE, vec![2.0, 0.8, 1.8, 0.8]);
        assert_eq!(d.levels(), &[0.8, 1.8, 2.0]);
        assert_eq!(d.min_speed(), 0.8);
        assert_eq!(d.max_speed(), 2.0);
    }

    #[test]
    fn uniform_ladder() {
        let d = DiscreteSpeeds::uniform(PolyPower::CUBE, 4, 2.0);
        assert_eq!(d.levels(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn bracketing() {
        let d = athlon();
        assert_eq!(d.bracketing_levels(1.0), (0, 1));
        assert_eq!(d.bracketing_levels(1.9), (1, 2));
        assert_eq!(d.bracketing_levels(0.8), (0, 0));
        assert_eq!(d.bracketing_levels(0.1), (0, 0));
        assert_eq!(d.bracketing_levels(5.0), (2, 2));
    }

    #[test]
    fn split_preserves_work_and_duration() {
        let d = athlon();
        let split = d.two_level_split(3.0, 1.2); // between 0.8 and 1.8
        assert!(split.exact);
        assert!((split.work() - 3.0).abs() < 1e-12);
        assert!((split.duration() - 3.0 / 1.2).abs() < 1e-12);
        assert!(split.lo_time > 0.0 && split.hi_time > 0.0);
    }

    #[test]
    fn split_at_exact_level() {
        let d = athlon();
        let split = d.two_level_split(3.6, 1.8);
        assert!(split.exact);
        assert_eq!(split.hi_time, 0.0);
        assert!((split.lo_time - 2.0).abs() < 1e-12);
    }

    #[test]
    fn split_outside_ladder_is_marked_inexact() {
        let d = athlon();
        let split = d.two_level_split(1.0, 0.2); // below min level
        assert!(!split.exact);
        assert!((split.work() - 1.0).abs() < 1e-12);
        // Runs at 0.8, faster than requested 0.2 → shorter duration.
        assert!(split.duration() < 5.0);
    }

    #[test]
    fn split_energy_exceeds_continuous_energy() {
        // Convexity: emulating σ=1.2 with {0.8, 1.8} costs more energy
        // than running at 1.2 continuously (equal time, equal work).
        let d = athlon();
        let split = d.two_level_split(3.0, 1.2);
        let continuous = PolyPower::CUBE.energy(3.0, 1.2);
        assert!(d.split_energy(&split) > continuous);
    }

    #[test]
    #[should_panic(expected = "at least one speed level")]
    fn rejects_empty() {
        let _ = DiscreteSpeeds::new(PolyPower::CUBE, vec![]);
    }

    #[test]
    fn power_model_impl_matches_split_energy() {
        // g(σ)·work under the ladder model must equal the energy of the
        // explicit two-level emulation — same construction, two codepaths.
        let d = athlon();
        for &target in &[0.9, 1.2, 1.79, 1.95] {
            let split = d.two_level_split(3.0, target);
            let via_trait = d.energy(3.0, target);
            let via_split = d.split_energy(&split);
            assert!(
                (via_trait - via_split).abs() < 1e-12 * via_split,
                "target {target}: trait {via_trait} vs split {via_split}"
            );
        }
    }

    #[test]
    fn power_model_impl_is_continuous_at_levels_and_ends() {
        let d = athlon();
        for &s in d.levels() {
            assert!((d.power(s) - PolyPower::CUBE.power(s)).abs() < 1e-12);
            let eps = 1e-9;
            assert!((d.power(s - eps) - d.power(s)).abs() < 1e-6);
            assert!((d.power(s + eps) - d.power(s)).abs() < 1e-6);
        }
        // Outside the ladder: continuous-model fallback.
        assert_eq!(d.power(0.0), 0.0);
        assert_eq!(d.power(0.5), PolyPower::CUBE.power(0.5));
        assert_eq!(d.power(3.0), PolyPower::CUBE.power(3.0));
    }

    #[test]
    fn power_model_impl_sandwiched_by_adjacent_ratio() {
        let d = athlon();
        let r = d.max_adjacent_ratio();
        assert!((r - 1.8 / 0.8).abs() < 1e-12);
        let scale = r.powf(3.0);
        let mut s = 0.05;
        while s < 2.5 {
            let base = PolyPower::CUBE.power(s);
            let ladder = d.power(s);
            assert!(ladder >= base - 1e-12, "lower bound at {s}");
            assert!(ladder <= scale * base + 1e-12, "upper bound at {s}");
            s += 0.031;
        }
    }

    #[test]
    fn power_model_impl_g_strictly_increasing() {
        let d = athlon();
        let mut prev = 0.0;
        let mut s = 0.1;
        while s < 2.6 {
            let g = d.energy_per_work(s);
            assert!(g > prev, "g must strictly increase at {s}");
            prev = g;
            s += 0.017;
        }
    }

    #[test]
    fn power_model_impl_inverse_round_trips() {
        let d = athlon();
        for &e in &[0.1, 0.7, 1.5, 3.0] {
            let s = d.speed_for_energy_per_work(e).unwrap();
            assert!(
                (d.energy_per_work(s) - e).abs() < 1e-9 * e.max(1.0),
                "e={e}"
            );
        }
    }

    /// The closed-form ladder inverse against the trait's bisection over
    /// the same curve, on seeded random ladders, models and densities.
    #[test]
    fn ladder_inverse_matches_the_bisection_oracle() {
        use pas_numeric::roots::invert_monotone;
        use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..1000 {
            let model =
                PolyPower::with_coefficient(1.2 + 2.8 * rng.gen_f64(), 0.1 + 4.9 * rng.gen_f64());
            let k = 1 + (rng.next_u64() % 6) as usize;
            let levels = (0..k).map(|_| 0.05 + 3.95 * rng.gen_f64()).collect();
            let d = DiscreteSpeeds::new(model, levels);
            let own: Vec<f64> = d.levels().iter().map(|&s| d.energy_per_work(s)).collect();
            let random = (0..50).map(|_| 10f64.powf(-6.0 + 12.0 * rng.gen_f64()));
            for e in own.iter().copied().chain(random) {
                let got = d.speed_for_energy_per_work(e).unwrap();
                let want = invert_monotone(|s| d.energy_per_work(s), e, 1.0, 1e-14, 0.0).unwrap();
                // The oracle stops once its bracket is narrower than its
                // absolute tolerance of 1e-14.
                assert!(
                    (got - want).abs() <= 1e-12 * want + 1e-14,
                    "{:?}: e={e:e} gave {got:e}, oracle {want:e}",
                    d.levels()
                );
                // Near the slow end of a wide segment one ulp of σ moves g
                // by more than 1e-12 relative (up to ~1e-11 here), so the
                // round trip is also allowed g's rise over ±1 ulp of σ.
                let next = |bits: u64| d.energy_per_work(f64::from_bits(bits));
                let ulp_rise = (next(got.to_bits() + 1) - next(got.to_bits() - 1)).abs();
                let back = d.energy_per_work(got);
                assert!(
                    (back - e).abs() <= 1e-12 * e + ulp_rise,
                    "{:?}: e={e:e} gave {got:e}, g back {back:e}",
                    d.levels()
                );
            }
            for (&s, &e) in d.levels().iter().zip(&own) {
                assert_eq!(d.speed_for_energy_per_work(e).unwrap(), s);
            }
            assert_eq!(d.speed_for_energy_per_work(0.0).unwrap(), 0.0);
            assert_eq!(
                d.speed_for_energy_per_work(-1.0),
                Err(PowerError::Unreachable {
                    energy_per_work: -1.0
                })
            );
        }
    }

    #[test]
    fn single_level_ladder_ratio_is_one() {
        let d = DiscreteSpeeds::new(PolyPower::CUBE, vec![1.5]);
        assert_eq!(d.max_adjacent_ratio(), 1.0);
        assert_eq!(d.power(1.5), PolyPower::CUBE.power(1.5));
    }
}
