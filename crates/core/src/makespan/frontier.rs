//! All non-dominated schedules: the energy ↔ makespan frontier (§3.2).
//!
//! A slight modification of `IncMerge` enumerates every optimal
//! *configuration* (way of breaking jobs into blocks): start from an
//! effectively infinite budget — where the final job is its own block —
//! and lower the budget. Only the final block's speed depends on the
//! budget; when it has slowed to its predecessor's speed the two merge,
//! and that merge energy is a *breakpoint*. Between breakpoints the curve
//! has the closed form
//!
//! ```text
//! M(E) = s_L + W_L / g⁻¹((E − Σ)/W_L)
//! ```
//!
//! where `s_L, W_L` are the final block's start and work, `Σ` the energy
//! of the earlier (budget-independent) blocks, and `g(σ) = P(σ)/σ`. The
//! curve is continuous and C¹ — the first derivative
//! `dM/dE = −1/(P'(σ)σ − P(σ))` matches across breakpoints because the
//! merging blocks run at equal speeds there — while the second
//! derivative `d²M/dE² = P''(σ)·σ³/(W_L·(P'(σ)σ − P(σ))³)` jumps
//! (Figures 1–3 of the paper).
//!
//! Because earlier blocks never re-merge among themselves, configuration
//! `k`'s fixed blocks are a *prefix* of configuration 0's, so the whole
//! frontier is stored in `O(n)` space.

use crate::error::CoreError;
use crate::makespan::blocks::{Block, BlockSchedule};
use crate::makespan::incmerge::{exact_fit_stack, prefix_energies};
use pas_power::PowerModel;
use pas_workload::Instance;

/// One configuration of the frontier: valid for budgets in
/// `[energy_min, energy_max)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSegment {
    /// Budget at which the final block merges with its predecessor
    /// (0 for the single-block configuration).
    pub energy_min: f64,
    /// Upper end of the validity range (`inf` for the fastest
    /// configuration).
    pub energy_max: f64,
    /// Number of budget-independent blocks preceding the final block.
    pub prefix_blocks: usize,
    /// Total energy of those prefix blocks.
    pub prefix_energy: f64,
    /// Start time of the final block.
    pub last_start: f64,
    /// Work of the final block.
    pub last_work: f64,
    /// Makespan at `energy_min` (the slow end of this configuration);
    /// `inf` for the single-block configuration's limit.
    pub makespan_at_min: f64,
}

/// The complete set of non-dominated schedules of one instance under one
/// power model.
///
/// Build once with [`Frontier::build`]; query makespan/energy/derivatives
/// at any budget in `O(log n)`.
#[derive(Debug, Clone)]
pub struct Frontier {
    /// Blocks of the fastest configuration; the final entry's speed field
    /// is meaningless (budget-driven) and stored as `NAN`.
    base_blocks: Vec<Block>,
    /// Segments ordered from highest energy (index 0) to lowest.
    segments: Vec<FrontierSegment>,
}

impl Frontier {
    /// Enumerate all configurations of `instance` under `model`.
    ///
    /// `O(n)` time and space after the instance's release sort.
    pub fn build<M: PowerModel>(instance: &Instance, model: &M) -> Frontier {
        let n = instance.len();
        // IncMerge's phase 1; its survivors are the fixed blocks of the
        // fastest configuration, followed by {n-1}.
        let mut base_blocks = exact_fit_stack(instance, n - 1, instance.release(n - 1));
        // prefix_energy[k] = energy of blocks 0..k.
        let prefix_energy = prefix_energies(&base_blocks, model);
        base_blocks.push(Block {
            first: n - 1,
            last: n - 1,
            work: instance.work(n - 1),
            start: instance.release(n - 1),
            speed: f64::NAN,
        });

        // Enumerate configurations from fastest to slowest.
        let mut segments = Vec::with_capacity(base_blocks.len());
        let mut energy_max = f64::INFINITY;
        let mut last_start = base_blocks[base_blocks.len() - 1].start;
        let mut last_work = base_blocks[base_blocks.len() - 1].work;
        for k in (0..base_blocks.len()).rev() {
            // Configuration with `k` fixed prefix blocks.
            let sigma = prefix_energy[k];
            let (energy_min, makespan_at_min) = if k == 0 {
                (0.0, f64::INFINITY)
            } else {
                let pred = &base_blocks[k - 1];
                let merge_energy = sigma + model.energy(last_work, pred.speed);
                let mk = if pred.speed.is_finite() && pred.speed > 0.0 {
                    last_start + last_work / pred.speed
                } else {
                    last_start
                };
                (merge_energy, mk)
            };
            segments.push(FrontierSegment {
                energy_min,
                energy_max,
                prefix_blocks: k,
                prefix_energy: sigma,
                last_start,
                last_work,
                makespan_at_min,
            });
            energy_max = energy_min;
            if k > 0 {
                // Merge the predecessor into the final block.
                let pred = &base_blocks[k - 1];
                last_start = pred.start;
                last_work += pred.work;
            }
        }
        // The descending-k loop already pushed the highest-energy
        // configuration first.
        Frontier {
            base_blocks,
            segments,
        }
    }

    /// The configurations, fastest (highest-energy) first.
    pub fn segments(&self) -> &[FrontierSegment] {
        &self.segments
    }

    /// The budgets at which the optimal configuration changes, in
    /// decreasing order (the paper's instance yields `[17, 8]`).
    /// Infinite entries (produced by zero-length release gaps whose
    /// exact-fit blocks have infinite speed) are filtered out.
    pub fn breakpoints(&self) -> Vec<f64> {
        self.segments
            .iter()
            .map(|s| s.energy_min)
            .filter(|e| e.is_finite() && *e > 0.0)
            .collect()
    }

    /// The segment covering budget `e`.
    ///
    /// # Errors
    /// [`CoreError::InvalidBudget`] for non-positive `e`.
    pub fn segment_for_energy(&self, e: f64) -> Result<&FrontierSegment, CoreError> {
        if !pas_numeric::compare::is_positive_finite(e) {
            return Err(CoreError::InvalidBudget { budget: e });
        }
        // Segments ordered by decreasing energy: find the first whose
        // energy_min is <= e.
        let idx = self.segments.partition_point(|s| s.energy_min > e);
        Ok(&self.segments[idx.min(self.segments.len() - 1)])
    }

    /// Optimal makespan for budget `e` (the laptop problem, via the
    /// frontier's closed form).
    ///
    /// # Errors
    /// [`CoreError::InvalidBudget`], or a power-model error when the
    /// final-block speed solve fails.
    pub fn makespan<M: PowerModel>(&self, model: &M, e: f64) -> Result<f64, CoreError> {
        let seg = self.segment_for_energy(e)?;
        let speed = model.speed_for_block(seg.last_work, e - seg.prefix_energy)?;
        Ok(seg.last_start + seg.last_work / speed)
    }

    /// The optimal schedule for budget `e`, reconstructed from the
    /// segment's prefix blocks plus the budget-driven final block.
    ///
    /// # Errors
    /// Same as [`Frontier::makespan`].
    pub fn schedule<M: PowerModel>(&self, model: &M, e: f64) -> Result<BlockSchedule, CoreError> {
        let seg = self.segment_for_energy(e)?;
        let speed = model.speed_for_block(seg.last_work, e - seg.prefix_energy)?;
        let mut blocks: Vec<Block> = self.base_blocks[..seg.prefix_blocks].to_vec();
        let last = self.base_blocks.last().expect("non-empty");
        blocks.push(Block {
            first: self.base_blocks[seg.prefix_blocks].first,
            last: last.last,
            work: seg.last_work,
            start: seg.last_start,
            speed,
        });
        Ok(BlockSchedule::new(blocks))
    }

    /// Minimal energy achieving makespan `t` (the server problem, exact
    /// per-piece closed form `E = Σ + W·g(W/(t − s_L))`).
    ///
    /// # Errors
    /// [`CoreError::UnreachableTarget`] when `t` is at or below the final
    /// job's release time.
    pub fn energy_for_makespan<M: PowerModel>(&self, model: &M, t: f64) -> Result<f64, CoreError> {
        // The first (fastest) segment whose slow-end makespan reaches t;
        // makespan_at_min rises with the segment index.
        let idx = self.segments.partition_point(|s| s.makespan_at_min < t);
        let seg = &self.segments[idx.min(self.segments.len() - 1)];
        if t <= seg.last_start {
            return Err(CoreError::UnreachableTarget {
                reason: format!(
                    "makespan {t} not achievable: final block cannot start before {}",
                    seg.last_start
                ),
            });
        }
        let speed = seg.last_work / (t - seg.last_start);
        Ok(seg.prefix_energy + model.energy(seg.last_work, speed))
    }

    /// Closed-form first derivative `dM/dE = −1/(P'(σ)σ − P(σ))` at
    /// budget `e` (continuous across breakpoints — paper Figure 2).
    ///
    /// # Errors
    /// Same as [`Frontier::makespan`].
    pub fn makespan_derivative<M: PowerModel>(&self, model: &M, e: f64) -> Result<f64, CoreError> {
        let seg = self.segment_for_energy(e)?;
        let sigma = model.speed_for_block(seg.last_work, e - seg.prefix_energy)?;
        let denom = model.power_derivative(sigma) * sigma - model.power(sigma);
        Ok(-1.0 / denom)
    }

    /// Closed-form second derivative
    /// `d²M/dE² = P''(σ)·σ³ / (W·(P'(σ)σ − P(σ))³)` at budget `e`
    /// (discontinuous at breakpoints — paper Figure 3).
    ///
    /// # Errors
    /// Same as [`Frontier::makespan`].
    pub fn makespan_second_derivative<M: PowerModel>(
        &self,
        model: &M,
        e: f64,
    ) -> Result<f64, CoreError> {
        let seg = self.segment_for_energy(e)?;
        let sigma = model.speed_for_block(seg.last_work, e - seg.prefix_energy)?;
        let denom = model.power_derivative(sigma) * sigma - model.power(sigma);
        Ok(model.power_second_derivative(sigma) * sigma.powi(3) / (seg.last_work * denom.powi(3)))
    }

    /// Sample `(energy, makespan)` at `points` energies evenly spaced in
    /// `[lo, hi]`, with every interior breakpoint inserted exactly —
    /// ready-to-plot data for Figure-1-style curves that never smooths a
    /// configuration change away.
    ///
    /// # Errors
    /// [`CoreError::InvalidBudget`] when `lo <= 0` or `lo >= hi`.
    pub fn sample<M: PowerModel>(
        &self,
        model: &M,
        lo: f64,
        hi: f64,
        points: usize,
    ) -> Result<Vec<(f64, f64)>, CoreError> {
        if !(lo.is_finite() && lo > 0.0 && hi.is_finite() && hi > lo) || points < 2 {
            return Err(CoreError::InvalidBudget { budget: lo });
        }
        let mut energies: Vec<f64> = (0..points)
            .map(|k| lo + (hi - lo) * k as f64 / (points - 1) as f64)
            .collect();
        energies.extend(
            self.breakpoints()
                .into_iter()
                .filter(|e| *e > lo && *e < hi),
        );
        energies.sort_by(|a, b| a.total_cmp(b));
        energies.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        energies
            .into_iter()
            .map(|e| Ok((e, self.makespan(model, e)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::makespan::incmerge;
    use pas_power::PolyPower;

    fn paper_instance() -> Instance {
        Instance::from_pairs(&[(0.0, 5.0), (5.0, 2.0), (6.0, 1.0)]).unwrap()
    }

    #[test]
    fn breakpoints_are_8_and_17() {
        let f = Frontier::build(&paper_instance(), &PolyPower::CUBE);
        let bp = f.breakpoints();
        assert_eq!(bp.len(), 2, "{bp:?}");
        assert!((bp[0] - 17.0).abs() < 1e-9, "{bp:?}");
        assert!((bp[1] - 8.0).abs() < 1e-9, "{bp:?}");
    }

    #[test]
    fn makespan_matches_incmerge_everywhere() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        let f = Frontier::build(&inst, &model);
        for k in 1..200 {
            let e = 0.25 * k as f64;
            let via_frontier = f.makespan(&model, e).unwrap();
            let via_incmerge = incmerge::laptop(&inst, &model, e).unwrap().makespan();
            assert!(
                (via_frontier - via_incmerge).abs() < 1e-9,
                "E={e}: frontier {via_frontier} vs incmerge {via_incmerge}"
            );
        }
    }

    #[test]
    fn figure1_endpoint_values() {
        let f = Frontier::build(&paper_instance(), &PolyPower::CUBE);
        let model = PolyPower::CUBE;
        // M(6) = 8√(8/6), M(8) = 8, M(17) = 6.5, M(21) = 6 + 8^{-1/2}.
        assert!((f.makespan(&model, 6.0).unwrap() - 8.0 * (8.0f64 / 6.0).sqrt()).abs() < 1e-9);
        assert!((f.makespan(&model, 8.0).unwrap() - 8.0).abs() < 1e-9);
        assert!((f.makespan(&model, 17.0).unwrap() - 6.5).abs() < 1e-9);
        assert!((f.makespan(&model, 21.0).unwrap() - (6.0 + 8f64.powf(-0.5))).abs() < 1e-9);
    }

    #[test]
    fn figure2_first_derivative_continuous_at_breakpoints() {
        let f = Frontier::build(&paper_instance(), &PolyPower::CUBE);
        let model = PolyPower::CUBE;
        // Exact values: M'(8) = -1/2, M'(17) = -1/16.
        assert!((f.makespan_derivative(&model, 8.0).unwrap() + 0.5).abs() < 1e-9);
        assert!((f.makespan_derivative(&model, 17.0).unwrap() + 1.0 / 16.0).abs() < 1e-9);
        // Continuity: left and right of each breakpoint agree to O(h).
        for &bp in &[8.0, 17.0] {
            let h = 1e-7;
            let l = f.makespan_derivative(&model, bp - h).unwrap();
            let r = f.makespan_derivative(&model, bp + h).unwrap();
            assert!((l - r).abs() < 1e-5, "at {bp}: {l} vs {r}");
        }
    }

    #[test]
    fn figure3_second_derivative_jumps_at_breakpoints() {
        let f = Frontier::build(&paper_instance(), &PolyPower::CUBE);
        let model = PolyPower::CUBE;
        let h = 1e-9;
        // At E=8: 3/32 from the left, 1/4 from the right.
        let l8 = f.makespan_second_derivative(&model, 8.0 - h).unwrap();
        let r8 = f.makespan_second_derivative(&model, 8.0 + h).unwrap();
        assert!((l8 - 3.0 / 32.0).abs() < 1e-6, "{l8}");
        assert!((r8 - 0.25).abs() < 1e-6, "{r8}");
        // At E=17: 9√3/(4·12^{5/2}) from the left, 3/128 from the right.
        let l17 = f.makespan_second_derivative(&model, 17.0 - h).unwrap();
        let r17 = f.makespan_second_derivative(&model, 17.0 + h).unwrap();
        let want_l17 = 9.0 * 3f64.sqrt() / (4.0 * 12f64.powf(2.5));
        assert!((l17 - want_l17).abs() < 1e-6, "{l17} vs {want_l17}");
        assert!((r17 - 3.0 / 128.0).abs() < 1e-6, "{r17}");
    }

    #[test]
    fn derivatives_match_numeric_differentiation() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        let f = Frontier::build(&inst, &model);
        // Away from breakpoints, Richardson central differences of M(E)
        // must agree with the closed forms.
        for &e in &[6.5, 10.0, 14.0, 19.0, 30.0] {
            let m = |x: f64| f.makespan(&model, x).unwrap();
            let d_closed = f.makespan_derivative(&model, e).unwrap();
            let d_numeric = pas_numeric::diff::derivative(m, e, 1e-4);
            assert!(
                (d_closed - d_numeric).abs() < 1e-6,
                "E={e}: {d_closed} vs {d_numeric}"
            );
            let d2_closed = f.makespan_second_derivative(&model, e).unwrap();
            let d2_numeric = pas_numeric::diff::second_derivative(m, e, 1e-3);
            assert!(
                (d2_closed - d2_numeric).abs() < 1e-4,
                "E={e}: {d2_closed} vs {d2_numeric}"
            );
        }
    }

    #[test]
    fn server_query_inverts_laptop_query() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        let f = Frontier::build(&inst, &model);
        for &e in &[6.0, 8.0, 11.0, 17.0, 25.0] {
            let t = f.makespan(&model, e).unwrap();
            let back = f.energy_for_makespan(&model, t).unwrap();
            assert!((back - e).abs() < 1e-7 * e, "E={e} -> T={t} -> {back}");
        }
    }

    #[test]
    fn schedule_reconstruction_is_optimal_and_valid() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        let f = Frontier::build(&inst, &model);
        for &e in &[6.0, 12.0, 18.0] {
            let bs = f.schedule(&model, e).unwrap();
            bs.verify_structure(&inst, 1e-9).unwrap();
            assert!((bs.energy(&model) - e).abs() < 1e-7 * e);
            let im = incmerge::laptop(&inst, &model, e).unwrap();
            assert!((bs.makespan() - im.makespan()).abs() < 1e-9);
        }
    }

    #[test]
    fn unreachable_makespan_is_rejected() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        let f = Frontier::build(&inst, &model);
        // Makespan 6.0 = release of the last job: impossible.
        assert!(f.energy_for_makespan(&model, 6.0).is_err());
        assert!(f.energy_for_makespan(&model, 5.0).is_err());
        // Just above is fine (huge energy).
        assert!(f.energy_for_makespan(&model, 6.0001).unwrap() > 1000.0);
    }

    #[test]
    fn single_job_frontier() {
        let inst = Instance::from_pairs(&[(2.0, 4.0)]).unwrap();
        let model = PolyPower::CUBE;
        let f = Frontier::build(&inst, &model);
        assert_eq!(f.segments().len(), 1);
        assert!(f.breakpoints().is_empty());
        // w·σ² = 16 -> σ = 2 -> M = 4.
        assert!((f.makespan(&model, 16.0).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_budget_rejected() {
        let f = Frontier::build(&paper_instance(), &PolyPower::CUBE);
        assert!(f.makespan(&PolyPower::CUBE, 0.0).is_err());
        assert!(f.makespan(&PolyPower::CUBE, -1.0).is_err());
    }

    #[test]
    fn sample_includes_breakpoints_exactly() {
        let model = PolyPower::CUBE;
        let f = Frontier::build(&paper_instance(), &model);
        let pts = f.sample(&model, 6.0, 21.0, 10).unwrap();
        // 10 grid points + 2 interior breakpoints (8 and 17).
        assert_eq!(pts.len(), 12);
        assert!(pts.iter().any(|(e, _)| (*e - 8.0).abs() < 1e-12));
        assert!(pts.iter().any(|(e, _)| (*e - 17.0).abs() < 1e-12));
        // Sorted and strictly decreasing makespans.
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 > w[1].1);
        }
        assert!(f.sample(&model, 0.0, 21.0, 10).is_err());
        assert!(f.sample(&model, 5.0, 5.0, 10).is_err());
    }

    #[test]
    fn energy_for_makespan_search_matches_linear_scan() {
        use pas_workload::generators;
        let model = PolyPower::new(2.5);
        let mut infinite_blocks = 0;
        for seed in 0..20 {
            let inst = generators::uniform(40, 50.0, (0.5, 3.0), seed);
            // The same jobs with releases snapped to a coarse grid:
            // simultaneous releases give infinite-speed blocks.
            let snapped: Vec<(f64, f64)> = inst
                .jobs()
                .iter()
                .map(|j| ((j.release / 10.0).floor() * 10.0, j.work))
                .collect();
            let snapped = Instance::from_pairs(&snapped).unwrap();
            for inst in [inst, snapped] {
                let f = Frontier::build(&inst, &model);
                infinite_blocks += f
                    .base_blocks
                    .iter()
                    .filter(|b| b.speed.is_infinite())
                    .count();
                let slow_ends: Vec<f64> = f.segments().iter().map(|s| s.makespan_at_min).collect();
                assert!(slow_ends.windows(2).all(|w| w[0] <= w[1]), "{slow_ends:?}");
                let mut probes: Vec<f64> = slow_ends
                    .iter()
                    .copied()
                    .filter(|t| t.is_finite())
                    .collect();
                let last = inst.release(inst.len() - 1);
                probes.extend((0..200).map(|k| last - 1.0 + 0.25 * k as f64));
                for t in probes {
                    let seg = f
                        .segments()
                        .iter()
                        .find(|s| t <= s.makespan_at_min)
                        .unwrap_or_else(|| f.segments().last().unwrap());
                    let got = f.energy_for_makespan(&model, t);
                    if t <= seg.last_start {
                        assert!(got.is_err(), "t={t}: {got:?}");
                    } else {
                        let speed = seg.last_work / (t - seg.last_start);
                        let want = seg.prefix_energy + model.energy(seg.last_work, speed);
                        assert_eq!(got.unwrap().to_bits(), want.to_bits(), "t={t}");
                    }
                }
            }
        }
        assert!(
            infinite_blocks > 0,
            "no instance exercised an infinite-speed block"
        );
    }

    #[test]
    fn frontier_matches_incmerge_on_random_instances() {
        use pas_workload::generators;
        let model = PolyPower::new(2.5);
        for seed in 0..10 {
            let inst = generators::uniform(30, 50.0, (0.5, 3.0), seed);
            let f = Frontier::build(&inst, &model);
            for k in 1..=20 {
                let e = 2.0 * k as f64;
                let a = f.makespan(&model, e).unwrap();
                let b = incmerge::laptop(&inst, &model, e).unwrap().makespan();
                // Same phase 1 and the same prefix energies: the two agree
                // bit for bit away from configuration changes.
                assert!(
                    (a - b).abs() <= 1e-12 * a.max(1.0),
                    "seed {seed} E={e}: {a} vs {b}"
                );
            }
        }
    }
}
