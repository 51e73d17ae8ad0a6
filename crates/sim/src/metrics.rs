//! Schedule quality and cost metrics.
//!
//! The two classic metrics of the paper — **makespan** (`max_i C_i`) and
//! **total flow** (`Σ_i (C_i − r_i)`) — plus energy under an arbitrary
//! [`PowerModel`], weighted flow (the paper's example of a *non-symmetric*
//! metric, §5), speed-switch accounting for the §6 overhead discussion,
//! and a Newtonian-cooling maximum temperature (the objective of
//! Bansal–Kimbrel–Pruhs discussed in §2).

use crate::online::IdIndex;
use crate::schedule::Schedule;
use pas_numeric::NeumaierSum;
use pas_power::PowerModel;
use pas_workload::Instance;
use std::collections::HashMap;

/// Convenience bundle of the headline metrics of one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// `max_i C_i`.
    pub makespan: f64,
    /// `Σ_i (C_i − r_i)`.
    pub total_flow: f64,
    /// Total energy under the model the bundle was computed with.
    pub energy: f64,
    /// Number of speed switches (see [`switch_count`]).
    pub switches: usize,
}

/// Compute the headline bundle in one pass.
pub fn metrics<M: PowerModel>(schedule: &Schedule, instance: &Instance, model: &M) -> Metrics {
    Metrics {
        makespan: makespan(schedule),
        total_flow: total_flow(schedule, instance),
        energy: energy(schedule, model),
        switches: switch_count(schedule, 1e-9),
    }
}

/// Makespan: completion time of the last job (= latest slice end).
pub fn makespan(schedule: &Schedule) -> f64 {
    schedule.horizon()
}

/// Total flow: `Σ_i (C_i − r_i)` over all jobs present in the schedule.
///
/// Jobs missing from the schedule contribute nothing — run
/// [`Schedule::validate`] first if completeness matters.
pub fn total_flow(schedule: &Schedule, instance: &Instance) -> f64 {
    let mut acc = NeumaierSum::new();
    for (job, c) in instance.jobs().iter().zip(completions(schedule, instance)) {
        if let Some(c) = c {
            acc.add(c - job.release);
        }
    }
    acc.total()
}

/// Weighted total flow `Σ_i w_i (C_i − r_i)` — the paper's §5 example of
/// a metric that is *not* symmetric, so Theorem 10's cyclic assignment
/// does not apply to it. `weights` maps job id to weight (default 1).
pub fn weighted_flow(schedule: &Schedule, instance: &Instance, weights: &HashMap<u32, f64>) -> f64 {
    let mut acc = NeumaierSum::new();
    for (job, c) in instance.jobs().iter().zip(completions(schedule, instance)) {
        if let Some(c) = c {
            let w = weights.get(&job.id).copied().unwrap_or(1.0);
            acc.add(w * (c - job.release));
        }
    }
    acc.total()
}

/// Maximum flow `max_i (C_i − r_i)` (a symmetric non-decreasing metric,
/// so Theorem 10 *does* apply to it — used by tests of that theorem).
pub fn max_flow(schedule: &Schedule, instance: &Instance) -> f64 {
    instance
        .jobs()
        .iter()
        .zip(completions(schedule, instance))
        .filter_map(|(j, c)| c.map(|c| c - j.release))
        .fold(0.0, f64::max)
}

/// Each instance job's completion time, in instance order: the latest
/// end over its slices, or `None` for a job with no slice. The fold is
/// [`Schedule::completion_times`]'s, slice for slice, so the flow
/// metrics keep their bits; slices of jobs outside the instance are
/// skipped.
fn completions(schedule: &Schedule, instance: &Instance) -> Vec<Option<f64>> {
    let ids = IdIndex::new(instance.jobs());
    let mut out = vec![None; instance.len()];
    for lane in schedule.machines() {
        for s in lane {
            if let Some(i) = ids.get(s.job) {
                let e = out[i].get_or_insert(f64::NEG_INFINITY);
                if s.end > *e {
                    *e = s.end;
                }
            }
        }
    }
    out
}

/// Total energy: `Σ_slices P(speed)·duration` under `model`, with
/// compensated accumulation.
pub fn energy<M: PowerModel>(schedule: &Schedule, model: &M) -> f64 {
    let mut acc = NeumaierSum::new();
    for lane in schedule.machines() {
        for s in lane {
            acc.add(model.power(s.speed) * s.duration());
        }
    }
    acc.total()
}

/// Count speed switches: transitions between *adjacent operating speeds*
/// on each machine, where consecutive slices differ in speed by more than
/// `tol` (relative). Idle gaps count as a switch only if the speeds on
/// both sides differ — the voltage need not change to pause.
pub fn switch_count(schedule: &Schedule, tol: f64) -> usize {
    let mut count = 0;
    for lane in schedule.machines() {
        for pair in lane.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if (a.speed - b.speed).abs() > tol * a.speed.abs().max(1.0) {
                count += 1;
            }
        }
    }
    count
}

/// Makespan inflated by a per-switch stall of `delta` time units — the §6
/// model where "the processor must stop while the voltage is changing".
/// Each machine's finish time grows by `delta ×` (its own switch count);
/// the result is the worst machine.
pub fn makespan_with_switch_overhead(schedule: &Schedule, delta: f64, tol: f64) -> f64 {
    let mut worst = 0.0f64;
    for lane in schedule.machines() {
        let finish = lane.last().map_or(0.0, |s| s.end);
        let switches = lane
            .windows(2)
            .filter(|p| (p[0].speed - p[1].speed).abs() > tol * p[0].speed.abs().max(1.0))
            .count();
        worst = worst.max(finish + delta * switches as f64);
    }
    worst
}

/// Maximum temperature over the schedule under Newton's law of cooling:
/// `T'(t) = a·P(t) − b·T(t)`, `T(0) = 0`.
///
/// Within a constant-power interval the closed form is
/// `T(t₀+Δ) = aP/b + (T(t₀) − aP/b)·e^{−bΔ}`, monotone toward the
/// asymptote `aP/b`, so the per-interval maximum is attained at an
/// endpoint. Idle gaps decay with `P = 0`. This is the thermal model of
/// Bansal–Kimbrel–Pruhs referenced in the paper's related work.
///
/// # Panics
/// If `b <= 0` (cooling must be strictly dissipative).
pub fn max_temperature<M: PowerModel>(schedule: &Schedule, model: &M, a: f64, b: f64) -> f64 {
    assert!(b > 0.0, "cooling rate b must be positive");
    let mut peak = 0.0f64;
    for lane in schedule.machines() {
        let mut t_now = 0.0; // temperature
        let mut clock = 0.0; // time
        for s in lane {
            // Idle gap before the slice: exponential decay.
            if s.start > clock {
                t_now *= (-b * (s.start - clock)).exp();
            }
            let asymptote = a * model.power(s.speed) / b;
            t_now = asymptote + (t_now - asymptote) * (-b * s.duration()).exp();
            clock = s.end;
            peak = peak.max(t_now);
        }
    }
    peak
}

/// Number of jobs whose flow `C_i − r_i` exceeds the `slo` bound.
///
/// Jobs of the instance that never complete in the schedule (lost to a
/// crash or cancellation) count as misses — an undelivered job can never
/// meet its deadline. This is the shared implementation behind
/// [`ResilienceReport::deadline_misses`](crate::faults::ResilienceReport).
pub fn deadline_misses(schedule: &Schedule, instance: &Instance, slo: f64) -> usize {
    instance
        .jobs()
        .iter()
        .zip(completions(schedule, instance))
        .filter(|(j, c)| match c {
            Some(c) => c - j.release > slo,
            None => true,
        })
        .count()
}

/// Work actually executed per job: `Σ_slices speed·duration`, keyed by
/// job id, with compensated accumulation per job.
///
/// Under fault injection this is how the *effective* instance is
/// reconstructed (re-executed work after a lost-progress crash shows up
/// here, cancelled-before-start jobs do not), so the engine and the
/// metrics share one notion of "work done".
pub fn executed_work_by_job(schedule: &Schedule) -> HashMap<u32, f64> {
    let mut acc: HashMap<u32, NeumaierSum> = HashMap::new();
    for lane in schedule.machines() {
        for s in lane {
            acc.entry(s.job).or_default().add(s.work());
        }
    }
    acc.into_iter().map(|(id, sum)| (id, sum.total())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::Slice;
    use pas_power::PolyPower;
    use pas_workload::Job;
    use proptest::collection::vec;
    use proptest::prelude::*;

    // The flow metrics as they read over `Schedule::completion_times`,
    // kept as the oracle for the map-free ones.

    fn total_flow_reference(schedule: &Schedule, instance: &Instance) -> f64 {
        let completions = schedule.completion_times();
        let mut acc = NeumaierSum::new();
        for job in instance.jobs() {
            if let Some(&c) = completions.get(&job.id) {
                acc.add(c - job.release);
            }
        }
        acc.total()
    }

    fn weighted_flow_reference(
        schedule: &Schedule,
        instance: &Instance,
        weights: &HashMap<u32, f64>,
    ) -> f64 {
        let completions = schedule.completion_times();
        let mut acc = NeumaierSum::new();
        for job in instance.jobs() {
            if let Some(&c) = completions.get(&job.id) {
                let w = weights.get(&job.id).copied().unwrap_or(1.0);
                acc.add(w * (c - job.release));
            }
        }
        acc.total()
    }

    fn max_flow_reference(schedule: &Schedule, instance: &Instance) -> f64 {
        let completions = schedule.completion_times();
        instance
            .jobs()
            .iter()
            .filter_map(|j| completions.get(&j.id).map(|c| c - j.release))
            .fold(0.0, f64::max)
    }

    fn deadline_misses_reference(schedule: &Schedule, instance: &Instance, slo: f64) -> usize {
        let completions = schedule.completion_times();
        instance
            .jobs()
            .iter()
            .filter(|j| match completions.get(&j.id) {
                Some(&c) => c - j.release > slo,
                None => true,
            })
            .count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Multi-machine schedules over compact or sparse ids, with
        /// slices of jobs outside the instance (ids offset past every
        /// instance id) and instance jobs that have no slice.
        #[test]
        fn flow_metrics_match_the_completion_map_bit_for_bit(
            dense in 0u8..2,
            stride in 2u32..5_000,
            jobs in vec((0.0f64..50.0, 0.1f64..5.0, 0.0f64..3.0), 1..200),
            slices in vec((0u32..400, 0usize..4, 0.0f64..80.0, 0.0f64..10.0), 0..600),
            machines in 1usize..5,
            slo in 0.0f64..30.0,
        ) {
            let stride = if dense == 1 { 1 } else { stride };
            let id = |k: u32| k * stride;
            let instance = Instance::new(
                (0u32..)
                    .zip(&jobs)
                    .map(|(k, &(release, work, _))| Job::new(id(k), release, work))
                    .collect(),
            )
            .unwrap();
            // Whole-valued ends tie often, so `>` against equal ends
            // is exercised.
            let mut schedule = Schedule::with_machines(machines);
            for &(k, m, start, len) in &slices {
                let start = start.floor();
                let job = if (k as usize) < jobs.len() { id(k) } else { id(k) + 1 };
                schedule.push(m % machines, Slice::new(job, start, start + len.ceil(), 1.0));
            }
            let weights: HashMap<u32, f64> = (0u32..)
                .zip(&jobs)
                .filter(|&(_, &(_, _, w))| w > 1.0)
                .map(|(k, &(_, _, w))| (id(k), w))
                .collect();
            prop_assert_eq!(
                total_flow(&schedule, &instance).to_bits(),
                total_flow_reference(&schedule, &instance).to_bits()
            );
            prop_assert_eq!(
                weighted_flow(&schedule, &instance, &weights).to_bits(),
                weighted_flow_reference(&schedule, &instance, &weights).to_bits()
            );
            prop_assert_eq!(
                max_flow(&schedule, &instance).to_bits(),
                max_flow_reference(&schedule, &instance).to_bits()
            );
            prop_assert_eq!(
                deadline_misses(&schedule, &instance, slo),
                deadline_misses_reference(&schedule, &instance, slo)
            );
        }
    }

    fn paper_setup() -> (Instance, Schedule) {
        // Figure-1 instance at E = 21: speeds 1, 2, √8.
        let inst = Instance::from_pairs(&[(0.0, 5.0), (5.0, 2.0), (6.0, 1.0)]).unwrap();
        let s3 = 8f64.sqrt();
        let sched = Schedule::from_slices(vec![
            Slice::new(0, 0.0, 5.0, 1.0),
            Slice::new(1, 5.0, 6.0, 2.0),
            Slice::new(2, 6.0, 6.0 + 1.0 / s3, s3),
        ]);
        (inst, sched)
    }

    #[test]
    fn energy_matches_paper_arithmetic() {
        let (_, sched) = paper_setup();
        // 5·1² + 2·2² + 1·(√8)² = 5 + 8 + 8 = 21.
        let e = energy(&sched, &PolyPower::CUBE);
        assert!((e - 21.0).abs() < 1e-9, "energy {e}");
    }

    #[test]
    fn makespan_matches_closed_form() {
        let (_, sched) = paper_setup();
        // M(21) = 6 + (21-13)^(-1/2).
        let want = 6.0 + 1.0 / 8f64.sqrt();
        assert!((makespan(&sched) - want).abs() < 1e-12);
    }

    #[test]
    fn flow_accounting() {
        let (inst, sched) = paper_setup();
        // Flows: J0: 5-0, J1: 6-5, J2: 6+1/√8-6.
        let want = 5.0 + 1.0 + 1.0 / 8f64.sqrt();
        assert!((total_flow(&sched, &inst) - want).abs() < 1e-12);
        assert!((max_flow(&sched, &inst) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_flow_defaults_to_unit_weights() {
        let (inst, sched) = paper_setup();
        let unweighted = total_flow(&sched, &inst);
        assert_eq!(weighted_flow(&sched, &inst, &HashMap::new()), unweighted);
        let mut weights = HashMap::new();
        weights.insert(0u32, 2.0);
        let wf = weighted_flow(&sched, &inst, &weights);
        assert!((wf - (unweighted + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn switch_counting() {
        let (_, sched) = paper_setup();
        assert_eq!(switch_count(&sched, 1e-9), 2); // 1→2→√8
        let constant = Schedule::from_slices(vec![
            Slice::new(0, 0.0, 1.0, 2.0),
            Slice::new(1, 1.0, 2.0, 2.0),
        ]);
        assert_eq!(switch_count(&constant, 1e-9), 0);
    }

    #[test]
    fn switch_overhead_inflates_makespan() {
        let (_, sched) = paper_setup();
        let m0 = makespan(&sched);
        let m = makespan_with_switch_overhead(&sched, 0.1, 1e-9);
        assert!((m - (m0 + 0.2)).abs() < 1e-12);
        assert_eq!(makespan_with_switch_overhead(&sched, 0.0, 1e-9), m0);
    }

    #[test]
    fn temperature_peaks_at_hot_slice() {
        let model = PolyPower::CUBE;
        // Slow then fast: peak after the fast slice.
        let sched = Schedule::from_slices(vec![
            Slice::new(0, 0.0, 10.0, 1.0),
            Slice::new(1, 10.0, 11.0, 3.0),
        ]);
        let peak = max_temperature(&sched, &model, 1.0, 1.0);
        // Asymptote during slice 1 is P=1; during slice 2 is P=27.
        assert!(peak > 1.0 && peak < 27.0, "peak {peak}");

        // With fast cooling, long exposure at P=1 nearly reaches 1.
        let slow_only = Schedule::from_slices(vec![Slice::new(0, 0.0, 50.0, 1.0)]);
        let p2 = max_temperature(&slow_only, &model, 1.0, 2.0);
        assert!((p2 - 0.5).abs() < 1e-6, "p2 {p2}"); // aP/b = 0.5
    }

    #[test]
    fn temperature_decays_over_idle_gap() {
        let model = PolyPower::CUBE;
        let gap = Schedule::from_slices(vec![
            Slice::new(0, 0.0, 10.0, 2.0),
            Slice::new(1, 100.0, 100.1, 2.0),
        ]);
        let no_gap = Schedule::from_slices(vec![
            Slice::new(0, 0.0, 10.0, 2.0),
            Slice::new(1, 10.0, 10.1, 2.0),
        ]);
        // Back-to-back slices keep heating (peak after the second slice);
        // with a long cool-down the peak is the end of the first slice.
        let p_gap = max_temperature(&gap, &model, 1.0, 0.5);
        let p_no = max_temperature(&no_gap, &model, 1.0, 0.5);
        assert!(p_gap < p_no, "gap {p_gap} vs no-gap {p_no}");
        // Closed form for the shared first slice: 16·(1 − e^{−5}).
        let after_first = 16.0 * (1.0 - (-5.0f64).exp());
        assert!((p_gap - after_first).abs() < 1e-9, "p_gap {p_gap}");
    }

    #[test]
    fn bundle_is_consistent() {
        let (inst, sched) = paper_setup();
        let m = metrics(&sched, &inst, &PolyPower::CUBE);
        assert_eq!(m.makespan, makespan(&sched));
        assert_eq!(m.total_flow, total_flow(&sched, &inst));
        assert_eq!(m.energy, energy(&sched, &PolyPower::CUBE));
        assert_eq!(m.switches, 2);
    }

    #[test]
    fn deadline_misses_count_late_and_missing_jobs() {
        let (inst, sched) = paper_setup();
        // Flows: 5, 1, 1/√8. A 2-unit SLO is missed only by job 0.
        assert_eq!(deadline_misses(&sched, &inst, 2.0), 1);
        assert_eq!(deadline_misses(&sched, &inst, 10.0), 0);
        // Drop job 2's slices: it becomes an automatic miss.
        let partial = Schedule::from_slices(vec![
            Slice::new(0, 0.0, 5.0, 1.0),
            Slice::new(1, 5.0, 6.0, 2.0),
        ]);
        assert_eq!(deadline_misses(&partial, &inst, 10.0), 1);
    }

    #[test]
    fn executed_work_sums_per_job_across_slices() {
        let sched = Schedule::from_slices(vec![
            Slice::new(0, 0.0, 1.0, 2.0),
            Slice::new(1, 1.0, 2.0, 1.0),
            Slice::new(0, 2.0, 3.0, 0.5),
        ]);
        let w = executed_work_by_job(&sched);
        assert!((w[&0] - 2.5).abs() < 1e-12);
        assert!((w[&1] - 1.0).abs() < 1e-12);
        assert_eq!(w.len(), 2);
    }
}
