//! `IncMerge`: the paper's linear-time algorithm for the uniprocessor
//! makespan laptop problem (§3.1), plus the server-problem variant.
//!
//! The algorithm maintains a tentative list of blocks. Jobs are added in
//! release order, each starting as its own block; while the last block
//! runs *slower* than its predecessor the two are merged. Non-final
//! blocks have their speed forced by exact fit — block `(i, j)` runs at
//! `W_{i..j} / (r_{j+1} − r_i)` because optimal schedules are never idle
//! (Lemma 4) — while the final block's speed is chosen to spend exactly
//! the remaining energy budget. Each job ceases to be the head of a block
//! at most once, so the whole run is `O(n)` after sorting.
//!
//! The run splits in two phases. Phase 1 (`exact_fit_stack`) merges the
//! exact-fit blocks of every job but the last; it is shared with
//! [`Frontier::build`](crate::makespan::frontier::Frontier::build) and,
//! with the deadline as the final window end, is the whole of
//! [`server`]. Phase 2 of [`laptop`] pops survivors into the
//! budget-driven final block, reading the energy left for it from a
//! prefix sum of the survivors' energies computed once
//! (`prefix_energies`), so the laptop makespan equals the frontier's
//! closed form at the same budget, bit for bit away from a budget that
//! lands on a configuration change.

use crate::error::CoreError;
use crate::makespan::blocks::{Block, BlockSchedule};
use pas_numeric::compare::is_positive_finite;
use pas_power::PowerModel;
use pas_workload::Instance;

/// Exact-fit speed of `work` over `[start, end]` (`inf` when the window
/// is empty — simultaneous releases; such a block merges immediately).
fn exact_fit_speed(work: f64, start: f64, end: f64) -> f64 {
    let d = end - start;
    if d <= 0.0 {
        f64::INFINITY
    } else {
        work / d
    }
}

/// Phase 1 of `IncMerge`: jobs `0..jobs` as exact-fit blocks, job `k`'s
/// window ending at the release of job `k + 1` (at `end` for the last
/// of them), each merged leftward while it runs slower than its
/// predecessor. Returns the surviving blocks, speeds non-decreasing.
pub(crate) fn exact_fit_stack(instance: &Instance, jobs: usize, end: f64) -> Vec<Block> {
    let mut stack: Vec<Block> = Vec::with_capacity(jobs);
    for k in 0..jobs {
        let window_end = if k + 1 < jobs {
            instance.release(k + 1)
        } else {
            end
        };
        let (work, start) = (instance.work(k), instance.release(k));
        let mut top = Block {
            first: k,
            last: k,
            work,
            start,
            speed: exact_fit_speed(work, start, window_end),
        };
        while let Some(&prev) = stack.last() {
            if top.speed >= prev.speed {
                break;
            }
            stack.pop();
            top.first = prev.first;
            top.work += prev.work;
            top.start = prev.start;
            top.speed = exact_fit_speed(top.work, top.start, window_end);
        }
        stack.push(top);
    }
    // Few blocks survive; hand back no more memory than they need.
    stack.shrink_to_fit();
    stack
}

/// `prefix[k]` = the energy of `blocks[..k]`, summed once. A non-finite
/// block energy (an empty window's infinite speed) makes that prefix and
/// every later one infinite, so budget arithmetic never meets `inf − inf`.
pub(crate) fn prefix_energies<M: PowerModel>(blocks: &[Block], model: &M) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(blocks.len() + 1);
    let mut acc = 0.0;
    prefix.push(acc);
    for b in blocks {
        let e = model.energy(b.work, b.speed);
        acc = if e.is_finite() {
            acc + e
        } else {
            f64::INFINITY
        };
        prefix.push(acc);
    }
    prefix
}

/// Solve the **laptop problem**: minimize makespan subject to total
/// energy at most `budget` (the optimum always uses the whole budget).
///
/// Runs in `O(n)` after the instance's release sort. The result satisfies
/// the five structural properties of Lemma 7 and is therefore *the*
/// optimal schedule.
///
/// # Errors
/// [`CoreError::InvalidBudget`] for non-positive budgets and
/// [`CoreError::Power`] if the model cannot realize the final block's
/// energy rate (e.g. a [`pas_power::BoundedPower`] out of range).
pub fn laptop<M: PowerModel>(
    instance: &Instance,
    model: &M,
    budget: f64,
) -> Result<BlockSchedule, CoreError> {
    if !is_positive_finite(budget) {
        return Err(CoreError::InvalidBudget { budget });
    }
    let n = instance.len();
    let mut blocks = exact_fit_stack(instance, n - 1, instance.release(n - 1));
    let prefix = prefix_energies(&blocks, model);

    // Phase 2: the final job; speed balanced against the energy budget.
    let mut fin = Block {
        first: n - 1,
        last: n - 1,
        work: instance.work(n - 1),
        start: instance.release(n - 1),
        speed: f64::NAN,
    };
    loop {
        let rem = budget - prefix[blocks.len()];
        let speed = if rem > 0.0 {
            Some(model.speed_for_block(fin.work, rem)?)
        } else {
            None // over budget: must absorb the predecessor
        };
        match blocks.last() {
            Some(pred) if speed.is_none_or(|s| s < pred.speed) => {
                fin.first = pred.first;
                fin.work += pred.work;
                fin.start = pred.start;
                blocks.pop();
            }
            _ => {
                fin.speed = speed.expect("no predecessor left implies rem > 0");
                blocks.push(fin);
                return Ok(BlockSchedule::new(blocks));
            }
        }
    }
}

/// Solve the **server problem**: minimize energy subject to completing
/// all jobs by `deadline`.
///
/// Implemented as `IncMerge`'s phase 1 with the deadline acting as a
/// sentinel release after the last job, making *every* block exact-fit.
/// The optimal blocks do not depend on the (convex) power model; it is
/// taken for symmetry with [`laptop`]. Linear time; compare with the
/// quadratic [`moveright`](crate::makespan::moveright) baseline.
///
/// # Errors
/// [`CoreError::UnreachableTarget`] when `deadline` is not strictly after
/// the last release (no finite speed can help).
pub fn server<M: PowerModel>(
    instance: &Instance,
    _model: &M,
    deadline: f64,
) -> Result<BlockSchedule, CoreError> {
    if !pas_numeric::compare::strictly_exceeds(deadline, instance.last_release()) {
        return Err(CoreError::UnreachableTarget {
            reason: format!(
                "deadline {deadline} is not after the last release {}",
                instance.last_release()
            ),
        });
    }
    Ok(BlockSchedule::new(exact_fit_stack(
        instance,
        instance.len(),
        deadline,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_power::PolyPower;

    fn paper_instance() -> Instance {
        Instance::from_pairs(&[(0.0, 5.0), (5.0, 2.0), (6.0, 1.0)]).unwrap()
    }

    /// Closed-form makespan of the paper's instance (its Figure 1; the
    /// same curve as `oracle_makespan` in `tests/figure_oracles.rs`):
    /// three configurations split at E = 8 and E = 17.
    fn paper_makespan(e: f64) -> f64 {
        if e >= 17.0 {
            6.0 + (e - 13.0).powf(-0.5)
        } else if e >= 8.0 {
            5.0 + 3.0 * 3f64.sqrt() * (e - 5.0).powf(-0.5)
        } else {
            8f64.powf(1.5) * e.powf(-0.5)
        }
    }

    #[test]
    fn matches_paper_closed_form_across_configurations() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        for &e in &[6.0, 7.0, 8.0, 9.5, 12.0, 16.0, 17.0, 18.5, 21.0, 100.0] {
            let sol = laptop(&inst, &model, e).unwrap();
            let want = paper_makespan(e);
            assert!(
                (sol.makespan() - want).abs() < 1e-9,
                "E={e}: got {} want {want}",
                sol.makespan()
            );
            // The optimum uses the entire budget.
            assert!((sol.energy(&model) - e).abs() < 1e-7 * e);
            sol.verify_structure(&inst, 1e-9).unwrap();
            sol.to_schedule(&inst).validate(&inst, 1e-7).unwrap();
        }
    }

    #[test]
    fn configurations_match_paper_breakpoints() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        // E > 17: three blocks.
        assert_eq!(laptop(&inst, &model, 18.0).unwrap().blocks().len(), 3);
        // 8 < E < 17: two blocks ({J1}, {J2,J3}).
        let mid = laptop(&inst, &model, 12.0).unwrap();
        assert_eq!(mid.blocks().len(), 2);
        assert_eq!(mid.blocks()[1].first, 1);
        // E < 8: one block.
        assert_eq!(laptop(&inst, &model, 6.0).unwrap().blocks().len(), 1);
    }

    #[test]
    fn single_job() {
        let inst = Instance::from_pairs(&[(2.0, 4.0)]).unwrap();
        let model = PolyPower::CUBE;
        let sol = laptop(&inst, &model, 16.0).unwrap();
        // w·σ² = 16 -> σ = 2; makespan 2 + 4/2 = 4.
        assert_eq!(sol.blocks().len(), 1);
        assert!((sol.blocks()[0].speed - 2.0).abs() < 1e-12);
        assert!((sol.makespan() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn simultaneous_releases_merge() {
        let inst = Instance::from_pairs(&[(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]).unwrap();
        let model = PolyPower::CUBE;
        let sol = laptop(&inst, &model, 6.0).unwrap();
        // All jobs in one block: work 6, energy 6 -> σ = 1, makespan 6.
        assert_eq!(sol.blocks().len(), 1);
        assert!((sol.makespan() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_budget() {
        let inst = paper_instance();
        assert!(matches!(
            laptop(&inst, &PolyPower::CUBE, 0.0),
            Err(CoreError::InvalidBudget { .. })
        ));
        assert!(laptop(&inst, &PolyPower::CUBE, -3.0).is_err());
        assert!(laptop(&inst, &PolyPower::CUBE, f64::INFINITY).is_err());
    }

    #[test]
    fn tiny_budget_gives_single_slow_block() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        let sol = laptop(&inst, &model, 1e-6).unwrap();
        assert_eq!(sol.blocks().len(), 1);
        // Single block: M = 8^{3/2}·E^{-1/2}.
        assert!((sol.makespan() - paper_makespan(1e-6)).abs() < 1e-3);
    }

    #[test]
    fn makespan_decreases_with_budget() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        let mut prev = f64::INFINITY;
        for k in 1..60 {
            let e = 0.5 * k as f64;
            let m = laptop(&inst, &model, e).unwrap().makespan();
            assert!(m < prev, "E={e}: {m} !< {prev}");
            prev = m;
        }
    }

    #[test]
    fn server_exact_fit() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        // Deadline 6.5 = the E=17 breakpoint: energy must be 17.
        let sol = server(&inst, &model, 6.5).unwrap();
        assert!((sol.makespan() - 6.5).abs() < 1e-12);
        assert!((sol.energy(&model) - 17.0).abs() < 1e-9);
        sol.verify_structure(&inst, 1e-9).unwrap();
    }

    #[test]
    fn server_laptop_duality() {
        // server(laptop(E).makespan) spends exactly E, and vice versa.
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        for &e in &[6.5, 9.0, 14.0, 19.0, 30.0] {
            let lap = laptop(&inst, &model, e).unwrap();
            let srv = server(&inst, &model, lap.makespan()).unwrap();
            assert!(
                (srv.energy(&model) - e).abs() < 1e-7 * e,
                "E={e}: round trip gave {}",
                srv.energy(&model)
            );
        }
    }

    #[test]
    fn server_rejects_impossible_deadline() {
        let inst = paper_instance();
        assert!(matches!(
            server(&inst, &PolyPower::CUBE, 6.0),
            Err(CoreError::UnreachableTarget { .. })
        ));
        assert!(server(&inst, &PolyPower::CUBE, 5.0).is_err());
    }

    #[test]
    fn works_with_general_convex_power() {
        // ExpPower (wireless): same algorithm, numeric inverse path.
        let inst = paper_instance();
        let model = pas_power::ExpPower::shannon();
        let sol = laptop(&inst, &model, 30.0).unwrap();
        sol.verify_structure(&inst, 1e-9).unwrap();
        assert!((sol.energy(&model) - 30.0).abs() < 1e-6);
        // More energy, better makespan.
        let faster = laptop(&inst, &model, 60.0).unwrap();
        assert!(faster.makespan() < sol.makespan());
    }

    #[test]
    fn staircase_merges_into_one_block_under_tight_budget() {
        let inst = pas_workload::generators::staircase(12, 1.0);
        let model = PolyPower::CUBE;
        let sol = laptop(&inst, &model, 1e-4).unwrap();
        assert_eq!(sol.blocks().len(), 1);
        sol.verify_structure(&inst, 1e-9).unwrap();
    }
}
