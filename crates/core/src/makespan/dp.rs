//! The block-partition dynamic program sketched in §3.1 of the paper.
//!
//! "Using the first four properties, an O(n²)-time dynamic programming
//! algorithm can find the best way to divide the jobs into blocks."
//! This module implements that baseline: `O(n²)` states (prefix × block
//! start) with an `O(n)` feasibility scan per candidate block, i.e.
//! `O(n³)` worst case as implemented. It exists (a) as an independent
//! oracle for `IncMerge` in tests, and (b) as the slow comparator in the
//! scaling experiment (E4 in DESIGN.md's "Paper → code" table).
//!
//! Formulation: every non-final block `(i, j)` is *exact-fit* — it starts
//! at `r_i` and ends at `r_{j+1}` (Lemma 4, no idle) — so its energy is
//! fixed. `prefix_cost[j]` is the least energy scheduling jobs `0..j` as
//! exact-fit blocks with the last one ending at `r_j`. The final block
//! `(i, n-1)` takes whatever budget remains; its speed is capped by the
//! internal release times (a legal schedule may not start a job before
//! its release), which can leave budget unspent for some splits — those
//! splits are simply dominated.

use crate::error::CoreError;
use crate::makespan::blocks::{Block, BlockSchedule};
use pas_numeric::compare::is_positive_finite;
use pas_power::PowerModel;
use pas_workload::Instance;

/// Solve the laptop problem by dynamic programming over block partitions.
///
/// Produces the same schedule value as
/// [`incmerge::laptop`](crate::makespan::incmerge::laptop) (asserted by
/// the cross tests), two asymptotic classes slower.
///
/// # Errors
/// [`CoreError::InvalidBudget`] for non-positive budgets.
pub fn laptop_dp<M: PowerModel>(
    instance: &Instance,
    model: &M,
    budget: f64,
) -> Result<BlockSchedule, CoreError> {
    if !is_positive_finite(budget) {
        return Err(CoreError::InvalidBudget { budget });
    }
    let n = instance.len();

    // prefix_cost[j]: least energy to run jobs 0..j (exclusive) as
    // exact-fit blocks, the last ending exactly at r_j. Only defined when
    // the boundary j starts a block, i.e. we will start a new block at
    // job j. prefix_cost[0] = 0 (empty prefix).
    let mut prefix_cost = vec![f64::INFINITY; n];
    let mut prefix_split = vec![usize::MAX; n]; // block start chosen for boundary j
    prefix_cost[0] = 0.0;

    for j in 1..n {
        // Candidate: last prefix block is (i, j-1), ending at r_j.
        for i in (0..j).rev() {
            if prefix_cost[i].is_infinite() {
                continue;
            }
            let Some(speed) = exact_fit_speed(instance, i, j) else {
                continue; // zero-width window: infinite speed, dominated
            };
            if !block_is_legal(instance, i, j, speed) {
                continue;
            }
            let cost = prefix_cost[i] + model.energy(instance.work_range(i, j), speed);
            if cost < prefix_cost[j] {
                prefix_cost[j] = cost;
                prefix_split[j] = i;
            }
        }
    }

    // Final block (i, n-1): spend the remaining budget, capped by the
    // fastest legal speed for that block.
    let mut best: Option<(f64, usize, f64)> = None; // (makespan, split i, speed)
    for (i, &cost) in prefix_cost.iter().enumerate() {
        if cost.is_infinite() {
            continue;
        }
        let rem = budget - cost;
        if rem <= 0.0 {
            continue;
        }
        let work = instance.work_range(i, n);
        let Ok(mut speed) = model.speed_for_block(work, rem) else {
            continue;
        };
        if let Some(cap) = max_legal_speed(instance, i, n) {
            speed = speed.min(cap);
        }
        let makespan = instance.release(i) + work / speed;
        if best.is_none_or(|(m, _, _)| makespan < m) {
            best = Some((makespan, i, speed));
        }
    }

    let (_, split, speed) = best.ok_or(CoreError::UnreachableTarget {
        reason: "no feasible block partition within budget".to_string(),
    })?;

    // Reconstruct blocks by walking the split chain.
    let mut boundaries = vec![split];
    let mut b = split;
    while b != 0 {
        b = prefix_split[b];
        boundaries.push(b);
    }
    boundaries.reverse(); // block starts in increasing order
    let mut blocks = Vec::with_capacity(boundaries.len());
    for (k, &start_idx) in boundaries.iter().enumerate() {
        let end_idx = boundaries.get(k + 1).copied().unwrap_or(n);
        let blk_speed = if end_idx == n {
            speed
        } else {
            exact_fit_speed(instance, start_idx, end_idx).expect("legal split")
        };
        blocks.push(Block {
            first: start_idx,
            last: end_idx - 1,
            work: instance.work_range(start_idx, end_idx),
            start: instance.release(start_idx),
            speed: blk_speed,
        });
    }
    Ok(BlockSchedule::new(blocks))
}

/// Exact-fit speed of block `i..j` (jobs `i..=j-1`), `None` when the
/// window `[r_i, r_j)` is empty.
fn exact_fit_speed(instance: &Instance, i: usize, j: usize) -> Option<f64> {
    let d = instance.release(j) - instance.release(i);
    if d <= 0.0 {
        None
    } else {
        Some(instance.work_range(i, j) / d)
    }
}

/// A block `i..j` at `speed` is legal when every internal job starts at
/// or after its release.
fn block_is_legal(instance: &Instance, i: usize, j: usize, speed: f64) -> bool {
    let mut t = instance.release(i);
    for l in i..j {
        if t < instance.release(l) - 1e-9 {
            return false;
        }
        t += instance.work(l) / speed;
    }
    true
}

/// Fastest legal speed of block `i..j` (release constraints only),
/// `None` when unconstrained (all inner releases at the block start).
fn max_legal_speed(instance: &Instance, i: usize, j: usize) -> Option<f64> {
    let start = instance.release(i);
    let mut cap: Option<f64> = None;
    for l in (i + 1)..j {
        let lead = instance.release(l) - start;
        if lead > 0.0 {
            // Work before job l must take at least `lead` time.
            let c = instance.work_range(i, l) / lead;
            cap = Some(cap.map_or(c, |v: f64| v.min(c)));
        }
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::makespan::incmerge;
    use pas_power::PolyPower;
    use pas_workload::generators;

    fn paper_instance() -> Instance {
        Instance::from_pairs(&[(0.0, 5.0), (5.0, 2.0), (6.0, 1.0)]).unwrap()
    }

    #[test]
    fn matches_closed_form_on_paper_instance() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        for &e in &[6.0, 8.0, 12.0, 17.0, 21.0] {
            let dp = laptop_dp(&inst, &model, e).unwrap();
            let im = incmerge::laptop(&inst, &model, e).unwrap();
            assert!(
                (dp.makespan() - im.makespan()).abs() < 1e-9,
                "E={e}: dp {} vs incmerge {}",
                dp.makespan(),
                im.makespan()
            );
            dp.to_schedule(&inst).validate(&inst, 1e-7).unwrap();
        }
    }

    #[test]
    fn agrees_with_incmerge_on_random_instances() {
        let model = PolyPower::new(2.0);
        for seed in 0..25 {
            let inst = generators::uniform(12, 20.0, (0.2, 4.0), seed);
            for &e in &[1.0, 5.0, 20.0, 80.0] {
                let dp = laptop_dp(&inst, &model, e).unwrap().makespan();
                let im = incmerge::laptop(&inst, &model, e).unwrap().makespan();
                assert!(
                    (dp - im).abs() < 1e-6 * dp.max(1.0),
                    "seed {seed} E={e}: dp {dp} vs incmerge {im}"
                );
            }
        }
    }

    #[test]
    fn agrees_on_simultaneous_releases() {
        let model = PolyPower::CUBE;
        let inst = Instance::from_pairs(&[(0.0, 1.0), (0.0, 2.0), (3.0, 1.0)]).unwrap();
        for &e in &[0.5, 2.0, 10.0, 50.0] {
            let dp = laptop_dp(&inst, &model, e).unwrap().makespan();
            let im = incmerge::laptop(&inst, &model, e).unwrap().makespan();
            assert!((dp - im).abs() < 1e-7 * dp.max(1.0), "E={e}");
        }
    }

    #[test]
    fn rejects_bad_budget() {
        assert!(laptop_dp(&paper_instance(), &PolyPower::CUBE, 0.0).is_err());
        assert!(laptop_dp(&paper_instance(), &PolyPower::CUBE, -5.0).is_err());
    }

    #[test]
    fn single_job_dp() {
        let inst = Instance::from_pairs(&[(1.0, 2.0)]).unwrap();
        let model = PolyPower::CUBE;
        let dp = laptop_dp(&inst, &model, 8.0).unwrap();
        // w·σ² = 8 -> σ = 2 -> M = 1 + 1 = 2.
        assert!((dp.makespan() - 2.0).abs() < 1e-12);
    }
}
