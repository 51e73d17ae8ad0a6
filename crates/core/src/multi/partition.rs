//! Theorem 11: NP-hardness of multiprocessor makespan with unequal work,
//! by reduction from Partition — plus the exact solvers and heuristics
//! that make the reduction executable and the §5 PTAS remark concrete.
//!
//! With all jobs released at time 0, a processor's optimal schedule runs
//! its whole load `L_p` as one block from time 0 (Lemmas 2–5 collapse),
//! so at common finish time `T` its speed is `L_p/T` and — for
//! `P = σ^α` — its energy is `L_p^α·T^{1−α}`. Hence the minimum energy
//! for makespan `T` is `‖L‖_α^α · T^{1−α}`: **minimizing makespan under
//! an energy budget is exactly minimizing the `L_α` norm of the loads**,
//! which is the connection to Alon et al.'s load-balancing PTAS that the
//! paper points out. The reduction: a Partition instance with total `B`
//! has a perfect split iff two processors can reach makespan `B/2` with
//! energy budget `B` (all speeds 1), because
//! `Σ L_p^α ≥ 2·(B/2)^α` with equality only at `L_1 = L_2 = B/2`
//! (strict convexity).

use crate::budget::{BudgetGate, Budgeted, Degradation, SolveBudget};
use crate::error::CoreError;
use pas_numeric::SortedLoads;
use pas_power::PowerModel;
use pas_workload::{Instance, Job};

/// The scheduling instance produced by the Theorem-11 reduction.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Jobs: one per Partition value, all released at 0.
    pub instance: Instance,
    /// Two processors, as in the paper's proof.
    pub machines: usize,
    /// Makespan to ask about: `B/2`.
    pub makespan_target: f64,
    /// Energy budget: enough to run total work `B` at speed 1.
    pub energy_budget: f64,
}

/// Build the Theorem-11 reduction from a Partition multiset.
///
/// # Errors
/// [`CoreError::Instance`] if `values` is empty or contains zeros.
pub fn reduce<M: PowerModel>(values: &[u64], model: &M) -> Result<Reduction, CoreError> {
    let jobs: Vec<Job> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| Job::new(i as u32, 0.0, v as f64))
        .collect();
    let instance = Instance::new(jobs)?;
    let b: f64 = values.iter().map(|&v| v as f64).sum();
    Ok(Reduction {
        instance,
        machines: 2,
        makespan_target: b / 2.0,
        energy_budget: b * model.energy_per_work(1.0),
    })
}

/// Exact Partition decision (and witness) via pseudo-polynomial
/// subset-sum DP. Returns the indices of one half when a perfect
/// partition exists.
pub fn partition_witness(values: &[u64]) -> Option<Vec<usize>> {
    let total: u64 = values.iter().sum();
    if !total.is_multiple_of(2) {
        return None;
    }
    let half = (total / 2) as usize;
    // reach[s] = index of the item that first reached sum s (usize::MAX
    // for "unreached"; items are processed once, so walking parents
    // terminates).
    const UNREACHED: usize = usize::MAX;
    let mut reach = vec![UNREACHED; half + 1];
    reach[0] = values.len(); // sentinel parent for sum 0
    for (idx, &v) in values.iter().enumerate() {
        let v = v as usize;
        if v > half {
            continue;
        }
        // Descend so each item is used at most once.
        for s in (v..=half).rev() {
            if reach[s] == UNREACHED && reach[s - v] != UNREACHED && reach[s - v] != idx {
                reach[s] = idx;
            }
        }
    }
    if reach[half] == UNREACHED {
        return None;
    }
    // Walk parents to reconstruct the chosen indices.
    let mut out = Vec::new();
    let mut s = half;
    while s > 0 {
        let idx = reach[s];
        out.push(idx);
        s -= values[idx] as usize;
    }
    out.reverse();
    Some(out)
}

/// Minimum makespan on `m` processors for jobs all released at 0 with
/// loads `works`, energy budget `budget`, under `P = σ^α`:
/// `T = (Σ L_p^α / E)^{1/(α−1)}` for the best assignment.
///
/// `assignment_loads` are the per-processor load sums.
pub fn makespan_for_loads(loads: &[f64], alpha: f64, budget: f64) -> f64 {
    let norm: f64 = loads.iter().map(|l| l.powf(alpha)).sum();
    (norm / budget).powf(1.0 / (alpha - 1.0))
}

/// Exact minimum of `Σ L_p^α` over all assignments of `works` to `m`
/// processors, by **incremental** branch and bound. Returns the per-job
/// processor labels and the optimal norm.
///
/// The search keeps its state in a [`SortedLoads`] (`pas-numeric`): the
/// per-processor loads stay sorted under `O(shift)` rotations per
/// push/pop, and the divisible-relaxation waterfill lower bound is a
/// lazy prefix refresh plus a binary search plus a single `powf` —
/// instead of the full re-sort and `m`-`powf` re-scan per node that
/// [`min_norm_assignment_reference`] (the seed engine, kept as the
/// equivalence oracle) pays. Four further structural savings:
///
/// * the incumbent is **seeded** with [`lpt_assignment`] refined by
///   [`local_search`], so pruning bites from the first node;
/// * symmetry breaking skips every processor whose load *equals* an
///   already-tried one (the seed engine only collapsed empty
///   processors), which also subsumes the `m > n` case;
/// * **identical-job dominance**: a job equal to its predecessor only
///   goes to a processor at least as loaded as the predecessor's was
///   before it. Sound by a swap argument: placing a run of identical
///   jobs greedily (least-loaded processor with quota left) gives
///   nondecreasing pre-loads and the same final loads, so each load
///   multiset keeps one ordering instead of one per permutation;
/// * the last job goes straight to the least-loaded processor — by
///   convexity that placement is optimal for the leaf's parent.
///
/// Exponential worst case — this is the NP-hard side of Theorem 11 —
/// but the incremental state and seeded incumbent put `n ≈ 30–40`,
/// `m ≈ 4–8` within reach (see `BENCH_multi.json`), where the seed
/// engine handled `n ≤ ~24`. Callers with a latency obligation should
/// use [`min_norm_assignment_budgeted`], which this function *is* (with
/// an unlimited budget), so the two paths cannot diverge.
///
/// # Panics
/// If `m == 0`, or if a work is not finite and `≥ 0` (a NaN work would
/// make every bound NaN, so nothing would ever be pruned).
pub fn min_norm_assignment(works: &[f64], m: usize, alpha: f64) -> (Vec<usize>, f64) {
    min_norm_assignment_budgeted(works, m, alpha, &SolveBudget::UNLIMITED).into_value()
}

/// [`min_norm_assignment`] under a [`SolveBudget`]: on exhaustion the
/// best incumbent is returned as [`Budgeted::Degraded`] together with a
/// **certified** optimality gap (the true optimum provably lies in
/// `[lower_bound, value.1]`; the bound is the minimum over the
/// incumbent and every abandoned subtree's divisible-relaxation
/// waterfill, which never exceeds the subtree's true optimum).
///
/// Degradation edges: a zero budget returns the LPT + local-search seed
/// immediately (with the root relaxation as its bound); an unlimited
/// budget is **bit-identical** to [`min_norm_assignment`] — the gate
/// only counts nodes, it never touches the search's float state or
/// branch order.
///
/// # Panics
/// If `m == 0`, or if a work is not finite and `≥ 0`.
pub fn min_norm_assignment_budgeted(
    works: &[f64],
    m: usize,
    alpha: f64,
    budget: &SolveBudget,
) -> Budgeted<(Vec<usize>, f64)> {
    assert!(m > 0, "need at least one processor");
    assert!(
        works.iter().all(|w| w.is_finite() && *w >= 0.0),
        "works must be finite and non-negative"
    );
    let n = works.len();
    if n == 0 {
        return Budgeted::Exact((Vec::new(), 0.0));
    }
    let core = SearchCore::new(works, m, alpha);
    let (best_labels, best) = core.seed_incumbent();
    let mut search = Search {
        loads: SortedLoads::new(m, alpha),
        labels: vec![0; n],
        best,
        best_labels,
        gate: BudgetGate::new(budget),
        core,
    };
    search.descend(0, f64::NEG_INFINITY, &mut vec![0; n * m]);
    let (best, gate) = (search.best, &search.gate);
    let value = (search.core.unsort_labels(&search.best_labels), best);
    if gate.exhausted() {
        let lower_bound = best.min(gate.min_abandoned());
        Budgeted::Degraded(Degradation {
            bound_gap: best - lower_bound,
            lower_bound,
            value,
            nodes: gate.nodes(),
            elapsed: gate.elapsed(),
        })
    } else {
        Budgeted::Exact(value)
    }
}

/// Immutable state of one `L_α`-norm branch-and-bound run: the jobs
/// sorted descending, their suffix sums, and the mapping back to the
/// caller's job order.
struct SearchCore {
    /// Job works, descending (classic B&B ordering).
    sorted: Vec<f64>,
    /// `suffix[k]` = total work of jobs `k..`.
    suffix: Vec<f64>,
    /// `order[pos]` = original index of the job at sorted position `pos`.
    order: Vec<usize>,
    /// Processor count.
    m: usize,
    /// Norm exponent.
    alpha: f64,
}

impl SearchCore {
    fn new(works: &[f64], m: usize, alpha: f64) -> Self {
        let n = works.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| works[b].total_cmp(&works[a]));
        let sorted: Vec<f64> = order.iter().map(|&i| works[i]).collect();
        let mut suffix = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix[i] = suffix[i + 1] + sorted[i];
        }
        SearchCore {
            sorted,
            suffix,
            order,
            m,
            alpha,
        }
    }

    /// LPT + local search on the sorted works: the incumbent seed. The
    /// norm is recomputed fresh from the seed's loads (not the local
    /// search's running delta sum) so the pruning threshold is never
    /// below what the seed labelling actually realizes.
    fn seed_incumbent(&self) -> (Vec<usize>, f64) {
        let (lpt_labels, _) = lpt_assignment(&self.sorted, self.m, self.alpha);
        let (labels, _) = local_search(&self.sorted, self.m, self.alpha, lpt_labels);
        let mut loads = vec![0.0f64; self.m];
        for (i, &p) in labels.iter().enumerate() {
            loads[p] += self.sorted[i];
        }
        let norm = loads.iter().map(|l| l.powf(self.alpha)).sum();
        (labels, norm)
    }

    /// The processors job `k` branches onto, written to `cands` (length
    /// ≥ `m`); returns how many. One processor per equal-load run, in
    /// ascending load order: equal-load processors are interchangeable
    /// for the remaining subproblem (it depends only on the load
    /// multiset and the floor), so trying one per run preserves an
    /// optimal leaf, and ascending order finds strong incumbents early.
    ///
    /// Identical-job dominance: when job `k` equals job `k − 1` bit for
    /// bit, processors loaded below `floor` — the load job `k − 1`'s
    /// processor had before it — are skipped (see
    /// [`min_norm_assignment`]).
    fn candidates(&self, st: &SortedLoads, k: usize, floor: f64, cands: &mut [usize]) -> usize {
        let floor = if k > 0 && self.sorted[k].to_bits() == self.sorted[k - 1].to_bits() {
            floor
        } else {
            f64::NEG_INFINITY
        };
        let mut count = 0usize;
        let mut prev = f64::NAN;
        for pos in 0..self.m {
            let slot = st.slot_at(pos);
            let load = st.load(slot);
            if load < floor || (count > 0 && load.total_cmp(&prev).is_eq()) {
                continue;
            }
            cands[count] = slot;
            count += 1;
            prev = load;
        }
        count
    }

    /// Map sorted-position labels back to the caller's job order.
    fn unsort_labels(&self, labels: &[usize]) -> Vec<usize> {
        let mut out = vec![0usize; labels.len()];
        for (pos, &orig) in self.order.iter().enumerate() {
            out[orig] = labels[pos];
        }
        out
    }
}

/// Mutable state of one branch-and-bound run: the committed loads and
/// labels of the current path, the incumbent, and the budget gate.
struct Search {
    core: SearchCore,
    loads: SortedLoads,
    labels: Vec<usize>,
    best: f64,
    best_labels: Vec<usize>,
    gate: BudgetGate,
}

impl Search {
    /// A complete labelling realizing `norm` was found.
    fn offer(&mut self, norm: f64) {
        if norm < self.best {
            self.best = norm;
            self.best_labels.copy_from_slice(&self.labels);
        }
    }

    /// Explore the subtree with jobs `k..` unassigned. `loads` holds the
    /// loads committed by jobs `..k` (already labelled in `labels[..k]`);
    /// `floor` is the load job `k − 1`'s processor had *before* job
    /// `k − 1` joined it (`f64::NEG_INFINITY` at the root); if job `k`
    /// equals job `k − 1`, it only branches onto processors loaded at
    /// least `floor` ([`SearchCore::candidates`]). `scratch` is a
    /// preallocated `(n − k) · m` candidate buffer, so the hot path
    /// never allocates. The prune check runs *first* (so the gate never
    /// alters which nodes an exact run visits), then the gate ticks; on
    /// exhaustion the subtree's relaxation bound is recorded so the
    /// caller can certify its incumbent's gap.
    fn descend(&mut self, k: usize, floor: f64, scratch: &mut [usize]) {
        let bound = self.loads.waterfill_bound(self.core.suffix[k]);
        if bound >= self.best {
            return;
        }
        if !self.gate.tick() {
            self.gate.abandon(bound);
            return;
        }
        let n = self.core.sorted.len();
        if k == n {
            let norm = self.loads.total_pow();
            self.offer(norm);
            return;
        }
        let w = self.core.sorted[k];
        if k + 1 == n {
            // Last job: the least-loaded processor minimizes the convex
            // increment (l + w)^α − l^α, so no branching is needed.
            let p = self.loads.slot_at(0);
            let saved = self.loads.raise(p, self.loads.load(p) + w);
            self.labels[k] = p;
            let norm = self.loads.total_pow();
            self.offer(norm);
            self.loads.lower_to(p, saved);
            return;
        }
        // Snapshot the branch candidates before mutating.
        let (cands, rest) = scratch.split_at_mut(self.core.m);
        let count = self.core.candidates(&self.loads, k, floor, cands);
        for &p in &cands[..count] {
            let saved = self.loads.raise(p, self.loads.load(p) + w);
            self.labels[k] = p;
            self.descend(k + 1, saved.0, rest);
            self.loads.lower_to(p, saved);
        }
    }
}

/// The seed branch and bound, kept verbatim as the equivalence oracle
/// for [`min_norm_assignment`] (the same engine-vs-reference convention
/// as `yds_reference` and `solve_for_u_reference`): re-sorts and
/// re-scans the loads at every node, collapses only *empty* processors
/// under symmetry breaking, and starts from an infinite incumbent.
///
/// Exponential worst case; fine for the `n ≤ ~24` instances the
/// original experiments used.
pub fn min_norm_assignment_reference(works: &[f64], m: usize, alpha: f64) -> (Vec<usize>, f64) {
    assert!(m > 0, "need at least one processor");
    let n = works.len();
    // Sort jobs descending (classic B&B ordering), remember positions.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| works[b].total_cmp(&works[a]));
    let sorted: Vec<f64> = order.iter().map(|&i| works[i]).collect();
    let suffix_work: Vec<f64> = {
        let mut s = vec![0.0; n + 1];
        for i in (0..n).rev() {
            s[i] = s[i + 1] + sorted[i];
        }
        s
    };

    let mut best_norm = f64::INFINITY;
    let mut best_labels = vec![0usize; n];
    let mut loads = vec![0.0f64; m];
    let mut labels = vec![0usize; n];

    // Lower bound: water-fill the remaining work (divisible relaxation)
    // onto the lowest committed loads — by convexity this is the least
    // possible final norm, so it never prunes the true optimum.
    fn bound(loads: &[f64], rest: f64, alpha: f64) -> f64 {
        let mut ls = loads.to_vec();
        ls.sort_by(|a, b| a.total_cmp(b));
        let m = ls.len();
        let mut r = rest;
        let mut level = ls[0];
        let mut k = 1usize; // processors currently at `level`
        while k < m && r > 0.0 {
            let need = (ls[k] - level) * k as f64;
            if need <= r {
                r -= need;
                level = ls[k];
                k += 1;
            } else {
                level += r / k as f64;
                r = 0.0;
            }
        }
        if r > 0.0 {
            level += r / m as f64;
        }
        ls.iter().map(|&l| l.max(level).powf(alpha)).sum()
    }

    #[allow(clippy::too_many_arguments)] // inner recursion carries its whole state explicitly
    fn recurse(
        k: usize,
        sorted: &[f64],
        suffix: &[f64],
        loads: &mut [f64],
        labels: &mut [usize],
        best_norm: &mut f64,
        best_labels: &mut [usize],
        alpha: f64,
    ) {
        if bound(loads, suffix[k], alpha) >= *best_norm {
            return;
        }
        if k == sorted.len() {
            let norm: f64 = loads.iter().map(|l| l.powf(alpha)).sum();
            if norm < *best_norm {
                *best_norm = norm;
                best_labels.copy_from_slice(labels);
            }
            return;
        }
        // Symmetry breaking: only try processors up to the first empty one.
        let mut tried_empty = false;
        for p in 0..loads.len() {
            if loads[p] == 0.0 {
                if tried_empty {
                    continue;
                }
                tried_empty = true;
            }
            loads[p] += sorted[k];
            labels[k] = p;
            recurse(
                k + 1,
                sorted,
                suffix,
                loads,
                labels,
                best_norm,
                best_labels,
                alpha,
            );
            loads[p] -= sorted[k];
        }
    }

    recurse(
        0,
        &sorted,
        &suffix_work,
        &mut loads,
        &mut labels,
        &mut best_norm,
        &mut best_labels,
        alpha,
    );

    // Map labels back to the original job order.
    let mut out = vec![0usize; n];
    for (pos, &orig) in order.iter().enumerate() {
        out[orig] = best_labels[pos];
    }
    (out, best_norm)
}

/// LPT-style greedy for the `L_α` norm: jobs descending, each to the
/// processor where it increases `Σ L^α` the least.
pub fn lpt_assignment(works: &[f64], m: usize, alpha: f64) -> (Vec<usize>, f64) {
    assert!(m > 0, "need at least one processor");
    let n = works.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| works[b].total_cmp(&works[a]));
    let mut loads = vec![0.0f64; m];
    let mut labels = vec![0usize; n];
    for &i in &order {
        let (p, _) = loads
            .iter()
            .enumerate()
            .map(|(p, &l)| (p, (l + works[i]).powf(alpha) - l.powf(alpha)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("m > 0");
        labels[i] = p;
        loads[p] += works[i];
    }
    let norm = loads.iter().map(|l| l.powf(alpha)).sum();
    (labels, norm)
}

/// Local search refinement: single-job moves and pairwise swaps until no
/// improvement. Returns the improved labels and norm.
pub fn local_search(
    works: &[f64],
    m: usize,
    alpha: f64,
    mut labels: Vec<usize>,
) -> (Vec<usize>, f64) {
    let n = works.len();
    let mut loads = vec![0.0f64; m];
    for i in 0..n {
        loads[labels[i]] += works[i];
    }
    let norm = |loads: &[f64]| -> f64 { loads.iter().map(|l| l.powf(alpha)).sum() };
    let mut current = norm(&loads);
    loop {
        let mut improved = false;
        // Single moves.
        for i in 0..n {
            let from = labels[i];
            for to in 0..m {
                if to == from {
                    continue;
                }
                let delta = (loads[to] + works[i]).powf(alpha) - loads[to].powf(alpha)
                    + (loads[from] - works[i]).powf(alpha)
                    - loads[from].powf(alpha);
                if delta < -1e-12 {
                    loads[from] -= works[i];
                    loads[to] += works[i];
                    labels[i] = to;
                    current += delta;
                    improved = true;
                }
            }
        }
        // Pairwise swaps.
        for i in 0..n {
            for j in (i + 1)..n {
                let (pi, pj) = (labels[i], labels[j]);
                if pi == pj {
                    continue;
                }
                let before = loads[pi].powf(alpha) + loads[pj].powf(alpha);
                let li = loads[pi] - works[i] + works[j];
                let lj = loads[pj] - works[j] + works[i];
                let after = li.powf(alpha) + lj.powf(alpha);
                if after < before - 1e-12 {
                    loads[pi] = li;
                    loads[pj] = lj;
                    labels.swap(i, j);
                    current += after - before;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    (labels, current)
}

/// Decide the Theorem-11 question *by scheduling*: is there a 2-processor
/// schedule of the reduced instance with makespan ≤ `B/2` under energy
/// budget `B`? Uses the exact branch and bound.
pub fn schedule_decides_partition(values: &[u64], alpha: f64) -> bool {
    let works: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let b: f64 = works.iter().sum();
    let (_, norm) = min_norm_assignment(&works, 2, alpha);
    let t = makespan_for_loads_from_norm(norm, alpha, b);
    t <= b / 2.0 + 1e-9 * b.max(1.0)
}

fn makespan_for_loads_from_norm(norm: f64, alpha: f64, budget: f64) -> f64 {
    (norm / budget).powf(1.0 / (alpha - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_power::PolyPower;
    use pas_workload::generators;

    #[test]
    fn reduction_fields() {
        let r = reduce(&[3, 1, 2, 2], &PolyPower::CUBE).unwrap();
        assert_eq!(r.machines, 2);
        assert_eq!(r.makespan_target, 4.0);
        assert_eq!(r.energy_budget, 8.0); // B·g(1) = 8·1
        assert!(r.instance.all_released_immediately(0.0));
    }

    #[test]
    fn partition_witness_yes_cases() {
        for values in [vec![1u64, 1], vec![3, 1, 2, 2], vec![5, 5, 4, 3, 2, 1]] {
            let w = partition_witness(&values).expect("partition exists");
            let half: u64 = w.iter().map(|&i| values[i]).sum();
            let total: u64 = values.iter().sum();
            assert_eq!(half * 2, total, "{values:?} -> {w:?}");
        }
    }

    #[test]
    fn partition_witness_no_cases() {
        assert!(partition_witness(&[1, 2]).is_none());
        assert!(partition_witness(&[1, 1, 1]).is_none()); // odd total
        assert!(partition_witness(&[2, 4, 8, 32]).is_none());
    }

    #[test]
    fn theorem11_equivalence_on_random_instances() {
        // Partition exists <=> optimal 2-proc makespan with budget B is
        // exactly B/2 (paper's proof, both directions).
        for seed in 0..10 {
            let values = generators::partition_yes_instance(4, 24, seed);
            assert!(partition_witness(&values).is_some());
            assert!(schedule_decides_partition(&values, 3.0), "{values:?}");
        }
        // No-instances: odd totals and spread sets.
        for values in [vec![1u64, 2], vec![2, 4, 8, 32], vec![7, 1, 1]] {
            let has_partition = partition_witness(&values).is_some();
            assert_eq!(
                schedule_decides_partition(&values, 3.0),
                has_partition,
                "{values:?}"
            );
        }
    }

    #[test]
    fn perfect_split_runs_at_speed_one() {
        // From a partition, each processor runs load B/2 over time B/2 at
        // speed 1 and total energy is exactly B (paper's forward
        // direction).
        let values = [3u64, 1, 2, 2];
        let witness = partition_witness(&values).expect("partitionable");
        let half: u64 = witness.iter().map(|&i| values[i]).sum();
        assert_eq!(half, 4);
        let b = 8.0;
        let loads = [4.0, 4.0];
        let t = makespan_for_loads(&loads, 3.0, b);
        assert!((t - 4.0).abs() < 1e-12);
    }

    #[test]
    fn min_norm_matches_bruteforce_small() {
        let works = [3.0, 2.8, 2.2, 1.7, 1.1, 0.9];
        // Brute force all 2^6 assignments.
        let mut best = f64::INFINITY;
        for mask in 0u32..64 {
            let mut l = [0.0f64; 2];
            for (i, w) in works.iter().enumerate() {
                l[(mask >> i & 1) as usize] += w;
            }
            best = best.min(l[0].powi(3) + l[1].powi(3));
        }
        for (label, (labels, norm)) in [
            ("incremental", min_norm_assignment(&works, 2, 3.0)),
            ("reference", min_norm_assignment_reference(&works, 2, 3.0)),
        ] {
            assert!((norm - best).abs() < 1e-9, "{label} {norm} vs brute {best}");
            assert_eq!(labels.len(), works.len());
        }
    }

    #[test]
    fn incremental_engine_matches_reference() {
        // Uniform, skewed, and duplicate-heavy families; m spanning 2..6
        // including m > n.
        let families: Vec<(&str, Vec<f64>)> = vec![
            (
                "uniform",
                (0..14).map(|k| 0.4 + (k as f64 * 0.67) % 2.3).collect(),
            ),
            (
                "skewed",
                (1..=12).map(|k| (k as f64).powi(2) * 0.1).collect(),
            ),
            (
                "duplicates",
                (0..15).map(|k| 1.0 + (k % 3) as f64 * 0.5).collect(),
            ),
            ("tiny", vec![2.5]),
            ("two", vec![1.0, 4.0]),
        ];
        for (name, works) in &families {
            for m in [1usize, 2, 3, 6] {
                for alpha in [2.0, 3.0] {
                    let (inc_labels, inc) = min_norm_assignment(works, m, alpha);
                    let (_, reference) = min_norm_assignment_reference(works, m, alpha);
                    assert!(
                        (inc - reference).abs() <= 1e-9 * reference.max(1.0),
                        "{name} m={m} alpha={alpha}: incremental {inc} vs reference {reference}"
                    );
                    // The incremental labelling realizes its claimed norm.
                    let mut loads = vec![0.0f64; m];
                    for (w, &p) in works.iter().zip(&inc_labels) {
                        loads[p] += w;
                    }
                    let realized: f64 = loads.iter().map(|l| l.powf(alpha)).sum();
                    assert!(
                        (realized - inc).abs() <= 1e-9 * inc.max(1.0),
                        "{name} m={m} alpha={alpha}: claimed {inc} vs realized {realized}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_processors_than_jobs_spread_out() {
        let works = [3.0, 1.0];
        for engine in [min_norm_assignment, min_norm_assignment_reference] {
            let (labels, norm) = engine(&works, 5, 3.0);
            assert!((norm - 28.0).abs() < 1e-9, "each job alone: 27 + 1");
            assert_ne!(labels[0], labels[1]);
        }
    }

    #[test]
    fn empty_works() {
        let (labels, norm) = min_norm_assignment(&[], 3, 3.0);
        assert!(labels.is_empty());
        assert_eq!(norm, 0.0);
    }

    #[test]
    fn lpt_and_local_search_quality() {
        let works: Vec<f64> = (1..=14).map(|k| (k as f64).sqrt() * 1.3).collect();
        let m = 3;
        let alpha = 3.0;
        let (_, opt) = min_norm_assignment(&works, m, alpha);
        let (lpt_labels, lpt_norm) = lpt_assignment(&works, m, alpha);
        let (_, ls_norm) = local_search(&works, m, alpha, lpt_labels);
        assert!(lpt_norm >= opt - 1e-9);
        assert!(ls_norm >= opt - 1e-9);
        assert!(ls_norm <= lpt_norm + 1e-12, "local search never worse");
        // LPT is a good heuristic: within 10% on this instance family.
        assert!(lpt_norm <= 1.1 * opt, "lpt {lpt_norm} vs opt {opt}");
    }

    #[test]
    fn makespan_load_norm_identity() {
        // E(T) = ||L||_alpha^alpha T^{1-alpha} inverted.
        let loads = [6.0, 2.0];
        let alpha = 3.0;
        let budget = 10.0;
        let t = makespan_for_loads(&loads, alpha, budget);
        // Energy at that T: sum L^3 / T^2 == budget.
        let e = (loads[0].powi(3) + loads[1].powi(3)) / (t * t);
        assert!((e - budget).abs() < 1e-9);
        // Balanced loads give strictly smaller makespan.
        let t_bal = makespan_for_loads(&[4.0, 4.0], alpha, budget);
        assert!(t_bal < t);
    }

    #[test]
    fn unlimited_budget_is_exact_and_identical() {
        let works: Vec<f64> = (0..13).map(|k| 0.4 + (k as f64 * 0.53) % 1.9).collect();
        let (labels, norm) = min_norm_assignment(&works, 3, 3.0);
        let budgeted = min_norm_assignment_budgeted(&works, 3, 3.0, &SolveBudget::UNLIMITED);
        assert!(!budgeted.is_degraded());
        let (b_labels, b_norm) = budgeted.into_value();
        // Bit-identical, not merely close: same search, same floats.
        assert_eq!(norm.to_bits(), b_norm.to_bits());
        assert_eq!(labels, b_labels);
    }

    #[test]
    fn zero_node_budget_degrades_to_seed_with_certificate() {
        let works: Vec<f64> = (0..16).map(|k| 0.3 + (k as f64 * 0.71) % 2.1).collect();
        let m = 4;
        let alpha = 3.0;
        let out = min_norm_assignment_budgeted(&works, m, alpha, &SolveBudget::nodes(0));
        let d = out.degradation().expect("zero budget must degrade");
        let (labels, norm) = &d.value;
        // The incumbent is the heuristic seed and realizes its norm.
        let mut loads = vec![0.0f64; m];
        for (w, &p) in works.iter().zip(labels) {
            loads[p] += w;
        }
        let realized: f64 = loads.iter().map(|l| l.powf(alpha)).sum();
        assert!((realized - norm).abs() <= 1e-9 * norm.max(1.0));
        // Certificate sanity: gap ≥ 0 and the bound really is a lower
        // bound on the true optimum.
        assert!(d.bound_gap >= 0.0);
        let (_, opt) = min_norm_assignment(&works, m, alpha);
        assert!(
            d.lower_bound <= opt + 1e-9 * opt.max(1.0),
            "bound {} vs optimum {opt}",
            d.lower_bound
        );
        assert!(*norm >= opt - 1e-9 * opt.max(1.0));
    }

    #[test]
    fn small_node_budgets_keep_sound_certificates() {
        let works: Vec<f64> = (0..15).map(|k| 0.5 + (k as f64 * 0.37) % 1.7).collect();
        let m = 3;
        let alpha = 3.0;
        let (_, opt) = min_norm_assignment(&works, m, alpha);
        for nodes in [1u64, 10, 100, 1000] {
            let out = min_norm_assignment_budgeted(&works, m, alpha, &SolveBudget::nodes(nodes));
            let (labels, norm) = out.value().clone();
            assert_eq!(labels.len(), works.len());
            assert!(norm >= opt - 1e-9 * opt.max(1.0), "incumbent below optimum");
            if let Some(d) = out.degradation() {
                assert!(d.nodes <= nodes, "node accounting: {} > {nodes}", d.nodes);
                assert!(d.bound_gap >= 0.0);
                assert!(d.lower_bound <= opt + 1e-9 * opt.max(1.0));
                assert!((d.bound_gap - (norm - d.lower_bound)).abs() < 1e-12);
            } else {
                // Finished within budget: must be the true optimum.
                assert!((norm - opt).abs() <= 1e-9 * opt.max(1.0));
            }
        }
    }

    #[test]
    fn identical_job_dominance_proves_each_load_multiset_once() {
        // Duplicate-heavy witnesses. Without the dominance rule the search
        // re-proves every ordering of the identical jobs: 124,213 nodes
        // for the first and 7,219 for the second. With it they take
        // 102 and 132, so a 1,000-node cap only holds with the rule.
        // Both optima are the most balanced loads on the 0.5 grid:
        // {5.5, 5.5, 5.5, 5} and {8.5, 8.5, 8}.
        let mut first = vec![1.5; 9];
        first.extend([1.0; 8]);
        let mut second = vec![2.5; 5];
        second.extend([1.5; 5]);
        second.extend([1.0; 5]);
        for (works, m, opt) in [
            (first, 4usize, 3.0 * 5.5f64.powi(3) + 125.0),
            (second, 3, 2.0 * 8.5f64.powi(3) + 512.0),
        ] {
            let out = min_norm_assignment_budgeted(&works, m, 3.0, &SolveBudget::nodes(1_000));
            let n = works.len();
            assert!(!out.is_degraded(), "n={n} m={m}: exceeded 1,000 nodes");
            let (labels, norm) = out.into_value();
            assert!(
                (norm - opt).abs() <= 1e-9 * opt,
                "n={n} m={m}: {norm} vs {opt}"
            );
            let mut loads = vec![0.0f64; m];
            for (w, &p) in works.iter().zip(&labels) {
                loads[p] += w;
            }
            let realized: f64 = loads.iter().map(|l| l.powi(3)).sum();
            assert!((realized - norm).abs() <= 1e-9 * norm);
        }
    }

    #[test]
    fn symmetry_breaking_does_not_lose_optimum() {
        // All-equal works: optimum = even split; B&B with symmetry
        // breaking must still find it.
        let works = [1.0f64; 6];
        let (_, norm) = min_norm_assignment(&works, 3, 2.0);
        assert!((norm - 3.0 * 4.0).abs() < 1e-9); // 3 procs × (2)²
    }

    #[test]
    fn works_that_are_not_finite_and_non_negative_panic() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            let works = [1.0, 2.0, bad, 1.5];
            let exact = std::panic::catch_unwind(|| min_norm_assignment(&works, 4, 3.0));
            assert!(exact.is_err(), "exact entry accepted work {bad}");
            let budgeted = std::panic::catch_unwind(|| {
                min_norm_assignment_budgeted(&works, 4, 3.0, &SolveBudget::nodes(100))
            });
            assert!(budgeted.is_err(), "budgeted entry accepted work {bad}");
        }
        // Zero (either sign) is a valid work.
        assert_eq!(min_norm_assignment(&[0.0, -0.0, 2.0], 2, 3.0).1, 8.0);
    }

    #[test]
    fn search_path_is_pinned() {
        // E21's `multi_works(20, 1000, 1)` and `multi_works(20, 12, 1)`,
        // m = 4. Node counts, bound bits, norm bits and labels are
        // pinned: any change to the visit order, the gate placement or
        // the float sums moves them.
        let fine = [
            2.822,
            0.9590000000000001,
            1.088,
            3.11,
            0.602,
            2.8850000000000002,
            0.89,
            3.206,
            0.767,
            2.738,
            0.869,
            2.906,
            1.856,
            1.7,
            0.602,
            2.936,
            3.17,
            1.985,
            1.496,
            1.595,
        ];
        let coarse = [
            1.0, 2.75, 0.5, 2.0, 2.0, 3.25, 1.0, 3.0, 2.75, 3.0, 1.25, 3.0, 0.5, 0.5, 1.0, 1.5,
            3.0, 3.25, 1.5, 2.75,
        ];
        let degraded = |works: &[f64], nodes: u64| {
            let out = min_norm_assignment_budgeted(works, 4, 3.0, &SolveBudget::nodes(nodes));
            let d = out.degradation().expect("budget below the search's size");
            (
                d.nodes,
                d.lower_bound.to_bits(),
                d.value.1.to_bits(),
                d.value.0.clone(),
            )
        };
        assert_eq!(
            degraded(&fine, 5_000),
            (
                5_000,
                0x40ab_2e06_98e6_6fa2,
                0x40ab_2e09_7c2f_d9ec,
                vec![1, 3, 2, 2, 0, 2, 0, 0, 3, 0, 2, 3, 1, 1, 0, 3, 1, 3, 0, 2],
            )
        );
        // The coarse witness finishes in exactly 12,127 nodes.
        let optimum = vec![2, 0, 3, 1, 2, 0, 0, 2, 1, 3, 1, 2, 1, 3, 2, 3, 3, 1, 3, 0];
        assert_eq!(
            degraded(&coarse, 12_126),
            (
                12_126,
                0x40ae_17bc_0000_0000,
                0x40ae_1b70_0000_0000,
                optimum.clone()
            )
        );
        let exact = min_norm_assignment_budgeted(&coarse, 4, 3.0, &SolveBudget::nodes(12_127));
        assert!(!exact.is_degraded());
        let (labels, norm) = min_norm_assignment(&coarse, 4, 3.0);
        assert_eq!((labels, norm.to_bits()), (optimum, 0x40ae_1b70_0000_0000));
    }
}
