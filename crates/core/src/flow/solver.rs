//! The arbitrarily-good flow approximation for equal-work jobs — solved
//! **directly** by block decomposition.
//!
//! Strategy (following Pruhs–Uthaisombut–Woeginger as extended by the
//! paper): parameterize optimal schedules by `u = σ_n^α`, the α-th power
//! of the last job's speed. For fixed `u` the Theorem-1 relations
//! determine every speed once the *configuration* (which of Gap / Push /
//! Boundary applies at each job boundary) is known. The key structural
//! fact is that the configuration is **block decomposable**: the
//! schedule splits at idle gaps and exact-contact boundaries into
//! maximal busy blocks, and inside a block the Push relation telescopes
//! into the closed-form cascade
//!
//! ```text
//! σ_i^α = v + (b − i)·u        (i in block [a..b], tail value v = σ_b^α)
//! ```
//!
//! so a block is described by two numbers: its first job's release (its
//! start) and its tail value `v`. A block either ends at a gap or at the
//! end of the instance (`v = u`), or in exact contact with the next
//! release (`v` pinned by the time equation `r_a + D(v) = r_{b+1}`,
//! clamped to the Theorem-1 interval `[u, σ_{b+1}^α + u]`).
//!
//! [`FlowWorkspace::decompose`] builds this structure **directly**
//! instead of iterating a fixed point, in two cooperating phases:
//!
//! 1. a **forward contact sweep** grows maximal contact segments under
//!    the merged tail-`u` cascade — the pointwise-fastest profile any
//!    valid configuration can reach — and detects, through a min-heap
//!    of binary-searched *violation thresholds* over the cached cascade
//!    sums, every boundary whose merged completion precedes the next
//!    release. Such a violation is **necessary** for a block to end
//!    there, so segments with no violations close as single tail-`u`
//!    blocks in `O(1)`;
//! 2. segments that do carry violations are closed by an exact
//!    **right-to-left DP over the violated candidates**
//!    (`FlowWorkspace::resolve_segment`): the unique Theorem-1 chain
//!    closes each block at the first candidate it can reach at a tail
//!    within the clamp of the already-resolved suffix. (A violation is
//!    only a *candidate* — the merged cascade can overspeed either side
//!    of a boundary, so neither the leftmost nor the rightmost violated
//!    boundary can simply be frozen; the DP is what makes the structure
//!    exact.)
//!
//! This full sweep is `O(n log n)` on violation-free workloads and
//! `O(n log n + Σ per-segment candidate scans)` in general — versus
//! `O(iters·n)` with `iters` up to thousands for the damped Gauss–Seidel
//! iteration the module used previously, which is preserved as
//! [`solve_for_u_reference`] and held to `1e-9` agreement by the
//! `flow_equivalence` property tests. Its scans cost one pinned-tail
//! solve per violated boundary: on overloaded Poisson instances at
//! `n = 1000` that is ~900 solves for a chain that keeps ~64 of them.
//!
//! Three more wins layer on top:
//!
//! * **configuration walk** — the Pruhs–Uthaisombut–Woeginger
//!   approach: adjacent `u` of a search share their configuration or
//!   differ from it by a few block ends, so a [`FlowWorkspace`]
//!   remembers its last decomposition, re-solves its pinned tails at
//!   the new `u` (or runs the DP over just its block ends and the jobs
//!   where a block must split), and certifies the result strictly
//!   against every Theorem-1 relation. A certified walk returns exactly
//!   the blocks the full sweep would, at `O(n)` plus one pinned-tail
//!   solve per block end; in a curve sweep typically only the first
//!   evaluation needs the full sweep (`FlowWorkspace::decompose`);
//!
//! * **cached sweep state** — the cascade prefix sums
//!   `H[m] = Σ_{k≤m} k^{-1/α}` depend only on `α`, so a
//!   [`FlowWorkspace`] computes them once and shares them across every
//!   `u`-evaluation of an outer search or curve sweep;
//! * **warm-started outer inversion** — energy is strictly increasing
//!   and flow strictly decreasing in `u`, and both derivatives fall out
//!   of the block structure in closed form (the private accumulators
//!   `FlowWorkspace::accumulate_energy` and `accumulate_flow`), so the
//!   laptop and server problems invert their targets with seeded,
//!   derivative-driven bracketed Newton
//!   ([`pas_numeric::roots::invert_monotone_fdf`]) whose search loop
//!   evaluates only the scalar it needs (no verification or packaging)
//!   — a handful of `O(n)` evaluations instead of cold ~50-step
//!   bisection over full solves. Theorem 8
//!   shows this arbitrarily-good approximation is the best achievable by
//!   any algorithm over `(+,−,×,÷,ᵏ√)`.
//!
//! Every solution, from either engine, is verified against the
//! Theorem-1 relations (see [`crate::flow::kkt`]) before being
//! returned: a profile satisfying them is a KKT point of the convex
//! flow program and therefore globally optimal for its energy level.

use crate::error::CoreError;
use crate::flow::kkt::{self, KktReport};
use pas_numeric::compare::is_positive_finite;
use pas_numeric::roots::{invert_monotone, invert_monotone_fdf, newton_bisect, RootError};
use pas_numeric::NeumaierSum;
use pas_power::{PolyPower, PowerModel};
use pas_sim::{Schedule, Slice};
use pas_workload::Instance;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A solved flow schedule for one value of `u = σ_n^α`.
#[derive(Debug, Clone)]
pub struct FlowSolution {
    /// Per-job speeds (sorted job order).
    pub speeds: Vec<f64>,
    /// Per-job start times.
    pub starts: Vec<f64>,
    /// Per-job completion times.
    pub completions: Vec<f64>,
    /// Total flow `Σ (C_i − r_i)`.
    pub total_flow: f64,
    /// Total energy `Σ w·σ_i^{α−1}`.
    pub energy: f64,
    /// The parameter this solution was solved at.
    pub u: f64,
    /// Theorem-1 verification report.
    pub kkt: KktReport,
}

impl FlowSolution {
    /// Materialize as a [`Schedule`] (one slice per job, idle gaps where
    /// `C_i < r_{i+1}`).
    pub fn to_schedule(&self, instance: &Instance) -> Schedule {
        let slices = (0..instance.len())
            .map(|i| {
                Slice::new(
                    instance.job(i).id,
                    self.starts[i],
                    self.completions[i],
                    self.speeds[i],
                )
            })
            .collect();
        Schedule::from_slices(slices)
    }
}

/// One maximal busy block of the Theorem-1 structure at a given `u`.
///
/// Jobs `first..=last` run back-to-back from `start` with the cascade
/// `σ_i^α = tail + (last − i)·u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyBlock {
    /// Sorted index of the first job in the block.
    pub first: usize,
    /// Sorted index of the last job in the block (inclusive).
    pub last: usize,
    /// Block start time (= release of job `first`).
    pub start: f64,
    /// Tail value `v = σ_last^α`; `u` itself unless the block is pinned.
    pub tail: f64,
    /// Whether the block ends in exact contact with the next release
    /// (`true`: `tail` solves the time equation; `false`: the block ends
    /// at a gap or at the end of the instance and `tail == u`).
    pub pinned: bool,
}

impl BusyBlock {
    /// Number of jobs in the block.
    pub fn len(&self) -> usize {
        self.last - self.first + 1
    }

    /// Always false (blocks hold at least one job).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Relative margin by which the configuration walk requires each
/// Theorem-1 inequality to hold; anything closer is left to the full
/// sweep.
const WALK_MARGIN: f64 = 1e-9;

/// `a > b` by more than [`WALK_MARGIN`] relative.
fn clears(a: f64, b: f64) -> bool {
    a - b > WALK_MARGIN * a.abs().max(b.abs())
}

/// Relative KKT residual accepted from a solved profile.
const KKT_TOL: f64 = 1e-6;
/// Time tolerance classifying the three-way completion/release split.
const TIME_TOL: f64 = 1e-7;

/// Reusable solver state for one `(instance, α)` pair: validation is done
/// once, and the `u`-independent cascade sums `H[m] = Σ_{k≤m} k^{-1/α}`
/// are cached across every `u`-evaluation, so outer searches and curve
/// sweeps pay `O(n)` setup once instead of per evaluation. It also keeps
/// its last decomposition, from which the next one walks.
#[derive(Debug)]
pub struct FlowWorkspace<'a> {
    instance: &'a Instance,
    alpha: f64,
    inv_alpha: f64,
    work: f64,
    /// `harmonic[m] = Σ_{k=1}^{m} k^{-1/α}` (compensated), length `n+1`.
    ///
    /// The duration of an `m`-job tail-`u` cascade is
    /// `w·u^{-1/α}·harmonic[m]`, which makes every completion inside the
    /// active block an O(1) lookup.
    harmonic: Vec<f64>,
    /// The block list of the last decomposition: the configuration the
    /// next one walks from.
    chain: Mutex<Vec<BusyBlock>>,
    /// Decompositions that needed the full sweep (the others took the
    /// configuration walk).
    sweeps: AtomicUsize,
}

impl<'a> FlowWorkspace<'a> {
    /// Validate the instance (equal work, paper §4) and precompute the
    /// cascade sums.
    ///
    /// # Errors
    /// [`CoreError::NotEqualWork`] — the §4 algorithm requires equal
    /// work.
    pub fn new(instance: &'a Instance, alpha: f64) -> Result<Self, CoreError> {
        instance.validate()?;
        if !instance.is_equal_work(1e-9) {
            return Err(CoreError::NotEqualWork);
        }
        let inv_alpha = 1.0 / alpha;
        let mut harmonic = Vec::with_capacity(instance.len() + 1);
        harmonic.push(0.0);
        let mut acc = NeumaierSum::new();
        for k in 1..=instance.len() {
            acc.add((k as f64).powf(-inv_alpha));
            harmonic.push(acc.total());
        }
        Ok(FlowWorkspace {
            instance,
            alpha,
            inv_alpha,
            work: instance.work(0),
            harmonic,
            chain: Mutex::new(Vec::new()),
            sweeps: AtomicUsize::new(0),
        })
    }

    /// The instance this workspace solves.
    pub fn instance(&self) -> &Instance {
        self.instance
    }

    /// Partition the schedule into maximal busy blocks for `u = σ_n^α`.
    ///
    /// First tries the **configuration walk**
    /// (Pruhs–Uthaisombut–Woeginger, `Self::walk`): adjacent `u` of an
    /// outer search or curve sweep share their configuration or differ
    /// from it by a few block ends, so the previous decomposition is
    /// re-solved at `u` over its own block ends (plus any where a block
    /// must split) and returned if every Theorem-1 relation holds
    /// strictly. Any failure or tie falls back to the full sweep, which
    /// returns the same blocks whenever the walk would have.
    ///
    /// The full sweep has two cooperating mechanisms:
    ///
    /// 1. **Forward contact sweep.** Jobs are appended to the open
    ///    *segment* (a maximal contact run) while the merged tail-`u`
    ///    cascade of the whole segment overruns the next release. The
    ///    merged cascade is the pointwise-fastest profile any valid
    ///    configuration of the segment can reach (`σ_i^α ≤ σ_{i+1}^α + u`
    ///    telescopes from the tail), which yields two certificates:
    ///    a boundary whose merged completion strictly precedes the next
    ///    release is the *only* kind that can end a block inside the
    ///    segment (violation = **necessary** condition for closure), and
    ///    a segment with *no* violated boundaries that reaches a merged
    ///    gap is exactly one tail-`u` block.
    /// 2. **Deferred segment resolution.** Violated boundaries are
    ///    detected by a min-heap of violation thresholds (exact: the
    ///    segment start never moves while it is open, and each boundary's
    ///    merged completion decreases monotonically as the segment grows,
    ///    so the first crossing is a binary search over the cached
    ///    cascade sums). They are *candidates only* — a violation may be
    ///    an artifact of the merged cascade overspeeding either side —
    ///    so the segment's true structure is resolved by
    ///    `Self::resolve_segment`, a right-to-left DP over the
    ///    candidates, when the segment closes. A merged gap is likewise
    ///    only necessary once candidates exist (resolution slows the
    ///    cascade and can push the segment past the release that looked
    ///    gapped), so it is certified against the resolved completion
    ///    before the segment is committed.
    ///
    /// # Errors
    /// [`CoreError::InvalidBudget`] — `u <= 0`; numeric errors from a
    /// degenerate pinned-tail solve (never observed on valid inputs).
    pub fn decompose(&self, u: f64) -> Result<Vec<BusyBlock>, CoreError> {
        if !is_positive_finite(u) {
            return Err(CoreError::InvalidBudget { budget: u });
        }
        // Duration scale of the tail-u cascade: an m-job merged segment
        // takes c·harmonic[m] time.
        let c = self.work * u.powf(-self.inv_alpha);
        // Threads sharing a workspace walk one at a time; the others
        // take the full sweep rather than wait.
        let Ok(mut chain) = self.chain.try_lock() else {
            self.sweeps.fetch_add(1, Ordering::Relaxed);
            return self.sweep(u, c);
        };
        if !self.walk(&mut chain, u, c) {
            self.sweeps.fetch_add(1, Ordering::Relaxed);
            *chain = self.sweep(u, c)?;
        }
        Ok(chain.clone())
    }

    /// Decompositions so far that needed the full sweep.
    #[cfg(test)]
    pub(crate) fn sweeps(&self) -> usize {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// The configuration walk: move `chain`, the previous
    /// decomposition, to `u`, and report whether it now holds *the*
    /// decomposition at `u`.
    ///
    /// First the chain keeps its configuration: its pinned tails are
    /// re-solved with the window and clamp the full sweep would give
    /// them (`Self::repin`), and the result is certified
    /// (`Self::certify`). Failing that, it steps to an adjacent
    /// configuration: its block ends, plus every job that completed by
    /// its successor's release inside a block, become the candidates of
    /// one `Self::resolve_segment` DP over the whole instance, whose
    /// result is certified in turn. `O(n)` plus one pinned-tail solve
    /// per block end, against the sweep's solve per violated boundary.
    fn walk(&self, chain: &mut Vec<BusyBlock>, u: f64, c: f64) -> bool {
        if chain.is_empty() {
            return false;
        }
        let mut splits = Vec::new();
        if self.repin(chain, u) && self.certify(chain, u, c, &mut splits) {
            return true;
        }
        let mut ends: Vec<usize> = chain.iter().map(|b| b.last).collect();
        ends.append(&mut splits);
        let n = self.instance.len();
        let Ok((blocks, _)) = self.resolve_segment(u, c, 0, n - 1, &ends) else {
            return false;
        };
        *chain = blocks;
        self.certify(chain, u, c, &mut splits)
    }

    /// Re-solve `chain`'s tails at `u` in place, right to left: `u` for
    /// a tail-`u` block, and for a pinned one `Self::pin_tail` with the
    /// arguments `Self::resolve_segment` passes — the window to the next
    /// release and the clamp `FS(next) + u` — so the same bits.
    fn repin(&self, chain: &mut [BusyBlock], u: f64) -> bool {
        let mut next_first_speed = f64::NAN;
        for b in chain.iter_mut().rev() {
            let jobs = b.len();
            if b.pinned {
                let avail = self.instance.release(b.last + 1) - b.start;
                match self.pin_tail(jobs, avail, u, next_first_speed + u) {
                    Ok(v) => b.tail = v,
                    Err(_) => return false,
                }
            } else {
                b.tail = u;
            }
            next_first_speed = b.tail + (jobs - 1) as f64 * u;
        }
        true
    }

    /// Whether `blocks` meet every Theorem-1 relation at `u`, each by
    /// more than [`WALK_MARGIN`]:
    ///
    /// * a tail-`u` block ends before the next release (Gap);
    /// * a pinned block overruns its window at tail `u` and fits at the
    ///   clamp `FS(next) + u` (Boundary, tail strictly inside the
    ///   Theorem-1 interval);
    /// * every other job completes after the next release (Push) —
    ///   each that does not is pushed onto `splits`.
    ///
    /// Blocks meeting all of them are the unique Theorem-1 profile at
    /// `u`, and with no tie their block list is the unique one the full
    /// sweep builds.
    fn certify(&self, blocks: &[BusyBlock], u: f64, c: f64, splits: &mut Vec<usize>) -> bool {
        let inst = self.instance;
        let mut ok = true;
        // FS of the block after the one being checked.
        let mut next_first_speed = f64::NAN;
        for b in blocks.iter().rev() {
            let jobs = b.len();
            if b.pinned {
                let avail = inst.release(b.last + 1) - b.start;
                let clamp = next_first_speed + u;
                ok &= clears(c * self.harmonic[jobs], avail)
                    && clears(avail, self.block_duration(jobs, clamp, u));
            } else if b.last + 1 < inst.len() {
                ok &= clears(inst.release(b.last + 1) - b.start, c * self.harmonic[jobs]);
            }
            // Elapsed block time at each job's completion.
            let mut done = 0.0;
            for i in b.first..b.last {
                let k = b.last - i;
                done = if b.pinned {
                    done + self.work * (b.tail + k as f64 * u).powf(-self.inv_alpha)
                } else {
                    c * (self.harmonic[jobs] - self.harmonic[k])
                };
                if !clears(done, inst.release(i + 1) - b.start) {
                    ok = false;
                    splits.push(i);
                }
            }
            next_first_speed = b.tail + (jobs - 1) as f64 * u;
        }
        ok
    }

    /// The full decomposition at `u` (see [`FlowWorkspace::decompose`]).
    fn sweep(&self, u: f64, c: f64) -> Result<Vec<BusyBlock>, CoreError> {
        let inst = self.instance;
        let n = inst.len();

        let mut blocks: Vec<BusyBlock> = Vec::new();
        // Open segment: jobs a..=j-1 starting at s (= release(a)).
        let mut a = 0usize;
        let mut s = inst.release(0);
        // (threshold last-index, boundary) min-heap, drained into
        // `pending` once the segment's last index reaches the threshold.
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        // Violated boundaries of the open segment, in detection order.
        let mut pending: Vec<usize> = Vec::new();
        // Segment length below which gap certification is skipped —
        // doubled after each failed attempt. Splitting at certified gaps
        // only *bounds* the final resolution (the DP handles interior
        // gaps itself), so backing off is safe: a dense overloaded run
        // shows a merged gap at almost every join while its true
        // completion never gaps, and certifying each one would re-resolve
        // the segment O(n) times.
        let mut certify_len = 0usize;

        for j in 1..n {
            let c_last = s + c * self.harmonic[j - a];
            let r_j = inst.release(j);
            if c_last <= r_j {
                // Merged gap — necessary for a true gap, not sufficient
                // once closure candidates exist (resolution only slows
                // the cascade). With no candidates the segment is one
                // tail-u block and the gap is exact; otherwise resolve
                // and certify against the true completion.
                if pending.is_empty() {
                    blocks.push(BusyBlock {
                        first: a,
                        last: j - 1,
                        start: s,
                        tail: u,
                        pinned: false,
                    });
                    a = j;
                    s = r_j;
                    heap.clear();
                    certify_len = 0;
                    continue;
                }
                if j - a >= certify_len {
                    let (resolved, end) = self.resolve_segment(u, c, a, j - 1, &pending)?;
                    if end <= r_j {
                        blocks.extend(resolved);
                        a = j;
                        s = r_j;
                        heap.clear();
                        pending.clear();
                        certify_len = 0;
                        continue;
                    }
                    // Not a real gap: keep growing, and don't retry until
                    // the segment doubles.
                    certify_len = 2 * (j - a);
                }
            }
            // Contact: job j joins the segment; every merged speed steps
            // up by u and every merged completion moves earlier.
            if let Some(thr) = self.violation_threshold(j - 1, a, s, c, j) {
                heap.push(Reverse((thr, j - 1)));
            }
            while let Some(&Reverse((thr, e))) = heap.peek() {
                if thr > j {
                    break;
                }
                heap.pop();
                pending.push(e);
            }
        }
        if pending.is_empty() {
            blocks.push(BusyBlock {
                first: a,
                last: n - 1,
                start: s,
                tail: u,
                pinned: false,
            });
        } else {
            let (resolved, _) = self.resolve_segment(u, c, a, n - 1, &pending)?;
            blocks.extend(resolved);
        }
        Ok(blocks)
    }

    /// Smallest last-index `l >= from` at which boundary `e` of the
    /// active block `[a.., start s]` is violated (its completion lands
    /// strictly before `release(e+1)`), or `None` if it never is.
    ///
    /// `C_e(l) = s + c·(H[l−a+1] − H[l−e])` strictly decreases as the
    /// block grows, so the first crossing is found by binary search.
    fn violation_threshold(
        &self,
        e: usize,
        a: usize,
        s: f64,
        c: f64,
        from: usize,
    ) -> Option<usize> {
        let rhs = self.instance.release(e + 1) - s;
        if rhs <= 0.0 {
            return None; // completions never move before the block start
        }
        let n = self.instance.len();
        let violated = |l: usize| c * (self.harmonic[l - a + 1] - self.harmonic[l - e]) < rhs;
        if violated(from) {
            return Some(from);
        }
        if !violated(n - 1) {
            return None;
        }
        let (mut lo, mut hi) = (from, n - 1); // !violated(lo), violated(hi)
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if violated(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    /// Solve the pinned-tail time equation for an `m`-job block:
    /// `w·Σ_{k<m} (v + k·u)^{-1/α} = duration`, for `v ≥ u`. `v_hi` seeds
    /// the upper bracket (the merged-cascade tail for top-level splits)
    /// and is expanded geometrically when a recursive re-pin needs a tail
    /// beyond it. Monotone in `v`, solved by safeguarded Newton.
    fn pin_tail(&self, m: usize, duration: f64, u: f64, v_hi: f64) -> Result<f64, CoreError> {
        let fdf = |v: f64| {
            let mut d = NeumaierSum::new();
            let mut dd = NeumaierSum::new();
            for k in 0..m {
                let x = v + k as f64 * u;
                let p = x.powf(-self.inv_alpha);
                d.add(p);
                dd.add(p / x);
            }
            (
                self.work * d.total() - duration,
                -self.work * self.inv_alpha * dd.total(),
            )
        };
        // Duration decreases in v; f(u) ≤ 0 means the tail-u block
        // already fits (degenerate pin, collapses to a gap tail).
        if fdf(u).0 <= 0.0 {
            return Ok(u);
        }
        let mut hi = v_hi.max(2.0 * u);
        let mut expansions = 0usize;
        while fdf(hi).0 >= 0.0 {
            hi *= 2.0;
            expansions += 1;
            if expansions > 1_000 || !hi.is_finite() {
                return Err(CoreError::Numeric(RootError::BracketSearchFailed {
                    limit: hi,
                }));
            }
        }
        match newton_bisect(fdf, u, hi, 1e-15 * hi, 1e-12 * duration.abs().max(1.0)) {
            Ok(v) => Ok(v),
            Err(RootError::MaxIterations { best }) => Ok(best),
            Err(e) => Err(e.into()),
        }
    }

    /// Duration of the `m`-job block `[t..t+m-1]` under the cascade with
    /// tail value `v`: `w·Σ_{k=0}^{m-1} (v + k·u)^{-1/α}`.
    fn block_duration(&self, m: usize, v: f64, u: f64) -> f64 {
        let mut d = NeumaierSum::new();
        for k in 0..m {
            d.add((v + k as f64 * u).powf(-self.inv_alpha));
        }
        self.work * d.total()
    }

    /// Resolve the closed segment `jobs a..=m` (a maximal contact run
    /// whose last block has tail `u`) into its exact Theorem-1 blocks,
    /// returning them with the completion time of job `m`.
    ///
    /// `pending` holds every boundary violated under the segment's
    /// merged tail-`u` cascade. Because that cascade is pointwise
    /// fastest, every true block end inside the segment is among them —
    /// but not conversely: a violation can be an artifact of the merged
    /// cascade overspeeding the *left* side (the true structure pins an
    /// earlier boundary, delaying this job's start past its release) or
    /// the *right* side (a later pin slows the cascade feeding it). The
    /// exact structure is the unique chain
    ///
    /// ```text
    /// b(t) = min{ e ≥ t : block [t..e] fits in [r_t, r_{e+1}]
    ///                      at some tail v ≤ FS(e+1) + u }
    /// ```
    ///
    /// where `FS(e+1)` is the α-power speed of the first job of the
    /// resolved suffix starting at `e+1` — the Theorem-1 clamp. A fitting
    /// boundary cannot be Push (even the clamp's maximal cascade would
    /// finish it by the next release), and a non-fitting one cannot end
    /// a block, so the first fit is the unique closure. The suffix
    /// dependence makes the recursion right-to-left: a DP over candidate
    /// starts (`a` and each violated boundary + 1), each scanning
    /// candidates left-to-right with one `O(block)` duration evaluation
    /// per probe — `O(|pending|²)` probes worst case, with `pending`
    /// empty for the vast majority of segments (handled by the caller
    /// without entering this function at all).
    ///
    /// The configuration walk calls it over the whole instance with a
    /// *guessed* candidate set (the previous chain's block ends): a
    /// tail-`u` fit then closes a block at a gap too, and the result is
    /// only a proposal until `Self::certify` accepts it.
    fn resolve_segment(
        &self,
        u: f64,
        c: f64,
        a: usize,
        m: usize,
        pending: &[usize],
    ) -> Result<(Vec<BusyBlock>, f64), CoreError> {
        let inst = self.instance;
        // Candidate block ends: violated boundaries inside the segment,
        // plus the segment end itself.
        let mut cands: Vec<usize> = pending.iter().copied().filter(|&e| e < m).collect();
        cands.sort_unstable();
        cands.dedup();
        cands.push(m);
        // DP over candidate starts, right-to-left. sol[i]: the resolved
        // first block of the suffix starting at cands[i-1]+1 (i > 0) or
        // `a` (i == 0): (block end index into cands, tail, pinned).
        let starts: Vec<usize> = std::iter::once(a)
            .chain(cands.iter().filter(|&&e| e < m).map(|&e| e + 1))
            .collect();
        let mut sol: Vec<(usize, f64, bool)> = vec![(0, 0.0, false); starts.len()];
        // first_speed[i]: FS(starts[i]) of the resolved suffix.
        let mut first_speed: Vec<f64> = vec![0.0; starts.len()];
        for i in (0..starts.len()).rev() {
            let t = starts[i];
            let r_t = inst.release(t);
            let lo = cands.partition_point(|&e| e < t);
            let mut chosen: Option<(usize, f64, bool)> = None;
            for (ci, &e) in cands.iter().enumerate().skip(lo) {
                let jobs = e - t + 1;
                if e == m {
                    // Segment end: the last block always closes tail-u.
                    chosen = Some((ci, u, false));
                    break;
                }
                let avail = inst.release(e + 1) - r_t;
                if avail <= 0.0 {
                    continue; // simultaneous release: can never close here
                }
                if c * self.harmonic[jobs] <= avail {
                    // Fits at tail u: an interior gap (or exact contact).
                    chosen = Some((ci, u, false));
                    break;
                }
                // The suffix from e+1 starts at cands index ci+1 ⟺
                // starts index ci+1 (starts[k] == cands[k-1] + 1).
                let clamp = first_speed[ci + 1] + u;
                // O(1) reject: even with every job at the clamp cascade's
                // fastest position the block overruns r_{e+1}.
                let fastest = clamp + (jobs - 1) as f64 * u;
                if jobs as f64 * self.work * fastest.powf(-self.inv_alpha) > avail {
                    continue;
                }
                if self.block_duration(jobs, clamp, u) <= avail {
                    let v = self.pin_tail(jobs, avail, u, clamp)?;
                    chosen = Some((ci, v, true));
                    break;
                }
            }
            // cands.last() == m always fits, so `chosen` is set.
            let (ci, v, pinned) = chosen.expect("segment end always fits");
            sol[i] = (ci, v, pinned);
            first_speed[i] = v + (cands[ci] - t) as f64 * u;
        }
        // Walk the chain from `a`, emitting blocks in schedule order.
        let mut blocks = Vec::new();
        let mut i = 0usize;
        loop {
            let t = starts[i];
            let (ci, v, pinned) = sol[i];
            let e = cands[ci];
            blocks.push(BusyBlock {
                first: t,
                last: e,
                start: inst.release(t),
                tail: v,
                pinned,
            });
            if e == m {
                break;
            }
            i = ci + 1;
        }
        // The chain's last block always ends at m with tail u.
        let last = blocks.last().expect("chain emits at least one block");
        let end = last.start + c * self.harmonic[last.len()];
        Ok((blocks, end))
    }

    /// Solve the Theorem-1 profile for `u = σ_n^α > 0` directly from the
    /// block decomposition.
    ///
    /// # Errors
    /// As [`solve_for_u`].
    pub fn solve(&self, u: f64) -> Result<FlowSolution, CoreError> {
        self.solve_with_kkt_tol(u, KKT_TOL)
    }

    /// [`FlowWorkspace::solve`] with a caller-chosen Theorem-1 residual
    /// acceptance bar — the degradation ladder's "relaxed verification"
    /// rung (`crate::flow::resilient`). The profile construction is
    /// identical; only the final verification threshold moves.
    pub(crate) fn solve_with_kkt_tol(
        &self,
        u: f64,
        kkt_tol: f64,
    ) -> Result<FlowSolution, CoreError> {
        let blocks = self.decompose(u)?;
        let speeds = self.block_speeds(&blocks, u);
        finish_solution(self.instance, self.alpha, u, speeds, kkt_tol)
    }

    /// `dv/du` of a block's tail value: `1` for tail-`u` blocks; for a
    /// pinned block the (u-independent) time equation forces
    /// `v' = −Σ k·q_k / Σ q_k` with `q_k = (v+ku)^{-1/α-1}`.
    fn block_vprime(&self, b: &BusyBlock, u: f64) -> f64 {
        if !b.pinned {
            return 1.0;
        }
        let mut q = NeumaierSum::new();
        let mut kq = NeumaierSum::new();
        for k in 0..b.len() {
            let x = b.tail + k as f64 * u;
            let qk = x.powf(-self.inv_alpha) / x;
            q.add(qk);
            kq.add(k as f64 * qk);
        }
        -kq.total() / q.total()
    }

    /// `(E, dE/du)` of a decomposed profile:
    /// `E = w·Σ x^{(α−1)/α}` and `dE/du = w·(α−1)/α · Σ x^{-1/α}·(v'+k)`
    /// over cascade values `x = v + k·u` — one `powf` per job, no
    /// verification or packaging, which is what makes it the search-loop
    /// evaluation behind [`FlowWorkspace::laptop`].
    fn accumulate_energy(&self, blocks: &[BusyBlock], u: f64) -> (f64, f64) {
        let mut energy = NeumaierSum::new();
        let mut denergy = NeumaierSum::new();
        for b in blocks {
            let vprime = self.block_vprime(b, u);
            for k in 0..b.len() {
                let x = b.tail + k as f64 * u;
                let p = x.powf(-self.inv_alpha);
                energy.add(self.work * x * p);
                denergy.add((1.0 - self.inv_alpha) * self.work * p * (vprime + k as f64));
            }
        }
        (energy.total(), denergy.total())
    }

    /// `(F, dF/du)` of a decomposed profile: completions accumulate
    /// along each block's contact chain (`1/σ = x^{-1/α}`), and
    /// `dF/du = −w/α · Σ (k+1)·x^{-1/α-1}·(v'+k)`. One `powf` per job,
    /// the server-problem counterpart of
    /// [`FlowWorkspace::accumulate_energy`].
    fn accumulate_flow(&self, blocks: &[BusyBlock], u: f64) -> (f64, f64) {
        let inst = self.instance;
        let mut flow = NeumaierSum::new();
        let mut dflow = NeumaierSum::new();
        for b in blocks {
            let vprime = self.block_vprime(b, u);
            let mut t = b.start;
            for i in b.first..=b.last {
                let k = b.last - i;
                let x = b.tail + k as f64 * u;
                let p = x.powf(-self.inv_alpha);
                t += self.work * p;
                flow.add(t - inst.release(i));
                dflow.add(
                    -self.inv_alpha * self.work * (k + 1) as f64 * (p / x) * (vprime + k as f64),
                );
            }
        }
        (flow.total(), dflow.total())
    }

    /// `(E, dE/du)` at `u` — [`FlowWorkspace::accumulate_energy`] over a
    /// fresh decomposition. Shared with `multi::flow`, whose outer budget
    /// search sums it across processors.
    pub(crate) fn energy_fdf(&self, u: f64) -> Result<(f64, f64), CoreError> {
        let blocks = self.decompose(u)?;
        Ok(self.accumulate_energy(&blocks, u))
    }

    /// `(F, dF/du)` at `u` over a fresh decomposition.
    fn flow_fdf(&self, u: f64) -> Result<(f64, f64), CoreError> {
        let blocks = self.decompose(u)?;
        Ok(self.accumulate_flow(&blocks, u))
    }

    /// Expand a block list into per-job speeds.
    fn block_speeds(&self, blocks: &[BusyBlock], u: f64) -> Vec<f64> {
        let mut speeds = vec![0.0; self.instance.len()];
        for b in blocks {
            for (i, speed) in speeds.iter_mut().enumerate().take(b.last + 1).skip(b.first) {
                *speed = (b.tail + (b.last - i) as f64 * u).powf(self.inv_alpha);
            }
        }
        speeds
    }

    /// Solve the **laptop problem**: minimize flow subject to energy at
    /// most `budget`, to relative tolerance `tol` on the budget. `seed`
    /// warm-starts the `u`-search (e.g. with the previous point of a
    /// curve sweep); `None` falls back to the constant-speed energy
    /// guess.
    ///
    /// # Errors
    /// [`CoreError::InvalidBudget`]; the first solver error encountered
    /// by the search, or a numeric bracket error if the budget is
    /// astronomically out of range.
    pub fn laptop(
        &self,
        budget: f64,
        tol: f64,
        seed: Option<f64>,
    ) -> Result<FlowSolution, CoreError> {
        if !is_positive_finite(budget) {
            return Err(CoreError::InvalidBudget { budget });
        }
        // Constant-speed guess: spending the budget on total work gives
        // σ^{α-1} = E/W, u = σ^α.
        let guess = seed.filter(|s| is_positive_finite(*s)).unwrap_or_else(|| {
            (budget / self.instance.total_work()).powf(self.alpha / (self.alpha - 1.0))
        });
        let mut first_err: Option<CoreError> = None;
        let inverted = invert_monotone_fdf(
            |u| {
                if first_err.is_some() {
                    return (f64::NAN, f64::NAN);
                }
                match self.energy_fdf(u) {
                    Ok(fdf) => fdf,
                    Err(e) => {
                        first_err = Some(e);
                        (f64::NAN, f64::NAN)
                    }
                }
            },
            budget,
            guess,
            0.0,
            budget * tol.max(1e-13),
        );
        let u = resolve_inversion(inverted, first_err)?;
        self.solve(u)
    }

    /// Solve the **server problem**: minimize energy subject to total
    /// flow at most `flow_target`, to relative tolerance `tol`. `seed`
    /// warm-starts the `u`-search; `None` derives the guess from the
    /// constant-speed schedule meeting `flow_target`.
    ///
    /// # Errors
    /// [`CoreError::UnreachableTarget`] for non-positive targets; search
    /// errors as in [`FlowWorkspace::laptop`].
    pub fn server(
        &self,
        flow_target: f64,
        tol: f64,
        seed: Option<f64>,
    ) -> Result<FlowSolution, CoreError> {
        if !is_positive_finite(flow_target) {
            return Err(CoreError::UnreachableTarget {
                reason: format!("flow target {flow_target} must be positive"),
            });
        }
        let guess = seed
            .filter(|s| is_positive_finite(*s))
            .unwrap_or_else(|| self.server_guess(flow_target));
        // Flow decreases in u; invert -flow (increasing).
        let mut first_err: Option<CoreError> = None;
        let inverted = invert_monotone_fdf(
            |u| {
                if first_err.is_some() {
                    return (f64::NAN, f64::NAN);
                }
                match self.flow_fdf(u) {
                    Ok((f, df)) => (-f, -df),
                    Err(e) => {
                        first_err = Some(e);
                        (f64::NAN, f64::NAN)
                    }
                }
            },
            -flow_target,
            guess,
            0.0,
            flow_target * tol.max(1e-13),
        );
        let u = resolve_inversion(inverted, first_err)?;
        self.solve(u)
    }

    /// Flow-derived initial `u`: the constant speed σ whose FIFO schedule
    /// meets `flow_target`, raised to α. Each probe is an O(n) simulate,
    /// so a loose inversion here saves several full solver evaluations of
    /// bracket expansion in the outer search.
    fn server_guess(&self, flow_target: f64) -> f64 {
        let inst = self.instance;
        let constant_flow = |sigma: f64| {
            let mut t = f64::NEG_INFINITY;
            let mut flow = NeumaierSum::new();
            for i in 0..inst.len() {
                let c = inst.release(i).max(t) + self.work / sigma;
                flow.add(c - inst.release(i));
                t = c;
            }
            -flow.total()
        };
        // Non-interfering lower bound on the scale: n jobs of flow w/σ.
        let scale = inst.total_work() / flow_target;
        match invert_monotone(constant_flow, -flow_target, scale, 0.0, 0.05 * flow_target) {
            Ok(sigma) => sigma.powf(self.alpha),
            Err(_) => 1.0,
        }
    }
}

/// Verify a speed profile against the residual acceptance threshold
/// `kkt_tol`, simulate it, and package a [`FlowSolution`] — the shared
/// tail of both engines, so they are compared on identical accounting.
/// The degradation ladder relaxes `kkt_tol` (to ~1e-3) before falling
/// back to the reference engine, trading certified optimality for
/// availability.
fn finish_solution(
    instance: &Instance,
    alpha: f64,
    u: f64,
    speeds: Vec<f64>,
    kkt_tol: f64,
) -> Result<FlowSolution, CoreError> {
    let report = kkt::verify(instance, &speeds, u, alpha, TIME_TOL)?;
    if report.max_residual > kkt_tol {
        return Err(CoreError::VerificationFailed {
            reason: format!(
                "flow profile violates Theorem 1 (residual {})",
                report.max_residual
            ),
        });
    }
    let (starts, completions) = kkt::simulate(instance, &speeds);
    let model = PolyPower::new(alpha);
    let w = instance.work(0);
    let mut flow = NeumaierSum::new();
    let mut energy = NeumaierSum::new();
    for i in 0..instance.len() {
        flow.add(completions[i] - instance.release(i));
        energy.add(model.energy(w, speeds[i]));
    }
    Ok(FlowSolution {
        total_flow: flow.total(),
        energy: energy.total(),
        speeds,
        starts,
        completions,
        u,
        kkt: report,
    })
}

/// Unwrap an outer inversion: a captured solver error takes precedence
/// over the (derived) numeric bracket failure it caused.
pub(crate) fn resolve_inversion(
    inverted: Result<f64, RootError>,
    first_err: Option<CoreError>,
) -> Result<f64, CoreError> {
    match inverted {
        Ok(u) => Ok(u),
        Err(root_err) => Err(first_err.unwrap_or(CoreError::Numeric(root_err))),
    }
}

/// Solve the Theorem-1 profile for a given `u = σ_n^α > 0` by direct
/// block decomposition (one `O(n log n)` sweep; see the module docs).
///
/// Callers evaluating many `u` on the same instance should hold a
/// [`FlowWorkspace`] instead, which caches the `u`-independent sweep
/// state.
///
/// # Errors
/// * [`CoreError::NotEqualWork`] — the §4 algorithm requires equal work;
/// * [`CoreError::InvalidBudget`] — `u <= 0`;
/// * [`CoreError::VerificationFailed`] — the profile failed Theorem-1
///   verification (always a bug, surfaced loudly).
pub fn solve_for_u(instance: &Instance, alpha: f64, u: f64) -> Result<FlowSolution, CoreError> {
    FlowWorkspace::new(instance, alpha)?.solve(u)
}

/// Tolerance knobs for the reference fixed-point iteration.
const MAX_ITERATIONS: usize = 2_000;
const DAMPING_AFTER: usize = 200;
/// Relative per-sweep speed delta accepted as converged. Slow
/// contraction modes put the distance to the fixed point at 10–100×
/// the per-sweep delta, so holding the oracle's *energy* inside the
/// 1e-9 agreement bar needs the delta well under 1e-9 — while the
/// historical 1e-13 sat below the iteration's floating-point noise
/// floor at benchmark sizes and made it spuriously fail.
const SPEED_TOL: f64 = 1e-12;

/// Iteration cap for the reference fixed point. Gauss–Seidel information
/// crosses roughly one boundary per sweep, so the historical 2,000-sweep
/// cap silently starves instances past n ≈ 1000; the cap scales with n
/// so the oracle stays usable at benchmark sizes.
fn iteration_cap(n: usize) -> usize {
    MAX_ITERATIONS.max(6 * n)
}

/// The pre-block-decomposition engine: resolve the Theorem-1 fixed point
/// for `u = σ_n^α` by damped Gauss–Seidel iteration (up to 2,000 `O(n)`
/// sweeps), kept verbatim as the equivalence oracle for [`solve_for_u`]
/// — the same role `yds_reference()` plays for the deadline stack.
///
/// # Errors
/// As [`solve_for_u`], plus [`CoreError::NotConverged`] (reporting the
/// last relative speed delta) when the iteration stalls.
pub fn solve_for_u_reference(
    instance: &Instance,
    alpha: f64,
    u: f64,
) -> Result<FlowSolution, CoreError> {
    solve_for_u_reference_with(instance, alpha, u, PLATEAU_TOL, KKT_TOL)
}

/// Plateau acceptance threshold for the reference fixed point (see the
/// comment at its use site). The degradation ladder widens it (to
/// ~1e-4) on its last-resort rung.
const PLATEAU_TOL: f64 = 1e-8;

/// [`solve_for_u_reference`] with caller-chosen plateau and Theorem-1
/// residual thresholds — the degradation ladder's relaxed-reference
/// rung. The iteration itself is unchanged; only the two acceptance
/// bars move.
pub(crate) fn solve_for_u_reference_with(
    instance: &Instance,
    alpha: f64,
    u: f64,
    plateau_tol: f64,
    kkt_tol: f64,
) -> Result<FlowSolution, CoreError> {
    if !instance.is_equal_work(1e-9) {
        return Err(CoreError::NotEqualWork);
    }
    if !is_positive_finite(u) {
        return Err(CoreError::InvalidBudget { budget: u });
    }
    let n = instance.len();
    let w = instance.work(0);
    let inv_alpha = 1.0 / alpha;
    let sigma_n = u.powf(inv_alpha);

    // One forward-starts + backward-three-case-rule sweep, optionally
    // damped, recording per-job increments when `deltas` is given.
    // Returns the largest relative speed change.
    let sweep = |speeds: &mut [f64],
                 starts: &mut [f64],
                 damped: bool,
                 mut deltas: Option<&mut [f64]>|
     -> f64 {
        // Forward pass: starts from current speeds.
        let mut t = f64::NEG_INFINITY;
        for i in 0..n {
            let s = instance.release(i).max(t);
            starts[i] = s;
            t = s + w / speeds[i];
        }
        // Backward Gauss–Seidel pass: three-case rule per boundary.
        let mut delta = 0.0f64;
        let mut new_last = sigma_n;
        for i in (0..n).rev() {
            let target = if i + 1 == n {
                sigma_n
            } else {
                let r_next = instance.release(i + 1);
                let c_slow = starts[i] + w / sigma_n;
                if c_slow < r_next {
                    // A gap follows even at the minimum speed: Gap case.
                    sigma_n
                } else {
                    let fast = (new_last.powf(alpha) + u).powf(inv_alpha);
                    let c_fast = starts[i] + w / fast;
                    if c_fast > r_next {
                        // Still pushing at the maximum speed: Push case.
                        fast
                    } else {
                        // Boundary: finish exactly at r_{i+1}, clamped
                        // into the Theorem-1 interval.
                        let exact = w / (r_next - starts[i]);
                        exact.clamp(sigma_n, fast)
                    }
                }
            };
            let blended = if damped {
                // Geometric damping if the plain iteration is cycling.
                (speeds[i] * target).sqrt()
            } else {
                target
            };
            delta = delta.max((blended - speeds[i]).abs() / speeds[i].max(1e-300));
            if let Some(d) = deltas.as_deref_mut() {
                d[i] = blended - speeds[i];
            }
            speeds[i] = blended;
            new_last = blended;
        }
        delta
    };

    let mut speeds = vec![sigma_n; n];
    let mut starts = vec![0.0; n];

    let mut converged = false;
    let mut last_delta = f64::INFINITY;
    for iteration in 0..iteration_cap(n) {
        last_delta = sweep(&mut speeds, &mut starts, iteration >= DAMPING_AFTER, None);
        if last_delta < SPEED_TOL {
            converged = true;
            break;
        }
    }
    // Near a configuration-change u the damped iteration settles into a
    // two-cycle whose amplitude tracks the tangency distance, not
    // SPEED_TOL — a genuine noise floor. A quiet plateau is accepted as
    // converged-at-noise-floor (the Theorem-1 verification in
    // finish_solution stays the arbiter of validity), while a loud stall
    // — a real non-convergence, like the pre-PR-2 divergences — keeps
    // erroring with the actual last delta.
    if !converged && last_delta >= plateau_tol {
        return Err(CoreError::NotConverged {
            solver: "flow fixed point",
            residual: last_delta,
        });
    }
    // Aitken Δ² finish: long pinned blocks carry a slow contraction mode
    // (error up to ~10⁴× the per-sweep delta, far beyond any reachable
    // SPEED_TOL), so estimate the dominant ratio ρ from two more *damped*
    // sweeps — the convergent sequence; an undamped probe can jump a
    // branch and diverge wildly — and extrapolate the remaining
    // geometric tail in one step, repeated for a few rounds since one
    // extrapolation of a noisy ρ only removes part of the tail. Each
    // candidate is adopted only if it *measures* better — smaller
    // Theorem-1 residual — than the best so far, so a mis-estimated ρ
    // can never make the oracle worse than the plain damped iterate.
    let residual = |sp: &[f64]| {
        kkt::verify(instance, sp, u, alpha, TIME_TOL)
            .map(|r| r.max_residual)
            .unwrap_or(f64::INFINITY)
    };
    let norm = |d: &[f64]| d.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let mut d1 = vec![0.0; n];
    let mut d2 = vec![0.0; n];
    let mut best = speeds.clone();
    let mut best_residual = residual(&speeds);
    for _round in 0..3 {
        sweep(&mut speeds, &mut starts, true, Some(&mut d1));
        sweep(&mut speeds, &mut starts, true, Some(&mut d2));
        // The probe sweeps themselves are candidates (undamped steps at
        // a two-cycle drift at the cycle amplitude, so they may also be
        // worse — they only ever enter through the residual test).
        let plain = residual(&speeds);
        if plain < best_residual {
            best_residual = plain;
            best = speeds.clone();
        }
        let (n1, n2) = (norm(&d1), norm(&d2));
        if !(n2 > 0.0 && n2 < n1) {
            break;
        }
        let factor = (n2 / n1) / (1.0 - n2 / n1);
        let extrapolated: Vec<f64> = speeds
            .iter()
            .zip(&d2)
            .map(|(s, d)| s + d * factor)
            .collect();
        let r = residual(&extrapolated);
        if r < best_residual {
            best_residual = r;
            best = extrapolated.clone();
            speeds = extrapolated;
        } else {
            break;
        }
    }
    finish_solution(instance, alpha, u, best, kkt_tol)
}

/// Solve the **laptop problem** for total flow: minimize flow subject to
/// energy at most `budget`, to relative tolerance `tol` on the budget.
///
/// One-shot wrapper over [`FlowWorkspace::laptop`]; sweeps should hold
/// the workspace themselves (see [`crate::flow::curve`]).
///
/// # Errors
/// Equal-work and budget validation as in [`solve_for_u`]; the first
/// real solver error met by the search, or numeric bracket errors if the
/// budget is astronomically out of range.
pub fn laptop(
    instance: &Instance,
    alpha: f64,
    budget: f64,
    tol: f64,
) -> Result<FlowSolution, CoreError> {
    FlowWorkspace::new(instance, alpha)?.laptop(budget, tol, None)
}

/// Solve the **server problem** for total flow: minimize energy subject
/// to total flow at most `flow_target`, to relative tolerance `tol`.
///
/// One-shot wrapper over [`FlowWorkspace::server`].
///
/// # Errors
/// [`CoreError::UnreachableTarget`] for non-positive targets; search
/// errors as in [`laptop`].
pub fn server(
    instance: &Instance,
    alpha: f64,
    flow_target: f64,
    tol: f64,
) -> Result<FlowSolution, CoreError> {
    FlowWorkspace::new(instance, alpha)?.server(flow_target, tol, None)
}

/// [`laptop`] driven by the reference fixed-point engine and cold
/// bisection — the pre-optimization outer path, kept for the
/// `flow_equivalence` tests and the `BENCH_flow.json` scaling record.
///
/// # Errors
/// As [`laptop`].
pub fn laptop_reference(
    instance: &Instance,
    alpha: f64,
    budget: f64,
    tol: f64,
) -> Result<FlowSolution, CoreError> {
    if !is_positive_finite(budget) {
        return Err(CoreError::InvalidBudget { budget });
    }
    if !instance.is_equal_work(1e-9) {
        return Err(CoreError::NotEqualWork);
    }
    let guess = (budget / instance.total_work()).powf(alpha / (alpha - 1.0));
    let mut first_err: Option<CoreError> = None;
    let inverted = invert_monotone(
        |u| {
            if first_err.is_some() {
                return f64::NAN;
            }
            match solve_for_u_reference(instance, alpha, u) {
                Ok(s) => s.energy,
                Err(e) => {
                    first_err = Some(e);
                    f64::NAN
                }
            }
        },
        budget,
        guess,
        0.0,
        budget * tol.max(1e-13),
    );
    let u = resolve_inversion(inverted, first_err)?;
    solve_for_u_reference(instance, alpha, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_workload::generators;

    #[test]
    fn single_job_all_budget() {
        let inst = Instance::equal_work(&[0.0], 1.0).unwrap();
        let sol = laptop(&inst, 3.0, 4.0, 1e-10).unwrap();
        // Energy w·σ² = 4 -> σ = 2, flow = 1/2.
        assert!((sol.speeds[0] - 2.0).abs() < 1e-6);
        assert!((sol.total_flow - 0.5).abs() < 1e-6);
    }

    #[test]
    fn well_separated_jobs_run_at_equal_speed() {
        // Gaps between all jobs: every job at σ_n (Gap configuration).
        let inst = Instance::equal_work(&[0.0, 100.0, 200.0], 1.0).unwrap();
        let sol = laptop(&inst, 3.0, 12.0, 1e-10).unwrap();
        for s in &sol.speeds {
            assert!((s - sol.speeds[2]).abs() < 1e-9, "{:?}", sol.speeds);
        }
        // Energy 3·σ² = 12 -> σ = 2.
        assert!((sol.speeds[0] - 2.0).abs() < 1e-6);
        assert_eq!(sol.kkt.signature(), "GG");
    }

    #[test]
    fn simultaneous_jobs_use_cascading_speeds() {
        // All jobs at t=0: pure Push configuration;
        // σ_i^α = (n - i)·u (1-indexed from the back).
        let inst = Instance::equal_work(&[0.0, 0.0, 0.0], 1.0).unwrap();
        let sol = solve_for_u(&inst, 3.0, 1.0).unwrap();
        assert_eq!(sol.kkt.signature(), "PP");
        let want = [3f64, 2.0, 1.0].map(|k| k.powf(1.0 / 3.0));
        for (got, want) in sol.speeds.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{:?}", sol.speeds);
        }
    }

    #[test]
    fn decompose_reports_blocks_and_pins() {
        // Hardness witness inside its boundary window: jobs 0,1 form a
        // pinned block completing exactly at r_2 = 1, job 2 is the tail.
        let inst = Instance::equal_work(&[0.0, 0.0, 1.0], 1.0).unwrap();
        let ws = FlowWorkspace::new(&inst, 3.0).unwrap();
        let sol = ws.laptop(11.0, 1e-12, None).unwrap();
        let blocks = ws.decompose(sol.u).unwrap();
        assert_eq!(blocks.len(), 2, "{blocks:?}");
        assert_eq!((blocks[0].first, blocks[0].last), (0, 1));
        assert!(blocks[0].pinned);
        assert_eq!(blocks[0].len(), 2);
        assert!(!blocks[0].is_empty());
        // Pinned block completes exactly at the next release.
        assert!((sol.completions[1] - 1.0).abs() < 1e-9);
        assert!(!blocks[1].pinned);
        assert!((blocks[1].tail - sol.u).abs() < 1e-12);
        // Far apart: every block is a tail-u singleton.
        let sparse = Instance::equal_work(&[0.0, 50.0, 100.0], 1.0).unwrap();
        let wss = FlowWorkspace::new(&sparse, 3.0).unwrap();
        let blocks = wss.decompose(2.0).unwrap();
        assert_eq!(blocks.len(), 3);
        assert!(blocks.iter().all(|b| !b.pinned && b.tail == 2.0));
    }

    #[test]
    fn sensitivity_matches_finite_differences() {
        let inst = Instance::equal_work(&[0.0, 0.2, 0.5, 0.9, 4.0], 1.0).unwrap();
        let ws = FlowWorkspace::new(&inst, 3.0).unwrap();
        for &u in &[0.4, 1.0, 3.0] {
            let blocks = ws.decompose(u).unwrap();
            let (_, denergy_du) = ws.accumulate_energy(&blocks, u);
            let (_, dflow_du) = ws.accumulate_flow(&blocks, u);
            let h = 1e-6 * u;
            let up = ws.solve(u + h).unwrap();
            let dn = ws.solve(u - h).unwrap();
            let de = (up.energy - dn.energy) / (2.0 * h);
            let df = (up.total_flow - dn.total_flow) / (2.0 * h);
            assert!(
                (denergy_du - de).abs() < 1e-4 * de.abs().max(1.0),
                "u={u}: dE/du {denergy_du} vs FD {de}"
            );
            assert!(
                (dflow_du - df).abs() < 1e-4 * df.abs().max(1.0),
                "u={u}: dF/du {dflow_du} vs FD {df}"
            );
            assert!(denergy_du > 0.0);
            assert!(dflow_du < 0.0);
        }
    }

    #[test]
    fn laptop_hits_budget_and_verifies() {
        let inst = Instance::equal_work(&[0.0, 0.5, 0.9, 3.0, 3.1], 1.0).unwrap();
        for &e in &[2.0, 5.0, 10.0, 40.0] {
            let sol = laptop(&inst, 3.0, e, 1e-10).unwrap();
            assert!((sol.energy - e).abs() < 1e-6 * e, "E={e}: {}", sol.energy);
            assert!(sol.kkt.max_residual < 1e-6);
            // Schedule is structurally legal.
            sol.to_schedule(&inst).validate(&inst, 1e-6).unwrap();
        }
    }

    #[test]
    fn warm_seed_reproduces_cold_solution() {
        let inst = generators::equal_work_poisson(40, 1.0, 1.0, 7);
        let ws = FlowWorkspace::new(&inst, 3.0).unwrap();
        let cold = ws.laptop(30.0, 1e-11, None).unwrap();
        // Seed from a neighbouring budget's solution.
        let neighbour = ws.laptop(33.0, 1e-11, None).unwrap();
        let warm = ws.laptop(30.0, 1e-11, Some(neighbour.u)).unwrap();
        assert!(
            (warm.energy - cold.energy).abs() < 1e-8 * cold.energy,
            "warm {} vs cold {}",
            warm.energy,
            cold.energy
        );
        assert!((warm.u - cold.u).abs() < 1e-7 * cold.u);
        // A degenerate seed falls back to the cold guess.
        let fallback = ws.laptop(30.0, 1e-11, Some(f64::NAN)).unwrap();
        assert!((fallback.energy - cold.energy).abs() < 1e-8 * cold.energy);
    }

    #[test]
    fn flow_decreases_with_budget() {
        let inst = Instance::equal_work(&[0.0, 1.0, 1.5, 4.0], 2.0).unwrap();
        let mut prev = f64::INFINITY;
        for &e in &[4.0, 8.0, 16.0, 32.0, 64.0] {
            let sol = laptop(&inst, 3.0, e, 1e-10).unwrap();
            assert!(sol.total_flow < prev, "E={e}");
            prev = sol.total_flow;
        }
    }

    #[test]
    fn server_round_trips_laptop() {
        let inst = Instance::equal_work(&[0.0, 0.4, 2.0], 1.0).unwrap();
        let lap = laptop(&inst, 3.0, 9.0, 1e-11).unwrap();
        let srv = server(&inst, 3.0, lap.total_flow, 1e-11).unwrap();
        assert!(
            (srv.energy - 9.0).abs() < 1e-4 * 9.0,
            "server energy {} for flow {}",
            srv.energy,
            lap.total_flow
        );
    }

    #[test]
    fn energy_is_monotone_in_u() {
        let inst = Instance::equal_work(&[0.0, 0.3, 0.5, 2.0], 1.0).unwrap();
        let ws = FlowWorkspace::new(&inst, 3.0).unwrap();
        let mut prev = 0.0;
        for k in 1..30 {
            let u = 0.25 * k as f64;
            let e = ws.solve(u).unwrap().energy;
            assert!(e > prev, "u={u}: {e} !> {prev}");
            prev = e;
        }
    }

    #[test]
    fn random_instances_satisfy_theorem1() {
        for seed in 0..15 {
            let inst = generators::equal_work_poisson(12, 1.2, 1.0, seed);
            for &e in &[5.0, 20.0, 60.0] {
                let sol = laptop(&inst, 3.0, e, 1e-9).unwrap();
                assert!(
                    sol.kkt.max_residual < 1e-6,
                    "seed {seed} E={e}: residual {}",
                    sol.kkt.max_residual
                );
            }
        }
    }

    #[test]
    fn alpha_two_also_works() {
        let inst = Instance::equal_work(&[0.0, 0.2, 0.6], 1.0).unwrap();
        let sol = laptop(&inst, 2.0, 6.0, 1e-10).unwrap();
        assert!((sol.energy - 6.0).abs() < 1e-6 * 6.0);
        assert!(sol.kkt.max_residual < 1e-6);
    }

    #[test]
    fn rejects_unequal_work_and_bad_budget() {
        let uneq = Instance::from_pairs(&[(0.0, 1.0), (1.0, 2.0)]).unwrap();
        assert!(matches!(
            laptop(&uneq, 3.0, 5.0, 1e-9),
            Err(CoreError::NotEqualWork)
        ));
        assert!(matches!(
            solve_for_u_reference(&uneq, 3.0, 1.0),
            Err(CoreError::NotEqualWork)
        ));
        let inst = Instance::equal_work(&[0.0, 1.0], 1.0).unwrap();
        assert!(laptop(&inst, 3.0, 0.0, 1e-9).is_err());
        assert!(laptop_reference(&inst, 3.0, 0.0, 1e-9).is_err());
        assert!(server(&inst, 3.0, -1.0, 1e-9).is_err());
        assert!(solve_for_u(&inst, 3.0, 0.0).is_err());
        assert!(solve_for_u_reference(&inst, 3.0, 0.0).is_err());
    }

    #[test]
    fn reference_engine_agrees_with_block_engine() {
        // The full family sweep lives in tests/flow_equivalence.rs; this
        // is the in-crate smoke version.
        let inst = generators::equal_work_poisson(20, 1.5, 1.0, 3);
        for &u in &[0.3, 1.0, 4.0] {
            let fast = solve_for_u(&inst, 3.0, u).unwrap();
            let slow = solve_for_u_reference(&inst, 3.0, u).unwrap();
            assert!(
                (fast.energy - slow.energy).abs() < 1e-9 * slow.energy,
                "u={u}: {} vs {}",
                fast.energy,
                slow.energy
            );
            assert!(
                (fast.total_flow - slow.total_flow).abs() < 1e-9 * slow.total_flow,
                "u={u}: {} vs {}",
                fast.total_flow,
                slow.total_flow
            );
        }
    }

    #[test]
    fn laptop_reference_matches_laptop() {
        let inst = generators::equal_work_poisson(15, 1.0, 1.0, 11);
        for &e in &[6.0, 18.0] {
            let fast = laptop(&inst, 3.0, e, 1e-10).unwrap();
            let slow = laptop_reference(&inst, 3.0, e, 1e-10).unwrap();
            assert!((fast.energy - slow.energy).abs() < 1e-8 * e);
            assert!(
                (fast.total_flow - slow.total_flow).abs() < 1e-7 * slow.total_flow,
                "{} vs {}",
                fast.total_flow,
                slow.total_flow
            );
        }
    }

    #[test]
    fn errors_propagate_as_core_errors_not_bracket_noise() {
        // An unreachable target must surface as a numeric error (no
        // solver failure happened), while a solver failure inside the
        // search must surface as itself. Drive the latter through the
        // public API with an invalid u via solve(), and the former via a
        // flow target below any achievable flow.
        let inst = Instance::equal_work(&[0.0, 0.1], 1.0).unwrap();
        let err = server(&inst, 3.0, 1e-280, 1e-9).unwrap_err();
        assert!(
            matches!(err, CoreError::Numeric(_)),
            "unreachable target should be a numeric bracket error, got {err:?}"
        );
    }

    #[test]
    fn flow_beats_makespan_style_constant_speed() {
        // The flow optimum should not exceed the flow of the best
        // constant-speed schedule with the same energy.
        let inst = Instance::equal_work(&[0.0, 0.1, 0.2, 5.0], 1.0).unwrap();
        let e = 16.0;
        let sol = laptop(&inst, 3.0, e, 1e-10).unwrap();
        // Constant speed σ with 4 unit jobs: energy 4σ² = 16 -> σ = 2.
        let constant = {
            let speeds = vec![2.0, 2.0, 2.0, 2.0];
            let (_, completions) = kkt::simulate(&inst, &speeds);
            completions
                .iter()
                .zip(inst.jobs())
                .map(|(c, j)| c - j.release)
                .sum::<f64>()
        };
        assert!(
            sol.total_flow <= constant + 1e-9,
            "optimal {} vs constant {constant}",
            sol.total_flow
        );
    }
}
