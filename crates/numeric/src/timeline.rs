//! The timeline engine: shared infrastructure for interval and
//! prefix-sum queries over job time windows.
//!
//! Every algorithm in the deadline stack (YDS, AVR, OA) and several of
//! the paper's own solvers reduce to the same three primitives over a
//! set of time points:
//!
//! * [`EventAxis`] — a coordinate-compressed axis of event times
//!   (releases, deadlines): build once in `O(n log n)`, then map any
//!   event time to its dense rank in `O(log n)`.
//! * [`Fenwick`] — a binary-indexed tree over the compressed axis:
//!   `O(log n)` point updates and prefix sums, used to answer "how much
//!   work has deadline rank `< k`" style queries without rescanning jobs.
//! * [`IntervalSet`] — a sorted, disjoint set of closed intervals with
//!   coalescing insert and `O(log n)`-lookup measure/gap queries against
//!   maintained prefix lengths. This is the explicit-blocked-time
//!   representation YDS uses instead of the textbook "contract the
//!   timeline" step, shared so AVR/OA/experiments stop growing their own
//!   ad-hoc blocked lists.
//!
//! All comparisons are tolerance-free (`f64::total_cmp`); callers decide
//! where epsilons belong — AVR and OA use [`EventAxis`]/[`Fenwick`]
//! directly, while the YDS sweep layers its own EPS-clustered coordinates
//! (see `pas-core`'s `deadline::yds`) over the [`IntervalSet`] and
//! [`TimeKey`]. The structures are deliberately allocation-lean: the hot
//! paths see nothing but linear scans and binary searches.

/// A coordinate-compressed, sorted axis of event times.
///
/// Times equal under `total_cmp` collapse to one coordinate. Dedup uses
/// the *same* equality as [`rank_of`](EventAxis::rank_of)'s binary
/// search, so every time fed into the axis is guaranteed findable
/// (`-0.0` and `+0.0` stay distinct coordinates at the same numeric
/// point; `PartialEq` dedup would merge them and strand `rank_of(0.0)`).
#[derive(Debug, Clone, Default)]
pub struct EventAxis {
    times: Vec<f64>,
}

impl EventAxis {
    /// Build the axis from arbitrary (unsorted, duplicated) times.
    pub fn new(times: impl IntoIterator<Item = f64>) -> Self {
        let mut times: Vec<f64> = times.into_iter().collect();
        times.sort_by(f64::total_cmp);
        times.dedup_by(|a, b| a.total_cmp(b).is_eq());
        EventAxis { times }
    }

    /// Number of distinct coordinates.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the axis has no coordinates.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The time at dense rank `rank`.
    ///
    /// # Panics
    /// If `rank` is out of bounds.
    pub fn time(&self, rank: usize) -> f64 {
        self.times[rank]
    }

    /// The sorted distinct times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Dense rank of an exact event time (`None` if `t` is not an event).
    pub fn rank_of(&self, t: f64) -> Option<usize> {
        self.times
            .binary_search_by(|probe| probe.total_cmp(&t))
            .ok()
    }

    /// Number of coordinates strictly below `t` (a lower-bound rank for
    /// arbitrary, not-necessarily-event times).
    pub fn rank_below(&self, t: f64) -> usize {
        self.times.partition_point(|&probe| probe < t)
    }
}

/// A `(time, index)` ordering key for binary heaps over timeline events.
///
/// Orders by time under `f64::total_cmp` (via an order-preserving bit
/// transform, so *any* finite or non-finite time is safe — no
/// positive-only caveat), then by index for deterministic tie-breaks.
/// The deadline-stack schedulers use `Reverse<TimeKey>` for
/// earliest-deadline-first heaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimeKey {
    key: u64,
    index: usize,
}

impl TimeKey {
    /// Key ordering `time` (by `total_cmp`) then `index`.
    pub fn new(time: f64, index: usize) -> Self {
        // Standard monotone f64→u64 map: flip all bits of negatives,
        // set the sign bit of non-negatives.
        let bits = time.to_bits();
        let key = if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        };
        TimeKey { key, index }
    }

    /// The payload index.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// A Fenwick (binary-indexed) tree of `f64` accumulators.
///
/// `O(log n)` point add and prefix sum; used as the work accumulator
/// keyed by compressed (release-rank, deadline-rank) coordinates.
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<f64>,
}

impl Fenwick {
    /// A tree over `n` zero-initialized slots.
    pub fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0.0; n + 1],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Whether the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.tree.len() <= 1
    }

    /// Add `delta` at slot `i`.
    ///
    /// # Panics
    /// If `i` is out of bounds.
    pub fn add(&mut self, i: usize, delta: f64) {
        assert!(i < self.tree.len() - 1, "Fenwick index out of bounds");
        let mut k = i + 1;
        while k < self.tree.len() {
            self.tree[k] += delta;
            k += k & k.wrapping_neg();
        }
    }

    /// Sum of slots `0..count`.
    ///
    /// # Panics
    /// If `count` exceeds the slot count.
    pub fn prefix_sum(&self, count: usize) -> f64 {
        assert!(count < self.tree.len(), "Fenwick prefix out of bounds");
        let mut sum = 0.0;
        let mut k = count;
        while k > 0 {
            sum += self.tree[k];
            k -= k & k.wrapping_neg();
        }
        sum
    }
}

/// A sorted set of disjoint closed intervals with coalescing insert and
/// logarithmic measure/gap queries.
///
/// Inserting an interval merges it with any overlapping or
/// (within `merge_eps`) abutting neighbors, so the set stays disjoint and
/// sorted. A prefix-length table is maintained alongside, making
/// [`coverage_up_to`](IntervalSet::coverage_up_to) one binary search.
/// Insertion splices a `Vec`, so it is `O(log n)` to locate plus `O(n)`
/// to shift in the worst case — amortized far lower here because YDS
/// inserts one interval per round and merges shrink the set.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    /// Disjoint `(start, end)` pairs, sorted by start.
    intervals: Vec<(f64, f64)>,
    /// `prefix[i]` = total length of `intervals[..i]`.
    prefix: Vec<f64>,
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// The disjoint intervals, sorted by start.
    pub fn intervals(&self) -> &[(f64, f64)] {
        &self.intervals
    }

    /// Number of disjoint intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Insert `[start, end]`, merging overlapping or `merge_eps`-abutting
    /// neighbors.
    ///
    /// # Panics
    /// If `start > end` or either bound is not finite.
    pub fn insert(&mut self, start: f64, end: f64, merge_eps: f64) {
        assert!(
            start.is_finite() && end.is_finite() && start <= end,
            "IntervalSet::insert requires a finite, ordered interval"
        );
        // First interval whose end reaches the new start; everything from
        // here to `hi` merges into the inserted interval.
        let lo = self
            .intervals
            .partition_point(|&(_, b)| b < start - merge_eps);
        let hi = self
            .intervals
            .partition_point(|&(a, _)| a <= end + merge_eps);
        let merged = if lo < hi {
            (
                start.min(self.intervals[lo].0),
                end.max(self.intervals[hi - 1].1),
            )
        } else {
            (start, end)
        };
        self.intervals.splice(lo..hi, [merged]);
        self.rebuild_prefix_from(lo);
    }

    fn rebuild_prefix_from(&mut self, index: usize) {
        self.prefix.truncate(index.min(self.prefix.len()));
        while self.prefix.len() < self.intervals.len() {
            let i = self.prefix.len();
            let prev = if i == 0 {
                0.0
            } else {
                self.prefix[i - 1] + (self.intervals[i - 1].1 - self.intervals[i - 1].0)
            };
            self.prefix.push(prev);
        }
    }

    /// Covered length in `(-∞, t]`: full lengths of intervals ending
    /// before `t` plus the partial overlap of the one straddling `t`.
    pub fn coverage_up_to(&self, t: f64) -> f64 {
        // First interval with end >= t: all earlier ones count fully.
        let i = self.intervals.partition_point(|&(_, b)| b < t);
        let full = if i == 0 {
            0.0
        } else {
            self.prefix[i - 1] + (self.intervals[i - 1].1 - self.intervals[i - 1].0)
        };
        let partial = match self.intervals.get(i) {
            Some(&(a, b)) => (t.min(b) - a).max(0.0),
            None => 0.0,
        };
        full + partial
    }

    /// The maximal *uncovered* sub-intervals of `[start, end]`, dropping
    /// gaps of length `<= min_gap`.
    pub fn gaps_between(&self, start: f64, end: f64, min_gap: f64) -> Vec<(f64, f64)> {
        let mut gaps = Vec::new();
        let mut cursor = start;
        // First interval that could overlap [start, end].
        let from = self.intervals.partition_point(|&(_, b)| b <= start);
        for &(a, b) in &self.intervals[from..] {
            if a >= end {
                break;
            }
            if a > cursor && a.min(end) - cursor > min_gap {
                gaps.push((cursor, a.min(end)));
            }
            cursor = cursor.max(b);
            if cursor >= end {
                break;
            }
        }
        if end - cursor > min_gap {
            gaps.push((cursor, end));
        }
        gaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_compresses_and_ranks() {
        let axis = EventAxis::new([3.0, 1.0, 2.0, 1.0, 3.0]);
        assert_eq!(axis.times(), &[1.0, 2.0, 3.0]);
        assert_eq!(axis.rank_of(2.0), Some(1));
        assert_eq!(axis.rank_of(2.5), None);
        assert_eq!(axis.rank_below(2.0), 1);
        assert_eq!(axis.rank_below(2.5), 2);
        assert_eq!(axis.time(2), 3.0);
    }

    #[test]
    fn axis_keeps_negative_zero_findable() {
        // -0.0 and +0.0 are distinct under total_cmp; merging them (as
        // PartialEq dedup would) makes rank_of(0.0) return None.
        let axis = EventAxis::new([-0.0, 0.0, 1.0]);
        assert_eq!(axis.len(), 3);
        assert_eq!(axis.rank_of(-0.0), Some(0));
        assert_eq!(axis.rank_of(0.0), Some(1));
        assert_eq!(axis.rank_of(1.0), Some(2));
    }

    #[test]
    fn time_key_orders_by_total_cmp_then_index() {
        let mut keys = [
            TimeKey::new(2.0, 0),
            TimeKey::new(-1.0, 1),
            TimeKey::new(0.0, 2),
            TimeKey::new(-0.0, 3),
            TimeKey::new(2.0, 1),
            TimeKey::new(f64::INFINITY, 0),
        ];
        keys.sort();
        let order: Vec<usize> = keys.iter().map(TimeKey::index).collect();
        // -1.0 < -0.0 < +0.0 < 2.0 (idx 0 then 1) < inf.
        assert_eq!(order, vec![1, 3, 2, 0, 1, 0]);
    }

    #[test]
    fn fenwick_prefix_sums() {
        let mut f = Fenwick::new(8);
        f.add(0, 1.0);
        f.add(3, 2.5);
        f.add(7, 4.0);
        assert_eq!(f.prefix_sum(0), 0.0);
        assert_eq!(f.prefix_sum(1), 1.0);
        assert_eq!(f.prefix_sum(4), 3.5);
        assert_eq!(f.prefix_sum(8), 7.5);
        f.add(3, -2.5);
        assert_eq!(f.prefix_sum(8), 5.0);
    }

    #[test]
    fn fenwick_matches_naive_on_random_patterns() {
        let n = 64;
        let mut f = Fenwick::new(n);
        let mut naive = vec![0.0f64; n];
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..500 {
            let i = (next() % n as u64) as usize;
            let delta = (next() % 1000) as f64 / 100.0 - 5.0;
            f.add(i, delta);
            naive[i] += delta;
            let k = (next() % (n as u64 + 1)) as usize;
            let expect: f64 = naive[..k].iter().sum();
            assert!((f.prefix_sum(k) - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn interval_set_inserts_and_merges() {
        let mut s = IntervalSet::new();
        s.insert(1.0, 2.0, 1e-9);
        s.insert(4.0, 5.0, 1e-9);
        assert_eq!(s.intervals(), &[(1.0, 2.0), (4.0, 5.0)]);
        // Bridging insert merges everything.
        s.insert(1.5, 4.5, 1e-9);
        assert_eq!(s.intervals(), &[(1.0, 5.0)]);
        assert!((s.coverage_up_to(f64::INFINITY) - 4.0).abs() < 1e-12);
        // Abutting within eps merges too.
        s.insert(5.0 + 1e-12, 6.0, 1e-9);
        assert_eq!(s.len(), 1);
        assert!((s.coverage_up_to(f64::INFINITY) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn measure_and_coverage() {
        let mut s = IntervalSet::new();
        s.insert(1.0, 3.0, 1e-9);
        s.insert(5.0, 6.0, 1e-9);
        assert!((s.coverage_up_to(0.0) - 0.0).abs() < 1e-12);
        assert!((s.coverage_up_to(2.0) - 1.0).abs() < 1e-12);
        assert!((s.coverage_up_to(4.0) - 2.0).abs() < 1e-12);
        assert!((s.coverage_up_to(10.0) - 3.0).abs() < 1e-12);
        assert!((s.coverage_up_to(5.5) - s.coverage_up_to(2.0) - 1.5).abs() < 1e-12);
        assert!((s.coverage_up_to(5.0) - s.coverage_up_to(3.0)).abs() < 1e-12);
    }

    #[test]
    fn gaps_complement_the_measure() {
        let mut s = IntervalSet::new();
        s.insert(2.0, 3.0, 1e-9);
        s.insert(4.0, 6.0, 1e-9);
        let gaps = s.gaps_between(1.0, 7.0, 1e-9);
        assert_eq!(gaps, vec![(1.0, 2.0), (3.0, 4.0), (6.0, 7.0)]);
        let gap_len: f64 = gaps.iter().map(|(a, b)| b - a).sum();
        assert!((gap_len + s.coverage_up_to(7.0) - s.coverage_up_to(1.0) - 6.0).abs() < 1e-12);
        // Window entirely inside one interval: no gaps.
        assert!(s.gaps_between(4.2, 5.8, 1e-9).is_empty());
        // Window before everything: one full gap.
        assert_eq!(s.gaps_between(0.0, 1.0, 1e-9), vec![(0.0, 1.0)]);
    }

    #[test]
    fn interval_set_matches_naive_merge_under_random_inserts() {
        let mut s = IntervalSet::new();
        let mut naive: Vec<(f64, f64)> = Vec::new();
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let a = next() * 100.0;
            let b = a + next() * 10.0;
            s.insert(a, b, 0.0);
            naive.push((a, b));
            naive.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut merged: Vec<(f64, f64)> = Vec::new();
            for &(x, y) in &naive {
                match merged.last_mut() {
                    Some(last) if x <= last.1 => last.1 = last.1.max(y),
                    _ => merged.push((x, y)),
                }
            }
            naive = merged.clone();
            assert_eq!(s.intervals(), naive.as_slice());
            let q = next() * 120.0;
            let naive_cov: f64 = naive.iter().map(|&(x, y)| (y.min(q) - x).max(0.0)).sum();
            assert!((s.coverage_up_to(q) - naive_cov).abs() < 1e-9);
        }
    }
}
