//! Incremental sorted load vectors with `O(log m)` waterfill bounds.
//!
//! The §5 multiprocessor partition solver (`pas-core`'s
//! `multi::partition`) runs a branch and bound over
//! per-processor load sums whose pruning bound is a *divisible
//! relaxation*: water-fill the remaining work onto the lowest loads and
//! take the resulting `Σ L_p^α`. Recomputing that bound naively is a
//! sort plus `m` calls to `powf` at **every search node** — the dominant
//! cost of the whole search. [`SortedLoads`] maintains the loads sorted
//! with prefix sums of both the loads and their `α`-th powers, so a
//! push/pop moves one slot by rotation (`O(shift)` swaps, one `powf`)
//! and the waterfill bound becomes a binary search over the prefix
//! table plus a single `powf` for the water level.
//!
//! Exactness: pops restore the *caller-saved* previous `(load, pow)`
//! pair bit-for-bit (no `+w` then `-w` rounding walk), and the prefix
//! tables are lazily rebuilt from the current loads rather than patched
//! with deltas, so no floating-point drift accumulates over a long
//! search — the same discipline the timeline engine's
//! [`Fenwick`](crate::timeline::Fenwick) users apply at their call
//! sites.

/// A multiset of `m` non-negative loads under point raises/lowers, kept
/// sorted with lazily-refreshed prefix sums of loads and `load^α`.
///
/// Slots are identified by stable ids `0..m` (processor numbers); the
/// sorted order is maintained internally. All comparisons use
/// `f64::total_cmp`.
#[derive(Debug, Clone)]
pub struct SortedLoads {
    alpha: f64,
    /// Load per slot id.
    loads: Vec<f64>,
    /// `loads[s]^alpha` per slot id, updated in lockstep.
    pows: Vec<f64>,
    /// Slot ids in ascending load order.
    order: Vec<usize>,
    /// Inverse of `order`: position of each slot id.
    pos: Vec<usize>,
    /// `pref_load[i]` = sum of the `i` smallest loads (valid up to
    /// `valid`). Length `m + 1`.
    pref_load: Vec<f64>,
    /// `pref_pow[i]` = sum of the `i` smallest loads' `α`-powers.
    pref_pow: Vec<f64>,
    /// Prefix entries `0..=valid` are current.
    valid: usize,
}

impl SortedLoads {
    /// `m` zero loads under exponent `alpha`.
    ///
    /// # Panics
    /// If `m == 0` or `alpha` is not finite.
    pub fn new(m: usize, alpha: f64) -> Self {
        assert!(m > 0, "need at least one slot");
        assert!(alpha.is_finite(), "alpha must be finite");
        SortedLoads {
            alpha,
            loads: vec![0.0; m],
            pows: vec![0.0; m],
            order: (0..m).collect(),
            pos: (0..m).collect(),
            pref_load: vec![0.0; m + 1],
            pref_pow: vec![0.0; m + 1],
            valid: m,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// Whether there are no slots (never true — `new` rejects `m = 0`).
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// The exponent the power sums use.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current load of a slot.
    pub fn load(&self, slot: usize) -> f64 {
        self.loads[slot]
    }

    /// Current `load^α` of a slot.
    pub fn pow(&self, slot: usize) -> f64 {
        self.pows[slot]
    }

    /// The slot id at ascending-load position `p`.
    pub fn slot_at(&self, p: usize) -> usize {
        self.order[p]
    }

    /// `Σ load^α` over all slots — the `L_α` norm (to the `α`) of the
    /// vector. Refreshes the prefix tables.
    pub fn total_pow(&mut self) -> f64 {
        self.refresh();
        self.pref_pow[self.loads.len()]
    }

    /// Raise `slot` to `new_load` (≥ its current load), updating the
    /// sorted order by rotation. One `powf`.
    ///
    /// Returns the previous `(load, pow)` pair; hand it back to
    /// [`lower_to`](SortedLoads::lower_to) to undo this raise exactly.
    pub fn raise(&mut self, slot: usize, new_load: f64) -> (f64, f64) {
        let prev = (self.loads[slot], self.pows[slot]);
        debug_assert!(new_load.total_cmp(&prev.0).is_ge(), "raise must not lower");
        self.loads[slot] = new_load;
        self.pows[slot] = new_load.powf(self.alpha);
        let mut p = self.pos[slot];
        self.valid = self.valid.min(p);
        while p + 1 < self.order.len() && self.loads[self.order[p + 1]].total_cmp(&new_load).is_lt()
        {
            self.swap_positions(p, p + 1);
            p += 1;
        }
        prev
    }

    /// Undo a [`raise`](SortedLoads::raise): restore the saved
    /// `(load, pow)` pair bit-for-bit and rotate the slot back left.
    pub fn lower_to(&mut self, slot: usize, saved: (f64, f64)) {
        debug_assert!(
            saved.0.total_cmp(&self.loads[slot]).is_le(),
            "lower_to must not raise"
        );
        self.loads[slot] = saved.0;
        self.pows[slot] = saved.1;
        let mut p = self.pos[slot];
        while p > 0 && self.loads[self.order[p - 1]].total_cmp(&saved.0).is_gt() {
            self.swap_positions(p - 1, p);
            p -= 1;
        }
        self.valid = self.valid.min(p);
    }

    fn swap_positions(&mut self, a: usize, b: usize) {
        self.order.swap(a, b);
        self.pos[self.order[a]] = a;
        self.pos[self.order[b]] = b;
    }

    /// Rebuild stale prefix entries from the current loads (no delta
    /// patching — each refresh is exact for the current state).
    fn refresh(&mut self) {
        let m = self.loads.len();
        for i in self.valid..m {
            let s = self.order[i];
            self.pref_load[i + 1] = self.pref_load[i] + self.loads[s];
            self.pref_pow[i + 1] = self.pref_pow[i] + self.pows[s];
        }
        self.valid = m;
    }

    /// The divisible-relaxation lower bound: water-fill `rest ≥ 0` onto
    /// the lowest loads and return the resulting `Σ max(load, level)^α`.
    ///
    /// By convexity of `x^α` (`α > 1`) this is the least `Σ L^α` any
    /// completion distributing `rest` across the slots can reach, so a
    /// branch and bound may prune when it meets the incumbent. Cost: a
    /// lazy prefix refresh plus `O(log m)` binary search plus one `powf`.
    pub fn waterfill_bound(&mut self, rest: f64) -> f64 {
        let m = self.loads.len();
        self.refresh();
        if rest <= 0.0 {
            return self.pref_pow[m];
        }
        // Smallest k in 1..m with k·ls[k] − pref_load[k] ≥ rest, i.e.
        // raising the k lowest slots to the k-th sorted load absorbs all
        // of `rest`; if none, the water covers every slot (k = m). The
        // filled quantity Σ_{i<k}(ls[k] − ls[i]) is nondecreasing in k,
        // so a plain binary search finds the partition point.
        let mut a = 1usize;
        let mut b = m;
        while a < b {
            let mid = a + (b - a) / 2;
            let filled = mid as f64 * self.loads[self.order[mid]] - self.pref_load[mid];
            if filled >= rest {
                b = mid;
            } else {
                a = mid + 1;
            }
        }
        let k = a;
        let level = (self.pref_load[k] + rest) / k as f64;
        k as f64 * level.powf(self.alpha) + (self.pref_pow[m] - self.pref_pow[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive bound the incremental one must reproduce: sort, scan,
    /// `powf` everything.
    fn naive_waterfill(loads: &[f64], rest: f64, alpha: f64) -> f64 {
        let mut ls = loads.to_vec();
        ls.sort_by(f64::total_cmp);
        let m = ls.len();
        let mut r = rest;
        let mut level = ls[0];
        let mut k = 1usize;
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

    #[test]
    fn raises_keep_sorted_order_and_sums() {
        let mut s = SortedLoads::new(4, 3.0);
        s.raise(2, 5.0);
        s.raise(0, 2.0);
        s.raise(1, 7.0);
        assert_eq!(s.slot_at(0), 3); // still empty
        assert_eq!(s.slot_at(1), 0);
        assert_eq!(s.slot_at(2), 2);
        assert_eq!(s.slot_at(3), 1);
        let expect = 8.0 + 125.0 + 343.0;
        assert!((s.total_pow() - expect).abs() < 1e-12);
    }

    #[test]
    fn lower_to_restores_bit_for_bit() {
        let mut s = SortedLoads::new(3, 2.5);
        s.raise(0, 1.1);
        s.raise(1, 0.3);
        let snapshot = s.clone();
        let saved = s.raise(1, 0.3 + 2.7);
        s.waterfill_bound(1.0); // force refresh churn
        s.lower_to(1, saved);
        for slot in 0..3 {
            assert_eq!(s.load(slot).to_bits(), snapshot.loads[slot].to_bits());
            assert_eq!(s.pow(slot).to_bits(), snapshot.pows[slot].to_bits());
        }
        assert_eq!(s.order, snapshot.order);
    }

    #[test]
    fn waterfill_matches_naive_on_random_walks() {
        let mut state = 0x9e3779b9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for &m in &[1usize, 2, 3, 5, 8, 13] {
            let alpha = 2.0 + 2.0 * next();
            let mut s = SortedLoads::new(m, alpha);
            let mut undo: Vec<(usize, (f64, f64))> = Vec::new();
            for step in 0..400 {
                if !undo.is_empty() && (step % 7 == 3 || undo.len() > 3 * m) {
                    let (slot, saved) = undo.pop().unwrap();
                    s.lower_to(slot, saved);
                } else {
                    let slot = (next() * m as f64) as usize % m;
                    let saved = s.raise(slot, s.load(slot) + next() * 2.0);
                    undo.push((slot, saved));
                }
                let rest = next() * 5.0;
                let loads: Vec<f64> = (0..m).map(|p| s.load(p)).collect();
                let fast = s.waterfill_bound(rest);
                let slow = naive_waterfill(&loads, rest, alpha);
                assert!(
                    (fast - slow).abs() <= 1e-9 * slow.max(1.0),
                    "m={m} step={step}: incremental {fast} vs naive {slow}"
                );
            }
        }
    }

    #[test]
    fn bound_with_zero_rest_is_the_norm() {
        let mut s = SortedLoads::new(3, 3.0);
        s.raise(0, 2.0);
        s.raise(1, 1.0);
        assert!((s.waterfill_bound(0.0) - 9.0).abs() < 1e-12);
        assert!((s.waterfill_bound(-1.0) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn single_slot_bound() {
        let mut s = SortedLoads::new(1, 3.0);
        s.raise(0, 2.0);
        assert!((s.waterfill_bound(1.0) - 27.0).abs() < 1e-12);
    }
}
