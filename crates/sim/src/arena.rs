//! Data-oriented job-state arena for the online engine.
//!
//! [`ShardedReadySet`] replaces the AoS `Vec<PendingJob>` behind the
//! original [`ReadySet`](crate::reference::ReadySet) with a
//! struct-of-arrays slab: one parallel array per field (`ids`,
//! `releases`, `works`, `remainings`), stable slots recycled through a
//! free list, and a `BandLedger` sharding the live jobs by *deadline
//! band* — `NUM_BANDS` equal-width release-time bands (under the
//! engine's uniform SLO, a job's deadline is its release plus a
//! constant, so release bands and deadline bands coincide). The ledger
//! maintains per-band live counts, remaining work, and total arrived
//! work incrementally, which is what the windowed-density policies
//! (`Bkp` in `pas-core::online`) consume in `O(bands)` per decision.
//!
//! The engine names jobs by arrival index (their position in the run's
//! release-sorted arrival stream), so the arena resolves a job to its
//! slot through a dense `slot_of` lane indexed by that position — no
//! hashing anywhere on the engine's path.
//!
//! # Bit-identity contract
//!
//! The arena and the retained reference implementation answer every
//! observation the engine or a policy can make with the *same bits*:
//! both run the identical per-job accumulator updates in the identical
//! (admission) order, and both delegate band accounting to this
//! module's `BandLedger` so the shard arithmetic is literally the same
//! code. `tests/online_equivalence.rs` holds the two engines to that
//! contract across proptested event streams, fault plans, and
//! crash/restore cuts.

use crate::online::{PendingJob, ReadyStore, ReadyView};
use std::collections::VecDeque;

/// Number of deadline bands the ready set is sharded into.
pub const NUM_BANDS: usize = 8;

/// Per-band aggregate shards over the released jobs.
///
/// Bands partition release time into `NUM_BANDS` equal windows of
/// `width` starting at `origin` (both fixed for a run, derived from the
/// materialized arrival stream); releases past the last edge clamp into
/// the final band. All three aggregates are running sums maintained
/// with one addition or subtraction per engine mutation, so both
/// ready-set implementations produce bit-identical band values by
/// sharing this type. A journal snapshot persists the fields bitwise;
/// the sums are never recomputed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BandLedger {
    pub(crate) origin: f64,
    pub(crate) width: f64,
    /// Live (admitted, unfinished) jobs per band.
    pub(crate) live: Vec<u64>,
    /// Remaining work of the live jobs per band.
    pub(crate) remaining: Vec<f64>,
    /// Total work ever admitted per band (finished or not).
    pub(crate) arrived: Vec<f64>,
}

impl Default for BandLedger {
    fn default() -> BandLedger {
        BandLedger::new(0.0, 1.0)
    }
}

impl BandLedger {
    pub(crate) fn new(origin: f64, width: f64) -> BandLedger {
        debug_assert!(width > 0.0, "band width must be positive, got {width}");
        BandLedger {
            origin,
            width,
            live: vec![0; NUM_BANDS],
            remaining: vec![0.0; NUM_BANDS],
            arrived: vec![0.0; NUM_BANDS],
        }
    }

    /// Band index for a release time (clamped into `0..NUM_BANDS`).
    pub(crate) fn band_of(&self, release: f64) -> usize {
        let b = ((release - self.origin) / self.width).floor();
        if b.is_nan() || b < 0.0 {
            0
        } else {
            (b as usize).min(NUM_BANDS - 1)
        }
    }

    pub(crate) fn on_admit(&mut self, job: &PendingJob) {
        let b = self.band_of(job.release);
        self.live[b] += 1;
        self.remaining[b] += job.remaining;
        self.arrived[b] += job.work;
    }

    pub(crate) fn on_execute(&mut self, release: f64, executed: f64) {
        let b = self.band_of(release);
        self.remaining[b] -= executed;
    }

    /// A job leaves the set (completion, cancellation, eviction): its
    /// residual remaining work leaves the band, its arrived work stays.
    pub(crate) fn on_remove(&mut self, job: &PendingJob) {
        let b = self.band_of(job.release);
        self.live[b] -= 1;
        self.remaining[b] -= job.remaining;
    }

    /// A lose-progress crash put `done` units back on a job's plate.
    pub(crate) fn on_reset(&mut self, release: f64, done: f64) {
        let b = self.band_of(release);
        self.remaining[b] += done;
    }

    /// Re-arm the ledger for a fresh run: new band geometry, all
    /// aggregates zeroed, the band vectors themselves reused.
    pub(crate) fn reset(&mut self, origin: f64, width: f64) {
        debug_assert!(width > 0.0, "band width must be positive, got {width}");
        self.origin = origin;
        self.width = width;
        self.live.iter_mut().for_each(|v| *v = 0);
        self.remaining.iter_mut().for_each(|v| *v = 0.0);
        self.arrived.iter_mut().for_each(|v| *v = 0.0);
    }

    pub(crate) fn origin(&self) -> f64 {
        self.origin
    }

    pub(crate) fn width(&self) -> f64 {
        self.width
    }

    pub(crate) fn live(&self, band: usize) -> usize {
        self.live[band] as usize
    }

    pub(crate) fn remaining(&self, band: usize) -> f64 {
        self.remaining[band]
    }

    pub(crate) fn arrived(&self, band: usize) -> f64 {
        self.arrived[band]
    }
}

/// Struct-of-arrays arena behind the online engine: the data-oriented
/// replacement for [`ReadySet`](crate::reference::ReadySet).
///
/// Jobs live in parallel arrays indexed by *slot*; a slot is stable for
/// a job's whole residency (no swap-remove compaction), vacated slots
/// are recycled LIFO through a free list, and the dense `slot_of` lane
/// resolves an arrival index in `O(1)`. The admission-order queue of
/// arrival indices makes
/// [`first`](ReadyView::first) `O(1)` and gives every policy-visible
/// iteration ([`ReadyView::for_each`]) a canonical order. Band
/// aggregates are served by the shared `BandLedger`.
///
/// Policies never see this type directly — they see the
/// [`ReadyView`] trait — so the arena is interchangeable with the
/// retained reference implementation, a contract enforced bit-for-bit
/// by `tests/online_equivalence.rs`.
#[derive(Debug, Clone, Default)]
pub struct ShardedReadySet {
    /// Arrival index of the job in each slot.
    keys: Vec<u32>,
    ids: Vec<u32>,
    releases: Vec<f64>,
    works: Vec<f64>,
    remainings: Vec<f64>,
    /// Vacant slots, recycled LIFO. Vacant array cells keep their stale
    /// values — they are unreachable (not in `slot_of`, skipped by the
    /// queue) and fully overwritten on reuse.
    free: Vec<usize>,
    /// Arrival index → slot, `VACANT` for a job that is not ready;
    /// grows to the largest index admitted.
    slot_of: Vec<u32>,
    /// Arrival indices in admission order; the front is always live
    /// (pruned on removal), stale interior entries are skipped during
    /// iteration.
    queue: VecDeque<u32>,
    backlog: f64,
    seen_work: f64,
    first_arrival: Option<f64>,
    bands: BandLedger,
}

/// `slot_of` marker for an arrival index with no ready job.
const VACANT: u32 = u32::MAX;

impl ShardedReadySet {
    fn place(&mut self, key: usize, job: PendingJob) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.keys[slot] = key as u32;
                self.ids[slot] = job.id;
                self.releases[slot] = job.release;
                self.works[slot] = job.work;
                self.remainings[slot] = job.remaining;
                slot
            }
            None => {
                let slot = self.ids.len();
                self.keys.push(key as u32);
                self.ids.push(job.id);
                self.releases.push(job.release);
                self.works.push(job.work);
                self.remainings.push(job.remaining);
                slot
            }
        }
    }

    fn slot_at(&self, key: usize) -> Option<usize> {
        match self.slot_of.get(key) {
            Some(&slot) if slot != VACANT => Some(slot as usize),
            _ => None,
        }
    }

    fn job_at(&self, slot: usize) -> PendingJob {
        PendingJob {
            id: self.ids[slot],
            release: self.releases[slot],
            work: self.works[slot],
            remaining: self.remainings[slot],
        }
    }

    /// Snapshot parts for the journal codec: `(slot_count, live slots
    /// as (slot, job) in slot order, free list in pop order last-first,
    /// queue of arrival indices, backlog, seen_work, first_arrival)`.
    /// Stale cell contents are *not* captured — they are unobservable —
    /// but the free-list order is, because it decides which slot the
    /// next admit reuses.
    #[allow(clippy::type_complexity)]
    pub(crate) fn snapshot_parts(
        &self,
    ) -> (
        usize,
        Vec<(usize, PendingJob)>,
        &[usize],
        &VecDeque<u32>,
        f64,
        f64,
        Option<f64>,
    ) {
        let mut live: Vec<(usize, PendingJob)> = Vec::with_capacity(self.len());
        for slot in 0..self.ids.len() {
            if self.slot_at(self.keys[slot] as usize) == Some(slot) {
                live.push((slot, self.job_at(slot)));
            }
        }
        (
            self.ids.len(),
            live,
            &self.free,
            &self.queue,
            self.backlog,
            self.seen_work,
            self.first_arrival,
        )
    }

    pub(crate) fn bands(&self) -> &BandLedger {
        &self.bands
    }

    /// Rebuild an arena from snapshot parts, bit-identical to the
    /// captured one: same slots, same free-list order, same queue, same
    /// accumulator and ledger bits. Each live slot comes with its job's
    /// arrival index (`slot_of` is derived from them; vacant cells are
    /// zeroed, which is unobservable).
    #[allow(clippy::too_many_arguments)] // snapshot parts arrive as one flat record
    pub(crate) fn restore(
        slot_count: usize,
        live: Vec<(usize, usize, PendingJob)>,
        free: Vec<usize>,
        queue: VecDeque<u32>,
        backlog: f64,
        seen_work: f64,
        first_arrival: Option<f64>,
        bands: BandLedger,
    ) -> ShardedReadySet {
        let lane = queue.iter().max().map_or(0, |&k| k as usize + 1);
        let mut set = ShardedReadySet {
            keys: vec![0; slot_count],
            ids: vec![0; slot_count],
            releases: vec![0.0; slot_count],
            works: vec![0.0; slot_count],
            remainings: vec![0.0; slot_count],
            free,
            slot_of: vec![VACANT; lane],
            queue,
            backlog,
            seen_work,
            first_arrival,
            bands,
        };
        for (slot, key, job) in live {
            set.keys[slot] = key as u32;
            set.ids[slot] = job.id;
            set.releases[slot] = job.release;
            set.works[slot] = job.work;
            set.remainings[slot] = job.remaining;
            set.slot_of[key] = slot as u32;
        }
        set
    }
}

impl ReadyView for ShardedReadySet {
    fn len(&self) -> usize {
        self.ids.len() - self.free.len()
    }

    fn first(&self) -> Option<PendingJob> {
        Some(self.job_at(self.slot_at(self.oldest()?)?))
    }

    fn backlog(&self) -> f64 {
        self.backlog
    }

    fn seen_work(&self) -> f64 {
        self.seen_work
    }

    fn first_arrival(&self) -> Option<f64> {
        self.first_arrival
    }

    fn for_each(&self, f: &mut dyn FnMut(&PendingJob)) {
        for &key in &self.queue {
            if let Some(slot) = self.slot_at(key as usize) {
                f(&self.job_at(slot));
            }
        }
    }

    fn band_count(&self) -> usize {
        NUM_BANDS
    }

    fn band_origin(&self) -> f64 {
        self.bands.origin()
    }

    fn band_width(&self) -> f64 {
        self.bands.width()
    }

    fn band_live(&self, band: usize) -> usize {
        self.bands.live(band)
    }

    fn band_remaining(&self, band: usize) -> f64 {
        self.bands.remaining(band)
    }

    fn band_arrived(&self, band: usize) -> f64 {
        self.bands.arrived(band)
    }
}

impl ReadyStore for ShardedReadySet {
    /// Clears in place: lane vectors, free list, `slot_of`, and queue
    /// all keep their capacity, which is what lets the fleet executor's
    /// worker-local scratch reuse one arena across hosts.
    fn recycle(&mut self, origin: f64, width: f64) {
        self.keys.clear();
        self.ids.clear();
        self.releases.clear();
        self.works.clear();
        self.remainings.clear();
        self.free.clear();
        self.slot_of.clear();
        self.queue.clear();
        self.backlog = 0.0;
        self.seen_work = 0.0;
        self.first_arrival = None;
        self.bands.reset(origin, width);
    }

    fn admit(&mut self, key: usize, job: PendingJob) {
        self.seen_work += job.work;
        self.first_arrival.get_or_insert(job.release);
        self.backlog += job.remaining;
        self.bands.on_admit(&job);
        let slot = self.place(key, job);
        if key >= self.slot_of.len() {
            self.slot_of.resize(key + 1, VACANT);
        }
        self.slot_of[key] = slot as u32;
        self.queue.push_back(key as u32);
    }

    fn oldest(&self) -> Option<usize> {
        self.queue.front().map(|&key| key as usize)
    }

    fn slot(&self, key: usize) -> Option<usize> {
        self.slot_at(key)
    }

    fn remaining_at(&self, slot: usize) -> f64 {
        self.remainings[slot]
    }

    fn execute(&mut self, slot: usize, executed: f64) {
        self.remainings[slot] -= executed;
        self.backlog -= executed;
        self.bands.on_execute(self.releases[slot], executed);
    }

    fn remove(&mut self, slot: usize) {
        let job = self.job_at(slot);
        self.backlog -= job.remaining;
        self.bands.on_remove(&job);
        self.slot_of[self.keys[slot] as usize] = VACANT;
        self.free.push(slot);
        // Keep the queue front live so `first` stays O(1).
        while let Some(&front) = self.queue.front() {
            if self.slot_of[front as usize] != VACANT {
                break;
            }
            self.queue.pop_front();
        }
    }

    fn reset_progress(&mut self, on_reset: &mut dyn FnMut(usize)) -> f64 {
        // Canonical admission order: both implementations sum the
        // erased progress over the queue, so the running total sees the
        // same additions in the same order.
        let mut erased = 0.0;
        for &key in &self.queue {
            let Some(slot) = self.slot_at(key as usize) else {
                continue;
            };
            let done = self.works[slot] - self.remainings[slot];
            if done > 0.0 {
                erased += done;
                self.remainings[slot] = self.works[slot];
                self.bands.on_reset(self.releases[slot], done);
                on_reset(key as usize);
            }
        }
        self.backlog += erased;
        erased
    }

    fn cancel(&mut self, key: usize) -> Option<PendingJob> {
        let slot = self.slot_at(key)?;
        let job = self.job_at(slot);
        self.remove(slot);
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(origin: f64, width: f64) -> ShardedReadySet {
        let mut set = ShardedReadySet::default();
        set.recycle(origin, width);
        set
    }

    fn pj(id: u32, release: f64, work: f64) -> PendingJob {
        PendingJob {
            id,
            release,
            work,
            remaining: work,
        }
    }

    #[test]
    fn slots_are_stable_and_recycled() {
        let mut set = arena(0.0, 1.0);
        set.admit(0, pj(0, 0.0, 2.0));
        set.admit(1, pj(1, 1.0, 3.0));
        set.admit(2, pj(2, 2.0, 4.0));
        let s1 = set.slot(1).unwrap();
        // Removing the middle job must not move anyone else.
        set.remove(s1);
        assert_eq!(set.slot(0), Some(0));
        assert_eq!(set.slot(2), Some(2));
        // The vacated slot is reused by the next admit.
        set.admit(3, pj(3, 3.0, 1.0));
        assert_eq!(set.slot(3), Some(s1));
        assert_eq!(set.len(), 3);
        assert_eq!(set.remaining_at(s1), 1.0);
    }

    #[test]
    fn iteration_is_admission_order_and_skips_dead_ids() {
        let mut set = arena(0.0, 1.0);
        for id in 0..5 {
            set.admit(id as usize, pj(id, id as f64, 1.0));
        }
        set.cancel(2).unwrap();
        set.cancel(0).unwrap();
        let mut seen = Vec::new();
        set.for_each(&mut |p| seen.push(p.id));
        assert_eq!(seen, vec![1, 3, 4]);
        assert_eq!(set.first().unwrap().id, 1);
    }

    #[test]
    fn band_ledger_tracks_admit_execute_remove_reset() {
        let mut set = arena(0.0, 2.0);
        set.admit(0, pj(0, 0.5, 4.0)); // band 0
        set.admit(1, pj(1, 5.0, 2.0)); // band 2
        set.admit(2, pj(2, 100.0, 1.0)); // clamps into band 7
        assert_eq!(set.band_live(0), 1);
        assert_eq!(set.band_live(2), 1);
        assert_eq!(set.band_live(7), 1);
        assert_eq!(set.band_arrived(0), 4.0);

        let s0 = set.slot(0).unwrap();
        set.execute(s0, 1.5);
        assert_eq!(set.band_remaining(0), 2.5);
        // Reset puts the executed work back.
        let mut reset = Vec::new();
        let erased = set.reset_progress(&mut |key| reset.push(key));
        assert_eq!(reset, vec![0]);
        assert_eq!(erased, 1.5);
        assert_eq!(set.band_remaining(0), 4.0);

        set.cancel(1).unwrap();
        assert_eq!(set.band_live(2), 0);
        assert_eq!(set.band_remaining(2), 0.0);
        assert_eq!(set.band_arrived(2), 2.0, "arrived work survives removal");
    }

    #[test]
    fn recycled_arena_is_indistinguishable_from_fresh() {
        let mut used = arena(0.0, 1.0);
        for id in 0..6 {
            used.admit(id as usize, pj(id, 0.4 * id as f64, 1.0 + id as f64));
        }
        let s = used.slot(2).unwrap();
        used.execute(s, 0.5);
        used.remove(s);
        used.cancel(4).unwrap();
        used.recycle(3.0, 2.5);

        let mut fresh = ShardedReadySet {
            bands: BandLedger::new(3.0, 2.5),
            ..ShardedReadySet::default()
        };
        // Drive both through the same post-recycle history and compare
        // every observable.
        for set in [&mut used, &mut fresh] {
            set.admit(10, pj(10, 3.5, 2.0));
            set.admit(11, pj(11, 6.0, 1.0));
            let s = set.slot(10).unwrap();
            set.execute(s, 0.25);
        }
        assert_eq!(used.len(), fresh.len());
        assert_eq!(used.backlog().to_bits(), fresh.backlog().to_bits());
        assert_eq!(used.seen_work().to_bits(), fresh.seen_work().to_bits());
        assert_eq!(used.first_arrival(), fresh.first_arrival());
        assert_eq!(used.bands(), fresh.bands());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        used.for_each(&mut |p| a.push(*p));
        fresh.for_each(&mut |p| b.push(*p));
        assert_eq!(a, b);
        // Slot assignment restarts from zero after a recycle.
        assert_eq!(used.slot(10), fresh.slot(10));
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        let mut set = arena(0.0, 1.0);
        for id in 0..4 {
            set.admit(id as usize, pj(id, 0.3 * id as f64, 1.0 + id as f64));
        }
        let s = set.slot(1).unwrap();
        set.execute(s, 0.7);
        set.remove(s);
        set.cancel(3).unwrap();

        let (count, live, free, queue, backlog, seen, first) = set.snapshot_parts();
        let restored = ShardedReadySet::restore(
            count,
            live.into_iter()
                .map(|(s, j)| (s, j.id as usize, j))
                .collect(),
            free.to_vec(),
            queue.clone(),
            backlog,
            seen,
            first,
            set.bands().clone(),
        );
        assert_eq!(restored.len(), set.len());
        assert_eq!(restored.backlog().to_bits(), set.backlog().to_bits());
        assert_eq!(restored.seen_work().to_bits(), set.seen_work().to_bits());
        assert_eq!(restored.bands(), set.bands());
        // Behavioral equivalence after restore: the next admit reuses
        // the same slot in both.
        let mut a = set.clone();
        let mut b = restored;
        a.admit(9, pj(9, 4.0, 2.0));
        b.admit(9, pj(9, 4.0, 2.0));
        assert_eq!(a.slot(9), b.slot(9));
        let mut ja = Vec::new();
        let mut jb = Vec::new();
        a.for_each(&mut |p| ja.push(*p));
        b.for_each(&mut |p| jb.push(*p));
        assert_eq!(ja, jb);
    }
}
