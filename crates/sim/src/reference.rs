//! Reference online engine over the retained AoS [`ReadySet`].
//!
//! Per the workspace convention, a displaced engine survives as a
//! `*_reference` entry point with an equivalence suite. The event loop
//! here is the *same generic code* as the production path — only the
//! storage engine differs: the arena
//! ([`ShardedReadySet`](crate::arena::ShardedReadySet), struct-of-arrays
//! slab with free-listed stable slots and a dense arrival-index lane)
//! versus the original dense `Vec<PendingJob>` with swap-remove
//! compaction and a hash map from arrival index to slot, which lives
//! here because this engine is its only user. What the
//! differential harness (`tests/online_equivalence.rs`) therefore
//! proves is that the two *storage layouts* are observationally
//! indistinguishable: identical policy decisions, identical slices,
//! identical energy bits, identical
//! [`outcome_digest`](crate::journal::outcome_digest)s — across event
//! streams, fault plans, admission gating, a reused
//! [`EngineScratch`](crate::online::EngineScratch), and crash/restore
//! cuts.

use crate::arena::{BandLedger, NUM_BANDS};
use crate::faults::FaultPlan;
use crate::online::{
    drive, materialize_arrivals, AdmissionConfig, EngineState, OnlineOutcome, OnlinePolicy,
    PendingJob, ReadyStore, ReadyView, SimError,
};
use pas_workload::Instance;
use std::collections::{HashMap, VecDeque};

/// [`run_online_pooled`](crate::online::run_online_pooled) on the
/// retained [`ReadySet`] reference storage: the same fault plan, the
/// same optional admission queue, the same event loop, and no scratch.
///
/// # Errors
/// As [`run_online_pooled`](crate::online::run_online_pooled).
pub fn run_online_reference<M: pas_power::PowerModel>(
    instance: &Instance,
    model: &M,
    policy: &mut dyn OnlinePolicy,
    plan: &FaultPlan,
    admission: Option<AdmissionConfig>,
) -> Result<OnlineOutcome, SimError> {
    let mut arrivals = Vec::new();
    let burst_jobs = materialize_arrivals(instance, plan, &mut arrivals);
    let mut engine = EngineState::new(arrivals, plan, burst_jobs, admission, ReadySet::default())?;
    drive(&mut engine, model, policy)
}

/// The released, unfinished jobs as an AoS `Vec` — the original
/// storage engine, retained as the reference path for the differential
/// harness (the default engine is the
/// [`ShardedReadySet`](crate::arena::ShardedReadySet) arena).
///
/// Kept per the workspace convention that a displaced engine survives
/// as `*_reference` with an equivalence suite: drive it via
/// [`run_online_reference`] and compare
/// [`outcome_digest`](crate::journal::outcome_digest)s.
#[derive(Debug, Clone, Default)]
pub struct ReadySet {
    /// Dense storage of `(arrival index, job)`; `slot_of` maps arrival
    /// indices to slots (swap-remove keeps it dense).
    jobs: Vec<(usize, PendingJob)>,
    slot_of: HashMap<usize, usize>,
    /// Arrival indices in admission (= release) order; the front is
    /// always live (pruned on removal), so `first` is `O(1)`.
    queue: VecDeque<usize>,
    backlog: f64,
    seen_work: f64,
    first_arrival: Option<f64>,
    bands: BandLedger,
}

impl ReadyView for ReadySet {
    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn first(&self) -> Option<PendingJob> {
        let slot = self.slot(self.oldest()?)?;
        Some(self.jobs[slot].1)
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
        for key in &self.queue {
            if let Some(&slot) = self.slot_of.get(key) {
                f(&self.jobs[slot].1);
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

impl ReadyStore for ReadySet {
    fn recycle(&mut self, origin: f64, width: f64) {
        *self = ReadySet {
            bands: BandLedger::new(origin, width),
            ..ReadySet::default()
        };
    }

    fn admit(&mut self, key: usize, job: PendingJob) {
        self.seen_work += job.work;
        self.first_arrival.get_or_insert(job.release);
        self.backlog += job.remaining;
        self.bands.on_admit(&job);
        self.slot_of.insert(key, self.jobs.len());
        self.queue.push_back(key);
        self.jobs.push((key, job));
    }

    fn oldest(&self) -> Option<usize> {
        self.queue.front().copied()
    }

    fn slot(&self, key: usize) -> Option<usize> {
        self.slot_of.get(&key).copied()
    }

    fn remaining_at(&self, slot: usize) -> f64 {
        self.jobs[slot].1.remaining
    }

    fn execute(&mut self, slot: usize, executed: f64) {
        self.jobs[slot].1.remaining -= executed;
        self.backlog -= executed;
        self.bands.on_execute(self.jobs[slot].1.release, executed);
    }

    fn remove(&mut self, slot: usize) {
        let (key, job) = self.jobs.swap_remove(slot);
        self.backlog -= job.remaining;
        self.bands.on_remove(&job);
        self.slot_of.remove(&key);
        if let Some(&(moved, _)) = self.jobs.get(slot) {
            self.slot_of.insert(moved, slot);
        }
        // Keep the queue front live so `first` stays O(1).
        while let Some(front) = self.queue.front() {
            if self.slot_of.contains_key(front) {
                break;
            }
            self.queue.pop_front();
        }
    }

    fn reset_progress(&mut self, on_reset: &mut dyn FnMut(usize)) -> f64 {
        // Canonical admission order (matching the arena), so the
        // running total sees the same additions in the same order.
        let mut erased = 0.0;
        for &key in &self.queue {
            let Some(&slot) = self.slot_of.get(&key) else {
                continue;
            };
            let job = &mut self.jobs[slot].1;
            let done = job.work - job.remaining;
            if done > 0.0 {
                erased += done;
                job.remaining = job.work;
                self.bands.on_reset(job.release, done);
                on_reset(key);
            }
        }
        self.backlog += erased;
        erased
    }

    fn cancel(&mut self, key: usize) -> Option<PendingJob> {
        let &slot = self.slot_of.get(&key)?;
        let (_, job) = self.jobs[slot];
        self.remove(slot);
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ShardedReadySet;
    use crate::journal::outcome_digest;
    use crate::online::{run_online, Decision};
    use pas_power::PolyPower;

    struct FixedSpeed(f64);
    impl OnlinePolicy for FixedSpeed {
        fn decide(&mut self, _: f64, ready: &dyn ReadyView, _: f64) -> Option<Decision> {
            ready.first().map(|p| Decision {
                job: p.id,
                speed: self.0,
                recheck_after: None,
            })
        }
    }

    #[test]
    fn reference_matches_arena_on_the_paper_instance() {
        let inst = Instance::from_pairs(&[(0.0, 5.0), (5.0, 2.0), (6.0, 1.0)]).unwrap();
        let a = run_online(&inst, &PolyPower::CUBE, &mut FixedSpeed(2.0)).unwrap();
        let none = FaultPlan::none();
        let b = run_online_reference(&inst, &PolyPower::CUBE, &mut FixedSpeed(2.0), &none, None)
            .unwrap();
        assert_eq!(outcome_digest(&a), outcome_digest(&b));
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
    }

    /// Every policy-visible observable, bitwise, in admission order.
    fn observe(set: &dyn ReadyView) -> Vec<u64> {
        let mut out = vec![
            set.len() as u64,
            set.backlog().to_bits(),
            set.seen_work().to_bits(),
            set.first_arrival().map_or(u64::MAX, f64::to_bits),
            set.first().map_or(u64::MAX, |p| u64::from(p.id)),
        ];
        for b in 0..set.band_count() {
            out.push(set.band_live(b) as u64);
            out.push(set.band_remaining(b).to_bits());
            out.push(set.band_arrived(b).to_bits());
        }
        set.for_each(&mut |p| {
            out.extend([u64::from(p.id), p.remaining.to_bits()]);
        });
        out
    }

    #[test]
    fn reference_store_answers_like_the_arena() {
        let job = |id: u32, release: f64, work: f64| PendingJob {
            id,
            release,
            work,
            remaining: work,
        };
        // The same mutation script on both stores, each recycled from a
        // used state, compared after every operation.
        let mut aos = ReadySet::default();
        let mut soa = ShardedReadySet::default();
        aos.admit(99, job(99, 0.0, 1.0));
        soa.admit(99, job(99, 0.0, 1.0));
        aos.recycle(0.5, 0.75);
        soa.recycle(0.5, 0.75);
        assert_eq!(observe(&aos), observe(&soa));
        for id in 0..6 {
            let j = job(id, 0.5 + 0.6 * f64::from(id), 1.0 + f64::from(id) / 3.0);
            aos.admit(id as usize, j);
            soa.admit(id as usize, j);
            assert_eq!(observe(&aos), observe(&soa), "admit {id}");
        }
        for (id, executed) in [(0, 0.4), (3, 1.1), (5, 0.2)] {
            let (a, s) = (aos.slot(id).unwrap(), soa.slot(id).unwrap());
            aos.execute(a, executed);
            soa.execute(s, executed);
            assert_eq!(aos.remaining_at(a).to_bits(), soa.remaining_at(s).to_bits());
        }
        assert_eq!(observe(&aos), observe(&soa), "after execute");
        // Remove the queue front (job 0), cancel an interior job, and
        // erase the remaining progress.
        let (a, s) = (aos.slot(0).unwrap(), soa.slot(0).unwrap());
        aos.remove(a);
        soa.remove(s);
        assert_eq!(observe(&aos), observe(&soa), "after remove");
        assert_eq!(aos.cancel(2), soa.cancel(2));
        assert_eq!(aos.cancel(2), None);
        assert_eq!(observe(&aos), observe(&soa), "after cancel");
        let (mut reset_a, mut reset_s) = (Vec::new(), Vec::new());
        assert_eq!(
            aos.reset_progress(&mut |key| reset_a.push(key)).to_bits(),
            soa.reset_progress(&mut |key| reset_s.push(key)).to_bits()
        );
        assert_eq!(reset_a, vec![3, 5]);
        assert_eq!(reset_a, reset_s);
        assert_eq!(observe(&aos), observe(&soa), "after reset");
    }
}
