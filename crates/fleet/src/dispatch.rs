//! Phase 1: drain the event calendar and route every arrival, at
//! `O(log H)` per event for a fleet of `H` hosts.
//!
//! The calendar (host joins, workload arrivals, scripted events) is
//! filled once and drained from one sort
//! ([`EventQueue::into_sorted`]) in the same `(time, class, tie, seq)`
//! order its pops would give. Host state lives in slots in ascending id
//! order, under one **tournament tree** that serves all three
//! [`DispatchPolicy`]s. Each node keeps:
//!
//! * the number of eligible leaves beneath it — `RoundRobin` picks the
//!   `(rr mod eligible)`-th eligible slot by walking those counts;
//! * the best eligible leaf beneath it under the policy's exact
//!   comparator — `LeastAssigned` takes the minimum
//!   `(assigned_work.total_cmp, id)`, `WeightedFastest` the maximum
//!   `rating / (1.0 + assigned_work)` under `total_cmp`, ties to the
//!   lower id. The root's best is the routing decision.
//!
//! A join, leave, failure, recovery, or assignment changes one leaf and
//! recomputes its `O(log H)` path to the root.
//!
//! A host is eligible iff `joined && !left && at >= down_until`. The
//! first two change only at their own events. `down_until` passes with
//! time, not with an event, so a failure that leaves its host down
//! schedules a **recovery** on a min-heap keyed by `down_until`, and
//! every recovery due by an arrival's time is drained before the
//! arrival is routed. Recoveries re-evaluate the same predicate and add
//! no trace records. An entry made stale by a later, overlapping
//! failure (which extends `down_until` through `max`) re-evaluates to
//! "still down" and is harmless; the extension pushed its own entry.
//!
//! [`crate::reference::dispatch`] makes the same decisions by a full
//! scan of every host per arrival; `tests/fleet_dispatch_equivalence.rs`
//! holds the two byte-identical on the serialized trace.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::{EventQueue, FleetEvent, FleetEventKind};
use crate::partition::HostSlots;
use crate::scenario::{DispatchPolicy, FleetScenario};
use crate::trace::{EventTrace, TraceRecord};

/// Marks a subtree with no eligible leaf.
const NONE: u32 = u32::MAX;

/// Counts and best leaves over host slots, in a 1-based implicit binary
/// tree whose leaves `leaves..2 * leaves` are the slots (padding leaves
/// stay ineligible).
struct Tournament {
    policy: DispatchPolicy,
    leaves: usize,
    count: Vec<u32>,
    best: Vec<u32>,
    /// Per slot: assigned work (`LeastAssigned`) or score
    /// (`WeightedFastest`); unused by `RoundRobin`.
    key: Vec<f64>,
}

impl Tournament {
    fn new(policy: DispatchPolicy, hosts: usize) -> Self {
        let leaves = hosts.next_power_of_two();
        Tournament {
            policy,
            leaves,
            count: vec![0; 2 * leaves],
            best: vec![NONE; 2 * leaves],
            key: vec![0.0; hosts],
        }
    }

    /// The better of two subtree winners; `l` holds the lower slot, so
    /// it keeps every tie.
    fn winner(&self, l: u32, r: u32) -> u32 {
        if l == NONE {
            return r;
        }
        if r == NONE {
            return l;
        }
        let order = self.key[r as usize].total_cmp(&self.key[l as usize]);
        let right_wins = match self.policy {
            DispatchPolicy::RoundRobin => false,
            DispatchPolicy::LeastAssigned => order.is_lt(),
            DispatchPolicy::WeightedFastest => order.is_gt(),
        };
        if right_wins {
            r
        } else {
            l
        }
    }

    /// Set one leaf and recompute its path to the root.
    fn set(&mut self, slot: usize, eligible: bool, key: f64) {
        self.key[slot] = key;
        let mut node = self.leaves + slot;
        self.count[node] = u32::from(eligible);
        self.best[node] = if eligible { slot as u32 } else { NONE };
        node /= 2;
        while node >= 1 {
            self.count[node] = self.count[2 * node] + self.count[2 * node + 1];
            self.best[node] = self.winner(self.best[2 * node], self.best[2 * node + 1]);
            node /= 2;
        }
    }

    fn eligible(&self) -> usize {
        self.count[1] as usize
    }

    /// The best eligible slot (ties to the lower id).
    fn best(&self) -> usize {
        debug_assert_ne!(self.best[1], NONE, "no eligible host");
        self.best[1] as usize
    }

    /// The `k`-th eligible slot in id order, `k < eligible()`.
    fn nth(&self, mut k: usize) -> usize {
        let mut node = 1;
        while node < self.leaves {
            let left = self.count[2 * node] as usize;
            node = if k < left {
                2 * node
            } else {
                k -= left;
                2 * node + 1
            };
        }
        node - self.leaves
    }
}

/// Dispatch-phase state for one host slot.
struct HostState {
    joined: bool,
    left: bool,
    down_until: f64,
    assigned_work: f64,
    rating: f64,
}

struct Dispatcher {
    hosts: Vec<HostState>,
    tree: Tournament,
    /// `(down_until bits, slot)` for hosts a failure left down. Only
    /// pushed when `down_until > at >= 0`, so it is positive and its bit
    /// pattern orders like its value.
    recoveries: BinaryHeap<Reverse<(u64, usize)>>,
    rr: usize,
}

impl Dispatcher {
    /// Re-evaluate slot `slot` at time `at` into the tree.
    fn refresh(&mut self, slot: usize, at: f64) {
        let h = &self.hosts[slot];
        let eligible = h.joined && !h.left && at >= h.down_until;
        let key = match self.tree.policy {
            DispatchPolicy::RoundRobin => 0.0,
            DispatchPolicy::LeastAssigned => h.assigned_work,
            DispatchPolicy::WeightedFastest => h.rating / (1.0 + h.assigned_work),
        };
        self.tree.set(slot, eligible, key);
    }

    fn fail(&mut self, slot: usize, at: f64, duration: f64) {
        let h = &mut self.hosts[slot];
        h.down_until = h.down_until.max(at + duration);
        if h.down_until > at {
            self.recoveries
                .push(Reverse((h.down_until.to_bits(), slot)));
        }
        self.refresh(slot, at);
    }

    /// Bring back every host whose downtime has passed by `at`.
    fn recover_until(&mut self, at: f64) {
        while let Some(&Reverse((bits, slot))) = self.recoveries.peek() {
            if at < f64::from_bits(bits) {
                break;
            }
            self.recoveries.pop();
            self.refresh(slot, at);
        }
    }

    /// Route one arrival at `at`; `None` when no host is eligible.
    fn route(&mut self, at: f64, work: f64) -> Option<usize> {
        self.recover_until(at);
        let eligible = self.tree.eligible();
        if eligible == 0 {
            return None;
        }
        let slot = match self.tree.policy {
            DispatchPolicy::RoundRobin => {
                let slot = self.tree.nth(self.rr % eligible);
                self.rr += 1;
                slot
            }
            DispatchPolicy::LeastAssigned | DispatchPolicy::WeightedFastest => self.tree.best(),
        };
        self.hosts[slot].assigned_work += work;
        if self.tree.policy != DispatchPolicy::RoundRobin {
            self.refresh(slot, at);
        }
        Some(slot)
    }
}

/// Phase 1: drain the calendar, route arrivals, record the trace.
/// Assignments and shed totals are *not* tracked here — the partition
/// pass re-derives both from the trace, so dispatch and replay cannot
/// disagree about them.
///
/// The scenario is expected to be valid ([`FleetScenario::validate`]);
/// [`crate::run`] validates before it dispatches.
pub fn dispatch(scenario: &FleetScenario) -> EventTrace {
    let mut queue = EventQueue::new(scenario.seed);
    for h in &scenario.hosts {
        queue.push(FleetEvent {
            at: h.available_from,
            kind: FleetEventKind::HostJoin { host: h.id },
        });
    }
    for (index, job) in scenario.workload.jobs().iter().enumerate() {
        queue.push(FleetEvent {
            at: job.release,
            kind: FleetEventKind::Arrival { index, job: *job },
        });
    }
    for ev in &scenario.events {
        queue.push(ev.clone());
    }
    let mut records = Vec::with_capacity(queue.len());

    let slots = HostSlots::new(scenario);
    let mut hosts: Vec<HostState> = slots
        .ids()
        .iter()
        .map(|_| HostState {
            joined: false,
            left: false,
            down_until: f64::NEG_INFINITY,
            assigned_work: 0.0,
            rating: 0.0,
        })
        .collect();
    for h in &scenario.hosts {
        if let Some(slot) = slots.slot(h.id) {
            hosts[slot].rating = h.speed_rating();
        }
    }
    let mut d = Dispatcher {
        tree: Tournament::new(scenario.dispatch, hosts.len()),
        hosts,
        recoveries: BinaryHeap::new(),
        rr: 0,
    };

    for ev in queue.into_sorted() {
        let at = ev.at;
        match ev.kind {
            FleetEventKind::HostJoin { host } => {
                if let Some(slot) = slots.slot(host) {
                    d.hosts[slot].joined = true;
                    d.refresh(slot, at);
                }
                records.push(TraceRecord::Join { at, host });
            }
            FleetEventKind::HostLeave { host } => {
                if let Some(slot) = slots.slot(host) {
                    d.hosts[slot].left = true;
                    d.refresh(slot, at);
                }
                records.push(TraceRecord::Leave { at, host });
            }
            FleetEventKind::HostFail { host, duration } => {
                if let Some(slot) = slots.slot(host) {
                    d.fail(slot, at, duration);
                }
                records.push(TraceRecord::Fail { at, host, duration });
            }
            FleetEventKind::Arrival { index, job } => {
                let routed = d.route(at, job.work).map(|slot| slots.ids()[slot]);
                records.push(TraceRecord::Arrival {
                    at,
                    index,
                    job_id: job.id,
                    release: job.release,
                    work: job.work,
                    routed,
                });
            }
        }
    }

    EventTrace {
        seed: scenario.seed,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(policy: DispatchPolicy, keys: &[(bool, f64)]) -> Tournament {
        let mut t = Tournament::new(policy, keys.len());
        for (slot, &(eligible, key)) in keys.iter().enumerate() {
            t.set(slot, eligible, key);
        }
        t
    }

    #[test]
    fn nth_walks_eligible_slots_in_id_order() {
        let t = tree(
            DispatchPolicy::RoundRobin,
            &[
                (false, 0.0),
                (true, 0.0),
                (true, 0.0),
                (false, 0.0),
                (true, 0.0),
            ],
        );
        assert_eq!(t.eligible(), 3);
        let picks: Vec<usize> = (0..3).map(|k| t.nth(k)).collect();
        assert_eq!(picks, vec![1, 2, 4]);
    }

    #[test]
    fn best_breaks_ties_to_the_lower_slot() {
        let keys = [
            (true, 2.0),
            (false, 0.5),
            (true, 1.0),
            (true, 1.0),
            (true, 2.0),
        ];
        assert_eq!(tree(DispatchPolicy::LeastAssigned, &keys).best(), 2);
        assert_eq!(tree(DispatchPolicy::WeightedFastest, &keys).best(), 0);
    }

    #[test]
    fn a_single_host_is_its_own_root() {
        let mut t = tree(DispatchPolicy::LeastAssigned, &[(true, 3.0)]);
        assert_eq!((t.eligible(), t.best(), t.nth(0)), (1, 0, 0));
        t.set(0, false, 3.0);
        assert_eq!(t.eligible(), 0);
    }
}
