//! The fleet event calendar: a monotone queue with seeded tie-breaking.
//!
//! Discrete-event simulators live or die on event ordering. Time order
//! is forced by a min-heap keyed on the event timestamp (`total_cmp`,
//! so every finite pattern orders deterministically); the interesting
//! case is **ties**. Breaking them by insertion order silently bakes
//! scenario-construction order into results; breaking them by an
//! unseeded hash makes runs irreproducible. This queue instead mixes
//! the scenario seed with the event's insertion sequence number
//! (splitmix64 finalizer) into a tie key: same seed → same order,
//! bit-for-bit; different seed → an independent shuffle of every tie
//! group. The raw sequence number is the final disambiguator, so the
//! order is total even across a (vanishingly unlikely) tie-key
//! collision.
//!
//! Popping asserts the **monotone clock** invariant: simulated time
//! never goes backwards. Wall-clock time appears nowhere in this crate;
//! the simulated clock is advanced only by event timestamps.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pas_workload::Job;

/// What happens at a point in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEventKind {
    /// A job arrives at the fleet frontier and must be dispatched.
    /// `index` is the job's position in the scenario workload (the
    /// stable identity the trace records).
    Arrival {
        /// Position in the scenario workload's job list.
        index: usize,
        /// The job itself (redundant with `index`; carried so event
        /// handling never needs the workload in hand).
        job: Job,
    },
    /// A host comes online and becomes routable.
    HostJoin {
        /// Host id.
        host: u32,
    },
    /// A host leaves for good (planned decommission): no further
    /// arrivals are routed to it.
    HostLeave {
        /// Host id.
        host: u32,
    },
    /// A host crashes and is unroutable for `duration`; its engine sees
    /// a matching crash fault.
    HostFail {
        /// Host id.
        host: u32,
        /// Downtime length.
        duration: f64,
    },
}

impl FleetEventKind {
    /// Ordering class at equal timestamps: host state changes (join,
    /// leave, fail) process before arrivals, so an arrival at time `t`
    /// observes the fleet state *at* `t`. Without this, a job released
    /// exactly when its only host joins could be tie-broken ahead of
    /// the join and shed spuriously.
    fn class(&self) -> u8 {
        match self {
            FleetEventKind::HostJoin { .. }
            | FleetEventKind::HostLeave { .. }
            | FleetEventKind::HostFail { .. } => 0,
            FleetEventKind::Arrival { .. } => 1,
        }
    }
}

/// A timestamped [`FleetEventKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    /// When the event fires (finite, `>= 0`).
    pub at: f64,
    /// What fires.
    pub kind: FleetEventKind,
}

/// splitmix64 finalizer: the tie-key mix (same construction as
/// `FaultModel::for_host`, applied to `seed ⊕ seq`).
fn mix(seed: u64, seq: u64) -> u64 {
    let mut z = seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Queued {
    event: FleetEvent,
    tie: u64,
    seq: u64,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Queued {}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse every component so the pop
        // order is (time asc, class asc, tie asc, seq asc).
        other
            .event
            .at
            .total_cmp(&self.event.at)
            .then_with(|| other.event.kind.class().cmp(&self.event.kind.class()))
            .then_with(|| other.tie.cmp(&self.tie))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The monotone event queue.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Queued>,
    seed: u64,
    next_seq: u64,
    last_popped: f64,
}

impl EventQueue {
    /// An empty queue whose tie-breaking derives from `seed`.
    pub fn new(seed: u64) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seed,
            next_seq: 0,
            last_popped: f64::NEG_INFINITY,
        }
    }

    /// Schedule an event.
    ///
    /// # Panics
    /// If the timestamp is non-finite or negative, or lies in the past
    /// of the simulated clock (an event handler tried to rewrite
    /// history).
    pub fn push(&mut self, event: FleetEvent) {
        assert!(
            event.at.is_finite() && event.at >= 0.0,
            "event time must be finite and >= 0, got {}",
            event.at
        );
        assert!(
            event.at >= self.last_popped,
            "cannot schedule at t={} before the simulated clock t={}",
            event.at,
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Queued {
            tie: mix(self.seed, seq),
            event,
            seq,
        });
    }

    /// Next event in (time, class, tie, seq) order, advancing the simulated
    /// clock. Returns `None` when the calendar is exhausted.
    pub fn pop(&mut self) -> Option<FleetEvent> {
        let q = self.heap.pop()?;
        debug_assert!(q.event.at >= self.last_popped, "monotone clock violated");
        self.last_popped = q.event.at;
        Some(q.event)
    }

    /// Every pending event in the order repeated [`pop`](Self::pop)s
    /// would return them — the same `(time, class, tie, seq)` key —
    /// from one sort instead of one heap pop per event. Consumes the
    /// queue, so nothing can be scheduled behind the drain.
    pub fn into_sorted(self) -> impl Iterator<Item = FleetEvent> {
        let mut pending = self.heap.into_vec();
        // `Ord` is reversed for the max-heap: descending under it is
        // ascending pop order.
        pending.sort_unstable_by(|a, b| b.cmp(a));
        pending.into_iter().map(|q| q.event)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the calendar is exhausted.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The simulated clock: the timestamp of the last popped event
    /// (`-inf` before the first pop).
    pub fn now(&self) -> f64 {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: f64, host: u32) -> FleetEvent {
        FleetEvent {
            at,
            kind: FleetEventKind::HostJoin { host },
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(f64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            match e.kind {
                FleetEventKind::HostJoin { host } => out.push((e.at, host)),
                _ => unreachable!(),
            }
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(1);
        for (t, h) in [(3.0, 0), (1.0, 1), (2.0, 2), (0.5, 3)] {
            q.push(ev(t, h));
        }
        let order = drain(&mut q);
        assert_eq!(order, vec![(0.5, 3), (1.0, 1), (2.0, 2), (3.0, 0)]);
    }

    #[test]
    fn same_seed_same_tie_order() {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let mut q = EventQueue::new(42);
                for h in 0..50u32 {
                    q.push(ev(1.0, h));
                }
                drain(&mut q)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn different_seed_shuffles_ties() {
        let order_for = |seed| {
            let mut q = EventQueue::new(seed);
            for h in 0..50u32 {
                q.push(ev(1.0, h));
            }
            drain(&mut q)
        };
        assert_ne!(order_for(1), order_for(2));
        // And the tie shuffle is not insertion order.
        let insertion: Vec<_> = (0..50u32).map(|h| (1.0, h)).collect();
        assert_ne!(order_for(1), insertion);
    }

    #[test]
    fn ties_do_not_leak_across_times() {
        // Tie-breaking must never override time order.
        let mut q = EventQueue::new(7);
        for h in 0..20u32 {
            q.push(ev(if h % 2 == 0 { 1.0 } else { 2.0 }, h));
        }
        let order = drain(&mut q);
        let times: Vec<f64> = order.iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(order[..10].iter().all(|&(_, h)| h % 2 == 0));
    }

    #[test]
    fn state_changes_precede_arrivals_at_equal_time() {
        use pas_workload::Job;
        // Whatever the seed, a join at t and an arrival at t must pop
        // join-first: the arrival observes the state *at* t.
        for seed in 0..32u64 {
            let mut q = EventQueue::new(seed);
            q.push(FleetEvent {
                at: 1.0,
                kind: FleetEventKind::Arrival {
                    index: 0,
                    job: Job::new(0, 1.0, 1.0),
                },
            });
            q.push(ev(1.0, 0));
            let first = q.pop().unwrap();
            assert!(
                matches!(first.kind, FleetEventKind::HostJoin { .. }),
                "seed {seed}: join must precede the tied arrival"
            );
        }
    }

    #[test]
    fn sorted_drain_matches_pop_order() {
        use pas_workload::Job;
        let fill = |seed| {
            let mut q = EventQueue::new(seed);
            for i in 0..60u32 {
                let at = f64::from(i % 7) * 0.5;
                q.push(if i % 3 == 0 {
                    ev(at, i)
                } else {
                    FleetEvent {
                        at,
                        kind: FleetEventKind::Arrival {
                            index: i as usize,
                            job: Job::new(i, at, 1.0),
                        },
                    }
                });
            }
            q
        };
        for seed in 0..8u64 {
            let mut q = fill(seed);
            let popped: Vec<FleetEvent> = std::iter::from_fn(|| q.pop()).collect();
            let sorted: Vec<FleetEvent> = fill(seed).into_sorted().collect();
            assert_eq!(popped, sorted, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "before the simulated clock")]
    fn rejects_scheduling_into_the_past() {
        let mut q = EventQueue::new(0);
        q.push(ev(5.0, 0));
        let _ = q.pop();
        q.push(ev(4.0, 1));
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn rejects_nan_time() {
        EventQueue::new(0).push(ev(f64::NAN, 0));
    }
}
