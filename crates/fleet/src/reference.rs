//! Reference dispatcher: the original `O(H)`-per-arrival scan.
//!
//! Per the workspace convention, a displaced engine survives as a
//! reference entry point with an equivalence suite (as
//! `pas_sim::reference` does for the online engine's storage). The
//! production phase 1 ([`crate::dispatch`]) keeps a tournament tree
//! over host slots and drains the calendar from one sort; this module
//! keeps the straightforward version it replaced: pop the
//! [`EventQueue`] heap one event at a time, find hosts by linear
//! search, and rebuild the eligible list by scanning every host on
//! every arrival. `tests/fleet_dispatch_equivalence.rs` holds the two
//! byte-identical on the serialized trace.

use crate::event::{EventQueue, FleetEvent, FleetEventKind};
use crate::scenario::{DispatchPolicy, FleetScenario};
use crate::trace::{EventTrace, TraceRecord};

/// Dispatch-phase state for one host.
struct HostState {
    id: u32,
    joined: bool,
    left: bool,
    down_until: f64,
    assigned_work: f64,
    rating: f64,
}

/// [`crate::dispatch`] by a full eligibility scan per arrival.
///
/// The scenario is expected to be valid ([`FleetScenario::validate`]);
/// the production path validates before it dispatches.
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

    // Host states in id order (the canonical eligibility scan order).
    let mut states: Vec<HostState> = scenario
        .hosts
        .iter()
        .map(|h| HostState {
            id: h.id,
            joined: false,
            left: false,
            down_until: f64::NEG_INFINITY,
            assigned_work: 0.0,
            rating: h.speed_rating(),
        })
        .collect();
    states.sort_by_key(|s| s.id);

    let mut records = Vec::new();
    let mut rr = 0usize;

    while let Some(ev) = queue.pop() {
        match ev.kind {
            FleetEventKind::HostJoin { host } => {
                if let Some(s) = states.iter_mut().find(|s| s.id == host) {
                    s.joined = true;
                }
                records.push(TraceRecord::Join { at: ev.at, host });
            }
            FleetEventKind::HostLeave { host } => {
                if let Some(s) = states.iter_mut().find(|s| s.id == host) {
                    s.left = true;
                }
                records.push(TraceRecord::Leave { at: ev.at, host });
            }
            FleetEventKind::HostFail { host, duration } => {
                if let Some(s) = states.iter_mut().find(|s| s.id == host) {
                    s.down_until = s.down_until.max(ev.at + duration);
                }
                records.push(TraceRecord::Fail {
                    at: ev.at,
                    host,
                    duration,
                });
            }
            FleetEventKind::Arrival { index, job } => {
                let eligible: Vec<usize> = states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.joined && !s.left && ev.at >= s.down_until)
                    .map(|(i, _)| i)
                    .collect();
                let chosen = if eligible.is_empty() {
                    None
                } else {
                    let pick = match scenario.dispatch {
                        DispatchPolicy::RoundRobin => {
                            let p = eligible[rr % eligible.len()];
                            rr += 1;
                            p
                        }
                        DispatchPolicy::LeastAssigned => *eligible
                            .iter()
                            .min_by(|&&a, &&b| {
                                states[a]
                                    .assigned_work
                                    .total_cmp(&states[b].assigned_work)
                                    .then(states[a].id.cmp(&states[b].id))
                            })
                            .expect("non-empty"),
                        DispatchPolicy::WeightedFastest => *eligible
                            .iter()
                            .max_by(|&&a, &&b| {
                                let score = |s: &HostState| s.rating / (1.0 + s.assigned_work);
                                score(&states[a])
                                    .total_cmp(&score(&states[b]))
                                    // On score ties prefer the lower id
                                    // (max_by keeps the later maximum).
                                    .then(states[b].id.cmp(&states[a].id))
                            })
                            .expect("non-empty"),
                    };
                    states[pick].assigned_work += job.work;
                    Some(states[pick].id)
                };
                records.push(TraceRecord::Arrival {
                    at: ev.at,
                    index,
                    job_id: job.id,
                    release: job.release,
                    work: job.work,
                    routed: chosen,
                });
            }
        }
    }

    EventTrace {
        seed: scenario.seed,
        records,
    }
}
