//! The grouped partition pass: trace → per-host execution tasks.
//!
//! The old execute phase re-derived each host's inputs with per-host
//! scans — for every host, walk `scenario.events` for its leave time
//! and scripted crashes, and look its assignment up in a `BTreeMap` —
//! an `O(hosts × records)` shape that dominated phase 2 setup at fleet
//! scale. [`partition`] replaces all of it with **two linear sweeps**:
//! one over the scenario's scripted events and one over the trace,
//! binary-searching host id → slot per record. It also owns the trace
//! validation replay needs (arrival records must match the workload
//! bit-exactly, routed hosts must exist), so [`crate::run`] and
//! [`crate::replay`] share one partition path and can only diverge in
//! where the trace came from.
//!
//! Determinism notes, load-bearing:
//! * `leave_at` is the **first** `HostLeave` for the host in
//!   `scenario.events` *vector order* (the old `find_map`), not the
//!   earliest by time.
//! * Scripted crashes are collected in `scenario.events` vector order —
//!   `FaultPlan::new` sorts stably by time, so input order among
//!   time-ties is semantic.
//! * Fleet-shed counts accumulate in trace-record order, the same f64
//!   summation order the dispatch loop used.

use pas_sim::faults::{FaultEvent, FaultKind};

use crate::event::FleetEventKind;
use crate::scenario::FleetScenario;
use crate::sim::FleetError;
use crate::trace::EventTrace;

/// Everything phase 2 needs to run one host, gathered in one pass.
#[derive(Debug)]
pub(crate) struct HostTask {
    /// Host id.
    pub host: u32,
    /// Assigned workload indices, ascending.
    pub indices: Vec<usize>,
    /// The host's scripted leave time, if any (first in event order).
    pub leave_at: Option<f64>,
    /// Scripted crash events for this host, in scenario-event order.
    pub crashes: Vec<FaultEvent>,
    /// LPT cost estimate: assigned-job count × host cost weight. A
    /// scheduling heuristic only — results never depend on it.
    pub cost: f64,
}

/// The full phase-2 work list plus fleet-frontier shed accounting.
#[derive(Debug)]
pub(crate) struct Partition {
    /// One task per host, in ascending host-id order (slot `i` is the
    /// `i`-th smallest id — the reduction's canonical order).
    pub tasks: Vec<HostTask>,
    /// Arrivals no eligible host could take.
    pub shed_jobs: usize,
    /// Work of those arrivals.
    pub shed_work: f64,
}

/// Host id → slot map: slot `i` holds the `i`-th smallest host id, the
/// one canonical order of dispatch leaves, partition tasks, and the
/// reduction.
pub(crate) struct HostSlots {
    ids: Vec<u32>,
}

impl HostSlots {
    pub(crate) fn new(scenario: &FleetScenario) -> Self {
        let mut ids: Vec<u32> = scenario.hosts.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        HostSlots { ids }
    }

    /// Host ids in slot order (ascending).
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The slot of host `id`, by binary search.
    pub(crate) fn slot(&self, id: u32) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }
}

/// Derive the phase-2 work list from a trace in two linear sweeps.
///
/// # Errors
/// [`FleetError::TraceMismatch`] when an arrival record does not match
/// the scenario workload bit-exactly or routes to an unknown host.
pub(crate) fn partition(
    scenario: &FleetScenario,
    trace: &EventTrace,
) -> Result<Partition, FleetError> {
    let slots = HostSlots::new(scenario);
    let mut tasks: Vec<HostTask> = slots
        .ids()
        .iter()
        .map(|&host| HostTask {
            host,
            indices: Vec::new(),
            leave_at: None,
            crashes: Vec::new(),
            cost: 0.0,
        })
        .collect();

    // Sweep 1: scripted events → per-host leave/crash lists, observed
    // in the exact vector order host_plan's per-host scans used.
    for ev in &scenario.events {
        match ev.kind {
            FleetEventKind::HostLeave { host } => {
                if let Some(slot) = slots.slot(host) {
                    let task = &mut tasks[slot];
                    if task.leave_at.is_none() {
                        task.leave_at = Some(ev.at);
                    }
                }
            }
            FleetEventKind::HostFail { host, duration } => {
                if let Some(slot) = slots.slot(host) {
                    tasks[slot].crashes.push(FaultEvent {
                        at: ev.at,
                        kind: FaultKind::Crash {
                            duration,
                            semantics: scenario.crash_semantics,
                        },
                    });
                }
            }
            _ => {}
        }
    }

    // Sweep 2: trace arrivals → assignments + frontier-shed totals, in
    // record order.
    let mut shed_jobs = 0usize;
    let mut shed_work = 0.0f64;
    for rec in &trace.records {
        let Some(a) = rec.arrival() else { continue };
        if a.index >= scenario.workload.len() {
            return Err(FleetError::TraceMismatch {
                reason: format!("arrival index {} out of range", a.index),
            });
        }
        let job = scenario.workload.job(a.index);
        if job.id != a.job_id
            || job.release.to_bits() != a.release.to_bits()
            || job.work.to_bits() != a.work.to_bits()
        {
            return Err(FleetError::TraceMismatch {
                reason: format!("arrival {} does not match the scenario workload", a.index),
            });
        }
        match a.routed {
            Some(host) => match slots.slot(host) {
                Some(slot) => tasks[slot].indices.push(a.index),
                None => {
                    return Err(FleetError::TraceMismatch {
                        reason: format!("arrival {} routed to unknown host {host}", a.index),
                    })
                }
            },
            None => {
                shed_jobs += 1;
                shed_work += job.work;
            }
        }
    }

    for task in &mut tasks {
        // Dispatch pops arrivals in seed-tie-broken order; the engine
        // wants the workload's canonical index order (see sim.rs).
        task.indices.sort_unstable();
        let cfg = scenario.host(task.host).expect("validated host");
        task.cost = task.indices.len() as f64 * cfg.cost_weight();
    }

    Ok(Partition {
        tasks,
        shed_jobs,
        shed_work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FleetEvent;
    use crate::host::{EnginePower, HostConfig};
    use pas_power::{HostPower, PolyPower};
    use pas_workload::{Instance, Job};

    fn scenario() -> FleetScenario {
        let hosts = vec![
            HostConfig::new(
                5,
                HostPower::dynamic_only(EnginePower::Poly(PolyPower::CUBE)),
            ),
            HostConfig::new(
                2,
                HostPower::dynamic_only(EnginePower::Poly(PolyPower::CUBE)),
            ),
        ];
        let workload = Instance::new(vec![
            Job::new(0, 0.0, 1.0),
            Job::new(1, 0.5, 2.0),
            Job::new(2, 1.0, 4.0),
        ])
        .unwrap();
        FleetScenario::new(hosts, workload, 10.0, 1)
    }

    #[test]
    fn groups_events_and_arrivals_by_host() {
        let mut s = scenario();
        s.events.push(FleetEvent {
            at: 6.0,
            kind: FleetEventKind::HostLeave { host: 5 },
        });
        s.events.push(FleetEvent {
            at: 4.0,
            kind: FleetEventKind::HostLeave { host: 5 },
        });
        s.events.push(FleetEvent {
            at: 1.0,
            kind: FleetEventKind::HostFail {
                host: 2,
                duration: 0.5,
            },
        });
        let out = crate::run(&s).unwrap();
        let part = partition(&s, &out.trace).unwrap();
        assert_eq!(part.tasks.len(), 2);
        assert_eq!(part.tasks[0].host, 2, "slots are in ascending id order");
        assert_eq!(part.tasks[1].host, 5);
        // find_map semantics: first leave in *vector* order wins, even
        // though a later-listed leave has the earlier timestamp.
        assert_eq!(part.tasks[1].leave_at, Some(6.0));
        assert_eq!(part.tasks[0].leave_at, None);
        assert_eq!(part.tasks[0].crashes.len(), 1);
        assert!(part.tasks[1].crashes.is_empty());
        let assigned: usize = part.tasks.iter().map(|t| t.indices.len()).sum();
        assert_eq!(assigned + part.shed_jobs, 3);
        for t in &part.tasks {
            assert!(t.indices.windows(2).all(|w| w[0] < w[1]), "ascending");
        }
    }

    #[test]
    fn rejects_workload_mismatch_and_unknown_host() {
        let s = scenario();
        let out = crate::run(&s).unwrap();
        let mut wrong = s.clone();
        wrong.workload = Instance::new(vec![
            Job::new(0, 0.0, 9.0),
            Job::new(1, 0.5, 2.0),
            Job::new(2, 1.0, 4.0),
        ])
        .unwrap();
        assert!(matches!(
            partition(&wrong, &out.trace),
            Err(FleetError::TraceMismatch { .. })
        ));
        let mut bad_route = out.trace.clone();
        for rec in &mut bad_route.records {
            if let crate::trace::TraceRecord::Arrival { routed, .. } = rec {
                *routed = Some(99);
            }
        }
        assert!(matches!(
            partition(&s, &bad_route),
            Err(FleetError::TraceMismatch { .. })
        ));
    }

    #[test]
    fn cost_orders_by_assignment_and_weight() {
        let mut s = scenario();
        s.hosts[0].speed_cap = Some(0.5); // host 5: weight 2 per job
        let out = crate::run(&s).unwrap();
        let part = partition(&s, &out.trace).unwrap();
        for t in &part.tasks {
            let weight = if t.host == 5 { 2.0 } else { 1.0 };
            assert_eq!(t.cost, t.indices.len() as f64 * weight);
        }
    }
}
