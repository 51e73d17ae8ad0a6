//! Fleet scenarios: hosts + workload + scripted events + fault model.
//!
//! A [`FleetScenario`] is pure configuration — everything a run needs,
//! and nothing a run produces. The same scenario value drives
//! [`crate::run`] (live dispatch) and [`crate::replay`] (trace-driven),
//! which is what makes record→replay equivalence a meaningful test: the
//! two paths share all configuration and differ only in where routing
//! decisions come from.

use pas_sim::faults::{CrashSemantics, FaultEvent, FaultKind, FaultModel, FaultPlan};
use pas_workload::Instance;

use crate::event::{FleetEvent, FleetEventKind};
use crate::host::HostConfig;

/// How the dispatcher picks a host for an arriving job (among hosts
/// that are joined, not departed, and not currently down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through eligible hosts in id order.
    RoundRobin,
    /// Least total work assigned so far; ties to the lowest id.
    LeastAssigned,
    /// Highest `speed_rating / (1 + assigned_work)` — a cheap stand-in
    /// for "fastest idle-most machine"; ties to the lowest id.
    WeightedFastest,
}

/// Validation failures for [`FleetScenario::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// No hosts configured.
    NoHosts,
    /// Two hosts share an id.
    DuplicateHost {
        /// The repeated id.
        id: u32,
    },
    /// A scripted event names a host that does not exist.
    UnknownHost {
        /// The unknown id.
        id: u32,
    },
    /// A scripted event has a bad timestamp or duration.
    BadEvent {
        /// Explanation.
        reason: String,
    },
    /// The horizon is non-finite or non-positive.
    BadHorizon {
        /// The offending value.
        horizon: f64,
    },
    /// A host's cap, availability, policy parameters, or admission
    /// queue is malformed.
    BadHost {
        /// The host id.
        id: u32,
        /// Explanation.
        reason: String,
    },
    /// The background fault model has a rate or range that
    /// [`FaultModel::validate`] rejects.
    BadFaultModel {
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoHosts => write!(f, "scenario has no hosts"),
            ScenarioError::DuplicateHost { id } => write!(f, "duplicate host id {id}"),
            ScenarioError::UnknownHost { id } => write!(f, "event names unknown host {id}"),
            ScenarioError::BadEvent { reason } => write!(f, "bad event: {reason}"),
            ScenarioError::BadHorizon { horizon } => {
                write!(f, "horizon must be finite and positive, got {horizon}")
            }
            ScenarioError::BadHost { id, reason } => write!(f, "host {id}: {reason}"),
            ScenarioError::BadFaultModel { reason } => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A complete fleet scenario.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// The hosts (ids must be unique; kept in the order given, routed
    /// in id order).
    pub hosts: Vec<HostConfig>,
    /// The fleet-level workload to dispatch.
    pub workload: Instance,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Scripted events beyond workload arrivals (host failures,
    /// mid-run joins are derived from `available_from`, leaves).
    pub events: Vec<FleetEvent>,
    /// Optional background fault model, sampled once per host with
    /// [`FaultModel::for_host`] seeding.
    pub fault_model: Option<FaultModel>,
    /// Crash semantics for scripted host failures.
    pub crash_semantics: CrashSemantics,
    /// Accounting horizon: static power is charged over each host's
    /// on-window up to at least this time (extended per host if its
    /// schedule overruns).
    pub horizon: f64,
    /// Scenario seed: drives event-queue tie-breaking and per-host
    /// fault sampling.
    pub seed: u64,
    /// Optional per-job flow SLO forwarded into every host's fault
    /// plan (deadline misses then aggregate fleet-wide).
    pub slo: Option<f64>,
}

impl FleetScenario {
    /// A scenario with the given hosts/workload/horizon/seed and
    /// defaults everywhere else: round-robin dispatch, no scripted
    /// events, no background faults, checkpointed crash semantics, no
    /// SLO.
    pub fn new(hosts: Vec<HostConfig>, workload: Instance, horizon: f64, seed: u64) -> Self {
        FleetScenario {
            hosts,
            workload,
            dispatch: DispatchPolicy::RoundRobin,
            events: Vec::new(),
            fault_model: None,
            crash_semantics: CrashSemantics::Checkpointed,
            horizon,
            seed,
            slo: None,
        }
    }

    /// Check the configuration is internally consistent.
    ///
    /// # Errors
    /// [`ScenarioError`] naming the first problem found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.hosts.is_empty() {
            return Err(ScenarioError::NoHosts);
        }
        if !(self.horizon.is_finite() && self.horizon > 0.0) {
            return Err(ScenarioError::BadHorizon {
                horizon: self.horizon,
            });
        }
        let mut ids: Vec<u32> = self.hosts.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        for w in ids.windows(2) {
            if w[0] == w[1] {
                return Err(ScenarioError::DuplicateHost { id: w[0] });
            }
        }
        for h in &self.hosts {
            if !(h.available_from.is_finite() && h.available_from >= 0.0) {
                return Err(ScenarioError::BadHost {
                    id: h.id,
                    reason: format!(
                        "available_from {} must be finite and >= 0",
                        h.available_from
                    ),
                });
            }
            if let Some(cap) = h.speed_cap {
                if !(cap.is_finite() && cap > 0.0) {
                    return Err(ScenarioError::BadHost {
                        id: h.id,
                        reason: format!("speed cap {cap} must be finite and positive"),
                    });
                }
            }
            h.policy
                .validate()
                .map_err(|reason| ScenarioError::BadHost { id: h.id, reason })?;
            if let Some(ac) = &h.admission {
                ac.validate().map_err(|e| ScenarioError::BadHost {
                    id: h.id,
                    reason: e.to_string(),
                })?;
            }
        }
        if let Some(model) = &self.fault_model {
            model.validate().map_err(|e| ScenarioError::BadFaultModel {
                reason: e.to_string(),
            })?;
        }
        for ev in &self.events {
            if !(ev.at.is_finite() && ev.at >= 0.0) {
                return Err(ScenarioError::BadEvent {
                    reason: format!("time {} must be finite and >= 0", ev.at),
                });
            }
            let host = match &ev.kind {
                FleetEventKind::HostJoin { host }
                | FleetEventKind::HostLeave { host }
                | FleetEventKind::HostFail { host, .. } => *host,
                FleetEventKind::Arrival { .. } => {
                    return Err(ScenarioError::BadEvent {
                        reason: "arrivals come from the workload, not scripted events".into(),
                    })
                }
            };
            if ids.binary_search(&host).is_err() {
                return Err(ScenarioError::UnknownHost { id: host });
            }
            if let FleetEventKind::HostFail { duration, .. } = &ev.kind {
                if !(duration.is_finite() && *duration >= 0.0) {
                    return Err(ScenarioError::BadEvent {
                        reason: format!("fail duration {duration} must be finite and >= 0"),
                    });
                }
            }
        }
        Ok(())
    }

    /// The host with the given id, if configured.
    pub fn host(&self, id: u32) -> Option<&HostConfig> {
        self.hosts.iter().find(|h| h.id == id)
    }

    /// Assemble one host's [`FaultPlan`] from the scenario: scripted
    /// [`FleetEventKind::HostFail`] events become crashes (with the
    /// scenario's [`CrashSemantics`]), a configured speed cap becomes a
    /// full-horizon throttle at t = 0, and the background
    /// [`FaultModel`] (if any) contributes an independent stream seeded
    /// by [`FaultModel::for_host`] with `candidate_jobs` as its
    /// cancellation targets. The scenario SLO is attached.
    ///
    /// This is deliberately a pure function of
    /// `(scenario, host_id, candidate_jobs)` — the replay path calls it
    /// with the identical inputs and must get the identical plan.
    pub fn host_plan(&self, host_id: u32, candidate_jobs: &[u32]) -> FaultPlan {
        let mut scripted: Vec<FaultEvent> = Vec::new();
        for ev in &self.events {
            if let FleetEventKind::HostFail { host, duration } = &ev.kind {
                if *host == host_id {
                    scripted.push(FaultEvent {
                        at: ev.at,
                        kind: FaultKind::Crash {
                            duration: *duration,
                            semantics: self.crash_semantics,
                        },
                    });
                }
            }
        }
        let cap = self.host(host_id).and_then(|h| h.speed_cap);
        self.plan_from_parts(host_id, cap, &scripted, candidate_jobs, Vec::new())
    }

    /// [`Self::host_plan`] with the per-host scans hoisted out: the
    /// scripted crash list and speed cap arrive precomputed (the
    /// grouped partition pass gathers them in one sweep), and the event
    /// buffer is caller-owned so worker scratch can recycle it between
    /// hosts. Assembly order — scripted crashes, then the cap throttle,
    /// then sampled background faults — matches `host_plan` exactly;
    /// `FaultPlan::new` sorts stably by time, so order among time-ties
    /// is semantic and must not drift.
    pub(crate) fn plan_from_parts(
        &self,
        host_id: u32,
        speed_cap: Option<f64>,
        scripted: &[FaultEvent],
        candidate_jobs: &[u32],
        mut events: Vec<FaultEvent>,
    ) -> FaultPlan {
        events.clear();
        events.extend_from_slice(scripted);
        if let Some(cap) = speed_cap {
            events.push(FaultEvent {
                at: 0.0,
                kind: FaultKind::Throttle {
                    // Finite but beyond any schedule: FaultPlan requires
                    // finite durations.
                    duration: 1e300,
                    cap,
                },
            });
        }
        if let Some(model) = &self.fault_model {
            let sampled = model.sample(
                self.horizon,
                candidate_jobs,
                FaultModel::for_host(self.seed, host_id),
            );
            events.extend(sampled.into_events());
        }
        let plan = FaultPlan::new(events).expect("scenario-derived events are validated");
        match self.slo {
            Some(slo) => plan.with_slo(slo),
            None => plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::EnginePower;
    use pas_power::{HostPower, PolyPower};
    use pas_sim::online::{AdmissionConfig, ShedPolicy};
    use pas_workload::Job;

    fn two_hosts() -> Vec<HostConfig> {
        (0..2)
            .map(|id| {
                HostConfig::new(
                    id,
                    HostPower::dynamic_only(EnginePower::Poly(PolyPower::CUBE)),
                )
            })
            .collect()
    }

    fn workload() -> Instance {
        Instance::new(vec![Job::new(0, 0.0, 2.0), Job::new(1, 1.0, 1.0)]).unwrap()
    }

    #[test]
    fn validates_clean_scenario() {
        let s = FleetScenario::new(two_hosts(), workload(), 10.0, 1);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn rejects_duplicate_and_unknown_hosts() {
        let mut hosts = two_hosts();
        hosts[1].id = 0;
        let s = FleetScenario::new(hosts, workload(), 10.0, 1);
        assert_eq!(s.validate(), Err(ScenarioError::DuplicateHost { id: 0 }));

        let mut s = FleetScenario::new(two_hosts(), workload(), 10.0, 1);
        s.events.push(FleetEvent {
            at: 1.0,
            kind: FleetEventKind::HostFail {
                host: 9,
                duration: 1.0,
            },
        });
        assert_eq!(s.validate(), Err(ScenarioError::UnknownHost { id: 9 }));
    }

    #[test]
    fn rejects_an_invalid_admission_queue() {
        let mut hosts = two_hosts();
        hosts[1].admission = Some(AdmissionConfig {
            capacity: 0,
            shed: ShedPolicy::RejectNewest,
        });
        let s = FleetScenario::new(hosts, workload(), 10.0, 1);
        match s.validate() {
            Err(ScenarioError::BadHost { id: 1, reason }) => {
                assert!(reason.contains("capacity"), "{reason}");
            }
            other => panic!("expected BadHost for host 1, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_host_policy_parameters_without_panicking() {
        use crate::host::HostPolicy;
        for v in [f64::NAN, 0.0, -1.0] {
            let (a, q) = (3.0, 5.0);
            for policy in [
                HostPolicy::Fixed { speed: v },
                HostPolicy::Qoa {
                    allowance: v,
                    alpha: a,
                    q,
                },
                HostPolicy::Qoa {
                    allowance: 2.0,
                    alpha: v,
                    q,
                },
                HostPolicy::Qoa {
                    allowance: 2.0,
                    alpha: a,
                    q: v,
                },
                HostPolicy::Bkp { factor: v },
            ] {
                let mut hosts = two_hosts();
                hosts[1].policy = policy.clone();
                let s = FleetScenario::new(hosts, workload(), 10.0, 1);
                match s.validate() {
                    Err(ScenarioError::BadHost { id: 1, reason }) => {
                        assert!(reason.contains(&v.to_string()), "{reason}");
                    }
                    other => panic!("{policy:?}: expected BadHost for host 1, got {other:?}"),
                }
                assert!(crate::sim::run(&s).is_err(), "{policy:?} must not run");
            }
        }
        let fine = HostPolicy::Qoa {
            allowance: 2.0,
            alpha: 3.0,
            q: 5.0,
        };
        assert_eq!(fine.validate(), Ok(()));
        assert_eq!(HostPolicy::Bkp { factor: 1.3 }.validate(), Ok(()));
    }

    #[test]
    fn rejects_a_fault_model_sampling_cannot_use() {
        for model in [
            FaultModel {
                crash_rate: f64::INFINITY,
                ..FaultModel::calm()
            },
            FaultModel {
                cancel_rate: f64::NAN,
                ..FaultModel::calm()
            },
            FaultModel {
                crash_duration: (2.0, 1.0),
                ..FaultModel::calm()
            },
        ] {
            let mut s = FleetScenario::new(two_hosts(), workload(), 10.0, 1);
            s.fault_model = Some(model.clone());
            assert!(
                matches!(s.validate(), Err(ScenarioError::BadFaultModel { .. })),
                "{model:?}"
            );
            assert!(
                matches!(
                    crate::sim::run(&s),
                    Err(crate::sim::FleetError::Scenario(
                        ScenarioError::BadFaultModel { .. }
                    ))
                ),
                "{model:?} must not run"
            );
        }
    }

    #[test]
    fn host_plan_merges_fail_cap_and_model() {
        let mut hosts = two_hosts();
        hosts[0].speed_cap = Some(0.5);
        let mut s = FleetScenario::new(hosts, workload(), 10.0, 1);
        s.events.push(FleetEvent {
            at: 2.0,
            kind: FleetEventKind::HostFail {
                host: 0,
                duration: 1.0,
            },
        });
        s.fault_model = Some(FaultModel::uniform_mix(0.2));
        s.slo = Some(4.0);
        let plan = s.host_plan(0, &[0, 1]);
        assert_eq!(plan.slo(), Some(4.0));
        assert!(plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Crash { .. }) && e.at == 2.0));
        assert!(plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Throttle { cap, .. } if cap == 0.5)));
        // Pure function: same inputs, same plan.
        assert_eq!(plan, s.host_plan(0, &[0, 1]));
        // Host 1 has no cap and no scripted fail; only sampled faults.
        let other = s.host_plan(1, &[0, 1]);
        assert!(!other
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Throttle { .. })
                && e.at == 0.0
                && matches!(e.kind, FaultKind::Throttle { cap, .. } if cap == 0.5)));
        assert_ne!(plan, other, "host streams must be decorrelated");
    }
}
