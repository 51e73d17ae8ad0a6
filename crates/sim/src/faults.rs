//! Deterministic fault injection for the online engine.
//!
//! The ROADMAP's fleet-simulator and serving-engine goals both need
//! sustained operation through host failures, so the engine must be
//! drivable through adversity *reproducibly*: a [`FaultPlan`] is a
//! time-sorted list of [`FaultEvent`]s — machine crashes (with
//! lost-work or checkpointed semantics), job cancellations, transient
//! speed-cap throttling, and arrival bursts — that
//! [`run_online_with_faults`](crate::online::run_online_with_faults)
//! merges into its event loop. Plans are either hand-built or sampled
//! from a seeded [`FaultModel`] (Poisson per fault category, same
//! reproducibility convention as `pas_workload::generators`), so every
//! benchmark row and proptest failure is replayable.
//!
//! The engine reports what the faults cost through a
//! [`ResilienceReport`] attached to the outcome: lost and cancelled
//! work, downtime, wasted (overhead) energy, recovery latencies, and —
//! when the plan carries a flow SLO — deadline misses.

use crate::online::SimError;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What happens to in-flight progress when the machine crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSemantics {
    /// All partial progress on unfinished jobs is erased: they restart
    /// from their full work after recovery (no stable storage).
    LoseProgress,
    /// Progress survives the crash (checkpointed to stable storage);
    /// the fault costs only downtime.
    Checkpointed,
}

/// One job injected by an [`FaultKind::ArrivalBurst`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstJob {
    /// Release offset from the burst's event time (`>= 0`).
    pub offset: f64,
    /// Work of the injected job (`> 0`).
    pub work: f64,
}

/// A fault category, applied at its event's time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The machine goes down for `duration` time units; no work runs
    /// and the policy is not consulted until recovery.
    Crash {
        /// Downtime length (`>= 0`).
        duration: f64,
        /// What happens to in-flight progress.
        semantics: CrashSemantics,
    },
    /// Cancel a job: it is removed from the ready set (or never
    /// admitted, if it has not arrived yet) and will not be delivered.
    /// Cancelling an unknown or already-completed job is a no-op.
    CancelJob {
        /// Target job id.
        job: u32,
    },
    /// Cap the execution speed at `cap` for `duration` time units
    /// (thermal or power-delivery throttling). Overlapping throttles
    /// compose by taking the minimum cap.
    Throttle {
        /// Throttle window length (`>= 0`).
        duration: f64,
        /// Maximum speed while active (`> 0`).
        cap: f64,
    },
    /// A batch of extra jobs released relative to the event time —
    /// the demand-spike fault.
    ArrivalBurst {
        /// The injected jobs (fresh ids are assigned by the engine).
        jobs: Vec<BurstJob>,
    },
}

/// A fault occurring at an absolute simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes (`>= 0`, finite).
    pub at: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Rejected [`FaultPlan`] constructions.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// An event time is negative or non-finite.
    BadTime {
        /// The offending time.
        at: f64,
    },
    /// A crash or throttle duration is negative or non-finite.
    BadDuration {
        /// Event time.
        at: f64,
        /// The offending duration.
        duration: f64,
    },
    /// A throttle cap is non-positive or non-finite.
    BadCap {
        /// Event time.
        at: f64,
        /// The offending cap.
        cap: f64,
    },
    /// A burst job has a negative offset or non-positive work.
    BadBurst {
        /// Event time.
        at: f64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::BadTime { at } => write!(f, "fault time {at} must be finite and >= 0"),
            FaultPlanError::BadDuration { at, duration } => {
                write!(
                    f,
                    "fault at t={at}: duration {duration} must be finite and >= 0"
                )
            }
            FaultPlanError::BadCap { at, cap } => {
                write!(f, "fault at t={at}: speed cap {cap} must be finite and > 0")
            }
            FaultPlanError::BadBurst { at } => {
                write!(
                    f,
                    "fault at t={at}: burst jobs need offset >= 0 and work > 0"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A validated, time-sorted fault scenario for one online run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    slo: Option<f64>,
}

impl FaultPlan {
    /// The empty plan: no faults, no SLO (what plain
    /// [`run_online`](crate::online::run_online) uses).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from events, validating and sorting them by time.
    ///
    /// # Errors
    /// [`FaultPlanError`] for non-finite/negative times or durations,
    /// non-positive caps, or malformed burst jobs.
    pub fn new(mut events: Vec<FaultEvent>) -> Result<Self, FaultPlanError> {
        for ev in &events {
            if !(ev.at.is_finite() && ev.at >= 0.0) {
                return Err(FaultPlanError::BadTime { at: ev.at });
            }
            match &ev.kind {
                FaultKind::Crash { duration, .. } => {
                    if !(duration.is_finite() && *duration >= 0.0) {
                        return Err(FaultPlanError::BadDuration {
                            at: ev.at,
                            duration: *duration,
                        });
                    }
                }
                FaultKind::Throttle { duration, cap } => {
                    if !(duration.is_finite() && *duration >= 0.0) {
                        return Err(FaultPlanError::BadDuration {
                            at: ev.at,
                            duration: *duration,
                        });
                    }
                    if !(cap.is_finite() && *cap > 0.0) {
                        return Err(FaultPlanError::BadCap {
                            at: ev.at,
                            cap: *cap,
                        });
                    }
                }
                FaultKind::ArrivalBurst { jobs } => {
                    let ok = jobs.iter().all(|b| {
                        b.offset.is_finite()
                            && b.offset >= 0.0
                            && b.work.is_finite()
                            && b.work > 0.0
                    });
                    if !ok {
                        return Err(FaultPlanError::BadBurst { at: ev.at });
                    }
                }
                FaultKind::CancelJob { .. } => {}
            }
        }
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        Ok(FaultPlan { events, slo: None })
    }

    /// Attach a per-job flow SLO (relative deadline): the engine then
    /// fills [`ResilienceReport::deadline_misses`] with the number of
    /// jobs whose flow `C_i − r_i` exceeds it (cancelled jobs count as
    /// misses).
    ///
    /// # Panics
    /// If `slo` is not positive and finite.
    #[must_use]
    pub fn with_slo(mut self, slo: f64) -> Self {
        assert!(slo.is_finite() && slo > 0.0, "SLO must be positive");
        self.slo = Some(slo);
        self
    }

    /// The attached flow SLO, if any.
    pub fn slo(&self) -> Option<f64> {
        self.slo
    }

    /// The validated events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consume the plan, returning its (time-sorted) event vector, so
    /// allocation-pooling callers can reclaim the buffer they fed to
    /// [`FaultPlan::new`] between back-to-back runs.
    pub fn into_events(self) -> Vec<FaultEvent> {
        self.events
    }
}

/// Configuration for the seeded fault-plan generator: independent
/// Poisson processes per fault category over a horizon (same inverse-CDF
/// idiom as `pas_workload::generators::poisson`, so plans are
/// reproducible from their seed alone).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Crashes per unit time.
    pub crash_rate: f64,
    /// Crash downtime range (uniform).
    pub crash_duration: (f64, f64),
    /// Probability a crash is [`CrashSemantics::Checkpointed`].
    pub checkpoint_prob: f64,
    /// Cancellations per unit time (targets drawn uniformly from the
    /// candidate job ids).
    pub cancel_rate: f64,
    /// Throttle windows per unit time.
    pub throttle_rate: f64,
    /// Throttle window length range (uniform).
    pub throttle_duration: (f64, f64),
    /// Speed-cap range (uniform).
    pub throttle_cap: (f64, f64),
    /// Arrival bursts per unit time.
    pub burst_rate: f64,
    /// Jobs per burst.
    pub burst_size: usize,
    /// Work range of burst jobs (uniform).
    pub burst_work: (f64, f64),
}

impl FaultModel {
    /// No faults at all (sampling yields the empty plan).
    pub fn calm() -> Self {
        FaultModel {
            crash_rate: 0.0,
            crash_duration: (0.5, 2.0),
            checkpoint_prob: 0.5,
            cancel_rate: 0.0,
            throttle_rate: 0.0,
            throttle_duration: (0.5, 2.0),
            throttle_cap: (0.3, 0.8),
            burst_rate: 0.0,
            burst_size: 3,
            burst_work: (0.5, 1.5),
        }
    }

    /// An even mix: each of the four categories at `rate / 4` events per
    /// unit time, with moderate default durations/caps/sizes — the knob
    /// the `fault_resilience` benchmark sweeps.
    ///
    /// # Panics
    /// If `rate` is negative or non-finite.
    pub fn uniform_mix(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0");
        FaultModel {
            crash_rate: rate / 4.0,
            cancel_rate: rate / 4.0,
            throttle_rate: rate / 4.0,
            burst_rate: rate / 4.0,
            ..FaultModel::calm()
        }
    }

    /// Cap the *expected number of events* over `horizon` at
    /// `target_events` by uniformly rescaling all four category rates.
    ///
    /// Rates are per-unit-time, so a model tuned for `horizon ≈ 30`
    /// silently explodes when sampled over a huge horizon (a crash rate
    /// of 0.25 over `1e9` time units is 250 million events — an OOM in
    /// [`sample`](FaultModel::sample), not a plan). Callers that sweep
    /// horizons — property tests in particular — should route rates
    /// through this budget instead of hand-capping each one. Models
    /// whose expectation is already within budget are unchanged.
    ///
    /// # Panics
    /// If `target_events` is negative/non-finite or `horizon` is
    /// negative/non-finite.
    #[must_use]
    pub fn with_event_budget(mut self, target_events: f64, horizon: f64) -> Self {
        assert!(
            target_events.is_finite() && target_events >= 0.0,
            "target_events must be >= 0"
        );
        assert!(
            horizon.is_finite() && horizon >= 0.0,
            "horizon must be >= 0"
        );
        let total_rate = self.crash_rate + self.cancel_rate + self.throttle_rate + self.burst_rate;
        let expected = total_rate * horizon;
        if expected > target_events && expected > 0.0 {
            let scale = target_events / expected;
            self.crash_rate *= scale;
            self.cancel_rate *= scale;
            self.throttle_rate *= scale;
            self.burst_rate *= scale;
        }
        self
    }

    /// Derive a per-host sampling seed from a fleet-level seed.
    ///
    /// Fleet scenarios sample one independent [`FaultPlan`] per host from
    /// a single scenario seed; the convention is
    /// `model.sample(horizon, jobs, FaultModel::for_host(seed, h))`.
    /// The mix is a splitmix64 finalizer over `seed ⊕ f(host_id)`, so
    /// host streams are decorrelated (adjacent seeds/hosts share no
    /// structure) yet fully reproducible: the same `(seed, host_id)`
    /// pair always yields the same plan, independent of how many hosts
    /// exist or in what order they are sampled — the replay-identity
    /// property `tests/fault_model.rs` pins.
    pub fn for_host(seed: u64, host_id: u32) -> u64 {
        // splitmix64 finalizer (Steele–Lea–Flood) over the combined key.
        let mut z = seed ^ (u64::from(host_id)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Check that [`sample`](FaultModel::sample) is well defined: the
    /// four rates finite and `>= 0`, `checkpoint_prob` in `[0, 1]`, and
    /// each `(lo, hi)` range finite with `lo <= hi`. A rate of `+inf` or
    /// NaN never lets the Poisson clock pass the horizon, so sampling
    /// would push events until memory runs out.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] naming the first bad field.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |reason: String| Err(SimError::InvalidConfig { reason });
        for (name, rate) in [
            ("crash_rate", self.crash_rate),
            ("cancel_rate", self.cancel_rate),
            ("throttle_rate", self.throttle_rate),
            ("burst_rate", self.burst_rate),
        ] {
            if !(rate.is_finite() && rate >= 0.0) {
                return invalid(format!("fault {name} {rate} must be finite and >= 0"));
            }
        }
        if !(0.0..=1.0).contains(&self.checkpoint_prob) {
            return invalid(format!(
                "fault checkpoint_prob {} must be in [0, 1]",
                self.checkpoint_prob
            ));
        }
        for (name, (lo, hi)) in [
            ("crash_duration", self.crash_duration),
            ("throttle_duration", self.throttle_duration),
            ("throttle_cap", self.throttle_cap),
            ("burst_work", self.burst_work),
        ] {
            if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                return invalid(format!(
                    "fault {name} ({lo}, {hi}) must be finite with lo <= hi"
                ));
            }
        }
        Ok(())
    }

    /// Sample a deterministic plan over `[0, horizon)`: each category is
    /// a Poisson process at its rate; cancellation targets are drawn
    /// from `candidate_jobs` (no cancels are generated when it is
    /// empty).
    ///
    /// # Panics
    /// If `horizon` is negative or non-finite, or
    /// [`validate`](FaultModel::validate) rejects the model: a rate that
    /// is NaN, infinite or negative, a `checkpoint_prob` outside
    /// `[0, 1]`, or a range that is not finite or has `lo > hi`.
    pub fn sample(&self, horizon: f64, candidate_jobs: &[u32], seed: u64) -> FaultPlan {
        assert!(
            horizon.is_finite() && horizon >= 0.0,
            "horizon must be >= 0"
        );
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let u01 = Uniform::new(f64::MIN_POSITIVE, 1.0);
        let mut events = Vec::new();

        // Poisson arrival times for one category via inverse-CDF
        // exponential gaps.
        let times = |rate: f64, rng: &mut StdRng| -> Vec<f64> {
            let mut out = Vec::new();
            if rate <= 0.0 {
                return out;
            }
            let mut t = 0.0;
            loop {
                t += -u01.sample(rng).ln() / rate;
                if t >= horizon {
                    return out;
                }
                out.push(t);
            }
        };

        for at in times(self.crash_rate, &mut rng) {
            let dur = Uniform::new_inclusive(self.crash_duration.0, self.crash_duration.1)
                .sample(&mut rng);
            let semantics = if u01.sample(&mut rng) < self.checkpoint_prob {
                CrashSemantics::Checkpointed
            } else {
                CrashSemantics::LoseProgress
            };
            events.push(FaultEvent {
                at,
                kind: FaultKind::Crash {
                    duration: dur.max(0.0),
                    semantics,
                },
            });
        }
        if !candidate_jobs.is_empty() {
            for at in times(self.cancel_rate, &mut rng) {
                let idx = Uniform::new_inclusive(0usize, candidate_jobs.len() - 1).sample(&mut rng);
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::CancelJob {
                        job: candidate_jobs[idx],
                    },
                });
            }
        }
        for at in times(self.throttle_rate, &mut rng) {
            let dur = Uniform::new_inclusive(self.throttle_duration.0, self.throttle_duration.1)
                .sample(&mut rng);
            let cap =
                Uniform::new_inclusive(self.throttle_cap.0, self.throttle_cap.1).sample(&mut rng);
            events.push(FaultEvent {
                at,
                kind: FaultKind::Throttle {
                    duration: dur.max(0.0),
                    cap: cap.max(f64::MIN_POSITIVE),
                },
            });
        }
        for at in times(self.burst_rate, &mut rng) {
            let wrk = Uniform::new_inclusive(self.burst_work.0, self.burst_work.1);
            let off = Uniform::new_inclusive(0.0, 0.5);
            let jobs = (0..self.burst_size)
                .map(|_| BurstJob {
                    offset: off.sample(&mut rng),
                    work: wrk.sample(&mut rng).max(f64::MIN_POSITIVE),
                })
                .collect();
            events.push(FaultEvent {
                at,
                kind: FaultKind::ArrivalBurst { jobs },
            });
        }
        FaultPlan::new(events).expect("sampled events are valid by construction")
    }
}

/// What the engine tells the policy when the world changes for reasons
/// other than arrivals/completions. Policies may ignore these (the
/// default [`notify`](crate::online::OnlinePolicy::notify) is a no-op)
/// or use them to re-plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultNotice {
    /// The machine just went down.
    Crashed {
        /// Crash time.
        at: f64,
        /// Progress semantics of this crash.
        semantics: CrashSemantics,
    },
    /// The machine is back up.
    Recovered {
        /// Recovery time.
        at: f64,
        /// Length of the down period that just ended.
        downtime: f64,
        /// Progress erased during that period (0 for checkpointed
        /// crashes).
        lost_work: f64,
    },
    /// A job was cancelled.
    JobCancelled {
        /// Cancellation time.
        at: f64,
        /// The cancelled job.
        job: u32,
    },
    /// A speed cap is now active.
    Throttled {
        /// Start of the throttle window.
        at: f64,
        /// End of the throttle window.
        until: f64,
        /// The cap.
        cap: f64,
    },
    /// A speed cap expired (no other cap may still be active).
    ThrottleLifted {
        /// Expiry time.
        at: f64,
    },
}

/// What a fault scenario cost: the resilience accounting attached to
/// every [`OnlineOutcome`](crate::online::OnlineOutcome).
///
/// All quantities are zero for a fault-free run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceReport {
    /// Number of crash events applied.
    pub crashes: usize,
    /// Total time the machine was down.
    pub downtime: f64,
    /// Work progress erased by lose-progress crashes plus partial
    /// progress discarded by cancellations.
    pub lost_work: f64,
    /// Number of jobs cancelled (delivered nothing).
    pub cancelled_jobs: usize,
    /// Total nominal work of cancelled jobs.
    pub cancelled_work: f64,
    /// Energy metered on progress that was later erased or cancelled —
    /// the energy overhead of the fault scenario.
    pub wasted_energy: f64,
    /// Number of decisions whose speed was clamped by an active
    /// throttle cap.
    pub throttle_clamps: usize,
    /// Number of jobs injected by arrival bursts.
    pub burst_jobs: usize,
    /// Jobs rejected or evicted by the serving layer's admission
    /// control ([`crate::serve`]); always zero for the one-shot entry
    /// points, which admit everything.
    pub shed_jobs: usize,
    /// Total nominal work of shed jobs.
    pub shed_work: f64,
    /// Per down-period latency from crash start to the first work
    /// executed after recovery (downtime + re-planning delay).
    pub recovery_latencies: Vec<f64>,
    /// Jobs whose flow exceeded the plan's SLO (cancelled jobs count as
    /// misses); `None` when the plan carried no SLO.
    pub deadline_misses: Option<usize>,
}

impl ResilienceReport {
    /// Largest recovery latency (0 when no crash occurred).
    pub fn max_recovery_latency(&self) -> f64 {
        self.recovery_latencies.iter().fold(0.0, |m, &l| m.max(l))
    }

    /// Whether the run saw no fault or overload effects at all.
    pub fn is_clean(&self) -> bool {
        self.crashes == 0
            && self.cancelled_jobs == 0
            && self.throttle_clamps == 0
            && self.burst_jobs == 0
            && self.shed_jobs == 0
            && self.lost_work == 0.0
            && self.downtime == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_rates_and_ranges_sampling_cannot_use() {
        assert_eq!(FaultModel::calm().validate(), Ok(()));
        assert_eq!(FaultModel::uniform_mix(0.4).validate(), Ok(()));
        let rejected = |m: FaultModel| match m.validate() {
            Err(SimError::InvalidConfig { reason }) => reason,
            other => panic!("{m:?}: expected InvalidConfig, got {other:?}"),
        };
        let calm = FaultModel::calm;
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for m in [
                FaultModel {
                    crash_rate: v,
                    ..calm()
                },
                FaultModel {
                    cancel_rate: v,
                    ..calm()
                },
                FaultModel {
                    throttle_rate: v,
                    ..calm()
                },
                FaultModel {
                    burst_rate: v,
                    ..calm()
                },
                FaultModel {
                    checkpoint_prob: v,
                    ..calm()
                },
                FaultModel {
                    crash_duration: (v, 2.0),
                    ..calm()
                },
                FaultModel {
                    throttle_duration: (0.5, v),
                    ..calm()
                },
                FaultModel {
                    throttle_cap: (v, 0.8),
                    ..calm()
                },
                FaultModel {
                    burst_work: (0.5, v),
                    ..calm()
                },
            ] {
                let reason = rejected(m);
                assert!(reason.contains(&v.to_string()), "{reason}");
            }
        }
        // A negative rate, a probability above one, and inverted ranges.
        for m in [
            FaultModel {
                crash_rate: -1.0,
                ..calm()
            },
            FaultModel {
                checkpoint_prob: 1.5,
                ..calm()
            },
            FaultModel {
                crash_duration: (2.0, 1.0),
                ..calm()
            },
            FaultModel {
                throttle_cap: (0.8, 0.3),
                ..calm()
            },
            FaultModel {
                burst_work: (1.5, 0.5),
                ..calm()
            },
        ] {
            rejected(m);
        }
    }

    #[test]
    #[should_panic(expected = "crash_rate")]
    fn sample_panics_on_an_infinite_rate_instead_of_filling_memory() {
        let model = FaultModel {
            crash_rate: f64::INFINITY,
            ..FaultModel::calm()
        };
        let _ = model.sample(10.0, &[], 1);
    }

    #[test]
    fn event_budget_caps_huge_horizons() {
        // Regression: uniform_mix(1.0) over a 1e9 horizon expects a
        // billion events — sampling that would OOM. The budget rescales
        // rates so the plan stays small (Poisson tail: well under 2×
        // the target) and sampling stays fast.
        let horizon = 1e9;
        let model = FaultModel::uniform_mix(1.0).with_event_budget(32.0, horizon);
        let total = model.crash_rate + model.cancel_rate + model.throttle_rate + model.burst_rate;
        assert!((total * horizon - 32.0).abs() < 1e-6, "expected {total}");
        let plan = model.sample(horizon, &[1, 2, 3], 7);
        assert!(
            plan.events().len() < 64,
            "plan has {} events",
            plan.events().len()
        );
    }

    #[test]
    fn event_budget_leaves_small_models_alone() {
        let model = FaultModel::uniform_mix(0.2);
        let capped = model.clone().with_event_budget(100.0, 30.0);
        assert_eq!(model, capped);
        // Zero-rate models are a no-op even at absurd horizons.
        let calm = FaultModel::calm().with_event_budget(1.0, 1e12);
        assert_eq!(calm, FaultModel::calm());
    }

    #[test]
    fn plan_sorts_and_validates() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 5.0,
                kind: FaultKind::CancelJob { job: 1 },
            },
            FaultEvent {
                at: 1.0,
                kind: FaultKind::Crash {
                    duration: 2.0,
                    semantics: CrashSemantics::LoseProgress,
                },
            },
        ])
        .unwrap();
        assert_eq!(plan.len(), 2);
        assert!(plan.events()[0].at <= plan.events()[1].at);
    }

    #[test]
    fn plan_rejects_bad_events() {
        let bad_time = FaultPlan::new(vec![FaultEvent {
            at: -1.0,
            kind: FaultKind::CancelJob { job: 0 },
        }]);
        assert!(matches!(bad_time, Err(FaultPlanError::BadTime { .. })));
        let bad_cap = FaultPlan::new(vec![FaultEvent {
            at: 0.0,
            kind: FaultKind::Throttle {
                duration: 1.0,
                cap: 0.0,
            },
        }]);
        assert!(matches!(bad_cap, Err(FaultPlanError::BadCap { .. })));
        let bad_burst = FaultPlan::new(vec![FaultEvent {
            at: 0.0,
            kind: FaultKind::ArrivalBurst {
                jobs: vec![BurstJob {
                    offset: -0.1,
                    work: 1.0,
                }],
            },
        }]);
        assert!(matches!(bad_burst, Err(FaultPlanError::BadBurst { .. })));
    }

    #[test]
    fn sampling_is_deterministic() {
        let model = FaultModel::uniform_mix(0.5);
        let a = model.sample(40.0, &[0, 1, 2], 7);
        let b = model.sample(40.0, &[0, 1, 2], 7);
        let c = model.sample(40.0, &[0, 1, 2], 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for ev in a.events() {
            assert!(ev.at >= 0.0 && ev.at < 40.0);
        }
    }

    #[test]
    fn calm_model_samples_empty() {
        let plan = FaultModel::calm().sample(100.0, &[0], 1);
        assert!(plan.is_empty());
    }

    #[test]
    fn report_aggregates() {
        let mut r = ResilienceReport::default();
        assert!(r.is_clean());
        assert_eq!(r.max_recovery_latency(), 0.0);
        r.recovery_latencies = vec![1.0, 3.5, 2.0];
        r.crashes = 3;
        assert!(!r.is_clean());
        assert_eq!(r.max_recovery_latency(), 3.5);
    }
}
