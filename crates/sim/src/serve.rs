//! A long-running, crash-safe serving layer over the §6 online engine.
//!
//! [`Server`] wraps the step-wise engine behind three robustness
//! mechanisms the one-shot [`run_online_with_faults`] entry point does
//! not have:
//!
//! 1. **Admission control** — arrivals pass through a bounded queue
//!    with deterministic load-shedding ([`AdmissionConfig`] /
//!    [`ShedPolicy`](crate::online::ShedPolicy)); shed decisions are
//!    recorded in the
//!    [`ResilienceReport`](crate::faults::ResilienceReport) and removed
//!    from the effective instance, so the surviving schedule still
//!    validates.
//! 2. **Write-ahead journal + snapshots** — every policy consultation
//!    is journaled before its decision takes effect, and the full
//!    engine state is periodically checkpointed. A killed process
//!    restores via [`Server::restore`] and replays to a
//!    **bit-identical** [`OnlineOutcome`].
//! 3. **Watchdog + circuit breaker** — each live policy consultation
//!    runs under a wall-clock budget ([`WatchdogConfig`]); after
//!    `trip_limit` overruns the breaker opens and the server degrades
//!    to a deterministic earliest-release fallback so a wedged solver
//!    cannot stall the loop. Trips are *journaled*, never re-measured,
//!    which is what keeps wall-clock nondeterminism out of replay.
//!
//! [`run_online_with_faults`]: crate::online::run_online_with_faults

use crate::arena::ShardedReadySet;
use crate::faults::{FaultNotice, FaultPlan};
use crate::journal::{
    read_records, scenario_digest, DecisionRecord, Journal, JournalError, Record, Snapshot,
    JOURNAL_VERSION,
};
use crate::online::{
    materialize_arrivals, AdmissionConfig, Decision, EngineState, OnlineOutcome, OnlinePolicy,
    ReadyView, SimError,
};
use pas_workload::{Instance, Job};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Wall-clock budget for individual policy consultations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Budget for a single `decide` call; longer calls count as trips.
    pub budget: Duration,
    /// Trips before the circuit breaker opens and the server stops
    /// consulting the policy altogether.
    pub trip_limit: u32,
    /// Speed of the deterministic earliest-release fallback used once
    /// the breaker is open (finite, `> 0`).
    pub fallback_speed: f64,
}

impl WatchdogConfig {
    /// Check the documented domain: a finite `fallback_speed > 0`.
    /// Outside it the fault would only show when the breaker opens, as
    /// an invalid fallback decision after decisions were journaled.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] naming the field and its value.
    pub fn validate(&self) -> Result<(), SimError> {
        let v = self.fallback_speed;
        if v.is_finite() && v > 0.0 {
            Ok(())
        } else {
            Err(SimError::InvalidConfig {
                reason: format!("watchdog fallback_speed {v} must be finite and > 0"),
            })
        }
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            budget: Duration::from_millis(100),
            trip_limit: 3,
            fallback_speed: 1.0,
        }
    }
}

/// Configuration for a [`Server`]. The default is a plain pass-through:
/// no admission control, no snapshots, no watchdog, no latency capture.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Bounded admission queue and shedding policy (`None` = admit
    /// everything, exactly like the one-shot engine).
    pub admission: Option<AdmissionConfig>,
    /// Checkpoint the full engine state every this many engine steps
    /// (`None` = journal only; restores replay from genesis).
    pub snapshot_every: Option<u64>,
    /// Wall-clock watchdog over policy consultations.
    pub watchdog: Option<WatchdogConfig>,
    /// Record per-decision latencies in [`ServeStats::decide_nanos`]
    /// (for the E24 p99 measurements; costs one `Instant` pair and a
    /// `Vec` push per decision).
    pub record_latency: bool,
}

/// Serving-layer counters, alongside the engine's own
/// [`ResilienceReport`](crate::faults::ResilienceReport).
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Engine steps driven (each step is one event-loop iteration).
    pub steps: u64,
    /// Live policy consultations (journaled).
    pub decisions: u64,
    /// Consultations answered from the journal during a restore.
    pub replayed_decisions: u64,
    /// Watchdog budget overruns (live + replayed).
    pub watchdog_trips: u64,
    /// Whether the circuit breaker ended the run open.
    pub breaker_opened: bool,
    /// Snapshots written.
    pub snapshots: u64,
    /// Journal records written by this server (not replayed history).
    pub journal_records: u64,
    /// Per-decision wall-clock latencies in nanoseconds, when
    /// [`ServeConfig::record_latency`] is set.
    pub decide_nanos: Vec<u64>,
}

/// What a completed serving run produced.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The engine outcome — identical in shape (and, for restored runs,
    /// identical in *bits*) to what the one-shot entry points return.
    pub outcome: OnlineOutcome,
    /// Serving-layer counters.
    pub stats: ServeStats,
}

/// Check `config` and materialize the scenario: the arrival stream, its
/// burst-job count, and the digest a journal header carries.
fn scenario(
    instance: &Instance,
    plan: &FaultPlan,
    config: &ServeConfig,
) -> Result<(Vec<Job>, usize, u64), SimError> {
    if let Some(ac) = &config.admission {
        ac.validate()?;
    }
    if let Some(wd) = &config.watchdog {
        wd.validate()?;
    }
    let mut arrivals = Vec::new();
    let burst_jobs = materialize_arrivals(instance, plan, &mut arrivals);
    let digest = scenario_digest(&arrivals, plan, config.admission.as_ref());
    Ok((arrivals, burst_jobs, digest))
}

/// A long-running serving process around the online engine.
///
/// Drive it with [`run`](Server::run) (to completion) or
/// [`run_for`](Server::run_for) (bounded steps — the crash-simulation
/// hook: run partway, drop the server, restore from the journal).
pub struct Server<'a, M> {
    model: &'a M,
    config: ServeConfig,
    engine: EngineState,
    journal: Journal,
    /// Journaled decisions still to be replayed (restore path).
    replay: VecDeque<DecisionRecord>,
    seq: u64,
    wd_trips: u64,
    breaker_open: bool,
    steps: u64,
    steps_since_snapshot: u64,
    decisions: u64,
    replayed: u64,
    snapshots: u64,
    latencies: Vec<u64>,
}

impl<'a, M: pas_power::PowerModel> Server<'a, M> {
    /// Start a fresh serving run: materialize the arrival stream, stand
    /// up the engine, and write the journal header.
    ///
    /// # Errors
    /// [`SimError::EmptyInstance`] for an empty scenario;
    /// [`SimError::InvalidConfig`] for an admission or watchdog config
    /// that fails [`AdmissionConfig::validate`] or
    /// [`WatchdogConfig::validate`]; [`SimError::Solver`] wrapping a
    /// [`JournalError`] if the header cannot be written.
    pub fn new(
        instance: &Instance,
        model: &'a M,
        plan: &FaultPlan,
        config: ServeConfig,
        mut journal: Journal,
    ) -> Result<Server<'a, M>, SimError> {
        let (arrivals, burst_jobs, digest) = scenario(instance, plan, &config)?;
        // Construct first, so a rejected scenario writes no header.
        let engine = EngineState::new(
            arrivals,
            plan,
            burst_jobs,
            config.admission,
            ShardedReadySet::default(),
        )?;
        journal
            .write_header(engine.n, plan.len(), digest)
            .map_err(SimError::solver)?;
        Ok(Server::start(model, config, engine, journal))
    }

    /// A server over `engine` with no history: nothing to replay and
    /// every counter at zero.
    fn start(model: &'a M, config: ServeConfig, engine: EngineState, journal: Journal) -> Self {
        Server {
            model,
            config,
            engine,
            journal,
            replay: VecDeque::new(),
            seq: 0,
            wd_trips: 0,
            breaker_open: false,
            steps: 0,
            steps_since_snapshot: 0,
            decisions: 0,
            replayed: 0,
            snapshots: 0,
            latencies: Vec::new(),
        }
    }

    /// Restore a crashed serving run from its journal contents.
    ///
    /// `prior` is the text of the journal the dead process left behind
    /// (an unterminated final line is a torn tail and is dropped);
    /// `journal` is the sink new records go to — typically
    /// [`Journal::append`] on the same path, which cuts that torn tail,
    /// so replayed history stays in place and new decisions extend it.
    ///
    /// The restore base is the last snapshot that captured policy state
    /// which `policy` accepts via
    /// [`load_state`](OnlinePolicy::load_state); otherwise the engine
    /// is rebuilt from genesis. Either way every journaled decision
    /// after the base is *replayed*: the stored decision is applied
    /// verbatim (watchdog trips included), while the policy is still
    /// consulted where the original run consulted it so its internal
    /// state evolves identically. Pass a freshly-constructed `policy` —
    /// the same construction the original run used.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] as [`Server::new`];
    /// [`SimError::Solver`] wrapping [`JournalError::ScenarioMismatch`]
    /// if the journal belongs to a different scenario (instance, fault
    /// plan, admission config, or format version) or its restore base
    /// counts more arrivals, ready slots or fault events than the
    /// scenario has, or [`JournalError::Malformed`] for a line outside
    /// the journal's grammar or an inconsistent snapshot.
    pub fn restore(
        instance: &Instance,
        model: &'a M,
        plan: &FaultPlan,
        config: ServeConfig,
        prior: &str,
        journal: Journal,
        policy: &mut dyn OnlinePolicy,
    ) -> Result<Server<'a, M>, SimError> {
        // The config is checked before the journal is read: a snapshot
        // base rebuilds the engine without its constructor's check.
        let (arrivals, burst_jobs, digest) = scenario(instance, plan, &config)?;
        let records = read_records(prior).map_err(SimError::solver)?;
        match records.first() {
            Some(Record::Header {
                version,
                digest: journal_digest,
                ..
            }) => {
                if *version != JOURNAL_VERSION {
                    return Err(SimError::solver(JournalError::ScenarioMismatch {
                        message: format!(
                            "journal format v{version}, this build writes v{JOURNAL_VERSION}"
                        ),
                    }));
                }
                if *journal_digest != digest {
                    return Err(SimError::solver(JournalError::ScenarioMismatch {
                        message: format!(
                            "scenario digest {journal_digest:016x} != expected {digest:016x}"
                        ),
                    }));
                }
            }
            _ => return Err(SimError::solver(JournalError::MissingHeader)),
        }

        // Restore base: the last snapshot whose policy state this
        // policy accepts; genesis otherwise.
        let mut base: Option<&Snapshot> = None;
        for rec in &records {
            if let Record::Snapshot(snap) = rec {
                if let Some(state) = &snap.policy_state {
                    if policy.load_state(state) {
                        base = Some(snap);
                    }
                }
            }
        }
        let (engine, seq, wd_trips, breaker_open) = match base {
            Some(snap) => (
                snap.restore_engine(arrivals, plan, config.admission)
                    .map_err(SimError::solver)?,
                snap.seq,
                snap.watchdog_trips,
                snap.breaker_open,
            ),
            None => (
                EngineState::new(
                    arrivals,
                    plan,
                    burst_jobs,
                    config.admission,
                    ShardedReadySet::default(),
                )?,
                0,
                0,
                false,
            ),
        };
        let replay: VecDeque<DecisionRecord> = records
            .into_iter()
            .filter_map(|rec| match rec {
                Record::Decision(d) if d.seq > seq => Some(d),
                _ => None,
            })
            .collect();
        Ok(Server {
            replay,
            seq,
            wd_trips,
            breaker_open,
            ..Server::start(model, config, engine, journal)
        })
    }

    /// Whether every job has been completed, cancelled, or shed.
    pub fn done(&self) -> bool {
        self.engine.done()
    }

    /// The journal this server writes to.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Journaled decisions not yet replayed (nonzero only mid-restore).
    pub fn pending_replay(&self) -> usize {
        self.replay.len()
    }

    fn step_once(&mut self, policy: &mut dyn OnlinePolicy) -> Result<(), SimError> {
        // Checkpoint between steps, but never while replaying history
        // (those snapshots already exist in the journal).
        if self.replay.is_empty() {
            if let Some(every) = self.config.snapshot_every {
                if self.steps_since_snapshot >= every {
                    let snap = Snapshot::capture(
                        &self.engine,
                        self.seq,
                        self.wd_trips,
                        self.breaker_open,
                        policy.save_state(),
                    );
                    self.journal
                        .write_snapshot(&snap)
                        .map_err(SimError::solver)?;
                    self.snapshots += 1;
                    self.steps_since_snapshot = 0;
                }
            }
        }
        let mut journal_error: Option<JournalError> = None;
        {
            let mut hook = Hook {
                inner: policy,
                journal: &mut self.journal,
                replay: &mut self.replay,
                watchdog: self.config.watchdog.as_ref(),
                record_latency: self.config.record_latency,
                seq: &mut self.seq,
                wd_trips: &mut self.wd_trips,
                breaker_open: &mut self.breaker_open,
                decisions: &mut self.decisions,
                replayed: &mut self.replayed,
                latencies: &mut self.latencies,
                journal_error: &mut journal_error,
            };
            self.engine.step(self.model, &mut hook)?;
        }
        if let Some(e) = journal_error {
            return Err(SimError::solver(e));
        }
        self.steps += 1;
        self.steps_since_snapshot += 1;
        Ok(())
    }

    /// Drive at most `max_steps` engine steps; returns whether the run
    /// is finished. Stopping early and dropping the server is the
    /// crash-simulation hook used by the recovery tests.
    ///
    /// # Errors
    /// As [`run`](Server::run).
    pub fn run_for(
        &mut self,
        policy: &mut dyn OnlinePolicy,
        max_steps: u64,
    ) -> Result<bool, SimError> {
        let mut taken = 0;
        while !self.engine.done() && taken < max_steps {
            self.step_once(policy)?;
            taken += 1;
        }
        Ok(self.engine.done())
    }

    /// Drive the engine to completion and return the outcome.
    ///
    /// # Errors
    /// [`SimError`] on policy misbehaviour (as the one-shot entry
    /// points) or a journal write failure.
    pub fn run(mut self, policy: &mut dyn OnlinePolicy) -> Result<ServeOutcome, SimError> {
        while !self.engine.done() {
            self.step_once(policy)?;
        }
        self.finish()
    }

    /// Finalize a completed run (coalesce the schedule, build the
    /// effective instance, close out the report). Call it once
    /// [`done`](Server::done) holds.
    ///
    /// # Errors
    /// [`SimError`] if the engine cannot finalize.
    pub fn finish(mut self) -> Result<ServeOutcome, SimError> {
        let outcome = self.engine.seal()?;
        Ok(ServeOutcome {
            outcome,
            stats: ServeStats {
                steps: self.steps,
                decisions: self.decisions,
                replayed_decisions: self.replayed,
                watchdog_trips: self.wd_trips,
                breaker_opened: self.breaker_open,
                snapshots: self.snapshots,
                journal_records: self.journal.records_written(),
                decide_nanos: self.latencies,
            },
        })
    }
}

/// The policy shim the server interposes between engine and policy: it
/// replays journaled decisions, enforces the watchdog, and journals
/// every live decision before the engine applies it.
struct Hook<'h> {
    inner: &'h mut dyn OnlinePolicy,
    journal: &'h mut Journal,
    replay: &'h mut VecDeque<DecisionRecord>,
    watchdog: Option<&'h WatchdogConfig>,
    record_latency: bool,
    seq: &'h mut u64,
    wd_trips: &'h mut u64,
    breaker_open: &'h mut bool,
    decisions: &'h mut u64,
    replayed: &'h mut u64,
    latencies: &'h mut Vec<u64>,
    /// `decide` cannot return an error, so journal failures are stashed
    /// here and surfaced after the engine step returns.
    journal_error: &'h mut Option<JournalError>,
}

impl Hook<'_> {
    fn note_trip(&mut self) {
        *self.wd_trips += 1;
        if let Some(wd) = self.watchdog {
            if *self.wd_trips >= u64::from(wd.trip_limit) {
                *self.breaker_open = true;
            }
        }
    }
}

impl OnlinePolicy for Hook<'_> {
    fn decide(&mut self, now: f64, ready: &dyn ReadyView, energy_spent: f64) -> Option<Decision> {
        *self.seq += 1;

        // Replay path: the journal is authoritative. The wrapped policy
        // is consulted (result discarded) exactly where the original
        // run consulted it, so its internal state evolves identically;
        // watchdog trips are taken from the record, never re-measured.
        if let Some(rec) = self.replay.pop_front() {
            if rec.consulted {
                let _ = self.inner.decide(now, ready, energy_spent);
            }
            if rec.tripped {
                self.note_trip();
            }
            *self.replayed += 1;
            return rec.decision;
        }

        // Live path.
        let decision;
        let consulted;
        let mut tripped = false;
        if *self.breaker_open {
            let fallback_speed = self.watchdog.map_or(1.0, |wd| wd.fallback_speed);
            decision = ready.first().map(|p| Decision {
                job: p.id,
                speed: fallback_speed,
                recheck_after: None,
            });
            consulted = false;
        } else if self.watchdog.is_some() || self.record_latency {
            let start = Instant::now();
            decision = self.inner.decide(now, ready, energy_spent);
            let elapsed = start.elapsed();
            if self.record_latency {
                self.latencies
                    .push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
            }
            if let Some(wd) = self.watchdog {
                if elapsed > wd.budget {
                    tripped = true;
                    self.note_trip();
                }
            }
            consulted = true;
        } else {
            decision = self.inner.decide(now, ready, energy_spent);
            consulted = true;
        }
        *self.decisions += 1;

        let rec = DecisionRecord {
            seq: *self.seq,
            decision,
            consulted,
            tripped,
        };
        if let Err(e) = self.journal.write_decision(&rec) {
            self.journal_error.get_or_insert(e);
        }
        decision
    }

    fn notify(&mut self, notice: &FaultNotice) {
        self.inner.notify(notice);
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

// Re-exported here so the serving API reads as one module.
pub use crate::journal::outcome_digest;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::ShedPolicy;
    use pas_power::PolyPower;
    use pas_workload::Job;

    struct Greedy;

    impl OnlinePolicy for Greedy {
        fn decide(&mut self, _: f64, ready: &dyn ReadyView, _: f64) -> Option<Decision> {
            ready.first().map(|p| Decision {
                job: p.id,
                speed: 1.0,
                recheck_after: None,
            })
        }

        fn save_state(&self) -> Option<Vec<f64>> {
            Some(vec![])
        }

        fn load_state(&mut self, _: &[f64]) -> bool {
            true
        }
    }

    fn instance() -> Instance {
        Instance::new(vec![
            Job::new(0, 0.0, 2.0),
            Job::new(1, 0.5, 1.0),
            Job::new(2, 3.0, 4.0),
            Job::new(3, 3.0, 0.5),
        ])
        .unwrap()
    }

    fn plain_outcome(inst: &Instance) -> OnlineOutcome {
        crate::online::run_online(inst, &PolyPower::CUBE, &mut Greedy).unwrap()
    }

    #[test]
    fn fresh_serve_matches_one_shot_engine() {
        let inst = instance();
        let server = Server::new(
            &inst,
            &PolyPower::CUBE,
            &FaultPlan::none(),
            ServeConfig::default(),
            Journal::memory(),
        )
        .unwrap();
        let served = server.run(&mut Greedy).unwrap();
        let oneshot = plain_outcome(&inst);
        assert_eq!(outcome_digest(&served.outcome), outcome_digest(&oneshot));
        assert!(served.stats.decisions > 0);
        assert_eq!(served.stats.replayed_decisions, 0);
    }

    #[test]
    fn crash_and_restore_is_bit_identical_from_genesis_and_snapshot() {
        let inst = instance();
        let plan = FaultPlan::none();
        let uninterrupted = plain_outcome(&inst);

        for snapshot_every in [None, Some(2)] {
            let config = ServeConfig {
                snapshot_every,
                ..ServeConfig::default()
            };
            for cut in 1..8 {
                let mut server =
                    Server::new(&inst, &PolyPower::CUBE, &plan, config, Journal::memory()).unwrap();
                let finished = server.run_for(&mut Greedy, cut).unwrap();
                if finished {
                    break;
                }
                let prior = server.journal().contents().unwrap().to_string();
                drop(server); // the crash

                let mut policy = Greedy;
                let restored = Server::restore(
                    &inst,
                    &PolyPower::CUBE,
                    &plan,
                    config,
                    &prior,
                    Journal::memory(),
                    &mut policy,
                )
                .unwrap();
                let outcome = restored.run(&mut policy).unwrap();
                assert_eq!(
                    outcome_digest(&outcome.outcome),
                    outcome_digest(&uninterrupted),
                    "cut={cut} snapshot_every={snapshot_every:?}"
                );
            }
        }
    }

    #[test]
    fn restore_rejects_a_different_scenario() {
        let inst = instance();
        let server = Server::new(
            &inst,
            &PolyPower::CUBE,
            &FaultPlan::none(),
            ServeConfig::default(),
            Journal::memory(),
        )
        .unwrap();
        let prior = server.journal().contents().unwrap().to_string();
        let other = Instance::new(vec![Job::new(0, 0.0, 9.0)]).unwrap();
        let err = match Server::restore(
            &other,
            &PolyPower::CUBE,
            &FaultPlan::none(),
            ServeConfig::default(),
            &prior,
            Journal::memory(),
            &mut Greedy,
        ) {
            Err(e) => e,
            Ok(_) => panic!("restore against a different scenario must fail"),
        };
        assert!(err.to_string().contains("digest"));
    }

    #[test]
    fn admission_sheds_are_reported_and_outcome_still_validates() {
        let inst = instance();
        let config = ServeConfig {
            admission: Some(AdmissionConfig {
                capacity: 1,
                shed: ShedPolicy::RejectNewest,
            }),
            ..ServeConfig::default()
        };
        let server = Server::new(
            &inst,
            &PolyPower::CUBE,
            &FaultPlan::none(),
            config,
            Journal::memory(),
        )
        .unwrap();
        let served = server.run(&mut Greedy).unwrap();
        assert!(served.outcome.resilience.shed_jobs > 0);
        let effective = served.outcome.effective.as_ref().unwrap();
        served.outcome.schedule.validate(effective, 1e-6).unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected_by_new_and_restore() {
        let inst = instance();
        let plan = FaultPlan::none();
        // Restore checks the config before it reads the journal, so a
        // journal with a snapshot base cannot carry a bad config past it.
        let good = ServeConfig {
            snapshot_every: Some(1),
            ..ServeConfig::default()
        };
        let mut server =
            Server::new(&inst, &PolyPower::CUBE, &plan, good, Journal::memory()).unwrap();
        server.run_for(&mut Greedy, 3).unwrap();
        let prior = server.journal().contents().unwrap().to_string();
        let admission = |capacity, shed| ServeConfig {
            admission: Some(AdmissionConfig { capacity, shed }),
            ..good
        };
        let watchdog = |fallback_speed| ServeConfig {
            watchdog: Some(WatchdogConfig {
                fallback_speed,
                ..WatchdogConfig::default()
            }),
            ..good
        };
        let nan_rate = ShedPolicy::DeadlineAware {
            slo: 2.0,
            service_rate: f64::NAN,
        };
        let mut bad = vec![
            admission(0, ShedPolicy::EvictOldest),
            admission(4, nan_rate),
        ];
        bad.extend([0.0, -1.0, f64::NAN, f64::INFINITY].map(watchdog));
        for config in bad {
            let err = match Server::new(&inst, &PolyPower::CUBE, &plan, config, Journal::memory()) {
                Err(e) => e,
                Ok(_) => panic!("{config:?} must be rejected"),
            };
            assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
            let restored = Server::restore(
                &inst,
                &PolyPower::CUBE,
                &plan,
                config,
                &prior,
                Journal::memory(),
                &mut Greedy,
            );
            match restored {
                Err(e) => assert_eq!(e, err),
                Ok(_) => panic!("{config:?} must be rejected on restore"),
            }
        }
        assert_eq!(WatchdogConfig::default().validate(), Ok(()));
    }

    /// A policy that wedges (busy-waits past the budget) on its first
    /// consultation, then behaves; the breaker must open and the run
    /// must still complete deterministically.
    struct Wedged {
        calls: u32,
    }

    impl OnlinePolicy for Wedged {
        fn decide(&mut self, _: f64, ready: &dyn ReadyView, _: f64) -> Option<Decision> {
            self.calls += 1;
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(2) {
                std::hint::spin_loop();
            }
            ready.first().map(|p| Decision {
                job: p.id,
                speed: 2.0,
                recheck_after: None,
            })
        }
    }

    #[test]
    fn watchdog_opens_breaker_and_falls_back() {
        let inst = instance();
        let config = ServeConfig {
            watchdog: Some(WatchdogConfig {
                budget: Duration::from_nanos(1),
                trip_limit: 2,
                fallback_speed: 1.0,
            }),
            ..ServeConfig::default()
        };
        let server = Server::new(
            &inst,
            &PolyPower::CUBE,
            &FaultPlan::none(),
            config,
            Journal::memory(),
        )
        .unwrap();
        let served = server.run(&mut Wedged { calls: 0 }).unwrap();
        assert!(served.stats.watchdog_trips >= 2);
        assert!(served.stats.breaker_opened);
        // All four jobs still completed under the fallback.
        assert!(served.outcome.resilience.is_clean());
    }
}
