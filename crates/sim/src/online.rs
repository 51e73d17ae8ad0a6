//! Event-driven online execution engine.
//!
//! The paper's §6 names online power-aware scheduling (where the
//! algorithm learns about each job only at its release) as the most
//! important open direction. This engine provides the experimental
//! harness: it reveals arrivals to an [`OnlinePolicy`] one release time
//! at a time, executes the policy's speed decisions, and assembles the
//! result into a [`Schedule`] that goes through exactly the same
//! validation and metrics as the offline optima — so empirical
//! competitive ratios are apples-to-apples.
//!
//! The engine is single-processor (matching the §6 open problem). It
//! re-consults the policy at every *event*: a job arrival, a job
//! completion, a policy-requested checkpoint — or, under a
//! [`FaultPlan`], a fault (crash/recovery, cancellation, throttle
//! window, arrival burst). [`run_online_pooled`] is the one general
//! entry point: a fault plan, an optional bounded admission queue, and
//! a reusable [`EngineScratch`]. [`run_online`] (fault-free) and
//! [`run_online_with_faults`] are one-line calls into it with a fresh
//! scratch; a fault scenario's cost is reported through the outcome's
//! [`ResilienceReport`].
//!
//! # Scale
//!
//! Policies see the ready jobs through the [`ReadyView`] trait, which
//! exposes the running aggregates every natural policy needs — backlog,
//! total work seen, first arrival, per-deadline-band shard sums —
//! maintained **incrementally**. A policy whose `decide` uses only
//! those aggregates (all of the §6 policies in `pas-core::online` do)
//! costs `O(1)` per event. The engine keeps each job's fate (state and
//! metered energy) in one table indexed by arrival position, and the
//! id a decision names is resolved in O(1) through an id index built at
//! construction (a dense lane when ids are compact, a fixed-hash table
//! when they are sparse), so a full run builds no hash map — E13 runs
//! at `n` in the tens of thousands.
//!
//! Two interchangeable storage engines implement the view: the
//! data-oriented [`ShardedReadySet`] arena (struct-of-arrays slab,
//! stable free-listed slots, a dense arrival-index lane — the one every
//! entry point here runs), and the original AoS
//! [`ReadySet`](crate::reference::ReadySet), kept in
//! [`crate::reference`] as the oracle. There is one event loop, generic
//! over the `ReadyStore` engine trait, and both stores instantiate it,
//! so both execute the identical floating-point operation sequence and
//! produce bit-identical outcomes — a contract
//! `tests/online_equivalence.rs` enforces across proptested event
//! streams, fault plans, admission rules, a reused scratch, and
//! crash/restore cuts.

use crate::arena::{ShardedReadySet, NUM_BANDS};
use crate::faults::{
    CrashSemantics, FaultEvent, FaultKind, FaultNotice, FaultPlan, ResilienceReport,
};
use crate::schedule::Schedule;
use crate::slice::Slice;
use pas_numeric::NeumaierSum;
use pas_workload::{Instance, Job};
use std::collections::VecDeque;
use std::sync::Arc;

/// A job visible to the policy: static data plus remaining work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingJob {
    /// Job id.
    pub id: u32,
    /// Release time (the moment the policy first saw it).
    pub release: f64,
    /// Total work.
    pub work: f64,
    /// Work still to be done.
    pub remaining: f64,
}

/// The policy's window onto the released, unfinished jobs.
///
/// Both storage engines — the data-oriented
/// [`ShardedReadySet`] arena and the
/// retained AoS [`ReadySet`](crate::reference::ReadySet) reference —
/// implement this view with
/// bit-identical answers, so a policy cannot tell which engine is
/// underneath (and `tests/online_equivalence.rs` checks that it
/// couldn't cheat if it tried).
///
/// All aggregate accessors are `O(1)`; band accessors are `O(1)` per
/// band; [`for_each`](ReadyView::for_each) visits the ready jobs in
/// **admission order** (the canonical policy-visible iteration order).
pub trait ReadyView {
    /// Number of ready jobs.
    fn len(&self) -> usize;

    /// Whether no job is ready.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The earliest-admitted ready job.
    fn first(&self) -> Option<PendingJob>;

    /// Total remaining work over the ready jobs (maintained
    /// incrementally; the policies' hedging denominators).
    fn backlog(&self) -> f64;

    /// Total work of every job ever released (finished or not).
    fn seen_work(&self) -> f64;

    /// Release time of the very first arrival, if any job has arrived.
    fn first_arrival(&self) -> Option<f64>;

    /// Visit every ready job in admission order.
    fn for_each(&self, f: &mut dyn FnMut(&PendingJob));

    /// The ready jobs in admission order, collected. Allocates; prefer
    /// [`for_each`](ReadyView::for_each) or the aggregates in hot
    /// policies.
    fn jobs(&self) -> Vec<PendingJob> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(&mut |p| out.push(*p));
        out
    }

    /// Number of deadline bands the run is sharded into.
    fn band_count(&self) -> usize;

    /// Release time where band 0 starts.
    fn band_origin(&self) -> f64;

    /// Width (in release time) of each band.
    fn band_width(&self) -> f64;

    /// Live (admitted, unfinished) jobs in this band.
    fn band_live(&self, band: usize) -> usize;

    /// Remaining work of the live jobs in this band.
    fn band_remaining(&self, band: usize) -> f64;

    /// Total work ever admitted in this band (finished or not) — the
    /// windowed-density policies' numerator.
    fn band_arrived(&self, band: usize) -> f64;
}

/// Engine-facing mutation contract the event loop drives. Everything
/// policy-visible lives in [`ReadyView`]; this adds the slot-level
/// operations the engine needs, with the invariant that every
/// implementation performs the identical floating-point accumulator
/// updates in the identical order (the bit-identity contract).
///
/// The engine names a job by its *arrival index* — its position in the
/// run's release-sorted arrival stream — never by its id, so a store
/// can resolve it with a dense lane instead of a hash map.
pub(crate) trait ReadyStore: ReadyView {
    /// Empty the store for a fresh run whose band shards start at
    /// `origin` with `width`. A recycled store is observationally
    /// identical to a fresh one — same (empty) logical state, same
    /// accumulator bits — so a pooled store can never reach a digest.
    fn recycle(&mut self, origin: f64, width: f64);

    /// Admit the job at arrival index `key` (accumulators first, then
    /// placement).
    fn admit(&mut self, key: usize, job: PendingJob);

    /// Arrival index of the earliest-admitted ready job.
    fn oldest(&self) -> Option<usize>;

    /// Resolve an arrival index to its storage slot, if the job is
    /// ready.
    fn slot(&self, key: usize) -> Option<usize>;

    /// Remaining work of the job in `slot`.
    fn remaining_at(&self, slot: usize) -> f64;

    /// Record `executed` units of progress on the job in `slot`.
    fn execute(&mut self, slot: usize, executed: f64);

    /// Remove the job in `slot` (completion), dropping any residual
    /// remaining from the backlog.
    fn remove(&mut self, slot: usize);

    /// Erase all in-flight progress (a lose-progress crash): every
    /// partially-executed ready job's remaining resets to its full
    /// work, summed in admission order, and `on_reset` hears each such
    /// job's arrival index in that order. Returns the total erased
    /// progress; the backlog grows by the same amount.
    fn reset_progress(&mut self, on_reset: &mut dyn FnMut(usize)) -> f64;

    /// Remove the job at arrival index `key` (cancellation, eviction),
    /// returning its state at removal time; `None` if it is not ready.
    fn cancel(&mut self, key: usize) -> Option<PendingJob>;
}

/// A policy's instruction for the time starting now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Id of the pending job to run (must be in the ready set).
    pub job: u32,
    /// Speed to run it at (must be positive).
    pub speed: f64,
    /// Optional checkpoint: re-consult the policy after this much time
    /// even if nothing arrives or completes. `None` runs until the next
    /// natural event.
    pub recheck_after: Option<f64>,
}

/// An online scheduling policy.
///
/// `decide` is called whenever the world changes (arrival, completion,
/// or requested checkpoint). Returning `None` idles until the next
/// arrival or fault; idling with nothing pending and unfinished jobs
/// aborts the simulation with [`SimError::PolicyStalled`].
pub trait OnlinePolicy {
    /// Choose what to run now. `ready` is the view onto the released,
    /// unfinished jobs and their running aggregates (identical whichever
    /// storage engine backs it); `now` is the current time;
    /// `energy_spent` is the cumulative energy the engine has metered so
    /// far (under the engine's power model).
    fn decide(&mut self, now: f64, ready: &dyn ReadyView, energy_spent: f64) -> Option<Decision>;

    /// The engine's fault channel: called on crashes, recoveries,
    /// cancellations, and throttle transitions so the policy can
    /// re-plan. The default ignores the notice, so fault-oblivious
    /// policies compile and run unchanged.
    fn notify(&mut self, _notice: &FaultNotice) {}

    /// Capture the policy's internal mutable state as a flat `f64`
    /// vector for a serving-layer snapshot ([`crate::serve`]).
    ///
    /// Return `Some(vec![])` for a stateless policy (everything it
    /// needs is re-derivable from the [`ReadyView`]), `Some(state)` for
    /// a stateful one, and `None` (the default) when the policy cannot
    /// be snapshotted — restores then fall back to replaying the
    /// journal from genesis, which is slower but always exact.
    fn save_state(&self) -> Option<Vec<f64>> {
        None
    }

    /// Restore state captured by [`save_state`](OnlinePolicy::save_state);
    /// returns whether the policy accepted it. The default rejects, so
    /// snapshot-oblivious policies are restored via genesis replay.
    fn load_state(&mut self, _state: &[f64]) -> bool {
        false
    }

    /// Name for reports.
    fn name(&self) -> String {
        "online-policy".to_string()
    }
}

/// Simulation failures.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The engine was asked to run with no jobs at all.
    EmptyInstance,
    /// Policy idled while work remained and no arrivals or faults were
    /// pending.
    PolicyStalled {
        /// Time of the stall.
        at: f64,
        /// Number of unfinished jobs.
        unfinished: usize,
    },
    /// Policy chose a job that is not ready.
    UnknownJob {
        /// The offending id.
        job: u32,
        /// Decision time.
        at: f64,
    },
    /// Policy chose a non-positive or non-finite speed.
    InvalidSpeed {
        /// The offending speed.
        speed: f64,
        /// Decision time.
        at: f64,
    },
    /// Event budget exceeded (runaway checkpoint loops).
    TooManyEvents,
    /// A configuration outside its documented domain: an
    /// [`AdmissionConfig`] that fails [`AdmissionConfig::validate`] or a
    /// [`WatchdogConfig`](crate::serve::WatchdogConfig) that fails its
    /// `validate`.
    InvalidConfig {
        /// Which field is out of range, and its value.
        reason: String,
    },
    /// An upstream solver or instance error reached the simulation
    /// layer (e.g. a `pas-core` error converted via `From<CoreError>`).
    /// Carries the source for [`std::error::Error::source`] chaining;
    /// equality compares the message only.
    Solver {
        /// Rendered description of the upstream failure.
        message: String,
        /// The original error, when one was captured.
        source: Option<Arc<dyn std::error::Error + Send + Sync>>,
    },
}

impl SimError {
    /// Wrap an upstream error, keeping it as the [`source`]
    /// (`std::error::Error::source`) so the full chain stays
    /// inspectable across the `pas-core`/`pas-sim` boundary.
    ///
    /// [`source`]: std::error::Error::source
    pub fn solver<E>(err: E) -> SimError
    where
        E: std::error::Error + Send + Sync + 'static,
    {
        SimError::Solver {
            message: err.to_string(),
            source: Some(Arc::new(err)),
        }
    }
}

impl PartialEq for SimError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SimError::EmptyInstance, SimError::EmptyInstance)
            | (SimError::TooManyEvents, SimError::TooManyEvents) => true,
            (
                SimError::PolicyStalled { at, unfinished },
                SimError::PolicyStalled {
                    at: at2,
                    unfinished: u2,
                },
            ) => at == at2 && unfinished == u2,
            (SimError::UnknownJob { job, at }, SimError::UnknownJob { job: j2, at: at2 }) => {
                job == j2 && at == at2
            }
            (
                SimError::InvalidSpeed { speed, at },
                SimError::InvalidSpeed { speed: s2, at: at2 },
            ) => speed == s2 && at == at2,
            (SimError::Solver { message, .. }, SimError::Solver { message: m2, .. })
            | (
                SimError::InvalidConfig { reason: message },
                SimError::InvalidConfig { reason: m2 },
            ) => message == m2,
            _ => false,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptyInstance => write!(f, "simulation has no jobs"),
            SimError::PolicyStalled { at, unfinished } => {
                write!(f, "policy stalled at t={at} with {unfinished} jobs left")
            }
            SimError::UnknownJob { job, at } => {
                write!(f, "policy chose unready job {job} at t={at}")
            }
            SimError::InvalidSpeed { speed, at } => {
                write!(f, "policy chose invalid speed {speed} at t={at}")
            }
            SimError::TooManyEvents => write!(f, "event budget exceeded"),
            SimError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            SimError::Solver { message, .. } => write!(f, "solver error: {message}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Solver { source, .. } => source
                .as_deref()
                .map(|e| e as &(dyn std::error::Error + 'static)),
            _ => None,
        }
    }
}

/// Result of an online run.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The executed schedule (single machine).
    pub schedule: Schedule,
    /// Energy spent, metered by the engine under its power model.
    pub energy: f64,
    /// What the fault scenario cost (all-zero for fault-free runs).
    pub resilience: ResilienceReport,
    /// The instance the schedule *actually* answers for: burst jobs
    /// included, cancelled-without-execution jobs dropped, and each
    /// job's work set to the work actually executed (re-execution after
    /// a lost-progress crash makes this exceed the nominal work). The
    /// schedule always passes [`Schedule::validate`] against it. `None`
    /// when nothing was executed at all.
    pub effective: Option<Instance>,
}

/// Execute `policy` on `instance` under `model`, metering energy.
///
/// Events are processed in time order; between events the chosen job runs
/// at the chosen constant speed. The returned schedule is coalesced.
///
/// # Errors
/// [`SimError`] when the policy misbehaves (stalls, picks unknown jobs or
/// invalid speeds) or checkpoint-loops past the event budget.
pub fn run_online<M: pas_power::PowerModel>(
    instance: &Instance,
    model: &M,
    policy: &mut dyn OnlinePolicy,
) -> Result<OnlineOutcome, SimError> {
    run_online_pooled(
        instance,
        model,
        policy,
        &FaultPlan::none(),
        None,
        &mut EngineScratch::new(),
    )
}

/// [`run_online`] under a deterministic fault scenario: the plan's
/// events are merged into the event loop (slices never span a fault
/// boundary), the policy is [`notified`](OnlinePolicy::notify) of
/// crashes/recoveries/cancellations/throttle transitions, and the
/// outcome carries a [`ResilienceReport`] plus the *effective* instance
/// the surviving schedule validates against.
///
/// Fault semantics:
/// * **Crash** — the machine is down for the duration (policies are not
///   consulted; arrivals still queue up). With
///   [`CrashSemantics::LoseProgress`] every partially-executed job
///   restarts from scratch; checkpointed crashes cost only downtime.
/// * **Cancel** — the job is removed (or never admitted) and counts as
///   lost/cancelled work, never as a completion.
/// * **Throttle** — decision speeds are clamped to the active minimum
///   cap; each clamp is counted. Policies keep running (degraded), they
///   are not errored.
/// * **Burst** — extra jobs with fresh ids join the arrival stream.
///
/// # Errors
/// As [`run_online`].
pub fn run_online_with_faults<M: pas_power::PowerModel>(
    instance: &Instance,
    model: &M,
    policy: &mut dyn OnlinePolicy,
    plan: &FaultPlan,
) -> Result<OnlineOutcome, SimError> {
    run_online_pooled(
        instance,
        model,
        policy,
        plan,
        None,
        &mut EngineScratch::new(),
    )
}

/// Materialize the arrival stream into `arrivals` (cleared first, so
/// pooling callers reuse one allocation across runs): base jobs, then
/// burst jobs under fresh ids in plan order, then one stable sort by
/// release. Returns the burst-job count. Every entry point and the
/// serving layer build their stream here.
pub(crate) fn materialize_arrivals(
    instance: &Instance,
    plan: &FaultPlan,
    arrivals: &mut Vec<Job>,
) -> usize {
    arrivals.clear();
    arrivals.extend_from_slice(instance.jobs());
    let mut next_id = arrivals.iter().map(|j| j.id).max().map_or(0, |m| m + 1);
    let mut burst_jobs = 0usize;
    for ev in plan.events() {
        if let FaultKind::ArrivalBurst { jobs } = &ev.kind {
            for b in jobs {
                arrivals.push(Job::new(next_id, ev.at + b.offset, b.work));
                next_id += 1;
                burst_jobs += 1;
            }
        }
    }
    arrivals.sort_by(|a, b| a.release.total_cmp(&b.release));
    burst_jobs
}

/// Reusable allocation pool for back-to-back engine runs.
///
/// Holds the two big per-run allocations — the materialized arrival
/// buffer and the [`ShardedReadySet`] arena (whose lane vectors, free
/// list, arrival-index lane, and queue all keep their capacity) — so a
/// caller executing many instances in sequence (the fleet executor's
/// worker-local scratch, one pool per worker thread) clears rather than
/// reallocates between runs. A recycled arena is observationally
/// identical to a fresh one, so reuse never moves a bit of the outcome.
#[derive(Debug, Default)]
pub struct EngineScratch {
    arrivals: Vec<Job>,
    ready: ShardedReadySet,
}

impl EngineScratch {
    /// An empty pool; buffers grow on first use.
    pub fn new() -> EngineScratch {
        EngineScratch::default()
    }
}

/// The general entry point: run `policy` on `instance` under `plan`,
/// behind the bounded admission queue `admission` when one is given
/// (the one-shot equivalent of serving the instance through
/// [`crate::serve::Server`] with no journal), drawing the arrival
/// buffer and the arena from `scratch` instead of the heap.
///
/// Shed decisions are deterministic functions of the engine state. Once
/// the engine is built, the scratch is reclaimed whether or not the run
/// succeeds, and may be reused at once; a reused scratch gives the bits
/// a fresh one gives. A run the constructor rejects leaves the scratch
/// empty but usable.
///
/// # Errors
/// As [`run_online`]; [`SimError::InvalidConfig`] for an `admission`
/// outside its documented domain.
pub fn run_online_pooled<M: pas_power::PowerModel>(
    instance: &Instance,
    model: &M,
    policy: &mut dyn OnlinePolicy,
    plan: &FaultPlan,
    admission: Option<AdmissionConfig>,
    scratch: &mut EngineScratch,
) -> Result<OnlineOutcome, SimError> {
    let burst_jobs = materialize_arrivals(instance, plan, &mut scratch.arrivals);
    let arrivals = std::mem::take(&mut scratch.arrivals);
    let ready = std::mem::take(&mut scratch.ready);
    let mut engine = EngineState::new(arrivals, plan, burst_jobs, admission, ready)?;
    let outcome = drive(&mut engine, model, policy);
    scratch.arrivals = engine.arrivals;
    scratch.ready = engine.ready;
    outcome
}

/// The one event loop outside the serving layer: step `engine` until
/// every job is done, then seal it. Generic over the store, so the
/// arena ([`run_online_pooled`]) and the retained reference
/// ([`crate::reference::run_online_reference`]) execute the identical
/// floating-point operation sequence — what makes their outcomes
/// bit-comparable.
pub(crate) fn drive<R: ReadyStore, M: pas_power::PowerModel>(
    engine: &mut EngineState<R>,
    model: &M,
    policy: &mut dyn OnlinePolicy,
) -> Result<OnlineOutcome, SimError> {
    while !engine.done() {
        engine.step(model, policy)?;
    }
    engine.seal()
}

/// Load-shedding rule for a bounded admission queue. Used by the
/// serving layer ([`crate::serve`]) and [`run_online_pooled`];
/// [`run_online`] and [`run_online_with_faults`] admit everything. All
/// rules are deterministic functions of the engine state, so shed
/// decisions replay exactly from a journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedPolicy {
    /// Reject the arriving job when the queue is full.
    RejectNewest,
    /// Evict the earliest-admitted ready job to make room for the
    /// arrival; any partial progress on the victim is wasted (counted
    /// as lost work / wasted energy).
    EvictOldest,
    /// Backpressure with an SLO model: shed an arrival when the queue
    /// is full **or** when its predicted flow
    /// `(backlog + work) / service_rate` already exceeds `slo` — the
    /// job would miss its deadline anyway, so rejecting it up front
    /// protects the jobs that can still make it.
    DeadlineAware {
        /// Flow SLO the prediction is checked against (`> 0`).
        slo: f64,
        /// Assumed sustained service speed (`> 0`).
        service_rate: f64,
    },
}

/// Bounded admission queue: at most `capacity` admitted-but-unfinished
/// jobs, with `shed` deciding what happens at the bound. Every entry
/// that accepts one rejects it unless it passes
/// [`validate`](AdmissionConfig::validate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum number of ready (admitted, unfinished) jobs (`≥ 1`).
    pub capacity: usize,
    /// What to do when admission would exceed the capacity (or, for
    /// deadline-aware shedding, when the SLO is already hopeless).
    pub shed: ShedPolicy,
}

impl AdmissionConfig {
    /// Check the documented domain: `capacity ≥ 1`, and a
    /// [`ShedPolicy::DeadlineAware`] rule's `slo` and `service_rate`
    /// finite and `> 0`. Outside it the gate breaks its own bound (a
    /// zero-capacity `EvictOldest` queue evicts nothing and admits
    /// anyway) or never fires (a NaN prediction compares false).
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] naming the first field out of range.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.capacity == 0 {
            return Err(SimError::InvalidConfig {
                reason: "admission capacity 0 must be at least 1".into(),
            });
        }
        if let ShedPolicy::DeadlineAware { slo, service_rate } = self.shed {
            for (name, v) in [("slo", slo), ("service_rate", service_rate)] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(SimError::InvalidConfig {
                        reason: format!("admission {name} {v} must be finite and > 0"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Where one arrival stands in the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum JobState {
    /// Not yet released to the engine.
    #[default]
    Pending,
    /// Admitted and unfinished: in the ready store.
    Live,
    /// Run to completion.
    Completed,
    /// Cancelled by the fault plan; `admitted` says whether it had
    /// entered the ready store first.
    Cancelled {
        /// Whether the job was admitted before it was cancelled.
        admitted: bool,
    },
    /// Rejected or evicted by admission control.
    Shed,
}

/// One row of the engine's per-job table, indexed by arrival position.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JobEntry {
    pub(crate) state: JobState,
    /// Energy metered since the job's last restart (`None`: nothing
    /// metered since then). Drained on delivery; charged to
    /// `wasted_energy` on erasure, cancellation or eviction.
    pub(crate) energy: Option<f64>,
    /// Work over the job's slices, summed in schedule order by `seal`.
    executed: NeumaierSum,
    /// End of the job's last slice, set by `seal`.
    last_end: Option<f64>,
}

/// Job id → arrival index: the run's one id-keyed structure, built once
/// per run and never changed. Compact ids (a span at most twice the job
/// count: a single engine or server) get a dense lane over the span.
/// Sparse ones (a fleet host's share of the fleet's ids) get an
/// open-addressing table: `(id, index)` slots, a power-of-two capacity
/// at least twice the job count, a Fibonacci hash of the id and linear
/// probing. The hash is a fixed function of the id, so no `RandomState`
/// is drawn and the table is laid out the same on every run.
#[derive(Debug, Clone)]
pub(crate) enum IdIndex {
    Dense { base: u32, index: Vec<u32> },
    Hashed { shift: u32, slots: Vec<(u32, u32)> },
}

/// Marks an empty slot in either lane: no arrival has this index.
const NO_INDEX: u32 = u32::MAX;

impl IdIndex {
    pub(crate) fn new(arrivals: &[Job]) -> IdIndex {
        let (lo, hi) = arrivals
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), j| (lo.min(j.id), hi.max(j.id)));
        let span = (u64::from(hi) + 1).saturating_sub(u64::from(lo));
        if span <= 2 * arrivals.len() as u64 {
            let mut index = vec![NO_INDEX; span as usize];
            for (i, j) in (0u32..).zip(arrivals) {
                index[(j.id - lo) as usize] = i;
            }
            IdIndex::Dense { base: lo, index }
        } else {
            // `arrivals` is non-empty here (an empty one has span 0),
            // so the capacity is at least 2 and the shift at most 63.
            let capacity = (2 * arrivals.len()).next_power_of_two();
            let shift = 64 - capacity.trailing_zeros();
            let mut slots = vec![(0, NO_INDEX); capacity];
            for (i, j) in (0u32..).zip(arrivals) {
                let mut at = Self::home(j.id, shift);
                while slots[at].1 != NO_INDEX && slots[at].0 != j.id {
                    at = (at + 1) & (capacity - 1);
                }
                slots[at] = (j.id, i);
            }
            IdIndex::Hashed { shift, slots }
        }
    }

    /// The first slot probed for `id` in a table of `2^(64 - shift)`
    /// slots: the top bits of `id · 2^64/φ`.
    fn home(id: u32, shift: u32) -> usize {
        (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    pub(crate) fn get(&self, id: u32) -> Option<usize> {
        match self {
            IdIndex::Dense { base, index } => {
                let &i = index.get(id.checked_sub(*base)? as usize)?;
                (i != NO_INDEX).then_some(i as usize)
            }
            IdIndex::Hashed { shift, slots } => {
                // At most half the slots are full, so the probe always
                // meets an empty one.
                let mut at = Self::home(id, *shift);
                loop {
                    let (key, i) = slots[at];
                    if i == NO_INDEX {
                        return None;
                    }
                    if key == id {
                        return Some(i as usize);
                    }
                    at = (at + 1) & (slots.len() - 1);
                }
            }
        }
    }
}

/// The engine's full mutable state, advanced one event at a time.
///
/// [`drive`] steps it in a plain loop for the one-shot entries; the
/// serving layer ([`crate::serve`]) steps it one event at a time so it
/// can journal every decision, snapshot between steps, and restore a
/// crashed process to the exact state it died in. Every field is
/// `pub(crate)` so the snapshot codec in [`crate::journal`] can capture
/// and rebuild the state bit-for-bit.
///
/// Each job's fate lives in one row of `table`, at the job's arrival
/// index (rows past the end are pending jobs); `ids` resolves the ids
/// that decisions and cancellations name.
///
/// Generic over the `ReadyStore` storage engine: the default is the
/// [`ShardedReadySet`] arena; [`crate::reference`] instantiates the
/// same state and loop over the retained
/// [`ReadySet`](crate::reference::ReadySet) for the differential
/// harness.
pub(crate) struct EngineState<R: ReadyStore = ShardedReadySet> {
    pub(crate) arrivals: Vec<Job>,
    pub(crate) ids: IdIndex,
    pub(crate) table: Vec<JobEntry>,
    pub(crate) events: Vec<FaultEvent>,
    pub(crate) slo: Option<f64>,
    pub(crate) admission: Option<AdmissionConfig>,
    pub(crate) n: usize,
    pub(crate) report: ResilienceReport,
    pub(crate) next_arrival: usize,
    pub(crate) ready: R,
    /// Completions + cancellations + sheds (jobs the run no longer
    /// waits for).
    pub(crate) finished: usize,
    pub(crate) schedule: Schedule,
    pub(crate) energy: f64,
    pub(crate) i_fault: usize,
    pub(crate) in_downtime: bool,
    pub(crate) down_until: f64,
    pub(crate) down_since: f64,
    pub(crate) erased_this_down: f64,
    /// (crash start, recovery time) pairs awaiting their first
    /// post-recovery slice, which resolves the recovery latency.
    pub(crate) pending_recoveries: VecDeque<(f64, f64)>,
    /// Active throttle windows as (until, cap).
    pub(crate) throttles: Vec<(f64, f64)>,
    pub(crate) now: f64,
    /// Event budget: generous, proportional to the event sources, to
    /// stop checkpoint loops.
    pub(crate) budget: usize,
}

impl<R: ReadyStore> EngineState<R> {
    /// The one constructor. Derives the start time and the band
    /// geometry from the release-sorted `arrivals`, builds the id index
    /// and the per-job table, recycles `ready` to that geometry (a
    /// pooled arena keeps its capacity; a recycled store is
    /// observationally identical to a fresh one), and admits everything
    /// due at the start.
    ///
    /// # Errors
    /// [`SimError::EmptyInstance`] for no arrivals;
    /// [`SimError::InvalidConfig`] for an `admission` that fails
    /// [`AdmissionConfig::validate`].
    pub(crate) fn new(
        arrivals: Vec<Job>,
        plan: &FaultPlan,
        burst_jobs: usize,
        admission: Option<AdmissionConfig>,
        mut ready: R,
    ) -> Result<EngineState<R>, SimError> {
        let n = arrivals.len();
        if n == 0 {
            return Err(SimError::EmptyInstance);
        }
        if let Some(ac) = &admission {
            ac.validate()?;
        }
        let events = plan.events().to_vec();
        // Start at the first arrival or the first fault, whichever is
        // earlier (early crashes must still account their downtime).
        let mut now = arrivals[0].release;
        if let Some(first_ev) = events.first() {
            now = now.min(first_ev.at);
        }
        // Deadline-band shards: equal-width release windows spanning
        // the materialized arrival stream. Derived deterministically
        // from `arrivals`, so journal restores recompute the identical
        // parameters.
        let origin = arrivals[0].release;
        let span = arrivals[n - 1].release - origin;
        let width = if span > 0.0 {
            span / NUM_BANDS as f64
        } else {
            1.0
        };
        let budget = 10_000 * (n + events.len() + 1);
        ready.recycle(origin, width);
        let mut engine = EngineState {
            ids: IdIndex::new(&arrivals),
            table: Vec::with_capacity(n),
            arrivals,
            events,
            slo: plan.slo(),
            admission,
            n,
            report: ResilienceReport {
                burst_jobs,
                ..ResilienceReport::default()
            },
            next_arrival: 0,
            ready,
            finished: 0,
            schedule: Schedule::single(),
            energy: 0.0,
            i_fault: 0,
            in_downtime: false,
            down_until: f64::NEG_INFINITY,
            down_since: 0.0,
            erased_this_down: 0.0,
            pending_recoveries: VecDeque::new(),
            throttles: Vec::new(),
            now,
            budget,
        };
        engine.admit_due();
        Ok(engine)
    }

    /// Whether every job has been completed, cancelled, or shed.
    pub(crate) fn done(&self) -> bool {
        self.finished >= self.n
    }

    /// Admit all pending jobs released at (or before) `now`, gated by
    /// admission control when configured; a job cancelled before its
    /// release is passed over. The admission epsilon scales with `now`
    /// so same-instant floods at large timestamps are admitted together
    /// instead of spinning.
    fn admit_due(&mut self) {
        let horizon = self.now + 1e-12 * self.now.abs().max(1.0);
        while self.next_arrival < self.n && self.arrivals[self.next_arrival].release <= horizon {
            let i = self.next_arrival;
            let j = self.arrivals[i];
            self.next_arrival += 1;
            if self.row(i).state != JobState::Pending {
                continue;
            }
            if let Some(ac) = self.admission {
                let full = self.ready.len() >= ac.capacity;
                let shed = match ac.shed {
                    ShedPolicy::RejectNewest => full,
                    ShedPolicy::EvictOldest => false,
                    ShedPolicy::DeadlineAware { slo, service_rate } => {
                        full || (self.ready.backlog() + j.work) / service_rate > slo
                    }
                };
                if shed {
                    self.table[i].state = JobState::Shed;
                    self.report.shed_jobs += 1;
                    self.report.shed_work += j.work;
                    self.finished += 1;
                    continue;
                }
                if full && ac.shed == ShedPolicy::EvictOldest {
                    // The oldest ready job makes room for the arrival.
                    let oldest = self.ready.oldest();
                    if let Some(p) = oldest.and_then(|v| self.retire(v, JobState::Shed)) {
                        self.report.shed_jobs += 1;
                        self.report.shed_work += p.work;
                    }
                }
            }
            self.ready.admit(
                i,
                PendingJob {
                    id: j.id,
                    release: j.release,
                    work: j.work,
                    remaining: j.work,
                },
            );
            self.table[i].state = JobState::Live;
        }
    }

    /// The table row of arrival `i`. A row is written on first touch —
    /// the job's admission or an early cancellation — so building the
    /// engine touches no memory per job, and a row past the end belongs
    /// to a job still pending.
    fn row(&mut self, i: usize) -> &mut JobEntry {
        if i >= self.table.len() {
            self.table.resize(i + 1, JobEntry::default());
        }
        &mut self.table[i]
    }

    /// Take the ready job at arrival index `i` out for good as `state`
    /// (a cancellation or an eviction): its partial progress becomes
    /// lost work and its metered energy wasted energy.
    fn retire(&mut self, i: usize, state: JobState) -> Option<PendingJob> {
        let p = self.ready.cancel(i)?;
        self.report.lost_work += p.work - p.remaining;
        self.report.wasted_energy += self.table[i].energy.take().unwrap_or(0.0);
        self.table[i].state = state;
        self.finished += 1;
        Some(p)
    }

    /// Advance the simulation by one event: apply due faults, expire
    /// throttles, fast-forward downtime, or consult the policy and
    /// execute one slice. One call corresponds exactly to one iteration
    /// of the pre-refactor engine loop.
    pub(crate) fn step<M: pas_power::PowerModel>(
        &mut self,
        model: &M,
        policy: &mut dyn OnlinePolicy,
    ) -> Result<(), SimError> {
        self.budget -= 1;
        if self.budget == 0 {
            return Err(SimError::TooManyEvents);
        }

        // 1. Apply every fault due at the current time. Slices never
        // span a fault boundary (dt is truncated below), so `now` is
        // exactly the event time for events inside the active horizon.
        while self.i_fault < self.events.len() && self.events[self.i_fault].at <= self.now {
            let ev = self.events[self.i_fault].clone();
            self.i_fault += 1;
            match ev.kind {
                FaultKind::Crash {
                    duration,
                    semantics,
                } => {
                    self.report.crashes += 1;
                    policy.notify(&FaultNotice::Crashed {
                        at: self.now,
                        semantics,
                    });
                    if !self.in_downtime {
                        self.in_downtime = true;
                        self.down_since = self.now;
                        self.erased_this_down = 0.0;
                        self.down_until = self.now;
                    }
                    if semantics == CrashSemantics::LoseProgress {
                        // The store reports the erased jobs in admission
                        // order, so both storage engines accumulate the
                        // same wasted-energy additions in the same order.
                        let (table, wasted) = (&mut self.table, &mut self.report.wasted_energy);
                        let erased = self.ready.reset_progress(&mut |i| {
                            *wasted += table[i].energy.take().unwrap_or(0.0);
                        });
                        self.report.lost_work += erased;
                        self.erased_this_down += erased;
                    }
                    self.down_until = self.down_until.max(self.now + duration);
                }
                FaultKind::CancelJob { job } => {
                    // An unknown job, or one already completed, cancelled
                    // or shed, is a no-op.
                    let cancelled = self.ids.get(job).and_then(|i| match self.row(i).state {
                        JobState::Live => self
                            .retire(i, JobState::Cancelled { admitted: true })
                            .map(|p| p.work),
                        JobState::Pending => {
                            self.table[i].state = JobState::Cancelled { admitted: false };
                            self.finished += 1;
                            Some(self.arrivals[i].work)
                        }
                        _ => None,
                    });
                    if let Some(work) = cancelled {
                        policy.notify(&FaultNotice::JobCancelled { at: self.now, job });
                        self.report.cancelled_jobs += 1;
                        self.report.cancelled_work += work;
                    }
                }
                FaultKind::Throttle { duration, cap } => {
                    let until = self.now + duration;
                    self.throttles.push((until, cap));
                    policy.notify(&FaultNotice::Throttled {
                        at: self.now,
                        until,
                        cap,
                    });
                }
                FaultKind::ArrivalBurst { .. } => {
                    // Burst jobs joined the arrival stream up front.
                }
            }
        }
        if self.finished >= self.n {
            return Ok(());
        }

        // 2. Expire throttle windows.
        if !self.throttles.is_empty() {
            let now = self.now;
            self.throttles.retain(|&(until, _)| until > now);
            if self.throttles.is_empty() {
                policy.notify(&FaultNotice::ThrottleLifted { at: self.now });
            }
        }

        // 3. Downtime: fast-forward to recovery (or the next fault,
        // which may extend the outage), admitting arrivals as time
        // passes but never consulting the policy.
        if self.in_downtime {
            if self.now < self.down_until {
                let next_fault_at = self
                    .events
                    .get(self.i_fault)
                    .map_or(f64::INFINITY, |e| e.at);
                self.now = self.down_until.min(next_fault_at);
                self.admit_due();
                return Ok(());
            }
            self.in_downtime = false;
            let downtime = self.now - self.down_since;
            self.report.downtime += downtime;
            self.pending_recoveries
                .push_back((self.down_since, self.now));
            policy.notify(&FaultNotice::Recovered {
                at: self.now,
                downtime,
                lost_work: self.erased_this_down,
            });
        }

        // 4. Consult the policy.
        let decision = policy.decide(self.now, &self.ready, self.energy);
        match decision {
            None => {
                // Idle until the next arrival or fault.
                let next_arrival_at = if self.next_arrival < self.n {
                    self.arrivals[self.next_arrival].release
                } else {
                    f64::INFINITY
                };
                let next_fault_at = self
                    .events
                    .get(self.i_fault)
                    .map_or(f64::INFINITY, |e| e.at);
                let target = next_arrival_at.min(next_fault_at);
                if !target.is_finite() {
                    return Err(SimError::PolicyStalled {
                        at: self.now,
                        unfinished: self.n - self.finished,
                    });
                }
                self.now = self.now.max(target);
                self.admit_due();
            }
            Some(Decision {
                job,
                speed,
                recheck_after,
            }) => {
                if !(speed.is_finite() && speed > 0.0) {
                    return Err(SimError::InvalidSpeed {
                        speed,
                        at: self.now,
                    });
                }
                let Some((i, slot)) = self
                    .ids
                    .get(job)
                    .and_then(|i| self.ready.slot(i).map(|slot| (i, slot)))
                else {
                    return Err(SimError::UnknownJob { job, at: self.now });
                };
                // Graceful degradation: clamp to the active throttle
                // cap instead of failing the decision.
                let cap = self
                    .throttles
                    .iter()
                    .map(|&(_, c)| c)
                    .fold(f64::INFINITY, f64::min);
                let speed = if speed > cap {
                    self.report.throttle_clamps += 1;
                    cap
                } else {
                    speed
                };
                // Run until completion, next arrival, checkpoint, next
                // fault, or throttle expiry — whichever comes first.
                let completion_in = self.ready.remaining_at(slot) / speed;
                let arrival_in = if self.next_arrival < self.n {
                    self.arrivals[self.next_arrival].release - self.now
                } else {
                    f64::INFINITY
                };
                let recheck_in = recheck_after.unwrap_or(f64::INFINITY).max(1e-12);
                let fault_in = self
                    .events
                    .get(self.i_fault)
                    .map_or(f64::INFINITY, |e| e.at - self.now);
                let expiry_in = self
                    .throttles
                    .iter()
                    .map(|&(u, _)| u)
                    .fold(f64::INFINITY, f64::min)
                    - self.now;
                let dt = completion_in
                    .min(arrival_in)
                    .min(recheck_in)
                    .min(fault_in)
                    .min(expiry_in);
                if dt > 0.0 {
                    // First work after a recovery resolves its latency.
                    while let Some(&(crash_at, recovered_at)) = self.pending_recoveries.front() {
                        if recovered_at <= self.now {
                            self.report.recovery_latencies.push(self.now - crash_at);
                            self.pending_recoveries.pop_front();
                        } else {
                            break;
                        }
                    }
                    self.schedule
                        .push(0, Slice::new(job, self.now, self.now + dt, speed));
                    let spent = model.power(speed) * dt;
                    self.energy += spent;
                    *self.table[i].energy.get_or_insert(0.0) += spent;
                    // Clamp so the backlog accumulator cannot absorb a
                    // negative residual at completion.
                    let executed = (speed * dt).min(self.ready.remaining_at(slot));
                    self.ready.execute(slot, executed);
                    self.now += dt;
                }
                if self.ready.remaining_at(slot) <= 1e-9 * self.arrivals[i].work {
                    // Snap any residual into the final slice via coalesce
                    // tolerance; mark complete. Delivered energy is not
                    // overhead.
                    self.table[i].state = JobState::Completed;
                    self.table[i].energy = None;
                    self.ready.remove(slot);
                    self.finished += 1;
                }
                self.admit_due();
            }
        }
        Ok(())
    }

    /// Seal the run: coalesce the schedule, resolve dangling recovery
    /// latencies, build the effective instance, and count SLO misses.
    /// The outcome moves out (schedule, report), but the state value
    /// survives so a pooling caller can reclaim its buffers afterwards.
    /// Sealing twice would return an empty outcome — callers seal
    /// a finished run exactly once.
    pub(crate) fn seal(&mut self) -> Result<OnlineOutcome, SimError> {
        self.schedule.coalesce(1e-9);

        // Crashes whose recovery never saw another slice: latency runs
        // to the end of the simulation.
        for (crash_at, recovered_at) in std::mem::take(&mut self.pending_recoveries) {
            self.report
                .recovery_latencies
                .push(self.now.max(recovered_at) - crash_at);
        }

        // Per-job executed work (compensated, in schedule order) and
        // last slice end, into the table.
        for s in self.schedule.machine(0) {
            let i = self.ids.get(s.job).expect("slices run arrived jobs");
            self.table[i].executed.add(s.work());
            self.table[i].last_end = Some(s.end);
        }

        // One walk of the table. The effective instance holds exactly
        // the jobs with executed work, at their executed totals, so the
        // schedule validates against it even after re-execution,
        // partial cancellation, or a mid-queue eviction. Against the
        // plan's SLO, a delivered job misses when its flow exceeds it,
        // and every cancelled or shed job is a miss.
        let mut eff = Vec::new();
        let (mut completed, mut cancelled, mut shed, mut late) = (0, 0, 0, 0);
        for (j, e) in self.arrivals.iter().zip(&self.table) {
            let work = e.executed.total();
            if work > 0.0 {
                eff.push(Job::new(j.id, j.release, work));
            }
            match e.state {
                JobState::Completed => {
                    completed += 1;
                    if let Some(slo) = self.slo {
                        late += usize::from(e.last_end.is_none_or(|c| c - j.release > slo));
                    }
                }
                JobState::Cancelled { .. } => cancelled += 1,
                JobState::Shed => shed += 1,
                JobState::Pending | JobState::Live => {}
            }
        }
        // Conservation: every arrival ended exactly once, and the table
        // agrees with the report's counters.
        debug_assert_eq!(completed + cancelled + shed, self.n, "a job never ended");
        debug_assert_eq!(cancelled, self.report.cancelled_jobs);
        debug_assert_eq!(shed, self.report.shed_jobs);
        if self.slo.is_some() {
            self.report.deadline_misses = Some(cancelled + shed + late);
        }
        let effective = if eff.is_empty() {
            None
        } else {
            Some(Instance::new(eff).map_err(SimError::solver)?)
        };

        Ok(OnlineOutcome {
            schedule: std::mem::replace(&mut self.schedule, Schedule::single()),
            energy: self.energy,
            resilience: std::mem::take(&mut self.report),
            effective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{BurstJob, FaultEvent, FaultModel};
    use crate::metrics;
    use pas_power::PolyPower;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Runs everything at a fixed speed, FIFO.
    struct FixedSpeed(f64);

    impl OnlinePolicy for FixedSpeed {
        fn decide(&mut self, _now: f64, ready: &dyn ReadyView, _energy: f64) -> Option<Decision> {
            ready.first().map(|p| Decision {
                job: p.id,
                speed: self.0,
                recheck_after: None,
            })
        }
        fn name(&self) -> String {
            format!("fixed({})", self.0)
        }
    }

    fn paper_instance() -> Instance {
        Instance::from_pairs(&[(0.0, 5.0), (5.0, 2.0), (6.0, 1.0)]).unwrap()
    }

    #[test]
    fn fixed_speed_completes_and_validates() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        let out = run_online(&inst, &model, &mut FixedSpeed(2.0)).unwrap();
        out.schedule.validate(&inst, 1e-6).unwrap();
        // 8 total work at speed 2, released over [0,6]: the machine is
        // never starved, so makespan = max(release chain).
        let mk = metrics::makespan(&out.schedule);
        assert!(mk >= 4.0 - 1e-9, "makespan {mk}");
        // Energy: 8 work at speed 2 under σ³ -> w·σ² = 32.
        assert!((out.energy - 32.0).abs() < 1e-6, "energy {}", out.energy);
        // Fault-free runs report a clean resilience record and an
        // effective instance equivalent to the input.
        assert!(out.resilience.is_clean());
        let eff = out.effective.expect("work was executed");
        eff.jobs().iter().zip(inst.jobs()).for_each(|(e, j)| {
            assert_eq!(e.id, j.id);
            assert!((e.work - j.work).abs() < 1e-6 * j.work);
        });
        out.schedule.validate(&eff, 1e-6).unwrap();
    }

    #[test]
    fn ready_set_aggregates_track_the_run() {
        struct Check {
            max_seen: f64,
        }
        impl OnlinePolicy for Check {
            fn decide(
                &mut self,
                _now: f64,
                ready: &dyn ReadyView,
                _energy: f64,
            ) -> Option<Decision> {
                // Aggregates stay consistent with the job list.
                let listed: f64 = ready.jobs().iter().map(|p| p.remaining).sum();
                assert!((ready.backlog() - listed).abs() < 1e-9);
                assert!(ready.seen_work() >= listed - 1e-9);
                assert_eq!(ready.first_arrival(), Some(0.0));
                self.max_seen = self.max_seen.max(ready.seen_work());
                ready.first().map(|p| Decision {
                    job: p.id,
                    speed: 1.0,
                    recheck_after: None,
                })
            }
        }
        let inst = paper_instance();
        let mut policy = Check { max_seen: 0.0 };
        let out = run_online(&inst, &PolyPower::CUBE, &mut policy).unwrap();
        out.schedule.validate(&inst, 1e-6).unwrap();
        assert!((policy.max_seen - 8.0).abs() < 1e-9, "{}", policy.max_seen);
    }

    #[test]
    fn pooled_runs_are_bit_identical_across_reuse() {
        use crate::journal::outcome_digest;
        let model = PolyPower::CUBE;
        let plan = FaultModel::uniform_mix(0.4).sample(12.0, &[0, 1, 2], 9);
        let gate = AdmissionConfig {
            capacity: 2,
            shed: ShedPolicy::RejectNewest,
        };
        // One scratch reused across differently-shaped runs, gated and
        // not, each compared at digest level to a run on a fresh one.
        let mut scratch = EngineScratch::new();
        let instances = [
            paper_instance(),
            Instance::from_pairs(&[(0.0, 1.0), (0.0, 2.0), (2.5, 0.5), (3.0, 4.0)]).unwrap(),
            Instance::from_pairs(&[(1.0, 3.0)]).unwrap(),
        ];
        for inst in &instances {
            for admission in [None, Some(gate)] {
                let run = |scratch: &mut EngineScratch| {
                    run_online_pooled(
                        inst,
                        &model,
                        &mut FixedSpeed(2.0),
                        &plan,
                        admission,
                        scratch,
                    )
                    .unwrap()
                };
                let fresh = run(&mut EngineScratch::new());
                let pooled = run(&mut scratch);
                assert_eq!(outcome_digest(&fresh), outcome_digest(&pooled));
                assert_eq!(fresh.energy.to_bits(), pooled.energy.to_bits());
            }
        }
        // The fault-free and faulted entries are the general entry on a
        // fresh scratch.
        let inst = paper_instance();
        let plain = run_online(&inst, &model, &mut FixedSpeed(2.0)).unwrap();
        let none = FaultPlan::none();
        let pooled = run_online_pooled(
            &inst,
            &model,
            &mut FixedSpeed(2.0),
            &none,
            None,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(outcome_digest(&plain), outcome_digest(&pooled));
    }

    #[test]
    fn invalid_admission_is_a_typed_error() {
        let inst = paper_instance();
        let plan = FaultPlan::none();
        let bad = [
            AdmissionConfig {
                capacity: 0,
                shed: ShedPolicy::EvictOldest,
            },
            AdmissionConfig {
                capacity: 3,
                shed: ShedPolicy::DeadlineAware {
                    slo: 4.0,
                    service_rate: f64::NAN,
                },
            },
            AdmissionConfig {
                capacity: 3,
                shed: ShedPolicy::DeadlineAware {
                    slo: 0.0,
                    service_rate: 1.0,
                },
            },
            AdmissionConfig {
                capacity: 3,
                shed: ShedPolicy::DeadlineAware {
                    slo: f64::INFINITY,
                    service_rate: 1.0,
                },
            },
        ];
        let mut scratch = EngineScratch::new();
        for ac in bad {
            let err = run_online_pooled(
                &inst,
                &PolyPower::CUBE,
                &mut FixedSpeed(1.0),
                &plan,
                Some(ac),
                &mut scratch,
            )
            .unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig { .. }),
                "{ac:?} gave {err}"
            );
            assert_eq!(ac.validate(), Err(err));
        }
        // The scratch survives a rejected run, and the smallest valid
        // queue holds its bound.
        let one = AdmissionConfig {
            capacity: 1,
            shed: ShedPolicy::EvictOldest,
        };
        assert_eq!(one.validate(), Ok(()));
        run_online_pooled(
            &inst,
            &PolyPower::CUBE,
            &mut FixedSpeed(1.0),
            &plan,
            Some(one),
            &mut scratch,
        )
        .unwrap();
    }

    #[test]
    fn slow_speed_creates_no_idle_fast_speed_idles() {
        let inst = paper_instance();
        let model = PolyPower::CUBE;
        // At speed 10 the first job finishes at t=0.5, then idle till 5.
        let out = run_online(&inst, &model, &mut FixedSpeed(10.0)).unwrap();
        out.schedule.validate(&inst, 1e-6).unwrap();
        let lane = out.schedule.machine(0);
        assert!(lane.windows(2).any(|p| p[1].start > p[0].end + 1e-9));
    }

    #[test]
    fn stalling_policy_is_reported() {
        struct Lazy;
        impl OnlinePolicy for Lazy {
            fn decide(&mut self, _: f64, _: &dyn ReadyView, _: f64) -> Option<Decision> {
                None
            }
        }
        let inst = paper_instance();
        let err = run_online(&inst, &PolyPower::CUBE, &mut Lazy).unwrap_err();
        assert!(matches!(err, SimError::PolicyStalled { unfinished: 3, .. }));
    }

    #[test]
    fn invalid_decisions_are_reported() {
        struct BadSpeed;
        impl OnlinePolicy for BadSpeed {
            fn decide(&mut self, _: f64, r: &dyn ReadyView, _: f64) -> Option<Decision> {
                r.first().map(|p| Decision {
                    job: p.id,
                    speed: -1.0,
                    recheck_after: None,
                })
            }
        }
        struct WrongJob;
        impl OnlinePolicy for WrongJob {
            fn decide(&mut self, _: f64, _: &dyn ReadyView, _: f64) -> Option<Decision> {
                Some(Decision {
                    job: 999,
                    speed: 1.0,
                    recheck_after: None,
                })
            }
        }
        let inst = paper_instance();
        assert!(matches!(
            run_online(&inst, &PolyPower::CUBE, &mut BadSpeed).unwrap_err(),
            SimError::InvalidSpeed { .. }
        ));
        assert!(matches!(
            run_online(&inst, &PolyPower::CUBE, &mut WrongJob).unwrap_err(),
            SimError::UnknownJob { job: 999, .. }
        ));
    }

    #[test]
    fn checkpoints_allow_speed_ramps() {
        /// Doubles its speed at every checkpoint (exercises recheck).
        struct Ramp {
            speed: f64,
        }
        impl OnlinePolicy for Ramp {
            fn decide(&mut self, _: f64, r: &dyn ReadyView, _: f64) -> Option<Decision> {
                self.speed *= 2.0;
                r.first().map(|p| Decision {
                    job: p.id,
                    speed: self.speed,
                    recheck_after: Some(0.5),
                })
            }
        }
        let inst = Instance::from_pairs(&[(0.0, 4.0)]).unwrap();
        let out = run_online(&inst, &PolyPower::CUBE, &mut Ramp { speed: 0.5 }).unwrap();
        out.schedule.validate(&inst, 1e-6).unwrap();
        // Multiple slices at increasing speeds.
        let lane = out.schedule.machine(0);
        assert!(lane.len() >= 2);
        for pair in lane.windows(2) {
            assert!(pair[1].speed > pair[0].speed);
        }
    }

    #[test]
    fn preemption_on_arrival_is_possible() {
        /// Shortest-remaining-work-first at unit speed: arrival of a short
        /// job preempts a long one.
        struct Srpt;
        impl OnlinePolicy for Srpt {
            fn decide(&mut self, _: f64, r: &dyn ReadyView, _: f64) -> Option<Decision> {
                r.jobs()
                    .into_iter()
                    .min_by(|a, b| a.remaining.total_cmp(&b.remaining))
                    .map(|p| Decision {
                        job: p.id,
                        speed: 1.0,
                        recheck_after: None,
                    })
            }
        }
        let inst = Instance::from_pairs(&[(0.0, 10.0), (1.0, 1.0)]).unwrap();
        let out = run_online(&inst, &PolyPower::CUBE, &mut Srpt).unwrap();
        out.schedule.validate(&inst, 1e-6).unwrap();
        let completions = out.schedule.completion_times();
        // Short job finishes at 2 (preempts), long at 11.
        assert!((completions[&1] - 2.0).abs() < 1e-9);
        assert!((completions[&0] - 11.0).abs() < 1e-9);
    }

    #[test]
    fn every_terminal_path_ends_each_arrival_once() {
        // Job 0 completes before a lose-progress crash at 0.5 erases
        // job 1's progress; jobs 2–4 arrive at 1.0 into a 2-slot queue;
        // job 1 is cancelled at 1.5 after it ran again, and job 5 at 2.0
        // before its release.
        let inst = Instance::from_pairs(&[
            (0.0, 0.25),
            (0.0, 2.0),
            (1.0, 1.0),
            (1.0, 1.0),
            (1.0, 1.0),
            (20.0, 1.0),
        ])
        .unwrap();
        let cancel = |at, job| FaultEvent {
            at,
            kind: FaultKind::CancelJob { job },
        };
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 0.5,
                kind: FaultKind::Crash {
                    duration: 0.5,
                    semantics: CrashSemantics::LoseProgress,
                },
            },
            cancel(1.5, 1),
            cancel(2.0, 5),
        ])
        .unwrap();
        // Per rule: [completed, cancelled before arrival, cancelled
        // after admission, shed], by job id.
        let cases: [(ShedPolicy, [&[u32]; 4]); 3] = [
            (ShedPolicy::RejectNewest, [&[0, 2], &[5], &[1], &[3, 4]]),
            (ShedPolicy::EvictOldest, [&[0, 3, 4], &[5], &[], &[1, 2]]),
            (
                ShedPolicy::DeadlineAware {
                    slo: 2.5,
                    service_rate: 1.0,
                },
                [&[0], &[5], &[1], &[2, 3, 4]],
            ),
        ];
        for (shed, want) in cases {
            let admission = Some(AdmissionConfig { capacity: 2, shed });
            let mut arrivals = Vec::new();
            let bursts = materialize_arrivals(&inst, &plan, &mut arrivals);
            let mut engine = EngineState::new(
                arrivals,
                &plan,
                bursts,
                admission,
                ShardedReadySet::default(),
            )
            .unwrap();
            while !engine.done() {
                engine.step(&PolyPower::CUBE, &mut FixedSpeed(1.0)).unwrap();
            }
            let mut ended: [Vec<u32>; 4] = Default::default();
            for (j, e) in engine.arrivals.iter().zip(&engine.table) {
                let k = match e.state {
                    JobState::Completed => 0,
                    JobState::Cancelled { admitted: false } => 1,
                    JobState::Cancelled { admitted: true } => 2,
                    JobState::Shed => 3,
                    other => panic!("{shed:?}: job {} ended {other:?}", j.id),
                };
                ended[k].push(j.id);
                assert_eq!(e.energy, None, "{shed:?}: job {} kept its energy", j.id);
            }
            assert_eq!(
                ended.map(|ids| ids.to_vec()),
                want.map(<[u32]>::to_vec),
                "{shed:?}"
            );
            let out = engine.seal().unwrap();
            let r = &out.resilience;
            assert_eq!(r.crashes, 1);
            assert_eq!(r.cancelled_jobs, want[1].len() + want[2].len(), "{shed:?}");
            assert_eq!(r.shed_jobs, want[3].len(), "{shed:?}");
            // The crash erased job 1's first 0.25 units, and a cancel
            // after admission also wastes the 0.5 it ran since.
            let lost = if want[2].is_empty() { 0.25 } else { 0.75 };
            assert!(
                (r.lost_work - lost).abs() < 1e-12,
                "{shed:?}: {}",
                r.lost_work
            );
            assert!((r.wasted_energy - lost).abs() < 1e-12, "{shed:?}");
            out.schedule
                .validate(out.effective.as_ref().unwrap(), 1e-6)
                .unwrap();
        }
    }

    #[test]
    fn id_index_resolves_dense_and_sparse_ids() {
        let jobs =
            |ids: &[u32]| -> Vec<Job> { ids.iter().map(|&id| Job::new(id, 0.0, 1.0)).collect() };
        let dense = jobs(&[7, 5, 6, 9]);
        let sparse = jobs(&[40, 3, 1_000_000, 17]);
        for (arrivals, is_dense) in [(&dense, true), (&sparse, false)] {
            let index = IdIndex::new(arrivals);
            assert_eq!(matches!(index, IdIndex::Dense { .. }), is_dense);
            assert_eq!(matches!(index, IdIndex::Hashed { .. }), !is_dense);
            for (i, j) in arrivals.iter().enumerate() {
                assert_eq!(index.get(j.id), Some(i));
            }
            for absent in [0, 4, 8, 10, 41, u32::MAX] {
                assert_eq!(index.get(absent), None, "{absent}");
            }
        }
        assert_eq!(IdIndex::new(&[]).get(0), None);
    }

    /// The arrival index of `id` by a linear scan: the oracle for
    /// [`IdIndex::get`].
    fn scan(arrivals: &[Job], id: u32) -> Option<usize> {
        arrivals.iter().position(|j| j.id == id)
    }

    /// Unique ids in one of five shapes, in the order `raw` draws them:
    /// compact (dense lane), sparse over all of `u32`, clustered just
    /// below `u32::MAX` (the top id included), strided (a fleet host's
    /// round-robin share) and a single id.
    fn shaped_ids(shape: u8, raw: &[u32], stride: u32) -> Vec<u32> {
        let n = raw.len() as u32;
        let mut ids: Vec<u32> = match shape {
            // Every even offset and about half the odd ones: the span
            // stays within twice the count.
            0 => permuted(raw)
                .filter(|&(r, k)| k % 2 == 0 || r % 2 == 0)
                .map(|(_, k)| raw[0] / 2 + k)
                .collect(),
            1 => raw.to_vec(),
            2 => std::iter::once(u32::MAX)
                .chain(raw.iter().map(|r| u32::MAX - r % (4 * n)))
                .collect(),
            3 => {
                let base = raw[0] % (u32::MAX - n * stride);
                permuted(raw).map(|(_, k)| base + k * stride).collect()
            }
            _ => vec![raw[0]],
        };
        let mut seen = std::collections::HashSet::new();
        ids.retain(|&id| seen.insert(id));
        ids
    }

    /// The offsets `0..raw.len()` in the order `raw` sorts them, each
    /// with its `raw` value.
    fn permuted(raw: &[u32]) -> impl Iterator<Item = (u32, u32)> {
        let mut order: Vec<(u32, u32)> = raw.iter().copied().zip(0..).collect();
        order.sort_unstable();
        order.into_iter()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn id_index_agrees_with_a_linear_scan(
            shape in 0u8..5,
            raw in vec(0u32..u32::MAX, 1..5001),
            stride in 1u32..50_000,
            probes in vec(0u32..u32::MAX, 64),
        ) {
            let ids = shaped_ids(shape, &raw, stride);
            let arrivals: Vec<Job> = ids.iter().map(|&id| Job::new(id, 0.0, 1.0)).collect();
            let index = IdIndex::new(&arrivals);
            if shape == 0 || shape == 4 {
                prop_assert!(
                    matches!(index, IdIndex::Dense { .. }),
                    "shape {shape} should take the dense lane"
                );
            }
            if shape == 3 && stride >= 3 && ids.len() >= 2 {
                prop_assert!(
                    matches!(index, IdIndex::Hashed { .. }),
                    "a stride of {stride} should take the table"
                );
            }
            // Every present id, its successor (mostly absent, and
            // wrapping at the top of `u32`), the extremes and random
            // probes.
            let queries = ids
                .iter()
                .flat_map(|&id| [id, id.wrapping_add(1)])
                .chain([0, 1, u32::MAX - 1, u32::MAX])
                .chain(probes.iter().copied());
            for q in queries {
                prop_assert_eq!(index.get(q), scan(&arrivals, q));
            }
        }
    }

    #[test]
    fn empty_arrivals_are_a_typed_error() {
        let plan = FaultPlan::none();
        let engine = EngineState::new(Vec::new(), &plan, 0, None, ShardedReadySet::default());
        assert_eq!(engine.err(), Some(SimError::EmptyInstance));
    }

    #[test]
    fn same_instant_flood_at_large_timestamp_drops_nothing() {
        // 500 jobs all released at t = 1e9: the absolute 1e-12 epsilon
        // is below one ulp there; the relative epsilon must admit the
        // whole flood and the run must complete every job.
        let t0 = 1e9;
        let jobs: Vec<Job> = (0..500).map(|i| Job::new(i, t0, 1.0)).collect();
        let inst = Instance::new(jobs).unwrap();
        let out = run_online(&inst, &PolyPower::CUBE, &mut FixedSpeed(4.0)).unwrap();
        assert_eq!(out.schedule.completion_times().len(), 500);
        out.schedule.validate(&inst, 1e-6).unwrap();
        assert!(out.energy.is_finite());
    }

    #[test]
    fn checkpointed_crash_costs_only_downtime() {
        let inst = Instance::from_pairs(&[(0.0, 4.0)]).unwrap();
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 1.0,
            kind: FaultKind::Crash {
                duration: 2.0,
                semantics: CrashSemantics::Checkpointed,
            },
        }])
        .unwrap();
        let out =
            run_online_with_faults(&inst, &PolyPower::CUBE, &mut FixedSpeed(1.0), &plan).unwrap();
        let r = &out.resilience;
        assert_eq!(r.crashes, 1);
        assert!((r.downtime - 2.0).abs() < 1e-9, "downtime {}", r.downtime);
        assert_eq!(r.lost_work, 0.0);
        // Work pauses over [1, 3]: completion at 6 instead of 4.
        let c = out.schedule.completion_times()[&0];
        assert!((c - 6.0).abs() < 1e-9, "completion {c}");
        // Recovery latency = downtime (work restarts immediately).
        assert!((r.max_recovery_latency() - 2.0).abs() < 1e-9);
        // Energy unchanged vs a fault-free run (same work, same speed).
        assert!((out.energy - 4.0).abs() < 1e-9);
        assert_eq!(r.wasted_energy, 0.0);
        out.schedule
            .validate(out.effective.as_ref().unwrap(), 1e-6)
            .unwrap();
    }

    #[test]
    fn lost_progress_crash_re_executes_work() {
        let inst = Instance::from_pairs(&[(0.0, 4.0)]).unwrap();
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 1.0,
            kind: FaultKind::Crash {
                duration: 1.0,
                semantics: CrashSemantics::LoseProgress,
            },
        }])
        .unwrap();
        let out =
            run_online_with_faults(&inst, &PolyPower::CUBE, &mut FixedSpeed(1.0), &plan).unwrap();
        let r = &out.resilience;
        assert!((r.lost_work - 1.0).abs() < 1e-9, "lost {}", r.lost_work);
        // 1 unit executed pre-crash at speed 1 under σ³ = 1 energy wasted.
        assert!((r.wasted_energy - 1.0).abs() < 1e-9);
        // Re-execution: completion at 1 (crash) + 1 (down) + 4 (full) = 6.
        let c = out.schedule.completion_times()[&0];
        assert!((c - 6.0).abs() < 1e-9, "completion {c}");
        // Effective work = 5 (1 erased + 4 delivered); validates.
        let eff = out.effective.as_ref().unwrap();
        assert!((eff.job(0).work - 5.0).abs() < 1e-6);
        out.schedule.validate(eff, 1e-6).unwrap();
        // Total energy covers the re-execution.
        assert!((out.energy - 5.0).abs() < 1e-9);
    }

    #[test]
    fn cancellation_is_not_a_completion() {
        let inst = Instance::from_pairs(&[(0.0, 2.0), (0.0, 2.0), (10.0, 1.0)]).unwrap();
        // Cancel job 1 mid-run and job 2 before it arrives.
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 1.0,
                kind: FaultKind::CancelJob { job: 1 },
            },
            FaultEvent {
                at: 3.0,
                kind: FaultKind::CancelJob { job: 2 },
            },
        ])
        .unwrap();
        let out =
            run_online_with_faults(&inst, &PolyPower::CUBE, &mut FixedSpeed(1.0), &plan).unwrap();
        let r = &out.resilience;
        assert_eq!(r.cancelled_jobs, 2);
        assert!((r.cancelled_work - 3.0).abs() < 1e-9);
        let completions = out.schedule.completion_times();
        assert!(completions.contains_key(&0));
        // Only job 0 is delivered; the run ends without waiting for job 2.
        assert!((metrics::makespan(&out.schedule) - 2.0).abs() < 1e-9);
        out.schedule
            .validate(out.effective.as_ref().unwrap(), 1e-6)
            .unwrap();
    }

    #[test]
    fn throttle_clamps_and_lifts() {
        let inst = Instance::from_pairs(&[(0.0, 4.0)]).unwrap();
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 0.0,
            kind: FaultKind::Throttle {
                duration: 2.0,
                cap: 0.5,
            },
        }])
        .unwrap();
        let out =
            run_online_with_faults(&inst, &PolyPower::CUBE, &mut FixedSpeed(2.0), &plan).unwrap();
        let r = &out.resilience;
        assert!(r.throttle_clamps >= 1, "clamps {}", r.throttle_clamps);
        // [0,2] at cap 0.5 -> 1 work done; remaining 3 at speed 2 -> 1.5.
        let c = out.schedule.completion_times()[&0];
        assert!((c - 3.5).abs() < 1e-9, "completion {c}");
        let lane = out.schedule.machine(0);
        assert!((lane[0].speed - 0.5).abs() < 1e-12);
        assert!((lane.last().unwrap().speed - 2.0).abs() < 1e-12);
        out.schedule
            .validate(out.effective.as_ref().unwrap(), 1e-6)
            .unwrap();
    }

    #[test]
    fn bursts_inject_fresh_jobs() {
        let inst = Instance::from_pairs(&[(0.0, 1.0)]).unwrap();
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 2.0,
            kind: FaultKind::ArrivalBurst {
                jobs: vec![
                    BurstJob {
                        offset: 0.0,
                        work: 1.0,
                    },
                    BurstJob {
                        offset: 0.5,
                        work: 2.0,
                    },
                ],
            },
        }])
        .unwrap();
        let out =
            run_online_with_faults(&inst, &PolyPower::CUBE, &mut FixedSpeed(1.0), &plan).unwrap();
        assert_eq!(out.resilience.burst_jobs, 2);
        assert_eq!(out.schedule.completion_times().len(), 3);
        let eff = out.effective.as_ref().unwrap();
        assert_eq!(eff.len(), 3);
        out.schedule.validate(eff, 1e-6).unwrap();
    }

    #[test]
    fn slo_counts_deadline_misses() {
        let inst = Instance::from_pairs(&[(0.0, 1.0), (0.0, 1.0)]).unwrap();
        // FIFO at speed 1: flows are 1 and 2. SLO 1.5 -> one miss.
        let plan = FaultPlan::none().with_slo(1.5);
        let out =
            run_online_with_faults(&inst, &PolyPower::CUBE, &mut FixedSpeed(1.0), &plan).unwrap();
        assert_eq!(out.resilience.deadline_misses, Some(1));
    }

    #[test]
    fn policies_hear_fault_notices() {
        #[derive(Default)]
        struct Listening {
            crashed: usize,
            recovered: usize,
            throttled: usize,
            lifted: usize,
            cancelled: usize,
        }
        impl OnlinePolicy for Listening {
            fn decide(&mut self, _: f64, r: &dyn ReadyView, _: f64) -> Option<Decision> {
                r.first().map(|p| Decision {
                    job: p.id,
                    speed: 1.0,
                    recheck_after: None,
                })
            }
            fn notify(&mut self, notice: &FaultNotice) {
                match notice {
                    FaultNotice::Crashed { .. } => self.crashed += 1,
                    FaultNotice::Recovered { .. } => self.recovered += 1,
                    FaultNotice::Throttled { .. } => self.throttled += 1,
                    FaultNotice::ThrottleLifted { .. } => self.lifted += 1,
                    FaultNotice::JobCancelled { .. } => self.cancelled += 1,
                }
            }
        }
        let inst = Instance::from_pairs(&[(0.0, 3.0), (0.0, 2.0)]).unwrap();
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 0.5,
                kind: FaultKind::Crash {
                    duration: 0.5,
                    semantics: CrashSemantics::Checkpointed,
                },
            },
            FaultEvent {
                at: 1.5,
                kind: FaultKind::Throttle {
                    duration: 0.5,
                    cap: 0.25,
                },
            },
            FaultEvent {
                at: 2.5,
                kind: FaultKind::CancelJob { job: 1 },
            },
        ])
        .unwrap();
        let mut policy = Listening::default();
        run_online_with_faults(&inst, &PolyPower::CUBE, &mut policy, &plan).unwrap();
        assert_eq!(policy.crashed, 1);
        assert_eq!(policy.recovered, 1);
        assert_eq!(policy.throttled, 1);
        assert!(policy.lifted >= 1);
        assert_eq!(policy.cancelled, 1);
    }

    #[test]
    fn seeded_plans_replay_identically() {
        let inst = Instance::from_pairs(&[(0.0, 2.0), (1.0, 2.0), (2.0, 2.0)]).unwrap();
        let ids: Vec<u32> = inst.jobs().iter().map(|j| j.id).collect();
        let plan = FaultModel::uniform_mix(0.8).sample(8.0, &ids, 42);
        let a =
            run_online_with_faults(&inst, &PolyPower::CUBE, &mut FixedSpeed(1.5), &plan).unwrap();
        let b =
            run_online_with_faults(&inst, &PolyPower::CUBE, &mut FixedSpeed(1.5), &plan).unwrap();
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(
            a.schedule.completion_times().len(),
            b.schedule.completion_times().len()
        );
    }

    #[test]
    fn sim_error_source_chain() {
        #[derive(Debug)]
        struct Root;
        impl std::fmt::Display for Root {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "root cause")
            }
        }
        impl std::error::Error for Root {}
        let err = SimError::solver(Root);
        assert!(err.to_string().contains("root cause"));
        let src = std::error::Error::source(&err).expect("source is chained");
        assert_eq!(src.to_string(), "root cause");
        // Equality ignores the unattributable source pointer.
        let bare = SimError::Solver {
            message: "root cause".into(),
            source: None,
        };
        assert_eq!(err, bare);
        assert_ne!(err, SimError::TooManyEvents);
    }
}
