//! Write-ahead journal and engine snapshots for the serving layer.
//!
//! The serving loop ([`crate::serve`]) is deterministic given its
//! inputs *except* for wall-clock watchdog decisions, so crash recovery
//! reduces to event sourcing: journal every policy consultation (the
//! applied decision, whether the policy was actually consulted, and
//! whether the watchdog tripped) and periodically checkpoint the full
//! engine state. A restored process replays the journaled decisions —
//! never re-measuring wall time — and lands on a bit-identical
//! [`OnlineOutcome`].
//!
//! # Bit-exactness
//!
//! Every `f64` in a record or snapshot is encoded as its 16-hex-digit
//! IEEE-754 bit pattern, so persistence is exact for *all* values
//! (including the engine's `-inf` downtime sentinel) and independent of
//! any float-formatting subtleties. Aggregate accumulators (backlog,
//! energy, seen work) are persisted rather than recomputed: they are
//! running sums whose rounding history a fresh summation would not
//! reproduce.
//!
//! # Torn tails
//!
//! Records are single lines, flushed per write, and a record is durable
//! once its newline is written. A `SIGKILL` can leave at most one
//! unterminated line at the end of the file; the reader drops it (even
//! one that looks complete), so recovery resumes from the last durable
//! record, and [`Journal::append`] cuts it off before writing, so the
//! next record starts a line of its own.
//!
//! # Decoding
//!
//! The journal has one grammar. Each line kind — header, decision,
//! snapshot — is written by its `encode_*` function and read back by
//! `decode_line`, which accepts exactly those bytes: fixed key order, no
//! whitespace, canonical decimals, lowercase 16-hex floats. Both are
//! built on the byte codec of [`pas_workload::io`] that the fleet trace
//! shares, so every decoded value round-trips bit for bit, and a
//! terminated line outside the grammar is [`JournalError::Malformed`].
//! A snapshot must also be internally consistent (its ready slots, free
//! list, queue and band vectors agree) before it is accepted.
//! Decisions must carry `seq` 1, 2, 3, … in file order (snapshots sit
//! between them without breaking the count, and replayed decisions are
//! never re-journaled); the first decision out of sequence — a dropped,
//! duplicated, or reordered line — is [`JournalError::Malformed`] at
//! that line rather than a divergence deep inside the replay.

use crate::arena::{BandLedger, ShardedReadySet, NUM_BANDS};
use crate::faults::{FaultKind, FaultPlan, ResilienceReport};
use crate::fnv::Fnv;
use crate::online::{
    AdmissionConfig, Decision, EngineState, IdIndex, JobEntry, JobState, OnlineOutcome, PendingJob,
};
use crate::schedule::Schedule;
use crate::slice::Slice;
use pas_workload::io::{push_hex16, push_u64, Cursor};
use pas_workload::Job;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Journal format version; bumped on any incompatible record change.
/// v2: snapshots encode the sharded-arena ready state (stable slots,
/// free list, band ledger) instead of the dense AoS job vector.
pub const JOURNAL_VERSION: u64 = 2;

/// Failures while writing, parsing, or applying a journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// An I/O failure on the journal file (message of the OS error).
    Io {
        /// Rendered OS error.
        message: String,
    },
    /// A record line failed to parse (torn tails are *not* errors; this
    /// is for structurally bad interior records).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The journal's header does not match the scenario being restored
    /// (different instance, fault plan, or format version).
    ScenarioMismatch {
        /// What differed.
        message: String,
    },
    /// The journal has no usable header record.
    MissingHeader,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { message } => write!(f, "journal I/O error: {message}"),
            JournalError::Malformed { line, message } => {
                write!(f, "malformed journal record at line {line}: {message}")
            }
            JournalError::ScenarioMismatch { message } => {
                write!(f, "journal does not match this scenario: {message}")
            }
            JournalError::MissingHeader => write!(f, "journal has no header record"),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(e: std::io::Error) -> JournalError {
    JournalError::Io {
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------
// The line codec: every value a journal line holds, written by `put`
// and read back by `take`, which accepts exactly those bytes.

/// Largest count or sequence number a line may carry (2^53, the JSON
/// integer range the journal has always been written in).
const MAX_COUNT: u64 = 1 << 53;

trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(c: &mut Cursor) -> Option<Self>;
}

/// Append `key` (the separator and quoted name) and `x`.
fn put<T: Field>(out: &mut Vec<u8>, key: &[u8], x: &T) {
    out.extend_from_slice(key);
    x.put(out);
}

/// Read `key` and the value after it.
fn take<T: Field>(c: &mut Cursor, key: &[u8]) -> Option<T> {
    c.tag(key)?;
    T::take(c)
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        push_u64(out, *self);
    }
    fn take(c: &mut Cursor) -> Option<u64> {
        c.u64_dec(MAX_COUNT)
    }
}

impl Field for usize {
    fn put(&self, out: &mut Vec<u8>) {
        push_u64(out, *self as u64);
    }
    fn take(c: &mut Cursor) -> Option<usize> {
        usize::try_from(u64::take(c)?).ok()
    }
}

/// A job id.
impl Field for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        push_u64(out, u64::from(*self));
    }
    fn take(c: &mut Cursor) -> Option<u32> {
        u32::try_from(c.u64_dec(u32::MAX.into())?).ok()
    }
}

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
    fn take(c: &mut Cursor) -> Option<bool> {
        c.tag(b"true")
            .map(|()| true)
            .or_else(|| c.tag(b"false").map(|()| false))
    }
}

/// The quoted 16-hex-digit IEEE-754 bit pattern: exact for every value.
impl Field for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(b'"');
        push_hex16(out, self.to_bits());
        out.push(b'"');
    }
    fn take(c: &mut Cursor) -> Option<f64> {
        c.tag(b"\"")?;
        let bits = c.hex16()?;
        c.tag(b"\"")?;
        Some(f64::from_bits(bits))
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(x) => x.put(out),
            None => out.extend_from_slice(b"null"),
        }
    }
    fn take(c: &mut Cursor) -> Option<Option<T>> {
        c.tag(b"null")
            .map(|()| None)
            .or_else(|| T::take(c).map(Some))
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            x.put(out);
        }
        out.push(b']');
    }
    fn take(c: &mut Cursor) -> Option<Vec<T>> {
        c.tag(b"[")?;
        let mut xs = Vec::new();
        while c.tag(b"]").is_none() {
            if !xs.is_empty() {
                c.tag(b",")?;
            }
            xs.push(T::take(c)?);
        }
        Some(xs)
    }
}

/// `[a,b]`.
impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        put(out, b"[", &self.0);
        put(out, b",", &self.1);
        out.push(b']');
    }
    fn take(c: &mut Cursor) -> Option<(A, B)> {
        let pair = (take(c, b"[")?, take(c, b",")?);
        c.tag(b"]")?;
        Some(pair)
    }
}

/// `Field` for a struct written as its fields in the listed order, each
/// after its key (the separator, and for an object the quoted name),
/// then `$close`. One list drives both directions, so the encoder and
/// decoder cannot disagree on a key or its place.
macro_rules! fields {
    ($ty:ident { $($field:ident: $key:literal),+ $(,)? } $close:literal) => {
        impl Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(put(out, $key, &self.$field);)+
                out.extend_from_slice($close);
            }
            fn take(c: &mut Cursor) -> Option<$ty> {
                // Struct fields are evaluated in the order written.
                let x = $ty { $($field: take(c, $key)?),+ };
                c.tag($close)?;
                Some(x)
            }
        }
    };
}

// `[job,start,end,speed]`.
fields!(Slice { job: b"[", start: b",", end: b",", speed: b"," } b"]");

// Bare `id,release,work,remaining`: a ready job is only ever written as
// the tail of its live slot's `[slot,id,release,work,remaining]` pair.
fields!(PendingJob { id: b"", release: b",", work: b",", remaining: b"," } b"");

fields!(ResilienceReport {
    crashes: b"{\"cr\":",
    downtime: b",\"dt\":",
    lost_work: b",\"lw\":",
    cancelled_jobs: b",\"cj\":",
    cancelled_work: b",\"cw\":",
    wasted_energy: b",\"we\":",
    throttle_clamps: b",\"tc\":",
    burst_jobs: b",\"bj\":",
    shed_jobs: b",\"sj\":",
    shed_work: b",\"sw\":",
    recovery_latencies: b",\"rl\":",
    deadline_misses: b",\"dm\":",
} b"}");

// ---------------------------------------------------------------------
// Scenario and outcome digests (FNV-1a).

/// Digest of the serving scenario (materialized arrivals, fault plan,
/// admission config), stored in the journal header so a restore against
/// the wrong instance, plan, or admission policy fails loudly instead
/// of replaying garbage.
pub(crate) fn scenario_digest(
    arrivals: &[Job],
    plan: &FaultPlan,
    admission: Option<&AdmissionConfig>,
) -> u64 {
    let mut h = Fnv::new();
    h.u64(arrivals.len() as u64);
    for j in arrivals {
        h.u64(u64::from(j.id));
        h.f64(j.release);
        h.f64(j.work);
    }
    h.u64(plan.len() as u64);
    for ev in plan.events() {
        h.f64(ev.at);
        match &ev.kind {
            FaultKind::Crash {
                duration,
                semantics,
            } => {
                h.u64(1);
                h.f64(*duration);
                h.u64(matches!(semantics, crate::faults::CrashSemantics::Checkpointed) as u64);
            }
            FaultKind::CancelJob { job } => {
                h.u64(2);
                h.u64(u64::from(*job));
            }
            FaultKind::Throttle { duration, cap } => {
                h.u64(3);
                h.f64(*duration);
                h.f64(*cap);
            }
            FaultKind::ArrivalBurst { jobs } => {
                h.u64(4);
                h.u64(jobs.len() as u64);
                for b in jobs {
                    h.f64(b.offset);
                    h.f64(b.work);
                }
            }
        }
    }
    match plan.slo() {
        Some(slo) => {
            h.u64(1);
            h.f64(slo);
        }
        None => h.u64(0),
    }
    match admission {
        Some(ac) => {
            h.u64(1);
            h.u64(ac.capacity as u64);
            match ac.shed {
                crate::online::ShedPolicy::RejectNewest => h.u64(1),
                crate::online::ShedPolicy::EvictOldest => h.u64(2),
                crate::online::ShedPolicy::DeadlineAware { slo, service_rate } => {
                    h.u64(3);
                    h.f64(slo);
                    h.f64(service_rate);
                }
            }
        }
        None => h.u64(0),
    }
    h.finish()
}

/// Bitwise digest of an [`OnlineOutcome`]: every schedule slice, the
/// energy total, and the full resilience report. Two outcomes with the
/// same digest are bit-identical in everything the serving layer
/// promises to reproduce; the kill-and-restore CI job diffs this.
pub fn outcome_digest(outcome: &OnlineOutcome) -> u64 {
    let mut h = Fnv::new();
    h.u64(outcome.schedule.machine_count() as u64);
    for lane in outcome.schedule.machines() {
        h.u64(lane.len() as u64);
        for s in lane {
            h.u64(u64::from(s.job));
            h.f64(s.start);
            h.f64(s.end);
            h.f64(s.speed);
        }
    }
    h.f64(outcome.energy);
    let r = &outcome.resilience;
    h.u64(r.crashes as u64);
    h.f64(r.downtime);
    h.f64(r.lost_work);
    h.u64(r.cancelled_jobs as u64);
    h.f64(r.cancelled_work);
    h.f64(r.wasted_energy);
    h.u64(r.throttle_clamps as u64);
    h.u64(r.burst_jobs as u64);
    h.u64(r.shed_jobs as u64);
    h.f64(r.shed_work);
    h.u64(r.recovery_latencies.len() as u64);
    for &l in &r.recovery_latencies {
        h.f64(l);
    }
    match r.deadline_misses {
        Some(m) => {
            h.u64(1);
            h.u64(m as u64);
        }
        None => h.u64(0),
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Records.

/// One journaled policy consultation: the decision the engine applied.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DecisionRecord {
    /// Consultation sequence number (1-based, monotone).
    pub seq: u64,
    /// The applied decision (`None` = idle).
    pub decision: Option<Decision>,
    /// Whether the wrapped policy was actually consulted (false once
    /// the watchdog breaker is open); replay only evolves the policy's
    /// state when it was.
    pub consulted: bool,
    /// Whether this consultation tripped the watchdog (wall-clock
    /// nondeterminism is journaled, never re-measured).
    pub tripped: bool,
}

/// A parsed journal record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Record {
    /// Scenario header (first record of every journal).
    Header {
        /// Format version.
        version: u64,
        /// Materialized arrival count.
        n: u64,
        /// Fault-plan event count.
        events: u64,
        /// [`scenario_digest`] of the inputs.
        digest: u64,
    },
    /// A policy consultation.
    Decision(DecisionRecord),
    /// A full engine checkpoint.
    Snapshot(Box<Snapshot>),
}

// ---------------------------------------------------------------------
// Snapshots.

/// A complete, bit-exact checkpoint of the serving engine between two
/// steps, plus the serving-layer cursors (sequence number, watchdog
/// state, optional policy state).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Snapshot {
    pub next_arrival: u64,
    pub finished: u64,
    pub i_fault: u64,
    pub budget: u64,
    pub in_downtime: bool,
    pub now: f64,
    pub energy: f64,
    pub down_until: f64,
    pub down_since: f64,
    pub erased_this_down: f64,
    pub pending_recoveries: Vec<(f64, f64)>,
    pub throttles: Vec<(f64, f64)>,
    /// Arena extent: total slots (live + vacant).
    pub ready_slot_count: u64,
    /// Live slots as `(slot, job)` in slot order. Vacant cell contents
    /// are unobservable and not captured.
    pub ready_slots: Vec<(u64, PendingJob)>,
    /// Free list in stack order (the tail is popped first); decides
    /// which slot the next admit reuses, so it must be exact.
    pub ready_free: Vec<u64>,
    pub ready_queue: Vec<u32>,
    pub ready_backlog: f64,
    pub ready_seen_work: f64,
    pub ready_first_arrival: Option<f64>,
    /// Band-shard ledger: origin, width, and the per-band running sums
    /// (persisted bitwise, never recomputed).
    pub band_origin: f64,
    pub band_width: f64,
    pub band_live: Vec<u64>,
    pub band_remaining: Vec<f64>,
    pub band_arrived: Vec<f64>,
    pub energy_by_job: Vec<(u32, f64)>,
    pub cancelled_pre: Vec<u32>,
    pub cancelled_all: Vec<u32>,
    pub shed: Vec<u32>,
    pub slices: Vec<Slice>,
    pub report: ResilienceReport,
    /// Consultation count at capture time (replay resumes after it).
    pub seq: u64,
    pub watchdog_trips: u64,
    pub breaker_open: bool,
    /// Policy-internal state from
    /// [`OnlinePolicy::save_state`](crate::online::OnlinePolicy::save_state);
    /// `None` makes the snapshot unusable as a restore base (genesis
    /// replay is used instead).
    pub policy_state: Option<Vec<f64>>,
}

impl Snapshot {
    /// Capture the engine plus serving-layer cursors. The per-job
    /// lists (metered energy, cancellations, sheds) are read off the
    /// engine's table and emitted sorted by id, and the ready queue's
    /// arrival indices are written as ids, so the snapshot names jobs
    /// the way the journal's readers do.
    pub(crate) fn capture(
        engine: &EngineState,
        seq: u64,
        watchdog_trips: u64,
        breaker_open: bool,
        policy_state: Option<Vec<f64>>,
    ) -> Snapshot {
        let mut energy_by_job: Vec<(u32, f64)> = Vec::new();
        let (mut cancelled_pre, mut cancelled_all, mut shed) = (Vec::new(), Vec::new(), Vec::new());
        for (j, e) in engine.arrivals.iter().zip(&engine.table) {
            if let Some(energy) = e.energy {
                energy_by_job.push((j.id, energy));
            }
            match e.state {
                JobState::Cancelled { admitted } => {
                    if !admitted {
                        cancelled_pre.push(j.id);
                    }
                    cancelled_all.push(j.id);
                }
                JobState::Shed => shed.push(j.id),
                _ => {}
            }
        }
        energy_by_job.sort_unstable_by_key(|&(id, _)| id);
        for ids in [&mut cancelled_pre, &mut cancelled_all, &mut shed] {
            ids.sort_unstable();
        }
        let (slot_count, live, free, queue, backlog, seen_work, first_arrival) =
            engine.ready.snapshot_parts();
        let bands = engine.ready.bands();
        Snapshot {
            next_arrival: engine.next_arrival as u64,
            finished: engine.finished as u64,
            i_fault: engine.i_fault as u64,
            budget: engine.budget as u64,
            in_downtime: engine.in_downtime,
            now: engine.now,
            energy: engine.energy,
            down_until: engine.down_until,
            down_since: engine.down_since,
            erased_this_down: engine.erased_this_down,
            pending_recoveries: engine.pending_recoveries.iter().copied().collect(),
            throttles: engine.throttles.clone(),
            ready_slot_count: slot_count as u64,
            ready_slots: live.into_iter().map(|(s, j)| (s as u64, j)).collect(),
            ready_free: free.iter().map(|&s| s as u64).collect(),
            ready_queue: queue
                .iter()
                .map(|&k| engine.arrivals[k as usize].id)
                .collect(),
            ready_backlog: backlog,
            ready_seen_work: seen_work,
            ready_first_arrival: first_arrival,
            band_origin: bands.origin,
            band_width: bands.width,
            band_live: bands.live.clone(),
            band_remaining: bands.remaining.clone(),
            band_arrived: bands.arrived.clone(),
            energy_by_job,
            cancelled_pre,
            cancelled_all,
            shed,
            slices: engine.schedule.machine(0).to_vec(),
            report: engine.report.clone(),
            seq,
            watchdog_trips,
            breaker_open,
            policy_state,
        }
    }

    /// Rebuild the engine exactly as captured. `arrivals`, `plan`, and
    /// `admission` are the (re-materialized) immutable inputs.
    ///
    /// # Errors
    /// [`JournalError::ScenarioMismatch`] when the snapshot names a job
    /// id that `arrivals` does not hold, or counts more arrivals, ready
    /// slots or fault events than the scenario has.
    pub(crate) fn restore_engine(
        &self,
        arrivals: Vec<Job>,
        plan: &FaultPlan,
        admission: Option<AdmissionConfig>,
    ) -> Result<EngineState, JournalError> {
        let (n, events) = (arrivals.len() as u64, plan.len() as u64);
        let counts = [self.next_arrival, self.finished, self.ready_slot_count];
        if counts.iter().any(|&k| k > n) || self.i_fault > events {
            let message = format!(
                "snapshot (na, fin, rc) {counts:?} and if {} exceed the scenario's \
                 {n} arrivals and {events} fault events",
                self.i_fault
            );
            return Err(JournalError::ScenarioMismatch { message });
        }
        let ids = IdIndex::new(&arrivals);
        let index = |id: u32| {
            ids.get(id).ok_or_else(|| JournalError::ScenarioMismatch {
                message: format!("snapshot names unknown job {id}"),
            })
        };
        // Arrived jobs that are neither ready, cancelled nor shed have
        // completed; the rest are still pending.
        let next_arrival = self.next_arrival as usize;
        let mut table = vec![JobEntry::default(); arrivals.len()];
        for e in table.iter_mut().take(next_arrival) {
            e.state = JobState::Completed;
        }
        let mut live = Vec::with_capacity(self.ready_slots.len());
        for &(slot, job) in &self.ready_slots {
            let i = index(job.id)?;
            table[i].state = JobState::Live;
            live.push((slot as usize, i, job));
        }
        for (list, state) in [
            (&self.cancelled_all, JobState::Cancelled { admitted: true }),
            (&self.cancelled_pre, JobState::Cancelled { admitted: false }),
            (&self.shed, JobState::Shed),
        ] {
            for &id in list {
                table[index(id)?].state = state;
            }
        }
        for &(id, energy) in &self.energy_by_job {
            table[index(id)?].energy = Some(energy);
        }
        let queue = self
            .ready_queue
            .iter()
            .map(|&id| index(id).map(|i| i as u32))
            .collect::<Result<VecDeque<u32>, JournalError>>()?;
        let mut schedule = Schedule::single();
        for s in &self.slices {
            schedule.push(0, *s);
        }
        Ok(EngineState {
            n: arrivals.len(),
            ids,
            table,
            arrivals,
            events: plan.events().to_vec(),
            slo: plan.slo(),
            admission,
            report: self.report.clone(),
            next_arrival,
            ready: ShardedReadySet::restore(
                self.ready_slot_count as usize,
                live,
                self.ready_free.iter().map(|&s| s as usize).collect(),
                queue,
                self.ready_backlog,
                self.ready_seen_work,
                self.ready_first_arrival,
                BandLedger {
                    origin: self.band_origin,
                    width: self.band_width,
                    live: self.band_live.clone(),
                    remaining: self.band_remaining.clone(),
                    arrived: self.band_arrived.clone(),
                },
            ),
            finished: self.finished as usize,
            schedule,
            energy: self.energy,
            i_fault: self.i_fault as usize,
            in_downtime: self.in_downtime,
            down_until: self.down_until,
            down_since: self.down_since,
            erased_this_down: self.erased_this_down,
            pending_recoveries: self.pending_recoveries.iter().copied().collect(),
            throttles: self.throttles.clone(),
            now: self.now,
            budget: self.budget as usize,
        })
    }

    /// Check that the ready state agrees with itself: the live slots
    /// and the free list together use each slot below `rc` exactly
    /// once, every live job is in the queue, and each band vector has
    /// [`NUM_BANDS`] entries. [`restore_engine`](Snapshot::restore_engine)
    /// indexes by all of these.
    fn check(&self) -> Result<(), String> {
        let bands = [
            self.band_live.len(),
            self.band_remaining.len(),
            self.band_arrived.len(),
        ];
        if bands != [NUM_BANDS; 3] {
            return Err(format!(
                "band vectors of {bands:?} entries, not {NUM_BANDS}"
            ));
        }
        let slots = self.ready_slots.len() + self.ready_free.len();
        if slots as u64 != self.ready_slot_count {
            let rc = self.ready_slot_count;
            return Err(format!("{slots} live and free slots, but rc = {rc}"));
        }
        let mut used = vec![false; slots];
        let live = self.ready_slots.iter().map(|&(slot, _)| slot);
        for slot in live.chain(self.ready_free.iter().copied()) {
            match used.get_mut(slot as usize) {
                Some(u) if !*u => *u = true,
                _ => return Err(format!("slot {slot} is out of range or used twice")),
            }
        }
        let mut queued = self.ready_queue.clone();
        queued.sort_unstable();
        match self
            .ready_slots
            .iter()
            .find(|(_, p)| queued.binary_search(&p.id).is_err())
        {
            Some((_, p)) => Err(format!("live job {} is not in the ready queue", p.id)),
            None => Ok(()),
        }
    }
}

fields!(Snapshot {
    next_arrival: b"{\"na\":",
    finished: b",\"fin\":",
    i_fault: b",\"if\":",
    budget: b",\"bud\":",
    in_downtime: b",\"dn\":",
    now: b",\"now\":",
    energy: b",\"en\":",
    down_until: b",\"du\":",
    down_since: b",\"ds\":",
    erased_this_down: b",\"ed\":",
    pending_recoveries: b",\"pr\":",
    throttles: b",\"th\":",
    ready_slot_count: b",\"rc\":",
    ready_slots: b",\"rj\":",
    ready_free: b",\"fl\":",
    ready_queue: b",\"rq\":",
    ready_backlog: b",\"rb\":",
    ready_seen_work: b",\"rs\":",
    ready_first_arrival: b",\"rf\":",
    band_origin: b",\"bdo\":",
    band_width: b",\"bdw\":",
    band_live: b",\"bdl\":",
    band_remaining: b",\"bdr\":",
    band_arrived: b",\"bda\":",
    energy_by_job: b",\"ej\":",
    cancelled_pre: b",\"cp\":",
    cancelled_all: b",\"ca\":",
    shed: b",\"sh\":",
    slices: b",\"sl\":",
    report: b",\"rep\":",
    seq: b",\"seq\":",
    watchdog_trips: b",\"wt\":",
    breaker_open: b",\"bo\":",
    policy_state: b",\"ps\":",
} b"}");

// ---------------------------------------------------------------------
// The journal itself.

enum Sink {
    /// In-memory buffer (benchmarks, tests); contents retrievable.
    Memory(String),
    /// Line-buffered file, flushed per record so a `SIGKILL` loses at
    /// most the torn tail.
    File(std::io::BufWriter<std::fs::File>),
}

impl Sink {
    fn write_line(&mut self, line: &[u8]) -> Result<(), JournalError> {
        match self {
            Sink::Memory(s) => {
                s.push_str(std::str::from_utf8(line).expect("journal lines are ASCII"));
                s.push('\n');
            }
            Sink::File(w) => {
                w.write_all(line).map_err(io_err)?;
                w.write_all(b"\n").map_err(io_err)?;
                // Flush per record: a kill can tear at most one line.
                w.flush().map_err(io_err)?;
            }
        }
        Ok(())
    }
}

/// An append-only record sink: the serving layer's write-ahead log.
pub struct Journal {
    sink: Sink,
    records: u64,
    path: Option<PathBuf>,
    /// Reused line buffer every record is encoded into; it starts with
    /// room for any decision line (the per-step write).
    scratch: Vec<u8>,
}

impl Journal {
    fn with_sink(sink: Sink, path: Option<PathBuf>) -> Journal {
        Journal {
            sink,
            records: 0,
            path,
            scratch: Vec::with_capacity(256),
        }
    }

    /// An in-memory journal (no durability; for tests and benchmarks).
    pub fn memory() -> Journal {
        Journal::with_sink(Sink::Memory(String::new()), None)
    }

    /// Create (truncate) a journal file for a fresh serving run.
    ///
    /// # Errors
    /// [`JournalError::Io`] if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let file = std::fs::File::create(path.as_ref()).map_err(io_err)?;
        Ok(Journal::with_sink(
            Sink::File(std::io::BufWriter::new(file)),
            Some(path.as_ref().to_path_buf()),
        ))
    }

    /// Open an existing journal file for appending (the restore path:
    /// replayed history stays, new decisions extend it). A record is
    /// durable once its newline is written, so a torn tail — whatever
    /// follows the file's last newline — is cut off first, and the next
    /// record starts a line of its own.
    ///
    /// # Errors
    /// [`JournalError::Io`] if the file cannot be opened, read or cut.
    pub fn append(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let bytes = std::fs::read(path.as_ref()).map_err(io_err)?;
        let durable = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |at| at + 1);
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path.as_ref())
            .map_err(io_err)?;
        file.set_len(durable as u64).map_err(io_err)?;
        Ok(Journal::with_sink(
            Sink::File(std::io::BufWriter::new(file)),
            Some(path.as_ref().to_path_buf()),
        ))
    }

    /// Records written through *this* handle (not pre-existing ones).
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// The file path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The accumulated contents, when memory-backed.
    pub fn contents(&self) -> Option<&str> {
        match &self.sink {
            Sink::Memory(s) => Some(s),
            Sink::File(_) => None,
        }
    }

    /// Encode one record into the reused line buffer and write it.
    fn write_record(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), JournalError> {
        self.scratch.clear();
        encode(&mut self.scratch);
        self.sink.write_line(&self.scratch)?;
        self.records += 1;
        Ok(())
    }

    pub(crate) fn write_header(
        &mut self,
        n: usize,
        events: usize,
        digest: u64,
    ) -> Result<(), JournalError> {
        self.write_record(|out| {
            encode_header(out, JOURNAL_VERSION, n as u64, events as u64, digest)
        })
    }

    pub(crate) fn write_decision(&mut self, rec: &DecisionRecord) -> Result<(), JournalError> {
        self.write_record(|out| encode_decision(out, rec))
    }

    pub(crate) fn write_snapshot(&mut self, snap: &Snapshot) -> Result<(), JournalError> {
        self.write_record(|out| encode_snapshot(out, snap))
    }
}

// ---------------------------------------------------------------------
// Journal lines. Each `encode_*` writes one line kind (no newline) and
// `decode_line` reads back exactly those bytes and nothing else, so
// every decoded value round-trips bit for bit.

fn encode_header(out: &mut Vec<u8>, version: u64, n: u64, events: u64, digest: u64) {
    put(out, b"{\"t\":\"hdr\",\"v\":", &version);
    put(out, b",\"n\":", &n);
    put(out, b",\"ev\":", &events);
    out.extend_from_slice(b",\"dig\":\"");
    push_hex16(out, digest);
    out.extend_from_slice(b"\"}");
}

fn encode_decision(out: &mut Vec<u8>, rec: &DecisionRecord) {
    put(out, b"{\"t\":\"dec\",\"s\":", &rec.seq);
    put(out, b",\"c\":", &rec.consulted);
    put(out, b",\"w\":", &rec.tripped);
    match &rec.decision {
        Some(d) => {
            put(out, b",\"j\":", &d.job);
            put(out, b",\"v\":", &d.speed);
            if let Some(r) = &d.recheck_after {
                put(out, b",\"r\":", r);
            }
        }
        None => out.extend_from_slice(b",\"j\":null"),
    }
    out.push(b'}');
}

/// The snapshot's `seq` is written twice: in the line and in the state.
fn encode_snapshot(out: &mut Vec<u8>, snap: &Snapshot) {
    put(out, b"{\"t\":\"snap\",\"s\":", &snap.seq);
    put(out, b",\"st\":", snap);
    out.push(b'}');
}

/// Decode one line an `encode_*` function wrote; anything else is an
/// error naming the byte where reading stopped, and a snapshot must
/// also pass [`Snapshot::check`].
fn decode_line(line: &[u8]) -> Result<Record, String> {
    let mut c = Cursor::new(line);
    match decode_record(&mut c) {
        Some(Record::Snapshot(snap)) => snap.check().map(|()| Record::Snapshot(snap)),
        Some(rec) => Ok(rec),
        None => Err(format!(
            "not a line the journal writes (read to byte {} of {})",
            line.len() - c.rest().len(),
            line.len()
        )),
    }
}

fn decode_record(c: &mut Cursor) -> Option<Record> {
    let rec = if c.tag(b"{\"t\":\"dec\",\"s\":").is_some() {
        Record::Decision(decode_decision(c)?)
    } else if c.tag(b"{\"t\":\"hdr\",\"v\":").is_some() {
        let (version, n, events) = (u64::take(c)?, take(c, b",\"n\":")?, take(c, b",\"ev\":")?);
        c.tag(b",\"dig\":\"")?;
        let digest = c.hex16()?;
        c.tag(b"\"}")?;
        Record::Header {
            version,
            n,
            events,
            digest,
        }
    } else {
        let seq: u64 = take(c, b"{\"t\":\"snap\",\"s\":")?;
        let snap: Snapshot = take(c, b",\"st\":")?;
        c.tag(b"}")?;
        (snap.seq == seq).then_some(())?;
        Record::Snapshot(Box::new(snap))
    };
    c.end()?;
    Some(rec)
}

/// The rest of a decision line, after its `{"t":"dec","s":` prefix.
fn decode_decision(c: &mut Cursor) -> Option<DecisionRecord> {
    let seq = u64::take(c)?;
    let consulted = take(c, b",\"c\":")?;
    let tripped = take(c, b",\"w\":")?;
    let decision = match c.tag(b",\"j\":null") {
        Some(()) => None,
        None => Some(Decision {
            job: take(c, b",\"j\":")?,
            speed: take(c, b",\"v\":")?,
            recheck_after: match c.tag(b",\"r\":") {
                Some(()) => Some(f64::take(c)?),
                None => None,
            },
        }),
    };
    c.tag(b"}")?;
    Some(DecisionRecord {
        seq,
        decision,
        consulted,
        tripped,
    })
}

/// Parse a journal's records. Only newline-terminated lines are
/// records: an unterminated final line is a torn tail (normal after a
/// `SIGKILL`) and is dropped. A terminated line outside the writer's
/// grammar, an inconsistent snapshot, or a decision whose `seq` breaks
/// the 1, 2, 3, … file order is [`JournalError::Malformed`].
pub(crate) fn read_records(text: &str) -> Result<Vec<Record>, JournalError> {
    let durable = text.rfind('\n').map_or("", |end| &text[..=end]);
    let mut out = Vec::new();
    let mut next_seq = 1;
    for (i, line) in durable.split_terminator('\n').enumerate() {
        let malformed = |message| JournalError::Malformed {
            line: i + 1,
            message,
        };
        let rec = decode_line(line.as_bytes()).map_err(malformed)?;
        if let Record::Decision(d) = &rec {
            if d.seq != next_seq {
                let expected = format!("decision seq {}, expected {next_seq}", d.seq);
                return Err(malformed(expected));
            }
            next_seq += 1;
        }
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::ShedPolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn decision_records_round_trip() {
        let recs = vec![
            DecisionRecord {
                seq: 1,
                decision: Some(Decision {
                    job: 7,
                    speed: 1.25,
                    recheck_after: Some(0.5),
                }),
                consulted: true,
                tripped: false,
            },
            DecisionRecord {
                seq: 2,
                decision: None,
                consulted: true,
                tripped: true,
            },
            DecisionRecord {
                seq: 3,
                decision: Some(Decision {
                    job: 0,
                    speed: 1e-9,
                    recheck_after: None,
                }),
                consulted: false,
                tripped: false,
            },
        ];
        let mut j = Journal::memory();
        j.write_header(10, 2, 0xdead_beef).unwrap();
        for r in &recs {
            j.write_decision(r).unwrap();
        }
        let parsed = read_records(j.contents().unwrap()).unwrap();
        assert_eq!(parsed.len(), 4);
        assert_eq!(
            parsed[0],
            Record::Header {
                version: JOURNAL_VERSION,
                n: 10,
                events: 2,
                digest: 0xdead_beef,
            }
        );
        for (rec, want) in parsed[1..].iter().zip(&recs) {
            assert_eq!(rec, &Record::Decision(want.clone()));
        }
    }

    #[test]
    fn torn_tail_is_dropped_interior_corruption_is_an_error() {
        let mut j = Journal::memory();
        j.write_header(1, 0, 1).unwrap();
        j.write_decision(&DecisionRecord {
            seq: 1,
            decision: None,
            consulted: true,
            tripped: false,
        })
        .unwrap();
        let good = j.contents().unwrap().to_string();
        // Torn tail: final line cut mid-record.
        let torn = format!("{good}{{\"t\":\"dec\",\"s\":2,");
        let recs = read_records(&torn).unwrap();
        assert_eq!(recs.len(), 2);
        // A final line without its newline is not durable, however
        // complete it looks.
        assert_eq!(read_records(good.trim_end()).unwrap(), recs[..1]);
        // Interior corruption is not silently skipped.
        let corrupt = format!("not json\n{good}");
        assert!(matches!(
            read_records(&corrupt),
            Err(JournalError::Malformed { line: 1, .. })
        ));
        // Nor is a terminated final line outside the grammar, or a
        // blank one (the writer writes neither).
        for bad in [format!("{good}not json\n"), format!("{good}\n")] {
            assert!(matches!(
                read_records(&bad),
                Err(JournalError::Malformed { line: 3, .. })
            ));
        }
    }

    fn dec(seq: u64, decision: Option<Decision>) -> DecisionRecord {
        DecisionRecord {
            seq,
            decision,
            consulted: true,
            tripped: false,
        }
    }

    /// The line the journal writes for `rec`.
    fn encoded(rec: &Record) -> String {
        let mut out = Vec::new();
        match rec {
            &Record::Header {
                version,
                n,
                events,
                digest,
            } => encode_header(&mut out, version, n, events, digest),
            Record::Decision(d) => encode_decision(&mut out, d),
            Record::Snapshot(s) => encode_snapshot(&mut out, s),
        }
        String::from_utf8(out).unwrap()
    }

    fn encoded_decision(rec: &DecisionRecord) -> String {
        encoded(&Record::Decision(rec.clone()))
    }

    #[test]
    fn encoder_writes_the_golden_lines() {
        let null = dec(1, None);
        let plain = DecisionRecord {
            consulted: false,
            tripped: true,
            ..dec(
                22,
                Some(Decision {
                    job: 7,
                    speed: 1.25,
                    recheck_after: None,
                }),
            )
        };
        let recheck = dec(
            333,
            Some(Decision {
                job: 0,
                speed: 0.1,
                recheck_after: Some(f64::NEG_INFINITY),
            }),
        );
        let golden = [
            (&null, r#"{"t":"dec","s":1,"c":true,"w":false,"j":null}"#),
            (
                &plain,
                r#"{"t":"dec","s":22,"c":false,"w":true,"j":7,"v":"3ff4000000000000"}"#,
            ),
            (
                &recheck,
                r#"{"t":"dec","s":333,"c":true,"w":false,"j":0,"v":"3fb999999999999a","r":"fff0000000000000"}"#,
            ),
        ];
        let mut j = Journal::memory();
        for (rec, line) in golden {
            assert_eq!(encoded_decision(rec), line);
            assert_eq!(
                decode_line(line.as_bytes()),
                Ok(Record::Decision(rec.clone()))
            );
            j.write_decision(rec).unwrap();
        }
        let want: String = golden.iter().map(|(_, l)| format!("{l}\n")).collect();
        assert_eq!(j.contents().unwrap(), want);
        assert_eq!(j.records_written(), 3);
    }

    /// A record drawn to hit the codec's edges: signed zeros, infinities,
    /// NaN payloads, subnormals, `seq` up to 2^53, `job` up to `u32::MAX`.
    fn random_record(rng: &mut StdRng) -> DecisionRecord {
        let f = |rng: &mut StdRng| match rng.next_u64() % 8 {
            0 => -0.0,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => f64::from_bits(0x7ff0_0000_0000_0000 | (rng.next_u64() >> 12).max(1)),
            4 => f64::from_bits(rng.next_u64() >> 12), // subnormal
            5 => rng.gen_f64() * 4.0,
            _ => f64::from_bits(rng.next_u64()),
        };
        let seq = match rng.next_u64() % 4 {
            0 => 1 << 53,
            1 => rng.next_u64() % 10,
            _ => rng.next_u64() % ((1 << 53) + 1),
        };
        let job = match rng.next_u64() % 3 {
            0 => u32::MAX,
            _ => rng.next_u64() as u32 >> (rng.next_u64() % 32),
        };
        let decision = match rng.next_u64() % 3 {
            0 => None,
            1 => Some(Decision {
                job,
                speed: f(rng),
                recheck_after: None,
            }),
            _ => Some(Decision {
                job,
                speed: f(rng),
                recheck_after: Some(f(rng)),
            }),
        };
        DecisionRecord {
            seq,
            decision,
            consulted: rng.gen_bool(0.5),
            tripped: rng.gen_bool(0.5),
        }
    }

    /// Bitwise equality (`PartialEq` on f64 is not: NaN != NaN, 0 == -0).
    fn same_bits(a: &DecisionRecord, b: &DecisionRecord) -> bool {
        let bits = |d: &Option<Decision>| {
            d.map(|d| (d.job, d.speed.to_bits(), d.recheck_after.map(f64::to_bits)))
        };
        (a.seq, a.consulted, a.tripped, bits(&a.decision))
            == (b.seq, b.consulted, b.tripped, bits(&b.decision))
    }

    /// The codec is canonical on `line`: it is rejected, or it decodes to
    /// a record whose encoding is `line` again. Returns whether it was
    /// accepted.
    fn canonical(line: &str) -> bool {
        match decode_line(line.as_bytes()) {
            Ok(rec) => {
                assert_eq!(encoded(&rec), line, "decoded to {rec:?}");
                true
            }
            Err(_) => false,
        }
    }

    /// `canonical` on every byte prefix of `line` and on single-byte
    /// ASCII mutations of it: every byte value at a `1 / stride` sample
    /// of positions, and the digits at every other position. Returns
    /// the number of mutants accepted.
    fn mutants_are_canonical(line: &str, stride: usize, rng: &mut StdRng) -> usize {
        for k in 0..line.len() {
            assert!(!canonical(&line[..k]), "accepted a prefix of {line}");
        }
        let mut accepted = 0;
        for at in 0..line.len() {
            let every = rng.next_u64().is_multiple_of(stride as u64);
            let bytes: Vec<u8> = if every {
                (0u8..128).collect()
            } else {
                (b'0'..=b'9').collect()
            };
            for b in bytes {
                let mut m = line.as_bytes().to_vec();
                m[at] = b;
                accepted += usize::from(canonical(&String::from_utf8(m).unwrap()));
            }
        }
        accepted
    }

    #[test]
    fn random_decisions_round_trip_and_every_mutant_is_canonical() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..20_000 {
            let rec = random_record(&mut rng);
            let line = encoded_decision(&rec);
            match decode_line(line.as_bytes()) {
                Ok(Record::Decision(back)) => assert!(same_bits(&back, &rec), "{line}"),
                other => panic!("`{line}` decoded to {other:?}"),
            }
        }
        let mut accepted = 0;
        for case in 0..120 {
            let line = encoded_decision(&random_record(&mut rng));
            accepted += mutants_are_canonical(&line, if case < 12 { 1 } else { 4 }, &mut rng);
        }
        // Digit flips in `s`, `j`, and the hex fields stay well-formed:
        // the re-encoding check really ran on accepted mutants.
        assert!(accepted > 1000, "{accepted}");
    }

    #[test]
    fn headers_and_served_snapshots_round_trip_and_every_mutant_is_canonical() {
        let mut rng = StdRng::seed_from_u64(0xbad);
        for (n, events, digest) in [(0, 0, 0), (10, 2, 0xdead_beef), (1 << 53, 7, u64::MAX)] {
            let header = Record::Header {
                version: JOURNAL_VERSION,
                n,
                events,
                digest,
            };
            let line = encoded(&header);
            assert_eq!(decode_line(line.as_bytes()), Ok(header));
            assert!(mutants_are_canonical(&line, 1, &mut rng) > 100);
        }
        // The first snapshot with live jobs of a short run under each
        // admission policy; gated runs also cancel a job before it
        // arrives.
        for shed in [
            None,
            Some(ShedPolicy::RejectNewest),
            Some(ShedPolicy::EvictOldest),
            Some(ShedPolicy::DeadlineAware {
                slo: 2.0,
                service_rate: 1.0,
            }),
        ] {
            let (text, _) = served_journal_and_digest(12, shed);
            let line = text
                .lines()
                .find(|l| l.starts_with(r#"{"t":"snap""#) && l.contains(r#""rj":[["#))
                .expect("a snapshot with live jobs");
            assert!(canonical(line), "{line}");
            assert!(mutants_are_canonical(line, 32, &mut rng) > 100, "{shed:?}");
        }
    }

    #[test]
    fn lines_outside_the_writer_grammar_are_rejected() {
        for line in [
            r#"{"t":"dec","s":01,"c":true,"w":false,"j":null}"#,
            r#"{"t":"dec","s":1,"c":true,"w":false,"j":null} "#,
            r#"{"t":"dec", "s":1,"c":true,"w":false,"j":null}"#,
            r#"{"s":1,"t":"dec","c":true,"w":false,"j":null}"#,
            r#"{"t":"dec","s":9007199254740993,"c":true,"w":false,"j":null}"#,
            r#"{"t":"dec","s":1,"c":true,"w":false,"j":4294967296,"v":"3ff0000000000000"}"#,
            r#"{"t":"dec","s":1,"c":true,"w":false,"j":1,"v":"3FF0000000000000"}"#,
            r#"{"t":"dec","s":1,"c":true,"w":false,"j":1,"v":"+ff0000000000000"}"#,
            r#"{"t":"dec","s":1,"c":true,"w":false,"j":null,"v":"3ff0000000000000"}"#,
            "{\"t\":\"dec\",\"s\":1,\"c\":true,\"w\":false,\"j\":null}\r",
            r#"{"t":"hdr","s":1,"c":true,"w":false,"j":null}"#,
            r#"{"t":"hdr","v":2,"n":1,"ev":0,"dig":"0000000000000001","x":1}"#,
            r#"{"t":"hdr", "v":2,"n":1,"ev":0,"dig":"0000000000000001"}"#,
            r#"{"t":"snap","s":0,"st":{}}"#,
            "",
        ] {
            assert!(decode_line(line.as_bytes()).is_err(), "{line}");
        }
    }

    #[test]
    fn a_job_id_past_u32_is_malformed() {
        // Once read as job 0 by a JSON fallback that truncated it.
        let mut j = Journal::memory();
        j.write_header(1, 0, 1).unwrap();
        let good = j.contents().unwrap().to_string();
        let wide = r#"{"t":"dec","s":1,"c":true,"w":false,"j":4294967296,"v":"3ff0000000000000"}"#;
        let tail = encoded_decision(&dec(2, None));
        assert!(matches!(
            read_records(&format!("{good}{wide}\n{tail}\n")),
            Err(JournalError::Malformed { line: 2, .. })
        ));
        // So is a snapshot naming one; `u32::MAX` itself still reads.
        let text = served_journal();
        let line = text.lines().find(|l| l.contains(r#""rq":["#)).unwrap();
        let with = |id: u64| line.replacen(r#""rq":["#, &format!(r#""rq":[{id},"#), 1);
        assert!(decode_line(with(u32::MAX.into()).as_bytes()).is_ok());
        assert!(decode_line(with(1 << 32).as_bytes()).is_err());
    }

    #[test]
    fn an_old_version_header_is_a_scenario_mismatch() {
        use crate::online::OnlinePolicy;
        use crate::serve::{ServeConfig, Server};
        let (text, _) = served_journal_and_digest(12, None);
        let old = text.replacen(r#"{"t":"hdr","v":2,"#, r#"{"t":"hdr","v":1,"#, 1);
        assert!(matches!(
            read_records(&old).unwrap()[0],
            Record::Header { version: 1, .. }
        ));
        struct Idle;
        impl OnlinePolicy for Idle {
            fn decide(
                &mut self,
                _: f64,
                _: &dyn crate::online::ReadyView,
                _: f64,
            ) -> Option<Decision> {
                None
            }
        }
        let instance = pas_workload::generators::poisson(12, 0.8, (0.5, 1.5), 7);
        let err = Server::restore(
            &instance,
            &pas_power::PolyPower::CUBE,
            &FaultPlan::none(),
            ServeConfig::default(),
            &old,
            Journal::memory(),
            &mut Idle,
        )
        .err()
        .expect("an old version does not restore");
        let source = std::error::Error::source(&err).and_then(|e| e.downcast_ref::<JournalError>());
        assert!(
            matches!(source, Some(JournalError::ScenarioMismatch { .. })),
            "{err}"
        );
    }

    /// A real journal: header, decisions of all three shapes, and
    /// snapshots, from a small faulted serving run of `n` jobs, with its
    /// outcome digest. With `shed` it is served behind a 3-slot queue
    /// that sheds so, and the last job is cancelled before it arrives.
    fn served_journal_and_digest(n: usize, shed: Option<ShedPolicy>) -> (String, u64) {
        use crate::faults::{FaultEvent, FaultModel};
        use crate::online::{OnlinePolicy, ReadyView};
        use crate::serve::{ServeConfig, Server};
        use pas_workload::generators;

        struct Probe;
        impl OnlinePolicy for Probe {
            fn decide(&mut self, _: f64, ready: &dyn ReadyView, _: f64) -> Option<Decision> {
                ready.first().map(|p| Decision {
                    job: p.id,
                    speed: 0.75 + 0.5 * p.remaining,
                    recheck_after: (p.id % 2 == 0).then_some(0.25),
                })
            }
            fn save_state(&self) -> Option<Vec<f64>> {
                Some(vec![1.5, -0.0])
            }
            fn load_state(&mut self, _: &[f64]) -> bool {
                true
            }
        }

        let instance = generators::poisson(n, 0.8, (0.5, 1.5), 7);
        let horizon = instance.last_release() + instance.total_work();
        let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
        let mut plan = FaultModel::uniform_mix(8.0 / horizon).sample(horizon, &ids, 7);
        if shed.is_some() {
            // The sampled plan cancels no job before it arrives.
            let last = *instance.jobs().last().unwrap();
            let mut events = plan.events().to_vec();
            events.push(FaultEvent {
                at: last.release / 2.0,
                kind: FaultKind::CancelJob { job: last.id },
            });
            plan = FaultPlan::new(events).unwrap();
        }
        let config = ServeConfig {
            snapshot_every: Some(16),
            watchdog: None,
            admission: shed.map(|shed| AdmissionConfig { capacity: 3, shed }),
            ..ServeConfig::default()
        };
        let model = pas_power::PolyPower::CUBE;
        let mut server = Server::new(&instance, &model, &plan, config, Journal::memory()).unwrap();
        while !server.run_for(&mut Probe, 64).unwrap() {}
        let text = server.journal().contents().unwrap().to_string();
        let served = server.finish().unwrap();
        (text, outcome_digest(&served.outcome))
    }

    fn served_journal() -> String {
        served_journal_and_digest(60, None).0
    }

    fn fnv_pin(text: &str) -> (usize, u64) {
        let mut h = Fnv::new();
        h.bytes(text.as_bytes());
        (text.len(), h.finish())
    }

    #[test]
    fn fixed_seed_journal_bytes_are_pinned() {
        // Recorded before the decision encoder and scanner were
        // rewritten; any change to the journal's bytes moves it.
        let text = served_journal();
        assert_eq!(fnv_pin(&text), (195_347, 0x8c78_95cf_4e73_b640));
    }

    #[test]
    fn gated_journal_bytes_are_pinned() {
        // The ungated pin's snapshots all carry an empty shed list; this
        // one exercises every per-job list a snapshot writes. Recorded
        // before the engine's per-job bookkeeping moved into one
        // arrival-indexed table.
        let (text, digest) = served_journal_and_digest(60, Some(ShedPolicy::EvictOldest));
        let full = read_records(&text).unwrap().into_iter().any(|r| match r {
            Record::Snapshot(s) => {
                !s.energy_by_job.is_empty()
                    && !s.cancelled_pre.is_empty()
                    && !s.cancelled_all.is_empty()
                    && !s.shed.is_empty()
            }
            _ => false,
        });
        assert!(full, "no snapshot carries all four per-job lists");
        assert_eq!(fnv_pin(&text), (132_244, 0x42e3_73f3_887f_9a66));
        assert_eq!(digest, 0x4e77_998a_8b7e_2e2b);
    }

    #[test]
    fn read_records_decodes_a_served_journal_line_by_line() {
        let text = served_journal();
        let want: Vec<Record> = text
            .lines()
            .map(|l| decode_line(l.as_bytes()).unwrap())
            .collect();
        let snapshots = want
            .iter()
            .filter(|r| matches!(r, Record::Snapshot(_)))
            .count();
        assert!(snapshots >= 2);
        assert!(text.contains("\"j\":null") && text.contains("\"r\":\""));
        assert_eq!(read_records(&text).unwrap(), want);
        // With a torn tail: the final record cut mid-line is dropped.
        let torn = &text[..text.len() - 9];
        assert_eq!(read_records(torn).unwrap(), want[..want.len() - 1]);
    }

    #[test]
    fn inconsistent_snapshots_are_malformed() {
        let text = served_journal_and_digest(12, Some(ShedPolicy::EvictOldest)).0;
        let line = text
            .lines()
            .rfind(|l| l.starts_with(r#"{"t":"snap""#))
            .unwrap();
        let Ok(Record::Snapshot(snap)) = decode_line(line.as_bytes()) else {
            panic!("{line}");
        };
        assert!(!snap.ready_slots.is_empty());
        let broken = |edit: fn(&mut Snapshot)| {
            let mut s = snap.clone();
            edit(&mut s);
            decode_line(encoded(&Record::Snapshot(s)).as_bytes()).unwrap_err()
        };
        broken(|s| s.ready_slots[0].0 = 90);
        broken(|s| s.ready_slot_count += 1);
        broken(|s| {
            s.ready_free.push(s.ready_slots[0].0);
            s.ready_slot_count += 1;
        });
        broken(|s| {
            s.band_live.pop();
        });
        broken(|s| s.band_arrived.push(0.0));
        broken(|s| s.ready_queue.clear());
    }

    #[test]
    fn a_short_or_signed_hex_float_is_malformed() {
        let mut j = Journal::memory();
        j.write_header(1, 0, 1).unwrap();
        let good = j.contents().unwrap().to_string();
        let short = r#"{"t":"dec","s":1,"c":true,"w":false,"j":0,"v":"3ff000000000000"}"#;
        // `from_str_radix` would read the sign; a bit pattern has none.
        let signed = r#"{"t":"dec","s":1,"c":true,"w":false,"j":0,"v":"+ff0000000000000"}"#;
        let tail = encoded_decision(&dec(2, None));
        for bad in [short, signed] {
            assert!(matches!(
                read_records(&format!("{good}{bad}\n{tail}\n")),
                Err(JournalError::Malformed { line: 2, .. })
            ));
        }
    }

    #[test]
    fn a_short_or_signed_header_digest_is_malformed() {
        let mut j = Journal::memory();
        j.write_header(1, 0, 1).unwrap();
        let good = j.contents().unwrap().to_string();
        assert!(good.contains(r#""dig":"0000000000000001""#));
        // A decision follows, so the bad header is not a torn tail.
        let tail = encoded_decision(&dec(1, None));
        assert!(read_records(&format!("{good}{tail}\n")).is_ok());
        for bad in ["+000000000000001", "000000000000001", "00000000000000001"] {
            let text = format!("{}{tail}\n", good.replace("0000000000000001", bad));
            assert!(
                matches!(
                    read_records(&text),
                    Err(JournalError::Malformed { line: 1, .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn decisions_out_of_sequence_are_malformed() {
        let mut j = Journal::memory();
        j.write_header(4, 0, 1).unwrap();
        let header = j.contents().unwrap().to_string();
        let body = |seqs: &[u64]| {
            let mut text = header.clone();
            for &s in seqs {
                text.push_str(&encoded_decision(&dec(s, None)));
                text.push('\n');
            }
            read_records(&text)
        };
        let bad_at = |r: Result<Vec<Record>, JournalError>| match r {
            Err(JournalError::Malformed { line, .. }) => line,
            other => panic!("expected Malformed, got {other:?}"),
        };
        assert_eq!(body(&[1, 2, 3, 4]).unwrap().len(), 5);
        assert_eq!(bad_at(body(&[1, 3, 4])), 3, "dropped line");
        assert_eq!(bad_at(body(&[1, 2, 2, 3])), 4, "duplicated line");
        assert_eq!(bad_at(body(&[1, 3, 2, 4])), 3, "swapped pair");
        assert_eq!(bad_at(body(&[2, 3])), 2, "missing first decision");
    }

    #[test]
    fn scenario_digest_separates_scenarios() {
        let a = vec![Job::new(0, 0.0, 1.0), Job::new(1, 1.0, 2.0)];
        let b = vec![Job::new(0, 0.0, 1.0), Job::new(1, 1.0, 2.5)];
        let plan = FaultPlan::none();
        assert_eq!(
            scenario_digest(&a, &plan, None),
            scenario_digest(&a, &plan, None)
        );
        assert_ne!(
            scenario_digest(&a, &plan, None),
            scenario_digest(&b, &plan, None)
        );
        let slo = FaultPlan::none().with_slo(2.0);
        assert_ne!(
            scenario_digest(&a, &plan, None),
            scenario_digest(&a, &slo, None)
        );
        let ac = AdmissionConfig {
            capacity: 8,
            shed: crate::online::ShedPolicy::RejectNewest,
        };
        assert_ne!(
            scenario_digest(&a, &plan, None),
            scenario_digest(&a, &plan, Some(&ac))
        );
    }
}
