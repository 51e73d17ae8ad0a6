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
//! Records are single lines, flushed per write. A `SIGKILL` can leave
//! at most one torn line at the end of the file; the reader stops at
//! the first malformed line, so recovery resumes from the last durable
//! record.
//!
//! # Decoding
//!
//! Decision records are nearly every line of a journal, so the reader
//! decodes them straight from bytes: `decode_decision` is a scanner for
//! exactly the grammar `encode_decision` writes (fixed key order, no
//! whitespace, no leading zeros, lowercase 16-hex floats), both built on
//! the byte codec of [`pas_workload::io`] that the fleet trace shares. Any line it
//! does not recognise — headers, snapshots, or a decision written some
//! other way — falls back to the general JSON `parse_record`, so the
//! scanner changes speed, never which lines are accepted or what they
//! decode to. Decisions must also carry `seq` 1, 2, 3, … in file order
//! (snapshots sit between them without breaking the count, and replayed
//! decisions are never re-journaled); the first decision out of
//! sequence — a dropped, duplicated, or reordered line — is
//! [`JournalError::Malformed`] at that line rather than a divergence
//! deep inside the replay.

use crate::arena::{BandLedger, ShardedReadySet};
use crate::faults::{FaultKind, FaultPlan, ResilienceReport};
use crate::fnv::Fnv;
use crate::online::{
    AdmissionConfig, Decision, EngineState, IdIndex, JobEntry, JobState, OnlineOutcome, PendingJob,
};
use crate::schedule::Schedule;
use crate::slice::Slice;
use pas_workload::io::{f64_from_hex, f64_to_hex, push_hex16, push_u64, Cursor};
use pas_workload::Job;
use serde::Value;
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
// Bit-exact f64 codec (the workload crate's, shared with the fleet trace).

fn fb(x: f64) -> Value {
    Value::Str(f64_to_hex(x))
}

fn pf(v: &Value) -> Result<f64, String> {
    match v {
        Value::Str(s) => f64_from_hex(s).ok_or_else(|| format!("bad f64 bit pattern `{s}`")),
        _ => Err("expected an f64 bit-pattern string".to_string()),
    }
}

fn pu(v: &Value) -> Result<u64, String> {
    let x = v.as_num().ok_or("expected a number")?;
    if x.fract() != 0.0 || x < 0.0 || x > 2f64.powi(53) {
        return Err(format!("number {x} is not an exact unsigned integer"));
    }
    Ok(x as u64)
}

fn obj_field<'v>(entries: &'v [(String, Value)], name: &str) -> Result<&'v Value, String> {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{name}`"))
}

/// A JSON array of `xs`, each element encoded by `f`.
fn arr<T>(xs: &[T], f: impl Fn(&T) -> Value) -> Value {
    Value::Arr(xs.iter().map(f).collect())
}

/// The array field `name` of `entries`, each element decoded by `f`.
fn list<T>(
    entries: &[(String, Value)],
    name: &str,
    f: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    obj_field(entries, name)?
        .as_arr()
        .ok_or_else(|| format!("`{name}` is not an array"))?
        .iter()
        .map(f)
        .collect()
}

/// `v` as an array of exactly `N` elements.
fn row<const N: usize>(v: &Value) -> Result<&[Value; N], String> {
    v.as_arr()
        .and_then(|xs| xs.try_into().ok())
        .ok_or_else(|| format!("expected an array of {N} elements"))
}

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
    /// id that `arrivals` does not hold.
    pub(crate) fn restore_engine(
        &self,
        arrivals: Vec<Job>,
        plan: &FaultPlan,
        admission: Option<AdmissionConfig>,
    ) -> Result<EngineState, JournalError> {
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

    fn to_value(&self) -> Value {
        let num = |x: u64| Value::Num(x as f64);
        let id = |&x: &u32| Value::Num(f64::from(x));
        let pair = |&(a, b): &(f64, f64)| Value::Arr(vec![fb(a), fb(b)]);
        let flt = |&x: &f64| fb(x);
        let r = &self.report;
        Value::Obj(vec![
            ("na".into(), num(self.next_arrival)),
            ("fin".into(), num(self.finished)),
            ("if".into(), num(self.i_fault)),
            ("bud".into(), num(self.budget)),
            ("dn".into(), Value::Bool(self.in_downtime)),
            ("now".into(), fb(self.now)),
            ("en".into(), fb(self.energy)),
            ("du".into(), fb(self.down_until)),
            ("ds".into(), fb(self.down_since)),
            ("ed".into(), fb(self.erased_this_down)),
            ("pr".into(), arr(&self.pending_recoveries, pair)),
            ("th".into(), arr(&self.throttles, pair)),
            ("rc".into(), num(self.ready_slot_count)),
            (
                "rj".into(),
                arr(&self.ready_slots, |&(slot, p)| {
                    let fields = [fb(p.release), fb(p.work), fb(p.remaining)];
                    Value::Arr([num(slot), id(&p.id)].into_iter().chain(fields).collect())
                }),
            ),
            ("fl".into(), arr(&self.ready_free, |&s| num(s))),
            ("rq".into(), arr(&self.ready_queue, id)),
            ("rb".into(), fb(self.ready_backlog)),
            ("rs".into(), fb(self.ready_seen_work)),
            (
                "rf".into(),
                self.ready_first_arrival.map_or(Value::Null, fb),
            ),
            ("bdo".into(), fb(self.band_origin)),
            ("bdw".into(), fb(self.band_width)),
            ("bdl".into(), arr(&self.band_live, |&c| num(c))),
            ("bdr".into(), arr(&self.band_remaining, flt)),
            ("bda".into(), arr(&self.band_arrived, flt)),
            (
                "ej".into(),
                arr(&self.energy_by_job, |&(j, e)| {
                    Value::Arr(vec![id(&j), fb(e)])
                }),
            ),
            ("cp".into(), arr(&self.cancelled_pre, id)),
            ("ca".into(), arr(&self.cancelled_all, id)),
            ("sh".into(), arr(&self.shed, id)),
            (
                "sl".into(),
                arr(&self.slices, |s| {
                    Value::Arr(vec![id(&s.job), fb(s.start), fb(s.end), fb(s.speed)])
                }),
            ),
            (
                "rep".into(),
                Value::Obj(vec![
                    ("cr".into(), num(r.crashes as u64)),
                    ("dt".into(), fb(r.downtime)),
                    ("lw".into(), fb(r.lost_work)),
                    ("cj".into(), num(r.cancelled_jobs as u64)),
                    ("cw".into(), fb(r.cancelled_work)),
                    ("we".into(), fb(r.wasted_energy)),
                    ("tc".into(), num(r.throttle_clamps as u64)),
                    ("bj".into(), num(r.burst_jobs as u64)),
                    ("sj".into(), num(r.shed_jobs as u64)),
                    ("sw".into(), fb(r.shed_work)),
                    ("rl".into(), arr(&r.recovery_latencies, flt)),
                    (
                        "dm".into(),
                        r.deadline_misses.map_or(Value::Null, |m| num(m as u64)),
                    ),
                ]),
            ),
            ("seq".into(), num(self.seq)),
            ("wt".into(), num(self.watchdog_trips)),
            ("bo".into(), Value::Bool(self.breaker_open)),
            (
                "ps".into(),
                self.policy_state
                    .as_ref()
                    .map_or(Value::Null, |xs| arr(xs, flt)),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<Snapshot, String> {
        let o = v.as_obj().ok_or("snapshot is not an object")?;
        let id = |v: &Value| pu(v).map(|x| x as u32);
        let pair = |v: &Value| {
            let [a, b] = row(v)?;
            Ok((pf(a)?, pf(b)?))
        };
        let num = |name: &str| pu(obj_field(o, name)?);
        let flt = |name: &str| pf(obj_field(o, name)?);
        let flag = |name: &str| match obj_field(o, name)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{name}` is not a boolean")),
        };
        let rep = obj_field(o, "rep")?
            .as_obj()
            .ok_or("`rep` is not an object")?;
        let rnum = |name: &str| obj_field(rep, name).and_then(pu).map(|x| x as usize);
        let rflt = |name: &str| pf(obj_field(rep, name)?);
        let report = ResilienceReport {
            crashes: rnum("cr")?,
            downtime: rflt("dt")?,
            lost_work: rflt("lw")?,
            cancelled_jobs: rnum("cj")?,
            cancelled_work: rflt("cw")?,
            wasted_energy: rflt("we")?,
            throttle_clamps: rnum("tc")?,
            burst_jobs: rnum("bj")?,
            shed_jobs: rnum("sj")?,
            shed_work: rflt("sw")?,
            recovery_latencies: list(rep, "rl", pf)?,
            deadline_misses: match obj_field(rep, "dm")? {
                Value::Null => None,
                v => Some(pu(v)? as usize),
            },
        };
        Ok(Snapshot {
            next_arrival: num("na")?,
            finished: num("fin")?,
            i_fault: num("if")?,
            budget: num("bud")?,
            in_downtime: flag("dn")?,
            now: flt("now")?,
            energy: flt("en")?,
            down_until: flt("du")?,
            down_since: flt("ds")?,
            erased_this_down: flt("ed")?,
            pending_recoveries: list(o, "pr", pair)?,
            throttles: list(o, "th", pair)?,
            ready_slot_count: num("rc")?,
            ready_slots: list(o, "rj", |v| {
                let [slot, id, release, work, remaining] = row(v)?;
                let id = pu(id)? as u32;
                let (release, work, remaining) = (pf(release)?, pf(work)?, pf(remaining)?);
                Ok((
                    pu(slot)?,
                    PendingJob {
                        id,
                        release,
                        work,
                        remaining,
                    },
                ))
            })?,
            ready_free: list(o, "fl", pu)?,
            ready_queue: list(o, "rq", id)?,
            ready_backlog: flt("rb")?,
            ready_seen_work: flt("rs")?,
            ready_first_arrival: match obj_field(o, "rf")? {
                Value::Null => None,
                v => Some(pf(v)?),
            },
            band_origin: flt("bdo")?,
            band_width: flt("bdw")?,
            band_live: list(o, "bdl", pu)?,
            band_remaining: list(o, "bdr", pf)?,
            band_arrived: list(o, "bda", pf)?,
            energy_by_job: list(o, "ej", |v| {
                let [j, e] = row(v)?;
                Ok((id(j)?, pf(e)?))
            })?,
            cancelled_pre: list(o, "cp", id)?,
            cancelled_all: list(o, "ca", id)?,
            shed: list(o, "sh", id)?,
            slices: list(o, "sl", |v| {
                let [job, start, end, speed] = row(v)?;
                Ok(Slice::new(id(job)?, pf(start)?, pf(end)?, pf(speed)?))
            })?,
            report,
            seq: num("seq")?,
            watchdog_trips: num("wt")?,
            breaker_open: flag("bo")?,
            policy_state: match obj_field(o, "ps")? {
                Value::Null => None,
                _ => Some(list(o, "ps", pf)?),
            },
        })
    }
}

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
    /// Reused line buffer for decision records (the per-step write).
    scratch: Vec<u8>,
}

impl Journal {
    fn with_sink(sink: Sink, path: Option<PathBuf>) -> Journal {
        Journal {
            sink,
            records: 0,
            path,
            scratch: Vec::new(),
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
    /// replayed history stays, new decisions extend it).
    ///
    /// # Errors
    /// [`JournalError::Io`] if the file cannot be opened.
    pub fn append(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path.as_ref())
            .map_err(io_err)?;
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

    fn write_line(&mut self, line: &str) -> Result<(), JournalError> {
        self.sink.write_line(line.as_bytes())?;
        self.records += 1;
        Ok(())
    }

    pub(crate) fn write_header(
        &mut self,
        n: usize,
        events: usize,
        digest: u64,
    ) -> Result<(), JournalError> {
        self.write_line(&format!(
            "{{\"t\":\"hdr\",\"v\":{JOURNAL_VERSION},\"n\":{n},\"ev\":{events},\"dig\":\"{digest:016x}\"}}"
        ))
    }

    pub(crate) fn write_decision(&mut self, rec: &DecisionRecord) -> Result<(), JournalError> {
        self.scratch.clear();
        encode_decision(&mut self.scratch, rec);
        self.sink.write_line(&self.scratch)?;
        self.records += 1;
        Ok(())
    }

    pub(crate) fn write_snapshot(&mut self, snap: &Snapshot) -> Result<(), JournalError> {
        let state = serde_json::to_string(&snap.to_value()).map_err(|e| JournalError::Io {
            message: e.to_string(),
        })?;
        self.write_line(&format!(
            "{{\"t\":\"snap\",\"s\":{},\"st\":{state}}}",
            snap.seq
        ))
    }
}

// ---------------------------------------------------------------------
// Decision lines. `encode_decision` and `decode_decision` are inverses:
// the scanner accepts exactly the bytes the encoder writes and nothing
// else, so every decoded value round-trips bit for bit.

/// Append `rec` as one journal line (no newline) to `out`.
fn encode_decision(out: &mut Vec<u8>, rec: &DecisionRecord) {
    let flag = |b: bool| -> &[u8] {
        if b {
            b"true"
        } else {
            b"false"
        }
    };
    out.extend_from_slice(b"{\"t\":\"dec\",\"s\":");
    push_u64(out, rec.seq);
    out.extend_from_slice(b",\"c\":");
    out.extend_from_slice(flag(rec.consulted));
    out.extend_from_slice(b",\"w\":");
    out.extend_from_slice(flag(rec.tripped));
    match &rec.decision {
        Some(d) => {
            out.extend_from_slice(b",\"j\":");
            push_u64(out, d.job.into());
            out.extend_from_slice(b",\"v\":\"");
            push_hex16(out, d.speed.to_bits());
            if let Some(r) = d.recheck_after {
                out.extend_from_slice(b"\",\"r\":\"");
                push_hex16(out, r.to_bits());
            }
            out.extend_from_slice(b"\"}");
        }
        None => out.extend_from_slice(b",\"j\":null}"),
    }
}

/// Decode a line `encode_decision` wrote; `None` for any other line.
fn decode_decision(line: &str) -> Option<DecisionRecord> {
    let flag = |c: &mut Cursor| match c.tag(b"true") {
        Some(()) => Some(true),
        None => c.tag(b"false").map(|()| false),
    };
    let mut c = Cursor::new(line.as_bytes());
    c.tag(b"{\"t\":\"dec\",\"s\":")?;
    let seq = c.u64_dec(1 << 53)?;
    c.tag(b",\"c\":")?;
    let consulted = flag(&mut c)?;
    c.tag(b",\"w\":")?;
    let tripped = flag(&mut c)?;
    c.tag(b",\"j\":")?;
    let decision = if c.tag(b"null").is_some() {
        None
    } else {
        let job = u32::try_from(c.u64_dec(u32::MAX.into())?).ok()?;
        c.tag(b",\"v\":\"")?;
        let speed = f64::from_bits(c.hex16()?);
        let recheck_after = match c.tag(b"\",\"r\":\"") {
            Some(()) => Some(f64::from_bits(c.hex16()?)),
            None => None,
        };
        c.tag(b"\"")?;
        Some(Decision {
            job,
            speed,
            recheck_after,
        })
    };
    c.tag(b"}")?;
    c.end()?;
    Some(DecisionRecord {
        seq,
        decision,
        consulted,
        tripped,
    })
}

/// Parse a journal's records. A malformed or truncated *final* line is
/// a torn tail (normal after `SIGKILL`) and is silently dropped; a
/// malformed interior line, or a decision whose `seq` breaks the
/// 1, 2, 3, … file order, is a hard error.
pub(crate) fn read_records(text: &str) -> Result<Vec<Record>, JournalError> {
    let mut out = Vec::new();
    let mut next_seq = 1;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((i, line)) = lines.next() {
        let parsed = match decode_decision(line) {
            Some(d) => Ok(Record::Decision(d)),
            None if line.trim().is_empty() => continue,
            None => parse_record(line),
        };
        let rec = match parsed {
            Ok(rec) => rec,
            Err(_) if lines.peek().is_none() => break, // torn tail
            Err(message) => {
                return Err(JournalError::Malformed {
                    line: i + 1,
                    message,
                })
            }
        };
        if let Record::Decision(d) = &rec {
            if d.seq != next_seq {
                return Err(JournalError::Malformed {
                    line: i + 1,
                    message: format!("decision seq {}, expected {next_seq}", d.seq),
                });
            }
            next_seq += 1;
        }
        out.push(rec);
    }
    Ok(out)
}

fn parse_record(line: &str) -> Result<Record, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let o = v.as_obj().ok_or("record is not an object")?;
    let tag = match obj_field(o, "t")? {
        Value::Str(s) => s.clone(),
        _ => return Err("`t` is not a string".to_string()),
    };
    match tag.as_str() {
        "hdr" => {
            let digest = match obj_field(o, "dig")? {
                Value::Str(s) => {
                    let mut c = Cursor::new(s.as_bytes());
                    c.hex16()
                        .filter(|_| c.end().is_some())
                        .ok_or_else(|| format!("bad digest `{s}`"))?
                }
                _ => return Err("`dig` is not a string".to_string()),
            };
            Ok(Record::Header {
                version: pu(obj_field(o, "v")?)?,
                n: pu(obj_field(o, "n")?)?,
                events: pu(obj_field(o, "ev")?)?,
                digest,
            })
        }
        "dec" => {
            let decision = match obj_field(o, "j")? {
                Value::Null => None,
                j => Some(Decision {
                    job: pu(j)? as u32,
                    speed: pf(obj_field(o, "v")?)?,
                    recheck_after: match o.iter().find(|(k, _)| k == "r") {
                        Some((_, r)) => Some(pf(r)?),
                        None => None,
                    },
                }),
            };
            let flag = |name: &str| -> Result<bool, String> {
                match obj_field(o, name)? {
                    Value::Bool(b) => Ok(*b),
                    _ => Err(format!("`{name}` is not a boolean")),
                }
            };
            Ok(Record::Decision(DecisionRecord {
                seq: pu(obj_field(o, "s")?)?,
                decision,
                consulted: flag("c")?,
                tripped: flag("w")?,
            }))
        }
        "snap" => Ok(Record::Snapshot(Box::new(Snapshot::from_value(
            obj_field(o, "st")?,
        )?))),
        other => Err(format!("unknown record tag `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn f64_bits_round_trip_exactly() {
        for &x in &[
            0.0,
            -0.0,
            1.5,
            1e9 + 1e-3,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let v = fb(x);
            assert_eq!(pf(&v).unwrap().to_bits(), x.to_bits());
        }
    }

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
        // Interior corruption is not silently skipped.
        let corrupt = format!("not json\n{good}");
        assert!(matches!(
            read_records(&corrupt),
            Err(JournalError::Malformed { line: 1, .. })
        ));
    }

    fn dec(seq: u64, decision: Option<Decision>) -> DecisionRecord {
        DecisionRecord {
            seq,
            decision,
            consulted: true,
            tripped: false,
        }
    }

    fn encoded(rec: &DecisionRecord) -> String {
        let mut line = Vec::new();
        encode_decision(&mut line, rec);
        String::from_utf8(line).unwrap()
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
            assert_eq!(encoded(rec), line);
            assert_eq!(decode_decision(line).as_ref(), Some(rec));
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

    /// Whenever the scanner accepts a line, the JSON parser must agree.
    fn scanner_agrees_with_parser(line: &str) {
        if let Some(fast) = decode_decision(line) {
            match parse_record(line) {
                Ok(Record::Decision(slow)) => assert!(same_bits(&fast, &slow), "{line}"),
                other => panic!("scanner accepted `{line}`, parser gave {other:?}"),
            }
        }
    }

    #[test]
    fn scanner_round_trips_random_records_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..20_000 {
            let rec = random_record(&mut rng);
            let line = encoded(&rec);
            let back = decode_decision(&line).unwrap_or_else(|| panic!("rejected `{line}`"));
            assert!(same_bits(&back, &rec), "{line}");
            scanner_agrees_with_parser(&line);
        }
    }

    #[test]
    fn scanner_never_accepts_what_the_parser_reads_differently() {
        let mut rng = StdRng::seed_from_u64(0xbad);
        let mut accepted_mutants = 0usize;
        for case in 0..120 {
            let line = encoded(&random_record(&mut rng));
            for k in 0..line.len() {
                scanner_agrees_with_parser(&line[..k]);
            }
            let bytes = line.as_bytes();
            for at in 0..bytes.len() {
                // Every ASCII byte at every position (a non-ASCII byte
                // would not be a `&str`); a sample of cases for speed.
                if case >= 12 && rng.next_u64() % 4 != 0 {
                    continue;
                }
                for b in 0u8..128 {
                    let mut m = bytes.to_vec();
                    m[at] = b;
                    let m = String::from_utf8(m).unwrap();
                    accepted_mutants += usize::from(decode_decision(&m).is_some());
                    scanner_agrees_with_parser(&m);
                }
            }
        }
        // Digit flips in `s`, `j`, and the hex fields stay well-formed:
        // the agreement check really ran on accepted mutants.
        assert!(accepted_mutants > 1000, "{accepted_mutants}");
    }

    #[test]
    fn scanner_rejects_lines_outside_the_writer_grammar() {
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
            r#"{"t":"hdr","s":1,"c":true,"w":false,"j":null}"#,
        ] {
            assert_eq!(decode_decision(line), None, "{line}");
        }
        // Lines the scanner leaves to the parser still read as before.
        assert_eq!(
            parse_record(r#"{"t":"dec", "s":01,"c":true,"w":false,"j":null}"#),
            Ok(Record::Decision(dec(1, None)))
        );
    }

    /// A real journal: header, decisions of all three shapes, and
    /// snapshots, from a small faulted serving run, with its outcome
    /// digest. `gated` serves it behind a 3-slot `EvictOldest` queue
    /// and cancels the last job before it arrives.
    fn served_journal_and_digest(gated: bool) -> (String, u64) {
        use crate::faults::{FaultEvent, FaultModel};
        use crate::online::{OnlinePolicy, ReadyView, ShedPolicy};
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

        let instance = generators::poisson(60, 0.8, (0.5, 1.5), 7);
        let horizon = instance.last_release() + instance.total_work();
        let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
        let mut plan = FaultModel::uniform_mix(8.0 / horizon).sample(horizon, &ids, 7);
        if gated {
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
            admission: gated.then_some(AdmissionConfig {
                capacity: 3,
                shed: ShedPolicy::EvictOldest,
            }),
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
        served_journal_and_digest(false).0
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
        let (text, digest) = served_journal_and_digest(true);
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
    fn read_records_matches_line_by_line_parsing() {
        let text = served_journal();
        let lines: Vec<&str> = text.lines().collect();
        let kinds = |p: fn(&Record) -> bool| {
            lines
                .iter()
                .filter(|l| parse_record(l).is_ok_and(|r| p(&r)))
                .count()
        };
        assert!(kinds(|r| matches!(r, Record::Snapshot(_))) >= 2);
        assert!(text.contains("\"j\":null") && text.contains("\"r\":\""));
        let want: Vec<Record> = lines.iter().map(|l| parse_record(l).unwrap()).collect();
        assert_eq!(read_records(&text).unwrap(), want);
        // With a torn tail: the final record cut mid-line is dropped.
        let torn = &text[..text.len() - 9];
        assert_eq!(read_records(torn).unwrap(), want[..want.len() - 1]);
    }

    #[test]
    fn a_short_or_signed_hex_float_is_malformed() {
        let mut j = Journal::memory();
        j.write_header(1, 0, 1).unwrap();
        let good = j.contents().unwrap().to_string();
        let short = r#"{"t":"dec","s":1,"c":true,"w":false,"j":0,"v":"3ff000000000000"}"#;
        // `from_str_radix` would read the sign; a bit pattern has none.
        let signed = r#"{"t":"dec","s":1,"c":true,"w":false,"j":0,"v":"+ff0000000000000"}"#;
        let tail = encoded(&dec(2, None));
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
        let tail = encoded(&dec(1, None));
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
                text.push_str(&encoded(&dec(s, None)));
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
