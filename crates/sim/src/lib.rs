//! # pas-sim
//!
//! Schedule representation, validation, metrics, and an online simulation
//! engine for speed-scaled processors.
//!
//! The optimization algorithms in `pas-core` *produce* schedules; this
//! crate is the neutral substrate that *checks* and *measures* them, so
//! algorithm bugs cannot hide behind their own accounting:
//!
//! * [`Schedule`] — per-processor sequences of constant-speed
//!   [`Slice`]s. Preemption and mid-job speed changes are representable
//!   (the YDS/AVR/OA deadline schedulers need them) even though the
//!   paper's makespan/flow optima never use them (Lemma 2).
//! * [`validate`](schedule::Schedule::validate) — structural legality:
//!   no overlap, release times respected, work completed exactly.
//! * [`metrics`] — makespan, total/max flow, energy under any
//!   [`PowerModel`](pas_power::PowerModel), speed-switch counts and
//!   §6-style switch-overhead inflation, and a Newtonian-cooling maximum
//!   temperature (the thermal objective of Bansal–Kimbrel–Pruhs from the
//!   related-work section).
//! * [`online`] — an event-driven engine that feeds arrivals to an
//!   [`online::OnlinePolicy`] and assembles its decisions
//!   into a `Schedule`, enabling the §6 "future work" online-vs-offline
//!   experiments under identical accounting. One general entry,
//!   [`online::run_online_pooled`] (fault plan, optional admission
//!   queue, reusable [`online::EngineScratch`]), and one event loop;
//!   [`online::run_online`] and [`online::run_online_with_faults`] are
//!   one-line calls into it. Job state lives in the data-oriented
//!   [`arena`] (struct-of-arrays slab sharded by deadline band); the
//!   original AoS store and its one entry,
//!   [`reference::run_online_reference`], are retained in
//!   [`reference`](mod@reference) and held bit-identical by
//!   `tests/online_equivalence.rs`.
//! * [`faults`] — deterministic, seeded fault scenarios (crashes with
//!   lost or checkpointed progress, cancellations, throttle windows,
//!   arrival bursts) injected into the engine via
//!   [`online::run_online_with_faults`], costed by a
//!   [`faults::ResilienceReport`].
//! * [`Fnv`] — the one FNV-1a hasher behind every digest in the
//!   workspace (journal, outcome, scenario, fleet), folding exact bytes
//!   and bits, never formatted text.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod arena;
pub mod faults;
pub mod fnv;
pub mod journal;
pub mod metrics;
pub mod online;
pub mod reference;
pub mod render;
pub mod schedule;
pub mod serve;
pub mod slice;

pub use arena::ShardedReadySet;
pub use faults::{
    BurstJob, CrashSemantics, FaultEvent, FaultKind, FaultModel, FaultNotice, FaultPlan,
    FaultPlanError, ResilienceReport,
};
pub use fnv::Fnv;
pub use journal::{outcome_digest, Journal, JournalError};
pub use metrics::Metrics;
pub use online::{
    run_online, run_online_pooled, run_online_with_faults, AdmissionConfig, Decision,
    EngineScratch, OnlineOutcome, OnlinePolicy, PendingJob, ReadyView, ShedPolicy, SimError,
};
pub use reference::run_online_reference;
pub use render::render_ascii;
pub use schedule::{Schedule, ScheduleError};
pub use serve::{ServeConfig, ServeOutcome, ServeStats, Server, WatchdogConfig};
pub use slice::Slice;
