//! # pas-fleet — deterministic discrete-event fleet simulation
//!
//! A fleet of heterogeneous hosts, each running the ordinary `pas_sim`
//! single-machine online engine behind a dispatcher, under host-level
//! power envelopes ([`pas_power::HostPower`]: idle floors, sleep
//! states) and per-host power models (continuous `σ^α` or
//! [`pas_power::DiscreteSpeeds`] ladders).
//!
//! The design splits a run into deterministic phases (see [`sim`]): an
//! event-calendar **dispatch** phase with seeded tie-breaking
//! ([`event::EventQueue`]) that routes each arrival in `O(log H)`
//! ([`dispatch()`]; the full scan is kept as [`reference::dispatch`])
//! and records every decision into a bit-exact [`trace::EventTrace`], a grouped **partition** pass that turns the
//! trace into per-host tasks, and an **execute** phase that is a pure
//! function of each `(scenario, task)` pair — and therefore runs on a
//! worker pool ([`run_with`]) with worker-local scratch, reduced in
//! fixed host-id order. That structure is what the differential
//! harness leans on:
//!
//! - same seed → bit-identical trace and fleet digest ([`run`]), for
//!   **every worker count including 1**;
//! - a single-host fleet is bit-identical to the bare engine;
//! - `record → serialize → parse → [`replay`]` reproduces the digest;
//! - a hand-computable golden oracle pins idle/sleep energy accounting.
//!
//! Simulated time is advanced only by event timestamps — wall-clock
//! time is *measured* (the [`PhaseBreakdown`] in every outcome) but is
//! never an input to the simulation and never enters a digest.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod dispatch;
pub mod event;
pub mod host;
mod partition;
pub mod reference;
pub mod scenario;
pub mod sim;
pub mod trace;

pub use dispatch::dispatch;
pub use event::{EventQueue, FleetEvent, FleetEventKind};
pub use host::{EnginePower, FixedSpeed, HostConfig, HostPolicy};
pub use scenario::{DispatchPolicy, FleetScenario, ScenarioError};
pub use sim::{
    default_workers, replay, replay_with, run, run_with, FleetError, FleetOutcome, HostReport,
    PhaseBreakdown,
};
pub use trace::{ArrivalView, EventTrace, TraceParseError, TraceRecord};
