//! The fleet run: dispatch phase, parallel per-host engine phase,
//! deterministic reduction.
//!
//! A run is **three deterministic steps**:
//!
//! 1. **Dispatch** ([`crate::dispatch()`]) — the event calendar
//!    (workload arrivals, host joins/leaves/failures) is drained in
//!    monotone, seed-tie-broken order ([`crate::event::EventQueue`],
//!    one sort); the dispatcher routes every arrival to an eligible
//!    host (joined, not departed, not down) per the scenario's
//!    [`crate::DispatchPolicy`], through a tournament tree over host
//!    slots with time-driven recoveries. Routing costs
//!    `O((J + E) log H)` for `J` arrivals, `E` host events and `H`
//!    hosts, not the `O(J·H)` of the full scan kept in
//!    [`crate::reference`]. Every processed event and every routing
//!    decision is appended to an [`EventTrace`].
//! 2. **Partition** — one grouped pass (the crate-private `partition`
//!    module) turns the
//!    trace into per-host tasks: assigned indices, leave time, scripted
//!    crashes, and an LPT cost estimate. Both [`run`] and [`replay`]
//!    go through it, so replay validation and live runs share a path.
//! 3. **Execute + reduce** — host tasks are popped from a shared
//!    deque in descending estimated-cost order (LPT) by a pool of
//!    workers ([`run_with`] picks the count; [`default_workers`]
//!    honours `PAS_FLEET_THREADS`). Each worker owns a reusable
//!    scratch context — a pooled engine arena
//!    ([`pas_sim::online::EngineScratch`]), job/id buffers, the
//!    fault-event buffer, and idle-gap interval scratch — cleared, not
//!    reallocated, between hosts. Per-host results land in
//!    slot-indexed cells and the digest/aggregates are folded
//!    **afterward in fixed host-id order**, so the FNV-1a fleet
//!    digest, every per-host `outcome_digest`, and every f64 bit
//!    pattern are identical for every worker count, including 1.
//!
//! Each host runs the ordinary `pas_sim` single-machine online engine
//! over its assigned jobs under its own power model, policy, and fault
//! plan ([`FleetScenario::host_plan`] semantics), then static
//! idle/sleep energy is charged over the host's on-window gaps via
//! [`pas_power::HostPower::gap_energy`]. Phase 2 is a pure function of
//! `(scenario, task)` — no worker observes another's state — which is
//! why execution order cannot leak into results.
//!
//! [`replay`] skips phase 1 and takes routing from a recorded trace;
//! because the fleet digest hashes the serialized trace plus the
//! per-host outcome digests, record→replay reproduces the digest
//! bit-for-bit — under any worker count.
//!
//! A deliberate modelling note: hosts that were assigned **no** jobs
//! never spin up an engine, so background-fault arrival bursts on idle
//! hosts are not materialized (bursts are engine-injected load); their
//! crashes still subtract from the idle window, since a crashed host is
//! off, not idling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pas_sim::faults::FaultKind;
use pas_sim::journal::outcome_digest;
use pas_sim::metrics;
use pas_sim::online::{run_online_pooled, EngineScratch, OnlineOutcome, SimError};
use pas_sim::Fnv;
use pas_workload::Job;

use crate::dispatch::dispatch;
use crate::partition::{partition, HostTask, Partition};
use crate::scenario::{FleetScenario, ScenarioError};
use crate::trace::EventTrace;

/// Fleet-run failures.
#[derive(Debug)]
pub enum FleetError {
    /// The scenario failed validation.
    Scenario(ScenarioError),
    /// A host's engine run failed.
    Host {
        /// The host whose engine failed.
        host: u32,
        /// The underlying simulation error.
        error: SimError,
    },
    /// A replay trace does not match the scenario.
    TraceMismatch {
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Scenario(e) => write!(f, "invalid scenario: {e}"),
            FleetError::Host { host, error } => write!(f, "host {host}: {error}"),
            FleetError::TraceMismatch { reason } => write!(f, "trace mismatch: {reason}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ScenarioError> for FleetError {
    fn from(e: ScenarioError) -> Self {
        FleetError::Scenario(e)
    }
}

/// One host's share of a fleet run.
#[derive(Debug)]
pub struct HostReport {
    /// Host id.
    pub host: u32,
    /// Jobs routed to this host.
    pub jobs_assigned: usize,
    /// Engine-metered dynamic energy.
    pub dynamic_energy: f64,
    /// Idle/sleep static energy over the host's on-window.
    pub static_energy: f64,
    /// Number of idle gaps long enough to trigger a sleep transition.
    pub sleep_transitions: usize,
    /// Sum of job flows (`C_i − r_i`) against the host's effective
    /// instance.
    pub total_flow: f64,
    /// Completion time of the host's last slice (0 when idle all run).
    pub makespan: f64,
    /// `pas_sim::outcome_digest` of the engine outcome (0 when no
    /// engine ran).
    pub digest: u64,
    /// Jobs shed by this host's admission gate.
    pub shed_jobs: usize,
    /// Speed-cap / throttle clamps applied.
    pub throttle_clamps: usize,
    /// SLO misses charged to this host.
    pub deadline_misses: usize,
    /// The full engine outcome (`None` when the host ran nothing).
    pub outcome: Option<OnlineOutcome>,
}

/// Wall-clock time spent in each step of a fleet run, in milliseconds.
///
/// Measurement only: wall time is never an input to the simulation and
/// is excluded from the fleet digest.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Phase 1: event-calendar drain + routing (0 for replays).
    pub dispatch_ms: f64,
    /// Grouped trace→tasks pass.
    pub partition_ms: f64,
    /// Parallel per-host engine runs (spawn to last join).
    pub execute_ms: f64,
    /// Id-order fold: aggregates + fleet digest.
    pub reduce_ms: f64,
}

/// Aggregated result of a fleet run.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-host reports, in host-id order.
    pub hosts: Vec<HostReport>,
    /// The recorded (or replayed) event trace.
    pub trace: EventTrace,
    /// Arrivals no eligible host could take.
    pub fleet_shed_jobs: usize,
    /// Work of those arrivals.
    pub fleet_shed_work: f64,
    /// Total engine-metered dynamic energy.
    pub dynamic_energy: f64,
    /// Total idle/sleep static energy.
    pub static_energy: f64,
    /// Total flow across hosts.
    pub total_flow: f64,
    /// Latest completion across hosts.
    pub makespan: f64,
    /// Jobs completed (appearing in a host schedule) across the fleet.
    pub completed_jobs: usize,
    /// The fleet digest: FNV-1a over the serialized trace, the per-host
    /// outcome digests and static energies, and the aggregates. Two
    /// runs agree on this iff they agree on every event, routing
    /// decision, schedule bit, and energy bit — independent of worker
    /// count.
    pub digest: u64,
    /// Worker threads the execute phase actually used.
    pub workers: usize,
    /// Wall-clock breakdown of this run (not hashed).
    pub timings: PhaseBreakdown,
}

impl FleetOutcome {
    /// Dynamic + static energy.
    pub fn total_energy(&self) -> f64 {
        self.dynamic_energy + self.static_energy
    }

    /// Total jobs shed anywhere: unroutable at the fleet frontier plus
    /// per-host admission sheds.
    pub fn shed_jobs(&self) -> usize {
        self.fleet_shed_jobs + self.hosts.iter().map(|h| h.shed_jobs).sum::<usize>()
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The worker count [`run`] and [`replay`] use: `PAS_FLEET_THREADS`
/// when set to a positive integer, else the machine's available
/// parallelism, else 1.
pub fn default_workers() -> usize {
    match std::env::var("PAS_FLEET_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Run a scenario end to end (dispatch + partition + execute) with
/// [`default_workers`] workers.
///
/// # Errors
/// [`FleetError`] on an invalid scenario or a host engine failure.
pub fn run(scenario: &FleetScenario) -> Result<FleetOutcome, FleetError> {
    run_with(scenario, default_workers())
}

/// [`run`] with an explicit worker count. Any count ≥ 1 produces the
/// bit-identical [`FleetOutcome::digest`]; `workers == 1` executes
/// inline without spawning threads (the CI single-core path).
///
/// # Errors
/// As [`run`].
pub fn run_with(scenario: &FleetScenario, workers: usize) -> Result<FleetOutcome, FleetError> {
    scenario.validate()?;
    let t = Instant::now();
    let trace = dispatch(scenario);
    let dispatch_ms = ms(t);
    let t = Instant::now();
    let part = partition(scenario, &trace)?;
    let partition_ms = ms(t);
    execute(scenario, trace, part, workers, dispatch_ms, partition_ms)
}

/// Replay a recorded trace against the same scenario: phase 1 is taken
/// verbatim from the trace (routing included), phases 2–3 re-execute
/// with [`default_workers`] workers.
///
/// # Errors
/// [`FleetError::TraceMismatch`] when the trace's seed or arrival
/// records disagree with the scenario (bit-exact comparison);
/// otherwise as [`run`].
pub fn replay(scenario: &FleetScenario, trace: &EventTrace) -> Result<FleetOutcome, FleetError> {
    replay_with(scenario, trace, default_workers())
}

/// [`replay`] with an explicit worker count.
///
/// # Errors
/// As [`replay`].
pub fn replay_with(
    scenario: &FleetScenario,
    trace: &EventTrace,
    workers: usize,
) -> Result<FleetOutcome, FleetError> {
    scenario.validate()?;
    if trace.seed != scenario.seed {
        return Err(FleetError::TraceMismatch {
            reason: format!(
                "trace seed {:016x} != scenario seed {:016x}",
                trace.seed, scenario.seed
            ),
        });
    }
    let t = Instant::now();
    let part = partition(scenario, trace)?;
    let partition_ms = ms(t);
    execute(scenario, trace.clone(), part, workers, 0.0, partition_ms)
}

/// Merge possibly-overlapping intervals (clipped to `[start, end]`)
/// in place and write the complement gaps into `gaps`.
fn idle_gaps_into(occupied: &mut Vec<(f64, f64)>, start: f64, end: f64, gaps: &mut Vec<f64>) {
    gaps.clear();
    if end <= start {
        return;
    }
    occupied.retain(|&(a, b)| b > start && a < end);
    for iv in occupied.iter_mut() {
        iv.0 = iv.0.max(start);
        iv.1 = iv.1.min(end);
    }
    // Stable sort: same tie order as the original allocating helper.
    occupied.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut cursor = start;
    for &(a, b) in occupied.iter() {
        if a > cursor {
            gaps.push(a - cursor);
        }
        cursor = cursor.max(b);
    }
    if end > cursor {
        gaps.push(end - cursor);
    }
}

/// Allocating wrapper over [`idle_gaps_into`], kept for the unit tests.
#[cfg(test)]
fn idle_gaps(mut occupied: Vec<(f64, f64)>, start: f64, end: f64) -> Vec<f64> {
    let mut gaps = Vec::new();
    idle_gaps_into(&mut occupied, start, end, &mut gaps);
    gaps
}

/// One worker's reusable buffers, cleared — not reallocated — between
/// hosts. The engine arena inside is recycled by
/// [`run_online_pooled`], the engine's one general entry, and is
/// observationally identical to a fresh one (pinned by `pas_sim`'s
/// recycle-equivalence tests and by `tests/online_equivalence.rs`,
/// which drives one reused scratch against the reference engine), so
/// pooling cannot perturb a single bit of any outcome.
struct WorkerScratch {
    engine: EngineScratch,
    jobs: Vec<Job>,
    ids: Vec<u32>,
    fault_events: Vec<pas_sim::faults::FaultEvent>,
    occupied: Vec<(f64, f64)>,
    gaps: Vec<f64>,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            engine: EngineScratch::new(),
            jobs: Vec::new(),
            ids: Vec::new(),
            fault_events: Vec::new(),
            occupied: Vec::new(),
            gaps: Vec::new(),
        }
    }
}

/// Run one host task to a report. Pure in `(scenario, task)`; the
/// scratch only lends capacity.
fn run_host(
    scenario: &FleetScenario,
    task: &HostTask,
    scratch: &mut WorkerScratch,
) -> Result<HostReport, FleetError> {
    let cfg = scenario.host(task.host).expect("validated host");

    scratch.jobs.clear();
    scratch.ids.clear();
    for &i in &task.indices {
        let job = *scenario.workload.job(i);
        scratch.ids.push(job.id);
        scratch.jobs.push(job);
    }
    let plan = scenario.plan_from_parts(
        task.host,
        cfg.speed_cap,
        &task.crashes,
        &scratch.ids,
        std::mem::take(&mut scratch.fault_events),
    );

    let outcome = if scratch.jobs.is_empty() {
        None
    } else {
        let instance = pas_workload::Instance::new(std::mem::take(&mut scratch.jobs))
            .expect("assigned jobs form a valid instance");
        let model = cfg.power.model();
        let mut policy = cfg.policy.build(model);
        let result = run_online_pooled(
            &instance,
            model,
            policy.as_mut(),
            &plan,
            cfg.admission,
            &mut scratch.engine,
        );
        scratch.jobs = instance.into_jobs();
        match result {
            Ok(o) => Some(o),
            Err(error) => {
                scratch.fault_events = plan.into_events();
                return Err(FleetError::Host {
                    host: task.host,
                    error,
                });
            }
        }
    };

    // --- static energy over the on-window ---
    let sched_end = outcome
        .as_ref()
        .map(|o| metrics::makespan(&o.schedule))
        .unwrap_or(0.0);
    let window_start = cfg.available_from;
    let window_end = match task.leave_at {
        Some(t) => t.max(sched_end),
        None => scenario.horizon.max(sched_end),
    };
    scratch.occupied.clear();
    if let Some(o) = &outcome {
        for machine in o.schedule.machines() {
            for s in machine {
                scratch.occupied.push((s.start, s.end));
            }
        }
    }
    // A crashed host is off, not idling: downtime leaves the
    // static-power window.
    for ev in plan.events() {
        if let FaultKind::Crash { duration, .. } = ev.kind {
            scratch.occupied.push((ev.at, ev.at + duration));
        }
    }
    idle_gaps_into(
        &mut scratch.occupied,
        window_start,
        window_end,
        &mut scratch.gaps,
    );
    let mut static_energy = 0.0;
    let mut sleeps = 0usize;
    for &gap in &scratch.gaps {
        static_energy += cfg.power.gap_energy(gap);
        if cfg.power.sleeps_during(gap) {
            sleeps += 1;
        }
    }
    scratch.fault_events = plan.into_events();

    let (total_flow, digest) = match &outcome {
        Some(o) => {
            let flow = o
                .effective
                .as_ref()
                .map(|inst| metrics::total_flow(&o.schedule, inst))
                .unwrap_or(0.0);
            (flow, outcome_digest(o))
        }
        None => (0.0, 0),
    };

    Ok(HostReport {
        host: task.host,
        jobs_assigned: task.indices.len(),
        dynamic_energy: outcome.as_ref().map(|o| o.energy).unwrap_or(0.0),
        static_energy,
        sleep_transitions: sleeps,
        total_flow,
        makespan: sched_end,
        digest,
        shed_jobs: outcome
            .as_ref()
            .map(|o| o.resilience.shed_jobs)
            .unwrap_or(0),
        throttle_clamps: outcome
            .as_ref()
            .map(|o| o.resilience.throttle_clamps)
            .unwrap_or(0),
        deadline_misses: outcome
            .as_ref()
            .and_then(|o| o.resilience.deadline_misses)
            .unwrap_or(0),
        outcome,
    })
}

/// One worker: pop tasks off the shared cursor until the deque drains,
/// collecting `(slot, result)` pairs locally (scattered by the caller
/// after the join — keeps the whole pool `unsafe`-free).
#[allow(clippy::type_complexity)]
fn run_worker(
    scenario: &FleetScenario,
    tasks: &[HostTask],
    order: &[usize],
    cursor: &AtomicUsize,
) -> Vec<(usize, Result<HostReport, FleetError>)> {
    let mut scratch = WorkerScratch::new();
    let mut out = Vec::new();
    loop {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&slot) = order.get(k) else { break };
        out.push((slot, run_host(scenario, &tasks[slot], &mut scratch)));
    }
    out
}

/// Phases 2–3: run every host's engine (in parallel), then fold
/// aggregates and the digest in fixed host-id order.
fn execute(
    scenario: &FleetScenario,
    trace: EventTrace,
    part: Partition,
    workers: usize,
    dispatch_ms: f64,
    partition_ms: f64,
) -> Result<FleetOutcome, FleetError> {
    let t_exec = Instant::now();
    let tasks = &part.tasks;
    let n = tasks.len();
    let workers = workers.max(1).min(n.max(1));

    // LPT: costliest host first; ties to the lower id so the pop order
    // itself is reproducible (results never depend on it, but a stable
    // order keeps perf runs comparable).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        tasks[b]
            .cost
            .total_cmp(&tasks[a].cost)
            .then(tasks[a].host.cmp(&tasks[b].host))
    });

    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, Result<HostReport, FleetError>)>> = if workers == 1 {
        // Inline, no threads: the 1-core CI path is the same code the
        // pool runs, minus the spawn.
        vec![run_worker(scenario, tasks, &order, &cursor)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| s.spawn(|| run_worker(scenario, tasks, &order, &cursor)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked"))
                .collect()
        })
    };

    // Scatter into id-order slots: each slot is written exactly once.
    let mut slots: Vec<Option<Result<HostReport, FleetError>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for bucket in buckets {
        for (slot, result) in bucket {
            debug_assert!(slots[slot].is_none(), "task executed twice");
            slots[slot] = Some(result);
        }
    }
    let execute_ms = ms(t_exec);

    let t_reduce = Instant::now();
    // Fold in host-id order. On failure surface the lowest-id erroring
    // host — exactly the error the old sequential first-failure-stops
    // loop reported, whatever order the pool actually ran in.
    let mut reports = Vec::with_capacity(n);
    for slot in slots {
        match slot.expect("every task executed") {
            Ok(report) => reports.push(report),
            Err(e) => return Err(e),
        }
    }

    let fleet_shed_jobs = part.shed_jobs;
    let fleet_shed_work = part.shed_work;
    let dynamic_energy: f64 = reports.iter().map(|r| r.dynamic_energy).sum();
    let static_energy: f64 = reports.iter().map(|r| r.static_energy).sum();
    let total_flow: f64 = reports.iter().map(|r| r.total_flow).sum();
    let makespan = reports.iter().map(|r| r.makespan).fold(0.0, f64::max);
    // The effective instance holds exactly the jobs that executed work,
    // and the schedule validates against it: one job per scheduled id.
    let completed_jobs = reports
        .iter()
        .filter_map(|r| r.outcome.as_ref())
        .map(|o| {
            let n = o.effective.as_ref().map_or(0, |inst| inst.len());
            debug_assert_eq!(n, o.schedule.completion_times().len());
            n
        })
        .sum();

    // Hash the serialized trace chunk by chunk: the same bytes as
    // `trace.serialize()`, without building the String.
    let mut fnv = Fnv::new();
    trace.hash_into(&mut fnv);
    for r in &reports {
        fnv.u64(u64::from(r.host));
        fnv.u64(r.digest);
        fnv.f64(r.static_energy);
        fnv.u64(r.sleep_transitions as u64);
    }
    fnv.u64(fleet_shed_jobs as u64);
    fnv.f64(fleet_shed_work);
    fnv.f64(dynamic_energy);
    fnv.f64(total_flow);
    let digest = fnv.finish();
    let reduce_ms = ms(t_reduce);

    Ok(FleetOutcome {
        hosts: reports,
        trace,
        fleet_shed_jobs,
        fleet_shed_work,
        dynamic_energy,
        static_energy,
        total_flow,
        makespan,
        completed_jobs,
        digest,
        workers,
        timings: PhaseBreakdown {
            dispatch_ms,
            partition_ms,
            execute_ms,
            reduce_ms,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FleetEvent, FleetEventKind};
    use crate::host::{EnginePower, HostConfig};
    use crate::scenario::DispatchPolicy;
    use pas_power::{HostPower, PolyPower};
    use pas_sim::faults::FaultModel;
    use pas_workload::Instance;

    fn hosts(n: u32) -> Vec<HostConfig> {
        (0..n)
            .map(|id| {
                HostConfig::new(
                    id,
                    HostPower::dynamic_only(EnginePower::Poly(PolyPower::CUBE)),
                )
            })
            .collect()
    }

    fn workload(n: usize) -> Instance {
        Instance::new(
            (0..n)
                .map(|i| Job::new(i as u32, i as f64 * 0.5, 1.0))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn round_robin_spreads_jobs() {
        let s = FleetScenario::new(hosts(3), workload(9), 20.0, 1);
        let out = run(&s).unwrap();
        assert_eq!(out.fleet_shed_jobs, 0);
        for h in &out.hosts {
            assert_eq!(h.jobs_assigned, 3, "round-robin must spread evenly");
        }
        assert_eq!(out.completed_jobs, 9);
        assert!(out.dynamic_energy > 0.0);
        assert_eq!(out.static_energy, 0.0, "dynamic-only hosts");
    }

    #[test]
    fn least_assigned_balances_work() {
        let mut s = FleetScenario::new(hosts(2), workload(8), 20.0, 3);
        s.dispatch = DispatchPolicy::LeastAssigned;
        let out = run(&s).unwrap();
        let a = out.hosts[0].jobs_assigned;
        let b = out.hosts[1].jobs_assigned;
        assert_eq!(a + b, 8);
        assert_eq!(a, 4);
        assert_eq!(b, 4);
    }

    #[test]
    fn no_eligible_host_sheds_at_the_frontier() {
        let mut hs = hosts(1);
        hs[0].available_from = 100.0; // joins long after the workload
        let s = FleetScenario::new(hs, workload(4), 200.0, 1);
        let out = run(&s).unwrap();
        assert_eq!(out.fleet_shed_jobs, 4);
        assert!((out.fleet_shed_work - 4.0).abs() < 1e-12);
        assert_eq!(out.completed_jobs, 0);
        assert_eq!(out.hosts[0].digest, 0);
    }

    #[test]
    fn idle_gap_helper_merges_and_clips() {
        // Window [0, 10], busy [2,4] and [3,5], down [8,12].
        let gaps = idle_gaps(vec![(2.0, 4.0), (3.0, 5.0), (8.0, 12.0)], 0.0, 10.0);
        assert_eq!(gaps, vec![2.0, 3.0]);
        assert!(idle_gaps(vec![], 5.0, 5.0).is_empty());
        assert_eq!(idle_gaps(vec![], 0.0, 7.0), vec![7.0]);
    }

    #[test]
    fn replay_rejects_mismatched_seed_and_workload() {
        let s = FleetScenario::new(hosts(2), workload(4), 20.0, 1);
        let out = run(&s).unwrap();
        let mut wrong_seed = s.clone();
        wrong_seed.seed = 2;
        assert!(matches!(
            replay(&wrong_seed, &out.trace),
            Err(FleetError::TraceMismatch { .. })
        ));
        let mut wrong_jobs = s.clone();
        wrong_jobs.workload =
            Instance::new(vec![Job::new(0, 0.0, 9.0), Job::new(1, 0.5, 1.0)]).unwrap();
        assert!(matches!(
            replay(&wrong_jobs, &out.trace),
            Err(FleetError::TraceMismatch { .. })
        ));
    }

    #[test]
    fn every_worker_count_agrees_bit_for_bit() {
        let mut s = FleetScenario::new(hosts(5), workload(40), 40.0, 7);
        s.fault_model = Some(FaultModel::uniform_mix(0.3));
        s.slo = Some(25.0);
        s.hosts[2].speed_cap = Some(0.8);
        s.events.push(FleetEvent {
            at: 3.0,
            kind: FleetEventKind::HostFail {
                host: 1,
                duration: 2.0,
            },
        });
        s.events.push(FleetEvent {
            at: 15.0,
            kind: FleetEventKind::HostLeave { host: 4 },
        });
        let base = run_with(&s, 1).unwrap();
        assert_eq!(base.workers, 1);
        for workers in [2, 3, 8] {
            let out = run_with(&s, workers).unwrap();
            assert_eq!(out.digest, base.digest, "workers={workers}");
            assert_eq!(out.trace, base.trace);
            for (a, b) in base.hosts.iter().zip(&out.hosts) {
                assert_eq!(a.host, b.host);
                assert_eq!(a.digest, b.digest);
                assert_eq!(a.static_energy.to_bits(), b.static_energy.to_bits());
                assert_eq!(a.total_flow.to_bits(), b.total_flow.to_bits());
            }
            let replayed = replay_with(&s, &base.trace, workers).unwrap();
            assert_eq!(replayed.digest, base.digest);
        }
    }

    #[test]
    fn completed_jobs_counts_the_effective_instances() {
        // Cancellations, lost-progress crashes, bursts and an SLO: the
        // effective instances differ from the assigned jobs, and their
        // sizes must still equal the jobs the schedules ran.
        let mut s = FleetScenario::new(hosts(4), workload(60), 60.0, 5);
        s.fault_model = Some(FaultModel::uniform_mix(0.4));
        s.slo = Some(6.0);
        let out = run_with(&s, 1).unwrap();
        let mut reshaped = false;
        let mut total = 0;
        for h in &out.hosts {
            let o = h.outcome.as_ref().expect("every host ran jobs");
            let effective = o.effective.as_ref().map_or(0, |inst| inst.len());
            assert_eq!(effective, o.schedule.completion_times().len(), "{}", h.host);
            reshaped |= effective != h.jobs_assigned;
            total += effective;
        }
        assert!(reshaped, "the faults never changed a host's job set");
        assert_eq!(out.completed_jobs, total);
    }

    #[test]
    fn default_workers_honours_env_contract() {
        // Can't mutate the environment safely in a threaded test
        // runner; assert the fallback floor instead.
        assert!(default_workers() >= 1);
    }

    #[test]
    fn timings_are_recorded_and_excluded_from_digest() {
        let s = FleetScenario::new(hosts(3), workload(12), 20.0, 1);
        let out = run_with(&s, 2).unwrap();
        let t = out.timings;
        for ms in [t.dispatch_ms, t.partition_ms, t.execute_ms, t.reduce_ms] {
            assert!(ms >= 0.0);
        }
        let again = run_with(&s, 2).unwrap();
        // Wall times differ run to run; digests must not.
        assert_eq!(out.digest, again.digest);
    }
}
