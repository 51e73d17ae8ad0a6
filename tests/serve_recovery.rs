//! Crash→restore determinism of the serving layer (proptest).
//!
//! The contract under test: a [`Server`] killed after an arbitrary
//! number of engine steps and restored from its journal must finish
//! with an [`OnlineOutcome`](pas_sim::OnlineOutcome) **bit-identical**
//! to the uninterrupted run — same schedule slices, same energy, same
//! `ResilienceReport` — including under active fault plans, admission
//! control, and snapshots. Identity is asserted through
//! [`outcome_digest`], which hashes every f64 by bit pattern.
//!
//! The proptest strategies randomize the workload, the cut point, the
//! snapshot cadence, the fault rate, and the admission gate. The
//! checked-in `proptest-regressions/serve_recovery.txt` corpus is
//! auto-loaded by the proptest stand-in and replayed before any novel
//! cases; the explicit `regression_*` tests additionally pin the
//! scenarios those entries were distilled into, under stable names.

use power_aware_scheduling::online::FlowReplanner;
use power_aware_scheduling::power::PolyPower;
use power_aware_scheduling::sim::online::{AdmissionConfig, ShedPolicy};
use power_aware_scheduling::sim::{
    outcome_digest, FaultModel, FaultPlan, Journal, ServeConfig, Server, WatchdogConfig,
};
use power_aware_scheduling::workload::{generators, strategies, Instance};
use proptest::prelude::*;

fn fresh_policy(budget: f64) -> FlowReplanner {
    FlowReplanner::new(3.0, budget, 32)
}

fn sample_plan(instance: &Instance, rate: f64, seed: u64) -> FaultPlan {
    if rate <= 0.0 {
        return FaultPlan::none();
    }
    // The rates are per unit time; budget the expected event count so a
    // huge-span instance (the t=1e9 flood) cannot blow up the plan.
    let horizon = instance.last_release() + instance.total_work();
    let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
    FaultModel::uniform_mix(rate)
        .with_event_budget(32.0, horizon)
        .sample(horizon, &ids, seed)
}

/// Digest of the uninterrupted serving run.
fn uninterrupted_digest(instance: &Instance, plan: &FaultPlan, config: ServeConfig) -> u64 {
    let model = PolyPower::CUBE;
    let budget = 2.0 * instance.total_work();
    let mut policy = fresh_policy(budget);
    let server = Server::new(instance, &model, plan, config, Journal::memory())
        .expect("fresh serve setup succeeds");
    let served = server.run(&mut policy).expect("uninterrupted run succeeds");
    outcome_digest(&served.outcome)
}

/// Digest after killing the server at `cut` engine steps and restoring
/// from the journal it left behind. Returns the digest and whether the
/// run actually crashed mid-flight (a large `cut` can finish first).
fn crash_restore_digest(
    instance: &Instance,
    plan: &FaultPlan,
    config: ServeConfig,
    cut: u64,
) -> (u64, bool) {
    let model = PolyPower::CUBE;
    let budget = 2.0 * instance.total_work();
    let mut policy = fresh_policy(budget);
    let mut server = Server::new(instance, &model, plan, config, Journal::memory())
        .expect("fresh serve setup succeeds");
    let done = server
        .run_for(&mut policy, cut)
        .expect("partial run succeeds");
    if done {
        let served = server.finish().expect("finish succeeds");
        return (outcome_digest(&served.outcome), false);
    }
    // The "crash": drop the server, keeping only the journal text the
    // dead process flushed.
    let prior = server
        .journal()
        .contents()
        .expect("memory journal exposes contents")
        .to_string();
    drop(server);
    let mut policy = fresh_policy(budget);
    let restored = Server::restore(
        instance,
        &model,
        plan,
        config,
        &prior,
        Journal::memory(),
        &mut policy,
    )
    .expect("restore succeeds");
    let served = restored.run(&mut policy).expect("restored run succeeds");
    (outcome_digest(&served.outcome), true)
}

fn check_cut(instance: &Instance, plan: &FaultPlan, config: ServeConfig, cut: u64) {
    let want = uninterrupted_digest(instance, plan, config);
    let (got, _crashed) = crash_restore_digest(instance, plan, config, cut);
    assert_eq!(
        got, want,
        "crash at step {cut} diverged (snapshot_every {:?})",
        config.snapshot_every
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn crash_restore_is_bit_identical(
        instance in strategies::instances(10),
        cut in 1u64..60,
        snapshot_every in 0u64..6,
        fault_rate in 0f64..0.3,
        seed in 0u64..1_000,
    ) {
        let plan = sample_plan(&instance, fault_rate, seed);
        let config = ServeConfig {
            admission: None,
            snapshot_every: (snapshot_every > 0).then_some(snapshot_every),
            watchdog: Some(WatchdogConfig::default()),
            record_latency: false,
        };
        let want = uninterrupted_digest(&instance, &plan, config);
        let (got, _) = crash_restore_digest(&instance, &plan, config, cut);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn crash_restore_holds_under_admission_control(
        instance in strategies::instances(10),
        cut in 1u64..40,
        capacity in 1usize..6,
        evict in 0u32..2,
        seed in 0u64..1_000,
    ) {
        let plan = sample_plan(&instance, 0.15, seed);
        let config = ServeConfig {
            admission: Some(AdmissionConfig {
                capacity,
                shed: if evict == 1 { ShedPolicy::EvictOldest } else { ShedPolicy::RejectNewest },
            }),
            snapshot_every: Some(3),
            watchdog: None,
            record_latency: false,
        };
        let want = uninterrupted_digest(&instance, &plan, config);
        let (got, _) = crash_restore_digest(&instance, &plan, config, cut);
        prop_assert_eq!(got, want);
    }
}

/// Every fixed-seed fault-matrix scenario, every early cut point, both
/// snapshot cadences — the acceptance-criteria sweep in miniature.
#[test]
fn fault_matrix_cuts_are_bit_identical() {
    let scenarios: Vec<(Instance, FaultPlan)> = (0..3u64)
        .map(|seed| {
            let instance = generators::poisson(12, 0.8, (0.5, 1.5), seed);
            let plan = sample_plan(&instance, 0.25, seed.wrapping_mul(0x9e37));
            (instance, plan)
        })
        .collect();
    for (instance, plan) in &scenarios {
        for snapshot_every in [None, Some(2)] {
            let config = ServeConfig {
                admission: None,
                snapshot_every,
                watchdog: Some(WatchdogConfig::default()),
                record_latency: false,
            };
            for cut in 1..=10 {
                check_cut(instance, plan, config, cut);
            }
        }
    }
}

/// A restored run that crashed mid-replay (restore, run a few steps,
/// crash again, restore again) still converges to the same bits.
#[test]
fn double_crash_still_converges() {
    let model = PolyPower::CUBE;
    let instance = generators::poisson(10, 0.8, (0.5, 1.5), 11);
    let plan = sample_plan(&instance, 0.2, 99);
    let config = ServeConfig {
        snapshot_every: Some(2),
        ..ServeConfig::default()
    };
    let budget = 2.0 * instance.total_work();
    let want = uninterrupted_digest(&instance, &plan, config);

    let mut policy = fresh_policy(budget);
    let mut server = Server::new(&instance, &model, &plan, config, Journal::memory()).unwrap();
    assert!(!server.run_for(&mut policy, 3).unwrap());
    let mut prior = server.journal().contents().unwrap().to_string();
    drop(server);

    // First restore appends its new records after the prior history,
    // exactly like `Journal::append` on the same file would.
    let mut policy = fresh_policy(budget);
    let mut server = Server::restore(
        &instance,
        &model,
        &plan,
        config,
        &prior,
        Journal::memory(),
        &mut policy,
    )
    .unwrap();
    if !server.run_for(&mut policy, 4).unwrap() {
        prior.push_str(server.journal().contents().unwrap());
        drop(server);
        let mut policy = fresh_policy(budget);
        server = Server::restore(
            &instance,
            &model,
            &plan,
            config,
            &prior,
            Journal::memory(),
            &mut policy,
        )
        .unwrap();
        let served = server.run(&mut policy).unwrap();
        assert_eq!(outcome_digest(&served.outcome), want);
        return;
    }
    let served = server.finish().unwrap();
    assert_eq!(outcome_digest(&served.outcome), want);
}

/// A torn final journal line (the SIGKILL case) must not break restore.
#[test]
fn torn_tail_restores_cleanly() {
    let instance = generators::poisson(10, 0.8, (0.5, 1.5), 5);
    let plan = FaultPlan::none();
    let config = ServeConfig::default();
    let model = PolyPower::CUBE;
    let budget = 2.0 * instance.total_work();
    let want = uninterrupted_digest(&instance, &plan, config);

    let mut policy = fresh_policy(budget);
    let mut server = Server::new(&instance, &model, &plan, config, Journal::memory()).unwrap();
    assert!(!server.run_for(&mut policy, 5).unwrap());
    let mut prior = server.journal().contents().unwrap().to_string();
    drop(server);
    // Simulate the kill landing mid-write: the final record is torn.
    let keep = prior.trim_end().rfind('\n').unwrap();
    prior.truncate(keep + 1 + (prior.len() - keep - 1) / 2);

    let mut policy = fresh_policy(budget);
    let restored = Server::restore(
        &instance,
        &model,
        &plan,
        config,
        &prior,
        Journal::memory(),
        &mut policy,
    )
    .unwrap();
    let served = restored.run(&mut policy).unwrap();
    assert_eq!(outcome_digest(&served.outcome), want);
}

/// The same-instant-flood edge end-to-end: hundreds of arrivals at the
/// *identical* timestamp t=1e9, pushed through the full serve loop.
/// Nothing may be spuriously dropped (no admission gate is configured),
/// and the ready-store iteration order must be stable: jobs execute in
/// admission order, which for a same-instant flood is id order.
#[test]
fn same_instant_flood_drops_nothing_and_keeps_order() {
    let n = 400;
    let instance = generators::flood(n, 1e9, (0.5, 1.5), 17);
    let plan = FaultPlan::none();
    let config = ServeConfig::default();
    let model = PolyPower::CUBE;
    let budget = 2.0 * instance.total_work();

    let mut policy = fresh_policy(budget);
    let server = Server::new(&instance, &model, &plan, config, Journal::memory()).unwrap();
    let served = server.run(&mut policy).unwrap();

    // Zero spurious drops: every flood job completes, nothing is shed.
    assert_eq!(served.outcome.resilience.shed_jobs, 0);
    assert_eq!(served.outcome.resilience.cancelled_jobs, 0);
    assert_eq!(served.outcome.schedule.completion_times().len(), n);

    // Stable iteration order: first appearance in the executed
    // schedule follows id (= admission) order.
    let mut seen: Vec<u32> = Vec::new();
    for lane in served.outcome.schedule.machines() {
        for slice in lane {
            if !seen.contains(&slice.job) {
                seen.push(slice.job);
            }
        }
    }
    let expected: Vec<u32> = (0..n as u32).collect();
    assert_eq!(seen, expected, "flood execution order must follow ids");

    // And the whole thing is deterministic: a second identical run
    // produces the same bits.
    let mut policy = fresh_policy(budget);
    let server = Server::new(&instance, &model, &plan, config, Journal::memory()).unwrap();
    let again = server.run(&mut policy).unwrap();
    assert_eq!(
        outcome_digest(&again.outcome),
        outcome_digest(&served.outcome)
    );
}

/// Crash→restore through the middle of a same-instant flood: the
/// restored ready arena must preserve the queue order captured by the
/// snapshot, or the digests diverge.
#[test]
fn flood_crash_restore_is_bit_identical() {
    let instance = generators::flood(64, 1e9, (0.5, 1.5), 23);
    let plan = sample_plan(&instance, 0.1, 23);
    for snapshot_every in [None, Some(4)] {
        let config = ServeConfig {
            snapshot_every,
            ..ServeConfig::default()
        };
        for cut in [1, 7, 33] {
            check_cut(&instance, &plan, config, cut);
        }
    }
}

// ---------------------------------------------------------------------
// Named regressions. The checked-in corpus
// (proptest-regressions/serve_recovery.txt) is replayed automatically
// by the proptest stand-in; these tests pin the distilled scenarios
// under stable names so a reappearance is attributable at a glance.
// ---------------------------------------------------------------------

/// Corpus scenario 1: early cut (step 1) before the first decision,
/// genesis replay path.
#[test]
fn regression_cut_before_first_decision() {
    let instance = generators::poisson(8, 0.8, (0.5, 1.5), 42);
    let plan = sample_plan(&instance, 0.2, 42);
    let config = ServeConfig::default();
    check_cut(&instance, &plan, config, 1);
}

/// Corpus scenario 2: cut lands exactly on a snapshot boundary — the
/// restore must resume *from* the snapshot, not double-apply it.
#[test]
fn regression_cut_on_snapshot_boundary() {
    let instance = generators::poisson(10, 0.8, (0.5, 1.5), 7);
    let plan = sample_plan(&instance, 0.25, 7);
    let config = ServeConfig {
        snapshot_every: Some(2),
        ..ServeConfig::default()
    };
    for cut in [2, 4, 6] {
        check_cut(&instance, &plan, config, cut);
    }
}

/// Corpus scenario 3: eviction under a tiny admission queue with
/// partial progress on the victim (wasted energy must replay bitwise).
#[test]
fn regression_evict_with_partial_progress() {
    let instance = generators::bursty(3, 4, 6.0, 0.3, (0.5, 1.5), 13);
    let plan = sample_plan(&instance, 0.2, 13);
    let config = ServeConfig {
        admission: Some(AdmissionConfig {
            capacity: 2,
            shed: ShedPolicy::EvictOldest,
        }),
        snapshot_every: Some(3),
        ..ServeConfig::default()
    };
    for cut in 1..=8 {
        check_cut(&instance, &plan, config, cut);
    }
}

/// Corpus scenario 4: deadline-aware shedding with an SLO plan on top —
/// `deadline_misses` and `shed_work` must survive the round trip.
#[test]
fn regression_deadline_aware_sheds_replay() {
    let instance = generators::poisson(12, 1.5, (0.5, 1.5), 21);
    let plan = sample_plan(&instance, 0.2, 21).with_slo(4.0);
    let config = ServeConfig {
        admission: Some(AdmissionConfig {
            capacity: 4,
            shed: ShedPolicy::DeadlineAware {
                slo: 4.0,
                service_rate: 1.0,
            },
        }),
        snapshot_every: Some(2),
        ..ServeConfig::default()
    };
    for cut in 1..=8 {
        check_cut(&instance, &plan, config, cut);
    }
}

/// The stateful policy restores from the snapshot (not genesis): after
/// a late cut with a snapshot cadence of 1, the restored server should
/// have strictly fewer decisions to replay than the journal holds.
#[test]
fn snapshot_base_shortens_replay() {
    let model = PolyPower::CUBE;
    let instance = generators::poisson(10, 0.8, (0.5, 1.5), 3);
    let plan = FaultPlan::none();
    let config = ServeConfig {
        snapshot_every: Some(1),
        ..ServeConfig::default()
    };
    let budget = 2.0 * instance.total_work();
    let mut policy = fresh_policy(budget);
    let mut server = Server::new(&instance, &model, &plan, config, Journal::memory()).unwrap();
    assert!(!server.run_for(&mut policy, 8).unwrap());
    let prior = server.journal().contents().unwrap().to_string();
    let total_decisions = prior.matches("\"t\":\"dec\"").count();
    drop(server);

    let mut policy = fresh_policy(budget);
    let restored = Server::restore(
        &instance,
        &model,
        &plan,
        config,
        &prior,
        Journal::memory(),
        &mut policy,
    )
    .unwrap();
    assert!(
        restored.pending_replay() < total_decisions,
        "snapshot base should skip already-captured decisions \
         ({} pending of {total_decisions})",
        restored.pending_replay()
    );
    let served = restored.run(&mut policy).unwrap();
    let want = uninterrupted_digest(&instance, &plan, config);
    assert_eq!(outcome_digest(&served.outcome), want);
}

/// A second crash after a torn tail, on a real file: the first restore
/// appends through `Journal::append`, which must cut the torn bytes so
/// its first record starts a line of its own; the second restore then
/// reads every record and still converges to the uninterrupted bits.
#[test]
fn torn_tail_then_second_crash_on_a_file() {
    let instance = generators::poisson(10, 0.8, (0.5, 1.5), 5);
    let plan = FaultPlan::none();
    let config = ServeConfig::default();
    let model = PolyPower::CUBE;
    let budget = 2.0 * instance.total_work();
    let want = uninterrupted_digest(&instance, &plan, config);
    let path = std::env::temp_dir().join(format!(
        "pas-serve-recovery-torn-{}.journal",
        std::process::id()
    ));

    let mut policy = fresh_policy(budget);
    let journal = Journal::create(&path).unwrap();
    let mut server = Server::new(&instance, &model, &plan, config, journal).unwrap();
    assert!(!server.run_for(&mut policy, 5).unwrap());
    drop(server);
    // The kill lands mid-write: the final record is torn.
    let text = std::fs::read_to_string(&path).unwrap();
    let keep = text.trim_end().rfind('\n').unwrap();
    std::fs::write(&path, &text[..keep + 1 + (text.len() - keep - 1) / 2]).unwrap();

    let restore = |policy: &mut FlowReplanner, journal: Journal| {
        let prior = std::fs::read_to_string(&path).unwrap();
        Server::restore(&instance, &model, &plan, config, &prior, journal, policy).unwrap()
    };
    let mut policy = fresh_policy(budget);
    let mut server = restore(&mut policy, Journal::append(&path).unwrap());
    assert!(!server.run_for(&mut policy, 7).unwrap());
    assert!(server.journal().records_written() > 0, "no live records");
    drop(server);

    let mut policy = fresh_policy(budget);
    let served = restore(&mut policy, Journal::memory()).run(&mut policy);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(outcome_digest(&served.unwrap().outcome), want);
}

/// An inconsistent snapshot is a journal error, never a panic: a live
/// slot past the arena, and every single-digit change to an integer
/// field of the last snapshot (the restore base).
#[test]
fn corrupted_snapshot_integers_never_panic_restore() {
    let model = PolyPower::CUBE;
    let instance = generators::poisson(10, 0.8, (0.5, 1.5), 5);
    let plan = sample_plan(&instance, 0.2, 5);
    let config = ServeConfig {
        snapshot_every: Some(2),
        admission: Some(AdmissionConfig {
            capacity: 3,
            shed: ShedPolicy::EvictOldest,
        }),
        ..ServeConfig::default()
    };
    let budget = 2.0 * instance.total_work();
    let mut policy = fresh_policy(budget);
    let mut server = Server::new(&instance, &model, &plan, config, Journal::memory()).unwrap();
    assert!(!server.run_for(&mut policy, 9).unwrap());
    let text = server.journal().contents().unwrap().to_string();
    drop(server);
    let at = text.rfind(r#"{"t":"snap""#).unwrap();
    let end = at + text[at..].find('\n').unwrap();
    let restore = |text: &str| {
        let mut policy = fresh_policy(budget);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Server::restore(
                &instance,
                &model,
                &plan,
                config,
                text,
                Journal::memory(),
                &mut policy,
            )
            .map(|server| server.pending_replay())
        }))
        .unwrap_or_else(|_| panic!("restore panicked on {}", &text[at..end]))
    };
    assert!(restore(&text).is_ok());

    // The first live slot moved far past the arena.
    let rj = at + text[at..].find(r#""rj":[["#).unwrap() + 7;
    let digits = text[rj..].find(',').unwrap();
    let probe = format!("{}90{}", &text[..rj], &text[rj + digits..]);
    assert!(restore(&probe).is_err());

    // Digits outside quoted strings are the integer fields.
    let mut quoted = false;
    let mut tried = 0;
    for (i, b) in text.bytes().enumerate().take(end).skip(at) {
        quoted ^= b == b'"';
        if quoted || !b.is_ascii_digit() {
            continue;
        }
        for d in (b'0'..=b'9').filter(|&d| d != b) {
            let mut bytes = text.clone().into_bytes();
            bytes[i] = d;
            let _ = restore(&String::from_utf8(bytes).unwrap());
            tried += 1;
        }
    }
    assert!(tried > 200, "{tried}");
}
