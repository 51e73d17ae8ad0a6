//! Differential harness: sharded-arena engine vs. retained reference.
//!
//! The online engine keeps its ready jobs in a data-oriented
//! struct-of-arrays arena ([`ShardedReadySet`]) with deadline-band
//! shard aggregates, keyed by arrival index through a dense lane; the
//! original dense `Vec<PendingJob>` store, with its hash map, survives
//! per the workspace convention as the `*_reference` path. Both stores
//! drive the *same generic event loop* (`EngineState<R>`), so this
//! suite proves the two storage layouts are
//! observationally indistinguishable — **bit-identical**
//! [`outcome_digest`]s across:
//!
//! * plain event streams, over the whole policy roster (including the
//!   new qOA/BKP policies, which read the band aggregates);
//! * seeded fault plans (crashes both semantics, cancels, throttles,
//!   arrival bursts);
//! * admission-gated runs (every shed policy), driven through the
//!   general entry `run_online_pooled` with one `EngineScratch` reused
//!   across every run — the path the fleet executor takes;
//! * crash/restore cuts through the serving layer — the v2 journal
//!   snapshot encodes the arena (slots, free list, queue, band
//!   ledger), and a restored server must land on the same bits as an
//!   uninterrupted run on the *reference* store;
//! * an n-doubling ladder pinning the new policies' empirical E13
//!   competitive ratio flat (bounded, non-growing) where SpendAll's
//!   grows;
//! * the effective instance, which the engine builds from its per-job
//!   table, against one rebuilt from the schedule by
//!   `metrics::executed_work_by_job`.
//!
//! [`ShardedReadySet`]: power_aware_scheduling::sim::ShardedReadySet
//! [`outcome_digest`]: power_aware_scheduling::sim::outcome_digest

use power_aware_scheduling::online::{
    compare_online, AdaptiveRate, Bkp, FlowReplanner, FractionalSpend, Qoa, SpendAll,
};
use power_aware_scheduling::power::PolyPower;
use power_aware_scheduling::sim::online::{AdmissionConfig, OnlinePolicy, ShedPolicy};
use power_aware_scheduling::sim::{
    metrics, outcome_digest, run_online_pooled, run_online_reference, run_online_with_faults,
    EngineScratch, FaultKind, FaultModel, FaultPlan, Journal, OnlineOutcome, ServeConfig, Server,
};
use power_aware_scheduling::workload::{generators, strategies, Instance};
use proptest::prelude::*;
use std::collections::HashMap;

/// Fresh-constructor roster: policies are stateful across a run, so
/// every engine gets its own instance built from the same parameters.
#[allow(clippy::type_complexity)]
fn roster(budget: f64) -> Vec<(&'static str, Box<dyn Fn() -> Box<dyn OnlinePolicy>>)> {
    let model = PolyPower::CUBE;
    vec![
        (
            "spend-all",
            Box::new(move || Box::new(SpendAll::new(model, budget)) as Box<dyn OnlinePolicy>),
        ),
        (
            "fractional",
            Box::new(move || Box::new(FractionalSpend::new(model, budget, 0.5))),
        ),
        (
            "adaptive",
            Box::new(move || Box::new(AdaptiveRate::new(model, budget, 10.0))),
        ),
        (
            "qoa",
            Box::new(move || Box::new(Qoa::new(model, 1.5, 3.0, 8.0))),
        ),
        ("bkp", Box::new(|| Box::new(Bkp::default()))),
        (
            "flow-replanner",
            Box::new(move || Box::new(FlowReplanner::new(3.0, budget, 16))),
        ),
    ]
}

fn sample_plan(instance: &Instance, rate: f64, seed: u64) -> FaultPlan {
    if rate <= 0.0 {
        return FaultPlan::none();
    }
    let horizon = instance.last_release() + instance.total_work();
    let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
    FaultModel::uniform_mix(rate)
        .with_event_budget(24.0, horizon)
        .sample(horizon, &ids, seed)
}

/// The effective instance the engine builds from its per-job table
/// equals one rebuilt from the schedule by
/// `metrics::executed_work_by_job` (the oracle): the same ids, releases
/// and work bits. Burst releases are re-derived the way the engine
/// materializes them: fresh ids after the largest, in plan order.
fn assert_effective_matches_schedule(instance: &Instance, plan: &FaultPlan, out: &OnlineOutcome) {
    let mut releases: HashMap<u32, f64> =
        instance.jobs().iter().map(|j| (j.id, j.release)).collect();
    let mut next_id = releases.keys().max().map_or(0, |m| m + 1);
    for ev in plan.events() {
        if let FaultKind::ArrivalBurst { jobs } = &ev.kind {
            for b in jobs {
                releases.insert(next_id, ev.at + b.offset);
                next_id += 1;
            }
        }
    }
    let bits = |id: u32, release: f64, work: f64| (id, release.to_bits(), work.to_bits());
    let mut want: Vec<_> = metrics::executed_work_by_job(&out.schedule)
        .into_iter()
        .filter(|&(_, w)| w > 0.0)
        .map(|(id, w)| bits(id, releases[&id], w))
        .collect();
    want.sort_unstable();
    let mut got: Vec<_> = out.effective.as_ref().map_or(Vec::new(), |e| {
        e.jobs()
            .iter()
            .map(|j| bits(j.id, j.release, j.work))
            .collect()
    });
    got.sort_unstable();
    assert_eq!(got, want, "effective instance differs from the schedule's");
}

/// Assert the arena and reference engines agree to the bit on one
/// (instance, plan) under every roster policy, and that the effective
/// instance matches the schedule.
fn assert_equivalent(instance: &Instance, plan: &FaultPlan) {
    let model = PolyPower::CUBE;
    let budget = 2.0 * instance.total_work();
    for (name, fresh) in roster(budget) {
        let mut arena_policy = fresh();
        let mut reference_policy = fresh();
        let a = run_online_with_faults(instance, &model, arena_policy.as_mut(), plan)
            .unwrap_or_else(|e| panic!("{name}: arena run failed: {e}"));
        let b = run_online_reference(instance, &model, reference_policy.as_mut(), plan, None)
            .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
        assert_effective_matches_schedule(instance, plan, &a);
        assert_eq!(
            outcome_digest(&a),
            outcome_digest(&b),
            "{name}: arena and reference digests diverged"
        );
        assert_eq!(
            a.energy.to_bits(),
            b.energy.to_bits(),
            "{name}: energy bits diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arena_matches_reference_on_plain_streams(
        instance in strategies::instances(10),
    ) {
        assert_equivalent(&instance, &FaultPlan::none());
    }

    #[test]
    fn arena_matches_reference_under_faults(
        instance in strategies::instances(10),
        rate in 0f64..0.4,
        seed in 0u64..1_000,
    ) {
        let plan = sample_plan(&instance, rate, seed);
        assert_equivalent(&instance, &plan);
    }

    #[test]
    fn arena_matches_reference_under_admission_gating(
        instance in strategies::instances(10),
        capacity in 1usize..6,
        rate in 0f64..0.3,
        seed in 0u64..1_000,
    ) {
        let model = PolyPower::CUBE;
        let plan = sample_plan(&instance, rate, seed);
        let budget = 2.0 * instance.total_work();
        // One scratch for every run of the case: each run inherits the
        // arena and arrival buffer the previous one left behind.
        let mut scratch = EngineScratch::new();
        for shed in [
            ShedPolicy::RejectNewest,
            ShedPolicy::EvictOldest,
            ShedPolicy::DeadlineAware { slo: 4.0, service_rate: 1.0 },
        ] {
            let admission = Some(AdmissionConfig { capacity, shed });
            for (name, fresh) in roster(budget) {
                let mut pa = fresh();
                let mut pb = fresh();
                let a = run_online_pooled(&instance, &model, pa.as_mut(), &plan, admission, &mut scratch)
                    .unwrap_or_else(|e| panic!("{name}: gated arena run failed: {e}"));
                let b = run_online_reference(&instance, &model, pb.as_mut(), &plan, admission)
                    .unwrap_or_else(|e| panic!("{name}: gated reference run failed: {e}"));
                assert_effective_matches_schedule(&instance, &plan, &a);
                prop_assert!(
                    outcome_digest(&a) == outcome_digest(&b),
                    "{} under {:?} diverged", name, shed
                );
                prop_assert!(
                    a.energy.to_bits() == b.energy.to_bits(),
                    "{} under {:?}: energy bits diverged", name, shed
                );
            }
        }
    }
}

/// Crash/restore cuts close the loop through the v2 journal: kill the
/// arena-backed server mid-run, restore from the journal it flushed,
/// and land on the same bits as the *reference* engine's uninterrupted
/// run — so the snapshot codec (slots, free list, queue order, band
/// ledger) is exercised against the independent storage layout, not
/// against itself.
#[test]
fn crash_restore_cuts_match_the_reference_engine() {
    let model = PolyPower::CUBE;
    for seed in 0..3u64 {
        let instance = generators::poisson(10, 0.8, (0.5, 1.5), seed);
        let plan = sample_plan(&instance, 0.2, seed.wrapping_mul(0x51ed));
        let budget = 2.0 * instance.total_work();
        let config = ServeConfig {
            admission: None,
            snapshot_every: Some(2),
            watchdog: None,
            record_latency: false,
        };
        // Independent ground truth: the reference engine, no serving
        // layer involved.
        let mut reference_policy = FlowReplanner::new(3.0, budget, 32);
        let want = outcome_digest(
            &run_online_reference(&instance, &model, &mut reference_policy, &plan, None).unwrap(),
        );
        for cut in [1u64, 3, 7] {
            let mut policy = FlowReplanner::new(3.0, budget, 32);
            let mut server =
                Server::new(&instance, &model, &plan, config, Journal::memory()).unwrap();
            let done = server.run_for(&mut policy, cut).unwrap();
            let served = if done {
                server.finish().unwrap()
            } else {
                let prior = server.journal().contents().unwrap().to_string();
                drop(server);
                let mut policy = FlowReplanner::new(3.0, budget, 32);
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
                restored.run(&mut policy).unwrap()
            };
            assert_eq!(
                outcome_digest(&served.outcome),
                want,
                "seed {seed} cut {cut}: restored arena diverged from reference"
            );
        }
    }
}

/// Empirical E13 ratio of a fresh policy at instance size `n`.
fn ratio_at(n: usize, fresh: &dyn Fn(f64) -> Box<dyn OnlinePolicy>, seed: u64) -> f64 {
    let model = PolyPower::CUBE;
    let instance = generators::poisson(n, 0.8, (0.5, 1.5), seed);
    let budget = 1.5 * instance.total_work();
    let mut policy = fresh(budget);
    compare_online(&instance, &model, budget, policy.as_mut())
        .expect("comparison succeeds")
        .ratio
}

/// The headline property: qOA's and BKP's competitive ratios are flat
/// (bounded, non-growing within tolerance) across an n-doubling
/// ladder, while the global-energy-share policies degrade —
/// AdaptiveRate's ratio *grows* with `n` (its fixed extrapolation
/// horizon reserves too little as the arrival stream lengthens), and
/// SpendAll is already saturated at the floor-speed crawl (ratio five
/// orders of magnitude above the flat policies at every rung). The
/// bench (`BENCH_policies.json`, E13 extension) records the same
/// ladder at production sizes.
#[test]
fn flat_ratio_ladder_separates_local_from_global_policies() {
    let model = PolyPower::CUBE;
    let sizes = [250usize, 500, 1000, 2000];
    let mut table: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, fresh) in [
        (
            "qoa",
            // The ladder budget is 1.5× total work, so the per-work
            // allowance matching it is exactly 1.5.
            Box::new(|_b: f64| Box::new(Qoa::new(model, 1.5, 3.0, 8.0)) as Box<dyn OnlinePolicy>)
                as Box<dyn Fn(f64) -> Box<dyn OnlinePolicy>>,
        ),
        ("bkp", Box::new(|_b: f64| Box::new(Bkp::default()))),
        (
            "adaptive",
            Box::new(|b: f64| Box::new(AdaptiveRate::new(model, b, 10.0))),
        ),
        (
            "spend-all",
            Box::new(|b: f64| Box::new(SpendAll::new(model, b))),
        ),
    ] {
        let ratios: Vec<f64> = sizes.iter().map(|&n| ratio_at(n, &fresh, 3)).collect();
        table.push((name, ratios));
    }
    for (name, ratios) in &table {
        eprintln!("{name}: {ratios:?}");
        let (first, last) = (ratios[0], ratios[ratios.len() - 1]);
        match *name {
            "adaptive" => {
                // The fixed-horizon hedger measurably degrades as the
                // stream lengthens: the ladder at least doubles it.
                assert!(
                    last > 2.0 * first,
                    "adaptive-rate should grow across the ladder: {ratios:?}"
                );
            }
            "spend-all" => {
                // Saturated: every rung crawls the tail at MIN_SPEED.
                for &r in ratios {
                    assert!(r > 1_000.0, "spend-all should crawl: {ratios:?}");
                }
            }
            _ => {
                // Flat: bounded by a small constant at every rung, and
                // the final rung no worse than a modest factor of the
                // first (non-growing up to sampling noise).
                for &r in ratios {
                    assert!(r < 10.0, "{name} ratio unbounded: {ratios:?}");
                }
                assert!(
                    last <= first * 1.35 + 0.05,
                    "{name} ratio grows across the ladder: {ratios:?}"
                );
            }
        }
    }
}
