//! Resilience integration tests spanning the fault engine and the
//! solver degradation ladder.
//!
//! The proptests fuzz the online engine across the full fault matrix —
//! crash/recover (both semantics), cancellation, throttling, arrival
//! bursts, and the mixed model — on uniform, clustered, and Poisson
//! workloads, asserting the engine never panics, every surviving
//! schedule validates against the reported *effective* instance, and
//! the [`ResilienceReport`](power_aware_scheduling::sim::ResilienceReport)
//! counters stay internally consistent.
//!
//! The budget tests drive `min_norm_assignment_budgeted` on a
//! known-hard quantized-work witness (the `levels ≤ 6` family the B&B
//! PR documented as its adversarial case): a wall budget must come back
//! within roughly twice the requested time with a valid incumbent and a
//! non-negative certified gap, a zero budget must return the seed
//! incumbent immediately, and a huge budget must be bit-identical to
//! the unbudgeted exact path.

use std::time::{Duration, Instant};

use power_aware_scheduling::budget::{Budgeted, SolveBudget};
use power_aware_scheduling::multi::partition::{min_norm_assignment, min_norm_assignment_budgeted};
use power_aware_scheduling::online::{AdaptiveRate, FractionalSpend, SpendAll};
use power_aware_scheduling::power::PolyPower;
use power_aware_scheduling::sim::online::OnlinePolicy;
use power_aware_scheduling::sim::{run_online_with_faults, FaultModel, FaultPlan};
use power_aware_scheduling::workload::{generators, Instance};
use proptest::prelude::*;

/// The three workload families of the fault matrix.
fn workload(kind: usize, n: usize, seed: u64) -> Instance {
    match kind % 3 {
        0 => generators::uniform(n, n as f64 / 2.0, (0.5, 1.5), seed),
        1 => generators::bursty(3, n.div_ceil(3), n as f64 / 3.0, 0.5, (0.5, 1.5), seed),
        _ => generators::poisson(n, 0.8, (0.5, 1.5), seed),
    }
}

fn policy(kind: usize, budget: f64) -> Box<dyn OnlinePolicy> {
    let model = PolyPower::CUBE;
    match kind % 3 {
        0 => Box::new(SpendAll::new(model, budget)),
        1 => Box::new(FractionalSpend::new(model, budget, 0.5)),
        _ => Box::new(AdaptiveRate::new(model, budget, 10.0)),
    }
}

/// A model firing only one fault kind, at the given rate.
fn single_kind_model(kind: usize, rate: f64) -> FaultModel {
    let mut m = FaultModel::calm();
    match kind % 4 {
        0 => m.crash_rate = rate,
        1 => m.cancel_rate = rate,
        2 => m.throttle_rate = rate,
        _ => m.burst_rate = rate,
    }
    m
}

/// Shared outcome checks: validation against the effective instance and
/// internal consistency of the resilience counters.
fn check_outcome(
    instance: &Instance,
    plan: &FaultPlan,
    policy_kind: usize,
) -> Result<(), TestCaseError> {
    let budget = 2.0 * instance.total_work();
    let mut policy = policy(policy_kind, budget);
    let out = run_online_with_faults(instance, &PolyPower::CUBE, policy.as_mut(), plan)
        .expect("faulted run succeeds");
    prop_assert!(out.energy.is_finite() && out.energy >= 0.0);
    if let Some(eff) = out.effective.as_ref() {
        out.schedule
            .validate(eff, 1e-6)
            .expect("schedule validates against the effective instance");
    } else {
        prop_assert!(
            out.schedule.completion_times().is_empty(),
            "no effective instance implies nothing was executed"
        );
    }
    let r = &out.resilience;
    prop_assert!(r.downtime >= 0.0);
    prop_assert!(r.lost_work >= 0.0);
    prop_assert!(r.wasted_energy >= 0.0);
    prop_assert!(r.wasted_energy <= out.energy + 1e-9);
    prop_assert!(r.recovery_latencies.len() <= r.crashes);
    prop_assert!(r.recovery_latencies.iter().all(|&l| l >= 0.0));
    prop_assert!(r.max_recovery_latency() >= 0.0);
    if r.downtime > 0.0 {
        prop_assert!(r.crashes > 0);
    }
    prop_assert!(r.cancelled_jobs <= instance.len());
    if let Some(misses) = r.deadline_misses {
        prop_assert!(misses <= instance.len() + r.burst_jobs);
    }
    // Every base job is delivered unless cancelled and burst jobs all
    // complete; jobs cancelled after partial progress still leave
    // slices, so they may appear in the completion map too.
    let touched = out.schedule.completion_times().len();
    prop_assert!(touched >= instance.len() + r.burst_jobs - r.cancelled_jobs);
    prop_assert!(touched <= instance.len() + r.burst_jobs);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mixed_fault_matrix_never_breaks_the_engine(
        wkind in 0usize..3,
        pkind in 0usize..3,
        n in 4usize..16,
        seed in 0u64..1000,
        rate in 0.05f64..0.6,
    ) {
        let instance = workload(wkind, n, seed);
        let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
        let horizon = instance.last_release() + instance.total_work();
        let plan = FaultModel::uniform_mix(rate)
            .sample(horizon, &ids, seed.wrapping_add(0xfa))
            .with_slo(1.0 + instance.total_work());
        check_outcome(&instance, &plan, pkind)?;
    }

    #[test]
    fn each_fault_kind_in_isolation(
        fkind in 0usize..4,
        wkind in 0usize..3,
        pkind in 0usize..3,
        n in 4usize..12,
        seed in 0u64..1000,
        rate in 0.1f64..0.5,
    ) {
        let instance = workload(wkind, n, seed);
        let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
        let horizon = instance.last_release() + instance.total_work();
        let plan = single_kind_model(fkind, rate).sample(horizon, &ids, seed);
        let budget = 2.0 * instance.total_work();
        let mut p = policy(pkind, budget);
        let out = run_online_with_faults(&instance, &PolyPower::CUBE, p.as_mut(), &plan)
            .expect("faulted run succeeds");
        let r = &out.resilience;
        // Only the selected kind may leave a footprint.
        match fkind % 4 {
            0 => {
                prop_assert!(
                    r.cancelled_jobs == 0 && r.burst_jobs == 0 && r.throttle_clamps == 0
                );
            }
            1 => {
                prop_assert!(
                    r.crashes == 0 && r.burst_jobs == 0 && r.throttle_clamps == 0
                        && r.downtime == 0.0
                );
            }
            2 => {
                prop_assert!(
                    r.crashes == 0 && r.cancelled_jobs == 0 && r.burst_jobs == 0
                        && r.lost_work == 0.0
                );
            }
            _ => {
                prop_assert!(
                    r.crashes == 0 && r.cancelled_jobs == 0 && r.throttle_clamps == 0
                );
            }
        }
        if let Some(eff) = out.effective.as_ref() {
            out.schedule.validate(eff, 1e-6).expect("validates");
        }
    }

    #[test]
    fn seeded_fault_plans_replay_bit_identically(
        wkind in 0usize..3,
        n in 4usize..10,
        seed in 0u64..500,
        rate in 0.1f64..0.5,
    ) {
        let instance = workload(wkind, n, seed);
        let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
        let horizon = instance.last_release() + instance.total_work();
        let model = FaultModel::uniform_mix(rate);
        let a = model.sample(horizon, &ids, seed);
        let b = model.sample(horizon, &ids, seed);
        prop_assert_eq!(a.len(), b.len());
        let budget = 2.0 * instance.total_work();
        let mut p1 = policy(1, budget);
        let mut p2 = policy(1, budget);
        let o1 = run_online_with_faults(&instance, &PolyPower::CUBE, p1.as_mut(), &a).unwrap();
        let o2 = run_online_with_faults(&instance, &PolyPower::CUBE, p2.as_mut(), &b).unwrap();
        prop_assert_eq!(o1.energy.to_bits(), o2.energy.to_bits());
        prop_assert_eq!(o1.resilience, o2.resilience);
    }
}

// ---------------------------------------------------------------------
// Solver degradation ladder: budgeted branch and bound.
// ---------------------------------------------------------------------

/// The quantized-work witness family from the B&B acceptance sweep:
/// `0.5 + (3.0/levels)·(lcg(seed)>>33 mod levels)`. Coarse grids
/// (`levels ≤ 6`) repeat works, which the exact search's identical-job
/// dominance collapses; fine grids (`levels ≈ 1000`) make nearly every
/// work distinct, the hard case for the branch and bound.
fn quantized_works(n: usize, levels: u64, seed: u64) -> Vec<f64> {
    let step = 3.0 / levels as f64;
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            0.5 + step * ((state >> 33) % levels) as f64
        })
        .collect()
}

/// The realized `L_α`-norm of an assignment.
fn realized_norm(works: &[f64], labels: &[usize], m: usize, alpha: f64) -> f64 {
    let mut loads = vec![0.0f64; m];
    for (w, &l) in works.iter().zip(labels) {
        assert!(l < m, "label out of range");
        loads[l] += w;
    }
    loads.iter().map(|l| l.powf(alpha)).sum()
}

#[test]
fn wall_budget_degrades_within_twice_the_budget() {
    // Hard witness: fine grid, many jobs — nearly every work is
    // distinct, so identical-job dominance cannot collapse the search
    // and it needs far longer than the 150ms budget.
    let works = quantized_works(40, 1000, 7);
    let (m, alpha) = (10, 3.0);
    let budget = SolveBudget {
        wall: Some(Duration::from_millis(150)),
        nodes: None,
    };
    let t0 = Instant::now();
    let out = min_norm_assignment_budgeted(&works, m, alpha, &budget);
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(300),
        "budgeted solve overshot: {elapsed:?} for a 150ms budget"
    );
    match out {
        Budgeted::Degraded(d) => {
            let (labels, norm) = &d.value;
            assert_eq!(labels.len(), works.len());
            let realized = realized_norm(&works, labels, m, alpha);
            assert!(
                (realized - norm).abs() < 1e-6 * norm.max(1.0),
                "incumbent norm {norm} does not match its labels ({realized})"
            );
            assert!(d.bound_gap >= 0.0, "negative certified gap {}", d.bound_gap);
            assert!(
                d.lower_bound <= *norm + 1e-9,
                "lower bound {} above incumbent {norm}",
                d.lower_bound
            );
        }
        Budgeted::Exact(_) => panic!("40-job fine-grid witness finished exactly in 150ms"),
    }
}

#[test]
fn zero_budget_returns_the_seed_incumbent_immediately() {
    let works = quantized_works(30, 4, 11);
    let (m, alpha) = (8, 3.0);
    let budget = SolveBudget {
        wall: None,
        nodes: Some(0),
    };
    let t0 = Instant::now();
    let out = min_norm_assignment_budgeted(&works, m, alpha, &budget);
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "zero-node budget must return immediately"
    );
    let d = out.degradation().expect("zero budget always degrades");
    assert_eq!(d.nodes, 0);
    let (labels, norm) = &d.value;
    let realized = realized_norm(&works, labels, m, alpha);
    assert!((realized - norm).abs() < 1e-6 * norm.max(1.0));
    assert!(d.bound_gap >= 0.0);
}

#[test]
fn huge_budget_is_bit_identical_to_the_unbudgeted_path() {
    let works = quantized_works(16, 4, 3);
    let (m, alpha) = (4, 3.0);
    let budget = SolveBudget {
        wall: Some(Duration::from_secs(3600)),
        nodes: Some(u64::MAX),
    };
    let budgeted = min_norm_assignment_budgeted(&works, m, alpha, &budget);
    let (labels, norm) = min_norm_assignment(&works, m, alpha);
    match budgeted {
        Budgeted::Exact((blabels, bnorm)) => {
            assert_eq!(blabels, labels);
            assert_eq!(bnorm.to_bits(), norm.to_bits());
        }
        Budgeted::Degraded(_) => panic!("a huge budget must not degrade"),
    }
}

#[test]
fn node_budgets_certify_the_true_optimum() {
    // The certificate must be sound: lower_bound ≤ the true optimum at
    // every budget, and the gap shrinks to zero as the budget grows.
    let works = quantized_works(14, 4, 5);
    let (m, alpha) = (4, 3.0);
    let (_, opt) = min_norm_assignment(&works, m, alpha);
    for nodes in [1u64, 32, 1024, 65_536] {
        let budget = SolveBudget {
            wall: None,
            nodes: Some(nodes),
        };
        match min_norm_assignment_budgeted(&works, m, alpha, &budget) {
            Budgeted::Exact((_, norm)) => {
                assert_eq!(norm.to_bits(), opt.to_bits(), "nodes={nodes}")
            }
            Budgeted::Degraded(d) => {
                assert!(d.nodes <= nodes, "nodes={nodes}");
                assert!(
                    d.lower_bound <= opt + 1e-9 * opt.max(1.0),
                    "unsound certificate at nodes={nodes}: lower {} vs opt {opt}",
                    d.lower_bound
                );
                assert!(d.value.1 + 1e-12 >= opt, "incumbent beat the optimum");
                assert!(d.bound_gap >= 0.0);
            }
        }
    }
}
