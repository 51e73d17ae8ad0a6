//! Equivalence oracle for the block-decomposition flow solver.
//!
//! `solve_for_u()` (forward contact sweep + exact per-segment cascade
//! DP) must agree with `solve_for_u_reference()` (the damped Gauss–
//! Seidel fixed point, kept verbatim) to `1e-9` relative energy *and*
//! flow on every instance family — Poisson arrivals (sparse through
//! saturating rates), clustered releases (bursts of simultaneous jobs,
//! stressing segment resolution), all-simultaneous (one pure-Push
//! block), and well-separated jobs (every block a tail-`u` singleton).
//! The outer laptop searches (`laptop` vs `laptop_reference`) are held
//! to the same agreement, including across the `flow::hardness`
//! boundary-configuration window where the optimal configuration
//! signature changes — the mirror of `yds_equivalence.rs` for the flow
//! stack.
//!
//! A workspace that has already decomposed other `u` takes the
//! configuration walk; it must return exactly (`==`) the blocks a fresh
//! workspace's full sweep returns, along monotone, jittered and
//! configuration-crossing `u` sequences.

use power_aware_scheduling::flow::hardness;
use power_aware_scheduling::flow::solver::{
    laptop, laptop_reference, solve_for_u, solve_for_u_reference, FlowWorkspace,
};
use power_aware_scheduling::workload::strategies;
use power_aware_scheduling::workload::{generators, Instance};
use proptest::prelude::*;

/// Relative energy/flow agreement required between the two engines.
const TOL: f64 = 1e-9;

fn check_u(inst: &Instance, alpha: f64, u: f64, label: &str) {
    let fast = solve_for_u(inst, alpha, u)
        .unwrap_or_else(|e| panic!("{label} u={u}: block engine failed: {e}"));
    let slow = solve_for_u_reference(inst, alpha, u)
        .unwrap_or_else(|e| panic!("{label} u={u}: reference engine failed: {e}"));
    assert!(
        (fast.energy - slow.energy).abs() <= TOL * slow.energy.max(1e-12),
        "{label} u={u}: energy {} vs {}",
        fast.energy,
        slow.energy
    );
    assert!(
        (fast.total_flow - slow.total_flow).abs() <= TOL * slow.total_flow.max(1e-12),
        "{label} u={u}: flow {} vs {}",
        fast.total_flow,
        slow.total_flow
    );
    // Both profiles independently satisfy Theorem 1.
    assert!(fast.kkt.max_residual < 1e-6, "{label}: block KKT residual");
    assert!(slow.kkt.max_residual < 1e-6, "{label}: ref KKT residual");
}

fn check_laptop(inst: &Instance, alpha: f64, budget: f64, label: &str) {
    let fast = laptop(inst, alpha, budget, 1e-11)
        .unwrap_or_else(|e| panic!("{label} E={budget}: block laptop failed: {e}"));
    let slow = laptop_reference(inst, alpha, budget, 1e-11)
        .unwrap_or_else(|e| panic!("{label} E={budget}: reference laptop failed: {e}"));
    assert!(
        (fast.energy - slow.energy).abs() <= 1e-8 * budget,
        "{label} E={budget}: energy {} vs {}",
        fast.energy,
        slow.energy
    );
    assert!(
        (fast.total_flow - slow.total_flow).abs() <= 1e-7 * slow.total_flow,
        "{label} E={budget}: flow {} vs {}",
        fast.total_flow,
        slow.total_flow
    );
}

/// Clustered releases: bursts of simultaneous jobs separated by small
/// gaps — the adversarial case for segment resolution (many violated
/// boundaries per contact segment).
fn clustered_instance(seed: u64) -> Instance {
    let mut releases = Vec::new();
    let mut t = 0.0;
    for g in 0..7u64 {
        t += 0.25 + 0.2 * ((seed * 13 + g * 7) % 9) as f64;
        for _ in 0..(1 + (seed + g) % 4) {
            releases.push(t);
        }
    }
    Instance::equal_work(&releases, 1.0).expect("valid releases")
}

#[test]
fn poisson_families_agree() {
    for seed in 0..25 {
        for &rate in &[0.4, 1.5, 6.0] {
            let inst = generators::equal_work_poisson(22, rate, 1.0, seed);
            for &u in &[0.2, 1.0, 3.7] {
                check_u(&inst, 3.0, u, &format!("poisson rate {rate} seed {seed}"));
            }
        }
    }
}

#[test]
fn clustered_release_families_agree() {
    for seed in 0..20 {
        let inst = clustered_instance(seed);
        for &u in &[0.3, 1.1, 5.0] {
            check_u(&inst, 3.0, u, &format!("clustered seed {seed}"));
        }
        check_laptop(
            &inst,
            3.0,
            1.7 * inst.total_work(),
            &format!("clustered seed {seed}"),
        );
    }
}

#[test]
fn simultaneous_and_separated_extremes_agree() {
    for n in [1usize, 2, 7, 40] {
        let all_zero = Instance::equal_work(&vec![0.0; n], 1.0).unwrap();
        check_u(&all_zero, 3.0, 1.3, &format!("simultaneous n={n}"));
        let sparse: Vec<f64> = (0..n).map(|i| 40.0 * i as f64).collect();
        let sparse = Instance::equal_work(&sparse, 1.0).unwrap();
        check_u(&sparse, 3.0, 1.3, &format!("separated n={n}"));
    }
}

#[test]
fn alpha_two_agrees() {
    for seed in 0..10 {
        let inst = generators::equal_work_poisson(18, 2.0, 1.0, seed);
        for &u in &[0.5, 2.0] {
            check_u(&inst, 2.0, u, &format!("alpha=2 seed {seed}"));
        }
    }
}

#[test]
fn hardness_window_budgets_agree_across_signature_changes() {
    // Budgets straddling the measured boundary-configuration window
    // [≈10.32, ≈11.54] of the Theorem-8 witness: the optimal signature
    // walks PP → P= → PG, and the engines must agree in all three
    // regimes and near both configuration-change energies.
    let inst = hardness::witness_instance();
    let (lo, hi) = hardness::measured_boundary_window();
    for budget in [
        5.0,
        9.0,
        lo - 1e-3,
        lo + 1e-3,
        11.0,
        hi - 1e-3,
        hi + 1e-3,
        20.0,
    ] {
        check_laptop(&inst, 3.0, budget, "hardness witness");
    }
    // The signatures really do change across the window.
    let sig = |e: f64| laptop(&inst, 3.0, e, 1e-11).unwrap().kkt.signature();
    assert_eq!(sig(9.0), "PP");
    assert_eq!(sig(11.0), "P=");
    assert_eq!(sig(20.0), "PG");
}

/// Decompose `us` in order on one warm workspace, each against a fresh
/// workspace's decomposition at the same `u`.
fn check_walk(inst: &Instance, alpha: f64, us: &[f64]) -> Result<(), String> {
    let warm = FlowWorkspace::new(inst, alpha).unwrap();
    for &u in us {
        let got = warm.decompose(u).unwrap();
        let want = FlowWorkspace::new(inst, alpha)
            .unwrap()
            .decompose(u)
            .unwrap();
        if got != want {
            return Err(format!("u={u}: warm {got:?} vs fresh {want:?}"));
        }
    }
    Ok(())
}

/// `count` values rising geometrically from `u0` by `growth` overall, and
/// the same values jittered alternately up and down by `jitter` — the
/// shape of a bracketing Newton search.
fn u_sequences(u0: f64, growth: f64, jitter: f64, count: usize) -> [Vec<f64>; 2] {
    let monotone: Vec<f64> = (0..count)
        .map(|k| u0 * growth.powf(k as f64 / (count - 1) as f64))
        .collect();
    let jittered = monotone
        .iter()
        .enumerate()
        .map(|(k, u)| u * (1.0 + if k % 2 == 0 { jitter } else { -0.7 * jitter }))
        .collect();
    [monotone, jittered]
}

#[test]
fn walk_crosses_the_hardness_window_like_a_fresh_sweep() {
    // u across the Theorem-8 witness's boundary window (PP → P= → PG),
    // both ways, and hugging both configuration changes.
    let inst = hardness::witness_instance();
    let (lo, hi) = hardness::measured_boundary_window();
    let u_at = |e: f64| laptop(&inst, 3.0, e, 1e-13).unwrap().u;
    let (u_lo, u_hi) = (u_at(lo), u_at(hi));
    let mut us: Vec<f64> = (0..=60)
        .map(|k| 0.5 * u_lo * (4.0 * u_hi / u_lo).powf(k as f64 / 60.0))
        .collect();
    for edge in [u_lo, u_hi] {
        us.extend([-1e-6, 1e-9, -1e-12, 0.0, 1e-12, -1e-9, 1e-6].map(|d| edge * (1.0 + d)));
    }
    check_walk(&inst, 3.0, &us).unwrap();
    us.reverse();
    check_walk(&inst, 3.0, &us).unwrap();
}

#[test]
fn walk_follows_a_poisson_curve_like_a_fresh_sweep() {
    for seed in 0..6 {
        let inst = generators::equal_work_poisson(300, 1.5, 1.0, seed);
        for us in u_sequences(0.05, 400.0, 0.05, 80) {
            check_walk(&inst, 3.0, &us).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_equal_work_instances_agree(
        instance in strategies::equal_work_instances(16),
        u in 0.05f64..8.0,
    ) {
        let fast = solve_for_u(&instance, 3.0, u).unwrap();
        let slow = solve_for_u_reference(&instance, 3.0, u).unwrap();
        prop_assert!(
            (fast.energy - slow.energy).abs() <= TOL * slow.energy.max(1e-12),
            "energy {} vs {}", fast.energy, slow.energy
        );
        prop_assert!(
            (fast.total_flow - slow.total_flow).abs() <= TOL * slow.total_flow.max(1e-12),
            "flow {} vs {}", fast.total_flow, slow.total_flow
        );
    }

    #[test]
    fn arbitrary_laptop_budgets_agree(
        instance in strategies::equal_work_instances(12),
        scale in 0.4f64..4.0,
    ) {
        let budget = scale * instance.total_work();
        let fast = laptop(&instance, 3.0, budget, 1e-11).unwrap();
        let slow = laptop_reference(&instance, 3.0, budget, 1e-11).unwrap();
        prop_assert!((fast.energy - slow.energy).abs() <= 1e-8 * budget);
        prop_assert!(
            (fast.total_flow - slow.total_flow).abs() <= 1e-7 * slow.total_flow,
            "flow {} vs {}", fast.total_flow, slow.total_flow
        );
    }

    #[test]
    fn warm_workspace_decomposes_like_a_fresh_one(
        instance in strategies::equal_work_instances(24),
        grid in 0.0f64..12.0,
        u0 in 0.05f64..8.0,
        growth in 0.02f64..50.0,
        jitter in 0.0f64..0.3,
        alpha in 2.0f64..3.5,
    ) {
        // Snapping releases to a grid of step >= 1 makes many of them
        // simultaneous.
        let instance = if grid < 1.0 {
            instance
        } else {
            let releases: Vec<f64> = instance
                .jobs()
                .iter()
                .map(|j| (j.release / grid).floor() * grid)
                .collect();
            Instance::equal_work(&releases, instance.work(0)).unwrap()
        };
        for us in u_sequences(u0, growth, jitter, 24) {
            let walked = check_walk(&instance, alpha, &us);
            prop_assert!(walked.is_ok(), "{walked:?}");
        }
    }
}
