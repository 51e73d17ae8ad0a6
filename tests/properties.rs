//! Property-based integration tests (proptest) spanning the workspace.
//!
//! These fuzz the core structural theorems over the shared instance
//! strategies from `pas-workload`:
//!
//! * Lemmas 2–6 invariants of `IncMerge` output on arbitrary instances;
//! * frontier consistency (monotone, convex, agrees with `IncMerge`);
//! * laptop/server duality;
//! * Theorem-1 KKT residuals of the flow solver;
//! * schedule validation round trips.

use power_aware_scheduling::flow;
use power_aware_scheduling::makespan;
use power_aware_scheduling::prelude::*;
use power_aware_scheduling::workload::strategies;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incmerge_output_satisfies_lemmas(
        instance in strategies::instances(12),
        budget in 0.5f64..50.0,
    ) {
        let model = PolyPower::CUBE;
        let blocks = makespan::laptop(&instance, &model, budget).unwrap();
        // Lemma 7's five properties, checked structurally:
        blocks.verify_structure(&instance, 1e-6).unwrap();
        // The whole budget is spent (optimality requires it).
        let e = blocks.energy(&model);
        prop_assert!((e - budget).abs() < 1e-5 * budget.max(1.0));
        // The materialized schedule is legal.
        blocks.to_schedule(&instance).validate(&instance, 1e-5).unwrap();
    }

    #[test]
    fn frontier_agrees_with_incmerge(
        instance in strategies::instances(10),
        budget in 0.5f64..40.0,
    ) {
        let model = PolyPower::new(2.0);
        let frontier = Frontier::build(&instance, &model);
        let a = frontier.makespan(&model, budget).unwrap();
        let b = makespan::laptop(&instance, &model, budget).unwrap().makespan();
        // One shared phase 1 and prefix-sum energies: measured equal bit
        // for bit; the bound leaves room only for a budget that lands on
        // a configuration change.
        prop_assert!((a - b).abs() <= 1e-12 * a.max(1.0), "frontier {a} vs incmerge {b}");
    }

    #[test]
    fn makespan_monotone_in_energy(
        instance in strategies::instances(10),
        budget in 1.0f64..30.0,
    ) {
        let model = PolyPower::CUBE;
        let frontier = Frontier::build(&instance, &model);
        let m1 = frontier.makespan(&model, budget).unwrap();
        let m2 = frontier.makespan(&model, budget * 1.5).unwrap();
        prop_assert!(m2 < m1, "more energy must strictly reduce makespan");
    }

    #[test]
    fn laptop_server_duality(
        instance in strategies::instances(10),
        budget in 1.0f64..30.0,
    ) {
        let model = PolyPower::CUBE;
        let frontier = Frontier::build(&instance, &model);
        let t = frontier.makespan(&model, budget).unwrap();
        let back = frontier.energy_for_makespan(&model, t).unwrap();
        prop_assert!((back - budget).abs() < 1e-6 * budget);
        // And the streaming server solver agrees.
        let srv = makespan::server(&instance, &model, t).unwrap();
        prop_assert!((srv.energy(&model) - budget).abs() < 1e-5 * budget);
    }

    #[test]
    fn flow_solver_kkt_residuals(
        instance in strategies::equal_work_instances(8),
        budget_scale in 0.5f64..5.0,
    ) {
        let budget = budget_scale * instance.total_work();
        let sol = flow::laptop(&instance, 3.0, budget, 1e-9).unwrap();
        prop_assert!(sol.kkt.max_residual < 1e-6);
        prop_assert!((sol.energy - budget).abs() < 1e-5 * budget);
        sol.to_schedule(&instance).validate(&instance, 1e-5).unwrap();
    }

    #[test]
    fn flow_monotone_in_energy(
        instance in strategies::equal_work_instances(8),
    ) {
        let w = instance.total_work();
        let lo = flow::laptop(&instance, 3.0, w, 1e-9).unwrap();
        let hi = flow::laptop(&instance, 3.0, 2.0 * w, 1e-9).unwrap();
        prop_assert!(hi.total_flow < lo.total_flow);
    }

    #[test]
    fn speeds_nondecreasing_within_schedule(
        instance in strategies::instances(10),
        budget in 0.5f64..25.0,
    ) {
        // Lemma 6: block speeds non-decreasing over time.
        let model = PolyPower::CUBE;
        let blocks = makespan::laptop(&instance, &model, budget).unwrap();
        for pair in blocks.blocks().windows(2) {
            prop_assert!(pair[0].speed <= pair[1].speed * (1.0 + 1e-9));
        }
    }

    #[test]
    fn immediate_release_collapses_to_one_block(
        instance in strategies::immediate_instances(8),
        budget in 0.5f64..20.0,
    ) {
        // All jobs at t=0: Lemmas 2-5 collapse to a single block at one
        // speed (the Theorem-11 special case).
        let model = PolyPower::CUBE;
        let blocks = makespan::laptop(&instance, &model, budget).unwrap();
        prop_assert_eq!(blocks.blocks().len(), 1);
    }

    #[test]
    fn serde_instance_round_trip(instance in strategies::instances(12)) {
        let json = serde_json::to_string(&instance).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(instance, back);
    }

    #[test]
    fn time_shift_scaling_law(
        instance in strategies::instances(10),
        budget in 1.0f64..30.0,
        delta in 0.0f64..50.0,
    ) {
        // Shifting all releases by Δ shifts the optimal makespan by
        // exactly Δ (the schedule translates rigidly).
        let model = PolyPower::CUBE;
        let base = makespan::laptop(&instance, &model, budget).unwrap().makespan();
        let shifted = instance.shift_time(delta).unwrap();
        let after = makespan::laptop(&shifted, &model, budget).unwrap().makespan();
        prop_assert!(
            (after - base - delta).abs() < 1e-6 * after.max(1.0),
            "shift law violated: {base} + {delta} != {after}"
        );
    }

    #[test]
    fn dilation_scaling_law(
        instance in strategies::instances(10),
        budget in 1.0f64..30.0,
        c in 0.25f64..4.0,
    ) {
        // Scaling releases and works by c maps optima onto optima with
        // the *same speeds*: makespan and energy both scale by c.
        let model = PolyPower::CUBE;
        let base = makespan::laptop(&instance, &model, budget).unwrap();
        let dilated = instance.dilate(c).unwrap();
        let after = makespan::laptop(&dilated, &model, c * budget).unwrap();
        prop_assert!(
            (after.makespan() - c * base.makespan()).abs()
                < 1e-6 * after.makespan().max(1.0),
            "dilation law violated: {} vs {}",
            after.makespan(),
            c * base.makespan()
        );
        // Speeds unchanged block-by-block (same count, same values).
        prop_assert_eq!(after.blocks().len(), base.blocks().len());
        for (a, b) in after.blocks().iter().zip(base.blocks()) {
            prop_assert!((a.speed - b.speed).abs() < 1e-6 * b.speed.max(1e-9));
        }
    }

    #[test]
    fn flow_dilation_scaling_law(
        instance in strategies::equal_work_instances(6),
        c in 0.5f64..3.0,
    ) {
        // The flow optimum dilates too: flow scales by c when the
        // instance and the budget both scale by c.
        let budget = 2.0 * instance.total_work();
        let base = flow::laptop(&instance, 3.0, budget, 1e-10).unwrap();
        let dilated = instance.dilate(c).unwrap();
        let after = flow::laptop(&dilated, 3.0, c * budget, 1e-10).unwrap();
        prop_assert!(
            (after.total_flow - c * base.total_flow).abs()
                < 1e-5 * after.total_flow.max(1.0),
            "flow dilation violated: {} vs {}",
            after.total_flow,
            c * base.total_flow
        );
    }
}
