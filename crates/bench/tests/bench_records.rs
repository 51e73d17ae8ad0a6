//! The `BENCH_*.json` records, end to end.
//!
//! * **Goldens.** `golden/` holds each record as the hand-written
//!   writers it replaced rendered it, on fixed synthetic points that
//!   cover every `Option` column as both a value and `null`, E20's
//!   gap list and its `null`, and empty and non-empty policy lists.
//!   `BenchFile` must reproduce them byte for byte. The one allowed
//!   difference: E26's header puts `hosts`/`jobs`/`seed`/`dispatch`
//!   on one line each instead of sharing one.
//! * **Committed records.** Every repo-root `BENCH_*.json` passes the
//!   gate `exp-scaling` runs on a freshly written one.

use std::path::Path;

use pas_bench::bench_file;
use pas_bench::experiments::faults::{self, FaultPoint};
use pas_bench::experiments::fleet::{self, FleetScalingPoint};
use pas_bench::experiments::fleet_par::{self, FleetParPoint};
use pas_bench::experiments::online_budget::{self, PolicyPoint};
use pas_bench::experiments::scaling::{
    self, FlowScalingPoint, MultiPointSpec, MultiScalingPoint, OaScalingPoint, YdsScalingPoint,
};
use pas_bench::experiments::serve::{self, ServePoint};
use pas_bench::records::RECORDS;

macro_rules! golden {
    ($file:literal) => {
        include_str!(concat!("golden/", $file))
    };
}

#[test]
fn scaling_records_match_their_goldens() {
    assert_eq!(
        scaling::yds_record(&yds()).render(),
        golden!("BENCH_yds.json")
    );
    assert_eq!(
        scaling::flow_record(&flow()).render(),
        golden!("BENCH_flow.json")
    );
    assert_eq!(
        scaling::multi_record(&multi()).render(),
        golden!("BENCH_multi.json")
    );
    assert_eq!(scaling::oa_record(&oa()).render(), golden!("BENCH_oa.json"));
}

#[test]
fn online_records_match_their_goldens() {
    assert_eq!(
        faults::faults_record(&faults()).render(),
        golden!("BENCH_faults.json")
    );
    assert_eq!(
        serve::serve_record(&serve()).render(),
        golden!("BENCH_serve.json")
    );
    assert_eq!(
        online_budget::policies_record(&policies()).render(),
        golden!("BENCH_policies.json")
    );
    assert_eq!(
        online_budget::policies_record(&[]).render(),
        golden!("BENCH_policies_empty.json")
    );
}

#[test]
fn fleet_records_match_their_goldens() {
    assert_eq!(
        fleet::fleet_record(&fleet(), true).render(),
        golden!("BENCH_fleet.json")
    );
    assert_eq!(
        fleet::fleet_record(&fleet()[..1], false).render(),
        golden!("BENCH_fleet_unequal.json")
    );
    // The goldens were rendered on a 2-core machine.
    let d = 0x8273_4f9e_2aff_322b;
    for (digests, file) in [
        ([d, d, d], golden!("BENCH_fleet_par.json")),
        ([d, d ^ 1, d], golden!("BENCH_fleet_par_diverged.json")),
    ] {
        let want = file.replacen(
            "\"hosts\": 1000, \"jobs\": 20000, \"seed\": 11, \"dispatch\": \"round_robin\",",
            "\"hosts\": 1000,\n  \"jobs\": 20000,\n  \"seed\": 11,\n  \"dispatch\": \"round_robin\",",
            1,
        );
        assert_ne!(want, file, "the one-line E26 header moved");
        let got = fleet_par::fleet_par_record(&fleet_par(digests), 2).render();
        assert_eq!(got, want);
    }
}

#[test]
fn committed_records_pass_their_gates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for record in &RECORDS {
        let path = root.join(record.file);
        let doc = bench_file::read(&path).unwrap_or_else(|e| panic!("{}: {e}", record.file));
        if let Err(e) = (record.gate)(&doc, &root) {
            panic!("{}: gate failed: {e}", record.file);
        }
    }
}

// Fixed synthetic points behind the goldens.

fn yds() -> Vec<YdsScalingPoint> {
    vec![
        YdsScalingPoint {
            n: 64,
            optimized_s: 0.000_093_4,
            optimized_repeats: 5,
            reference_s: Some(0.001_160_49),
            reference_repeats: Some(3),
            rounds: 15,
            energy_rel_gap: Some(7.842_4e-16),
        },
        YdsScalingPoint {
            n: 2000,
            optimized_s: 1.226_542_5,
            optimized_repeats: 2,
            reference_s: None,
            reference_repeats: None,
            rounds: 583,
            energy_rel_gap: None,
        },
    ]
}

fn flow() -> Vec<FlowScalingPoint> {
    vec![
        FlowScalingPoint {
            n: 100,
            solve_block_s: 0.000_203_1,
            solve_reference_s: Some(0.002_459_2),
            solve_energy_rel_gap: Some(2.987e-13),
            curve_points: 3,
            curve_block_s: 0.014_586_3,
            curve_reference_s: Some(12.564_241),
            curve_reference_ok: Some(2),
            curve_reference_failed: Some(1),
            curve_energy_rel_gaps: Some(vec![Some(4.974e-15), None, Some(0.0)]),
        },
        FlowScalingPoint {
            n: 300,
            solve_block_s: 0.5,
            solve_reference_s: Some(0.25),
            solve_energy_rel_gap: None,
            curve_points: 2,
            curve_block_s: 1.0,
            curve_reference_s: Some(3.0),
            curve_reference_ok: Some(0),
            curve_reference_failed: Some(2),
            curve_energy_rel_gaps: Some(vec![None, None]),
        },
        FlowScalingPoint {
            n: 10_000,
            solve_block_s: 0.031_25,
            solve_reference_s: None,
            solve_energy_rel_gap: None,
            curve_points: 120,
            curve_block_s: 2.718_282_1,
            curve_reference_s: None,
            curve_reference_ok: None,
            curve_reference_failed: None,
            curve_energy_rel_gaps: None,
        },
    ]
}

fn multi() -> Vec<MultiScalingPoint> {
    let spec = |n, m, levels, seed, budget| MultiPointSpec {
        n,
        m,
        levels,
        seed,
        reference_budget_s: budget,
    };
    vec![
        MultiScalingPoint {
            spec: spec(16, 4, 12, 1, 600.0),
            incremental_s: 0.000_018_2,
            incremental_repeats: 3,
            incremental_norm: 12.5,
            reference_s: Some(0.003_046_1),
            reference_censored: false,
            norm_rel_gap: Some(0.0),
        },
        MultiScalingPoint {
            spec: spec(24, 8, 12, 4, 900.0),
            incremental_s: 0.009_5,
            incremental_repeats: 3,
            incremental_norm: 40.0,
            reference_s: Some(900.0),
            reference_censored: true,
            norm_rel_gap: None,
        },
        MultiScalingPoint {
            spec: spec(40, 8, 12, 2, 0.0),
            incremental_s: 0.25,
            incremental_repeats: 1,
            incremental_norm: 99.0,
            reference_s: None,
            reference_censored: false,
            norm_rel_gap: None,
        },
    ]
}

fn oa() -> Vec<OaScalingPoint> {
    vec![
        OaScalingPoint {
            n: 1000,
            family: "uniform",
            kinetic_s: 0.001_424_4,
            kinetic_repeats: 5,
            reference_s: Some(0.003_667_5),
            reference_repeats: Some(3),
            energy_rel_gap: Some(5.883e-15),
        },
        OaScalingPoint {
            n: 20_000,
            family: "clustered",
            kinetic_s: 0.046_286,
            kinetic_repeats: 3,
            reference_s: None,
            reference_repeats: None,
            energy_rel_gap: None,
        },
    ]
}

fn faults() -> Vec<FaultPoint> {
    let point = |rate: f64, crashes: usize| FaultPoint {
        workload: "uniform",
        policy: "spend-all".to_string(),
        rate,
        seed: 3,
        baseline_energy: 10.0,
        baseline_makespan: 4.0,
        baseline_mean_flow: 2.0,
        energy: 10.000_001,
        makespan: 4.404_666,
        mean_flow: 2.176_842,
        crashes,
        downtime: 0.539_651_2,
        lost_work: 0.000_024,
        wasted_energy: 0.0,
        cancelled_jobs: 1,
        burst_jobs: 6,
        throttle_clamps: 2,
        max_recovery_latency: 1.956_323_4,
        deadline_misses: 1,
    };
    vec![point(0.0, 0), point(0.1, 2), point(0.25, 7)]
}

fn serve() -> Vec<ServePoint> {
    let point = |arrivals, fault_events, elapsed_secs| ServePoint {
        arrivals,
        n: 1_000_000,
        fault_events,
        seed: 1,
        delivered: 1_000_035,
        shed_jobs: 12,
        elapsed_secs,
        restore_secs: 0.321_548_4,
        decisions: 2_000_170,
        p50_decide_nanos: 58,
        p99_decide_nanos: 217,
        max_decide_nanos: 1_001_713,
        watchdog_trips: 0,
        energy: 2_000_810.828_108_3,
    };
    vec![point("poisson", 75, 2.767_44), point("flood", 0, 0.0)]
}

fn policies() -> Vec<PolicyPoint> {
    let mut points = Vec::new();
    for (n, scale) in [(2_500, 1.0), (5_000, 2.5)] {
        for (policy, ratio) in [
            ("qoa(a=3,q=8,e=1.5)", 1.000_247),
            ("bkp(1.3)", 1.000_422),
            ("adaptive-rate(h=10)", 34.458_949 * scale),
            ("spend-all", 785_800.554_394),
        ] {
            points.push(PolicyPoint {
                policy: policy.to_string(),
                n,
                ratio,
                within_budget: policy != "bkp(1.3)",
                seconds: 0.001_887_3 * scale,
            });
        }
    }
    points
}

fn fleet() -> Vec<FleetScalingPoint> {
    let point = |hosts: usize, dispatch, digest| FleetScalingPoint {
        hosts,
        jobs: hosts * 20,
        dispatch,
        seed: 11,
        wall_ms: 1.218_4,
        dispatch_ms: 0.047_2,
        partition_ms: 0.010_06,
        execute_ms: 0.983,
        reduce_ms: 0.077_5,
        serialize_ms: 0.021_4,
        parse_ms: 0.040_9,
        dynamic_energy: 166.253_902_2,
        static_energy: 68.571_474,
        total_flow: 137.838_338,
        makespan: 50.165_562,
        completed_jobs: hosts * 20 - 1,
        shed_jobs: 1,
        sleep_transitions: 13,
        digest,
    };
    vec![
        point(10, "round_robin", 0xa753_54da_324f_cb0d),
        point(100, "least_assigned", 0x01b9_3054_71f1_a281),
    ]
}

fn fleet_par(digests: [u64; 3]) -> Vec<FleetParPoint> {
    [(1, 41.485_2), (2, 33.768), (4, 29.335_5)]
        .into_iter()
        .zip(digests)
        .map(|((workers, wall_ms), digest)| FleetParPoint {
            workers,
            hosts: 1000,
            jobs: 20_000,
            seed: 11,
            wall_ms,
            dispatch_ms: 4.961,
            partition_ms: 1.189_4,
            execute_ms: 29.007,
            reduce_ms: 6.266,
            digest,
        })
        .collect()
}
