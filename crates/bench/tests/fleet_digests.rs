//! The committed E25 fleet digests, pinned in the test suite.
//!
//! `BENCH_fleet.json` records a fleet digest for each of its 12 points
//! (seed 11; 10, 100, 400 and 1000 hosts × the three dispatch
//! policies). A digest covers every routing decision, schedule bit and
//! energy bit of the run, so a change to dispatch, execution or the
//! digest fold that moves any of them fails here — not only in the
//! benchmark. The points are rebuilt through the same
//! `experiments::fleet::{archetype, fleet_workload}` the sweep uses,
//! and the committed file is checked to still carry every pinned value.
//! One deeper point, pinned here only, covers the qOA speed cap that
//! the 20-jobs/host sweep never lets bind.

use pas_bench::experiments::fleet::{archetype, fleet_workload};
use pas_fleet::{run, DispatchPolicy, FleetScenario};

const SEED: u64 = 11;
const JOBS_PER_HOST: usize = 20;

/// A deep point beside the E25 sweep: 16 hosts × 500 jobs/host. At 20
/// jobs/host a qOA host's speed cap never binds; here it binds on most
/// of host 1's decisions, so the cap's speed, the ladder's inverse of
/// `P(σ)/σ`, feeds the digest. Its queries lie above the top level's
/// density, where the ladder hands them to the base model; the
/// in-segment closed form is checked against bisection in
/// `pas_power::discrete`'s unit tests. `(hosts, jobs/host,
/// [round_robin, least_assigned, weighted_fastest])`.
const DEEP: (usize, usize, [u64; 3]) = (
    16,
    500,
    [
        0x56c9_4f93_9804_dcf3,
        0x6ea0_c11b_ab59_118f,
        0xdcb1_8fee_d881_1157,
    ],
);

/// `(hosts, [round_robin, least_assigned, weighted_fastest])`.
const DIGESTS: [(usize, [u64; 3]); 4] = [
    (
        10,
        [
            0xa753_54da_324f_cb0d,
            0xb37c_f145_fa14_2933,
            0x94bd_40a8_2c3a_59c8,
        ],
    ),
    (
        100,
        [
            0x8464_5a26_8fd1_902d,
            0x01b9_3054_71f1_a281,
            0xe7ac_3cd5_1fa1_6940,
        ],
    ),
    (
        400,
        [
            0x6129_3227_e960_19ae,
            0x4594_a76a_01c7_f63b,
            0xb9d4_1155_5b03_e0ac,
        ],
    ),
    (
        1000,
        [
            0x8273_4f9e_2aff_322b,
            0x7c50_de7d_e014_4652,
            0x43b2_f65c_d148_eab0,
        ],
    ),
];

const POLICIES: [DispatchPolicy; 3] = [
    DispatchPolicy::RoundRobin,
    DispatchPolicy::LeastAssigned,
    DispatchPolicy::WeightedFastest,
];

/// Run one point under each dispatch policy and compare its digests.
fn assert_point(hosts: usize, jobs_per_host: usize, digests: [u64; 3]) {
    let workload = fleet_workload(hosts, jobs_per_host, SEED);
    let horizon = workload.last_release() + 50.0;
    for (policy, want) in POLICIES.into_iter().zip(digests) {
        let configs = (0..hosts as u32).map(archetype).collect();
        let mut scenario = FleetScenario::new(configs, workload.clone(), horizon, SEED);
        scenario.dispatch = policy;
        let got = run(&scenario).expect("fleet point runs").digest;
        assert_eq!(
            got, want,
            "{hosts} hosts × {jobs_per_host} jobs, {policy:?}: digest {got:016x} != pinned {want:016x}"
        );
    }
}

#[test]
fn every_e25_point_reproduces_its_committed_digest() {
    for (hosts, digests) in DIGESTS {
        assert_point(hosts, JOBS_PER_HOST, digests);
    }
}

#[test]
fn a_deep_point_where_the_qoa_cap_binds_reproduces_its_digest() {
    let (hosts, jobs_per_host, digests) = DEEP;
    assert_point(hosts, jobs_per_host, digests);
}

#[test]
fn the_committed_sweep_carries_the_pinned_digests() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    let text = std::fs::read_to_string(path).expect("BENCH_fleet.json is committed");
    for (hosts, digests) in DIGESTS {
        for want in digests {
            let field = format!("\"digest\": \"{want:016x}\"");
            assert!(
                text.contains(&field),
                "BENCH_fleet.json lacks the {hosts}-host digest {want:016x}"
            );
        }
    }
}
