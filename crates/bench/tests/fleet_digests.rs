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

use pas_bench::experiments::fleet::{archetype, fleet_workload};
use pas_fleet::{run, DispatchPolicy, FleetScenario};

const SEED: u64 = 11;
const JOBS_PER_HOST: usize = 20;

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

#[test]
fn every_e25_point_reproduces_its_committed_digest() {
    for (hosts, digests) in DIGESTS {
        let workload = fleet_workload(hosts, JOBS_PER_HOST, SEED);
        let horizon = workload.last_release() + 50.0;
        for (policy, want) in POLICIES.into_iter().zip(digests) {
            let configs = (0..hosts as u32).map(archetype).collect();
            let mut scenario = FleetScenario::new(configs, workload.clone(), horizon, SEED);
            scenario.dispatch = policy;
            let got = run(&scenario).expect("E25 point runs").digest;
            assert_eq!(
                got, want,
                "{hosts} hosts, {policy:?}: digest {got:016x} != committed {want:016x}"
            );
        }
    }
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
