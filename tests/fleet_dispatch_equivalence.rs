//! Differential test: the tournament-tree dispatcher against the scan.
//!
//! `fleet::dispatch` routes each arrival in `O(log H)` through a
//! tournament tree with time-driven recoveries and a sorted calendar;
//! `fleet::reference::dispatch` is the original full scan over every
//! host per arrival, draining the calendar heap pop by pop. Routing is
//! the one thing run-vs-replay tests cannot check — both sides read the
//! same new trace — so this suite compares the two dispatchers'
//! serialized traces byte for byte under all three policies.
//!
//! The scenarios stress what the tree has to get exactly right:
//!
//! * host ids that are non-contiguous and listed out of id order;
//! * late joins, leaves, and failures — zero-length, overlapping,
//!   before a join, after a leave;
//! * tied releases, equal works (least-assigned ties) and equal speed
//!   ratings (weighted-fastest ties);
//! * windows with no eligible host, where arrivals are fleet-shed.

use power_aware_scheduling::fleet::{
    dispatch, reference, DispatchPolicy, EnginePower, FleetEvent, FleetEventKind, FleetScenario,
    HostConfig,
};
use power_aware_scheduling::power::{HostPower, PolyPower};
use power_aware_scheduling::workload::{Instance, Job};
use proptest::prelude::*;

const POLICIES: [DispatchPolicy; 3] = [
    DispatchPolicy::RoundRobin,
    DispatchPolicy::LeastAssigned,
    DispatchPolicy::WeightedFastest,
];

/// Speed caps drawn from a short list, so weighted-fastest ratings tie.
const CAPS: [Option<f64>; 4] = [None, Some(0.5), Some(1.0), Some(1.5)];

fn host(id: u32, available_from: f64, cap: Option<f64>) -> HostConfig {
    let mut h = HostConfig::new(
        id,
        HostPower::dynamic_only(EnginePower::Poly(PolyPower::CUBE)),
    );
    h.available_from = available_from;
    h.speed_cap = cap;
    h
}

fn event(at: f64, kind: FleetEventKind) -> FleetEvent {
    FleetEvent { at, kind }
}

/// Assert both dispatchers record the same bytes under every policy;
/// returns how many arrivals the scan fleet-shed across the policies.
fn assert_same_routing(base: &FleetScenario) -> usize {
    base.validate().expect("test scenarios are valid");
    let mut shed = 0;
    for policy in POLICIES {
        let mut s = base.clone();
        s.dispatch = policy;
        let want = reference::dispatch(&s);
        let got = dispatch(&s);
        assert_eq!(
            got.serialize(),
            want.serialize(),
            "{policy:?}, seed {}: routing diverged from the scan",
            s.seed
        );
        shed += want
            .records
            .iter()
            .filter_map(|r| r.arrival())
            .filter(|a| a.routed.is_none())
            .count();
    }
    shed
}

/// One hand-built scenario with every listed case present at once.
fn every_case(seed: u64) -> FleetScenario {
    // Ids 40, 7, 23, 3, 91: gapped and listed out of order. Hosts 7 and
    // 23 share a rating, as do 40 and 91.
    let hosts = vec![
        host(40, 0.0, Some(1.5)),
        host(7, 0.0, Some(1.0)),
        host(23, 2.0, Some(1.0)), // late join
        host(3, 1.0, None),
        host(91, 4.0, Some(1.5)), // late join
    ];
    // Releases on a 0.5 grid (ties), works from {1, 2} (ties).
    let jobs = (0..48)
        .map(|i| Job::new(i, f64::from(i / 4) * 0.5, 1.0 + f64::from(i % 2)))
        .collect();
    let mut s = FleetScenario::new(hosts, Instance::new(jobs).unwrap(), 40.0, seed);
    use FleetEventKind::{HostFail, HostJoin, HostLeave};
    s.events = vec![
        // Nothing is up before 0.5: the t = 0 arrivals are shed.
        event(
            0.0,
            HostFail {
                host: 40,
                duration: 0.5,
            },
        ),
        event(
            0.0,
            HostFail {
                host: 7,
                duration: 0.5,
            },
        ),
        // Zero-length failure, at an arrival instant.
        event(
            1.0,
            HostFail {
                host: 3,
                duration: 0.0,
            },
        ),
        // Overlapping failures: the second extends the first (max).
        event(
            1.5,
            HostFail {
                host: 40,
                duration: 1.0,
            },
        ),
        event(
            2.0,
            HostFail {
                host: 40,
                duration: 1.5,
            },
        ),
        // A failure nested inside an earlier, longer one.
        event(
            1.5,
            HostFail {
                host: 7,
                duration: 2.0,
            },
        ),
        event(
            2.0,
            HostFail {
                host: 7,
                duration: 0.5,
            },
        ),
        // Failure before the host joins (91 joins at 4.0, down to 5.0).
        event(
            3.0,
            HostFail {
                host: 91,
                duration: 2.0,
            },
        ),
        // Leave, then a failure and a re-join after leaving.
        event(3.5, HostLeave { host: 3 }),
        event(
            4.0,
            HostFail {
                host: 3,
                duration: 1.0,
            },
        ),
        event(4.5, HostJoin { host: 3 }),
        // Everything down or gone for a window: arrivals are shed.
        event(
            6.0,
            HostFail {
                host: 40,
                duration: 1.0,
            },
        ),
        event(
            6.0,
            HostFail {
                host: 7,
                duration: 1.0,
            },
        ),
        event(
            6.0,
            HostFail {
                host: 23,
                duration: 1.0,
            },
        ),
        event(
            6.0,
            HostFail {
                host: 91,
                duration: 1.0,
            },
        ),
        event(9.0, HostLeave { host: 23 }),
    ];
    s
}

#[test]
fn every_listed_case_routes_like_the_scan() {
    for seed in 0..64 {
        let shed = assert_same_routing(&every_case(seed));
        assert!(
            shed > 0,
            "seed {seed}: the scenario must shed at the frontier"
        );
    }
}

#[test]
fn a_wide_fleet_routes_like_the_scan() {
    // Fleet-scale shape: many hosts, every rating tied in blocks of 50,
    // a failure storm with overlaps and a batch of leaves.
    let hosts: Vec<HostConfig> = (0..200u32)
        .rev()
        .map(|i| host(i * 3 + 1, f64::from(i % 5), CAPS[(i / 50) as usize]))
        .collect();
    let jobs: Vec<Job> = (0..4000u32)
        .map(|i| Job::new(i, f64::from(i / 16) * 0.125, 0.5 * f64::from(1 + i % 3)))
        .collect();
    for seed in [1, 11, 0xfeed] {
        let mut s = FleetScenario::new(
            hosts.clone(),
            Instance::new(jobs.clone()).unwrap(),
            60.0,
            seed,
        );
        for k in 0..120u32 {
            let host = (k * 37 % 200) * 3 + 1;
            let at = f64::from(k % 40) * 0.75;
            s.events.push(event(
                at,
                FleetEventKind::HostFail {
                    host,
                    duration: f64::from(k % 4) * 0.5,
                },
            ));
            if k % 10 == 0 {
                s.events
                    .push(event(at + 5.0, FleetEventKind::HostLeave { host }));
            }
        }
        assert_same_routing(&s);
    }
}

/// Decode one drawn scripted event: kind 0 = fail, 1 = leave, 2 = join.
fn scripted(kind: u8, host: u32, time: u32, duration: u32) -> FleetEvent {
    let at = f64::from(time) * 0.5;
    let kind = match kind {
        0 => FleetEventKind::HostFail {
            host,
            duration: f64::from(duration) * 0.5,
        },
        1 => FleetEventKind::HostLeave { host },
        _ => FleetEventKind::HostJoin { host },
    };
    event(at, kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random fleets: gapped ids in a shuffled listing order, joins on a
    /// coarse grid, tied ratings, tied releases and works, and a random
    /// script of fails (zero-length included), leaves, and re-joins.
    #[test]
    fn random_fleets_route_like_the_scan(
        nhosts in 1usize..7,
        gaps in vec![1u32..5; 6],
        listing in vec![0u32..1000; 6],
        joins in vec![0u32..6; 6],
        caps in vec![0usize..4; 6],
        releases in vec![0u32..10; 24],
        works in vec![1u32..4; 24],
        nevents in 0usize..10,
        kinds in vec![0u8..3; 10],
        targets in vec![0usize..6; 10],
        times in vec![0u32..12; 10],
        durations in vec![0u32..5; 10],
        seed in 0u64..1_000_000,
    ) {
        let mut id = 0u32;
        let mut hosts: Vec<(u32, HostConfig)> = (0..nhosts)
            .map(|k| {
                id += gaps[k];
                (listing[k], host(id, f64::from(joins[k]) * 0.5, CAPS[caps[k]]))
            })
            .collect();
        hosts.sort_by_key(|&(key, ref h)| (key, h.id));
        let hosts: Vec<HostConfig> = hosts.into_iter().map(|(_, h)| h).collect();
        let ids: Vec<u32> = hosts.iter().map(|h| h.id).collect();

        let jobs: Vec<Job> = releases
            .iter()
            .zip(&works)
            .enumerate()
            .map(|(i, (&r, &w))| Job::new(i as u32, f64::from(r) * 0.5, f64::from(w) * 0.5))
            .collect();
        let mut s = FleetScenario::new(hosts, Instance::new(jobs).unwrap(), 30.0, seed);
        s.events = (0..nevents)
            .map(|k| scripted(kinds[k], ids[targets[k] % nhosts], times[k], durations[k]))
            .collect();
        assert_same_routing(&s);
    }
}
