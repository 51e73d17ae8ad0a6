//! E25: the fleet-scaling sweep — host count × dispatch policy.
//!
//! A heterogeneous fleet (four cycling host archetypes: bare cubic,
//! ladder+qOA, idle+sleep+BKP, capped ladder) serves a heavy-tailed
//! workload of roughly `jobs_per_host` jobs per host. For each host
//! count the sweep records wall time of a full deterministic run plus
//! the fleet-level outcome: dynamic/static energy, flow, makespan,
//! sleeps, sheds, and the fleet digest, and, beside the run's own
//! phases, the time to serialize its trace and parse it back (the read
//! path's text layers). The shape to expect: wall time
//! grows roughly linearly in total job count (each host's engine run is
//! linear in its own queue, dispatch is `O(log hosts)` per event),
//! static energy grows with host count (more idle floors to pay), and
//! the digest is bit-stable across re-runs of the same sweep.
//!
//! The JSON document also embeds the single-host equivalence check —
//! a 1-host fleet re-run against the bare `pas_sim` engine at digest
//! level — so the perf record is self-certifying: a trajectory entry
//! with `"single_host_equivalence": false` is evidence of a correctness
//! regression, not a perf change.

use std::time::Instant;

use crate::bench_file::{f3, f6, BenchFile};
use crate::harness::{fmt, CsvTable, Tier};
use pas_fleet::{
    run, DispatchPolicy, EnginePower, EventTrace, FleetScenario, HostConfig, HostPolicy,
};
use pas_power::{DiscreteSpeeds, HostPower, PolyPower, SleepConfig};
use pas_sim::journal::outcome_digest;
use pas_sim::run_online_with_faults;
use pas_workload::{generators, Instance};

/// One fleet run at one host count.
#[derive(Debug, Clone)]
pub struct FleetScalingPoint {
    /// Number of hosts.
    pub hosts: usize,
    /// Total jobs dispatched.
    pub jobs: usize,
    /// Dispatch policy name.
    pub dispatch: &'static str,
    /// Seed of the run.
    pub seed: u64,
    /// Wall time of the full run (dispatch + every host engine).
    pub wall_ms: f64,
    /// Phase 1 (event calendar + routing) wall time.
    pub dispatch_ms: f64,
    /// Grouped trace→tasks partition pass wall time.
    pub partition_ms: f64,
    /// Parallel per-host engine phase wall time.
    pub execute_ms: f64,
    /// Id-order aggregation + digest fold wall time.
    pub reduce_ms: f64,
    /// `EventTrace::serialize` of the run's trace (the read path's
    /// first step, outside `wall_ms`).
    pub serialize_ms: f64,
    /// `EventTrace::parse` of that text (outside `wall_ms`).
    pub parse_ms: f64,
    /// Engine-metered dynamic energy across the fleet.
    pub dynamic_energy: f64,
    /// Idle/sleep static energy across the fleet.
    pub static_energy: f64,
    /// Total flow across the fleet.
    pub total_flow: f64,
    /// Latest completion across hosts.
    pub makespan: f64,
    /// Jobs completed fleet-wide.
    pub completed_jobs: usize,
    /// Arrivals no host could take plus per-host admission sheds.
    pub shed_jobs: usize,
    /// Sleep transitions across hosts.
    pub sleep_transitions: usize,
    /// The fleet digest (bit-stable across re-runs).
    pub digest: u64,
}

/// The four cycling host archetypes: the heterogeneity axis of the
/// sweep (also reused verbatim by E26 so its digests cross-check
/// against this sweep's).
pub fn archetype(id: u32) -> HostConfig {
    let cube = PolyPower::CUBE;
    match id % 4 {
        0 => HostConfig::new(id, HostPower::dynamic_only(EnginePower::Poly(cube))),
        1 => {
            let ladder = DiscreteSpeeds::new(cube, vec![0.8, 1.8, 2.0]);
            let mut h = HostConfig::new(id, HostPower::with_idle(EnginePower::Ladder(ladder), 0.1));
            h.policy = HostPolicy::Qoa {
                allowance: 4.0,
                alpha: 3.0,
                q: 5.0,
            };
            h
        }
        2 => {
            let mut h = HostConfig::new(
                id,
                HostPower::with_idle(EnginePower::Poly(cube), 0.3).with_sleep(SleepConfig {
                    threshold: 2.0,
                    sleep_power: 0.05,
                    wake_energy: 1.0,
                }),
            );
            h.policy = HostPolicy::Bkp { factor: 1.3 };
            h
        }
        _ => {
            let ladder = DiscreteSpeeds::new(cube, vec![0.5, 1.0, 1.5, 2.5]);
            let mut h =
                HostConfig::new(id, HostPower::with_idle(EnginePower::Ladder(ladder), 0.05));
            h.speed_cap = Some(1.5);
            h.policy = HostPolicy::Fixed { speed: 1.2 };
            h
        }
    }
}

fn dispatch_name(d: DispatchPolicy) -> &'static str {
    match d {
        DispatchPolicy::RoundRobin => "round_robin",
        DispatchPolicy::LeastAssigned => "least_assigned",
        DispatchPolicy::WeightedFastest => "weighted_fastest",
    }
}

/// Build the sweep's workload for a given fleet size: heavy-tailed
/// (bounded-Pareto) works on Poisson arrivals, sized to roughly
/// `jobs_per_host` jobs per host over a fixed arrival window.
pub fn fleet_workload(hosts: usize, jobs_per_host: usize, seed: u64) -> Instance {
    let n = hosts * jobs_per_host;
    // Arrival window ~50 time units regardless of n, so bigger fleets
    // face proportionally denser traffic (the scaling stressor).
    generators::heavy_tailed(n, n as f64 / 50.0, 0.2, 8.0, 1.5, seed)
}

/// Run the sweep over `host_counts`, all three dispatch policies per
/// count.
pub fn fleet_scaling(
    host_counts: &[usize],
    jobs_per_host: usize,
    seed: u64,
) -> Vec<FleetScalingPoint> {
    let mut points = Vec::new();
    for &hosts in host_counts {
        assert!(hosts > 0, "host counts must be positive");
        let workload = fleet_workload(hosts, jobs_per_host, seed);
        let horizon = workload.last_release() + 50.0;
        for dispatch in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastAssigned,
            DispatchPolicy::WeightedFastest,
        ] {
            let host_cfgs: Vec<HostConfig> = (0..hosts as u32).map(archetype).collect();
            let mut scenario = FleetScenario::new(host_cfgs, workload.clone(), horizon, seed);
            scenario.dispatch = dispatch;
            let t = Instant::now();
            let out = run(&scenario).expect("fleet run succeeds");
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let text = out.trace.serialize();
            let serialize_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let parsed = EventTrace::parse(&text).expect("a serialized trace parses");
            let parse_ms = t.elapsed().as_secs_f64() * 1e3;
            debug_assert_eq!(parsed, out.trace);
            std::hint::black_box(parsed);
            points.push(FleetScalingPoint {
                hosts,
                jobs: workload.len(),
                dispatch: dispatch_name(dispatch),
                seed,
                wall_ms,
                dispatch_ms: out.timings.dispatch_ms,
                partition_ms: out.timings.partition_ms,
                execute_ms: out.timings.execute_ms,
                reduce_ms: out.timings.reduce_ms,
                serialize_ms,
                parse_ms,
                dynamic_energy: out.dynamic_energy,
                static_energy: out.static_energy,
                total_flow: out.total_flow,
                makespan: out.makespan,
                completed_jobs: out.completed_jobs,
                shed_jobs: out.shed_jobs(),
                sleep_transitions: out.hosts.iter().map(|h| h.sleep_transitions).sum(),
                digest: out.digest,
            });
        }
    }
    points
}

/// The digest-level single-host equivalence check the JSON embeds: a
/// 1-host fleet (the ladder+qOA archetype, the hardest configuration)
/// must reproduce the bare engine bit-for-bit.
pub fn single_host_equivalence() -> bool {
    let workload = fleet_workload(1, 24, 7);
    let host = archetype(1);
    let mut cfgs = vec![host];
    cfgs[0].id = 0;
    let scenario = FleetScenario::new(cfgs, workload.clone(), workload.last_release() + 50.0, 7);
    let fleet = match run(&scenario) {
        Ok(out) => out,
        Err(_) => return false,
    };
    let cfg = &scenario.hosts[0];
    let ids: Vec<u32> = workload.jobs().iter().map(|j| j.id).collect();
    let plan = scenario.host_plan(cfg.id, &ids);
    let model = cfg.power.model();
    let mut policy = cfg.policy.build(model);
    match run_online_with_faults(&workload, model, policy.as_mut(), &plan) {
        Ok(bare) => fleet.hosts[0].digest == outcome_digest(&bare),
        Err(_) => false,
    }
}

/// Render points as the `fleet_scaling` CSV table.
pub fn fleet_table(points: &[FleetScalingPoint]) -> CsvTable {
    let mut table = CsvTable::new(
        "fleet_scaling",
        &[
            "hosts",
            "jobs",
            "dispatch",
            "seed",
            "wall_ms",
            "dispatch_ms",
            "partition_ms",
            "execute_ms",
            "reduce_ms",
            "serialize_ms",
            "parse_ms",
            "dynamic_energy",
            "static_energy",
            "total_flow",
            "makespan",
            "completed_jobs",
            "shed_jobs",
            "sleep_transitions",
            "digest",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.hosts.to_string(),
            p.jobs.to_string(),
            p.dispatch.to_string(),
            p.seed.to_string(),
            fmt(p.wall_ms),
            fmt(p.dispatch_ms),
            fmt(p.partition_ms),
            fmt(p.execute_ms),
            fmt(p.reduce_ms),
            fmt(p.serialize_ms),
            fmt(p.parse_ms),
            fmt(p.dynamic_energy),
            fmt(p.static_energy),
            fmt(p.total_flow),
            fmt(p.makespan),
            p.completed_jobs.to_string(),
            p.shed_jobs.to_string(),
            p.sleep_transitions.to_string(),
            format!("{:016x}", p.digest),
        ]);
    }
    table
}

/// Render points as the `BENCH_fleet.json` record. `equivalence` is
/// the result of [`single_host_equivalence`], embedded so the perf
/// record certifies the fleet layer is still semantically transparent.
pub fn fleet_record(points: &[FleetScalingPoint], equivalence: bool) -> BenchFile {
    BenchFile::new("fleet_scaling")
        .header(
            "fleet",
            "4 cycling host archetypes (cubic, ladder+qOA, idle+sleep+BKP, capped ladder) on heavy-tailed Poisson traffic",
        )
        .header(
            "metric",
            "wall time + fleet-level energy/flow/shed/sleep per host count and dispatch policy",
        )
        .header("single_host_equivalence", equivalence)
        .points(points.iter().map(|p| {
            vec![
                ("hosts", p.hosts.into()),
                ("jobs", p.jobs.into()),
                ("dispatch", p.dispatch.into()),
                ("seed", p.seed.into()),
                ("wall_ms", f3(p.wall_ms)),
                ("dispatch_ms", f3(p.dispatch_ms)),
                ("partition_ms", f3(p.partition_ms)),
                ("execute_ms", f3(p.execute_ms)),
                ("reduce_ms", f3(p.reduce_ms)),
                ("serialize_ms", f3(p.serialize_ms)),
                ("parse_ms", f3(p.parse_ms)),
                ("dynamic_energy", f6(p.dynamic_energy)),
                ("static_energy", f6(p.static_energy)),
                ("total_flow", f6(p.total_flow)),
                ("makespan", f6(p.makespan)),
                ("completed_jobs", p.completed_jobs.into()),
                ("shed_jobs", p.shed_jobs.into()),
                ("sleep_transitions", p.sleep_transitions.into()),
                ("digest", format!("{:016x}", p.digest).into()),
            ]
        }))
}

/// E25 at a tier: the `fleet_scaling` table and the `BENCH_fleet.json`
/// record, with [`single_host_equivalence`] embedded. The full tier
/// scales through 1000 hosts.
pub fn fleet_bench(tier: Tier) -> (CsvTable, BenchFile) {
    let points = match tier {
        Tier::Quick | Tier::Smoke => fleet_scaling(&[4, 16], 8, 11),
        Tier::Full => fleet_scaling(&[10, 100, 400, 1000], 20, 11),
    };
    let record = fleet_record(&points, single_host_equivalence());
    (fleet_table(&points), record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_covers_the_matrix_and_is_deterministic() {
        let a = fleet_scaling(&[3, 6], 4, 2);
        let b = fleet_scaling(&[3, 6], 4, 2);
        // 2 host counts × 3 dispatch policies.
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest, y.digest, "{}x{}", x.hosts, x.dispatch);
            assert_eq!(x.dynamic_energy.to_bits(), y.dynamic_energy.to_bits());
        }
        for p in &a {
            assert!(p.dynamic_energy > 0.0, "{p:?}");
            assert!(p.static_energy > 0.0, "idle archetypes must charge, {p:?}");
            assert!(p.completed_jobs > 0, "{p:?}");
            assert!(p.makespan > 0.0, "{p:?}");
            let breakdown = p.dispatch_ms + p.partition_ms + p.execute_ms + p.reduce_ms;
            assert!(
                breakdown <= p.wall_ms + 1.0,
                "phase breakdown exceeds the wall it decomposes, {p:?}"
            );
        }
    }

    #[test]
    fn equivalence_gate_holds() {
        assert!(single_host_equivalence());
    }

    #[test]
    fn json_embeds_the_gate_and_one_object_per_point() {
        let points = fleet_scaling(&[2], 3, 1);
        let json = fleet_record(&points, true).render();
        assert!(json.contains("\"single_host_equivalence\": true"));
        assert_eq!(json.matches("\"hosts\"").count(), points.len());
        assert!(json.ends_with("  ]\n}\n"));
        let table = fleet_table(&points);
        assert_eq!(table.rows.len(), points.len());
    }
}
