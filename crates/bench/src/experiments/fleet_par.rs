//! E26: thread-scaling of the parallel fleet executor.
//!
//! One fixed scenario — the E25 fleet (cycling archetypes, heavy-tailed
//! Poisson traffic, round-robin dispatch) at a single host count — run
//! repeatedly under increasing worker counts via
//! [`pas_fleet::run_with`]. Two claims are on record:
//!
//! * **Perf**: `speedup_vs_1thread` = 1-worker wall divided by the best
//!   measured wall across the curve. On a multi-core runner the best
//!   wall comes from a multi-worker run and the ratio shows real
//!   scaling; on a single-core runner the 1-worker run itself is the
//!   floor, so the ratio is ≥ 1.0 by construction and the recorded
//!   `parallelism` field says why. Per-point phase breakdowns
//!   (dispatch/partition/execute/reduce) localize where the time went.
//! * **Correctness**: `digest_invariant` — every worker count produced
//!   the byte-identical fleet digest. Because the scenario is built
//!   with the exact E25 generators (same workload, horizon, archetypes,
//!   seed, dispatch), the digest also cross-checks against the matching
//!   `BENCH_fleet.json` point; the record's gate checks both.

use std::time::Instant;

use crate::bench_file::{f3, BenchFile};
use crate::harness::{fmt, CsvTable, Tier};
use pas_fleet::{run_with, FleetScenario};

use super::fleet::{archetype, fleet_workload};

/// One run of the fixed scenario at one worker count.
#[derive(Debug, Clone)]
pub struct FleetParPoint {
    /// Worker threads used by the execute phase.
    pub workers: usize,
    /// Number of hosts in the scenario.
    pub hosts: usize,
    /// Total jobs dispatched.
    pub jobs: usize,
    /// Seed of the scenario (workload, faults, dispatch).
    pub seed: u64,
    /// Wall time of the full run.
    pub wall_ms: f64,
    /// Phase 1 (event calendar + routing) wall time.
    pub dispatch_ms: f64,
    /// Grouped trace→tasks partition pass wall time.
    pub partition_ms: f64,
    /// Parallel per-host engine phase wall time.
    pub execute_ms: f64,
    /// Id-order aggregation + digest fold wall time.
    pub reduce_ms: f64,
    /// The fleet digest (must match across every worker count).
    pub digest: u64,
}

/// Run the fixed scenario once per worker count. The scenario is the
/// E25 round-robin configuration verbatim, so the digests line up with
/// `BENCH_fleet.json`.
pub fn fleet_par_sweep(
    hosts: usize,
    jobs_per_host: usize,
    seed: u64,
    workers: &[usize],
) -> Vec<FleetParPoint> {
    assert!(hosts > 0, "host count must be positive");
    let workload = fleet_workload(hosts, jobs_per_host, seed);
    let horizon = workload.last_release() + 50.0;
    let host_cfgs: Vec<_> = (0..hosts as u32).map(archetype).collect();
    let scenario = FleetScenario::new(host_cfgs, workload, horizon, seed);
    workers
        .iter()
        .map(|&w| {
            assert!(w > 0, "worker counts must be positive");
            let t = Instant::now();
            let out = run_with(&scenario, w).expect("fleet run succeeds");
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            FleetParPoint {
                workers: w,
                hosts,
                jobs: scenario.workload.len(),
                seed,
                wall_ms,
                dispatch_ms: out.timings.dispatch_ms,
                partition_ms: out.timings.partition_ms,
                execute_ms: out.timings.execute_ms,
                reduce_ms: out.timings.reduce_ms,
                digest: out.digest,
            }
        })
        .collect()
}

/// True when every point on the curve carries the same digest.
pub fn digest_invariant(points: &[FleetParPoint]) -> bool {
    points.windows(2).all(|w| w[0].digest == w[1].digest)
}

/// 1-worker wall divided by the best wall anywhere on the curve
/// (including the 1-worker run itself, so the ratio is ≥ 1.0 even on a
/// single-core runner).
pub fn speedup_vs_1thread(points: &[FleetParPoint]) -> f64 {
    let wall_1 = points
        .iter()
        .find(|p| p.workers == 1)
        .map(|p| p.wall_ms)
        .expect("curve includes a 1-worker point");
    let best = points
        .iter()
        .map(|p| p.wall_ms)
        .fold(f64::INFINITY, f64::min);
    wall_1 / best
}

/// Render points as the `fleet_par` CSV table.
pub fn fleet_par_table(points: &[FleetParPoint]) -> CsvTable {
    let mut table = CsvTable::new(
        "fleet_par",
        &[
            "workers",
            "hosts",
            "jobs",
            "wall_ms",
            "dispatch_ms",
            "partition_ms",
            "execute_ms",
            "reduce_ms",
            "digest",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.workers.to_string(),
            p.hosts.to_string(),
            p.jobs.to_string(),
            fmt(p.wall_ms),
            fmt(p.dispatch_ms),
            fmt(p.partition_ms),
            fmt(p.execute_ms),
            fmt(p.reduce_ms),
            format!("{:016x}", p.digest),
        ]);
    }
    table
}

/// Render points as the `BENCH_fleet_par.json` record; `parallelism`
/// is the core count the curve was measured on.
pub fn fleet_par_record(points: &[FleetParPoint], parallelism: usize) -> BenchFile {
    let mut file = BenchFile::new("fleet_par").header(
        "metric",
        "wall time of one fixed fleet scenario (E25 round-robin config) per worker count; digests must be invariant",
    );
    if let Some(p) = points.first() {
        file = file
            .header("hosts", p.hosts)
            .header("jobs", p.jobs)
            .header("seed", p.seed)
            .header("dispatch", "round_robin");
    }
    file.header("parallelism", parallelism)
        .header("digest_invariant", digest_invariant(points))
        .header("speedup_vs_1thread", f3(speedup_vs_1thread(points)))
        .points(points.iter().map(|p| {
            vec![
                ("workers", p.workers.into()),
                ("wall_ms", f3(p.wall_ms)),
                ("dispatch_ms", f3(p.dispatch_ms)),
                ("partition_ms", f3(p.partition_ms)),
                ("execute_ms", f3(p.execute_ms)),
                ("reduce_ms", f3(p.reduce_ms)),
                ("digest", format!("{:016x}", p.digest).into()),
            ]
        }))
}

/// E26 at a tier: the `fleet_par` table and the
/// `BENCH_fleet_par.json` record. Each tier's scenario is an E25 point
/// of the same tier (`{hosts: 16}` smoke, `{hosts: 1000}` full,
/// round-robin), so the digests cross-check.
pub fn fleet_par_bench(tier: Tier) -> (CsvTable, BenchFile) {
    let points = match tier {
        Tier::Quick | Tier::Smoke => fleet_par_sweep(16, 8, 11, &[1, 2, 3]),
        Tier::Full => fleet_par_sweep(1000, 20, 11, &[1, 2, 4, 8]),
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let record = fleet_par_record(&points, parallelism);
    (fleet_par_table(&points), record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_curve_is_digest_invariant_and_matches_e25() {
        let points = fleet_par_sweep(4, 3, 2, &[1, 2, 3]);
        assert_eq!(points.len(), 3);
        assert!(digest_invariant(&points));
        assert!(speedup_vs_1thread(&points) >= 1.0);
        // Same generators as E25: the digest must match the E25 point
        // for the identical (hosts, dispatch, jobs_per_host, seed).
        let e25 = super::super::fleet::fleet_scaling(&[4], 3, 2);
        let rr = e25
            .iter()
            .find(|p| p.dispatch == "round_robin")
            .expect("E25 covers round_robin");
        assert_eq!(points[0].digest, rr.digest, "E26 drifted from E25");
    }

    #[test]
    fn json_records_the_gates() {
        let points = fleet_par_sweep(3, 2, 1, &[1, 2]);
        let json = fleet_par_record(&points, 1).render();
        assert!(json.contains("\"digest_invariant\": true"));
        assert!(json.contains("\"speedup_vs_1thread\""));
        assert!(json.contains("\"parallelism\""));
        assert_eq!(json.matches("\"workers\"").count(), points.len());
        assert!(json.ends_with("  ]\n}\n"));
        let table = fleet_par_table(&points);
        assert_eq!(table.rows.len(), points.len());
    }
}
