//! E24: the serving-layer throughput/latency benchmark.
//!
//! For each arrival pattern (Poisson, bursty, flood) the full
//! [`pas_sim::serve::Server`] loop — journal writes, watchdog timing,
//! admission gate, and the engine itself — is driven to completion and
//! timed. The table records **sustained jobs/sec** (jobs delivered over
//! serve-loop wall-clock) and the **p50/p99/max decision latency** from
//! [`pas_sim::ServeStats::decide_nanos`]. Each pattern runs fault-free
//! and again with a seeded E23 [`FaultPlan`] replayed on top, so the
//! numbers cover the crash/cancel/throttle/burst path too. The flood
//! pattern runs behind deadline-aware admission control — the overload
//! scenario the shedding gate exists for — and the row reports how many
//! jobs it shed.
//!
//! Every row also restores a second server from the run's journal,
//! times that restore (`restore_secs`: the journal decode and engine
//! rebuild), and replays it to the end; the restored outcome digest must
//! equal the fresh one or the experiment panics.
//!
//! The shape to expect: decision latency is sub-microsecond (an O(1)
//! policy plus one journal line), throughput is decision-latency bound
//! and roughly flat across patterns, faults shave throughput by the
//! downtime they inject, and the flood row sheds most of its arrivals
//! while keeping p99 in the same band — overload degrades *capacity*,
//! not per-decision latency.

use crate::bench_file::{f6, BenchFile, Val};
use crate::harness::{fmt, CsvTable, Tier};
use pas_core::online::SpendAll;
use pas_power::PolyPower;
use pas_sim::online::{AdmissionConfig, ShedPolicy};
use pas_sim::{
    outcome_digest, FaultModel, FaultPlan, Journal, ServeConfig, Server, WatchdogConfig,
};
use pas_workload::{generators, Instance};
use std::time::Instant;

/// One timed serving run.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Arrival pattern name.
    pub arrivals: &'static str,
    /// Jobs in the generated instance (bursts can add more).
    pub n: usize,
    /// Fault events in the injected plan (0 = fault-free run).
    pub fault_events: usize,
    /// Seed used for the workload and the fault plan.
    pub seed: u64,
    /// Jobs the run completed (admitted, not cancelled).
    pub delivered: usize,
    /// Jobs rejected or evicted by admission control.
    pub shed_jobs: usize,
    /// Serve-loop wall-clock, seconds.
    pub elapsed_secs: f64,
    /// Wall-clock of [`Server::restore`] over the run's full journal,
    /// seconds (journal decode and engine rebuild; the replay that
    /// follows is not timed).
    pub restore_secs: f64,
    /// Live policy consultations.
    pub decisions: u64,
    /// Median decision latency, nanoseconds.
    pub p50_decide_nanos: u64,
    /// 99th-percentile decision latency, nanoseconds.
    pub p99_decide_nanos: u64,
    /// Worst decision latency, nanoseconds.
    pub max_decide_nanos: u64,
    /// Watchdog budget overruns (expected 0 with the generous budget).
    pub watchdog_trips: u64,
    /// Energy the schedule metered.
    pub energy: f64,
}

impl ServePoint {
    /// Sustained throughput: delivered jobs over serve-loop wall-clock.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.delivered as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn pattern_instance(pattern: &'static str, n: usize, seed: u64) -> Instance {
    match pattern {
        "poisson" => generators::poisson(n, 0.8, (0.5, 1.5), seed),
        "bursty" => generators::bursty(8, n.div_ceil(8), n as f64 / 4.0, 0.5, (0.5, 1.5), seed),
        "flood" => generators::flood(n, 1_000.0, (0.5, 1.5), seed),
        _ => unreachable!("unknown arrival pattern {pattern}"),
    }
}

/// The flood pattern's admission gate: deadline-aware shedding sized so
/// an `n`-job flood keeps only the prefix that can still meet a flow SLO
/// of ~10% of the backlog drain time at unit service rate.
fn flood_admission(instance: &Instance) -> AdmissionConfig {
    let slo = (0.1 * instance.total_work()).max(1.0);
    AdmissionConfig {
        capacity: instance.len(),
        shed: ShedPolicy::DeadlineAware {
            slo,
            service_rate: 1.0,
        },
    }
}

fn serve_point(
    pattern: &'static str,
    n: usize,
    fault_events_target: usize,
    seed: u64,
) -> ServePoint {
    let model = PolyPower::CUBE;
    let instance = pattern_instance(pattern, n, seed);
    let budget = 2.0 * instance.total_work();
    let horizon = instance.last_release() + instance.total_work();
    let plan = if fault_events_target == 0 {
        FaultPlan::none()
    } else {
        // Aim for a fixed number of events regardless of instance span
        // (the rates are per unit time) so the faulted rows stay
        // comparable across sizes.
        let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
        let rate = fault_events_target as f64 / horizon.max(1.0);
        FaultModel::uniform_mix(rate).sample(horizon, &ids, seed.wrapping_mul(0x9e37))
    };
    let config = ServeConfig {
        admission: (pattern == "flood").then(|| flood_admission(&instance)),
        snapshot_every: None,
        watchdog: Some(WatchdogConfig::default()),
        record_latency: true,
    };
    let mut policy = SpendAll::new(model, budget);
    let mut server = Server::new(&instance, &model, &plan, config, Journal::memory())
        .expect("serve setup succeeds");
    let start = Instant::now();
    let done = server
        .run_for(&mut policy, u64::MAX)
        .expect("serve run succeeds");
    let serve_time = start.elapsed();
    assert!(done, "an unbounded run_for serves to completion");

    // Read path: restore from the full journal, then replay to the end;
    // the restored outcome must be the fresh one, bit for bit.
    let mut replay_policy = SpendAll::new(model, budget);
    let start = Instant::now();
    let restored = Server::restore(
        &instance,
        &model,
        &plan,
        config,
        server.journal().contents().expect("memory journal"),
        Journal::memory(),
        &mut replay_policy,
    )
    .expect("restore from the run's journal");
    let restore_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let served = server.finish().expect("serve run finishes");
    let elapsed_secs = (serve_time + start.elapsed()).as_secs_f64();
    let replayed = restored
        .run(&mut replay_policy)
        .expect("restored run succeeds");
    assert_eq!(
        outcome_digest(&replayed.outcome),
        outcome_digest(&served.outcome),
        "{pattern} (faults {}): restored outcome differs from the fresh run",
        plan.len()
    );
    let mut lat = served.stats.decide_nanos;
    lat.sort_unstable();
    ServePoint {
        arrivals: pattern,
        n,
        fault_events: plan.len(),
        seed,
        delivered: served.outcome.schedule.completion_times().len(),
        shed_jobs: served.outcome.resilience.shed_jobs,
        elapsed_secs,
        restore_secs,
        decisions: served.stats.decisions,
        p50_decide_nanos: percentile(&lat, 0.50),
        p99_decide_nanos: percentile(&lat, 0.99),
        max_decide_nanos: percentile(&lat, 1.0),
        watchdog_trips: served.stats.watchdog_trips,
        energy: served.outcome.energy,
    }
}

/// The three arrival patterns E24 sweeps.
pub const PATTERNS: [&str; 3] = ["poisson", "bursty", "flood"];

/// Run the sweep: every pattern, fault-free and with a seeded plan of
/// roughly `fault_events` events, at `n` jobs per instance.
pub fn serve_sweep(n: usize, fault_events: usize, seed: u64) -> Vec<ServePoint> {
    assert!(n >= 8, "need enough jobs to measure");
    let mut points = Vec::new();
    for pattern in PATTERNS {
        points.push(serve_point(pattern, n, 0, seed));
        points.push(serve_point(pattern, n, fault_events, seed));
    }
    points
}

/// Render points as the `serve_throughput` CSV table.
pub fn serve_table(points: &[ServePoint]) -> CsvTable {
    let mut table = CsvTable::new(
        "serve_throughput",
        &[
            "arrivals",
            "n",
            "fault_events",
            "seed",
            "delivered",
            "shed_jobs",
            "elapsed_secs",
            "jobs_per_sec",
            "restore_secs",
            "decisions",
            "p50_decide_nanos",
            "p99_decide_nanos",
            "max_decide_nanos",
            "watchdog_trips",
            "energy",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.arrivals.to_string(),
            p.n.to_string(),
            p.fault_events.to_string(),
            p.seed.to_string(),
            p.delivered.to_string(),
            p.shed_jobs.to_string(),
            fmt(p.elapsed_secs),
            fmt(p.jobs_per_sec()),
            fmt(p.restore_secs),
            p.decisions.to_string(),
            p.p50_decide_nanos.to_string(),
            p.p99_decide_nanos.to_string(),
            p.max_decide_nanos.to_string(),
            p.watchdog_trips.to_string(),
            fmt(p.energy),
        ]);
    }
    table
}

/// Render points as the `BENCH_serve.json` record — the serving
/// layer's trajectory record, sibling to the other `BENCH_*` files.
pub fn serve_record(points: &[ServePoint]) -> BenchFile {
    BenchFile::new("serve_throughput")
        .header(
            "setup",
            "full Server loop (memory journal, watchdog, latency capture; flood rows behind deadline-aware admission), SpendAll policy, fault-free and seeded-FaultPlan runs; each row then restores from its journal and replays to a bit-identical outcome digest",
        )
        .header(
            "metric",
            "sustained jobs/sec (delivered over wall-clock), p50/p99/max decision latency in nanoseconds, and restore_secs (Server::restore over the full journal)",
        )
        .points(points.iter().map(|p| {
            vec![
                ("arrivals", p.arrivals.into()),
                ("n", p.n.into()),
                ("fault_events", p.fault_events.into()),
                ("seed", p.seed.into()),
                ("delivered", p.delivered.into()),
                ("shed_jobs", p.shed_jobs.into()),
                ("elapsed_secs", f6(p.elapsed_secs)),
                ("jobs_per_sec", Val::Fixed(p.jobs_per_sec(), 1)),
                ("restore_secs", f6(p.restore_secs)),
                ("decisions", p.decisions.into()),
                ("p50_decide_nanos", p.p50_decide_nanos.into()),
                ("p99_decide_nanos", p.p99_decide_nanos.into()),
                ("max_decide_nanos", p.max_decide_nanos.into()),
                ("watchdog_trips", p.watchdog_trips.into()),
                ("energy", f6(p.energy)),
            ]
        }))
}

/// E24 at a tier: the `serve_throughput` table and the
/// `BENCH_serve.json` record. The full tier serves a million jobs per
/// pattern.
pub fn serve_bench(tier: Tier) -> (CsvTable, BenchFile) {
    let points = match tier {
        Tier::Quick | Tier::Smoke => serve_sweep(4_000, 16, 1),
        Tier::Full => serve_sweep(1_000_000, 64, 1),
    };
    (serve_table(&points), serve_record(&points))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_patterns_and_delivers_work() {
        let points = serve_sweep(64, 8, 3);
        // 3 patterns × {fault-free, faulted}.
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(p.delivered > 0, "{p:?}");
            assert!(p.decisions > 0, "{p:?}");
            assert!(p.elapsed_secs > 0.0, "{p:?}");
            assert!(p.restore_secs > 0.0, "{p:?}");
            assert!(p.p50_decide_nanos <= p.p99_decide_nanos, "{p:?}");
            assert!(p.p99_decide_nanos <= p.max_decide_nanos, "{p:?}");
        }
        let fault_free: Vec<_> = points.iter().filter(|p| p.fault_events == 0).collect();
        assert_eq!(fault_free.len(), 3);
        // The flood rows run behind deadline-aware admission; with the
        // tight SLO most of a 64-job flood is shed.
        let flood = points
            .iter()
            .find(|p| p.arrivals == "flood" && p.fault_events == 0)
            .unwrap();
        assert!(flood.shed_jobs > 0, "{flood:?}");
        assert_eq!(flood.delivered + flood.shed_jobs, flood.n, "{flood:?}");
    }

    #[test]
    fn json_and_table_agree_on_row_count() {
        let points = serve_sweep(32, 4, 1);
        let table = serve_table(&points);
        assert_eq!(table.rows.len(), points.len());
        let json = serve_record(&points).render();
        assert_eq!(json.matches("\"arrivals\"").count(), points.len());
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
        let v: Vec<u64> = (0..100).collect();
        assert_eq!(percentile(&v, 0.0), 0);
        assert_eq!(percentile(&v, 1.0), 99);
        assert_eq!(percentile(&v, 0.99), 98);
    }
}
