//! `fleet_wide` and `fleet_deep`: the E25 heterogeneous fleet under all
//! three dispatch policies. A job is one workload arrival; an iteration
//! runs the fleet once per policy (forward path) and re-reads each
//! recorded trace: serialize → parse → replay (read path).

use std::time::Instant;

use pas_fleet::{
    replay_with, run_with, DispatchPolicy, EnginePower, EventTrace, FleetOutcome, FleetScenario,
    HostConfig, HostPolicy,
};
use pas_power::{DiscreteSpeeds, HostPower, PolyPower, SleepConfig};
use pas_workload::{generators, Instance};

use crate::harness::{cores, Pass, Tally, Workload};
use crate::trace::Tracer;

const POLICIES: [(DispatchPolicy, &str); 3] = [
    (DispatchPolicy::RoundRobin, "fleet.dispatch_ms.round_robin"),
    (
        DispatchPolicy::LeastAssigned,
        "fleet.dispatch_ms.least_assigned",
    ),
    (
        DispatchPolicy::WeightedFastest,
        "fleet.dispatch_ms.weighted_fastest",
    ),
];

/// Fleet digests committed in `BENCH_fleet.json` for 1000 hosts × 20
/// jobs per host at seed 11, in [`POLICIES`] order.
pub const WIDE_SEED11_DIGESTS: [u64; 3] = [
    0x8273_4f9e_2aff_322b,
    0x7c50_de7d_e014_4652,
    0x43b2_f65c_d148_eab0,
];

/// The four cycling host archetypes of the E25 sweep: bare cubic,
/// ladder + qOA, idle + sleep + BKP, capped ladder.
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
            let power =
                HostPower::with_idle(EnginePower::Poly(cube), 0.3).with_sleep(SleepConfig {
                    threshold: 2.0,
                    sleep_power: 0.05,
                    wake_energy: 1.0,
                });
            let mut h = HostConfig::new(id, power);
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

/// The E25 workload: heavy-tailed works on Poisson arrivals, about
/// `jobs_per_host` jobs per host over an arrival window of ~50.
pub fn fleet_workload(hosts: usize, jobs_per_host: usize, seed: u64) -> Instance {
    let n = hosts * jobs_per_host;
    generators::heavy_tailed(n, n as f64 / 50.0, 0.2, 8.0, 1.5, seed)
}

/// Fleet workers of the timed runs, passed to `run_with`/`replay_with`
/// explicitly, so no environment variable changes it. One: on a host
/// whose cores are shared, a run on two workers waits on whichever core
/// is slower at the moment, and its rate spread by 25-30% between runs
/// (against 5-10% on one). The two-worker path is still run and checked
/// once per process, in [`Workload::check_once`].
pub fn workers() -> usize {
    1
}

/// A fleet run's output checks: its replay reproduces its digest, every
/// arrival is either completed or shed, and (when known) the digest is
/// the committed one.
pub fn check_run(
    out: &FleetOutcome,
    replay_digest: u64,
    arrivals: usize,
    expected: Option<u64>,
) -> Result<(), String> {
    if replay_digest != out.digest {
        return Err(format!(
            "replay digest {replay_digest:016x} != run digest {:016x}",
            out.digest
        ));
    }
    let accounted = out.completed_jobs + out.shed_jobs();
    if accounted != arrivals {
        return Err(format!(
            "completed {} + shed {} != {arrivals} arrivals",
            out.completed_jobs,
            out.shed_jobs()
        ));
    }
    match expected {
        Some(want) if want != out.digest => Err(format!(
            "digest {:016x} != committed {want:016x}",
            out.digest
        )),
        _ => Ok(()),
    }
}

pub struct Fleet<const HOSTS: usize, const JOBS_PER_HOST: usize> {
    scenarios: Vec<FleetScenario>,
    expected: Option<[u64; 3]>,
    workers: usize,
    trace_records: f64,
    trace_bytes: f64,
    workers_used: f64,
}

/// 1000 hosts, ~20 jobs each: dispatch (O(jobs × hosts)) dominates.
pub type FleetWide = Fleet<1000, 20>;
/// 16 hosts, ~5000 jobs each: per-host execute and reduce dominate.
pub type FleetDeep = Fleet<16, 5000>;

impl<const HOSTS: usize, const JOBS_PER_HOST: usize> Workload for Fleet<HOSTS, JOBS_PER_HOST> {
    fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let workload = tracer.span("workload.generate_s", || {
            fleet_workload(HOSTS, JOBS_PER_HOST, seed)
        });
        let horizon = workload.last_release() + 50.0;
        let scenarios = POLICIES
            .iter()
            .map(|&(dispatch, _)| {
                let hosts = (0..HOSTS as u32).map(archetype).collect();
                let mut s = FleetScenario::new(hosts, workload.clone(), horizon, seed);
                s.dispatch = dispatch;
                s
            })
            .collect();
        let is_e25_point = HOSTS == 1000 && JOBS_PER_HOST == 20 && seed == 11;
        Fleet {
            scenarios,
            expected: is_e25_point.then_some(WIDE_SEED11_DIGESTS),
            workers: workers(),
            trace_records: 0.0,
            trace_bytes: 0.0,
            workers_used: 0.0,
        }
    }

    /// One run per policy on one worker and on two: the digests must
    /// agree. Skipped on a one-core machine, where two workers would
    /// exceed the cores.
    fn check_once(&mut self, tally: &mut Tally) {
        if cores() < 2 {
            return;
        }
        for s in &self.scenarios {
            let one = tally.call("fleet run (1 worker)", run_with(s, 1));
            let two = tally.call("fleet run (2 workers)", run_with(s, 2));
            if let (Some(one), Some(two)) = (one, two) {
                let same = if one.digest == two.digest {
                    Ok(())
                } else {
                    Err(format!("{:016x} != {:016x}", one.digest, two.digest))
                };
                tally.record("worker-count invariance", same);
            }
        }
    }

    fn iterate(&mut self, tracer: &mut Tracer, tally: &mut Tally) -> Pass {
        let mut pass = Pass::default();
        let (mut records, mut bytes, mut used) = (0usize, 0usize, 0usize);
        let workers = self.workers;
        for (k, scenario) in self.scenarios.iter().enumerate() {
            let arrivals = scenario.workload.len();
            let open = tracer.begin("fleet.run_s");
            let t0 = tracer.now();
            let t = Instant::now();
            let out = run_with(scenario, workers);
            pass.run_s += t.elapsed().as_secs_f64();
            pass.run_jobs += arrivals as f64;
            if let Ok(out) = &out {
                // The fleet times its own phases; lay them out in order
                // as children of the run span.
                let mut at = t0;
                let phases = [
                    (POLICIES[k].1, out.timings.dispatch_ms),
                    ("fleet.partition_ms", out.timings.partition_ms),
                    ("fleet.execute_ms", out.timings.execute_ms),
                    ("fleet.reduce_ms", out.timings.reduce_ms),
                ];
                for (name, ms) in phases {
                    tracer.record(name, at, at + ms / 1e3);
                    at += ms / 1e3;
                }
            }
            tracer.end(open);
            let Some(out) = tally.call("fleet run", out) else {
                continue;
            };

            let t = Instant::now();
            let text = tracer.span("fleet.trace_serialize_s", || out.trace.serialize());
            let parsed = tracer.span("fleet.trace_parse_s", || EventTrace::parse(&text));
            let replayed = parsed.map_err(|e| e.to_string()).and_then(|trace| {
                tracer.span("fleet.replay_s", || {
                    replay_with(scenario, &trace, workers).map_err(|e| e.to_string())
                })
            });
            pass.read_s += t.elapsed().as_secs_f64();
            pass.read_jobs += arrivals as f64;

            records += out.trace.records.len();
            bytes += text.len();
            used = out.workers;
            let expected = self.expected.map(|d| d[k]);
            tracer.span("bench.check_s", || match replayed {
                Ok(r) => tally.record("fleet run", check_run(&out, r.digest, arrivals, expected)),
                Err(e) => tally.record("fleet replay", Err(e)),
            });
        }
        if tracer.enabled() {
            self.trace_records = records as f64;
            self.trace_bytes = bytes as f64 / pass.run_jobs;
            self.workers_used = used as f64;
        }
        pass
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("fleet.trace_records", self.trace_records),
            ("fleet.trace_bytes_per_job", self.trace_bytes),
            ("fleet.workers", self.workers_used),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run() -> (FleetScenario, FleetOutcome) {
        let workload = fleet_workload(6, 5, 3);
        let horizon = workload.last_release() + 50.0;
        let scenario = FleetScenario::new((0..6).map(archetype).collect(), workload, horizon, 3);
        let out = run_with(&scenario, 1).expect("small fleet runs");
        (scenario, out)
    }

    #[test]
    fn honest_run_passes_and_corrupted_digests_fail() {
        let (scenario, out) = small_run();
        let n = scenario.workload.len();
        let replay = replay_with(&scenario, &out.trace, 1).expect("replays");
        assert_eq!(check_run(&out, replay.digest, n, Some(out.digest)), Ok(()));
        assert!(check_run(&out, replay.digest ^ 1, n, None).is_err());
        assert!(check_run(&out, replay.digest, n, Some(out.digest ^ 1)).is_err());
        assert!(check_run(&out, replay.digest, n + 1, None).is_err());
    }

    #[test]
    fn corrupted_trace_changes_the_replay_digest() {
        let (scenario, out) = small_run();
        let text = out.trace.serialize();
        // Re-route the first routed arrival to another host.
        let trace = EventTrace::parse(&text).expect("parses");
        let mut bad = trace.clone();
        let routed = bad
            .records
            .iter_mut()
            .find_map(|r| match r {
                pas_fleet::TraceRecord::Arrival {
                    routed: Some(h), ..
                } => Some(h),
                _ => None,
            })
            .expect("some arrival was routed");
        *routed = (*routed + 1) % 6;
        // Routing is not validated against the dispatcher, so the replay
        // runs; only the digest check can catch it.
        let digest = replay_with(&scenario, &bad, 1).expect("replays").digest;
        let n = scenario.workload.len();
        assert!(check_run(&out, digest, n, None).is_err());
    }

    #[test]
    fn wide_workload_reproduces_the_committed_round_robin_digest() {
        let workload = fleet_workload(1000, 20, 11);
        let horizon = workload.last_release() + 50.0;
        let scenario =
            FleetScenario::new((0..1000).map(archetype).collect(), workload, horizon, 11);
        let out = run_with(&scenario, 1).expect("runs");
        assert_eq!(out.digest, WIDE_SEED11_DIGESTS[0]);
    }
}
