//! `serve_stream`: the E24 faulted Poisson row through the crash-safe
//! server. A job is one arrival of the generated stream. An iteration
//! serves the stream to completion in fixed-size `run_for` chunks
//! (forward path), restores a second server from the journal the first
//! one wrote and runs it (read path), and runs the bare engine on the
//! same input; the three outcome digests must agree.

use std::time::Instant;

use pas_core::online::SpendAll;
use pas_power::PolyPower;
use pas_sim::online::{Decision, OnlinePolicy, ReadyView};
use pas_sim::{
    outcome_digest, run_online_with_faults, FaultModel, FaultNotice, FaultPlan, Journal,
    ServeConfig, Server, WatchdogConfig,
};
use pas_workload::{generators, Instance};

use crate::harness::{percentile, tail_quantile, Pass, Tally, Workload};
use crate::trace::Tracer;

/// Arrivals per stream: small enough for several iterations per run.
const JOBS: usize = 100_000;
/// Fault events the plan aims for (the E24 faulted rows).
const FAULT_EVENTS: f64 = 64.0;
/// Engine steps per `run_for` chunk.
const CHUNK_STEPS: u64 = 4096;

const MODEL: PolyPower = PolyPower::CUBE;

/// Delegates every `OnlinePolicy` method to the wrapped policy and, when
/// timing, records how long each `decide` took.
pub struct PolicyProbe<P> {
    inner: P,
    timing: bool,
    decide_ns: Vec<u64>,
}

impl<P> PolicyProbe<P> {
    pub fn new(inner: P, timing: bool) -> Self {
        PolicyProbe {
            inner,
            timing,
            decide_ns: Vec::new(),
        }
    }
}

impl<P: OnlinePolicy> OnlinePolicy for PolicyProbe<P> {
    fn decide(&mut self, now: f64, ready: &dyn ReadyView, energy_spent: f64) -> Option<Decision> {
        if !self.timing {
            return self.inner.decide(now, ready, energy_spent);
        }
        let t = Instant::now();
        let d = self.inner.decide(now, ready, energy_spent);
        self.decide_ns
            .push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        d
    }

    fn notify(&mut self, notice: &FaultNotice) {
        self.inner.notify(notice);
    }

    fn save_state(&self) -> Option<Vec<f64>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &[f64]) -> bool {
        self.inner.load_state(state)
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The serve path's output check: the fresh, restored and bare-engine
/// outcomes carry the same digest.
pub fn check_digests(fresh: u64, restored: u64, bare: u64) -> Result<(), String> {
    if fresh == restored && fresh == bare {
        Ok(())
    } else {
        Err(format!(
            "outcome digests differ: fresh {fresh:016x}, restored {restored:016x}, bare engine {bare:016x}"
        ))
    }
}

/// The E24 serving configuration: default watchdog, latency capture.
fn config() -> ServeConfig {
    ServeConfig {
        admission: None,
        snapshot_every: None,
        watchdog: Some(WatchdogConfig::default()),
        record_latency: true,
    }
}

fn policy(instance: &Instance) -> SpendAll<PolyPower> {
    SpendAll::new(MODEL, 2.0 * instance.total_work())
}

pub struct Serve {
    instance: Instance,
    plan: FaultPlan,
    /// The server built during set-up, used by the first iteration.
    ready: Option<Server<'static, PolyPower>>,
    layer: Vec<(&'static str, f64)>,
    chunk_ms: Vec<f64>,
    decide_ns: Vec<f64>,
}

impl Serve {
    fn server(&self, tracer: &mut Tracer) -> Result<Server<'static, PolyPower>, String> {
        tracer
            .span("serve.new_s", || {
                Server::new(
                    &self.instance,
                    &MODEL,
                    &self.plan,
                    config(),
                    Journal::memory(),
                )
            })
            .map_err(|e| e.to_string())
    }
}

impl Workload for Serve {
    fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let (instance, plan) = tracer.span("workload.generate_s", || {
            let instance = generators::poisson(JOBS, 0.8, (0.5, 1.5), seed);
            let horizon = instance.last_release() + instance.total_work();
            let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
            let plan = FaultModel::uniform_mix(FAULT_EVENTS / horizon.max(1.0)).sample(
                horizon,
                &ids,
                seed.wrapping_mul(0x9e37),
            );
            (instance, plan)
        });
        let mut serve = Serve {
            instance,
            plan,
            ready: None,
            layer: Vec::new(),
            chunk_ms: Vec::new(),
            decide_ns: Vec::new(),
        };
        serve.ready = serve.server(tracer).ok();
        serve
    }

    fn iterate(&mut self, tracer: &mut Tracer, tally: &mut Tally) -> Pass {
        let n = self.instance.len() as f64;
        let mut pass = Pass::default();
        let server = match self.ready.take() {
            Some(s) => Ok(s),
            None => self.server(tracer),
        };
        let Some(mut server) = tally.call("serve new", server) else {
            return pass;
        };

        // Forward path: serve to completion in fixed-size chunks.
        let mut probe = PolicyProbe::new(policy(&self.instance), tracer.enabled());
        let mut chunk_ms = Vec::new();
        let t = Instant::now();
        let run = tracer.span("serve.run_s", || loop {
            let c = Instant::now();
            match server.run_for(&mut probe, CHUNK_STEPS) {
                Ok(done) => {
                    chunk_ms.push(c.elapsed().as_secs_f64() * 1e3);
                    if done {
                        break Ok(());
                    }
                }
                Err(e) => break Err(e),
            }
        });
        let journal = tracer.span("serve.journal_copy_s", || {
            server.journal().contents().map(str::to_owned)
        });
        let fresh = run.and_then(|()| tracer.span("serve.finish_s", || server.finish()));
        pass.run_s = t.elapsed().as_secs_f64();
        pass.run_jobs = n;
        let Some(fresh) = tally.call("serve run", fresh) else {
            return pass;
        };
        let Some(journal) = journal else {
            tally.record(
                "serve journal",
                Err("memory journal has no contents".into()),
            );
            return pass;
        };

        // Read path: restore from the journal and run to completion.
        let mut replay_policy = policy(&self.instance);
        let t = Instant::now();
        let restored = tracer
            .span("serve.restore_s", || {
                Server::restore(
                    &self.instance,
                    &MODEL,
                    &self.plan,
                    config(),
                    &journal,
                    Journal::memory(),
                    &mut replay_policy,
                )
            })
            .and_then(|s| tracer.span("serve.replay_run_s", || s.run(&mut replay_policy)));
        pass.read_s = t.elapsed().as_secs_f64();
        pass.read_jobs = n;

        let mut bare_policy = policy(&self.instance);
        let bare = tracer.span("engine.run_online_s", || {
            run_online_with_faults(&self.instance, &MODEL, &mut bare_policy, &self.plan)
        });

        let traced = tracer.enabled();
        tracer.span("bench.check_s", || {
            let checked = restored.map_err(|e| format!("restore: {e}")).and_then(|r| {
                let bare = bare.map_err(|e| format!("bare engine: {e}"))?;
                check_digests(
                    outcome_digest(&fresh.outcome),
                    outcome_digest(&r.outcome),
                    outcome_digest(&bare),
                )
                .map(|()| r.stats.replayed_decisions)
            });
            let replayed = checked.as_ref().map_or(0, |&r| r);
            tally.record("serve run + restore", checked.map(drop));
            if traced {
                let decisions = fresh.stats.decisions.max(1) as f64;
                let decide_total: u64 = probe.decide_ns.iter().sum();
                self.layer = vec![
                    ("serve.journal_bytes", journal.len() as f64),
                    ("serve.bytes_per_decision", journal.len() as f64 / decisions),
                    ("serve.replayed_decisions", replayed as f64),
                    ("policy.decisions", probe.decide_ns.len() as f64),
                    ("policy.decide_s", decide_total as f64 / 1e9),
                ];
                self.chunk_ms.extend(&chunk_ms);
                self.decide_ns
                    .extend(probe.decide_ns.iter().map(|&v| v as f64));
            }
        });
        pass
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        let tail = tail_quantile(self.chunk_ms.len());
        let mut out = self.layer.clone();
        out.extend([
            ("serve.chunks", self.chunk_ms.len() as f64),
            ("serve.chunk_ms_p50", percentile(&self.chunk_ms, 0.5)),
            ("serve.chunk_ms_tail", percentile(&self.chunk_ms, tail)),
            ("serve.chunk_tail_quantile", tail),
            ("policy.decide_ns_p50", percentile(&self.decide_ns, 0.5)),
            ("policy.decide_ns_p99", percentile(&self.decide_ns, 0.99)),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(instance: &Instance, plan: &FaultPlan) -> (u64, String) {
        let mut server =
            Server::new(instance, &MODEL, plan, config(), Journal::memory()).expect("server");
        let mut p = PolicyProbe::new(policy(instance), true);
        while !server.run_for(&mut p, 64).expect("serves") {}
        let journal = server.journal().contents().expect("memory").to_owned();
        let out = server.finish().expect("finishes");
        assert_eq!(p.decide_ns.len() as u64, out.stats.decisions);
        (outcome_digest(&out.outcome), journal)
    }

    fn restored(instance: &Instance, plan: &FaultPlan, journal: &str) -> Result<u64, String> {
        let mut p = policy(instance);
        let s = Server::restore(
            instance,
            &MODEL,
            plan,
            config(),
            journal,
            Journal::memory(),
            &mut p,
        )
        .map_err(|e| e.to_string())?;
        let out = s.run(&mut p).map_err(|e| e.to_string())?;
        Ok(outcome_digest(&out.outcome))
    }

    #[test]
    fn restore_matches_and_a_corrupted_journal_fails_the_check() {
        let instance = generators::poisson(400, 0.8, (0.5, 1.5), 5);
        let horizon = instance.last_release() + instance.total_work();
        let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
        let plan = FaultModel::uniform_mix(16.0 / horizon).sample(horizon, &ids, 9);
        let (fresh, journal) = served(&instance, &plan);
        let bare = {
            let mut p = policy(&instance);
            outcome_digest(&run_online_with_faults(&instance, &MODEL, &mut p, &plan).expect("runs"))
        };
        let good = restored(&instance, &plan, &journal).expect("restores");
        assert_eq!(check_digests(fresh, good, bare), Ok(()));

        // Halve the speed of one journaled decision: the replay applies
        // it verbatim, so the restored outcome differs.
        let line = journal
            .lines()
            .find(|l| l.contains("\"t\":\"dec\"") && l.contains("\"v\":\""))
            .expect("a decision with a speed");
        let hex = line.split("\"v\":\"").nth(1).expect("speed field")[..16].to_owned();
        let speed = f64::from_bits(u64::from_str_radix(&hex, 16).expect("hex"));
        let bad_line = line.replace(&hex, &format!("{:016x}", (speed / 2.0).to_bits()));
        let bad = journal.replacen(line, &bad_line, 1);
        // The server accepts the well-formed record; only the check can
        // catch it.
        let digest = restored(&instance, &plan, &bad).expect("a well-formed journal restores");
        assert!(check_digests(fresh, digest, bare).is_err());
        assert!(check_digests(fresh, good, bare ^ 1).is_err());
    }
}
