//! The workload-independent harness: repeated set-up, warm-up, timed
//! iterations (alternating untraced and traced ones when tracing), the
//! operation tally behind `attempted`/`failed`, and metric reduction.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::{per_iteration, self_times, Tracer};

/// Set-ups per run: at least `MIN_SETUPS`, and more while their total
/// stays under `SETUP_SECONDS`, up to `MAX_SETUPS`; `setup_s` is their
/// median. A set-up of a few milliseconds is swayed by allocator and
/// cache state, so a cheap one is repeated many times.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 64;
const SETUP_SECONDS: f64 = 1.0;
/// Fewest timed iterations per kind (untraced, traced) behind a median.
const MIN_ITERATIONS: usize = 3;
/// Iteration ids at and above this tag set-up spans.
const SETUP_ITERATION: u32 = 1 << 20;

/// What one iteration did on the forward and the read path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    pub run_jobs: f64,
    pub run_s: f64,
    pub read_jobs: f64,
    pub read_s: f64,
}

/// Counts operations and the ones that failed (returned `Err` or failed
/// an output check); keeps the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Unwrap an API call's result. An `Err` is recorded as a failed
    /// operation; on `Some` the caller records the operation through
    /// [`Tally::record`] once its outputs are checked.
    pub fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.record(what, Err(e.to_string()));
                None
            }
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Generate the inputs from `seed` and build everything up to the
    /// first timed call.
    fn setup(seed: u64, tracer: &mut Tracer) -> Self;

    /// Checks made once per process, outside timing.
    fn check_once(&mut self, _tally: &mut Tally) {}

    /// One timed iteration of the forward and the read path, with the
    /// output checks of every operation in it.
    fn iterate(&mut self, tracer: &mut Tracer, tally: &mut Tally) -> Pass;

    /// Per-layer figures that are not span times (counts, percentiles),
    /// gathered over the traced iterations.
    fn layer_counts(&self) -> Vec<(&'static str, f64)>;
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run produced.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted values; 0 for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() - 1) as f64 * p).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// The highest percentile of `n` samples that keeps at least ten
/// samples beyond it (0.5 when there are too few).
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    let p = 1.0 - 10.0 / n as f64;
    // Report a round percentile: p99.9, p99, p90, ...
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| q <= p)
        .unwrap_or(0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One-line summary of a sample: count and quartiles.
fn summary(name: &str, v: &[f64]) -> String {
    format!(
        "{name}: {} samples, min {:.6} p25 {:.6} median {:.6} p75 {:.6} max {:.6}",
        v.len(),
        percentile(v, 0.0),
        percentile(v, 0.25),
        median(v),
        percentile(v, 0.75),
        percentile(v, 1.0)
    )
}

/// Run workload `W`: set up repeatedly (see [`MIN_SETUPS`]), check once,
/// warm up, then iterate for `seconds`. With `traced`, untraced and
/// traced iterations alternate and the report holds the per-layer
/// metrics; otherwise it holds the end-to-end ones: the median set-up
/// time, the median rates over the untraced iterations, and the
/// process's peak RSS.
pub fn drive<W: Workload>(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    tracer.set_enabled(traced);

    let mut setup_s: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut workload: Option<W> = None;
    for k in 0..MAX_SETUPS {
        if k >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_SECONDS {
            break;
        }
        drop(workload.take());
        tracer.set_iteration(SETUP_ITERATION + k as u32);
        let t = Instant::now();
        workload = Some(W::setup(seed, &mut tracer));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    tracer.set_enabled(false);
    workload.check_once(&mut tally);
    workload.iterate(&mut tracer, &mut tally);

    let mut passes: [Vec<Pass>; 2] = [Vec::new(), Vec::new()];
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut id = 0u32;
    loop {
        let kind = usize::from(traced && id % 2 == 1);
        tracer.set_enabled(kind == 1);
        tracer.set_iteration(id);
        let t = Instant::now();
        let root = tracer.begin("iteration");
        let pass = workload.iterate(&mut tracer, &mut tally);
        tracer.end(root);
        walls[kind].push(t.elapsed().as_secs_f64());
        passes[kind].push(pass);
        id += 1;
        let enough =
            passes[0].len() >= MIN_ITERATIONS && (!traced || passes[1].len() >= MIN_ITERATIONS);
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tracer.set_enabled(false);

    let mut notes = vec![format!(
        "cores {} | timed iterations {} untraced, {} traced",
        cores(),
        passes[0].len(),
        passes[1].len()
    )];
    let metrics = if traced {
        layer_metrics(&tracer, &workload, &walls, &mut notes)
    } else {
        let rates = |f: fn(&Pass) -> (f64, f64)| -> Vec<f64> {
            passes[0]
                .iter()
                .map(|p| {
                    let (jobs, s) = f(p);
                    jobs / s
                })
                .collect()
        };
        let peak_mb = match peak_rss_mb() {
            Ok(mb) => vec![mb],
            Err(e) => {
                tally.record("peak RSS", Err(e));
                Vec::new()
            }
        };
        let samples = [
            ("setup_s", setup_s, "s"),
            ("run_jobs_per_s", rates(|p| (p.run_jobs, p.run_s)), "jobs/s"),
            (
                "read_jobs_per_s",
                rates(|p| (p.read_jobs, p.read_s)),
                "jobs/s",
            ),
            ("peak_rss_mb", peak_mb, "MiB"),
        ];
        samples
            .into_iter()
            .map(|(name, v, unit)| {
                notes.push(summary(name, &v));
                Metric {
                    name,
                    value: median(&v),
                    unit,
                }
            })
            .collect()
    };
    Report {
        tally,
        metrics,
        notes,
    }
}

/// The per-layer metric names and units. Span times are the median over
/// traced iterations of a name's total per iteration; the rest come from
/// `layer_counts` or the harness. Every traced run reports all of them; a
/// layer a workload never calls reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.dispatch_ms.round_robin", "ms"),
    ("fleet.dispatch_ms.least_assigned", "ms"),
    ("fleet.dispatch_ms.weighted_fastest", "ms"),
    ("fleet.partition_ms", "ms"),
    ("fleet.execute_ms", "ms"),
    ("fleet.reduce_ms", "ms"),
    ("fleet.trace_serialize_s", "s"),
    ("fleet.trace_parse_s", "s"),
    ("fleet.replay_s", "s"),
    ("fleet.trace_records", "count"),
    ("fleet.trace_bytes_per_job", "B/job"),
    ("fleet.workers", "count"),
    ("fleet.dispatch_self_rank", "rank"),
    ("serve.new_s", "s"),
    ("serve.run_s", "s"),
    ("serve.finish_s", "s"),
    ("serve.chunk_ms_p50", "ms"),
    ("serve.chunk_ms_tail", "ms"),
    ("serve.chunk_tail_quantile", "quantile"),
    ("serve.chunks", "count"),
    ("serve.journal_bytes", "B"),
    ("serve.bytes_per_decision", "B"),
    ("serve.journal_copy_s", "s"),
    ("serve.restore_s", "s"),
    ("serve.replay_run_s", "s"),
    ("serve.replayed_decisions", "count"),
    ("engine.run_online_s", "s"),
    ("policy.decide_s", "s"),
    ("policy.decide_ns_p50", "ns"),
    ("policy.decide_ns_p99", "ns"),
    ("policy.decisions", "count"),
    ("core.makespan.frontier_build_s", "s"),
    ("core.makespan.laptop_s", "s"),
    ("core.makespan.schedule_s", "s"),
    ("core.makespan.segments", "count"),
    ("core.flow.curve_s", "s"),
    ("core.multi.makespan_s", "s"),
    ("core.multi.flow_s", "s"),
    ("core.multi.partition_s", "s"),
    ("bench.check_s", "s"),
    ("bench.cores", "count"),
    ("bench.iterations", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_coverage", "ratio"),
];

/// Span names reported in milliseconds (the fleet's own phase timings).
fn in_ms(name: &str) -> bool {
    name.contains("_ms")
}

/// The layer a span name belongs to when ranking self times: the three
/// per-policy dispatch spans are one layer.
fn layer_of(name: &'static str) -> &'static str {
    if name.starts_with("fleet.dispatch_ms.") {
        "fleet.dispatch_ms"
    } else {
        name
    }
}

fn layer_metrics<W: Workload>(
    tracer: &Tracer,
    workload: &W,
    walls: &[Vec<f64>; 2],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let totals = per_iteration(spans, |i| spans[i].end - spans[i].start);
    let self_sums = per_iteration(spans, |i| selfs[i]);

    // Median over the iterations a name occurs in of its per-iteration
    // total duration.
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for per_name in totals.values() {
        for (&name, &v) in per_name {
            by_name.entry(name).or_default().push(v);
        }
    }
    let mut values: BTreeMap<&str, f64> = by_name
        .iter()
        .map(|(&name, v)| {
            let scale = if in_ms(name) { 1e3 } else { 1.0 };
            (name, median(v) * scale)
        })
        .collect();
    for (name, v) in workload.layer_counts() {
        values.insert(name, v);
    }

    // Self-time coverage and layer ranking over the traced iterations.
    let mut coverage = Vec::new();
    let mut layer_self: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (iter, per_name) in self_sums.iter().filter(|(&i, _)| i < SETUP_ITERATION) {
        let wall = totals[iter]["iteration"];
        let mut covered = 0.0;
        let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
        for (&name, &v) in per_name.iter().filter(|(&n, _)| n != "iteration") {
            covered += v;
            *layers.entry(layer_of(name)).or_insert(0.0) += v;
        }
        coverage.push(covered / wall);
        for (name, v) in layers {
            layer_self.entry(name).or_default().push(v);
        }
    }
    let mut ranked: Vec<(&str, f64)> = layer_self.iter().map(|(&n, v)| (n, median(v))).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    if let Some(pos) = ranked.iter().position(|(n, _)| *n == "fleet.dispatch_ms") {
        values.insert("fleet.dispatch_self_rank", (pos + 1) as f64);
    }
    let untraced = median(&walls[0]);
    let traced = median(&walls[1]);
    let cover = median(&coverage);
    values.insert("trace.untraced_wall_s", untraced);
    values.insert("trace.traced_wall_s", traced);
    values.insert("trace.overhead_s", traced - untraced);
    values.insert("trace.self_coverage", cover);
    values.insert("bench.cores", cores() as f64);
    values.insert("bench.iterations", walls[1].len() as f64);

    notes.push(format!(
        "layer self times (median per traced iteration; wall {:.6} s):",
        traced
    ));
    for (name, v) in &ranked {
        notes.push(format!(
            "  {name:<36} {:>12.6} s  {:>5.1}%",
            v,
            100.0 * v / traced
        ));
    }
    notes.push(format!(
        "self times cover {:.1}% of the traced wall ({} the ~10% target); tracing overhead {:+.6} s per iteration",
        100.0 * cover,
        if (cover - 1.0).abs() <= 0.10 { "within" } else { "outside" },
        traced - untraced
    ));

    LAYERS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_tail_choice() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 98.0);
        assert_eq!(tail_quantile(10), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(100_000), 0.999);
    }

    #[test]
    fn tally_counts_errors_and_failed_checks() {
        let mut t = Tally::default();
        t.record("ok", Ok(()));
        t.record("bad", Err("mismatch".into()));
        assert_eq!(t.call("call", Err::<(), _>("boom")), None);
        assert_eq!(t.call("call", Ok::<_, String>(5)), Some(5));
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.errors, vec!["bad: mismatch", "call: boom"]);
    }
}
