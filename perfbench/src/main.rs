//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_wide|fleet_deep|serve_stream|paper_offline> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from the seed, times its forward
//! and read paths for about `--seconds`, checks the outputs of every
//! operation, and prints its metrics by name and unit. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer ones (from a run that alternates untraced and traced
//! iterations) with `--trace 1`.

mod fleet;
mod harness;
mod offline;
mod serve;
mod trace;

use harness::{drive, Report};

const WORKLOADS: [&str; 4] = ["fleet_wide", "fleet_deep", "serve_stream", "paper_offline"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let report = match args.workload.as_str() {
        "fleet_wide" => drive::<fleet::FleetWide>(seed, secs, traced),
        "fleet_deep" => drive::<fleet::FleetDeep>(seed, secs, traced),
        "serve_stream" => drive::<serve::Serve>(seed, secs, traced),
        _ => drive::<offline::Offline>(seed, secs, traced),
    };
    print_report(&args, &report);
}

fn print_report(args: &Args, report: &Report) {
    let Report {
        tally,
        metrics,
        notes,
    } = report;
    println!(
        "workload {} | seed {} | fleet workers {}",
        args.workload,
        args.seed,
        fleet::workers()
    );
    for note in notes {
        println!("{note}");
    }
    for e in &tally.errors {
        println!("FAILED {e}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    println!(
        "{:<36} {:>16} {}",
        "failed_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        format_args!("({} of {} operations)", tally.failed, tally.attempted)
    );
    for m in metrics {
        println!("{:<36} {:>16} {}", m.name, m.value, m.unit);
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}
