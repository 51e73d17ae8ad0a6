//! The nine `BENCH_*.json` perf records `exp-scaling` writes, one row
//! each: the `--only` name, the file, the measurement (quick/smoke/full
//! sizing, CSV table and record), and the gate.
//!
//! A gate is the record's own claim checked in code: the fast engines
//! agree with their kept references, the 1-host fleet is the bare
//! engine, worker count never leaks into a digest, the online-policy
//! ladder stays separated. `exp-scaling --bench-json` runs it on every
//! record it writes, after reading the file back from disk.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Value};

use crate::bench_file::{self, BenchFile};
use crate::experiments::faults::faults_bench;
use crate::experiments::fleet::fleet_bench;
use crate::experiments::fleet_par::fleet_par_bench;
use crate::experiments::online_budget::policies_bench;
use crate::experiments::scaling::{flow_bench, multi_bench, oa_bench, yds_bench};
use crate::experiments::serve::serve_bench;
use crate::harness::{CsvTable, Tier};

/// One `BENCH_*.json` path.
pub struct Record {
    /// The `--only` name.
    pub name: &'static str,
    /// The file written under the `--bench-json` directory.
    pub file: &'static str,
    /// Measure the path at a tier: its CSV table and its record.
    pub run: fn(Tier) -> (CsvTable, BenchFile),
    /// The check the written record must pass, given the directory it
    /// was written to.
    pub gate: fn(&Value, &Path) -> Result<(), String>,
}

/// Every path, in run order (E25 `fleet` before the E26 `fleet-par`
/// curve that is checked against it).
#[rustfmt::skip]
pub const RECORDS: [Record; 9] = [
    Record { name: "yds",       file: "BENCH_yds.json",       run: yds_bench,       gate: yds_gate },
    Record { name: "flow",      file: "BENCH_flow.json",      run: flow_bench,      gate: flow_gate },
    Record { name: "multi",     file: "BENCH_multi.json",     run: multi_bench,     gate: multi_gate },
    Record { name: "oa",        file: "BENCH_oa.json",        run: oa_bench,        gate: oa_gate },
    Record { name: "faults",    file: "BENCH_faults.json",    run: faults_bench,    gate: faults_gate },
    Record { name: "serve",     file: "BENCH_serve.json",     run: serve_bench,     gate: serve_gate },
    Record { name: "policies",  file: "BENCH_policies.json",  run: policies_bench,  gate: policies_gate },
    Record { name: "fleet",     file: "BENCH_fleet.json",     run: fleet_bench,     gate: fleet_gate },
    Record { name: "fleet-par", file: "BENCH_fleet_par.json", run: fleet_par_bench, gate: fleet_par_gate },
];

/// What `exp-scaling` was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalingArgs {
    /// [`Tier::Quick`] without `--bench-json` (print tables only).
    pub tier: Tier,
    /// Where `--bench-json` writes the records (default `.`).
    pub dir: PathBuf,
    /// `--only NAME`.
    pub only: Option<&'static str>,
}

/// Parse `exp-scaling`'s arguments (without the program name). Flags
/// may come in any order; DIR is the one argument that is not a flag.
///
/// # Errors
/// An unknown flag, a stray positional, a missing or unknown `--only`
/// name, or `--smoke`/DIR without `--bench-json`.
pub fn parse_args(args: &[String]) -> Result<ScalingArgs, String> {
    let (mut bench_json, mut smoke, mut only, mut dir) = (false, false, None, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench-json" => bench_json = true,
            "--smoke" => smoke = true,
            "--only" => {
                let name = args.next().ok_or("--only needs a record name")?;
                let record = RECORDS.iter().find(|r| r.name == name).ok_or_else(|| {
                    let names: Vec<&str> = RECORDS.iter().map(|r| r.name).collect();
                    format!("--only takes one of {}, got `{name}`", names.join(", "))
                })?;
                only = Some(record.name);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path if dir.is_none() => dir = Some(PathBuf::from(path)),
            stray => return Err(format!("unexpected argument `{stray}`: DIR is given once")),
        }
    }
    if !bench_json && (smoke || dir.is_some()) {
        return Err("--smoke and DIR only apply with --bench-json".into());
    }
    Ok(ScalingArgs {
        tier: match (bench_json, smoke) {
            (false, _) => Tier::Quick,
            (true, true) => Tier::Smoke,
            (true, false) => Tier::Full,
        },
        dir: dir.unwrap_or_else(|| PathBuf::from(".")),
        only,
    })
}

/// Fail the gate with a message unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {{
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    }};
}

/// Relative gap the exact fast engines (YDS, OA, the partition B&B)
/// keep to their references.
const EXACT_GAP: f64 = 1e-9;

/// Relative gap for flow, whose reference is a damped fixed point (the
/// committed n=1000 curve peaks near 1e-9).
const FLOW_GAP: f64 = 1e-6;

/// Field `key` of an object, as a `T`.
fn at<T: Deserialize>(v: &Value, key: &str) -> Result<T, String> {
    let entries = v
        .as_obj()
        .ok_or_else(|| format!("`{key}`: not an object"))?;
    serde::field(entries, key).map_err(|e| format!("`{key}`: {e}"))
}

/// The record's points, once it is the `bench` record with at least one.
fn points(doc: &Value, bench: &str) -> Result<Vec<Value>, String> {
    let name: String = at(doc, "bench")?;
    ensure!(name == bench, "bench is `{name}`, not `{bench}`");
    let points: Vec<Value> = at(doc, "points")?;
    ensure!(!points.is_empty(), "{bench}: no points");
    Ok(points)
}

/// `key` is `null` or below `tol` on every point.
fn gaps_within(points: &[Value], key: &str, tol: f64) -> Result<(), String> {
    for (i, p) in points.iter().enumerate() {
        if let Some(gap) = at::<Option<f64>>(p, key)? {
            ensure!(gap < tol, "point {i}: {key} {gap:e} is not below {tol:e}");
        }
    }
    Ok(())
}

/// `key` is a non-negative time on every point.
fn timed(points: &[Value], key: &str) -> Result<(), String> {
    for (i, p) in points.iter().enumerate() {
        let ms: f64 = at(p, key)?;
        ensure!(ms >= 0.0, "point {i}: {key} {ms} is not a time");
    }
    Ok(())
}

/// `key` is above zero on every point.
fn positive(points: &[Value], key: &str) -> Result<(), String> {
    for (i, p) in points.iter().enumerate() {
        ensure!(at::<f64>(p, key)? > 0.0, "point {i}: no {key}");
    }
    Ok(())
}

fn yds_gate(doc: &Value, _: &Path) -> Result<(), String> {
    let points = points(doc, "yds_timeline_engine")?;
    gaps_within(&points, "energy_rel_gap", EXACT_GAP)
}

fn flow_gate(doc: &Value, _: &Path) -> Result<(), String> {
    let points = points(doc, "flow_block_decomposition")?;
    gaps_within(&points, "solve_energy_rel_gap", FLOW_GAP)?;
    gaps_within(&points, "curve_max_energy_rel_gap", FLOW_GAP)
}

fn multi_gate(doc: &Value, _: &Path) -> Result<(), String> {
    let points = points(doc, "multi_incremental_bb")?;
    gaps_within(&points, "norm_rel_gap", EXACT_GAP)
}

fn oa_gate(doc: &Value, _: &Path) -> Result<(), String> {
    let points = points(doc, "oa_kinetic_tournament")?;
    gaps_within(&points, "energy_rel_gap", EXACT_GAP)
}

fn faults_gate(doc: &Value, _: &Path) -> Result<(), String> {
    for (i, p) in points(doc, "fault_resilience")?.iter().enumerate() {
        let (misses, cancelled): (f64, f64) = (at(p, "deadline_misses")?, at(p, "cancelled_jobs")?);
        ensure!(
            misses >= cancelled,
            "point {i}: {misses} deadline misses but {cancelled} cancelled jobs, which all miss"
        );
    }
    Ok(())
}

fn serve_gate(doc: &Value, _: &Path) -> Result<(), String> {
    let points = points(doc, "serve_throughput")?;
    positive(&points, "delivered")?;
    for (i, p) in points.iter().enumerate() {
        let p50: f64 = at(p, "p50_decide_nanos")?;
        let p99: f64 = at(p, "p99_decide_nanos")?;
        let max: f64 = at(p, "max_decide_nanos")?;
        ensure!(
            p50 <= p99 && p99 <= max,
            "point {i}: decision latency p50 {p50} / p99 {p99} / max {max} out of order"
        );
    }
    Ok(())
}

fn policies_gate(doc: &Value, _: &Path) -> Result<(), String> {
    let points = points(doc, "online_policy_ladder")?;
    let flat: Vec<String> = at(doc, "flat_policies")?;
    let growing: Vec<String> = at(doc, "growing_policies")?;
    ensure!(
        flat.iter().any(|p| p.starts_with("qoa")),
        "qOA not flat: {flat:?}"
    );
    ensure!(
        flat.iter().any(|p| p.starts_with("bkp")),
        "BKP not flat: {flat:?}"
    );
    ensure!(
        growing.iter().any(|p| p == "spend-all"),
        "spend-all not degrading: {growing:?}"
    );
    ensure!(
        !flat.iter().any(|p| growing.contains(p)),
        "a policy is both flat and growing: {flat:?} / {growing:?}"
    );
    for name in &flat {
        let ratios: Vec<f64> = points
            .iter()
            .filter(|p| at::<String>(p, "policy").is_ok_and(|policy| policy == *name))
            .map(|p| at(p, "ratio"))
            .collect::<Result<_, _>>()?;
        ensure!(
            !ratios.is_empty() && ratios.iter().all(|&r| r < 10.0),
            "{name} ratio unbounded: {ratios:?}"
        );
    }
    Ok(())
}

fn fleet_gate(doc: &Value, _: &Path) -> Result<(), String> {
    let points = points(doc, "fleet_scaling")?;
    ensure!(
        at::<bool>(doc, "single_host_equivalence")?,
        "1-host fleet no longer bit-identical to the bare engine"
    );
    positive(&points, "completed_jobs")?;
    positive(&points, "dynamic_energy")?;
    // The read path's text layers, recorded beside the run's phases.
    timed(&points, "serialize_ms")?;
    timed(&points, "parse_ms")
}

fn fleet_par_gate(doc: &Value, dir: &Path) -> Result<(), String> {
    let e25 = bench_file::read(&dir.join("BENCH_fleet.json"))
        .map_err(|e| format!("BENCH_fleet.json, the E25 record to match: {e}"))?;
    fleet_par_against(doc, &e25)
}

/// The E26 curve `doc` against the E25 record `e25`: its scenario is
/// E25's round-robin configuration verbatim, so its one digest must be
/// that point's.
fn fleet_par_against(doc: &Value, e25: &Value) -> Result<(), String> {
    let points = points(doc, "fleet_par")?;
    ensure!(
        at::<bool>(doc, "digest_invariant")?,
        "worker count leaked into the fleet digest"
    );
    let speedup: f64 = at(doc, "speedup_vs_1thread")?;
    ensure!(
        speedup >= 1.0,
        "parallel executor slower than its own 1-worker floor: {speedup}"
    );
    let digests: Vec<String> = points
        .iter()
        .map(|p| at(p, "digest"))
        .collect::<Result<_, _>>()?;
    ensure!(
        digests.iter().all(|d| *d == digests[0]),
        "digests diverged across worker counts: {digests:?}"
    );
    let hosts: f64 = at(doc, "hosts")?;
    let e25_digest: String = self::points(e25, "fleet_scaling")?
        .iter()
        .find(|p| at(p, "hosts") == Ok(hosts) && at(p, "dispatch") == Ok("round_robin".to_string()))
        .map(|p| at(p, "digest"))
        .ok_or(format!("no E25 point at hosts={hosts} round_robin"))??;
    ensure!(
        digests[0] == e25_digest,
        "E26 digest {} != E25 digest {e25_digest}",
        digests[0]
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<ScalingArgs, String> {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&words)
    }

    #[test]
    fn dir_is_the_one_positional_wherever_it_stands() {
        let want = ScalingArgs {
            dir: PathBuf::from("out"),
            tier: Tier::Smoke,
            only: Some("oa"),
        };
        assert_eq!(args("--bench-json --smoke out --only oa"), Ok(want.clone()));
        assert_eq!(args("--bench-json out --smoke --only oa"), Ok(want.clone()));
        assert_eq!(args("--only oa out --smoke --bench-json"), Ok(want));
        let full = args("--bench-json").unwrap();
        assert_eq!(full.dir, PathBuf::from("."));
        assert_eq!(full.tier, Tier::Full);
        let quick = args("--only fleet-par").unwrap();
        assert_eq!(quick.tier, Tier::Quick);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for (line, want) in [
            ("--bench-json --smok out", "unknown flag `--smok`"),
            ("--bench-json out --only", "--only needs a record name"),
            ("--bench-json --only ydss", "--only takes one of yds, flow"),
            ("--bench-json out more", "unexpected argument `more`"),
            ("--smoke", "only apply with --bench-json"),
            ("out", "only apply with --bench-json"),
        ] {
            let err = args(line).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
        }
    }

    /// A committed repo-root record with one substring replaced.
    fn doctored(text: &str, from: &str, to: &str) -> Value {
        let doctored = text.replacen(from, to, 1);
        assert_ne!(doctored, text, "`{from}` not found");
        serde_json::from_str(&doctored).expect("doctored record parses")
    }

    macro_rules! committed {
        ($file:literal) => {
            include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../", $file))
        };
    }

    fn fails(result: Result<(), String>, want: &str) {
        let err = result.expect_err("doctored record must fail its gate");
        assert!(err.contains(want), "wanted `{want}`, got `{err}`");
    }

    const FLEET: &str = committed!("BENCH_fleet.json");
    const FLEET_PAR: &str = committed!("BENCH_fleet_par.json");
    const POLICIES: &str = committed!("BENCH_policies.json");

    fn e25() -> Value {
        serde_json::from_str(FLEET).unwrap()
    }

    #[test]
    fn fleet_par_gate_fails_on_two_digests() {
        let doc = doctored(FLEET_PAR, "82734f9e2aff322b", "82734f9e2aff322c");
        fails(fleet_par_against(&doc, &e25()), "digests diverged");
    }

    #[test]
    fn fleet_par_gate_fails_on_a_digest_missing_from_e25() {
        let doc: Value = serde_json::from_str(FLEET_PAR).unwrap();
        let e25 = doctored(
            FLEET,
            "\"digest\": \"82734f9e2aff322b\"",
            "\"digest\": \"0\"",
        );
        fails(fleet_par_against(&doc, &e25), "!= E25 digest 0");
        let e25 = doctored(
            FLEET,
            "\"hosts\": 1000, \"jobs\": 20000, \"dispatch\": \"round_robin\"",
            "\"hosts\": 999, \"jobs\": 20000, \"dispatch\": \"round_robin\"",
        );
        fails(fleet_par_against(&doc, &e25), "no E25 point at hosts=1000");
    }

    #[test]
    fn fleet_par_gate_fails_on_its_own_flags() {
        let doc = doctored(
            FLEET_PAR,
            "\"digest_invariant\": true",
            "\"digest_invariant\": false",
        );
        fails(fleet_par_against(&doc, &e25()), "worker count leaked");
        // The committed speedup is a measurement, so cut the field out
        // whatever its value.
        let at = FLEET_PAR
            .find("\"speedup_vs_1thread\": ")
            .expect("speedup field");
        let field = &FLEET_PAR[at..at + FLEET_PAR[at..].find(',').expect("field ends")];
        let doc = doctored(FLEET_PAR, field, "\"speedup_vs_1thread\": 0.9");
        fails(
            fleet_par_against(&doc, &e25()),
            "slower than its own 1-worker floor",
        );
    }

    #[test]
    fn fleet_gate_fails_without_single_host_equivalence() {
        let doc = doctored(
            FLEET,
            "\"single_host_equivalence\": true",
            "\"single_host_equivalence\": false",
        );
        fails(fleet_gate(&doc, Path::new(".")), "no longer bit-identical");
        let doc = doctored(FLEET, "\"completed_jobs\": 200", "\"completed_jobs\": 0");
        fails(
            fleet_gate(&doc, Path::new(".")),
            "point 0: no completed_jobs",
        );
        for key in ["serialize_ms", "parse_ms"] {
            let doc = doctored(FLEET, &format!("\"{key}\": "), "\"dropped\": ");
            fails(fleet_gate(&doc, Path::new(".")), key);
        }
    }

    #[test]
    fn policies_gate_fails_when_spend_all_is_flat() {
        let doc = doctored(
            POLICIES,
            "\"flat_policies\": [",
            "\"flat_policies\": [\"spend-all\", ",
        );
        fails(policies_gate(&doc, Path::new(".")), "both flat and growing");
        let doc = doctored(
            POLICIES,
            "\"growing_policies\": [\"adaptive-rate(h=10)\", \"spend-all\"]",
            "\"growing_policies\": [\"adaptive-rate(h=10)\"]",
        );
        fails(
            policies_gate(&doc, Path::new(".")),
            "spend-all not degrading",
        );
    }

    #[test]
    fn policies_gate_fails_when_a_flat_ratio_reaches_ten() {
        let doc = doctored(POLICIES, "\"ratio\": 1.000247", "\"ratio\": 10.000000");
        fails(
            policies_gate(&doc, Path::new(".")),
            "qoa(a=3,q=8,e=1.5) ratio unbounded",
        );
    }

    #[test]
    fn engine_agreement_gates_fail_on_a_gap() {
        let doc = doctored(committed!("BENCH_yds.json"), "7.842e-16", "2.000e-3");
        fails(yds_gate(&doc, Path::new(".")), "point 0: energy_rel_gap");
        let doc = doctored(committed!("BENCH_oa.json"), "5.883e-15", "1.000e-8");
        fails(oa_gate(&doc, Path::new(".")), "point 0: energy_rel_gap");
        let doc = doctored(
            committed!("BENCH_multi.json"),
            "\"norm_rel_gap\": 0.000e0",
            "\"norm_rel_gap\": 1.000e-3",
        );
        fails(multi_gate(&doc, Path::new(".")), "point 0: norm_rel_gap");
        let doc = doctored(
            committed!("BENCH_flow.json"),
            "\"curve_max_energy_rel_gap\": 5.012e-13",
            "\"curve_max_energy_rel_gap\": 5.012e-3",
        );
        fails(
            flow_gate(&doc, Path::new(".")),
            "point 0: curve_max_energy_rel_gap",
        );
    }

    #[test]
    fn faults_and_serve_gates_fail_on_inconsistent_counters() {
        let doc = doctored(
            committed!("BENCH_faults.json"),
            "\"cancelled_jobs\": 1",
            "\"cancelled_jobs\": 9",
        );
        fails(
            faults_gate(&doc, Path::new(".")),
            "point 1: 1 deadline misses but 9",
        );
        let doc = doctored(
            committed!("BENCH_serve.json"),
            "\"p50_decide_nanos\": 85",
            "\"p50_decide_nanos\": 8500",
        );
        fails(
            serve_gate(&doc, Path::new(".")),
            "point 0: decision latency",
        );
    }

    #[test]
    fn every_gate_checks_the_bench_name() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for record in &RECORDS {
            let text = std::fs::read_to_string(dir.join(record.file)).unwrap();
            let doc = doctored(&text, "\"bench\": \"", "\"bench\": \"not-");
            fails((record.gate)(&doc, &dir), "bench is `not-");
        }
    }
}
