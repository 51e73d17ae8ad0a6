//! All experiments, one module per E-number group of DESIGN.md's
//! "Paper → code" table (its "Exercised by" column).
//!
//! | Module | Experiments | Reproduces |
//! |--------|-------------|------------|
//! | [`figures`] | E1–E3 | paper Figures 1, 2, 3 |
//! | [`scaling`] | E4, E5, E19–E22 | §3 linear-time claim vs DP / MoveRight; the `BENCH_*` naive-vs-optimized sweeps (YDS, flow, multiproc, OA) |
//! | [`hardness`] | E6 | Theorem 8 witness (+ measured correction) |
//! | [`flowcurve`] | E7, E8 | §4 flow↔energy curve and Theorem-1 residuals |
//! | [`multiproc`] | E9, E10 | Theorem 10, multiprocessor makespan/flow |
//! | [`partition`] | E11 | Theorem 11 reduction, B&B vs heuristics |
//! | [`deadline_ratios`] | E12 | AVR / OA empirical competitive ratios |
//! | [`online_budget`] | E13 | §6 online policies vs offline frontier (plus the arena-engine scale sweep to n=20000 and the flat-vs-growing policy ladder, `BENCH_policies.json`) |
//! | [`discrete_levels`] | E14, E15 | §6 discrete speeds and switch overhead |
//! | [`precedence_dag`] | E16 | §2 precedence-constrained makespan heuristic vs bounds |
//! | [`temperature`] | E17 | §2 thermal objective (Bansal–Kimbrel–Pruhs model) |
//! | [`bounded_speed`] | E18 | §6 minimum/maximum speed regimes |
//! | [`faults`] | E23 | fault-rate × policy resilience sweep (`BENCH_faults.json`) |
//! | [`serve`] | E24 | serving-layer throughput / decision latency (`BENCH_serve.json`) |
//! | [`fleet`] | E25 | fleet-scaling sweep: host count × dispatch policy, heterogeneous power envelopes (`BENCH_fleet.json`) |
//! | [`fleet_par`] | E26 | thread-scaling of the parallel fleet executor: fixed scenario × worker count, digest-invariance gate (`BENCH_fleet_par.json`) |

pub mod bounded_speed;
pub mod deadline_ratios;
pub mod discrete_levels;
pub mod faults;
pub mod figures;
pub mod fleet;
pub mod fleet_par;
pub mod flowcurve;
pub mod hardness;
pub mod multiproc;
pub mod online_budget;
pub mod partition;
pub mod precedence_dag;
pub mod scaling;
pub mod serve;
pub mod temperature;

use crate::harness::{CsvTable, Tier};

/// One experiment: every table it produces.
pub type Experiment = fn() -> Vec<CsvTable>;

/// Every experiment by its `exp-all --only` name, in `exp-all` order.
pub const EXPERIMENTS: [(&str, Experiment); 16] = [
    ("figures", figures::run),
    ("scaling", scaling::run),
    ("hardness", hardness::run),
    ("flowcurve", flowcurve::run),
    ("multiproc", multiproc::run),
    ("partition", partition::run),
    ("deadline-ratios", deadline_ratios::run),
    ("online-budget", online_budget::run),
    ("discrete-levels", discrete_levels::run),
    ("precedence-dag", precedence_dag::run),
    ("temperature", temperature::run),
    ("bounded-speed", bounded_speed::run),
    ("faults", || vec![faults::faults_bench(Tier::Smoke).0]),
    ("serve", || vec![serve::serve_bench(Tier::Smoke).0]),
    ("fleet", || vec![fleet::fleet_bench(Tier::Smoke).0]),
    ("fleet-par", || {
        vec![fleet_par::fleet_par_bench(Tier::Smoke).0]
    }),
];
