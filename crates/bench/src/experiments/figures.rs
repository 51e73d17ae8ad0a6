//! E1–E3: regenerate the paper's Figures 1–3.
//!
//! Instance `r = [0, 5, 6]`, `w = [5, 2, 1]`, `power = speed³`; energies
//! sweep the figures' axis range `[6, 21]`. A companion table records
//! the breakpoints and the closed-form checkpoint values to compare
//! against the paper (E1–E3 in DESIGN.md's "Paper → code" table).

use crate::harness::{fmt, CsvTable};
use pas_core::makespan::Frontier;
use pas_power::PolyPower;
use pas_workload::Instance;

/// The §3.2 instance.
pub fn paper_instance() -> Instance {
    Instance::from_pairs(&[(0.0, 5.0), (5.0, 2.0), (6.0, 1.0)]).expect("static instance")
}

/// Produce the three figure series plus the checkpoint table.
pub fn run() -> Vec<CsvTable> {
    let instance = paper_instance();
    let model = PolyPower::CUBE;
    let frontier = Frontier::build(&instance, &model);

    let mut fig1 = CsvTable::new("fig1_energy_makespan", &["energy", "makespan"]);
    let mut fig2 = CsvTable::new("fig2_first_derivative", &["energy", "dM_dE"]);
    let mut fig3 = CsvTable::new("fig3_second_derivative", &["energy", "d2M_dE2"]);
    let steps = 600;
    for k in 0..=steps {
        let e = 6.0 + 15.0 * k as f64 / steps as f64;
        fig1.push_row(vec![
            fmt(e),
            fmt(frontier.makespan(&model, e).expect("valid E")),
        ]);
        fig2.push_row(vec![
            fmt(e),
            fmt(frontier.makespan_derivative(&model, e).expect("valid E")),
        ]);
        fig3.push_row(vec![
            fmt(e),
            fmt(frontier
                .makespan_second_derivative(&model, e)
                .expect("valid E")),
        ]);
    }

    let mut check = CsvTable::new("fig_checkpoints", &["quantity", "paper", "measured"]);
    let bp = frontier.breakpoints();
    check.push_row(vec!["breakpoint_high".into(), "17".into(), fmt(bp[0])]);
    check.push_row(vec!["breakpoint_low".into(), "8".into(), fmt(bp[1])]);
    let m6 = frontier.makespan(&model, 6.0).expect("valid");
    let m21 = frontier.makespan(&model, 21.0).expect("valid");
    check.push_row(vec![
        "makespan_at_E6".into(),
        "9.2376 (8*sqrt(8/6))".into(),
        fmt(m6),
    ]);
    check.push_row(vec![
        "makespan_at_E21".into(),
        "6.3536 (6+1/sqrt(8))".into(),
        fmt(m21),
    ]);
    check.push_row(vec![
        "dM_dE_at_8".into(),
        "-0.5".into(),
        fmt(frontier.makespan_derivative(&model, 8.0).expect("valid")),
    ]);
    check.push_row(vec![
        "dM_dE_at_17".into(),
        "-0.0625".into(),
        fmt(frontier.makespan_derivative(&model, 17.0).expect("valid")),
    ]);
    check.push_row(vec![
        "d2M_jump_at_8".into(),
        "0.09375 -> 0.25".into(),
        format!(
            "{} -> {}",
            fmt(frontier
                .makespan_second_derivative(&model, 8.0 - 1e-9)
                .expect("valid")),
            fmt(frontier
                .makespan_second_derivative(&model, 8.0 + 1e-9)
                .expect("valid"))
        ),
    ]);
    check.push_row(vec![
        "d2M_jump_at_17".into(),
        "0.0078125 -> 0.0234375".into(),
        format!(
            "{} -> {}",
            fmt(frontier
                .makespan_second_derivative(&model, 17.0 - 1e-9)
                .expect("valid")),
            fmt(frontier
                .makespan_second_derivative(&model, 17.0 + 1e-9)
                .expect("valid"))
        ),
    ]);

    vec![fig1, fig2, fig3, check]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_tables_have_expected_shape() {
        let tables = run();
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].rows.len(), 601);
        assert_eq!(tables[3].rows.len(), 8);
        // Spot check a fig1 row: E=6 -> 9.2376.
        assert!(tables[0].rows[0][1].starts_with("9.2376"));
    }
}
