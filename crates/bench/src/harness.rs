//! Shared experiment utilities: CSV tables, record tiers, timing.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// A named CSV table produced by an experiment.
#[derive(Debug, Clone)]
pub struct CsvTable {
    /// File stem (e.g. `fig1_energy_makespan`).
    pub name: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Create an empty table.
    pub fn new(name: &str, header: &[&str]) -> Self {
        CsvTable {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of formatted cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render as CSV text.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Write to `dir/<name>.csv`.
    ///
    /// # Errors
    /// I/O errors from create/write.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.name)), self.to_csv())
    }

    /// Print to stdout with a `# name` banner.
    pub fn print(&self) {
        println!("# {}", self.name);
        print!("{}", self.to_csv());
    }
}

/// How much of a `BENCH_*` path `exp-scaling` measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// No `--bench-json`: tables only, references capped (~1 minute).
    Quick,
    /// `--smoke`: seconds-scale sizes, the CI tier.
    Smoke,
    /// The acceptance sizes of the committed records (tens of minutes).
    Full,
}

/// Format an f64 with enough digits for reproduction comparisons.
pub fn fmt(x: f64) -> String {
    format!("{x:.9}")
}

/// Wall-clock one closure, returning (result, seconds). Runs it
/// `repeats` times and reports the minimum (robust to scheduler noise).
pub fn time_min<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(repeats >= 1);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(value);
    }
    (out.expect("repeats >= 1"), best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering() {
        let mut t = CsvTable::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn timing_returns_value() {
        let (v, secs) = time_min(3, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
