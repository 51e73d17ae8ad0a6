//! The one writer of the repo-root `BENCH_*.json` perf records.
//!
//! A record is a header of `"key": value` lines (the first is always
//! `"bench"`), then a `"points"` array with one single-line object per
//! measured point. Values are typed ([`Val`]) so each column keeps the
//! precision it has always been written at.

use std::fmt;
use std::path::Path;

use serde::Value;

/// One JSON value, carrying the precision its column is written at.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// `null` (an `Option` column that was not measured).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A string, JSON-escaped on output.
    Str(String),
    /// A float at a fixed number of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A float in scientific notation (`{:.Ne}`).
    Sci(f64, usize),
    /// A float in Rust's shortest round-trip form (`{}`).
    Plain(f64),
    /// An array, rendered on one line.
    List(Vec<Val>),
}

/// `{:.6}`: seconds, energies, overheads.
pub fn f6(x: f64) -> Val {
    Val::Fixed(x, 6)
}
/// `{:.3}`: milliseconds.
pub fn f3(x: f64) -> Val {
    Val::Fixed(x, 3)
}
/// `{:.2}`: speedups.
pub fn f2(x: f64) -> Val {
    Val::Fixed(x, 2)
}
/// `{:.3e}`: relative gaps.
pub fn e3(x: f64) -> Val {
    Val::Sci(x, 3)
}

impl From<bool> for Val {
    fn from(b: bool) -> Self {
        Val::Bool(b)
    }
}

impl From<u64> for Val {
    fn from(x: u64) -> Self {
        Val::Int(x)
    }
}

impl From<usize> for Val {
    fn from(x: usize) -> Self {
        Val::Int(x as u64)
    }
}

impl From<&str> for Val {
    fn from(s: &str) -> Self {
        Val::Str(s.to_string())
    }
}

impl From<String> for Val {
    fn from(s: String) -> Self {
        Val::Str(s)
    }
}

impl<T: Into<Val>> From<Option<T>> for Val {
    fn from(v: Option<T>) -> Self {
        v.map_or(Val::Null, Into::into)
    }
}

impl<T: Into<Val>> From<Vec<T>> for Val {
    fn from(items: Vec<T>) -> Self {
        Val::List(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Null => f.write_str("null"),
            Val::Bool(b) => write!(f, "{b}"),
            Val::Int(x) => write!(f, "{x}"),
            Val::Str(s) => {
                let quoted =
                    serde_json::to_string(&Value::Str(s.clone())).map_err(|_| fmt::Error)?;
                f.write_str(&quoted)
            }
            Val::Fixed(x, digits) => write!(f, "{x:.digits$}"),
            Val::Sci(x, digits) => write!(f, "{x:.digits$e}"),
            Val::Plain(x) => write!(f, "{x}"),
            Val::List(items) => {
                let items: Vec<String> = items.iter().map(Val::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
        }
    }
}

/// One row of a record: `(column, value)` pairs in output order.
pub type Row = Vec<(&'static str, Val)>;

/// A `BENCH_*.json` record: header key/values, then one object per
/// point.
#[derive(Debug, Clone)]
pub struct BenchFile {
    header: Row,
    points: Vec<Row>,
}

impl BenchFile {
    /// Start a record whose `"bench"` header names it.
    pub fn new(bench: &str) -> Self {
        BenchFile {
            header: vec![("bench", bench.into())],
            points: Vec::new(),
        }
    }

    /// Append a header line.
    pub fn header(mut self, key: &'static str, value: impl Into<Val>) -> Self {
        self.header.push((key, value.into()));
        self
    }

    /// Append one object per row to `"points"`.
    pub fn points(mut self, rows: impl IntoIterator<Item = Row>) -> Self {
        self.points.extend(rows);
        self
    }

    /// Render the document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (key, value) in &self.header {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        }
        out.push_str("  \"points\": [\n");
        for (i, row) in self.points.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!("    {{{}}}{sep}\n", cells.join(", ")));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Read and parse a `BENCH_*.json` file.
///
/// # Errors
/// The I/O or parse error, as text.
pub fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_keep_their_column_precision() {
        let cases: [(Val, &str); 10] = [
            (Val::Null, "null"),
            (false.into(), "false"),
            (7usize.into(), "7"),
            (f6(1.0 / 3.0), "0.333333"),
            (f3(2.0), "2.000"),
            (f2(12.345), "12.35"),
            (e3(0.0), "0.000e0"),
            (Val::Plain(0.25), "0.25"),
            (Val::from(None::<f64>.map(e3)), "null"),
            (vec!["a\"b", "c"].into(), "[\"a\\\"b\", \"c\"]"),
        ];
        for (val, want) in cases {
            assert_eq!(val.to_string(), want);
        }
    }

    #[test]
    fn renders_the_record_layout_and_reads_back() {
        let file = BenchFile::new("demo")
            .header("flag", true)
            .points([vec![("n", 1usize.into())], vec![("n", 2usize.into())]]);
        assert_eq!(
            file.render(),
            "{\n  \"bench\": \"demo\",\n  \"flag\": true,\n  \"points\": [\n    {\"n\": 1},\n    {\"n\": 2}\n  ]\n}\n"
        );
        let path = std::env::temp_dir().join(format!("bench_file_{}.json", std::process::id()));
        std::fs::write(&path, file.render()).unwrap();
        let doc = read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(doc.as_obj().map(<[_]>::len), Some(3));
    }
}
