//! Experiment tables and the machine-profile baseline JSON they are
//! committed as (`BENCH_experiments.json` et al.).
//!
//! [`Table`] moved here from `dcl_bench` (which re-exports it) so that the
//! sweep harness, the experiment crate and the baseline bins all share one
//! rendering/serialization path; the JSON layout is byte-compatible with
//! the `bench_experiments/v1` files committed since PR 3.

use std::fmt::Write as _;

/// A printable experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id and title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// The machine profile stamped into every committed `BENCH_*.json`, so a
/// future profile (e.g. a multi-core runner) can be diffed row by row
/// against the committed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineProfile {
    /// `std::thread::available_parallelism()` at record time.
    pub hardware_threads: usize,
    /// `std::env::consts::OS`.
    pub os: &'static str,
    /// `std::env::consts::ARCH`.
    pub arch: &'static str,
}

impl MachineProfile {
    /// The profile of the machine running right now.
    pub fn current() -> Self {
        MachineProfile {
            hardware_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
        }
    }

    /// The `"machine"` JSON object, exactly as the committed baselines
    /// spell it.
    pub fn json_object(&self) -> String {
        format!(
            "{{ \"hardware_threads\": {}, \"os\": \"{}\", \"arch\": \"{}\" }}",
            self.hardware_threads, self.os, self.arch
        )
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn table_json(out: &mut String, table: &Table, ms: f64, last: bool) {
    // The experiment id is the leading token of the title ("E4b (Theorem...").
    let id = table
        .title
        .split_whitespace()
        .next()
        .unwrap_or("?")
        .trim_end_matches(':');
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"id\": \"{}\",", json_escape(id));
    let _ = writeln!(out, "      \"title\": \"{}\",", json_escape(&table.title));
    let _ = writeln!(out, "      \"ms\": {ms:.1},");
    let cells = |row: &[String]| -> String {
        row.iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(out, "      \"headers\": [{}],", cells(&table.headers));
    let _ = writeln!(out, "      \"rows\": [");
    for (i, row) in table.rows.iter().enumerate() {
        let comma = if i + 1 < table.rows.len() { "," } else { "" };
        let _ = writeln!(out, "        [{}]{comma}", cells(row));
    }
    let _ = writeln!(out, "      ]");
    let _ = writeln!(out, "    }}{}", if last { "" } else { "," });
}

/// Serializes a batch of timed experiment tables as a machine-profile
/// baseline document (schema `bench_experiments/v1`): header with the
/// machine profile and total wall-clock, then one object per table with
/// `id`/`title`/`ms`/`headers`/`rows`. Byte-compatible with the committed
/// `BENCH_experiments.json`.
pub fn baseline_json(
    schema: &str,
    profile: &MachineProfile,
    total_ms: f64,
    tables: &[(Table, f64)],
) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"{}\",", json_escape(schema));
    let _ = writeln!(j, "  \"machine\": {},", profile.json_object());
    let _ = writeln!(j, "  \"total_ms\": {total_ms:.1},");
    let _ = writeln!(j, "  \"experiments\": [");
    let count = tables.len();
    for (i, (table, ms)) in tables.iter().enumerate() {
        table_json(&mut j, table, *ms, i + 1 == count);
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains('1'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn machine_profile_records_only_the_host() {
        let j = MachineProfile::current().json_object();
        for key in ["hardware_threads", "os", "arch"] {
            assert!(j.contains(&format!("\"{key}\": ")), "{j}");
        }
        assert_eq!(j.matches(": ").count(), 3, "{j}");
    }

    #[test]
    fn baseline_json_matches_the_committed_layout() {
        let mut t = Table::new("E9 (demo): a \"quoted\" title", &["x", "y"]);
        t.row(vec!["1".into(), "true".into()]);
        let profile = MachineProfile {
            hardware_threads: 1,
            os: "linux",
            arch: "x86_64",
        };
        let j = baseline_json("bench_experiments/v1", &profile, 12.34, &[(t, 5.67)]);
        assert!(j.starts_with("{\n  \"schema\": \"bench_experiments/v1\",\n"));
        assert!(j.contains(
            "  \"machine\": { \"hardware_threads\": 1, \"os\": \"linux\", \"arch\": \"x86_64\" },\n"
        ));
        assert!(j.contains("  \"total_ms\": 12.3,\n"));
        assert!(j.contains("      \"id\": \"E9\",\n"));
        assert!(j.contains("a \\\"quoted\\\" title"));
        assert!(j.contains("      \"headers\": [\"x\", \"y\"],\n"));
        assert!(j.contains("        [\"1\", \"true\"]\n"));
        assert!(j.ends_with("  ]\n}\n"));
    }
}
