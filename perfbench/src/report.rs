//! What a run hands back: named metrics and the correctness tally.

use std::fmt::Write as _;

/// Metrics in the order they are printed.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push('}');
        out
    }
}

/// Operations attempted and the failures among them. An operation is one
/// scenario run or one served request; it fails on an invalid or improper
/// coloring, a run error, any reject, a missing response, or a result that
/// differs from the direct run.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Counts one operation, failing it with `why()` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_as_json_with_every_digit() {
        let mut m = Metrics::default();
        m.put("solve_s", 1.203_456_789_012_3, "s");
        m.put("rounds", 54272.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"solve_s\": {\"value\": 1.2034567890123, \"unit\": \"s\"}, \
             \"rounds\": {\"value\": 54272.0, \"unit\": \"count\"}}"
        );
    }

    #[test]
    fn gate_counts_failures_against_attempts() {
        let mut g = Gate::default();
        g.check(true, || unreachable!());
        g.check(false, || "bad".to_string());
        assert_eq!(g.attempted, 2);
        assert_eq!(g.failed_share(), 0.5);
    }
}
