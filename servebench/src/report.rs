//! The run's result: named metrics with units, printed one per line for
//! people and as a single JSON object on the last line for tools. The
//! repository vendors no JSON serializer, so the object is written by hand.

use std::fmt::Write as _;

/// A metric's value: a measured number, or an exact count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A measured or modelled quantity.
    Real(f64),
    /// An exact count.
    Count(u64),
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value.
    pub value: Value,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// How the value was obtained (sample count, spread), for the
    /// human-readable line only.
    pub note: String,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests the run generated.
    pub attempted: u64,
    /// Generated requests that admission control rejected.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a real-valued metric.
    pub fn real(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric { name, value: Value::Real(value), unit, note });
    }

    /// Appends a count.
    pub fn count(&mut self, name: &'static str, value: u64, unit: &'static str) {
        self.metrics.push(Metric { name, value: Value::Count(value), unit, note: String::new() });
    }

    /// Checks that every value is finite, since JSON cannot carry the rest.
    pub fn check_finite(&self) -> Result<(), String> {
        match self.metrics.iter().find(|m| matches!(m.value, Value::Real(v) if !v.is_finite())) {
            Some(m) => Err(format!("metric {} is not finite", m.name)),
            None => Ok(()),
        }
    }

    /// One `name = value unit (note)` line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
            let _ = writeln!(out, "{} = {} {}{note}", m.name, number(m.value), m.unit);
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A value with every digit it has: Rust's shortest round-trip form for
/// reals (always with a decimal point or exponent, so valid JSON), plain
/// digits for counts.
fn number(value: Value) -> String {
    match value {
        Value::Real(v) => format!("{v:?}"),
        Value::Count(c) => c.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_with_its_unit() {
        let mut o = Outcome { attempted: 12, failed: 0, metrics: Vec::new() };
        o.real("latency_ms", 1.25, "ms", "median of 3".into());
        o.count("hits", 7, "count");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"hits\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
        assert_eq!(o.lines(), "latency_ms = 1.25 ms  (median of 3)\nhits = 7 count\n");
        assert!(o.check_finite().is_ok());
    }

    #[test]
    fn reals_keep_all_digits_and_stay_json() {
        assert_eq!(number(Value::Real(0.1 + 0.2)), "0.30000000000000004");
        assert_eq!(number(Value::Real(3.0)), "3.0");
        assert_eq!(number(Value::Real(4.2e-5)), "4.2e-5");
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut o = Outcome::default();
        o.real("x", f64::NAN, "s", String::new());
        assert!(o.check_finite().is_err());
    }
}
