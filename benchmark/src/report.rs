//! The benchmark's output: labelled metric lines for people, then one
//! JSON object as the last line for tools.

use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit spelling, e.g. `ms` or `count`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Run parameters and provenance (core count, seed, op count...).
    pub labels: Vec<(String, String)>,
    /// Detail lines printed above the metrics (breakdown tables).
    pub notes: Vec<String>,
    /// The metrics the JSON line carries.
    pub metrics: Vec<Metric>,
    /// Operations started.
    pub attempted: u64,
    /// Operations whose output failed its check (errors included).
    pub failed: u64,
    /// Whether the run checked out as a whole: no failed operation and
    /// no broken benchmark invariant.
    pub correct: bool,
}

impl Report {
    /// Records a label.
    pub fn label(&mut self, key: &str, value: impl ToString) {
        self.labels.push((key.to_owned(), value.to_string()));
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The human-readable lines, one `label`, note or `metric` per line.
    #[must_use]
    pub fn lines(&self, workload: &str) -> Vec<String> {
        let mut out: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("label {workload} {k}={v}")).collect();
        out.extend(self.notes.iter().cloned());
        out.extend(
            self.metrics
                .iter()
                .map(|m| format!("metric {workload} {} {} {}", m.name, m.value, m.unit)),
        );
        out.push(format!(
            "result {workload} attempted={} failed={} fail_ratio={} correct={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct
        ));
        out
    }

    /// The result object, on one line.
    ///
    /// # Errors
    ///
    /// Names the first metric whose value has no JSON spelling (NaN or
    /// infinite): such a run measured nothing and must not report.
    pub fn json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} measured {}", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ =
                write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report { attempted: 4, failed: 1, correct: false, ..Report::default() };
        r.label("nproc", 2);
        r.metric("p50_ms", 10.125, "ms");
        r.metric("setup_s", 0.000_5, "s");
        r
    }

    #[test]
    fn json_has_exactly_the_result_keys_and_every_digit() {
        assert_eq!(
            sample().json().unwrap(),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\
             \"p50_ms\": {\"value\": 10.125, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.0005, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_refuses_values_without_a_spelling() {
        let mut r = sample();
        r.metric("ops_per_s", f64::NAN, "op/s");
        assert!(r.json().unwrap_err().contains("ops_per_s"));
    }

    #[test]
    fn lines_name_workload_metric_and_unit() {
        let lines = sample().lines("play");
        assert_eq!(lines[0], "label play nproc=2");
        assert_eq!(lines[1], "metric play p50_ms 10.125 ms");
        assert_eq!(lines[3], "result play attempted=4 failed=1 fail_ratio=0.25 correct=false");
    }
}
