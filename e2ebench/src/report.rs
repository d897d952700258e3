//! The run's result: a human-readable table (each metric with its unit and
//! the base a ratio was taken over) followed by the one-line JSON object
//! the harness reads.

use crate::stats::Lat;
use std::fmt::Write as _;

#[derive(Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    /// Set from the catalogue by [`Report::complete`].
    unit: &'static str,
    base: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations (also counted in `failed`).
    pub violations: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, base: String) {
        debug_assert!(self.metrics.iter().all(|m| m.name != name), "{name} twice");
        self.metrics.push(Metric {
            name,
            value,
            unit: "",
            base,
        });
    }

    /// Quantiles of one latency, each printed with the same base.
    pub fn quantiles(&mut self, lat: &mut Lat, metrics: &[(&'static str, f64)], base: &str) {
        for &(name, q) in metrics {
            self.metric(name, lat.quantile_us(q), base.to_string());
        }
    }

    /// Counts a phase's operations, its failed ones and its check
    /// violations.
    pub fn charge(&mut self, attempted: u64, failed: u64, violations: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for v in violations {
            self.violation(v);
        }
    }

    /// Records a failed output check: it fails the run and counts in
    /// `failed`.
    pub fn violation(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// Puts the metrics in catalogue order and gives each its catalogued
    /// unit. A catalogued metric the workload did not produce reads 0,
    /// marked as not exercised; a metric outside the catalogue is a bug.
    pub fn complete(&mut self, catalogue: &[(&'static str, &'static str)]) {
        for m in &self.metrics {
            assert!(
                catalogue.iter().any(|(n, _)| *n == m.name),
                "{} is not in this run's catalogue",
                m.name
            );
        }
        let mut ordered = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(i) => ordered.push(Metric {
                    unit,
                    ..self.metrics.swap_remove(i)
                }),
                None => ordered.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                    base: "(layer not exercised by this workload)".into(),
                }),
            }
        }
        self.metrics = ordered;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the table, then the JSON object as the last line of stdout.
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        println!(
            "# workload={workload} seed={seed} traced={traced} attempted={} failed={} failed_frac={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for v in &self.violations {
            println!("# CHECK FAILED: {v}");
        }
        for m in &self.metrics {
            println!("{:<26} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.base);
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
