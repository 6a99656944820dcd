//! One run's result: metric values, the output-check verdict, and
//! the JSON result line.

use crate::spec::{Kind, Metric, METRICS};

/// Metrics, counts and check outcomes of one run.
#[derive(Debug)]
pub struct Report {
    kind: Kind,
    values: Vec<(&'static Metric, f64)>,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops whose outcome was an error the workload does not plant.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Context printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// A report holding every metric of `kind` at 0.
    pub fn new(kind: Kind) -> Self {
        Self {
            kind,
            values: METRICS
                .iter()
                .filter(|m| m.kind == kind)
                .map(|m| (m, 0.0))
                .collect(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        let kind = self.kind;
        match self.values.iter_mut().find(|(m, _)| m.name == name) {
            Some((_, v)) => v,
            None => panic!("metric {name} is not a declared {kind:?} metric"),
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    /// Panics if `name` is not declared for this report's kind — a
    /// bug in the benchmark, not in the measured program.
    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    /// Adds to a metric (see [`Report::set`]).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    /// Current value of a metric.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(m, _)| m.name == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The metrics in declaration order.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.values.iter().copied()
    }

    /// Records the outcome of an output check.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.problems.push(format!("{what}: {e}"));
        }
    }

    /// Whether every output check held, at least one op ran, and
    /// every metric is finite.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
            && self.attempted > 0
            && self.values.iter().all(|(_, v)| v.is_finite())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit. Values print with all
    /// their digits (`{}` on `f64` is the shortest exact round trip).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(m, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
