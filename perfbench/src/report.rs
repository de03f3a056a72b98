//! The result line: named metrics with units, output checks, and the
//! op ledger, printed as one JSON object.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Operations issued (deterministic leg and host rounds).
    pub attempted: u64,
    /// Operations that failed or timed out (sheds are not failures; they
    /// count against `goodput_ratio`).
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records an output check; a false `ok` is a violation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The result line.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Jain's fairness index of `xs` (1 = perfectly even).
pub fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    ratio(sum * sum, xs.len() as f64 * sq)
}

/// The `p`-th percentile (0–100, nearest rank) of sorted `v`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
