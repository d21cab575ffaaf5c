//! Summaries and the one-line JSON result.

use std::fmt::Write as _;

/// The `q` quantile of `values` (linear interpolation between closest
/// ranks); `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Indices of the items with the lowest `rates`, taken lowest first
/// until `enough` accepts the ones taken, together with every item that
/// ties the last one taken, and returned in their original order. With
/// any rate unknown, every index.
pub fn quietest(rates: &[Option<f64>], enough: impl Fn(&[usize]) -> bool) -> Vec<usize> {
    let n = rates.len();
    if rates.iter().any(Option::is_none) {
        return (0..n).collect();
    }
    let rate = |i: usize| rates[i].unwrap_or(0.0);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| rate(a).total_cmp(&rate(b)));
    let mut keep = (1..=n).find(|&k| enough(&order[..k])).unwrap_or(n);
    while keep < n && rate(order[keep]) <= rate(order[keep - 1]) {
        keep += 1;
    }
    order.truncate(keep);
    order.sort_unstable();
    order
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default, Debug, Clone)]
pub struct Metrics {
    pub entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // JSON has no NaN or infinity; a metric that cannot be computed
        // is reported as 0 and the run is marked incorrect by the caller.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    out.push_str("}}");
    out
}
