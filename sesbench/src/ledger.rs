//! The per-layer ledger: one end-to-end timing split into the layers that
//! account for it, with the time no layer covers shown as `unattributed`.
//!
//! Parts are means over the same set of operations as the whole, so they
//! add up: `whole = Σ parts + unattributed` holds exactly. A negative
//! remainder means parts overlap (or were measured on separate calls) and
//! is printed as such, never clamped.

use std::fmt::Write as _;

/// One end-to-end timing and its layer breakdown.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// What the whole is (e.g. `"serve event latency"`).
    pub title: String,
    /// Unit of every value (e.g. `"us"`).
    pub unit: &'static str,
    /// Operations the means were taken over.
    pub samples: usize,
    /// The end-to-end value being explained.
    pub whole: f64,
    /// Named layer values, in pipeline order.
    pub parts: Vec<(String, f64)>,
}

impl Ledger {
    /// An empty ledger for `whole`.
    pub fn new(title: impl Into<String>, unit: &'static str, samples: usize, whole: f64) -> Self {
        Self {
            title: title.into(),
            unit,
            samples,
            whole,
            parts: Vec::new(),
        }
    }

    /// Adds one layer's value.
    pub fn part(mut self, name: impl Into<String>, value: f64) -> Self {
        self.parts.push((name.into(), value));
        self
    }

    /// Sum of the layer values.
    pub fn attributed(&self) -> f64 {
        self.parts.iter().map(|(_, v)| v).sum()
    }

    /// The whole minus every layer: time no layer accounts for.
    pub fn unattributed(&self) -> f64 {
        self.whole - self.attributed()
    }

    /// `value` as a percentage of the whole (0 when the whole is 0).
    pub fn share(&self, value: f64) -> f64 {
        if self.whole == 0.0 {
            0.0
        } else {
            100.0 * value / self.whole
        }
    }

    /// Human-readable table, one line per layer plus `unattributed`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "ledger: {} = {:.3} {} (mean of {} ops)\n",
            self.title, self.whole, self.unit, self.samples
        );
        let rows = self
            .parts
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .chain(std::iter::once(("unattributed", self.unattributed())));
        for (name, value) in rows {
            let _ = writeln!(
                out,
                "  {name:<28} {value:>12.3} {}  {:>6.1}%",
                self.unit,
                self.share(value)
            );
        }
        out
    }
}

/// Mean of a slice (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_and_remainder_add_up_to_the_whole() {
        let l = Ledger::new("t", "us", 4, 100.0)
            .part("parse", 10.0)
            .part("queue", 25.0)
            .part("service", 40.0)
            .part("respond", 5.0);
        assert_eq!(l.attributed(), 80.0);
        assert_eq!(l.unattributed(), 20.0);
        let shares: f64 =
            l.parts.iter().map(|(_, v)| l.share(*v)).sum::<f64>() + l.share(l.unattributed());
        assert!((shares - 100.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_parts_show_a_negative_remainder() {
        let l = Ledger::new("t", "ms", 1, 10.0)
            .part("a", 7.0)
            .part("b", 5.0);
        assert_eq!(l.unattributed(), -2.0);
        assert!(l.render().contains("unattributed"));
    }

    #[test]
    fn means_of_per_op_parts_are_additive() {
        // Per-operation wholes and parts; the mean ledger must still add up.
        let wholes = [10.0, 20.0, 30.0];
        let parse = [1.0, 2.0, 3.0];
        let service = [5.0, 9.0, 20.0];
        let l = Ledger::new("t", "us", 3, mean(&wholes))
            .part("parse", mean(&parse))
            .part("service", mean(&service));
        let rest: Vec<f64> = (0..3).map(|i| wholes[i] - parse[i] - service[i]).collect();
        assert!((l.unattributed() - mean(&rest)).abs() < 1e-12);
    }

    #[test]
    fn zero_whole_has_zero_shares() {
        let l = Ledger::new("t", "us", 0, 0.0).part("a", 0.0);
        assert_eq!(l.share(5.0), 0.0);
    }
}
