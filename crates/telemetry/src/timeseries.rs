//! A simple sampled time series.

use serde::{Deserialize, Serialize};

/// A time-ordered series of `(t, value)` samples.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    t: Vec<f64>,
    v: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not monotonically non-decreasing.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.t.last() {
            assert!(t >= last, "time must be non-decreasing: {t} < {last}");
        }
        self.t.push(t);
        self.v.push(v);
    }

    /// A borrowed view of the whole series.
    pub fn view(&self) -> SeriesView<'_> {
        SeriesView {
            t: &self.t,
            v: &self.v,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Timestamps.
    pub fn times(&self) -> &[f64] {
        &self.t
    }

    /// Values.
    pub fn values(&self) -> &[f64] {
        &self.v
    }

    /// Iterate `(t, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.view().iter()
    }

    /// Arithmetic mean of the values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.view().mean()
    }

    /// Maximum value (0.0 when empty).
    pub fn peak(&self) -> f64 {
        self.view().peak()
    }

    /// Minimum value (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.view().min()
    }

    /// Trapezoidal integral over time (e.g. watts → joules).
    pub fn integrate(&self) -> f64 {
        self.view().integrate()
    }

    /// The sub-series with `t >= from` (used to discard warm-up iterations,
    /// as the paper discards its first 10).
    pub fn since(&self, from: f64) -> TimeSeries {
        self.view().since(from)
    }

    /// A percentile of the values (linear interpolation; `p` in `[0, 100]`).
    pub fn percentile(&self, p: f64) -> f64 {
        self.view().percentile(p)
    }
}

/// A borrowed time series: a slice of timestamps and the index-aligned
/// values. [`crate::TelemetryStore`] hands these out, pairing its one
/// shared time axis with a GPU's value column; [`TimeSeries::view`] gives
/// one over an owned series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesView<'a> {
    t: &'a [f64],
    v: &'a [f64],
}

impl<'a> From<&'a TimeSeries> for SeriesView<'a> {
    fn from(series: &'a TimeSeries) -> Self {
        series.view()
    }
}

impl<'a> SeriesView<'a> {
    /// A view pairing `times` with `values`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub(crate) fn new(times: &'a [f64], values: &'a [f64]) -> Self {
        assert_eq!(times.len(), values.len(), "one value per timestamp");
        SeriesView {
            t: times,
            v: values,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Timestamps.
    pub fn times(&self) -> &'a [f64] {
        self.t
    }

    /// Values.
    pub fn values(&self) -> &'a [f64] {
        self.v
    }

    /// Iterate `(t, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.t.iter().copied().zip(self.v.iter().copied())
    }

    /// Arithmetic mean of the values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.v.iter().sum::<f64>() / self.v.len() as f64
        }
    }

    /// Maximum value (0.0 when empty).
    pub fn peak(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Minimum value (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.v.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Trapezoidal integral over time (e.g. watts → joules).
    pub fn integrate(&self) -> f64 {
        let mut acc = 0.0;
        for i in 1..self.t.len() {
            acc += 0.5 * (self.v[i] + self.v[i - 1]) * (self.t[i] - self.t[i - 1]);
        }
        acc
    }

    /// The sub-series with `t >= from`, owned.
    pub fn since(&self, from: f64) -> TimeSeries {
        let start = self.t.partition_point(|&t| t < from);
        TimeSeries {
            t: self.t[start..].to_vec(),
            v: self.v[start..].to_vec(),
        }
    }

    /// A percentile of the values (linear interpolation; `p` in `[0, 100]`).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        let mut sorted = self.v.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in telemetry"));
        let pos = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pairs: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in pairs {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn empty_series_stats_are_zero() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.peak(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.integrate(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn basic_stats() {
        let s = series(&[(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.peak(), 3.0);
        assert_eq!(s.min(), 1.0);
    }

    #[test]
    fn peak_of_all_negative_series_is_true_maximum() {
        // Regression: the old `.max(0.0)` clamp reported 0.0 — a value never
        // sampled — for any series that stayed below zero.
        let s = series(&[(0.0, -5.0), (1.0, -2.0), (2.0, -9.0)]);
        assert_eq!(s.peak(), -2.0);
        assert_eq!(s.min(), -9.0);
    }

    #[test]
    fn integrate_trapezoid() {
        // Constant 100 W for 10 s = 1000 J.
        let s = series(&[(0.0, 100.0), (10.0, 100.0)]);
        assert!((s.integrate() - 1000.0).abs() < 1e-9);
        // Ramp 0..100 over 10 s = 500 J.
        let r = series(&[(0.0, 0.0), (10.0, 100.0)]);
        assert!((r.integrate() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn since_discards_warmup() {
        let s = series(&[(0.0, 1.0), (5.0, 2.0), (10.0, 3.0)]);
        let tail = s.since(5.0);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.values(), &[2.0, 3.0]);
    }

    #[test]
    fn percentile_interpolates() {
        let s = series(&[(0.0, 10.0), (1.0, 20.0), (2.0, 30.0), (3.0, 40.0)]);
        assert!((s.percentile(0.0) - 10.0).abs() < 1e-12);
        assert!((s.percentile(100.0) - 40.0).abs() < 1e-12);
        assert!((s.percentile(50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn non_monotone_time_panics() {
        let mut s = TimeSeries::new();
        s.push(1.0, 0.0);
        s.push(0.5, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn percentile_bounded_by_min_max(
            values in proptest::collection::vec(-1e9f64..1e9, 1..64),
            p in 0.0f64..100.0,
        ) {
            let mut s = TimeSeries::new();
            for (i, v) in values.iter().enumerate() {
                s.push(i as f64, *v);
            }
            let q = s.percentile(p);
            prop_assert!(q >= s.min() - 1e-9);
            prop_assert!(q <= s.peak().max(s.min()) + 1e-9 || s.peak() == 0.0);
        }

        #[test]
        fn integral_bounded_by_extremes(
            values in proptest::collection::vec(0.0f64..1e6, 2..64),
        ) {
            let mut s = TimeSeries::new();
            for (i, v) in values.iter().enumerate() {
                s.push(i as f64, *v);
            }
            let span = (values.len() - 1) as f64;
            prop_assert!(s.integrate() >= s.min() * span - 1e-6);
            prop_assert!(s.integrate() <= s.peak().max(s.min()) * span + 1e-6);
        }
    }
}
