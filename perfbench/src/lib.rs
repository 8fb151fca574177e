//! Helpers of the CharLLM-PPT benchmark: order statistics, the metric-name
//! grammar, the metric table shared with `BENCHMARK.json`, per-run metric
//! records, and the output check on simulated results.
//!
//! The workloads themselves live in the `perfbench` binary (`src/main.rs`);
//! everything here is pure and covered by unit tests.

use std::collections::BTreeMap;

/// Order statistics over host-time samples.
pub mod stats {
    fn sorted(xs: &[f64]) -> Vec<f64> {
        assert!(!xs.is_empty(), "order statistic of an empty sample");
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle values for an even count).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn median(xs: &[f64]) -> f64 {
        let v = sorted(xs);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`), interpolating linearly
    /// between the closest ranks (rank `p/100 · (n − 1)`, zero-based).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or `p` outside `[0, 100]`.
    pub fn percentile(xs: &[f64], p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let v = sorted(xs);
        let rank = p / 100.0 * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    }

    /// The highest percentile up to `p` that has at least ten samples
    /// beyond it, never below the median: `p` for 100 samples or more,
    /// the median for fewer than 20.
    pub fn supported_percentile(n: usize, p: f64) -> f64 {
        (100.0 * (1.0 - 10.0 / n as f64)).clamp(50.0, p)
    }

    /// The three cut points of `statistics.quantiles(xs, n=4)` in Python
    /// (the default "exclusive" method), so spreads computed here match
    /// the ones computed over the benchmark's printed results.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two samples (Python raises there too).
    pub fn quartiles(xs: &[f64]) -> [f64; 3] {
        let v = sorted(xs);
        let ld = v.len() as i64;
        assert!(ld >= 2, "quartiles need at least two samples");
        let m = ld + 1;
        let mut out = [0.0; 3];
        for (i, slot) in (1..4i64).zip(out.iter_mut()) {
            let j = (i * m / 4).clamp(1, ld - 1);
            // Negative for two samples, as in Python: extrapolates below.
            let delta = (i * m - j * 4) as f64;
            let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
            *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
        }
        out
    }

    /// Interquartile distance as a share of the median.
    pub fn quartile_spread(xs: &[f64]) -> f64 {
        let [q1, _, q3] = quartiles(xs);
        (q3 - q1) / median(xs)
    }
}

/// Whether `name` is a valid metric or workload name: it starts with an
/// ASCII letter or digit and has at most 64 letters, digits, `_`, `.` and
/// `-`.
pub fn is_valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn is_valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The end-to-end metrics every untraced run prints, with units. Must
/// match `end_to_end` in `BENCHMARK.json` (checked by a test).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_s_per_host_s", "s/s"),
    ("points_per_s", "1/s"),
    ("point_p50_s", "s"),
    ("point_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// The per-layer metrics every traced run prints, with units. Must match
/// `per_layer` in `BENCHMARK.json` (checked by a test).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.lower_s", "s"),
    ("trace.lowerings", "count"),
    ("net.plan_builds", "count"),
    ("net.plan_reuses", "count"),
    ("net.shared_plan_hits", "count"),
    ("sim.construct_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.flows_launched", "count"),
    ("sim.wakes", "count"),
    ("sim.colls_retired", "count"),
    ("sim.peak_live", "count"),
    ("sim.peak_live_colls", "count"),
    ("sim.arena_slot_reuses", "count"),
    ("sim.cal.pushes", "count"),
    ("sim.cal.pops", "count"),
    ("sim.cal.pops_per_event", "ratio"),
    ("sim.cal.bucket_drains", "count"),
    ("sim.cal.rekeys", "count"),
    ("sim.cal.overflow_peak", "count"),
    ("fault.downtime_sim_s", "s"),
    ("fault.restarts", "count"),
    ("fault.stall_extra_s", "s"),
    ("thermal.control_steps", "count"),
    ("thermal.ns_per_control_step", "ns"),
    ("cache.lowered_hits", "count"),
    ("cache.lowered_misses", "count"),
    ("cache.plan_hits", "count"),
    ("cache.plan_misses", "count"),
    ("cache.disk_hits", "count"),
    ("cache.disk_misses", "count"),
    ("cache.bytes_written", "B"),
    ("cache.bytes_written_serial", "B"),
    ("cache.hit_ratio", "ratio"),
    ("experiment.lower_s", "s"),
    ("experiment.plan_setup_s", "s"),
    ("experiment.event_loop_s", "s"),
    ("experiment.report_s", "s"),
    ("executor.busy_frac", "frac"),
    ("search.candidates", "count"),
    ("search.finalists", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// How a recorded value behaves across repetitions of the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A deterministic work count or simulated value: must repeat exactly.
    Exact,
    /// A host time, a rate, or a count that races between workers: may
    /// differ between repetitions and is reported as the median.
    Measured,
    /// A layer this workload does not exercise: reads 0.
    Absent,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    value: f64,
    kind: Kind,
}

/// The metrics one repetition of a workload produced, by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    entries: BTreeMap<&'static str, Entry>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Record::default()
    }

    fn put(&mut self, name: &'static str, value: f64, kind: Kind) {
        let prev = self.entries.insert(name, Entry { value, kind });
        assert!(prev.is_none(), "metric {name} recorded twice");
    }

    /// A value that must be identical in every repetition.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.put(name, value, Kind::Exact);
    }

    /// A value that may differ between repetitions.
    pub fn measured(&mut self, name: &'static str, value: f64) {
        self.put(name, value, Kind::Measured);
    }

    /// Metrics of layers the workload does not exercise; each reads 0.
    pub fn absent(&mut self, names: &[&'static str]) {
        for name in names {
            self.put(name, 0.0, Kind::Absent);
        }
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).map(|e| e.value)
    }

    /// Names recorded with `kind`, in name order.
    pub fn names(&self, kind: Kind) -> Vec<&'static str> {
        self.entries
            .iter()
            .filter(|(_, e)| e.kind == kind)
            .map(|(n, _)| *n)
            .collect()
    }

    /// Merge repetitions: exact values must agree across every repetition
    /// (each disagreement is returned as a message and the first value is
    /// kept); measured values become their median.
    ///
    /// # Panics
    ///
    /// Panics on no repetitions or when repetitions record different names
    /// or kinds (a bug in the workload code).
    pub fn merge(reps: &[Record]) -> (Record, Vec<String>) {
        let first = reps.first().expect("at least one repetition");
        let mut merged = Record::new();
        let mut mismatches = Vec::new();
        for (&name, entry) in &first.entries {
            let values: Vec<f64> = reps
                .iter()
                .map(|r| {
                    let e = r
                        .entries
                        .get(name)
                        .expect("repetitions record one metric set");
                    assert_eq!(e.kind, entry.kind, "{name} changed kind");
                    e.value
                })
                .collect();
            if entry.kind == Kind::Measured {
                merged.put(name, stats::median(&values), Kind::Measured);
            } else {
                if values.iter().any(|v| v.to_bits() != entry.value.to_bits()) {
                    mismatches.push(format!(
                        "{name} is not exact across repetitions: {values:?}"
                    ));
                }
                merged.put(name, entry.value, entry.kind);
            }
        }
        assert!(
            reps.iter().all(|r| r.entries.len() == first.entries.len()),
            "repetitions record one metric set"
        );
        (merged, mismatches)
    }

    /// The record as the `metrics` object of the result line, with units
    /// from `table`, in table order.
    ///
    /// # Errors
    ///
    /// Names every metric of `table` that is missing from the record and
    /// every recorded metric that `table` does not list.
    pub fn to_metrics(&self, table: &[(&str, &str)]) -> Result<serde_json::Value, String> {
        let missing: Vec<&str> = table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.entries.contains_key(n))
            .collect();
        let extra: Vec<&str> = self
            .entries
            .keys()
            .copied()
            .filter(|n| !table.iter().any(|(t, _)| t == n))
            .collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!(
                "metrics missing {missing:?}, not declared {extra:?}"
            ));
        }
        let mut out = serde_json::Map::new();
        for (name, unit) in table {
            out.insert(
                (*name).to_string(),
                serde_json::json!({"value": self.entries[name].value, "unit": *unit}),
            );
        }
        Ok(serde_json::Value::Object(out))
    }
}

/// The simulated outputs the benchmark pins and checks, for one run or
/// summed over the runs of a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outputs {
    /// Seconds per measured training step (simulated).
    pub step_time_s: f64,
    /// Training throughput.
    pub tokens_per_s: f64,
    /// Energy efficiency.
    pub tokens_per_joule: f64,
    /// Joules per measured step.
    pub energy_per_step_j: f64,
    /// Hottest sampled GPU temperature.
    pub peak_temp_c: f64,
    /// Throughput net of fault downtime.
    pub goodput_tokens_per_s: f64,
    /// Simulated seconds lost to recovery outages.
    pub fault_downtime_s: f64,
    /// Fail-stop restarts.
    pub restarts: f64,
}

/// Relative tolerance of the pinned outputs (absolute below magnitude 1).
/// Changes that keep results within it (for example a closed-form thermal
/// jump) still pass.
pub const PIN_REL_TOL: f64 = 1e-9;

/// `got` equals `want` within [`PIN_REL_TOL`]; never for NaN.
fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= PIN_REL_TOL * want.abs().max(1.0)
}

impl Outputs {
    /// Field names and values, in declaration order.
    pub fn fields(&self) -> [(&'static str, f64); 8] {
        [
            ("step_time_s", self.step_time_s),
            ("tokens_per_s", self.tokens_per_s),
            ("tokens_per_joule", self.tokens_per_joule),
            ("energy_per_step_j", self.energy_per_step_j),
            ("peak_temp_c", self.peak_temp_c),
            ("goodput_tokens_per_s", self.goodput_tokens_per_s),
            ("fault_downtime_s", self.fault_downtime_s),
            ("restarts", self.restarts),
        ]
    }

    /// Field-wise sum.
    pub fn add(&self, o: &Outputs) -> Outputs {
        Outputs {
            step_time_s: self.step_time_s + o.step_time_s,
            tokens_per_s: self.tokens_per_s + o.tokens_per_s,
            tokens_per_joule: self.tokens_per_joule + o.tokens_per_joule,
            energy_per_step_j: self.energy_per_step_j + o.energy_per_step_j,
            peak_temp_c: self.peak_temp_c + o.peak_temp_c,
            goodput_tokens_per_s: self.goodput_tokens_per_s + o.goodput_tokens_per_s,
            fault_downtime_s: self.fault_downtime_s + o.fault_downtime_s,
            restarts: self.restarts + o.restarts,
        }
    }

    /// Differences from `pinned` beyond [`PIN_REL_TOL`], one message each.
    pub fn diff_pinned(&self, pinned: &Outputs) -> Vec<String> {
        self.fields()
            .iter()
            .zip(pinned.fields())
            .filter(|((_, got), (_, want))| !close(*got, *want))
            .map(|((name, got), (_, want))| format!("{name} = {got:?}, pinned {want:?}"))
            .collect()
    }

    /// Invariants that hold for any seed: energy finite and positive,
    /// goodput no higher than throughput, and downtime and restarts equal
    /// to what the fault plan implies. One message per broken invariant.
    pub fn check_invariants(
        &self,
        expected_downtime_s: f64,
        expected_restarts: u64,
    ) -> Vec<String> {
        let mut out = Vec::new();
        for (name, v) in self.fields() {
            if !v.is_finite() {
                out.push(format!("{name} = {v} is not finite"));
            }
        }
        for (name, v) in [
            ("energy_per_step_j", self.energy_per_step_j),
            ("tokens_per_joule", self.tokens_per_joule),
            ("tokens_per_s", self.tokens_per_s),
            ("step_time_s", self.step_time_s),
        ] {
            if v.is_nan() || v <= 0.0 {
                out.push(format!("{name} = {v} is not positive"));
            }
        }
        let goodput = self.goodput_tokens_per_s;
        if goodput.is_nan() || goodput > self.tokens_per_s * (1.0 + PIN_REL_TOL) {
            out.push(format!(
                "goodput {} exceeds throughput {}",
                self.goodput_tokens_per_s, self.tokens_per_s
            ));
        }
        if !close(self.fault_downtime_s, expected_downtime_s) {
            out.push(format!(
                "downtime {} s, the fault plan's outage is {expected_downtime_s} s",
                self.fault_downtime_s
            ));
        }
        if self.restarts != expected_restarts as f64 {
            out.push(format!(
                "{} restarts, the fault plan implies {expected_restarts}",
                self.restarts
            ));
        }
        out
    }
}

/// A small deterministic generator (SplitMix64) for drawing workload
/// inputs from the seed.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SeedRng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(stats::median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(stats::percentile(&xs, 0.0), 1.0);
        assert_eq!(stats::percentile(&xs, 50.0), 6.0);
        assert_eq!(stats::percentile(&xs, 90.0), 10.0);
        assert_eq!(stats::percentile(&xs, 100.0), 11.0);
        assert!((stats::percentile(&[1.0, 2.0], 90.0) - 1.9).abs() < 1e-12);
        assert_eq!(stats::percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(stats::supported_percentile(1280, 90.0), 90.0);
        assert_eq!(stats::supported_percentile(100, 90.0), 90.0);
        assert_eq!(stats::supported_percentile(50, 90.0), 80.0);
        assert_eq!(stats::supported_percentile(20, 90.0), 50.0);
        assert_eq!(stats::supported_percentile(3, 90.0), 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(stats::quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(stats::quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            stats::quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            [1.5, 4.0, 12.0]
        );
        let spread = stats::quartile_spread(&xs);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn name_grammar() {
        for ok in ["wall_s", "sim.cal.pops", "a-b", "9lives", "x"] {
            assert!(is_valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "é", &"a".repeat(65)] {
            assert!(!is_valid_name(bad), "{bad}");
        }
        assert!(is_valid_name(&"a".repeat(64)));
        for ok in ["s", "ms", "1/s", "count", "%", "s/s", "MB"] {
            assert!(is_valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", &"s".repeat(17), "µs"] {
            assert!(!is_valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn metric_tables_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_valid_name(name), "{name}");
            assert!(is_valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    #[test]
    fn merge_keeps_exact_values_and_medians_measured_ones() {
        let rep = |t: f64, n: f64| {
            let mut r = Record::new();
            r.exact("sim.events", n);
            r.measured("sim.run_s", t);
            r
        };
        let (merged, bad) = Record::merge(&[rep(1.0, 5.0), rep(3.0, 5.0), rep(2.0, 5.0)]);
        assert!(bad.is_empty());
        assert_eq!(merged.get("sim.run_s"), Some(2.0));
        assert_eq!(merged.get("sim.events"), Some(5.0));
        assert_eq!(merged.names(Kind::Exact), vec!["sim.events"]);
        assert_eq!(merged.names(Kind::Measured), vec!["sim.run_s"]);
        let (_, bad) = Record::merge(&[rep(1.0, 5.0), rep(1.0, 6.0)]);
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn to_metrics_rejects_missing_and_undeclared_names() {
        let table = [("a", "s"), ("b", "count")];
        let mut r = Record::new();
        r.measured("a", 1.5);
        assert!(r.to_metrics(&table).unwrap_err().contains("\"b\""));
        r.exact("b", 2.0);
        let v = r.to_metrics(&table).unwrap();
        assert_eq!(v.get("a").unwrap().get("unit").unwrap().as_str(), Some("s"));
        r.exact("c", 0.0);
        assert!(r.to_metrics(&table).unwrap_err().contains("\"c\""));
    }

    fn sample() -> Outputs {
        Outputs {
            step_time_s: 1.87,
            tokens_per_s: 5.6e5,
            tokens_per_joule: 3.2,
            energy_per_step_j: 3.3e5,
            peak_temp_c: 71.5,
            goodput_tokens_per_s: 5.6e5,
            fault_downtime_s: 0.0,
            restarts: 0.0,
        }
    }

    #[test]
    fn pinned_outputs_pass_and_a_perturbed_pin_fails() {
        let o = sample();
        assert!(o.diff_pinned(&o).is_empty());
        let mut pin = o;
        pin.tokens_per_joule *= 1.0 + 1e-10;
        assert!(o.diff_pinned(&pin).is_empty(), "inside the tolerance");
        pin.tokens_per_joule = o.tokens_per_joule * (1.0 + 1e-8);
        let diff = o.diff_pinned(&pin);
        assert_eq!(diff.len(), 1);
        assert!(diff[0].starts_with("tokens_per_joule"));
        let mut pin = o;
        pin.restarts = 1.0;
        assert_eq!(o.diff_pinned(&pin).len(), 1);
    }

    #[test]
    fn invariants_catch_each_violation() {
        let o = sample();
        assert!(o.check_invariants(0.0, 0).is_empty());
        let mut bad = o;
        bad.goodput_tokens_per_s = o.tokens_per_s * 1.01;
        assert_eq!(bad.check_invariants(0.0, 0).len(), 1);
        let mut bad = o;
        bad.energy_per_step_j = f64::NAN;
        assert_eq!(bad.check_invariants(0.0, 0).len(), 2);
        let mut bad = o;
        bad.fault_downtime_s = 123.0;
        bad.restarts = 1.0;
        assert!(bad.check_invariants(123.0, 1).is_empty());
        assert_eq!(bad.check_invariants(120.4, 1).len(), 1);
        assert_eq!(bad.check_invariants(123.0, 2).len(), 1);
    }

    #[test]
    fn seed_rng_is_deterministic_and_in_range() {
        let mut a = SeedRng::new(7);
        let mut b = SeedRng::new(7);
        for _ in 0..100 {
            let x = a.uniform(340.0, 650.0);
            assert_eq!(x, b.uniform(340.0, 650.0));
            assert!((340.0..650.0).contains(&x));
            assert!(a.below(512) < 512);
            b.below(512);
        }
        assert_ne!(SeedRng::new(1).next_u64(), SeedRng::new(2).next_u64());
    }
}
