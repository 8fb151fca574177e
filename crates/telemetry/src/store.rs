//! Per-GPU telemetry store (the Zeus-equivalent sample sink).

use serde::{Deserialize, Serialize};

use crate::timeseries::{SeriesView, TimeSeries};

/// One telemetry sample for one GPU at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSample {
    /// Board power, watts.
    pub power_w: f64,
    /// Junction temperature, °C.
    pub temp_c: f64,
    /// Core clock, MHz.
    pub freq_mhz: f64,
    /// Kernel-activity utilization in `[0, 1]`.
    pub util: f64,
    /// Instantaneous PCIe/NIC throughput attributable to this GPU, GB/s.
    pub pcie_gbps: f64,
}

/// Sampled time series for every GPU in a run.
///
/// Both engines sample every active GPU at the same instants, so the store
/// keeps one shared time axis and, per channel, one value column per GPU.
/// A GPU's column is either empty (a GPU that was never sampled, such as a
/// folded-away replica) or as long as the axis. Samples are recorded
/// instant by instant: the first GPU recorded at a new time extends the
/// axis, and every other GPU joins that same instant.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetryStore {
    /// Sample instants, strictly ascending.
    t: Vec<f64>,
    power_w: Vec<Vec<f64>>,
    temp_c: Vec<Vec<f64>>,
    freq_mhz: Vec<Vec<f64>>,
    util: Vec<Vec<f64>>,
    pcie_gbps: Vec<Vec<f64>>,
}

impl TelemetryStore {
    /// A store for `num_gpus` devices.
    pub fn new(num_gpus: usize) -> Self {
        let mk = || vec![Vec::new(); num_gpus];
        TelemetryStore {
            t: Vec::new(),
            power_w: mk(),
            temp_c: mk(),
            freq_mhz: mk(),
            util: mk(),
            pcie_gbps: mk(),
        }
    }

    /// Number of GPUs tracked.
    pub fn num_gpus(&self) -> usize {
        self.power_w.len()
    }

    /// Record one sample for a GPU.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range, if the GPU already has a sample at
    /// the axis's last instant and `t_s` does not come strictly after it,
    /// or if the GPU is out of step with the axis (it missed an earlier
    /// instant, or joins the current one at a different time).
    pub fn record(&mut self, gpu: usize, t_s: f64, sample: GpuSample) {
        let n = self.t.len();
        let have = self.power_w[gpu].len();
        if have == n {
            if let Some(&last) = self.t.last() {
                assert!(
                    t_s > last,
                    "sample time {t_s} must come after the last axis instant {last}"
                );
            }
            self.t.push(t_s);
        } else {
            assert!(
                have + 1 == n && self.t[have].to_bits() == t_s.to_bits(),
                "GPU {gpu} is out of step with the time axis: {have} samples, \
                 {n} instants, recording t = {t_s}"
            );
        }
        self.power_w[gpu].push(sample.power_w);
        self.temp_c[gpu].push(sample.temp_c);
        self.freq_mhz[gpu].push(sample.freq_mhz);
        self.util[gpu].push(sample.util);
        self.pcie_gbps[gpu].push(sample.pcie_gbps);
    }

    fn series<'a>(&'a self, column: &'a [f64]) -> SeriesView<'a> {
        SeriesView::new(&self.t[..column.len()], column)
    }

    /// Power series of a GPU.
    pub fn power(&self, gpu: usize) -> SeriesView<'_> {
        self.series(&self.power_w[gpu])
    }

    /// Temperature series of a GPU.
    pub fn temp(&self, gpu: usize) -> SeriesView<'_> {
        self.series(&self.temp_c[gpu])
    }

    /// Clock series of a GPU.
    pub fn freq(&self, gpu: usize) -> SeriesView<'_> {
        self.series(&self.freq_mhz[gpu])
    }

    /// Utilization series of a GPU.
    pub fn util(&self, gpu: usize) -> SeriesView<'_> {
        self.series(&self.util[gpu])
    }

    /// PCIe throughput series of a GPU.
    pub fn pcie(&self, gpu: usize) -> SeriesView<'_> {
        self.series(&self.pcie_gbps[gpu])
    }

    /// Overwrite one GPU's series with a copy of another's (symmetry-folded
    /// runs replicate the representative replica's telemetry onto the
    /// replicas they skipped).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range, or if `from` is midway
    /// through an instant (its column is neither empty nor as long as the
    /// axis).
    pub fn copy_gpu(&mut self, from: usize, to: usize) {
        let have = self.power_w[from].len();
        assert!(
            have == 0 || have == self.t.len(),
            "GPU {from} is midway through an instant: {have} samples, {} instants",
            self.t.len()
        );
        if from == to {
            return;
        }
        for channel in [
            &mut self.power_w,
            &mut self.temp_c,
            &mut self.freq_mhz,
            &mut self.util,
            &mut self.pcie_gbps,
        ] {
            let column = channel[from].clone();
            channel[to] = column;
        }
    }

    /// Total energy across all GPUs, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.power_w
            .iter()
            .map(|c| self.series(c).integrate())
            .sum()
    }

    /// Cluster-mean of per-GPU average power, watts.
    pub fn mean_power_w(&self) -> f64 {
        mean(self.power_w.iter().map(|c| self.series(c).mean()))
    }

    /// Peak instantaneous power of any GPU, watts.
    pub fn peak_power_w(&self) -> f64 {
        self.power_w
            .iter()
            .map(|c| self.series(c).peak())
            .fold(0.0, f64::max)
    }

    /// Cluster-mean of per-GPU average temperature, °C.
    pub fn mean_temp_c(&self) -> f64 {
        mean(self.temp_c.iter().map(|c| self.series(c).mean()))
    }

    /// Peak temperature of any GPU, °C.
    pub fn peak_temp_c(&self) -> f64 {
        self.temp_c
            .iter()
            .map(|c| self.series(c).peak())
            .fold(0.0, f64::max)
    }

    /// Cluster-mean of per-GPU average clock, MHz.
    pub fn mean_freq_mhz(&self) -> f64 {
        mean(self.freq_mhz.iter().map(|c| self.series(c).mean()))
    }

    /// Aggregate PCIe throughput series: sums samples across GPUs at each
    /// instant GPU 0 was sampled at.
    pub fn aggregate_pcie(&self) -> TimeSeries {
        let mut out = TimeSeries::new();
        let Some(first) = self.pcie_gbps.first() else {
            return out;
        };
        for i in 0..first.len() {
            let total: f64 = self.pcie_gbps.iter().filter_map(|c| c.get(i)).sum();
            out.push(self.t[i], total);
        }
        out
    }

    /// Why the store breaks its layout invariants, if it does.
    fn layout_error(&self) -> Option<String> {
        if let Some(w) = self
            .t
            .windows(2)
            .find(|w| w[1].partial_cmp(&w[0]) != Some(std::cmp::Ordering::Greater))
        {
            return Some(format!("time axis not ascending at {} -> {}", w[0], w[1]));
        }
        let gpus = self.num_gpus();
        let channels = [
            &self.power_w,
            &self.temp_c,
            &self.freq_mhz,
            &self.util,
            &self.pcie_gbps,
        ];
        for channel in channels {
            if channel.len() != gpus {
                return Some(format!("{} GPU columns, expected {gpus}", channel.len()));
            }
        }
        for gpu in 0..gpus {
            let have = self.power_w[gpu].len();
            if have != 0 && have != self.t.len() {
                return Some(format!(
                    "GPU {gpu} has {have} samples on a {}-instant axis",
                    self.t.len()
                ));
            }
            if channels.iter().any(|c| c[gpu].len() != have) {
                return Some(format!("GPU {gpu}'s channels differ in length"));
            }
        }
        None
    }
}

#[derive(Deserialize)]
struct StoreColumns {
    t: Vec<f64>,
    power_w: Vec<Vec<f64>>,
    temp_c: Vec<Vec<f64>>,
    freq_mhz: Vec<Vec<f64>>,
    util: Vec<Vec<f64>>,
    pcie_gbps: Vec<Vec<f64>>,
}

impl Deserialize for TelemetryStore {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let c = StoreColumns::deserialize_value(v)?;
        let store = TelemetryStore {
            t: c.t,
            power_w: c.power_w,
            temp_c: c.temp_c,
            freq_mhz: c.freq_mhz,
            util: c.util,
            pcie_gbps: c.pcie_gbps,
        };
        match store.layout_error() {
            None => Ok(store),
            Some(e) => Err(serde::Error::custom(format!("telemetry store: {e}"))),
        }
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(p: f64) -> GpuSample {
        GpuSample {
            power_w: p,
            temp_c: 50.0,
            freq_mhz: 1980.0,
            util: 0.9,
            pcie_gbps: 2.0,
        }
    }

    /// A sample whose every channel is distinct for each `(gpu, i)`.
    fn distinct(gpu: usize, i: usize) -> GpuSample {
        let k = (gpu * 97 + i * 13) as f64;
        GpuSample {
            power_w: 100.0 + k * 1.25,
            temp_c: 40.0 + k * 0.375,
            freq_mhz: 1500.0 + k,
            util: (k * 0.01) % 1.0,
            pcie_gbps: k / 7.0,
        }
    }

    /// Records `instants` samples of `distinct` into `gpus` of a
    /// `num_gpus` store, and the same samples into one owned series per
    /// GPU and channel (the per-GPU `(t, v)` layout the store replaced).
    fn store_and_series(
        num_gpus: usize,
        gpus: &[usize],
        instants: usize,
    ) -> (TelemetryStore, Vec<[TimeSeries; 5]>) {
        let mut store = TelemetryStore::new(num_gpus);
        let mut series: Vec<[TimeSeries; 5]> = (0..num_gpus).map(|_| Default::default()).collect();
        for i in 0..instants {
            let t = 0.05 * (i + 1) as f64;
            for &g in gpus {
                let s = distinct(g, i);
                store.record(g, t, s);
                let vals = [s.power_w, s.temp_c, s.freq_mhz, s.util, s.pcie_gbps];
                for (ts, v) in series[g].iter_mut().zip(vals) {
                    ts.push(t, v);
                }
            }
        }
        (store, series)
    }

    fn assert_series_eq(view: SeriesView<'_>, owned: &TimeSeries) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(view.times()), bits(owned.times()));
        assert_eq!(bits(view.values()), bits(owned.values()));
    }

    fn assert_matches_series(store: &TelemetryStore, series: &[[TimeSeries; 5]]) {
        assert_eq!(store.num_gpus(), series.len());
        for (g, s) in series.iter().enumerate() {
            assert_series_eq(store.power(g), &s[0]);
            assert_series_eq(store.temp(g), &s[1]);
            assert_series_eq(store.freq(g), &s[2]);
            assert_series_eq(store.util(g), &s[3]);
            assert_series_eq(store.pcie(g), &s[4]);
        }
    }

    #[test]
    fn record_and_query() {
        let mut s = TelemetryStore::new(2);
        s.record(0, 0.0, sample(100.0));
        s.record(1, 0.0, sample(300.0));
        s.record(0, 1.0, sample(200.0));
        s.record(1, 1.0, sample(300.0));
        assert_eq!(s.power(0).len(), 2);
        assert_eq!(s.power(1).times(), &[0.0, 1.0]);
        assert!((s.mean_power_w() - 225.0).abs() < 1e-9);
        assert_eq!(s.peak_power_w(), 300.0);
    }

    #[test]
    fn total_energy_sums_gpus() {
        let mut s = TelemetryStore::new(2);
        for t in [0.0, 10.0] {
            for gpu in 0..2 {
                s.record(gpu, t, sample(100.0));
            }
        }
        assert!((s.total_energy_j() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_pcie_sums_across_gpus() {
        let mut s = TelemetryStore::new(3);
        for t in [0.0, 1.0] {
            for gpu in 0..3 {
                s.record(gpu, t, sample(1.0));
            }
        }
        let agg = s.aggregate_pcie();
        assert_eq!(agg.len(), 2);
        assert!((agg.values()[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_store_is_harmless() {
        let s = TelemetryStore::new(0);
        assert_eq!(s.total_energy_j(), 0.0);
        assert_eq!(s.mean_power_w(), 0.0);
        assert!(s.aggregate_pcie().is_empty());
    }

    #[test]
    fn shared_axis_reads_like_per_gpu_series() {
        // GPU 2 is never sampled (a folded-away replica): its series stay
        // empty, and every aggregate treats it as the old layout did.
        let (store, series) = store_and_series(4, &[0, 1, 3], 6);
        assert_matches_series(&store, &series);
        assert!(store.power(2).is_empty());
        let total: f64 = series.iter().map(|s| s[0].integrate()).sum();
        assert_eq!(store.total_energy_j().to_bits(), total.to_bits());
        let mut agg = TimeSeries::new();
        for i in 0..series[0][4].len() {
            let sum: f64 = series.iter().filter_map(|s| s[4].values().get(i)).sum();
            agg.push(series[0][4].times()[i], sum);
        }
        assert_eq!(store.aggregate_pcie(), agg);
        let peak = series.iter().map(|s| s[1].peak()).fold(0.0, f64::max);
        assert_eq!(store.peak_temp_c().to_bits(), peak.to_bits());
    }

    #[test]
    fn copy_gpu_replicates_a_full_column() {
        let (mut store, mut series) = store_and_series(4, &[0, 1], 5);
        store.copy_gpu(1, 3);
        store.copy_gpu(2, 0);
        series[3] = series[1].clone();
        series[0] = Default::default();
        assert_matches_series(&store, &series);
    }

    #[test]
    #[should_panic(expected = "must come after the last axis instant")]
    fn recording_an_axis_time_twice_panics() {
        let mut s = TelemetryStore::new(2);
        s.record(0, 0.5, sample(1.0));
        s.record(0, 0.5, sample(1.0));
    }

    #[test]
    #[should_panic(expected = "out of step with the time axis")]
    fn column_skipping_an_instant_panics() {
        let mut s = TelemetryStore::new(2);
        s.record(0, 0.5, sample(1.0));
        s.record(1, 0.5, sample(1.0));
        s.record(0, 1.0, sample(1.0));
        s.record(0, 1.5, sample(1.0));
        s.record(1, 1.5, sample(1.0));
    }

    #[test]
    #[should_panic(expected = "out of step with the time axis")]
    fn joining_an_instant_at_another_time_panics() {
        let mut s = TelemetryStore::new(2);
        s.record(0, 0.5, sample(1.0));
        s.record(1, 0.75, sample(1.0));
    }

    #[test]
    #[should_panic(expected = "midway through an instant")]
    fn copying_a_partial_column_panics() {
        let mut s = TelemetryStore::new(3);
        s.record(0, 0.5, sample(1.0));
        s.record(1, 0.5, sample(1.0));
        s.record(0, 1.0, sample(1.0));
        s.copy_gpu(1, 2);
    }

    #[test]
    fn serde_round_trip_is_equal() {
        let (store, _) = store_and_series(3, &[0, 2], 4);
        let text = serde_json::to_string(&store).unwrap();
        let back: TelemetryStore = serde_json::from_str(&text).unwrap();
        assert_eq!(back, store);
        let empty = TelemetryStore::new(5);
        let text = serde_json::to_string(&empty).unwrap();
        assert_eq!(
            serde_json::from_str::<TelemetryStore>(&text).unwrap(),
            empty
        );
    }

    #[test]
    fn malformed_layouts_fail_to_deserialize() {
        let (store, _) = store_and_series(2, &[0, 1], 3);
        let good = serde_json::to_string(&store).unwrap();
        for bad in [
            // A column shorter than the axis.
            good.replacen("\"util\":[[", "\"util\":[[0.5,", 1),
            // A descending axis.
            good.replacen("\"t\":[0.05,", "\"t\":[0.2,", 1),
        ] {
            assert_ne!(bad, good);
            assert!(
                serde_json::from_str::<TelemetryStore>(&bad).is_err(),
                "{bad}"
            );
        }
    }
}
