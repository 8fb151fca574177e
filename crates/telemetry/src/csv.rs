//! CSV writers matching the artifact's telemetry output format.

use std::io::{self, Write};

use crate::store::TelemetryStore;
use crate::timeseries::SeriesView;

/// Write one series as `t,value` rows.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_series<'a, W: Write>(
    mut w: W,
    header: &str,
    series: impl Into<SeriesView<'a>>,
) -> io::Result<()> {
    writeln!(w, "t_s,{header}")?;
    for (t, v) in series.into().iter() {
        writeln!(w, "{t:.4},{v:.4}")?;
    }
    Ok(())
}

/// Write a whole store as wide CSV: one row per timestamp, one column group
/// per GPU (`powerN,tempN,freqN`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_store<W: Write>(mut w: W, store: &TelemetryStore) -> io::Result<()> {
    let n = store.num_gpus();
    write!(w, "t_s")?;
    for g in 0..n {
        write!(w, ",power{g}_w,temp{g}_c,freq{g}_mhz,util{g},pcie{g}_gbps")?;
    }
    writeln!(w)?;
    let samples = if n > 0 { store.power(0).len() } else { 0 };
    for i in 0..samples {
        let t = store.power(0).times()[i];
        write!(w, "{t:.4}")?;
        for g in 0..n {
            write!(
                w,
                ",{:.2},{:.2},{:.0},{:.3},{:.3}",
                store.power(g).values()[i],
                store.temp(g).values()[i],
                store.freq(g).values()[i],
                store.util(g).values()[i],
                store.pcie(g).values()[i],
            )?;
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::GpuSample;
    use crate::timeseries::TimeSeries;

    #[test]
    fn series_csv_roundtrip_shape() {
        let mut s = TimeSeries::new();
        s.push(0.0, 1.5);
        s.push(0.5, 2.5);
        let mut buf = Vec::new();
        write_series(&mut buf, "power_w", &s).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "t_s,power_w");
        assert!(lines[1].starts_with("0.0000,1.5"));
    }

    #[test]
    fn store_csv_has_one_column_group_per_gpu() {
        let mut store = TelemetryStore::new(2);
        for g in 0..2 {
            store.record(
                g,
                0.0,
                GpuSample {
                    power_w: 100.0,
                    temp_c: 40.0,
                    freq_mhz: 1980.0,
                    util: 1.0,
                    pcie_gbps: 0.5,
                },
            );
        }
        let mut buf = Vec::new();
        write_store(&mut buf, &store).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let header = text.lines().next().unwrap();
        assert!(header.contains("power0_w"));
        assert!(header.contains("pcie1_gbps"));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn multi_gpu_store_roundtrips_rows_and_ordering() {
        // 3 GPUs × 4 samples with distinct values everywhere, so any
        // column/row transposition or reordering changes the parsed floats.
        let gpus = 3;
        let samples = 4;
        let mut store = TelemetryStore::new(gpus);
        for i in 0..samples {
            let t = i as f64 * 0.25;
            for g in 0..gpus {
                store.record(
                    g,
                    t,
                    GpuSample {
                        power_w: 100.0 + (g * samples + i) as f64,
                        temp_c: 40.0 + g as f64,
                        freq_mhz: 1500.0 + i as f64,
                        util: 0.5,
                        pcie_gbps: g as f64 + i as f64 / 8.0,
                    },
                );
            }
        }
        let mut buf = Vec::new();
        write_store(&mut buf, &store).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + samples, "one row per timestamp");
        let header: Vec<&str> = lines[0].split(',').collect();
        assert_eq!(header.len(), 1 + 5 * gpus, "five columns per GPU");
        assert_eq!(header[1], "power0_w");
        assert_eq!(header[1 + 5 * (gpus - 1)], format!("power{}_w", gpus - 1));
        let mut last_t = f64::NEG_INFINITY;
        for (i, line) in lines[1..].iter().enumerate() {
            let fields: Vec<f64> = line.split(',').map(|f| f.parse().unwrap()).collect();
            assert_eq!(fields.len(), 1 + 5 * gpus);
            assert!(fields[0] > last_t, "timestamps must ascend");
            last_t = fields[0];
            for g in 0..gpus {
                let power = fields[1 + 5 * g];
                assert_eq!(
                    power,
                    100.0 + (g * samples + i) as f64,
                    "gpu {g} sample {i} landed in the wrong cell"
                );
            }
        }
    }

    #[test]
    fn store_csv_bytes_are_pinned() {
        // GPU 1 is filled by `copy_gpu` from GPU 2; the expected text is
        // what the per-GPU `(t, v)` store layout wrote for the same input.
        let mut store = TelemetryStore::new(3);
        for i in 0..3 {
            let t = 0.05 * (i + 1) as f64;
            for g in [0, 2] {
                store.record(
                    g,
                    t,
                    GpuSample {
                        power_w: 100.0 + 12.345 * (g * 3 + i) as f64,
                        temp_c: 40.0 + 1.5 * g as f64 + 0.25 * i as f64,
                        freq_mhz: 1590.0 + 45.0 * i as f64,
                        util: 0.125 * (g + i) as f64,
                        pcie_gbps: 0.3 * (g + i) as f64,
                    },
                );
            }
        }
        store.copy_gpu(2, 1);
        let mut buf = Vec::new();
        write_store(&mut buf, &store).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "t_s,power0_w,temp0_c,freq0_mhz,util0,pcie0_gbps,power1_w,temp1_c,freq1_mhz,\
             util1,pcie1_gbps,power2_w,temp2_c,freq2_mhz,util2,pcie2_gbps\n\
             0.0500,100.00,40.00,1590,0.000,0.000,174.07,43.00,1590,0.250,0.600,\
             174.07,43.00,1590,0.250,0.600\n\
             0.1000,112.34,40.25,1635,0.125,0.300,186.42,43.25,1635,0.375,0.900,\
             186.42,43.25,1635,0.375,0.900\n\
             0.1500,124.69,40.50,1680,0.250,0.600,198.76,43.50,1680,0.500,1.200,\
             198.76,43.50,1680,0.500,1.200\n"
        );
    }

    #[test]
    fn empty_store_writes_header_only() {
        let store = TelemetryStore::new(0);
        let mut buf = Vec::new();
        write_store(&mut buf, &store).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 1);
    }
}
