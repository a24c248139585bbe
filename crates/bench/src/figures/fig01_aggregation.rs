//! Figure 1: flow-record reduction from windowed aggregation + filtering.
//!
//! The paper aggregates one day of sampled NetFlow from an Abilene router
//! over a 30-second window and filters aggregates below a size threshold,
//! obtaining almost two orders of magnitude fewer records at 50 KB.

use super::{io, Scale, Verdict, Write};
use crate::harness::{TrafficDriver, WINDOW};
use crate::report::{header, kv};
use mind_traffic::aggregate::reduction_counts;

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 1",
        "records after aggregation and filtering (one Abilene router, one day)",
        "30 s window + 50 KB threshold ≈ two orders of magnitude reduction",
    )?;
    let scale = scale.experiment(24);
    let driver = TrafficDriver::abilene_geant(1, scale);
    let router = 0u16; // an Abilene router (1/100 sampling → high volume)
    let span = scale.hours * 3600;

    let thresholds: [u64; 4] = [10 << 10, 50 << 10, 100 << 10, 500 << 10];
    let mut raw_total = 0usize;
    let mut agg_total = 0usize;
    let mut filt_totals = [0usize; 4];
    let mut w = 0;
    while w < span {
        let flows = driver.generator.window_flows(0, w, WINDOW, router);
        for (i, &th) in thresholds.iter().enumerate() {
            let (raw, agg, filt) = reduction_counts(&flows, w, WINDOW, th);
            if i == 0 {
                raw_total += raw;
                agg_total += agg;
            }
            filt_totals[i] += filt;
        }
        w += WINDOW;
    }

    kv(out, "hours of trace", scale.hours)?;
    kv(out, "raw sampled flow records", raw_total)?;
    kv(
        out,
        "aggregated (30 s windows)",
        format!(
            "{agg_total}  ({:.1}x reduction)",
            raw_total as f64 / agg_total.max(1) as f64
        ),
    )?;
    for (i, &th) in thresholds.iter().enumerate() {
        let f = filt_totals[i];
        kv(
            out,
            &format!("aggregated + filtered (>= {} KB)", th >> 10),
            format!(
                "{f}  ({:.1}x reduction)",
                raw_total as f64 / f.max(1) as f64
            ),
        )?;
    }
    let reduction_50k = raw_total as f64 / filt_totals[1].max(1) as f64;
    writeln!(out)?;
    let verdict = Verdict::new(reduction_50k >= 20.0, format!("{reduction_50k:.0}x"));
    kv(out, "shape check (paper: ~100x at 30 s / 50 KB)", &verdict)?;
    Ok(verdict)
}
