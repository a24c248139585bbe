//! Figure 3: stationarity of the traffic distribution (mismatch metric).
//!
//! The paper bins a multi-attribute index (timestamp included, as
//! time-of-day) into `k`-granularity histograms and compares them with
//! the Appendix A mismatch metric: day-over-day mismatch stays ≤ ~20 %
//! even at the finest granularity (same time-of-day bins, slowly drifting
//! distribution), while hour-over-hour mismatch approaches 1 once the
//! granularity reaches 64 — adjacent hours land in disjoint fine
//! time-of-day bins and the popular-prefix set churns. This is the case
//! for daily (not continuous) re-balancing.

use super::{io, Scale, Verdict, Write};
use crate::harness::{TrafficDriver, WINDOW};
use crate::report::{header, kv};
use mind_histogram::{mismatch_fraction, GridHistogram};
use mind_traffic::schemas::index2_schema;
use mind_types::HyperRect;

/// Histogram over `(dst_prefix, time-of-day, octets)` of the traffic seen
/// in `[start, end)` of `day`.
fn hist_for(
    driver: &TrafficDriver,
    bounds: &HyperRect,
    gran: u32,
    day: u64,
    start: u64,
    end: u64,
) -> GridHistogram {
    let mut h = GridHistogram::new(bounds.clone(), gran);
    let mut w = start;
    while w < end {
        for r in 0..driver.routers() as u16 {
            for agg in driver.window_aggregates(day, w, r) {
                h.add(&[
                    (agg.dst_prefix as u64).min(bounds.hi(0)),
                    (w % 86_400).min(bounds.hi(1)),
                    agg.octets.min(bounds.hi(2)),
                ]);
            }
        }
        w += WINDOW * 8; // sample for speed; ratios are what matter
    }
    h
}

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 3",
        "histogram mismatch day-over-day vs hour-over-hour, by granularity",
        "daily mismatch <= ~20%; hourly mismatch -> 1 at granularity >= 64",
    )?;
    let scale = scale.experiment(24);
    let driver = TrafficDriver::abilene_geant(3, scale);
    let schema = index2_schema(86_400);
    let bounds = schema.bounds();

    writeln!(
        out,
        "\n  {:<12} {:>16} {:>16}",
        "granularity", "day-over-day", "hour-over-hour"
    )?;
    let mut hour_at_64 = 0.0;
    let mut day_at_64 = 0.0;
    let mut hour_at_4 = 0.0;
    for gran in [2u32, 4, 8, 16, 32, 64] {
        // Day-over-day: the same hours of two consecutive days (time-of-
        // day bins align; only the distribution drift shows).
        let day0 = hist_for(&driver, &bounds, gran, 0, 0, scale.hours * 3600);
        let day1 = hist_for(&driver, &bounds, gran, 1, 0, scale.hours * 3600);
        let daily = mismatch_fraction(&day0, &day1);
        // Hour-over-hour: two adjacent hours of the same day.
        let h10 = hist_for(&driver, &bounds, gran, 0, 10 * 3600, 11 * 3600);
        let h11 = hist_for(&driver, &bounds, gran, 0, 11 * 3600, 12 * 3600);
        let hourly = mismatch_fraction(&h10, &h11);
        writeln!(out, "  {gran:<12} {daily:>16.3} {hourly:>16.3}")?;
        if gran == 64 {
            hour_at_64 = hourly;
            day_at_64 = daily;
        }
        if gran == 4 {
            hour_at_4 = hourly;
        }
    }
    writeln!(out)?;
    let verdict = Verdict::new(
        day_at_64 < 0.3 && hour_at_64 > 0.8 && hour_at_4 < hour_at_64,
        format!("daily(64)={day_at_64:.2} hourly(64)={hour_at_64:.2} hourly(4)={hour_at_4:.2}"),
    );
    kv(
        out,
        "shape check: daily low; hourly ~1 at 64, lower when coarse",
        &verdict,
    )?;
    Ok(verdict)
}
