//! Figure 2: attribute-space skew of the three evaluation indices.
//!
//! The paper bins one day of Abilene + GÉANT traffic summaries into a
//! 64-bin multi-dimensional histogram per index and shows the occupancy
//! varies by an order of magnitude — the motivation for balanced cuts.

use super::{io, Scale, Verdict, Write};
use crate::harness::{IndexKind, TrafficDriver, WINDOW};
use crate::report::{header, kv};
use mind_histogram::GridHistogram;

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 2",
        "64-bin multi-dimensional histogram occupancy per index",
        "occupancy across bins varies by an order of magnitude or more",
    )?;
    let scale = scale.experiment(24);
    let driver = TrafficDriver::abilene_geant(2, scale);
    let ts_bound = 86_400u64;

    let mut ratios = Vec::new();
    let mut all = true;
    for kind in [IndexKind::Fanout, IndexKind::Octets, IndexKind::FlowSize] {
        let schema = kind.schema(ts_bound);
        // 64 total bins over 3 dims = 4 bins per dimension.
        let mut hist = GridHistogram::new(schema.bounds(), 4);
        let mut w = 0;
        while w < scale.hours * 3600 {
            for r in 0..driver.routers() as u16 {
                for agg in driver.window_aggregates(0, w, r) {
                    // The motivation figure characterizes the *full*
                    // distribution, before insert filtering.
                    let mut p = kind.point(&agg);
                    schema.bounds().clamp_point(&mut p);
                    hist.add(&p);
                }
            }
            w += WINDOW * 4; // sample every 4th window for speed
        }
        let occ = hist.occupancy_series();
        let max = occ.first().copied().unwrap_or(0);
        let median = occ.get(occ.len() / 2).copied().unwrap_or(0);
        let min = occ.last().copied().unwrap_or(0);
        writeln!(
            out,
            "\n  {} ({} records in {} of 64 bins):",
            kind.tag(),
            hist.total(),
            occ.len()
        )?;
        kv(
            out,
            "    occupancy (desc, top 8)",
            format!("{:?}", &occ[..occ.len().min(8)]),
        )?;
        kv(
            out,
            "    max / median / min bin",
            format!("{max} / {median} / {min}"),
        )?;
        let verdict = Verdict::new(
            max >= 10 * min.max(1),
            format!("{:.0}x", max as f64 / min.max(1) as f64),
        );
        kv(out, "    max:min ratio (paper: >= 10x)", &verdict)?;
        all &= verdict.reproduced;
        ratios.push(verdict.note);
    }
    Ok(Verdict::new(
        all,
        format!("max:min bin ratio {}", ratios.join(" / ")),
    ))
}
