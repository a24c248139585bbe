//! Ablation: histogram granularity vs. load-balance quality.
//!
//! Section 3.7: "the efficiency of load balancing depends upon the
//! granularity of the bins in the histogram". This sweep builds balanced
//! cuts from collected histograms at increasing granularity and measures
//! how evenly the day's records spread over the cut-tree leaves, compared
//! against cuts from the exact point set (the unreachable ideal) and
//! even cuts (the no-information floor).

use super::{io, Scale, Verdict, Write};
use crate::harness::{IndexKind, TrafficDriver, WINDOW};
use crate::report::{header, kv};
use mind_histogram::{CutTree, GridHistogram};

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Ablation: histogram granularity",
        "balance quality of histogram-derived cuts vs granularity",
        "coarser histograms -> coarser medians -> worse balance (Section 3.7)",
    )?;
    let scale = scale.experiment(6);
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let schema = kind.schema(ts_bound);
    let bounds = schema.bounds();
    let driver = TrafficDriver::abilene_geant(41, scale);

    // The day's records (the data the cuts must balance).
    let mut pts: Vec<Vec<u64>> = Vec::new();
    let mut w = 0;
    while w < scale.hours * 3600 {
        for r in 0..driver.routers() as u16 {
            for agg in driver.window_aggregates(0, w, r) {
                if let Some(rec) = kind.record(&agg) {
                    let rec = rec.conform(&schema).unwrap();
                    pts.push(rec.point(3).to_vec());
                }
            }
        }
        w += WINDOW * 4;
    }
    kv(out, "records", pts.len())?;
    let depth = 8u8;
    let ideal = pts.len() as f64 / (1u64 << depth) as f64;

    let imbalance = |tree: &CutTree| -> (u64, f64) {
        let occ = tree.leaf_occupancy(pts.iter().cloned());
        let max = *occ.iter().max().unwrap();
        (max, max as f64 / ideal.max(1.0))
    };

    writeln!(
        out,
        "\n  {:<26} {:>12} {:>16}",
        "cuts", "max leaf", "max / ideal"
    )?;
    let even = CutTree::even(bounds.clone(), depth);
    let (m, r) = imbalance(&even);
    writeln!(
        out,
        "  {:<26} {:>12} {:>15.1}x",
        "even (no information)", m, r
    )?;

    let mut prev_ratio = f64::MAX;
    let mut monotone = true;
    for gran in [2u32, 4, 8, 16, 32, 64, 128] {
        let mut hist = GridHistogram::new(bounds.clone(), gran);
        for p in &pts {
            hist.add(p);
        }
        let tree = CutTree::balanced_from_histogram(bounds.clone(), depth, &hist);
        let (m, r) = imbalance(&tree);
        writeln!(
            out,
            "  {:<26} {:>12} {:>15.1}x",
            format!("histogram granularity {gran}"),
            m,
            r
        )?;
        if gran >= 8 && r > prev_ratio * 1.5 {
            monotone = false; // allow noise but catch gross inversions
        }
        prev_ratio = r;
    }
    let refs: Vec<&[u64]> = pts.iter().map(|p| p.as_slice()).collect();
    let exact = CutTree::balanced_from_points(bounds, depth, &refs);
    let (m, exact_r) = imbalance(&exact);
    writeln!(
        out,
        "  {:<26} {:>12} {:>15.1}x",
        "exact points (ideal)", m, exact_r
    )?;

    writeln!(out)?;
    let verdict = Verdict::new(
        monotone && prev_ratio < 4.0 * exact_r.max(1.0),
        format!("gran-128 ratio {prev_ratio:.1}x vs exact {exact_r:.1}x"),
    );
    kv(
        out,
        "shape check (finer histograms approach the ideal)",
        &verdict,
    )?;
    Ok(verdict)
}
