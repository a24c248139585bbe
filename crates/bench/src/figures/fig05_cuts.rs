//! Figure 5: even vs balanced data-space cuts.
//!
//! The paper illustrates how cutting the data space at midpoints (top
//! left of its Figure 5) leaves skewed data concentrated in a few
//! regions, while cuts placed at the distribution's medians (bottom
//! right) equalize the per-region record counts. This binary renders the
//! two cut trees over the same skewed 2-D data set and prints the
//! occupancy statistics.

use super::{io, Scale, Verdict, Write};
use crate::report::{header, kv};
use mind_histogram::CutTree;
use mind_types::HyperRect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Renders a 2-D cut tree as an ASCII grid of leaf occupancy.
fn render(tree: &CutTree, pts: &[Vec<u64>], side: usize) -> Vec<String> {
    let leaves = tree.leaves();
    let occ = tree.leaf_occupancy(pts.iter().cloned());
    let total: u64 = occ.iter().sum();
    let mut rows = Vec::new();
    for y in 0..side {
        let mut row = String::from("    ");
        for x in 0..side {
            let px = (x as u64 * 1024 + 512) / side as u64;
            let py = (y as u64 * 1024 + 512) / side as u64;
            let li = leaves
                .iter()
                .position(|(_, r)| r.contains_point(&[px, py]))
                .unwrap();
            let share = occ[li] as f64 / total.max(1) as f64;
            row.push(match share {
                s if s > 0.25 => '#',
                s if s > 0.10 => '+',
                s if s > 0.02 => '.',
                _ => ' ',
            });
        }
        rows.push(row);
    }
    rows
}

pub fn run(out: &mut dyn Write, _scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 5",
        "even cuts vs distribution-balanced cuts on skewed 2-D data",
        "balanced cuts give every region ~equal record counts",
    )?;
    let bounds = HyperRect::new(vec![0, 0], vec![1023, 1023]);
    // Heavily skewed data: 85% clustered near the origin corner.
    let mut rng = StdRng::seed_from_u64(5);
    let mut pts: Vec<Vec<u64>> = Vec::new();
    for _ in 0..8500 {
        pts.push(vec![
            rng.random_range(0..140u64),
            rng.random_range(0..110u64),
        ]);
    }
    for _ in 0..1500 {
        pts.push(vec![
            rng.random_range(0..1024u64),
            rng.random_range(0..1024u64),
        ]);
    }
    let refs: Vec<&[u64]> = pts.iter().map(|p| p.as_slice()).collect();

    let depth = 4u8; // 16 regions
    let even = CutTree::even(bounds.clone(), depth);
    let balanced = CutTree::balanced_from_points(bounds, depth, &refs);

    let mut maxes = Vec::new();
    for (name, tree) in [("even cuts", &even), ("balanced cuts", &balanced)] {
        let occ = tree.leaf_occupancy(pts.iter().cloned());
        let max = *occ.iter().max().unwrap();
        let min = *occ.iter().min().unwrap();
        let ideal = pts.len() as u64 / occ.len() as u64;
        writeln!(
            out,
            "\n  {name} ({} regions, ideal {ideal}/region):",
            occ.len()
        )?;
        for line in render(tree, &pts, 24) {
            writeln!(out, "{line}")?;
        }
        kv(
            out,
            "    max / min region occupancy",
            format!("{max} / {min}"),
        )?;
        kv(
            out,
            "    max / ideal ratio",
            format!("{:.1}x", max as f64 / ideal as f64),
        )?;
        maxes.push(max);
    }
    let (even_max, bal_max) = (maxes[0], maxes[1]);
    writeln!(out)?;
    let verdict = Verdict::new(
        bal_max * 2 < even_max,
        format!("even {even_max} vs balanced {bal_max}"),
    );
    kv(out, "shape check (balanced max << even max)", &verdict)?;
    Ok(verdict)
}
