//! Figure 13: data storage distribution across MIND nodes.
//!
//! The paper plots how many records each of the 34 nodes stores after a
//! day of insertion. With histogram-balanced cuts the distribution is
//! roughly even; this binary also runs the naive even-cut embedding on
//! the same traffic to show the imbalance balanced cuts remove
//! (the Figure 2 skew surfacing as storage hotspots).

use super::{io, Scale, Verdict, Write};
use crate::harness::{
    balanced_cuts, baseline_cluster, install_index, ExperimentScale, IndexKind, TrafficDriver,
};
use crate::report::{header, kv};
use mind_core::Replication;
use mind_histogram::CutTree;
use mind_types::node::SECONDS;

fn storage(scale: ExperimentScale, cuts: CutTree, seed: u64) -> Vec<u64> {
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let driver = TrafficDriver::abilene_geant(13, scale);
    let mut cluster = baseline_cluster(seed);
    install_index(&mut cluster, kind, cuts, ts_bound, Replication::None);
    let t0 = 11 * 3600;
    let span = 600 * scale.hours;
    driver.drive(&mut cluster, &[kind], 0, t0, t0 + span, ts_bound, None);
    cluster.run_for(60 * SECONDS);
    cluster.storage_distribution(kind.tag())
}

fn gini(dist: &[u64]) -> f64 {
    let n = dist.len() as f64;
    let sum: u64 = dist.iter().sum();
    if sum == 0 {
        return 0.0;
    }
    let mut sorted = dist.to_vec();
    sorted.sort_unstable();
    let mut cum = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        cum += (2.0 * (i as f64 + 1.0) - n - 1.0) * x as f64;
    }
    cum / (n * sum as f64)
}

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 13",
        "per-node record counts after one day: balanced vs even cuts",
        "balanced cuts spread storage ~evenly; even cuts concentrate it",
    )?;
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let scale = scale.experiment(1);
    let driver = TrafficDriver::abilene_geant(13, scale);
    let schema = kind.schema(ts_bound);

    let (t0, span) = (11 * 3600, 600 * scale.hours);
    let cuts = balanced_cuts(kind, &driver, ts_bound, 10, t0, t0 + span);
    let bal = storage(scale, cuts, 13);
    let even = storage(scale, CutTree::even(schema.bounds(), 10), 13);

    for (name, dist) in [("balanced cuts", &bal), ("even cuts", &even)] {
        let total: u64 = dist.iter().sum();
        let max = *dist.iter().max().unwrap();
        let nonzero = dist.iter().filter(|&&c| c > 0).count();
        writeln!(out, "\n  {name} (total {total}):")?;
        write!(out, "    per-node:")?;
        for c in dist {
            write!(out, " {c}")?;
        }
        writeln!(out)?;
        kv(
            out,
            "    nodes holding data",
            format!("{nonzero}/{}", dist.len()),
        )?;
        kv(
            out,
            "    max node / fair share",
            format!("{max} / {}", total / dist.len() as u64),
        )?;
        kv(out, "    Gini coefficient", format!("{:.3}", gini(dist)))?;
    }
    writeln!(out)?;
    let g_bal = gini(&bal);
    let g_even = gini(&even);
    let verdict = Verdict::new(
        g_bal < g_even - 0.1,
        format!("Gini even={g_even:.2} vs balanced={g_bal:.2}"),
    );
    kv(out, "shape check (balanced much more even)", &verdict)?;
    Ok(verdict)
}
