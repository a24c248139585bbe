//! Figure 12: insertion tuples carried per overlay link over one day.
//!
//! The paper counts the tuples traversing each overlay link on September
//! 1st: the distribution is uneven — Abilene nodes inject ~10× more
//! records than GÉANT nodes because of the different packet sampling
//! rates — but every link carries far less than a centralized collector's
//! links would.

use super::{io, Scale, Verdict, Write};
use crate::harness::{balanced_cuts, baseline_cluster, install_index, IndexKind, TrafficDriver};
use crate::report::{header, kv};
use mind_core::Replication;
use mind_types::node::SECONDS;

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 12",
        "tuples carried per overlay link during one day of insertion",
        "imbalanced (Abilene vs GÉANT volume) but no link close to centralized load",
    )?;
    let scale = scale.experiment(1);
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let driver = TrafficDriver::abilene_geant(12, scale);
    let mut cluster = baseline_cluster(12);
    let t0 = 11 * 3600;
    let span = 600 * scale.hours;
    let cuts = balanced_cuts(kind, &driver, ts_bound, 10, t0, t0 + span);
    install_index(&mut cluster, kind, cuts, ts_bound, Replication::Level(1));
    let inserted = driver.drive(&mut cluster, &[kind], 0, t0, t0 + span, ts_bound, None);
    cluster.run_for(30 * SECONDS);

    // Tuple-bearing messages per directed link, descending (heartbeats and
    // other control chatter excluded via the data-message counter).
    let mut series: Vec<u64> = cluster
        .world()
        .stats
        .per_link
        .values()
        .map(|s| s.data_messages)
        .filter(|&c| c > 0)
        .collect();
    series.sort_unstable_by(|a, b| b.cmp(a));

    kv(out, "records inserted", inserted)?;
    kv(out, "links carrying tuples", series.len())?;
    writeln!(out, "\n  tuples per link (descending, every 8th):")?;
    write!(out, "   ")?;
    for (i, c) in series.iter().enumerate() {
        if i % 8 == 0 {
            write!(out, " {c}")?;
        }
    }
    writeln!(out)?;
    let max = series.first().copied().unwrap_or(0);
    let median = series.get(series.len() / 2).copied().unwrap_or(0);
    writeln!(out)?;
    kv(
        out,
        "max / median tuples per link",
        format!("{max} / {median}"),
    )?;
    kv(
        out,
        "centralized-equivalent load on one node's links",
        format!("{inserted} (= every tuple crosses the hub)"),
    )?;
    let verdict = Verdict::new(
        (max as f64) < 0.5 * inserted as f64,
        format!(
            "{:.1}% of hub load",
            100.0 * max as f64 / inserted.max(1) as f64
        ),
    );
    kv(out, "shape check (max link << centralized hub)", &verdict)?;
    Ok(verdict)
}
