//! Figure 9: query cost — overlay nodes visited per query.
//!
//! After inserting a day's traffic into the 34-node baseline overlay, the
//! paper issues queries whose non-time attribute ranges are uniformly
//! random (some large, some small) with a 5-minute time window, and
//! counts the nodes each query visits: over 90 % of queries involve 4 or
//! fewer nodes — the locality-preserving embedding at work.
//!
//! The measurement runs three independently seeded worlds (traffic,
//! overlay, and query streams all differ) in parallel and pools the
//! per-query costs, so the distribution is not an artifact of one build
//! of the cuts.

use super::{io, Scale, Verdict, Write};
use crate::harness::{
    balanced_cuts, baseline_cluster, install_index, random_query, run_seeds_parallel,
    ExperimentScale, IndexKind, TrafficDriver,
};
use crate::report::{fraction_leq, header, kv};
use mind_core::Replication;
use mind_types::node::SECONDS;
use mind_types::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Queries issued per world.
const QUERIES: usize = 50;

/// One full world: day of traffic, balanced cuts, driven inserts, then
/// `QUERIES` random queries. Returns the completed-query costs and the
/// incomplete count.
fn run_world(world_seed: u64, rng_seed: u64, scale: ExperimentScale) -> (Vec<u64>, usize) {
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let driver = TrafficDriver::abilene_geant(world_seed, scale);
    let mut cluster = baseline_cluster(world_seed);
    // The paper balances cuts over the full day's distribution while the
    // measured queries cover five-minute windows — the time dimension's
    // mass fraction per query is tiny, which is what keeps fan-out low.
    let cuts = balanced_cuts(kind, &driver, ts_bound, 10, 0, 86_400);
    install_index(&mut cluster, kind, cuts, ts_bound, Replication::Level(1));
    let span = 600 * scale.hours;
    let t0 = 11 * 3600;
    driver.drive(&mut cluster, &[kind], 0, t0, t0 + span, ts_bound, None);
    cluster.run_for(30 * SECONDS);

    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut costs = Vec::new();
    let mut incomplete = 0usize;
    for _ in 0..QUERIES {
        let origin = NodeId(rng.random_range(0..cluster.len() as u32));
        let t_now = rng.random_range(t0 + 300..t0 + span);
        let rect = random_query(kind, &mut rng, t_now);
        let outcome = cluster
            .query_and_wait(origin, kind.tag(), rect, vec![])
            .unwrap();
        if outcome.complete {
            costs.push(outcome.cost_nodes as u64);
        } else {
            incomplete += 1;
        }
    }
    (costs, incomplete)
}

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 9",
        "query cost distribution: nodes visited per query (34 nodes)",
        ">90% of queries visit <= 4 nodes",
    )?;
    let scale = scale.experiment(1);
    let worlds = [(9u64, 99u64), (10, 199), (11, 299)];
    let results = run_seeds_parallel(&worlds, |&(world_seed, rng_seed)| {
        run_world(world_seed, rng_seed, scale)
    });
    let mut costs: Vec<u64> = results
        .iter()
        .flat_map(|(c, _)| c.iter().copied())
        .collect();
    let incomplete: usize = results.iter().map(|(_, i)| i).sum();
    costs.sort_unstable();
    writeln!(out, "\n  {:>14} {:>12}", "nodes visited", "fraction <=")?;
    for k in [1u64, 2, 3, 4, 6, 8, 12, 16] {
        writeln!(out, "  {:>14} {:>12.3}", k, fraction_leq(&costs, k))?;
    }
    kv(out, "worlds", worlds.len())?;
    kv(out, "queries", worlds.len() * QUERIES)?;
    kv(out, "incomplete", incomplete)?;
    kv(out, "max nodes visited", costs.last().copied().unwrap_or(0))?;
    let f4 = fraction_leq(&costs, 4);
    writeln!(out)?;
    let verdict = Verdict::new(f4 >= 0.90, format!("{:.1}%", f4 * 100.0));
    kv(out, "shape check (paper: >=90% within 4 nodes)", &verdict)?;
    Ok(verdict)
}
