//! Ablation: cut-tree depth.
//!
//! Section 3.4 cuts "until the number of hyper-rectangles equals the
//! number of nodes" and notes the computed code for a data item may be
//! longer than node codes. How deep should the tree go? This sweep shows
//! what depth does and does not buy on the 34-node deployment
//! (⌈log2 34⌉ = 6):
//!
//! * **per-node storage balance is depth-invariant beyond the node code
//!   length** — a node's share is its code's subtree, fixed by the first
//!   ~6 cut levels; deeper cuts subdivide within nodes,
//! * **query plan size grows with depth** — partially-overlapped regions
//!   split down to leaves, so deeper trees issue more sub-queries (the
//!   owners, and hence the paper's query-cost metric, stay the same),
//! * **embedding stays cheap** — `code_for_point` is O(depth).

use super::{io, Scale, Verdict, Write};
use crate::harness::{
    balanced_cuts, baseline_cluster, install_index, random_query, ExperimentScale, IndexKind,
    TrafficDriver,
};
use crate::report::{header, kv};
use mind_core::Replication;
use mind_types::node::SECONDS;
use mind_types::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// (max-node/fair ratio, mean plan size, mean query cost)
fn sweep_point(scale: ExperimentScale, depth: u8) -> (f64, f64, f64) {
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let driver = TrafficDriver::abilene_geant(43, scale);
    let mut cluster = baseline_cluster(43);
    let t0 = 11 * 3600;
    let span = 600 * scale.hours;
    let cuts = balanced_cuts(kind, &driver, ts_bound, depth, t0, t0 + span);
    install_index(&mut cluster, kind, cuts, ts_bound, Replication::None);
    let inserted = driver.drive(&mut cluster, &[kind], 0, t0, t0 + span, ts_bound, None);
    cluster.run_for(60 * SECONDS);
    let dist = cluster.storage_distribution(kind.tag());
    let max = *dist.iter().max().unwrap() as f64;
    let fair = inserted as f64 / cluster.len() as f64;

    let mut rng = StdRng::seed_from_u64(4343);
    let mut plan_sizes = 0usize;
    let mut costs = 0usize;
    let mut done = 0usize;
    for _ in 0..60 {
        let origin = NodeId(rng.random_range(0..cluster.len() as u32));
        let t_now = rng.random_range(t0 + 300..t0 + span);
        let q = random_query(kind, &mut rng, t_now);
        let qid = cluster.query(origin, kind.tag(), q, vec![]).unwrap();
        // Wait for completion, then read the tracker's final plan size.
        let deadline = cluster.now() + 90 * SECONDS;
        while cluster.now() < deadline && cluster.query_outcome(origin, qid).is_none() {
            let next = cluster.now() + 100 * mind_types::node::MILLIS;
            cluster.run_until(next);
        }
        if let Some(o) = cluster.query_outcome(origin, qid) {
            if o.complete {
                let t = &cluster.world().node(origin).queries[&qid];
                plan_sizes += t.expected.len();
                costs += o.cost_nodes;
                done += 1;
            }
        }
    }
    (
        max / fair.max(1.0),
        plan_sizes as f64 / done.max(1) as f64,
        costs as f64 / done.max(1) as f64,
    )
}

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Ablation: cut-tree depth",
        "balance, plan size and query cost vs cut depth (34 nodes, log2 N = 6)",
        "balance is fixed by the first log2 N levels; deeper trees split queries finer",
    )?;
    writeln!(
        out,
        "\n  {:<8} {:>16} {:>16} {:>16}",
        "depth", "max node / fair", "plan size/query", "nodes/query"
    )?;
    let scale = scale.experiment(1);
    let mut plans = Vec::new();
    let mut balances = Vec::new();
    for depth in [6u8, 8, 10, 12] {
        let (ratio, plan, cost) = sweep_point(scale, depth);
        plans.push(plan);
        balances.push(ratio);
        writeln!(
            out,
            "  {:<8} {:>15.1}x {:>16.1} {:>16.1}",
            depth, ratio, plan, cost
        )?;
    }
    writeln!(out)?;
    let balance_invariant = balances.iter().all(|&b| (b - balances[0]).abs() < 0.5);
    let verdict = Verdict::new(
        balance_invariant && plans[3] > plans[0],
        format!(
            "balance {:.1}x at all depths: {}; plans {:.1} -> {:.1}: {}",
            balances[0],
            balance_invariant,
            plans[0],
            plans[3],
            plans[3] > plans[0],
        ),
    );
    kv(
        out,
        "shape check (balance invariant, plans grow with depth)",
        &verdict,
    )?;
    Ok(verdict)
}
