//! Figure 16: data availability under node failure, by replication level.
//!
//! The paper deployed 102 MIND instances on a local cluster, inserted
//! three days of Index-1 records at replication 0, 1, and "full" (all
//! overlay neighbors), then killed random subsets of nodes and measured
//! the fraction of successfully completed queries:
//!
//! * no replication — success declines roughly linearly with failures,
//! * one replica — no loss up to ~15 % failures,
//! * full replication — survives > 50 % failures.
//!
//! Success here is strict: the query completes before its deadline AND
//! returns exactly the ground-truth record multiset.

use super::{io, Scale, Verdict, Write};
use crate::harness::{
    answers_match, oracle_answer, paper_mind_config, run_seeds_parallel, ExperimentScale, IndexKind,
};
use crate::report::header;
use mind_core::{ClusterConfig, MindCluster, Replication};
use mind_histogram::CutTree;
use mind_netsim::SimConfig;
use mind_types::node::{MILLIS, SECONDS};
use mind_types::{NodeId, Record};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{Rng, SeedableRng};

const N: usize = 102;

/// Builds a fresh cluster, loads it with records, kills `kill` random
/// nodes, and returns the fraction of exactly-correct queries. `loss` is
/// a uniform message loss rate switched on once the index is installed
/// (the reliable-delivery layer must absorb it).
fn run_point(
    replication: Replication,
    kill: usize,
    seed: u64,
    scale: &ExperimentScale,
    loss: f64,
) -> f64 {
    let kind = IndexKind::Fanout;
    let ts_bound = 86_400;
    let schema = kind.schema(ts_bound);
    // The paper used a local cluster for this experiment: low latency,
    // healthy hosts.
    let mut cfg = ClusterConfig::planetlab(N, seed);
    for s in &mut cfg.sites {
        s.load_factor = 1.0;
    }
    cfg.sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    cfg.sim.latency.fixed = MILLIS;
    cfg.mind = paper_mind_config();
    cfg.mind.query_deadline = 30 * SECONDS;
    let mut cluster = MindCluster::new(cfg);

    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<Record> = (0..(1200.0 * scale.volume) as usize)
        .map(|i| {
            let u: f64 = rng.random_range(0.0f64..1.0).max(1e-9);
            let rank = ((u.powf(-0.8) - 1.0) * 8.0) as u64 % 512;
            let prefix = (((rank / 64) % 8) * 8192 + (rank % 64) * 128) << 16;
            Record::new(vec![
                prefix,
                (i as u64 * 7) % 86_400,
                16 + rng.random_range(0..4000u64),
                rng.random_range(0..1u64 << 32),
                (i % N) as u64,
            ])
        })
        .collect();
    let pts: Vec<Vec<u64>> = records.iter().map(|r| r.point(3).to_vec()).collect();
    let refs: Vec<&[u64]> = pts.iter().map(|p| p.as_slice()).collect();
    let cuts = CutTree::balanced_from_points(schema.bounds(), 12, &refs);
    cluster
        .create_index(NodeId(0), schema.clone(), cuts, replication)
        .unwrap();
    cluster.run_for(20 * SECONDS);
    if loss > 0.0 {
        *cluster.world_mut().fault_plan_mut() = mind_netsim::FaultPlan::lossy(loss);
    }

    let mut oracle = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        oracle.push((kind, rec.clone().conform(&schema).unwrap()));
        cluster
            .insert(NodeId((i % N) as u32), kind.tag(), rec.clone())
            .unwrap();
        if i % 40 == 0 {
            cluster.run_for(SECONDS);
        }
    }
    cluster.run_for(120 * SECONDS);

    // Kill the victims, let takeover settle.
    let mut ids: Vec<u32> = (0..N as u32).collect();
    ids.shuffle(&mut rng);
    for &v in ids.iter().take(kill) {
        cluster.crash(NodeId(v));
    }
    cluster.run_for(60 * SECONDS);

    // Queries from random *live* nodes. Each query circumscribes a
    // randomly chosen inserted record (the paper's drill-down usage): it
    // succeeds only if it completes and returns exactly the ground-truth
    // records — so data lost with its node shows up as failure, and a
    // query typically touches the one region holding its target.
    let live: Vec<u32> = (0..N as u32)
        .filter(|&k| cluster.world().is_alive(NodeId(k)))
        .collect();
    let queries = 40usize;
    let mut good = 0usize;
    for _ in 0..queries {
        let origin = NodeId(*live.as_slice().choose(&mut rng).unwrap());
        let (_, target) = oracle.as_slice().choose(&mut rng).unwrap();
        let p = target.point(3);
        let rect = mind_types::HyperRect::new(
            vec![
                p[0].saturating_sub(1 << 20),
                p[1].saturating_sub(60),
                p[2].saturating_sub(50),
            ],
            vec![p[0] + (1 << 20), p[1] + 60, (p[2] + 50).min(5024)],
        );
        let want = oracle_answer(&oracle, kind, &rect);
        let outcome = cluster
            .query_and_wait(origin, kind.tag(), rect, vec![])
            .unwrap();
        if outcome.complete && answers_match(outcome.records, want) {
            good += 1;
        }
    }
    good as f64 / queries as f64
}

/// Runs one failure sweep under uniform message loss `loss` and prints
/// its table: a `(failed %, [r0, r1, full])` row per entry of `fractions`.
fn sweep(
    out: &mut dyn Write,
    fractions: &[usize],
    scale: &ExperimentScale,
    loss: f64,
) -> io::Result<Vec<(usize, [f64; 3])>> {
    writeln!(
        out,
        "\n  {:>9} {:>14} {:>14} {:>14}",
        "failed %", "replication 0", "replication 1", "full"
    )?;
    // Every grid point is an independent world with its own pinned seed,
    // so the sweep fans out across cores; results come back in row order
    // and the printed table is byte-identical to a sequential run.
    let grid: Vec<(Replication, usize, u64)> = fractions
        .iter()
        .flat_map(|&pct| {
            let kill = N * pct / 100;
            [
                (Replication::None, kill, 160 + pct as u64),
                (Replication::Level(1), kill, 161 + pct as u64),
                (Replication::Full, kill, 162 + pct as u64),
            ]
        })
        .collect();
    let cells = run_seeds_parallel(&grid, |&(repl, kill, seed)| {
        run_point(repl, kill, seed, scale, loss)
    });
    let rows = fractions.iter().zip(cells.chunks(3));
    rows.map(|(&pct, c)| {
        writeln!(
            out,
            "  {pct:>8}% {:>14.2} {:>14.2} {:>14.2}",
            c[0], c[1], c[2]
        )?;
        Ok((pct, [c[0], c[1], c[2]]))
    })
    .collect()
}

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 16",
        "fraction of successful queries vs % failed nodes (102-node cluster)",
        "r=0 declines ~linearly; r=1 flat to ~15%; full flat past 50%",
    )?;
    let loss = scale.loss;
    let scale = scale.experiment(1);
    let rows = sweep(out, &[0, 5, 10, 15, 20, 30, 40, 50], &scale, 0.0)?;
    let at = |pct| rows.iter().find(|r| r.0 == pct).map_or([0.0; 3], |r| r.1);
    let ([_, r1_at_15, _], [r0_at_30, ..]) = (at(15), at(30));
    let [r0_at_50, r1_at_50, full_at_50] = at(50);
    writeln!(out)?;
    writeln!(
        out,
        "  shape check (paper: r1 lossless to ~15%, full past 50%, r0 ~linear):"
    )?;
    let verdict = Verdict::new(
        r1_at_15 >= 0.95
            && full_at_50 >= 0.8
            && r0_at_30 < 0.9
            && r0_at_50 < r1_at_50
            && r1_at_50 < full_at_50,
        format!(
            "r1@15%={r1_at_15:.2}  full@50%={full_at_50:.2}  r0@30%={r0_at_30:.2}  ordering@50%: {r0_at_50:.2} < {r1_at_50:.2} < {full_at_50:.2}"
        ),
    );
    writeln!(out, "    {verdict}")?;

    if let Some(loss) = loss {
        // Additional axis: the same failure sweep (reduced grid) with
        // uniform message loss active from the moment the index is up.
        // The zero-loss rows above are untouched; the reliable-delivery
        // layer (acks + retries + dedup) must keep the curves close.
        writeln!(
            out,
            "\n  --- additional series: uniform message loss {loss} ---"
        )?;
        sweep(out, &[0, 15, 30, 50], &scale, loss)?;
    }
    Ok(verdict)
}
