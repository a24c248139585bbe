//! Figure 17 (table): capturing real anomalies with MIND queries.
//!
//! Section 5 of the paper: an 11-node MIND overlay congruent to the
//! Abilene backbone, Index-1 and Index-2 built over ~25 minutes of
//! backbone traffic containing known anomalies (three alpha flows, two
//! DoS attacks, one port scan — ground truth from Lakhina et al.'s
//! off-line PCA analysis; here from injection). For each anomaly, a
//! circumscribing query is issued from every node:
//!
//! * MIND returns a small superset of the anomaly's records (perfect
//!   recall, tens of records),
//! * average response times are on the order of a second,
//! * the returned tuples identify the backbone routers on the DoS path.

use super::{io, Scale, Verdict, Write};
use crate::harness::{abilene_cluster, IndexKind, TrafficDriver};
use crate::report::{header, kv};
use mind_core::Replication;
use mind_histogram::CutTree;
use mind_traffic::anomaly::{section5_anomalies, AnomalyKind};
use mind_traffic::schemas::{FANOUT_BOUND, OCTETS_BOUND};
use mind_types::node::SECONDS;
use mind_types::NodeId;

const ABILENE_CODES: [&str; 11] = [
    "STTL", "SNVA", "LOSA", "DNVR", "KSCY", "HSTN", "CHIN", "IPLS", "ATLA", "WASH", "NYCM",
];

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 17",
        "anomaly capture on an 11-node Abilene-congruent overlay",
        "perfect recall, result sizes of tens of records, ~1-2 s responses",
    )?;
    let mut scale = scale.experiment(1);
    scale.volume *= 0.5; // 11-router feed, paper-scale minutes
    let trace_secs = 1500; // ~25 minutes
    let ts_bound = 1800;

    let mut driver = TrafficDriver::abilene_only(17, scale);
    driver.anomalies = section5_anomalies();
    let mut cluster = abilene_cluster(17);

    // Build both indices with cuts balanced on the trace's own period.
    for kind in [IndexKind::Fanout, IndexKind::Octets] {
        let schema = kind.schema(ts_bound);
        let mut pts: Vec<Vec<u64>> = Vec::new();
        let mut w = 0;
        while w < trace_secs {
            for r in 0..11u16 {
                for agg in driver.window_aggregates(0, w, r) {
                    if let Some(rec) = kind.record(&agg) {
                        let rec = rec.conform(&schema).unwrap();
                        pts.push(rec.point(3).to_vec());
                    }
                }
            }
            w += 120;
        }
        let refs: Vec<&[u64]> = pts.iter().map(|p| p.as_slice()).collect();
        let cuts = CutTree::balanced_from_points(schema.bounds(), 9, &refs);
        cluster
            .create_index(NodeId(0), schema, cuts, Replication::Level(1))
            .unwrap();
        cluster.run_for(10 * SECONDS);
    }

    // Stream the 25-minute trace (with anomalies) into both indices.
    let mut oracle = Vec::new();
    let inserted = driver.drive(
        &mut cluster,
        &[IndexKind::Fanout, IndexKind::Octets],
        0,
        0,
        trace_secs,
        ts_bound,
        Some(&mut oracle),
    );
    cluster.run_for(60 * SECONDS);
    kv(out, "records inserted (both indices)", inserted)?;

    writeln!(
        out,
        "\n  {:<22} {:>11} {:>11} {:>14}   ground truth kind",
        "anomaly", "result size", "actual size", "avg resp (s)"
    )?;
    let mut all_recalled = true;
    let mut response_times = Vec::new();
    for a in &driver.anomalies.clone() {
        let (kind, rect) = match a.kind {
            AnomalyKind::AlphaFlow { .. } => (
                IndexKind::Octets,
                a.index2_query(OCTETS_BOUND / 2, OCTETS_BOUND),
            ),
            _ => (IndexKind::Fanout, a.index1_query(1500, FANOUT_BOUND)),
        };
        // Issue the circumscribing query from every node; average the
        // response times (the paper's methodology).
        let mut result_size = 0usize;
        let mut truth_size = 0usize;
        let mut lat_sum = 0u64;
        let mut routers_seen: Vec<String> = Vec::new();
        for origin in 0..11u32 {
            let outcome = cluster
                .query_and_wait(NodeId(origin), kind.tag(), rect.clone(), vec![])
                .unwrap();
            assert!(outcome.complete, "anomaly query must complete");
            lat_sum += outcome.latency.unwrap_or(0);
            if origin == 0 {
                result_size = outcome.records.len();
                // Ground truth: anomaly-generated records within the rect.
                let mut rs: Vec<u16> = outcome
                    .records
                    .iter()
                    .filter(|r| a.matches(r.value(0) as u32, r.value(3) as u32, r.value(1)))
                    .map(|r| r.value(4) as u16)
                    .collect();
                truth_size = rs.len();
                rs.sort_unstable();
                rs.dedup();
                routers_seen = rs
                    .iter()
                    .map(|&r| ABILENE_CODES[r as usize % 11].to_string())
                    .collect();
            }
        }
        let avg = lat_sum as f64 / 11.0 / 1e6;
        response_times.push(avg);
        // Recall: every window of the anomaly that produced an aggregate
        // above the index filter must appear. Verify via oracle.
        let truth_in_oracle = oracle
            .iter()
            .filter(|(k, r)| {
                *k == kind
                    && rect.contains_point(r.point(3))
                    && a.matches(r.value(0) as u32, r.value(3) as u32, r.value(1))
            })
            .count();
        if truth_size < truth_in_oracle {
            all_recalled = false;
        }
        let label = match a.kind {
            AnomalyKind::AlphaFlow { .. } => "alpha flow",
            AnomalyKind::Dos { .. } => "DoS",
            AnomalyKind::PortScan { .. } => "port scan",
        };
        writeln!(
            out,
            "  t={:<5} {label:<14} {result_size:>11} {truth_size:>11} {avg:>14.2}   {}",
            a.start,
            if matches!(a.kind, AnomalyKind::Dos { .. }) {
                format!("path: {}", routers_seen.join(","))
            } else {
                String::new()
            }
        )?;
    }
    let worst = response_times.iter().cloned().fold(0.0f64, f64::max);
    writeln!(out)?;
    let verdict = Verdict::new(
        all_recalled && worst < 10.0,
        format!(
            "recall={} worst avg resp={worst:.2}s",
            if all_recalled {
                "perfect"
            } else {
                "INCOMPLETE"
            }
        ),
    );
    kv(
        out,
        "shape check (perfect recall, ~seconds responses)",
        &verdict,
    )?;
    Ok(verdict)
}
