//! The load-generator core: drive a running `mind-node` cluster with
//! batched inserts and range queries over the control protocol, then
//! verify the final state (ops conservation, complete queries, fleet-wide
//! audit cleanliness). It times nothing: what the socket plane costs is
//! `BENCHMARK.json`'s to measure.
//!
//! Lives in the library (not the `mind-loadgen` binary) so the smoke
//! tests drive exactly the code path the binary ships.

use crate::config::ClusterSpec;
use crate::control::{ControlClient, ControlRequest, ControlResponse, NodeStats};
use mind_audit::{Auditor, NodeSnapshot, Snapshot};
use mind_core::Replication;
use mind_types::{AttrDef, AttrKind, IndexSchema, Record};
use std::io;
use std::time::{Duration, Instant};

/// Index tag the load creates and fills.
const INDEX: &str = "loadgen-flows";
/// Even cut-tree depth of that index.
const DEPTH: u8 = 8;
/// Rows per control-protocol insert request (client-side batching).
const BATCH: usize = 64;
/// Range queries issued after the inserts.
const QUERIES: u32 = 16;
/// Deadline for readiness, conservation, and the whole run.
const TIMEOUT: Duration = Duration::from_secs(90);

/// What to throw at the cluster.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// The cluster to target.
    pub cluster: ClusterSpec,
    /// Total rows to insert.
    pub inserts: u64,
}

/// What happened.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Rows acknowledged by the cluster.
    pub inserts_total: u64,
    /// Queries that completed (full recall within deadline).
    pub queries_complete: u32,
    /// Queries issued.
    pub queries_total: u32,
    /// Rows stored as primaries, summed over nodes, at the end.
    pub stored_total: u64,
    /// `stored_total == inserts_total` within the deadline.
    pub conserved: bool,
    /// The assembled fleet snapshot passed the settled invariant catalog.
    pub audit_clean: bool,
    /// Transport sends dropped, summed over nodes.
    pub sends_dropped: u64,
    /// Per node, in id order: rows inserted there, the insert frames
    /// that carried them by flush cause, rows the node re-split toward
    /// their owner (nonzero only on an unbalanced overlay), sub-query
    /// scan jobs and the regions they answered.
    pub per_node: Vec<NodeStats>,
}

impl LoadReport {
    /// The `key=value` lines the binary prints (stable, grep-friendly).
    pub fn render(&self) -> String {
        let per_node: String = self
            .per_node
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let f = s.frames;
                let frames = f.idle + f.ack + f.size + f.age;
                format!(
                    "\nnode{k}_insert_frames=idle:{},ack:{},size:{},age:{}\
                     \nnode{k}_rows_per_frame={:.1}\
                     \nnode{k}_insert_rows_forwarded={}\
                     \nnode{k}_subquery_scans={}\nnode{k}_query_regions={}\
                     \nnode{k}_regions_per_scan={:.1}",
                    f.idle,
                    f.ack,
                    f.size,
                    f.age,
                    s.rows_originated as f64 / frames.max(1) as f64,
                    s.rows_forwarded,
                    s.subquery_scans,
                    s.query_regions,
                    s.query_regions as f64 / s.subquery_scans.max(1) as f64
                )
            })
            .collect();
        format!(
            "inserts_total={}\nqueries_complete={}/{}\n\
             stored_total={}\nconserved={}\naudit_clean={}\nsends_dropped={}{per_node}",
            self.inserts_total,
            self.queries_complete,
            self.queries_total,
            self.stored_total,
            self.conserved,
            self.audit_clean,
            self.sends_dropped,
        )
    }
}

/// The schema the load generator creates: three numeric attributes in
/// the shape of the paper's aggregated flow records.
pub fn load_schema(index: &str) -> IndexSchema {
    IndexSchema::new(
        index,
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, (1 << 20) - 1),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_399),
            AttrDef::new("size", AttrKind::Octets, 0, (1 << 20) - 1),
        ],
        3,
    )
}

/// Deterministic row `i` of the load (Weyl-style scatter over the cube).
fn row(i: u64) -> Record {
    Record::new(vec![
        (i.wrapping_mul(2_654_435_761)) % (1 << 20),
        (i.wrapping_mul(13)) % 86_400,
        (i.wrapping_mul(31)) % (1 << 20),
    ])
}

fn other_err(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// Runs the load against an already-started cluster.
pub fn run(opts: &LoadOptions) -> io::Result<LoadReport> {
    let n = opts.cluster.len();
    if n == 0 {
        return Err(other_err("empty cluster spec"));
    }
    let deadline = Instant::now() + TIMEOUT;

    // Wait for every node to come up.
    let mut clients: Vec<ControlClient> = Vec::with_capacity(n);
    for spec in &opts.cluster.nodes {
        clients.push(ControlClient::connect_ready(spec.control_addr, TIMEOUT)?);
    }

    // Create the index from node 0 and wait for the flood to land
    // everywhere.
    match clients[0].call(&ControlRequest::CreateIndex {
        schema: load_schema(INDEX),
        depth: DEPTH,
        replication: Replication::None,
    })? {
        ControlResponse::Ok => {}
        r => return Err(other_err(format!("create_index failed: {r:?}"))),
    }
    while !snapshots(&mut clients)?
        .iter()
        .all(|s| s.indexes.contains_key(INDEX))
    {
        if Instant::now() >= deadline {
            return Err(other_err("index flood never settled"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Insert phase: one client thread per node, rows striped round-robin,
    // `BATCH` rows per request.
    let mut inserts_total = 0u64;
    let results: Vec<io::Result<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let spec = opts.cluster.nodes[t];
                let inserts = opts.inserts;
                scope.spawn(move || {
                    let mut client =
                        ControlClient::connect(spec.control_addr, Duration::from_secs(5))?;
                    let mut sent = 0u64;
                    // Thread t owns rows with i % n == t, in batches.
                    let mut i = t as u64;
                    while i < inserts {
                        let mut rows = Vec::with_capacity(BATCH);
                        let mut j = i;
                        while j < inserts && rows.len() < BATCH {
                            rows.push(row(j));
                            j += n as u64;
                        }
                        let count = rows.len() as u64;
                        match client.call(&ControlRequest::Insert {
                            index: INDEX.into(),
                            rows,
                        })? {
                            ControlResponse::Ok => {}
                            r => {
                                return Err(other_err(format!("insert failed: {r:?}")));
                            }
                        }
                        sent += count;
                        i = j;
                    }
                    Ok(sent)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(other_err("insert thread panicked")))
            })
            .collect()
    });
    for r in results {
        inserts_total += r?;
    }

    // Query phase: timestamp slices, round-robin over nodes.
    let mut queries_complete = 0u32;
    for q in 0..QUERIES {
        let c = &mut clients[q as usize % n];
        let t0_ts = (q as u64 * 2_048) % 80_000;
        match c.call(&ControlRequest::Query {
            index: INDEX.into(),
            lo: vec![0, t0_ts, 0],
            hi: vec![(1 << 20) - 1, t0_ts + 4_096, (1 << 20) - 1],
        })? {
            ControlResponse::Query(outcome) => {
                if outcome.complete {
                    queries_complete += 1;
                }
            }
            r => return Err(other_err(format!("query failed: {r:?}"))),
        }
    }

    // Conservation: every acked row is stored exactly once (primaries).
    let mut stored_total;
    let mut nodes;
    let conserved = loop {
        nodes = snapshots(&mut clients)?;
        stored_total = nodes.iter().map(|s| s.primary_rows(INDEX)).sum();
        if stored_total == inserts_total {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(50));
    };

    // Fleet-wide audit: the settled invariant catalog over the last
    // per-node snapshots.
    let snapshot = Snapshot { now: 0, nodes };
    let audit_clean = Auditor::settled().audit(&snapshot).is_clean();

    // Transport drop counts, summed; protocol counters, per node.
    let mut sends_dropped = 0u64;
    let mut per_node = Vec::with_capacity(n);
    for c in clients.iter_mut() {
        match c.call(&ControlRequest::HostStats)? {
            ControlResponse::HostStats(s) => sends_dropped += s.sends_dropped,
            r => return Err(other_err(format!("stats failed: {r:?}"))),
        }
        match c.call(&ControlRequest::NodeStats)? {
            ControlResponse::NodeStats(s) => per_node.push(s),
            r => return Err(other_err(format!("node stats failed: {r:?}"))),
        }
    }

    Ok(LoadReport {
        inserts_total,
        queries_complete,
        queries_total: QUERIES,
        stored_total,
        conserved,
        audit_clean,
        sends_dropped,
        per_node,
    })
}

/// Every node's audited state, in client order.
fn snapshots(clients: &mut [ControlClient]) -> io::Result<Vec<NodeSnapshot>> {
    clients
        .iter_mut()
        .map(|c| match c.call(&ControlRequest::Snapshot)? {
            ControlResponse::Snapshot(s) => Ok(s),
            r => Err(other_err(format!("snapshot failed: {r:?}"))),
        })
        .collect()
}

/// Sends a clean shutdown to every node in the spec (best effort).
pub fn shutdown_cluster(cluster: &ClusterSpec) {
    for spec in &cluster.nodes {
        if let Ok(mut c) = ControlClient::connect(spec.control_addr, Duration::from_secs(2)) {
            let _ = c.call(&ControlRequest::Shutdown);
        }
    }
}
