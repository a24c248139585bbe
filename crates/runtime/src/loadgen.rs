//! The load-generator core: hammer a running `mind-node` cluster with
//! batched inserts and range queries over the control protocol, report
//! sustained ops/s plus p50/p99/p999 latency, and verify the final state
//! (ops conservation, fleet-wide audit cleanliness).
//!
//! Lives in the library (not the `mind-loadgen` binary) so the smoke
//! tests drive exactly the code path the binary ships.

use crate::config::ClusterSpec;
use crate::control::{ControlClient, ControlRequest, ControlResponse, NodeStats};
use crate::hist::LatencyHistogram;
use mind_audit::{Auditor, Snapshot};
use mind_core::Replication;
use mind_types::{AttrDef, AttrKind, IndexSchema, NodeId, Record};
use std::io;
use std::time::{Duration, Instant};

/// What to throw at the cluster.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// The cluster to target.
    pub cluster: ClusterSpec,
    /// Index tag to create and load.
    pub index: String,
    /// Total rows to insert.
    pub inserts: u64,
    /// Rows per control-protocol insert request (client-side batching).
    pub batch: usize,
    /// Range queries to issue after the burst.
    pub queries: u32,
    /// Replication policy for the index.
    pub replication: Replication,
    /// Even cut-tree depth for the index.
    pub depth: u8,
    /// Deadline for readiness, conservation, and the whole run.
    pub timeout: Duration,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            cluster: ClusterSpec { nodes: Vec::new() },
            index: "loadgen-flows".into(),
            inserts: 100_000,
            batch: 64,
            queries: 32,
            replication: Replication::None,
            depth: 8,
            timeout: Duration::from_secs(90),
        }
    }
}

/// What happened.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Rows acknowledged by the cluster.
    pub inserts_total: u64,
    /// Wall time of the insert phase.
    pub insert_wall: Duration,
    /// Sustained insert throughput, rows per second.
    pub insert_rate: f64,
    /// Per-request insert latency (µs); one sample per batched request.
    pub insert_hist: LatencyHistogram,
    /// Per-query latency (µs).
    pub query_hist: LatencyHistogram,
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
    /// Per node, in id order: insert frames by flush cause, rows the node
    /// re-split toward their owner (nonzero only on an unbalanced
    /// overlay), sub-query scan jobs and the regions they answered.
    pub per_node: Vec<NodeStats>,
}

impl LoadReport {
    /// The `key=value` lines the binary prints (stable, grep-friendly).
    pub fn render(&self) -> String {
        let (ip50, ip99, ip999) = self.insert_hist.percentiles();
        let (qp50, qp99, qp999) = self.query_hist.percentiles();
        let per_node: String = self
            .per_node
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let f = s.frames;
                format!(
                    "\nnode{k}_insert_frames=idle:{},ack:{},size:{},age:{}\
                     \nnode{k}_insert_rows_forwarded={}\
                     \nnode{k}_subquery_scans={}\nnode{k}_query_regions={}\
                     \nnode{k}_regions_per_scan={:.1}",
                    f.idle,
                    f.ack,
                    f.size,
                    f.age,
                    s.rows_forwarded,
                    s.subquery_scans,
                    s.query_regions,
                    s.query_regions as f64 / s.subquery_scans.max(1) as f64
                )
            })
            .collect();
        format!(
            "inserts_total={}\ninsert_wall_ms={}\ninsert_rate={:.0}\n\
             insert_p50_us={ip50}\ninsert_p99_us={ip99}\ninsert_p999_us={ip999}\n\
             queries_complete={}/{}\n\
             query_p50_us={qp50}\nquery_p99_us={qp99}\nquery_p999_us={qp999}\n\
             stored_total={}\nconserved={}\naudit_clean={}\nsends_dropped={}{per_node}",
            self.inserts_total,
            self.insert_wall.as_millis(),
            self.insert_rate,
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
    let deadline = Instant::now() + opts.timeout;

    // Wait for every node to come up.
    let mut clients: Vec<ControlClient> = Vec::with_capacity(n);
    for spec in &opts.cluster.nodes {
        clients.push(ControlClient::connect_ready(
            spec.control_addr,
            opts.timeout,
        )?);
    }

    // Create the index from node 0 and wait for the flood to land
    // everywhere.
    let schema = load_schema(&opts.index);
    match clients[0].call(&ControlRequest::CreateIndex {
        schema,
        depth: opts.depth,
        replication: opts.replication,
    })? {
        ControlResponse::Ok => {}
        r => return Err(other_err(format!("create_index failed: {r:?}"))),
    }
    'settle: loop {
        let mut all = true;
        for c in clients.iter_mut() {
            match c.call(&ControlRequest::Catalog)? {
                ControlResponse::Catalog(tags) => {
                    if !tags.contains(&opts.index) {
                        all = false;
                        break;
                    }
                }
                r => return Err(other_err(format!("catalog failed: {r:?}"))),
            }
        }
        if all {
            break 'settle;
        }
        if Instant::now() >= deadline {
            return Err(other_err("index flood never settled"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Insert phase: one client thread per node, rows striped round-robin,
    // `opts.batch` rows per request, per-request latency into a
    // per-thread histogram (merged after).
    let insert_start = Instant::now();
    let mut insert_hist = LatencyHistogram::new();
    let mut inserts_total = 0u64;
    let results: Vec<io::Result<(LatencyHistogram, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let spec = opts.cluster.nodes[t];
                let index = opts.index.clone();
                let inserts = opts.inserts;
                let batch = opts.batch.max(1) as u64;
                scope.spawn(move || {
                    let mut client =
                        ControlClient::connect(spec.control_addr, Duration::from_secs(5))?;
                    let mut hist = LatencyHistogram::new();
                    let mut sent = 0u64;
                    // Thread t owns rows with i % n == t, in batches.
                    let mut i = t as u64;
                    while i < inserts {
                        let mut rows = Vec::with_capacity(batch as usize);
                        let mut j = i;
                        while j < inserts && (rows.len() as u64) < batch {
                            rows.push(row(j));
                            j += n as u64;
                        }
                        let count = rows.len() as u64;
                        let t0 = Instant::now();
                        match client.call(&ControlRequest::Insert {
                            index: index.clone(),
                            rows,
                        })? {
                            ControlResponse::Ok => {}
                            r => {
                                return Err(other_err(format!("insert failed: {r:?}")));
                            }
                        }
                        hist.record(t0.elapsed().as_micros() as u64);
                        sent += count;
                        i = j;
                    }
                    Ok((hist, sent))
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
        let (hist, sent) = r?;
        insert_hist.merge(&hist);
        inserts_total += sent;
    }
    let insert_wall = insert_start.elapsed();
    let insert_rate = inserts_total as f64 / insert_wall.as_secs_f64().max(1e-9);

    // Query phase: timestamp slices, round-robin over nodes.
    let mut query_hist = LatencyHistogram::new();
    let mut queries_complete = 0u32;
    for q in 0..opts.queries {
        let c = &mut clients[q as usize % n];
        let t0_ts = (q as u64 * 2_048) % 80_000;
        let t0 = Instant::now();
        match c.call(&ControlRequest::Query {
            index: opts.index.clone(),
            lo: vec![0, t0_ts, 0],
            hi: vec![(1 << 20) - 1, t0_ts + 4_096, (1 << 20) - 1],
        })? {
            ControlResponse::Query(outcome) => {
                query_hist.record(t0.elapsed().as_micros() as u64);
                if outcome.complete {
                    queries_complete += 1;
                }
            }
            r => return Err(other_err(format!("query failed: {r:?}"))),
        }
    }

    // Conservation: every acked row is stored exactly once (primaries).
    let mut stored_total;
    let conserved = loop {
        stored_total = 0;
        for c in clients.iter_mut() {
            match c.call(&ControlRequest::PrimaryRows {
                index: opts.index.clone(),
            })? {
                ControlResponse::Count(k) => stored_total += k,
                r => return Err(other_err(format!("rows failed: {r:?}"))),
            }
        }
        if stored_total == inserts_total {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(50));
    };

    // Fleet-wide audit: assemble per-node snapshots and run the settled
    // invariant catalog.
    let mut nodes = Vec::with_capacity(n);
    for (k, c) in clients.iter_mut().enumerate() {
        match c.call(&ControlRequest::Snapshot)? {
            ControlResponse::Snapshot(s) => {
                debug_assert_eq!(s.id, NodeId(k as u32));
                nodes.push(s);
            }
            r => return Err(other_err(format!("snapshot failed: {r:?}"))),
        }
    }
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
        insert_wall,
        insert_rate,
        insert_hist,
        query_hist,
        queries_complete,
        queries_total: opts.queries,
        stored_total,
        conserved,
        audit_clean,
        sends_dropped,
        per_node,
    })
}

/// Sends a clean shutdown to every node in the spec (best effort).
pub fn shutdown_cluster(cluster: &ClusterSpec) {
    for spec in &cluster.nodes {
        if let Ok(mut c) = ControlClient::connect(spec.control_addr, Duration::from_secs(2)) {
            let _ = c.call(&ControlRequest::Shutdown);
        }
    }
}
