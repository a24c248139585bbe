//! The socket workloads: four `MindNode`s on a `TcpFleet` in this
//! process, driven through `MindCluster`'s public API by one loader
//! thread (this one).
//!
//! Nothing here is timed with the harness's clock. Rows carry the node's
//! own `(completed_at, latency)` stamp from `NodeMetrics::insert_latencies`
//! and queries the tracker's `issued_at`/`completed_at` (what
//! `QueryOutcome::latency` reports), all on the fleet's shared epoch
//! clock; rates are taken over equal-work slices of those stamps. The
//! harness's polling only paces the loop.

use crate::gen::{Checksum, Oracle, QClass, Query, Row, INDEX};
use crate::probe::Probe;
use crate::stats::Timetable;
use mind_core::{MindCluster, MindConfig, MindNode, QueryTracker, Replication};
use mind_histogram::CutTree;
use mind_net::{HostStatsSnapshot, TcpFleet};
use mind_overlay::{OverlayConfig, StaticTopology};
use mind_store::{DacCostModel, StoreKind};
use mind_types::node::{SimTime, MILLIS};
use mind_types::{ClusterDriver, NodeId, Record};
use std::collections::VecDeque;
use std::time::Duration;

/// Nodes in the deployment.
pub const NODES: usize = 4;
/// Rows handed to one origin per loader call.
pub const LOADER_BATCH: usize = 256;
/// Closed-loop ingest keeps at most this many rows issued but not durable.
pub const INGEST_WINDOW: usize = 8192;
/// Closed-loop query clients.
pub const QUERY_CLIENTS: usize = 8;
/// Condition-poll quantum: the harness never waits longer than this
/// before looking again.
const POLL: Duration = Duration::from_micros(200);
/// A step that makes no progress for this long fails the run.
const STALL: Duration = Duration::from_secs(30);
/// An open-loop answer later than this (from its due time) is counted in
/// `tail.late_queries`.
pub const MIXED_LATE_US: u64 = 100_000;

/// The fleet behind the cluster API.
pub type Fleet = MindCluster<TcpFleet<MindNode>>;

/// The pinned node configuration: `mind-node`'s defaults, the k-d store
/// named explicitly (no `MIND_*` variable is read), no replication, and
/// the modelled MySQL timer zeroed so the store's real cost is what runs.
pub fn mind_config() -> MindConfig {
    MindConfig {
        dac_cost: DacCostModel {
            batch_overhead: 0,
            per_insert: 0,
            per_query: 0,
            per_result: 0,
        },
        store_kind: StoreKind::KdTree,
        retry_timeout: 500 * MILLIS,
        insert_batch_max: 64,
        insert_batch_age: 5 * MILLIS,
        ..MindConfig::default()
    }
}

/// The pinned overlay configuration (`mind-node`'s 500 ms heartbeat).
pub fn overlay_config() -> OverlayConfig {
    OverlayConfig {
        hb_interval: 500 * MILLIS,
        ..OverlayConfig::default()
    }
}

/// One line naming every pinned knob, for the header.
pub fn config_line() -> String {
    let m = mind_config();
    format!(
        "nodes={NODES} loader_threads=1 store=kdtree replication=none dac_cost=0 \
         insert_batch_max={} insert_batch_age_ms={} retry_ms={} heartbeat_ms={} \
         loader_batch={LOADER_BATCH} ingest_window={INGEST_WINDOW} query_clients={QUERY_CLIENTS}",
        m.insert_batch_max,
        m.insert_batch_age / MILLIS,
        m.retry_timeout / MILLIS,
        overlay_config().hb_interval / MILLIS,
    )
}

/// The logic of node `k` (shared with the traced run, which steps the same
/// logics on its own driver).
pub fn node_logic(k: usize, topo: &StaticTopology) -> MindNode {
    MindNode::new_static(
        NodeId(k as u32),
        topo.code(k),
        topo.neighbor_entries(k),
        overlay_config(),
        mind_config(),
    )
}

/// The balanced four-node overlay.
pub fn topology() -> StaticTopology {
    StaticTopology::balanced(NODES)
}

/// Sleeps in [`POLL`] steps until `cond` holds; an error after [`STALL`].
fn wait_for(what: &str, probe: &mut Probe, mut cond: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = crate::wall() + STALL;
    while !cond() {
        if crate::wall() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        probe.tick();
        std::thread::sleep(POLL);
    }
    Ok(())
}

/// Spawns the fleet and creates the index on every node.
pub fn deploy(cuts: &CutTree, probe: &mut Probe) -> Result<Fleet, String> {
    let topo = topology();
    let fleet = TcpFleet::spawn(NODES, |id| node_logic(id.0 as usize, &topo))
        .map_err(|e| format!("fleet spawn: {e}"))?;
    let mut cluster = MindCluster::from_parts(fleet, topo);
    cluster
        .create_index(
            NodeId(0),
            crate::gen::schema(),
            cuts.clone(),
            Replication::None,
        )
        .map_err(|e| format!("create_index: {e}"))?;
    wait_for("the create_index flood", probe, || {
        (0..NODES as u32).all(|k| cluster.read_node(NodeId(k), |n| n.index_state(INDEX).is_some()))
    })?;
    Ok(cluster)
}

/// Stops every host thread and waits for it.
pub fn teardown(cluster: Fleet) {
    drop(cluster.into_driver().shutdown());
}

/// Transport counters summed over the fleet.
pub fn host_stats(cluster: &Fleet) -> HostStatsSnapshot {
    let mut sum = HostStatsSnapshot::default();
    for k in 0..NODES as u32 {
        if let Some(s) = cluster.driver().host_stats(NodeId(k)) {
            sum.msgs_sent += s.msgs_sent;
            sum.msgs_received += s.msgs_received;
            sum.sends_dropped += s.sends_dropped;
            sum.reconnects += s.reconnects;
            sum.inbound_throttled += s.inbound_throttled;
        }
    }
    sum
}

/// Hands `rows[range]` to `origin` in one call on its driver thread,
/// stamped `now` (the node's clock, or a due time for the open loop).
fn push_rows(
    cluster: &mut Fleet,
    origin: NodeId,
    rows: &[Row],
    first_seq: usize,
    stamp: Option<SimTime>,
) -> Result<(), String> {
    let records: Vec<Record> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| r.record((first_seq + i) as u64))
        .collect();
    cluster
        .driver_mut()
        .with_node(origin, move |n, now, out| {
            for r in records {
                n.insert(stamp.unwrap_or(now), INDEX, r, out)?;
            }
            Ok(())
        })
        .map_err(|e: mind_types::MindError| format!("insert: {e}"))
}

/// Closed-loop ingest of `rows[from..to]`: loader batches go round-robin
/// to the four origins while at most [`INGEST_WINDOW`] rows are issued
/// but not durable; returns once all of them are durable.
pub fn ingest_closed(
    cluster: &mut Fleet,
    rows: &[Row],
    from: usize,
    to: usize,
    probe: &mut Probe,
) -> Result<(), String> {
    let mut issued = from;
    let mut durable = cluster.total_primary_rows(INDEX) as usize;
    let mut batch = from / LOADER_BATCH;
    let mut progress = crate::wall();
    while durable < to {
        probe.tick();
        if issued < to && issued - durable.min(issued) < INGEST_WINDOW {
            let end = (issued + LOADER_BATCH).min(to);
            let origin = NodeId((batch % NODES) as u32);
            push_rows(cluster, origin, &rows[issued..end], issued, None)?;
            issued = end;
            batch += 1;
            continue;
        }
        let now_durable = cluster.total_primary_rows(INDEX) as usize;
        if now_durable > durable {
            durable = now_durable;
            progress = crate::wall();
        } else {
            if progress.elapsed() > STALL {
                return Err(format!("ingest stalled at {durable} of {to} rows durable"));
            }
            std::thread::sleep(POLL);
        }
    }
    if durable != to {
        return Err(format!("{durable} rows durable, {to} issued"));
    }
    Ok(())
}

/// Takes every node's insert stamps `(completed_at, latency)` out of its
/// metrics, leaving them empty for the next phase.
pub fn take_insert_stamps(cluster: &mut Fleet) -> Vec<(SimTime, SimTime)> {
    let mut all = Vec::new();
    for k in 0..NODES as u32 {
        all.extend(cluster.driver_mut().with_node(NodeId(k), |n, _now, _out| {
            std::mem::take(&mut n.metrics.insert_latencies)
        }));
    }
    all
}

/// One finished query, as its origin's tracker stamped it.
#[derive(Debug, Clone, Copy)]
pub struct QueryDone {
    /// Index into the query list.
    pub idx: usize,
    /// Its class.
    pub class: QClass,
    /// Completion time on the fleet clock (0 when it never completed).
    pub completed_at: SimTime,
    /// `completed_at - issued_at`: what `QueryOutcome::latency` reports.
    pub latency: SimTime,
    /// Every planned region answered before the deadline.
    pub complete: bool,
    /// Checksum of the rows returned with sequence numbers below the
    /// oracle's horizon (all of them, outside the mixed workload).
    pub sum: Checksum,
    /// Rows returned at or above the horizon that were not genuine
    /// (wrong values, outside the range, duplicated, or never issued).
    pub bogus: u64,
    /// Distinct responding nodes.
    pub nodes: usize,
}

struct Outstanding {
    idx: usize,
    origin: NodeId,
    qid: u64,
}

/// Issues query `idx` from `origin`, stamped `stamp` (or the node's now).
fn issue(
    cluster: &mut Fleet,
    queries: &[Query],
    idx: usize,
    origin: NodeId,
    stamp: Option<SimTime>,
) -> Result<Outstanding, String> {
    let rect = queries[idx].rect.clone();
    let qid = cluster
        .driver_mut()
        .with_node(origin, move |n, now, out| {
            n.query(stamp.unwrap_or(now), INDEX, rect, vec![], out)
        })
        .map_err(|e| format!("query: {e}"))?;
    Ok(Outstanding { idx, origin, qid })
}

/// Takes a finished query's tracker off its origin (so finished answers
/// do not pile up in the node), or `None` while it is still running.
fn reap(cluster: &mut Fleet, o: &Outstanding) -> Option<QueryTracker> {
    let qid = o.qid;
    cluster
        .driver_mut()
        .with_node(o.origin, move |n, _now, _out| {
            if n.queries.get(&qid).is_some_and(|t| t.done()) {
                n.queries.remove(&qid)
            } else {
                None
            }
        })
}

/// Checks an answer inline: the checksum of its rows below `horizon`,
/// and how many rows at or above it are not exactly a row issued so far
/// inside the query's range (or appear twice).
fn digest(
    t: &QueryTracker,
    q: &Query,
    idx: usize,
    rows: &[Row],
    horizon: usize,
    issued: usize,
) -> QueryDone {
    let mut sum = Checksum::default();
    let mut live: Vec<u64> = Vec::new();
    let mut bogus = 0;
    for r in &t.records {
        let v = r.values();
        let seq = v[3] as usize;
        if seq < horizon {
            sum.add(v[3], &v[..3]);
        } else if seq < issued && rows[seq].point()[..] == v[..3] && q.rect.contains_point(&v[..3])
        {
            live.push(v[3]);
        } else {
            bogus += 1;
        }
    }
    live.sort_unstable();
    bogus += live.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    QueryDone {
        idx,
        class: q.class,
        completed_at: t.completed_at.unwrap_or(0),
        latency: t.completed_at.map_or(0, |c| c.saturating_sub(t.issued_at)),
        complete: t.completed_at.is_some(),
        sum,
        bogus,
        nodes: t.responders.len(),
    }
}

/// Closed-loop queries: [`QUERY_CLIENTS`] clients, each issuing its next
/// query (origins round-robin) as soon as its previous one is answered.
pub fn query_closed(
    cluster: &mut Fleet,
    queries: &[Query],
    rows: &[Row],
    horizon: usize,
    probe: &mut Probe,
) -> Result<Vec<QueryDone>, String> {
    let mut done = Vec::with_capacity(queries.len());
    let mut slots: Vec<Option<Outstanding>> = (0..QUERY_CLIENTS).map(|_| None).collect();
    let mut next = 0;
    let mut progress = crate::wall();
    while done.len() < queries.len() {
        let mut moved = false;
        for slot in slots.iter_mut() {
            if let Some(o) = slot {
                if let Some(t) = reap(cluster, o) {
                    done.push(digest(&t, &queries[o.idx], o.idx, rows, horizon, horizon));
                    *slot = None;
                    moved = true;
                }
            }
            if slot.is_none() && next < queries.len() {
                let origin = NodeId((next % NODES) as u32);
                *slot = Some(issue(cluster, queries, next, origin, None)?);
                next += 1;
                moved = true;
            }
        }
        probe.tick();
        if moved {
            progress = crate::wall();
        } else {
            if progress.elapsed() > STALL {
                return Err(format!(
                    "queries stalled at {} of {}",
                    done.len(),
                    queries.len()
                ));
            }
            std::thread::sleep(POLL / 2);
        }
    }
    Ok(done)
}

/// Compares finished queries with the oracle after the timed phase, over
/// the rows below `horizon`: `(incomplete, wrong)` counts.
pub fn check_queries(
    done: &[QueryDone],
    queries: &[Query],
    oracle: &Oracle,
    horizon: usize,
) -> (u64, u64) {
    let mut incomplete = 0;
    let mut wrong = 0;
    for d in done {
        if !d.complete {
            incomplete += 1;
        } else if d.bogus > 0 || d.sum != oracle.answer(&queries[d.idx].rect, horizon) {
            wrong += 1;
        }
    }
    (incomplete, wrong)
}

/// What the open-loop phase measured.
pub struct MixedRun {
    /// Finished queries.
    pub done: Vec<QueryDone>,
    /// How late the generator sent each action, µs.
    pub lateness: Vec<u64>,
    /// Fleet-clock time the timetable started.
    pub started_at: SimTime,
}

/// Open loop on a timetable: `rows[from..to]` in batches of `row_batch`
/// at `rows_per_s`, and `queries` at `queries_per_s`, all from this one
/// thread. Every request is stamped with the time it was *due*, so the
/// nodes' own latency stamps count any generator stall; how late the
/// generator ran is returned beside them.
#[allow(clippy::too_many_arguments)]
pub fn mixed_open(
    cluster: &mut Fleet,
    rows: &[Row],
    from: usize,
    to: usize,
    row_batch: usize,
    rows_per_s: f64,
    queries: &[Query],
    queries_per_s: f64,
    probe: &mut Probe,
) -> Result<MixedRun, String> {
    let start = cluster.now() + 2 * MILLIS;
    let batches = (to - from).div_ceil(row_batch) as u64;
    let mut row_tt = Timetable::new(start, row_batch as f64 * 1e6 / rows_per_s, batches);
    let mut query_tt = Timetable::new(start, 1e6 / queries_per_s, queries.len() as u64);
    let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
    let mut done = Vec::with_capacity(queries.len());
    let mut lateness = Vec::with_capacity(batches as usize + queries.len());
    let mut issued = from;
    let mut progress = crate::wall();
    loop {
        let mut moved = false;
        while let Some((k, due, late)) = row_tt.pop_due(cluster.now()) {
            let a = from + k as usize * row_batch;
            let b = (a + row_batch).min(to);
            push_rows(
                cluster,
                NodeId((k % NODES as u64) as u32),
                &rows[a..b],
                a,
                Some(due),
            )?;
            issued = b;
            lateness.push(late);
            moved = true;
        }
        while let Some((k, due, late)) = query_tt.pop_due(cluster.now()) {
            let origin = NodeId((k % NODES as u64) as u32);
            outstanding.push_back(issue(cluster, queries, k as usize, origin, Some(due))?);
            lateness.push(late);
            moved = true;
        }
        for _ in 0..outstanding.len() {
            let Some(o) = outstanding.pop_front() else {
                break;
            };
            match reap(cluster, &o) {
                Some(t) => {
                    done.push(digest(&t, &queries[o.idx], o.idx, rows, from, issued));
                    moved = true;
                }
                None => outstanding.push_back(o),
            }
        }
        probe.tick();
        let next_due = [row_tt.next_due(), query_tt.next_due()]
            .into_iter()
            .flatten()
            .min();
        if next_due.is_none() && outstanding.is_empty() {
            break;
        }
        if moved {
            progress = crate::wall();
        } else if progress.elapsed() > STALL {
            return Err(format!(
                "open loop stalled with {} queries out",
                outstanding.len()
            ));
        }
        // Sleep to the next due time (answers are stamped by their origin,
        // so looking for them only once per tick costs no accuracy), but
        // never past a millisecond while answers are outstanding.
        let now = cluster.now();
        let tick = Duration::from_millis(1);
        let until_due = next_due.map_or(tick, |d| Duration::from_micros(d.saturating_sub(now)));
        let nap = if outstanding.is_empty() {
            until_due
        } else {
            until_due.min(tick)
        };
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
    }
    wait_for("the open loop's rows to be durable", probe, || {
        cluster.total_primary_rows(INDEX) as usize >= to
    })?;
    Ok(MixedRun {
        done,
        lateness,
        started_at: start,
    })
}

/// Counters summed over the four nodes' `NodeMetrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCounters {
    /// Routed messages that gave up.
    pub undeliverable: u64,
    /// Unacked operations re-sent.
    pub retries_sent: u64,
    /// Query re-dispatch rounds.
    pub query_retries: u64,
    /// Duplicate operations ignored.
    pub dup_ops_ignored: u64,
    /// Operations abandoned.
    pub retries_exhausted: u64,
}

/// Reads the failure/retry counters off every node.
pub fn core_counters(cluster: &Fleet) -> CoreCounters {
    let mut c = CoreCounters::default();
    for k in 0..NODES as u32 {
        let m = cluster.read_node(NodeId(k), |n| {
            let m = &n.metrics;
            (
                m.undeliverable,
                m.retries_sent,
                m.query_retries,
                m.dup_ops_ignored,
                m.retries_exhausted,
            )
        });
        c.undeliverable += m.0;
        c.retries_sent += m.1;
        c.query_retries += m.2;
        c.dup_ops_ignored += m.3;
        c.retries_exhausted += m.4;
    }
    c
}
