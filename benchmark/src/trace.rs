//! The traced run: where the time and the messages go, layer by layer.
//!
//! End-to-end numbers are always measured with tracing off, on the real
//! fleet. This module is a separate pass over a small fixed sample: a
//! single-threaded [`ClusterDriver`] owned by the benchmark steps the
//! same four `MindNode` logics on a virtual clock and wraps every call
//! into a layer's public function in a [`Span`] — `MindNode::insert`,
//! `query`, `on_message`, `on_timer` for `core`; `wire::to_bytes`,
//! `frame::write_frame`, `frame::read_frame`, `wire::from_bytes` for
//! `net` (every message really is encoded, framed into a byte pipe, read
//! back and decoded). `store` and `histogram` costs come from replaying
//! the same rows and rectangles against `Store` and `CutTree` directly.
//! Spans live in memory and are written out when the run ends.
//!
//! Everything that is counted here repeats exactly for one seed; only the
//! nanoseconds vary. The run traces the seed twice and fails if a count
//! differs.

use crate::gen::{QClass, Query, Row, INDEX};
use mind_core::{MindCluster, MindNode, MindPayload, Replication};
use mind_histogram::CutTree;
use mind_net::{frame, wire};
use mind_overlay::OverlayMsg;
use mind_store::{Store, StoreKind};
use mind_types::node::{NodeLogic, Outbox, SimTime, MILLIS};
use mind_types::{BitCode, ClusterDriver, HyperRect, NodeId, Record};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

type Msg = OverlayMsg<MindPayload>;

/// Virtual one-way delay of every message: loopback-like, and large
/// against the 1 µs DAC timers so storage batches form as on sockets.
const LINK_DELAY: SimTime = 100;

/// What a span's work was done for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// The ingest path: inserts, insert batches, acks, their timers.
    Insert,
    /// A narrow query's plan, sub-queries, scans and responses.
    Narrow,
    /// A wide query's.
    Wide,
    /// Heartbeats, anti-entropy, index creation: not caused by a request.
    Background,
}

impl Class {
    fn of_query(c: QClass) -> Class {
        match c {
            QClass::Narrow => Class::Narrow,
            QClass::Wide => Class::Wide,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Class::Insert => "insert",
            Class::Narrow => "narrow",
            Class::Wide => "wide",
            Class::Background => "background",
        }
    }
}

/// No parent: a span the harness itself caused.
pub const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.function`.
    pub name: &'static str,
    /// What the work was for.
    pub class: Class,
    /// Wall nanoseconds since the pass began.
    pub start_ns: u64,
    /// Wall nanoseconds since the pass began.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The request it belongs to: an op id or a query id (0: none).
    pub req: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not subtracted
/// twice; a child reaching outside its parent only counts inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&(i as u32)) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// The in-memory span table of one pass.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, class: Class, parent: u32, req: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let at = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            class,
            start_ns: at,
            end_ns: at,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        if id != ROOT {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }
}

/// Counts taken at the layer boundaries; identical for identical inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Frames on the wire, by class `[insert, narrow, wide, background]`.
    pub frames: [u64; 4],
    /// Framed bytes on the wire (payload + length prefix), by class.
    pub wire_bytes: [u64; 4],
    /// `Insert`/`InsertBatch` frames.
    pub insert_frames: u64,
    /// Rows those frames carried.
    pub insert_frame_rows: u64,
    /// `Ack` frames.
    pub acks: u64,
    /// Overlay hops taken by rows (each routed frame × rows in it).
    pub row_hops: u64,
    /// Overlay hops taken by root queries and sub-queries.
    pub query_hops: u64,
    /// Virtual µs rows waited in the origin's wire batcher, summed.
    pub batch_wait_us: u64,
    /// Rows that left their origin in a frame (the others were owned by
    /// their origin and never crossed the wire).
    pub batch_wait_rows: u64,
    /// `on_message` calls.
    pub messages: u64,
    /// `on_timer` calls.
    pub timers: u64,
    /// Rows durable at the end.
    pub rows_durable: u64,
    /// Queries answered completely.
    pub queries_complete: u64,
    /// Sub-queries answered, summed over nodes.
    pub subqueries: u64,
    /// Distinct responders, summed over queries.
    pub responders: u64,
    /// Rows returned, summed over queries.
    pub rows_returned: u64,
    /// `NodeMetrics` counters summed over nodes.
    pub undeliverable: u64,
    /// Unacked operations re-sent.
    pub retries_sent: u64,
    /// Query re-dispatch rounds.
    pub query_retries: u64,
    /// Duplicate operations ignored.
    pub dup_ops_ignored: u64,
    /// Operations abandoned.
    pub retries_exhausted: u64,
    /// Virtual µs the pass covered.
    pub virtual_us: u64,
}

enum Event {
    Deliver {
        to: usize,
        framed: Vec<u8>,
        class: Class,
        req: u64,
        cause: u32,
    },
    Timer {
        node: usize,
        token: u64,
        id: u64,
        class: Class,
        req: u64,
        cause: u32,
    },
}

/// The benchmark's own single-threaded driver for the four node logics.
pub struct TraceDriver {
    nodes: Vec<MindNode>,
    timer_seq: Vec<u64>,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(SimTime, u64)>>,
    events: BTreeMap<u64, Event>,
    live_timers: HashSet<(usize, u64)>,
    tracer: Tracer,
    /// Class of work the harness is causing right now.
    phase: Class,
    /// Virtual time each row was handed to its origin, by sequence number.
    row_offered_at: Vec<SimTime>,
    counts: Counts,
    /// The first thing that went wrong inside a step (a message that did
    /// not survive its own encode → frame → decode, a refused insert);
    /// the pass reports it when it ends.
    fault: Option<String>,
}

impl TraceDriver {
    /// A driver over `nodes`, spans recorded when `traced`.
    pub fn new(nodes: Vec<MindNode>, traced: bool, rows: usize) -> Self {
        let n = nodes.len();
        let mut d = TraceDriver {
            nodes,
            timer_seq: vec![1; n],
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            events: BTreeMap::new(),
            live_timers: HashSet::new(),
            tracer: Tracer {
                on: traced,
                epoch: crate::wall(),
                spans: Vec::new(),
            },
            phase: Class::Background,
            row_offered_at: vec![0; rows],
            counts: Counts::default(),
            fault: None,
        };
        for k in 0..n {
            let mut out = Outbox::with_timer_seq(d.timer_seq[k]);
            d.nodes[k].on_start(0, &mut out);
            d.flush(k, out, Class::Background, 0, ROOT);
        }
        d
    }

    fn fault(&mut self, what: String) {
        self.fault.get_or_insert(what);
    }

    fn push(&mut self, at: SimTime, ev: Event) {
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq)));
        self.events.insert(self.seq, ev);
    }

    /// Class and request id of a message: the payload says which path it
    /// is on; a query's class is the phase the harness is in (the traced
    /// run never has two classes of query in flight).
    fn classify(&self, msg: &Msg) -> (Class, u64) {
        let payload = match msg {
            OverlayMsg::Route { payload, .. }
            | OverlayMsg::Direct { payload }
            | OverlayMsg::Flood { payload, .. } => payload,
            // lint:allow(handler-wildcard) a classifier, not a handler: overlay maintenance of any kind is background
            _ => return (Class::Background, 0),
        };
        let query_class = match self.phase {
            Class::Narrow | Class::Wide => self.phase,
            Class::Insert | Class::Background => Class::Background,
        };
        match payload {
            MindPayload::Insert { op_id, .. }
            | MindPayload::InsertBatch { op_id, .. }
            | MindPayload::Replica { op_id, .. }
            | MindPayload::ReplicaBatch { op_id, .. }
            | MindPayload::Ack { op_id } => (Class::Insert, *op_id),
            MindPayload::RootQuery { query_id, .. }
            | MindPayload::SubQuery { query_id, .. }
            | MindPayload::QueryPlan { query_id, .. }
            | MindPayload::QueryResponse { query_id, .. } => (query_class, *query_id),
            // lint:allow(handler-wildcard) a classifier, not a handler: catalog, trigger and hand-off traffic is background
            _ => (Class::Background, 0),
        }
    }

    /// Counts a message at the wire boundary.
    fn count_send(&mut self, msg: &Msg, class: Class, framed_len: usize) {
        let c = class as usize;
        self.counts.frames[c] += 1;
        self.counts.wire_bytes[c] += framed_len as u64;
        let (routed, payload) = match msg {
            OverlayMsg::Route { payload, .. } => (true, payload),
            OverlayMsg::Direct { payload } => (false, payload),
            // lint:allow(handler-wildcard) a counter, not a handler: only routed and direct payloads are counted further
            _ => return,
        };
        let records: &[Record] = match payload {
            MindPayload::Insert { record, .. } => std::slice::from_ref(record),
            MindPayload::InsertBatch { records, .. } => records,
            MindPayload::Ack { .. } => {
                self.counts.acks += 1;
                return;
            }
            MindPayload::RootQuery { .. } | MindPayload::SubQuery { .. } if routed => {
                self.counts.query_hops += 1;
                return;
            }
            // lint:allow(handler-wildcard) a counter, not a handler: the other payloads have no counter of their own
            _ => return,
        };
        self.counts.insert_frames += 1;
        self.counts.insert_frame_rows += records.len() as u64;
        if routed {
            self.counts.row_hops += records.len() as u64;
        }
        for r in records {
            let offered = self.row_offered_at[r.value(3) as usize];
            self.counts.batch_wait_us += self.now.saturating_sub(offered);
            self.counts.batch_wait_rows += 1;
        }
    }

    /// Routes what one logic call emitted: every message through the real
    /// encoder and framer into the pipe, every timer onto the clock.
    fn flush(&mut self, k: usize, mut out: Outbox<Msg>, class: Class, req: u64, cause: u32) {
        let fx = out.drain();
        self.timer_seq[k] = fx.next_timer_id;
        for (to, msg) in fx.sends {
            let (mclass, mreq) = self.classify(&msg);
            let sender = (NodeId(k as u32), msg);
            let s = self.tracer.open("net.encode", mclass, cause, mreq);
            let encoded = wire::to_bytes(&sender);
            self.tracer.close(s);
            let Ok(bytes) = encoded else {
                self.fault(format!("a message from node {k} did not encode"));
                continue;
            };
            let mut framed = Vec::with_capacity(bytes.len() + 4);
            let s = self.tracer.open("net.frame_write", mclass, cause, mreq);
            let written = frame::write_frame(&mut framed, &bytes);
            self.tracer.close(s);
            if written.is_err() {
                self.fault(format!("a {}-byte message did not frame", bytes.len()));
                continue;
            }
            self.count_send(&sender.1, mclass, framed.len());
            self.push(
                self.now + LINK_DELAY,
                Event::Deliver {
                    to: to.0 as usize,
                    framed,
                    class: mclass,
                    req: mreq,
                    cause,
                },
            );
        }
        for (delay, token, id) in fx.timers {
            self.live_timers.insert((k, id.0));
            self.push(
                self.now + delay,
                Event::Timer {
                    node: k,
                    token,
                    id: id.0,
                    class,
                    req,
                    cause,
                },
            );
        }
        for id in fx.cancels {
            self.live_timers.remove(&(k, id.0));
        }
    }

    /// Processes the earliest event at or before `limit`; `false` when
    /// there is none.
    fn step(&mut self, limit: SimTime) -> bool {
        let Some(&Reverse((at, seq))) = self.queue.peek() else {
            return false;
        };
        if at > limit {
            return false;
        }
        self.queue.pop();
        let Some(ev) = self.events.remove(&seq) else {
            return true;
        };
        self.now = at;
        match ev {
            Event::Deliver {
                to,
                framed,
                class,
                req,
                cause,
            } => {
                let step = self.tracer.open("step.deliver", class, cause, req);
                let s = self.tracer.open("net.frame_read", class, step, req);
                let read = frame::read_frame(&mut framed.as_slice());
                self.tracer.close(s);
                let s = self.tracer.open("net.decode", class, step, req);
                let decoded = match &read {
                    Ok(Some(bytes)) => wire::from_bytes::<(NodeId, Msg)>(bytes).ok(),
                    _ => None,
                };
                self.tracer.close(s);
                let Some((from, msg)) = decoded else {
                    self.fault(format!(
                        "a {}-byte frame to node {to} did not read back",
                        framed.len()
                    ));
                    self.tracer.close(step);
                    return true;
                };
                self.counts.messages += 1;
                let mut out = Outbox::with_timer_seq(self.timer_seq[to]);
                let s = self.tracer.open("core.on_message", class, step, req);
                self.nodes[to].on_message(at, from, msg, &mut out);
                self.tracer.close(s);
                self.flush(to, out, class, req, step);
                self.tracer.close(step);
            }
            Event::Timer {
                node,
                token,
                id,
                class,
                req,
                cause,
            } => {
                if !self.live_timers.remove(&(node, id)) {
                    return true; // cancelled while pending
                }
                let step = self.tracer.open("step.timer", class, cause, req);
                self.counts.timers += 1;
                let mut out = Outbox::with_timer_seq(self.timer_seq[node]);
                let s = self.tracer.open("core.on_timer", class, step, req);
                self.nodes[node].on_timer(at, token, &mut out);
                self.tracer.close(s);
                self.flush(node, out, class, req, step);
                self.tracer.close(step);
            }
        }
        true
    }

    /// Runs until virtual time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step(t) {}
        self.now = self.now.max(t);
    }

    /// Offers one row to `at` through `MindNode::insert`, in a span.
    fn insert(&mut self, at: usize, seq: usize, row: &Row) {
        self.row_offered_at[seq] = self.now;
        let record = row.record(seq as u64);
        let step = self
            .tracer
            .open("step.invoke", Class::Insert, ROOT, seq as u64);
        let mut out = Outbox::with_timer_seq(self.timer_seq[at]);
        let s = self
            .tracer
            .open("core.insert", Class::Insert, step, seq as u64);
        let inserted = self.nodes[at].insert(self.now, INDEX, record, &mut out);
        self.tracer.close(s);
        if let Err(e) = inserted {
            self.fault(format!("insert of row {seq} refused: {e}"));
        }
        self.flush(at, out, Class::Insert, seq as u64, step);
        self.tracer.close(step);
    }

    /// Issues one query from `at` through `MindNode::query`, in a span,
    /// and runs the deployment until its tracker is done. Returns
    /// `(complete, responders, rows returned)`.
    fn query(&mut self, at: usize, q: &Query) -> (bool, usize, usize) {
        let class = Class::of_query(q.class);
        self.phase = class;
        let step = self.tracer.open("step.invoke", class, ROOT, 0);
        let mut out = Outbox::with_timer_seq(self.timer_seq[at]);
        let s = self.tracer.open("core.query", class, step, 0);
        let issued = self.nodes[at].query(self.now, INDEX, q.rect.clone(), vec![], &mut out);
        self.tracer.close(s);
        let qid = match issued {
            Ok(qid) => qid,
            Err(e) => {
                self.fault(format!("query refused: {e}"));
                self.tracer.close(step);
                return (false, 0, 0);
            }
        };
        if step != ROOT {
            self.tracer.spans[step as usize].req = qid;
            self.tracer.spans[s as usize].req = qid;
        }
        self.flush(at, out, class, qid, step);
        self.tracer.close(step);
        let give_up = self.now + 5_000 * MILLIS;
        while !self.nodes[at].queries.get(&qid).is_some_and(|t| t.done()) {
            if !self.step(give_up) {
                break;
            }
        }
        let t = self.nodes[at].queries.remove(&qid);
        t.map_or((false, 0, 0), |t| {
            (
                t.completed_at.is_some(),
                t.responders.len(),
                t.records.len(),
            )
        })
    }
}

impl ClusterDriver<MindNode> for TraceDriver {
    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn is_alive(&self, _id: NodeId) -> bool {
        true
    }

    fn with_node<R, F>(&mut self, id: NodeId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut MindNode, SimTime, &mut Outbox<Msg>) -> R + Send + 'static,
    {
        let k = id.0 as usize;
        let step = self.tracer.open("step.invoke", self.phase, ROOT, 0);
        let mut out = Outbox::with_timer_seq(self.timer_seq[k]);
        let r = f(&mut self.nodes[k], self.now, &mut out);
        self.flush(k, out, self.phase, 0, step);
        self.tracer.close(step);
        r
    }

    fn read<R, F>(&self, id: NodeId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&MindNode) -> R + Send + 'static,
    {
        f(&self.nodes[id.0 as usize])
    }

    fn run_for(&mut self, d: SimTime) {
        self.run_until(self.now + d);
    }

    fn quiesce(&mut self, limit: SimTime) {
        self.run_until(self.now + limit);
    }

    fn crash(&mut self, _id: NodeId) {
        unreachable!("the traced run injects no faults");
    }

    fn revive(&mut self, _id: NodeId) {
        unreachable!("the traced run injects no faults");
    }
}

/// What one pass over the sample produced.
pub struct Pass {
    /// The span table (empty for an untraced pass).
    pub spans: Vec<Span>,
    /// The boundary counts.
    pub counts: Counts,
    /// Wall seconds the pass took.
    pub wall_s: f64,
}

/// One pass: create the index, offer `rows` on a virtual timetable
/// (`rows_per_tick` to one origin each virtual millisecond, so
/// `core.batch_wait_us_per_row` is the wait the batch age imposes at that
/// rate), then run the narrow and the wide queries one at a time.
pub fn pass(
    rows: &[Row],
    cuts: &CutTree,
    narrow: &[Query],
    wide: &[Query],
    rows_per_tick: usize,
    traced: bool,
) -> Result<Pass, String> {
    let started = crate::wall();
    let topo = crate::tcp::topology();
    let nodes: Vec<MindNode> = (0..crate::tcp::NODES)
        .map(|k| crate::tcp::node_logic(k, &topo))
        .collect();
    let n = nodes.len();
    let driver = TraceDriver::new(nodes, traced, rows.len());
    let mut cluster = MindCluster::from_parts(driver, topo);
    cluster
        .create_index(
            NodeId(0),
            crate::gen::schema(),
            cuts.clone(),
            Replication::None,
        )
        .map_err(|e| format!("traced create_index: {e}"))?;
    cluster.run_for(10 * MILLIS);

    let d = cluster.driver_mut();
    d.phase = Class::Insert;
    let t0 = d.now;
    for (tick, chunk) in rows.chunks(rows_per_tick).enumerate() {
        d.run_until(t0 + tick as u64 * MILLIS);
        for (i, row) in chunk.iter().enumerate() {
            d.insert(tick % n, tick * rows_per_tick + i, row);
        }
    }
    d.run_for(50 * MILLIS);
    let mut counts_queries = (0u64, 0u64, 0u64);
    for (i, q) in narrow.iter().chain(wide.iter()).enumerate() {
        let (complete, responders, returned) = d.query(i % n, q);
        counts_queries.0 += complete as u64;
        counts_queries.1 += responders as u64;
        counts_queries.2 += returned as u64;
    }
    d.phase = Class::Background;
    d.run_for(10 * MILLIS);

    let rows_durable = cluster.total_primary_rows(INDEX);
    let mut d = cluster.into_driver();
    d.counts.rows_durable = rows_durable;
    d.counts.queries_complete = counts_queries.0;
    d.counts.responders = counts_queries.1;
    d.counts.rows_returned = counts_queries.2;
    d.counts.virtual_us = d.now;
    for node in &d.nodes {
        let m = &node.metrics;
        d.counts.subqueries += m.subqueries_answered;
        d.counts.undeliverable += m.undeliverable;
        d.counts.retries_sent += m.retries_sent;
        d.counts.query_retries += m.query_retries;
        d.counts.dup_ops_ignored += m.dup_ops_ignored;
        d.counts.retries_exhausted += m.retries_exhausted;
    }
    if let Some(fault) = d.fault.take() {
        return Err(format!("traced pass: {fault}"));
    }
    if d.counts.rows_durable != rows.len() as u64 {
        return Err(format!(
            "traced pass: {} of {} rows durable",
            d.counts.rows_durable,
            rows.len()
        ));
    }
    Ok(Pass {
        spans: d.tracer.spans,
        counts: d.counts,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Summed self time (ns) of the spans named `name` in `class`.
pub fn self_ns(spans: &[Span], selfs: &[u64], name: &str, class: Class) -> u64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name && s.class == class)
        .map(|(_, t)| *t)
        .sum()
}

/// Number of spans named `name` (any class).
#[cfg(test)]
fn span_count(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// The span table as JSON: a `columns` header, then one row per span
/// (its index in `rows` is its id; parent `-1` is none).
pub fn spans_json(spans: &[Span], selfs: &[u64]) -> String {
    let mut s = String::with_capacity(spans.len() * 72 + 128);
    s.push_str(
        "{\"columns\": [\"name\", \"class\", \"start_ns\", \"end_ns\", \"self_ns\", \
         \"parent\", \"req\"],\n\"rows\": [\n",
    );
    for (i, (sp, st)) in spans.iter().zip(selfs).enumerate() {
        let parent = if sp.parent == ROOT {
            -1
        } else {
            sp.parent as i64
        };
        let _ = write!(
            s,
            "[\"{}\",\"{}\",{},{},{st},{parent},{}]",
            sp.name,
            sp.class.name(),
            sp.start_ns,
            sp.end_ns,
            sp.req
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push_str("]}");
    s
}

/// `store.` and `histogram.` costs, from replaying rows and rectangles
/// against the layers' public functions directly.
#[derive(Debug, Default)]
pub struct Replay {
    /// `CutTree::code_for_point`, ns per row.
    pub code_ns_per_row: f64,
    /// `CutTree::covering_codes_into`, ns per query.
    pub cover_ns_per_query: f64,
    /// Covering codes per query (at the overlay's depth).
    pub codes_per_query: f64,
    /// `Store::insert_batch` in wire-batch-sized batches, ns per row
    /// (k-d rebuilds included).
    pub insert_ns_per_row: f64,
    /// `Store::range_records`, ns per narrow query.
    pub range_ns_narrow: f64,
    /// `Store::range_records`, ns per wide query.
    pub range_ns_wide: f64,
    /// Rows a narrow scan returned, mean.
    pub rows_narrow: f64,
    /// Rows a wide scan returned, mean.
    pub rows_wide: f64,
    /// `Store::approx_bytes` per stored row.
    pub bytes_per_row: f64,
}

/// Replays one node's share of `rows` (those whose region code begins
/// with node 0's overlay code) into a k-d store, and the queries whose
/// rectangle meets that region against it.
pub fn replay(
    rows: &[Row],
    cuts: &CutTree,
    narrow: &[Query],
    wide: &[Query],
    owner: BitCode,
) -> Replay {
    let mut r = Replay::default();
    let t = crate::wall();
    let codes: Vec<BitCode> = rows
        .iter()
        .map(|x| cuts.code_for_point(&x.point()))
        .collect();
    r.code_ns_per_row = t.elapsed().as_nanos() as f64 / rows.len().max(1) as f64;

    let mut scratch = Vec::new();
    let all: Vec<&Query> = narrow.iter().chain(wide.iter()).collect();
    let mut total_codes = 0;
    let t = crate::wall();
    for q in &all {
        cuts.covering_codes_into(&q.rect, owner.len(), &mut scratch);
        total_codes += scratch.len();
    }
    r.cover_ns_per_query = t.elapsed().as_nanos() as f64 / all.len().max(1) as f64;
    r.codes_per_query = total_codes as f64 / all.len().max(1) as f64;

    let mine: Vec<Record> = rows
        .iter()
        .zip(&codes)
        .enumerate()
        .filter(|(_, (_, c))| owner.is_prefix_of(c))
        .map(|(i, (x, _))| x.record(i as u64))
        .collect();
    let stored = mine.len();
    let mut store: Box<dyn Store> = StoreKind::KdTree.new_store(3);
    let batches: Vec<Vec<Record>> = mine.chunks(64).map(|c| c.to_vec()).collect();
    let t = crate::wall();
    for b in batches {
        store.insert_batch(b);
    }
    r.insert_ns_per_row = t.elapsed().as_nanos() as f64 / stored.max(1) as f64;
    r.bytes_per_row = store.approx_bytes() as f64 / stored.max(1) as f64;

    let region = cuts.rect_for_code(&owner);
    let scan = |qs: &[Query]| -> (f64, f64) {
        let rects: Vec<&HyperRect> = qs
            .iter()
            .map(|q| &q.rect)
            .filter(|rect| rect.intersects(&region))
            .collect();
        let mut returned = 0;
        let t = crate::wall();
        for rect in &rects {
            returned += store.range_records(rect).len();
        }
        let n = rects.len().max(1) as f64;
        (t.elapsed().as_nanos() as f64 / n, returned as f64 / n)
    };
    (r.range_ns_narrow, r.rows_narrow) = scan(narrow);
    (r.range_ns_wide, r.rows_wide) = scan(wide);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: "t",
            class: Class::Insert,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // 0: [0,100) ⊃ 1: [10,60) ⊃ 2: [20,30)
        let spans = [span(0, 100, ROOT), span(10, 60, 0), span(20, 30, 1)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_sibling_children() {
        // Parent [0,100) with siblings [10,20), [30,50), [50,55).
        let spans = [
            span(0, 100, ROOT),
            span(10, 20, 0),
            span(30, 50, 0),
            span(50, 55, 0),
        ];
        assert_eq!(self_times(&spans), vec![65, 10, 20, 5]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_the_parent() {
        // Overlapping children [10,40) and [30,60); one reaching past the
        // parent's end [90,130).
        let spans = [
            span(0, 100, ROOT),
            span(10, 40, 0),
            span(30, 60, 0),
            span(90, 130, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
        // A childless, zero-length span has zero self time.
        assert_eq!(self_times(&[span(5, 5, ROOT)]), vec![0]);
    }

    #[test]
    fn two_passes_of_one_seed_count_the_same_and_trace_every_layer() {
        let rows = crate::gen::rows(42, 1_500);
        let cuts = crate::gen::cuts(42, &rows);
        let narrow = crate::gen::queries_of(42, QClass::Narrow, 20, &rows, rows.len());
        let wide = crate::gen::queries_of(42, QClass::Wide, 20, &rows, rows.len());
        let a = pass(&rows, &cuts, &narrow, &wide, 16, true).unwrap();
        let b = pass(&rows, &cuts, &narrow, &wide, 16, true).unwrap();
        let plain = pass(&rows, &cuts, &narrow, &wide, 16, false).unwrap();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts, plain.counts);
        assert_eq!(a.spans.len(), b.spans.len());
        assert!(plain.spans.is_empty());
        assert_eq!(a.counts.rows_durable, 1_500);
        assert_eq!(a.counts.queries_complete, 40);
        assert_eq!(span_count(&a.spans, "core.insert"), 1_500);
        assert_eq!(span_count(&a.spans, "core.query"), 40);
        for name in [
            "core.on_message",
            "core.on_timer",
            "net.encode",
            "net.frame_write",
            "net.frame_read",
            "net.decode",
        ] {
            assert!(span_count(&a.spans, name) > 0, "no {name} span");
        }
        // Every frame written was read: encode and decode counts agree.
        assert_eq!(
            span_count(&a.spans, "net.encode"),
            span_count(&a.spans, "net.decode")
        );
        let selfs = self_times(&a.spans);
        assert!(self_ns(&a.spans, &selfs, "core.insert", Class::Insert) > 0);
        let json = spans_json(&a.spans[..3], &selfs[..3]);
        assert!(json.contains("\"self_ns\"") && json.matches("[\"").count() == 4);
    }

    #[test]
    fn replay_measures_store_and_cuts() {
        let rows = crate::gen::rows(7, 4_000);
        let cuts = crate::gen::cuts(7, &rows);
        let narrow = crate::gen::queries_of(7, QClass::Narrow, 50, &rows, rows.len());
        let wide = crate::gen::queries_of(7, QClass::Wide, 10, &rows, rows.len());
        let owner = crate::tcp::topology().code(0);
        let r = replay(&rows, &cuts, &narrow, &wide, owner);
        assert!(r.code_ns_per_row > 0.0 && r.cover_ns_per_query > 0.0);
        assert!(r.codes_per_query >= 1.0);
        assert!(r.insert_ns_per_row > 0.0 && r.bytes_per_row > 24.0);
        assert!(r.rows_wide > 0.0);
    }
}
