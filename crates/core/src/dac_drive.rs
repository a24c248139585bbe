//! The Data Access Component (Section 3.9): the batched storage queue
//! that models the prototype's MySQL + JDBC backend.
//!
//! Requests are buffered and processed in batches; a batch's effects —
//! acks, replica pushes, query responses — are released only when its
//! modeled processing cost has elapsed, so storage work is never
//! interleaved with network transmission, exactly as in the prototype.
//!
//! There are two kinds of request. A *write op* is the rows of one
//! insert or replica frame under one op id; [`MindNode::apply_write`] is
//! the node's only write path, whatever shape the rows travelled in. A
//! *scan* answers every region one sub-query asked this node for.

use crate::messages::{CarriedFilter, MindPayload, Replication};
use crate::node::{token, MindNode, Out};
use crate::reliability::OpTarget;
use mind_overlay::OverlayMsg;
use mind_types::node::{SimTime, SECONDS};
use mind_types::{BitCode, HyperRect, NodeId, Record};
use std::collections::BTreeMap;

pub(crate) const KIND_DAC_TICK: u64 = 0;
pub(crate) const KIND_BATCH: u64 = 1;

/// How long a fresh joiner keeps forwarding sub-queries to its acceptor
/// for the historical data it did not migrate (the paper's "pointer ...
/// dropped once the data have aged", Section 3.4).
const HANDOFF_TTL: SimTime = 3600 * SECONDS;

/// A write op as the node applies it: the rows of one wire frame (one
/// row or many), stored or taken into custody — and acked — together or
/// not at all, so a retried op can never be half deduped.
#[derive(Debug)]
pub(crate) struct WriteOp {
    pub(crate) index: String,
    pub(crate) version: u32,
    pub(crate) rows: Vec<Record>,
    /// When the oldest row entered the system (for insert latency).
    pub(crate) sent_at: SimTime,
    /// The code a primary insert was routed toward (its rows' leaf codes
    /// all extend it); `None` for replica copies, which were pushed
    /// directly and are stored whole.
    pub(crate) routed_to: Option<BitCode>,
    /// Who to ack once applied (the insert origin, or the pushing
    /// primary for replica copies).
    pub(crate) acker: NodeId,
    /// Idempotency key (0 = a peer that asked for no ack and no dedup).
    pub(crate) op_id: u64,
}

/// One buffered storage request (the prototype's DAC queue entry).
#[derive(Debug)]
pub(crate) enum DacJob {
    Write(WriteOp),
    /// Every region of one query version this node answers, scanned
    /// together (`codes` is never empty).
    Scan {
        query_id: u64,
        index: String,
        version: u32,
        codes: Vec<BitCode>,
        rect: HyperRect,
        filters: Vec<CarriedFilter>,
        origin: NodeId,
    },
}

/// Effects of a processed batch, released when its cost has elapsed.
#[derive(Debug, Default)]
pub(crate) struct BatchResult {
    sends: Vec<(NodeId, MindPayload)>,
    /// Query responses, kept out of `sends` so the local path (destination
    /// == this node) can feed the tracker directly instead of looping a
    /// message back.
    responses: Vec<(NodeId, LocalResponse)>,
    /// `sent_at` of each primary insert in the batch (latency recorded at
    /// release time).
    insert_sent_ats: Vec<SimTime>,
    /// Rows that arrived here under a prefix this node owns only part of,
    /// re-originated as ops of this node: `(routing target, op id,
    /// payload)`, tracked and routed when the batch is released.
    forwards: Vec<(BitCode, u64, MindPayload)>,
}

/// A region's answer: its code and the rows the scan copied out of the
/// local stores.
pub(crate) type RegionRows = (BitCode, Vec<Record>);

/// A query response before the wire boundary.
#[derive(Debug)]
pub(crate) struct LocalResponse {
    pub(crate) query_id: u64,
    pub(crate) version: u32,
    pub(crate) answers: Vec<RegionRows>,
}

/// A sub-query waiting for the acceptor's historical records.
#[derive(Debug)]
pub(crate) struct PendingHandoff {
    pub(crate) query_id: u64,
    pub(crate) version: u32,
    pub(crate) code: BitCode,
    pub(crate) origin: NodeId,
    pub(crate) local: Vec<Record>,
}

impl MindNode {
    pub(crate) fn enqueue(&mut self, job: DacJob, out: &mut Out) {
        self.dac_queue.push_back(job);
        if !self.dac_busy {
            self.dac_busy = true;
            out.set_timer(1, token(KIND_DAC_TICK, 0));
        }
    }

    fn dac_tick(&mut self, now: SimTime, out: &mut Out) {
        if self.dac_queue.is_empty() {
            self.dac_busy = false;
            return;
        }
        let cost_model = self.cfg.dac_cost;
        let mut cost: SimTime = cost_model.batch_overhead;
        let mut result = BatchResult::default();
        for _ in 0..self.cfg.dac_batch_size {
            let Some(job) = self.dac_queue.pop_front() else {
                break;
            };
            match job {
                DacJob::Write(op) => {
                    // A frame amortizes the wire, not the storage work:
                    // every row costs a row write.
                    cost += cost_model.per_insert * op.rows.len() as SimTime;
                    self.apply_write(op, &mut result);
                }
                DacJob::Scan {
                    query_id,
                    index,
                    version,
                    codes,
                    rect,
                    filters,
                    origin,
                } => {
                    let answers = self.run_scan_batch(&index, version, codes, &rect, &filters);
                    // One storage query with a disjunction of ranges.
                    let rows: usize = answers.iter().map(|(_, rows)| rows.len()).sum();
                    cost += cost_model.per_query + cost_model.per_result * rows as SimTime;
                    self.metrics.subqueries_answered += 1;
                    self.metrics.query_regions_answered += answers.len() as u64;
                    // Fresh joiner: the regions' historical rows still live
                    // at the acceptor (Section 3.4). Merge its answer with
                    // ours before responding — one exchange per region; the
                    // pointer is short-lived and not worth a batched message.
                    if let Some((sibling, joined_at)) = self.handoff {
                        if now.saturating_sub(joined_at) < HANDOFF_TTL {
                            for (code, local) in answers {
                                let handoff_id = self.handoff_seq;
                                self.handoff_seq += 1;
                                self.pending_handoffs.insert(
                                    handoff_id,
                                    PendingHandoff {
                                        query_id,
                                        version,
                                        code,
                                        origin,
                                        local,
                                    },
                                );
                                result.sends.push((
                                    sibling,
                                    MindPayload::HandoffScan {
                                        handoff_id,
                                        index: index.clone(),
                                        version,
                                        code,
                                        rect: rect.clone(),
                                        filters: filters.clone(),
                                    },
                                ));
                            }
                            continue;
                        }
                        self.handoff = None; // aged out
                    }
                    result.responses.push((
                        origin,
                        LocalResponse {
                            query_id,
                            version,
                            answers,
                        },
                    ));
                }
            }
        }
        // At most one batch is in flight: the next tick is armed only when
        // this one is released.
        self.pending_batch = Some(result);
        // Results (and the next batch) are released when this batch's
        // processing time has elapsed — storage work is not interleaved
        // with network transmission, exactly as in the prototype.
        out.set_timer(cost.max(1), token(KIND_BATCH, 0));
    }

    /// `true` when this node's own code covers every leaf under `target`
    /// — the balanced-overlay case, where an owner-addressed insert op
    /// needs no second look at its rows.
    fn owns_prefix(&self, target: &BitCode) -> bool {
        self.overlay.code().is_some_and(|c| c.is_prefix_of(target))
    }

    /// The re-split (DESIGN.md §14): splits the rows of a primary insert
    /// op that was routed under a `target` prefix this node only partly
    /// owns (a deeper node on an unbalanced overlay, or one answering
    /// through a claimed region) into the share it stores — returned —
    /// and the rest, which it re-originates as tracked ops of its own,
    /// grouped strictly deeper than `target` so the hand-over ends at the
    /// leaf code, and carrying the original `sent_at` so latency stays
    /// origin-to-durable. Runs at apply time, under the op's dedup
    /// record, so a retried copy is re-acked and never re-forwarded;
    /// from the ack on, custody of the forwarded rows is this node's
    /// `pending_ops` retry. The caller has checked the version exists.
    fn keep_owned_rows(
        &mut self,
        index: &str,
        version: u32,
        target: BitCode,
        records: Vec<Record>,
        sent_at: SimTime,
        result: &mut BatchResult,
    ) -> Vec<Record> {
        let Some(state) = self.indexes.get(index) else {
            return records;
        };
        let Some(ver) = state.version(version) else {
            return records;
        };
        let dims = state.schema.indexed_dims;
        let own_len = self.overlay.code().map_or(0, |c| c.len());
        let depth = own_len.max(target.len() + 1);
        let mut mine = Vec::with_capacity(records.len());
        // Keyed by (len, index) of the deeper prefix: replay-stable order.
        let mut rest: BTreeMap<(u8, u64), Vec<Record>> = BTreeMap::new();
        for record in records {
            let leaf = ver.cuts.code_for_point(record.point(dims));
            // A row routed by its full leaf code stays wherever routing
            // ended, as it always has.
            if leaf.len() <= target.len() || self.overlay.should_answer(&leaf) {
                mine.push(record);
            } else {
                let deeper = leaf.prefix(depth.min(leaf.len()));
                rest.entry((deeper.len(), deeper.as_index()))
                    .or_default()
                    .push(record);
            }
        }
        for ((len, bits), rows) in rest {
            self.metrics.insert_rows_forwarded += rows.len() as u64;
            let (op_id, payload) = self.insert_op(index.to_string(), version, rows, sent_at);
            result
                .forwards
                .push((BitCode::from_index(bits, len), op_id, payload));
        }
        mine
    }

    /// The node's one write path: applies a write op, primary or replica
    /// side. Dedup, the re-split, the ack and the replica pushes happen
    /// once per op; histogram, trigger and latency effects once per row
    /// stored here. The ack is emitted *only* once the rows are stored or
    /// re-originated toward their owner (see
    /// [`MindNode::keep_owned_rows`]), or on a detected duplicate — an op
    /// that cannot be applied yet (index/version unknown here, e.g. a
    /// lost flood) stays unacked so the sender's retry can land once the
    /// catalog heals. An op with a row that does not have the schema's
    /// arity is dropped whole, unacked, and counted in
    /// `rows_rejected`: only the origin's `conform` checked it, and a
    /// store fixes its arity by its first row.
    fn apply_write(&mut self, op: WriteOp, result: &mut BatchResult) {
        let WriteOp {
            index,
            version,
            rows,
            sent_at,
            routed_to,
            acker,
            op_id,
        } = op;
        if op_id != 0 && self.seen_ops.contains(op_id) {
            // A duplicate that slipped into the queue behind the first
            // copy (network duplication or an early retry): ack, don't
            // double-store.
            self.metrics.dup_ops_ignored += 1;
            result.sends.push((acker, MindPayload::Ack { op_id }));
            return;
        }
        let Some(state) = self.indexes.get(&index) else {
            return;
        };
        let arity = state.schema.arity();
        if rows.iter().any(|row| row.values().len() != arity) {
            self.metrics.rows_rejected += rows.len() as u64;
            return;
        }
        let dims = state.schema.indexed_dims;
        let replication = state.replication;
        if state.version(version).is_none() {
            return;
        }
        let rows = match routed_to {
            Some(target) if !self.owns_prefix(&target) => {
                self.keep_owned_rows(&index, version, target, rows, sent_at, result)
            }
            _ => rows,
        };
        let is_primary = routed_to.is_some();
        if is_primary {
            // Standing queries fire the moment the primary copies land.
            for row in &rows {
                for (trigger_id, origin) in self.triggers.fired(&index, row, dims) {
                    result.sends.push((
                        origin,
                        MindPayload::TriggerFired {
                            trigger_id,
                            at: self.id(),
                            record: row.clone(),
                        },
                    ));
                }
            }
        }
        // Remember the op as applied here (stored, or on its way to its
        // owner in this node's custody) and queue its ack.
        if op_id != 0 {
            self.seen_ops.insert(op_id);
            result.sends.push((acker, MindPayload::Ack { op_id }));
        }
        // Push what was stored to the prefix neighbors that would take
        // over: one op per target.
        if is_primary && !rows.is_empty() {
            let targets = match replication {
                Replication::None => Vec::new(),
                Replication::Level(m) => self.overlay.replica_targets(m as usize),
                Replication::Full => self.overlay.all_neighbor_targets(),
            };
            for t in targets {
                let push = self.replica_op(index.clone(), version, &rows);
                result.sends.push((t, push));
            }
        }
        let n = rows.len();
        #[expect(clippy::expect_used, reason = "presence checked above")]
        let state = self.indexes.get_mut(&index).expect("checked above");
        if is_primary {
            for row in &rows {
                state.day_histogram.add(row.point(dims));
            }
            // One latency sample per row stored here: they all left the
            // origin in one frame stamped with the oldest row's time.
            result
                .insert_sent_ats
                .extend(std::iter::repeat_n(sent_at, n));
        }
        #[expect(clippy::expect_used, reason = "presence checked above")]
        let ver = state.version_mut(version).expect("checked above");
        if is_primary {
            ver.primary_rows += n as u64;
            ver.primary.insert_batch(rows);
        } else {
            ver.replica_rows += n as u64;
            ver.replicas.insert_batch(rows);
        }
    }

    /// Answers every region of a scan job, in code order. Several
    /// prefix-free regions share **one** walk of each store over the query
    /// clipped to their common ancestor's region; each row is handed to the
    /// region whose code prefixes its leaf code and dropped when there is
    /// none (a replica of a region answered elsewhere), so per region the
    /// rows are exactly those of [`MindNode::run_scan`]. A single region,
    /// or regions that nest (no honest sender produces them), are scanned
    /// one by one.
    pub(crate) fn run_scan_batch(
        &self,
        index: &str,
        version: u32,
        mut codes: Vec<BitCode>,
        rect: &HyperRect,
        filters: &[CarriedFilter],
    ) -> Vec<RegionRows> {
        // Code order is the cut tree's in-order, so in a prefix-free set
        // the region holding a leaf is the last code not above it, and a
        // nested pair would sit side by side.
        codes.sort_unstable();
        let shared = codes.len() > 1 && codes.windows(2).all(|w| !w[0].is_prefix_of(&w[1]));
        if !shared {
            return codes
                .into_iter()
                .map(|code| {
                    let rows = self.run_scan(index, version, &code, rect, filters, false);
                    (code, rows)
                })
                .collect();
        }
        let span = {
            let (first, last) = (codes[0], codes[codes.len() - 1]);
            first.prefix(first.common_prefix_len(&last))
        };
        let mut answers: Vec<RegionRows> = codes.into_iter().map(|c| (c, Vec::new())).collect();
        let Some(state) = self.indexes.get(index) else {
            return answers;
        };
        let Some(ver) = state.version(version) else {
            return answers;
        };
        let dims = state.schema.indexed_dims;
        let Some(clip) = ver.cuts.rect_for_code(&span).intersection(rect) else {
            return answers;
        };
        let rows = ver.primary.range_records(&clip).into_iter();
        for row in rows.chain(ver.replicas.range_records(&clip)) {
            if !filters.iter().all(|f| f.accepts(&row)) {
                continue;
            }
            let leaf = ver.cuts.code_for_point(row.point(dims));
            let after = answers.partition_point(|(code, _)| *code <= leaf);
            if let Some((code, rows)) = answers[..after].last_mut() {
                if code.is_prefix_of(&leaf) {
                    rows.push(row);
                }
            }
        }
        answers
    }

    /// Answers one region from the local store, with rows copied out of
    /// it once; the response moves them on.
    pub(crate) fn run_scan(
        &self,
        index: &str,
        version: u32,
        code: &BitCode,
        rect: &HyperRect,
        filters: &[CarriedFilter],
        primary_only: bool,
    ) -> Vec<Record> {
        let Some(state) = self.indexes.get(index) else {
            return Vec::new();
        };
        let Some(ver) = state.version(version) else {
            return Vec::new();
        };
        // Clip to the sub-query's region so that (a) covering regions
        // never overlap and (b) replica rows are only returned by the node
        // that took the region over. Sub-queries overwhelmingly address
        // whole leaves, which the cut tree memoizes — only interior codes
        // pay for a rect reconstruction.
        let interior;
        let region = match ver.cuts.leaf_rect(code) {
            Some(leaf) => leaf,
            None => {
                interior = ver.cuts.rect_for_code(code);
                &interior
            }
        };
        let Some(clip) = region.intersection(rect) else {
            return Vec::new();
        };
        let accept = |r: &Record| filters.iter().all(|f| f.accepts(r));
        let mut out: Vec<Record> = ver
            .primary
            .range_records(&clip)
            .into_iter()
            .filter(accept)
            .collect();
        if !primary_only {
            out.extend(ver.replicas.range_records(&clip).into_iter().filter(accept));
        }
        out
    }

    /// Routes a scan answer to its originator. When the originator is this
    /// node (the paper's common single-node query case) the tracker takes
    /// the rows directly, with no message; for a remote originator they
    /// move into the response frame.
    pub(crate) fn deliver_response(
        &mut self,
        now: SimTime,
        dest: NodeId,
        resp: LocalResponse,
        out: &mut Out,
    ) {
        if dest == self.id() {
            let query_id = resp.query_id;
            if let Some(t) = self.queries.get_mut(&query_id) {
                for (code, rows) in resp.answers {
                    t.on_response(now, resp.version, code, dest, rows);
                }
            }
            // A local answer can be the query's last: retire its timers.
            self.settle_query_timers(query_id, out);
        } else {
            out.send(
                dest,
                OverlayMsg::Direct {
                    payload: MindPayload::QueryResponse {
                        query_id: resp.query_id,
                        version: resp.version,
                        responder: self.id(),
                        answers: resp.answers,
                    },
                },
            );
        }
    }

    fn release_batch(&mut self, now: SimTime, out: &mut Out) {
        if let Some(result) = self.pending_batch.take() {
            for sent_at in result.insert_sent_ats {
                if self.metrics.insert_latencies.len() < self.cfg.metrics_samples_max {
                    self.metrics
                        .insert_latencies
                        .push((now, now.saturating_sub(sent_at)));
                }
            }
            for (dest, resp) in result.responses {
                self.deliver_response(now, dest, resp, out);
            }
            for (target, op_id, payload) in result.forwards {
                self.launch_insert_op(now, target, op_id, payload, None, out);
            }
            for (dest, payload) in result.sends {
                if dest == self.id() {
                    // Loopback shortcut (e.g. responding to our own query).
                    self.on_direct(now, dest, payload, out);
                } else {
                    // Replica pushes leave through here exactly once — arm
                    // their ack/retry tracking at actual transmission time.
                    if let MindPayload::Replica { op_id, .. }
                    | MindPayload::ReplicaBatch { op_id, .. } = &payload
                    {
                        self.track_op(*op_id, OpTarget::Direct(dest), payload.clone(), None, out);
                    }
                    out.send(dest, OverlayMsg::Direct { payload });
                }
            }
        }
        if self.dac_queue.is_empty() {
            self.dac_busy = false;
        } else {
            out.set_timer(1, token(KIND_DAC_TICK, 0));
        }
    }

    /// Primary rows of `index` resident here although neither this node's
    /// code nor a region it claimed covers their leaf code — 0 once
    /// ingest has settled, except for the rows a join acceptor keeps for
    /// its joiner behind the handoff pointer (Section 3.4). Walks every
    /// stored row: a test and bench oracle, not a hot-path counter.
    pub fn misplaced_primary_rows(&self, index: &str) -> u64 {
        let Some(state) = self.indexes.get(index) else {
            return 0;
        };
        let dims = state.schema.indexed_dims;
        let mut misplaced = 0;
        for ver in &state.versions {
            for row in ver.primary.range_records(ver.cuts.bounds()) {
                let leaf = ver.cuts.code_for_point(row.point(dims));
                misplaced += u64::from(!self.overlay.responsible_for(&leaf));
            }
        }
        misplaced
    }

    /// Handles DAC-class timers; `true` if `kind` was ours.
    pub(crate) fn handle_dac_timer(&mut self, now: SimTime, kind: u64, out: &mut Out) -> bool {
        match kind {
            KIND_DAC_TICK => self.dac_tick(now, out),
            KIND_BATCH => self.release_batch(now, out),
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexState;
    use crate::node::MindConfig;
    use crate::trigger::Trigger;
    use mind_histogram::CutTree;
    use mind_overlay::{OverlayConfig, StaticTopology};
    use mind_types::node::NodeLogic;
    use mind_types::{AttrDef, AttrKind, IndexSchema, Value};
    use proptest::prelude::*;

    const SIDE: Value = 255;

    /// Node `k` of a two-node overlay (code `k`; the other node is its
    /// only neighbor) holding index "t" (two indexed dimensions and a
    /// carried attribute) under `cuts`.
    fn node_at(k: usize, cuts: CutTree, replication: Replication) -> MindNode {
        let topo = StaticTopology::balanced(2);
        let mut n = MindNode::new_static(
            NodeId(k as u32),
            topo.code(k),
            topo.neighbor_entries(k),
            OverlayConfig::default(),
            MindConfig::default(),
        );
        let attr = |name| AttrDef::new(name, AttrKind::Generic, 0, SIDE);
        let schema = IndexSchema::new("t", vec![attr("x"), attr("y"), attr("c")], 2);
        let state = IndexState::new(schema, cuts, replication, n.cfg.store_kind);
        n.indexes.insert("t".into(), state);
        n
    }

    /// Node 0 with `primary` and `replicas` stored as given — wherever
    /// their points fall, so the stores also hold rows of regions this
    /// node would never answer.
    fn node_with(cuts: CutTree, primary: &[Record], replicas: &[Record]) -> MindNode {
        let mut n = node_at(0, cuts, Replication::None);
        let ver = &mut n.indexes.get_mut("t").unwrap().versions[0];
        for r in primary {
            ver.primary.insert(r.clone());
        }
        for r in replicas {
            ver.replicas.insert(r.clone());
        }
        n
    }

    /// Runs DAC batches until the queue is empty; what they sent, all of
    /// it direct.
    fn run_dac(n: &mut MindNode) -> Vec<(NodeId, MindPayload)> {
        let mut out = Out::new();
        while n.dac_busy {
            n.handle_dac_timer(1_000, KIND_DAC_TICK, &mut out);
            n.handle_dac_timer(1_000, KIND_BATCH, &mut out);
        }
        let direct = |(to, msg)| match msg {
            OverlayMsg::Direct { payload } => (to, payload),
            other => panic!("the DAC sends direct, got {other:?}"),
        };
        out.sends.into_iter().map(direct).collect()
    }

    /// Row count and sorted rows of a whole store.
    fn contents(store: &dyn mind_store::Store) -> (usize, Vec<Vec<Value>>) {
        let all = HyperRect::new(vec![0, 0], vec![SIDE, SIDE]);
        (store.len(), sorted(store.range_records(&all)))
    }

    /// A prefix-free set of region codes: walks the tree from `code`,
    /// each step taking the region, leaving a hole, or descending, as
    /// `choices` says.
    fn pick(
        cuts: &CutTree,
        code: BitCode,
        choices: &mut impl Iterator<Item = u8>,
        out: &mut Vec<BitCode>,
    ) {
        let leaf = cuts.leaf_rect(&code).is_some();
        match choices.next().unwrap_or(0) % 5 {
            0 => out.push(code),
            1 => {}
            _ if leaf => out.push(code),
            _ => {
                pick(cuts, code.child(false), choices, out);
                pick(cuts, code.child(true), choices, out);
            }
        }
    }

    fn sorted(mut rows: Vec<Record>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| a.values().cmp(b.values()));
        rows.iter().map(|r| r.values().to_vec()).collect()
    }

    fn arb_rows(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Record>> {
        prop::collection::vec(
            (0..=SIDE, 0..=SIDE, 0..=SIDE).prop_map(|(x, y, c)| Record::new(vec![x, y, c])),
            len,
        )
    }

    /// The Figure 11 effect: a scan queued behind a heavy insert batch is
    /// answered only once the inserts' modelled cost has elapsed.
    #[test]
    fn scan_queued_behind_a_heavy_insert_batch_waits_for_it() {
        let bounds = HyperRect::new(vec![0, 0], vec![SIDE, SIDE]);
        let cuts = CutTree::balanced_from_points(bounds.clone(), 1, &[]);
        let codes: Vec<BitCode> = cuts.leaves().into_iter().map(|(code, _)| code).collect();
        let mut n = node_with(cuts, &[], &[]);
        let cost = n.cfg.dac_cost;
        let mut out = Out::new();
        n.enqueue(
            DacJob::Write(WriteOp {
                index: "t".into(),
                version: 0,
                rows: (0..5000)
                    .map(|i| Record::new(vec![i % 256, i / 256, 0]))
                    .collect(),
                sent_at: 0,
                routed_to: n.overlay.code(),
                acker: NodeId(1),
                op_id: 0,
            }),
            &mut out,
        );
        n.enqueue(
            DacJob::Scan {
                query_id: 7,
                index: "t".into(),
                version: 0,
                codes,
                rect: bounds,
                filters: Vec::new(),
                origin: NodeId(1),
            },
            &mut out,
        );

        let mut out = Out::new();
        assert!(n.handle_dac_timer(1, KIND_DAC_TICK, &mut out));
        assert!(out.sends.is_empty(), "no answer before the batch is paid");
        let [(delay, tok, _)] = out.timers[..] else {
            panic!("one batch-release timer, got {:?}", out.timers);
        };
        assert_eq!(tok, token(KIND_BATCH, 0));
        assert!(
            delay >= cost.per_insert * 5000 + cost.per_query,
            "queued inserts dominate, got {delay}"
        );

        let mut out = Out::new();
        assert!(n.handle_dac_timer(1 + delay, KIND_BATCH, &mut out));
        let [(NodeId(1), OverlayMsg::Direct { payload })] = &out.sends[..] else {
            panic!("one direct answer to the origin, got {:?}", out.sends);
        };
        let MindPayload::QueryResponse {
            query_id, answers, ..
        } = payload
        else {
            panic!("a query response, got {payload:?}");
        };
        assert_eq!(*query_id, 7);
        assert_eq!(
            answers.iter().map(|(_, rows)| rows.len()).sum::<usize>(),
            5000
        );
    }

    /// The wire pin: a one-row op is an `Insert` on its way to the primary
    /// and a `Replica` on its way on, and a receiver treats a peer's
    /// one-row `InsertBatch` as the very same op.
    #[test]
    fn one_row_travels_as_insert_and_replica_and_applies_like_a_one_row_batch() {
        let bounds = HyperRect::new(vec![0, 0], vec![SIDE, SIDE]);
        let cuts = CutTree::balanced_from_points(bounds, 3, &[]);
        let row = Record::new(vec![200, 200, 5]);
        let mut sender = node_at(0, cuts.clone(), Replication::Level(1));
        let mut out = Out::new();
        sender.insert(10, "t", row.clone(), &mut out).unwrap();
        let [(NodeId(1), frame)] = &out.sends[..] else {
            panic!("one frame to the owner, got {:?}", out.sends);
        };
        let mut as_batch = frame.clone();
        let OverlayMsg::Route { payload, .. } = &mut as_batch else {
            panic!("a routed frame, got {frame:?}");
        };
        let MindPayload::Insert {
            index,
            version,
            record,
            origin,
            sent_at,
            op_id,
            horizon,
        } = payload.clone()
        else {
            panic!("one row leaves as a plain Insert, got {payload:?}");
        };
        *payload = MindPayload::InsertBatch {
            index,
            version,
            records: vec![record],
            origin,
            sent_at,
            op_id,
            horizon,
        };
        let applied = |frame: OverlayMsg<MindPayload>| {
            let mut primary = node_at(1, cuts.clone(), Replication::Level(1));
            primary.on_message(20, NodeId(0), frame, &mut Out::new());
            let sends = run_dac(&mut primary);
            let left = (
                format!("{sends:?}"),
                contents(&*primary.indexes["t"].versions[0].primary),
                primary.metrics.insert_latencies.clone(),
                primary.seen_ops.contains(op_id),
            );
            (sends, left)
        };
        let (sends, left) = applied(frame.clone());
        let [(NodeId(0), MindPayload::Ack { op_id: acked }), (NodeId(0), MindPayload::Replica { record, .. })] =
            &sends[..]
        else {
            panic!("an ack, then one plain Replica to the takeover neighbor, got {sends:?}");
        };
        assert_eq!((*acked, record), (op_id, &row));
        assert_eq!(left.1 .1, vec![row.values().to_vec()]);
        assert_eq!(left, applied(as_batch).1);
    }

    /// `metrics_samples_max` bounds both sample vectors: at 0 a routed op
    /// is still stored and acked but leaves no latency or hop sample; at
    /// the default it leaves one of each.
    #[test]
    fn sample_cap_zero_keeps_no_latency_or_hop_sample() {
        let bounds = HyperRect::new(vec![0, 0], vec![SIDE, SIDE]);
        let cuts = CutTree::balanced_from_points(bounds, 3, &[]);
        let mut sender = node_at(0, cuts.clone(), Replication::None);
        let mut out = Out::new();
        let row = Record::new(vec![200, 200, 5]);
        sender.insert(10, "t", row.clone(), &mut out).unwrap();
        let [(NodeId(1), frame)] = &out.sends[..] else {
            panic!("one frame to the owner, got {:?}", out.sends);
        };
        for (cap, samples) in [(0, 0), (MindConfig::default().metrics_samples_max, 1)] {
            let mut primary = node_at(1, cuts.clone(), Replication::None);
            primary.cfg.metrics_samples_max = cap;
            primary.on_message(20, NodeId(0), frame.clone(), &mut Out::new());
            let sends = run_dac(&mut primary);
            assert!(
                matches!(sends[..], [(NodeId(0), MindPayload::Ack { .. })]),
                "cap {cap}: one ack to the origin, got {sends:?}"
            );
            let (_, stored) = contents(&*primary.indexes["t"].versions[0].primary);
            assert_eq!(stored, vec![row.values().to_vec()], "cap {cap}");
            let m = &primary.metrics;
            assert_eq!(
                (m.insert_latencies.len(), m.insert_hops.len()),
                (samples, samples),
                "cap {cap}"
            );
        }
    }

    /// A peer's rows are checked against the schema before any store sees
    /// them: an `InsertBatch` carrying a row too short to index and one too
    /// long for the slab is dropped whole — nothing stored, nothing
    /// remembered, nothing sent — and its rows are counted.
    #[test]
    fn a_peer_op_with_rows_of_the_wrong_arity_is_dropped_unacked() {
        let bounds = HyperRect::new(vec![0, 0], vec![SIDE, SIDE]);
        let cuts = CutTree::balanced_from_points(bounds, 3, &[]);
        let mut peer = node_at(1, cuts.clone(), Replication::Level(1));
        let mut n = node_at(0, cuts, Replication::Level(1));
        let rows = vec![Record::new(vec![7]), Record::new(vec![7, 7, 7, 7])];
        let (op_id, payload) = peer.insert_op("t".into(), 0, rows, 0);
        assert!(matches!(payload, MindPayload::InsertBatch { .. }));
        let target = n.overlay.code().unwrap();
        let mut out = Out::new();
        n.on_message(
            5,
            NodeId(1),
            OverlayMsg::Route {
                target,
                hops: 1,
                payload,
            },
            &mut out,
        );
        assert!(out.sends.is_empty());
        assert!(run_dac(&mut n).is_empty(), "no ack, no replica push");
        let ver = &n.indexes["t"].versions[0];
        assert_eq!((ver.primary.len(), ver.replicas.len()), (0, 0));
        assert_eq!((ver.primary_rows, ver.replica_rows), (0, 0));
        assert!(!n.seen_ops.contains(op_id));
        assert_eq!(n.metrics.rows_rejected, 2);
    }

    proptest! {
        /// The normalisation is exact: one frame of k rows and k frames
        /// of one row, as a peer's `insert_op`/`replica_op` mint them,
        /// are the same write on the primary side and on the replica
        /// side — same stores, day histogram, trigger notifications,
        /// replica pushes, row counters and latency samples — and each
        /// op is acked once.
        #[test]
        fn one_op_of_k_rows_equals_k_ops_of_one_row(
            rows in arb_rows(1..100),
            replica in any::<bool>(),
            watch in ((0..=SIDE, 0..=SIDE), (0..=SIDE, 0..=SIDE)),
        ) {
            let bounds = HyperRect::new(vec![0, 0], vec![SIDE, SIDE]);
            let ((x0, y0), (x1, y1)) = watch;
            let watch = HyperRect::new(vec![x0.min(x1), y0.min(y1)], vec![x0.max(x1), y0.max(y1)]);
            let apply = |ops: Vec<Vec<Record>>| {
                let cuts = CutTree::balanced_from_points(bounds.clone(), 3, &[]);
                let mut peer = node_at(1, cuts.clone(), Replication::Level(1));
                let mut n = node_at(0, cuts, Replication::Level(1));
                n.triggers.install(Trigger {
                    trigger_id: 9,
                    index: "t".into(),
                    rect: watch.clone(),
                    filters: Vec::new(),
                    origin: NodeId(1),
                });
                for rows in ops {
                    let frame = if replica {
                        let payload = peer.replica_op("t".into(), 0, &rows);
                        OverlayMsg::Direct { payload }
                    } else {
                        let (_, payload) = peer.insert_op("t".into(), 0, rows, 0);
                        OverlayMsg::Route { target: n.overlay.code().unwrap(), hops: 1, payload }
                    };
                    n.on_message(5, NodeId(1), frame, &mut Out::new());
                }
                let (mut acks, mut fired, mut pushed) = (0, Vec::new(), Vec::new());
                for (to, payload) in run_dac(&mut n) {
                    assert_eq!(to, NodeId(1));
                    match payload {
                        MindPayload::Ack { .. } => acks += 1,
                        MindPayload::TriggerFired { record, .. } => fired.push(record),
                        MindPayload::Replica { record, .. } => pushed.push(record),
                        MindPayload::ReplicaBatch { records, .. } => pushed.extend(records),
                        other => panic!("unexpected effect {other:?}"),
                    }
                }
                let state = &n.indexes["t"];
                let ver = &state.versions[0];
                let same = (
                    (contents(&*ver.primary), contents(&*ver.replicas)),
                    state.day_histogram.clone(),
                    (fired, pushed),
                    (ver.primary_rows, ver.replica_rows),
                    n.metrics.insert_latencies.len(),
                );
                (same, acks)
            };
            let k = rows.len();
            let (batched, batched_acks) = apply(vec![rows.clone()]);
            let (singles, singles_acks) = apply(rows.into_iter().map(|r| vec![r]).collect());
            prop_assert_eq!(&batched, &singles);
            prop_assert_eq!((batched_acks, singles_acks), (1, k));
            let stored = if replica { (0, k as u64) } else { (k as u64, 0) };
            prop_assert_eq!(batched.3, stored);
            prop_assert_eq!(batched.4, if replica { 0 } else { k });
        }

        /// The shared scan is exact: per region code it returns the rows
        /// the clipped single-region scan returns, and nothing else.
        #[test]
        fn shared_scan_equals_one_scan_per_code(
            cut_points in prop::collection::vec((0..=SIDE, 0..=SIDE), 0..60),
            depth in 1u8..7,
            primary in arb_rows(0..150),
            replicas in arb_rows(0..150),
            corners in ((0..=SIDE, 0..=SIDE), (0..=SIDE, 0..=SIDE)),
            carried in prop::option::of((0..=SIDE, 0..=SIDE)),
            shape in 0u8..4,
            choices in prop::collection::vec(any::<u8>(), 1..80),
        ) {
            let bounds = HyperRect::new(vec![0, 0], vec![SIDE, SIDE]);
            let points: Vec<[Value; 2]> = cut_points.iter().map(|&(x, y)| [x, y]).collect();
            let points: Vec<&[Value]> = points.iter().map(|p| p.as_slice()).collect();
            let cuts = CutTree::balanced_from_points(bounds, depth, &points);
            let mut codes = Vec::new();
            match shape {
                // One region; every leaf; otherwise a random prefix-free set.
                0 => codes.push(cuts.leaves()[choices[0] as usize % cuts.leaf_count()].0),
                1 => codes.extend(cuts.leaves().into_iter().map(|(code, _)| code)),
                _ => pick(&cuts, BitCode::ROOT, &mut choices.iter().copied().cycle(), &mut codes),
            }
            if choices[0] % 2 == 1 {
                codes.reverse();
            }
            let ((x0, y0), (x1, y1)) = corners;
            let rect = HyperRect::new(vec![x0.min(x1), y0.min(y1)], vec![x0.max(x1), y0.max(y1)]);
            let filters: Vec<CarriedFilter> = carried
                .map(|(a, b)| CarriedFilter { attr: 2, lo: a.min(b), hi: a.max(b) })
                .into_iter()
                .collect();
            let n = node_with(cuts, &primary, &replicas);
            let mut expected: Vec<(BitCode, Vec<Vec<Value>>)> = codes
                .iter()
                .map(|c| (*c, sorted(n.run_scan("t", 0, c, &rect, &filters, false))))
                .collect();
            expected.sort();
            let got: Vec<(BitCode, Vec<Vec<Value>>)> = n
                .run_scan_batch("t", 0, codes, &rect, &filters)
                .into_iter()
                .map(|(c, rows)| (c, sorted(rows)))
                .collect();
            prop_assert_eq!(&got, &expected);
        }
    }
}
