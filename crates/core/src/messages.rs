//! Application-level payloads carried by the overlay.

use mind_histogram::{CutTree, GridHistogram};
use mind_types::node::SimTime;
use mind_types::{BitCode, HyperRect, IndexSchema, NodeId, Record, Replication, WireSize};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A post-filter on any record attribute (indexed or carried), applied at
/// the responding node. This supports Index-3-style predicates on carried
/// attributes such as `dst_port` (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CarriedFilter {
    /// Attribute position in schema order.
    pub attr: usize,
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl CarriedFilter {
    /// `true` if the record passes the filter.
    pub fn accepts(&self, r: &Record) -> bool {
        let v = r.value(self.attr);
        self.lo <= v && v <= self.hi
    }
}

/// A complete index definition, shipped to fresh joiners.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndexDef {
    /// The index schema.
    pub schema: IndexSchema,
    /// Replication level.
    pub replication: Replication,
    /// Every version: `(from_ts, cuts)`, in version order. The trees are
    /// `Arc`-shared with the sender's catalog (serialized transparently,
    /// so the wire format is unchanged).
    pub versions: Vec<(u64, Arc<CutTree>)>,
}

/// The MIND application protocol (carried opaquely by `OverlayMsg`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum MindPayload {
    /// Flooded: instantiate an index on every node with its version-0 cuts.
    CreateIndex {
        /// The index schema.
        schema: IndexSchema,
        /// Data-space cuts for version 0. `Arc`-shared so that in-process
        /// deployments (the simulator's flood fan-out in particular) hold
        /// one tree, not one per recipient.
        cuts: Arc<CutTree>,
        /// Replication level for all inserts into this index.
        replication: Replication,
    },
    /// Flooded: install a new index version whose cuts govern records with
    /// timestamps at or after `from_ts` (Section 3.7 daily re-balancing).
    NewVersion {
        /// Index tag.
        index: String,
        /// Version number (monotonically increasing).
        version: u32,
        /// First timestamp governed by this version.
        from_ts: u64,
        /// The balanced cuts computed from the previous day's histogram
        /// (`Arc`-shared like `CreateIndex::cuts`).
        cuts: Arc<CutTree>,
    },
    /// Flooded: drop all state for an index on every node.
    DropIndex {
        /// Index tag.
        index: String,
    },
    /// Routed to the record's region owner: store one record — the
    /// one-row encoding of a write op, 4 bytes shorter than a one-row
    /// [`MindPayload::InsertBatch`] and applied exactly like one.
    Insert {
        /// Index tag.
        index: String,
        /// Version whose cuts mapped the record.
        version: u32,
        /// The (already schema-conformed) record.
        record: Record,
        /// The inserting node (for the per-monitor metrics of Figure 12).
        origin: NodeId,
        /// When the insert left the origin (for insertion latency).
        sent_at: SimTime,
        /// Idempotency key, unique per origin: the storing node dedups
        /// retried copies on it and acks it back (see DESIGN.md §8).
        op_id: u64,
        /// The origin's settled-op horizon: every op counter of this
        /// origin at or below `horizon` is acked or abandoned, so
        /// receivers may garbage-collect their dedup memory of those ops
        /// (DESIGN.md §10). `0` claims nothing.
        horizon: u64,
    },
    /// Routed to the region owner shared by every carried record: store
    /// the records under **one** frame, one op id, one ack, and one
    /// horizon update. The origin's batcher (`reliability.rs`) only
    /// coalesces records that conformed to the same index, version, and
    /// routing code, so a batch routes exactly like each of its records
    /// would have alone. `insert_op` picks this encoding for two rows or
    /// more.
    InsertBatch {
        /// Index tag.
        index: String,
        /// Version whose cuts mapped every record in the batch.
        version: u32,
        /// The (already schema-conformed) records, in origin insert order.
        records: Vec<Record>,
        /// The inserting node (for the per-monitor metrics of Figure 12).
        origin: NodeId,
        /// When the batch left the origin — the *oldest* record's
        /// enqueue time, so batching shows up honestly in insert latency.
        sent_at: SimTime,
        /// One idempotency key for the whole batch: the storing node
        /// applies all records or none, dedups retries, and acks once.
        op_id: u64,
        /// The origin's settled-op horizon (see
        /// [`MindPayload::Insert::horizon`]).
        horizon: u64,
    },
    /// Direct to a prefix neighbor: store a replica copy — the one-row
    /// encoding of a replica push (`replica_op` picks it by row count).
    Replica {
        /// Index tag.
        index: String,
        /// Version the record belongs to.
        version: u32,
        /// The record.
        record: Record,
        /// Idempotency key, unique per pushing primary; acked back to it.
        op_id: u64,
        /// The pushing primary's settled-op horizon (see
        /// [`MindPayload::Insert::horizon`]).
        horizon: u64,
    },
    /// Direct to a prefix neighbor: store replica copies of every record
    /// of an applied op — one push, one op id, one ack per replica
    /// target, however many records the primary just applied for it.
    ReplicaBatch {
        /// Index tag.
        index: String,
        /// Version the records belong to.
        version: u32,
        /// The records, in the order the primary applied them.
        records: Vec<Record>,
        /// Idempotency key, unique per pushing primary; acked back to it.
        op_id: u64,
        /// The pushing primary's settled-op horizon (see
        /// [`MindPayload::Insert::horizon`]).
        horizon: u64,
    },
    /// Direct to the sender of an `Insert`/`InsertBatch`/`Replica`/
    /// `ReplicaBatch`: the record(s) are durably applied (or were
    /// already — acks are re-sent for deduped retries, since the first
    /// ack may itself have been lost). A batch is acked by its single
    /// batch op id.
    Ack {
        /// The acknowledged operation.
        op_id: u64,
    },
    /// Routed to the owner of the query's covering prefix: split me.
    RootQuery {
        /// Query id (unique per origin).
        query_id: u64,
        /// Index tag.
        index: String,
        /// Version to consult.
        version: u32,
        /// The query hyper-rectangle over the indexed dimensions.
        rect: HyperRect,
        /// Post-filters on carried attributes.
        filters: Vec<CarriedFilter>,
        /// The originating node (receives plan and responses directly).
        origin: NodeId,
    },
    /// Routed to the owner of a group of covering regions: answer for
    /// them (Section 3.6, "split into sub-queries, one per node"). The
    /// sender groups the covering codes it does not answer itself by their
    /// prefix at its own overlay depth and routes one `SubQuery` per group
    /// toward that prefix, so on a balanced overlay a node receives every
    /// region it owns in one frame. A receiver that owns only part of the
    /// prefix (a deeper node on an unbalanced overlay, or one answering
    /// through a claimed region) answers its share and re-groups the rest
    /// strictly deeper than the prefix it was routed under, so the
    /// hand-over ends at the single code (DESIGN.md §14).
    SubQuery {
        /// Query id.
        query_id: u64,
        /// Index tag.
        index: String,
        /// Version to consult.
        version: u32,
        /// The covering regions this sub-query asks for: prefix-free, all
        /// extending the routing target (a single code shorter than the
        /// sender's grouping depth travels alone, routed by itself).
        codes: Vec<BitCode>,
        /// The full query rectangle (responders clip to their regions).
        rect: HyperRect,
        /// Post-filters on carried attributes.
        filters: Vec<CarriedFilter>,
        /// The originating node.
        origin: NodeId,
    },
    /// Direct to the originator: the covering codes the query was split
    /// into, so the originator can detect completion (Section 3.6).
    ///
    /// On an unbalanced overlay a sub-query region can span several nodes;
    /// the node that receives such a sub-query *refines* it — splits the
    /// region code one level and announces the replacement atomically via
    /// `replaces` (the replaced code counts as answered, its children as
    /// newly expected), so the originator's completion accounting stays
    /// exact.
    QueryPlan {
        /// Query id.
        query_id: u64,
        /// Version this plan covers.
        version: u32,
        /// The sub-query region codes.
        codes: Vec<BitCode>,
        /// For refinements: the coarser code these codes replace.
        replaces: Option<BitCode>,
    },
    /// Direct to the originator: the answers of one store scan at the
    /// responder — every region one sub-query asked it for, each with its
    /// (possibly empty — negative) rows, so the originator's completion
    /// accounting stays per `(version, code)`.
    QueryResponse {
        /// Query id.
        query_id: u64,
        /// Version answered.
        version: u32,
        /// The responding node.
        responder: NodeId,
        /// Per region code answered, its matching records (empty =
        /// negative response). A row appears under exactly one code.
        answers: Vec<(BitCode, Vec<Record>)>,
    },
    /// Flooded: install a standing query on every node; any node that
    /// stores a matching primary record notifies the trigger's origin
    /// directly (footnote 1 / on-line detection).
    CreateTrigger {
        /// The trigger definition.
        trigger: crate::trigger::Trigger,
    },
    /// Flooded: remove a standing query everywhere.
    DropTrigger {
        /// The trigger to remove.
        trigger_id: u64,
    },
    /// Direct to the trigger's origin: a record just matched.
    TriggerFired {
        /// The trigger that matched.
        trigger_id: u64,
        /// The node that stored the record.
        at: NodeId,
        /// The matching record.
        record: Record,
    },
    /// Direct from a fresh joiner to its acceptor: send me the current
    /// set of defined indices and standing queries (Section 3.4: "when
    /// nodes join the overlay, they obtain the current set of defined
    /// indices from the neighbor to which they attach").
    CatalogRequest,
    /// Direct to a round-robin neighbor (the periodic anti-entropy tick,
    /// DESIGN.md §16): the sender's catalog digest. The receiver replies
    /// with a full [`MindPayload::CatalogResponse`] only when its own
    /// digest differs, so a converged overlay's steady-state anti-entropy
    /// traffic is a 12-byte frame per tick instead of every schema and
    /// every version's cut tree. Fresh joiners still send
    /// [`MindPayload::CatalogRequest`] — they have nothing to compare.
    CatalogDigest {
        /// FNV-1a digest of the sender's catalog (indices, versions,
        /// triggers) over the codec byte layout
        /// ([`mind_types::wire::Fnv1a`]).
        digest: u64,
    },
    /// Direct reply to a [`MindPayload::CatalogRequest`] (or to a
    /// [`MindPayload::CatalogDigest`] that did not match).
    CatalogResponse {
        /// Every index: schema, replication, and all versions' cuts.
        indexes: Vec<IndexDef>,
        /// Every installed standing query.
        triggers: Vec<crate::trigger::Trigger>,
    },
    /// Direct from a fresh joiner to its acceptor: answer this sub-query
    /// from the historical data you retained for my region (Section 3.4:
    /// "data already stored in existing indices are not moved from the
    /// sibling to the joiner. Rather, the joiner maintains a pointer to
    /// the sibling and forwards queries to it").
    HandoffScan {
        /// Correlates the reply with the joiner's pending sub-query.
        handoff_id: u64,
        /// Index tag.
        index: String,
        /// Version to consult.
        version: u32,
        /// The region being answered.
        code: BitCode,
        /// The query rectangle.
        rect: HyperRect,
        /// Carried-attribute filters.
        filters: Vec<CarriedFilter>,
    },
    /// Direct reply to a [`MindPayload::HandoffScan`].
    HandoffRecords {
        /// Echo of the handoff id.
        handoff_id: u64,
        /// The sibling's matching historical records.
        records: Vec<Record>,
    },
    /// Routed to the designated collector (owner of the all-zeros code):
    /// one node's local data distribution for the day (Section 3.7).
    HistReport {
        /// Index tag.
        index: String,
        /// Day number.
        day: u64,
        /// The reporting node.
        reporter: NodeId,
        /// Its local histogram.
        hist: GridHistogram,
    },
}

/// Exact encoded size of the header an `Insert` and an `InsertBatch`
/// share under the `mind-net` codec: enum variant tag (4), length-
/// prefixed index tag (4 + bytes), `version` (4), `origin` (4),
/// `sent_at` (8), `op_id` (8), `horizon` (8). Computed once here so the
/// single and batched paths can never disagree on what a header costs —
/// the whole point of batching is amortizing exactly these bytes.
fn insert_header_size(index: &str) -> usize {
    4 + (4 + index.len()) + 4 + 4 + 8 + 8 + 8
}

/// Exact encoded size of the header a `Replica` and a `ReplicaBatch`
/// share: variant tag (4), length-prefixed index tag (4 + bytes),
/// `version` (4), `op_id` (8), `horizon` (8).
fn replica_header_size(index: &str) -> usize {
    4 + (4 + index.len()) + 4 + 8 + 8
}

/// Exact encoded size of a record sequence: `u32` count + each record's
/// own exact encoding ([`Record::wire_size`] is exact under the codec).
fn records_size(records: &[Record]) -> usize {
    4 + records.iter().map(Record::wire_size).sum::<usize>()
}

impl WireSize for MindPayload {
    /// Exact `mind_net::wire` encoded size of this payload.
    ///
    /// The insert plane (the per-record hot path, where batching amortizes
    /// framing) is O(1)-per-record arithmetic over the shared header
    /// helpers above, pinned against the encoder for every variant by
    /// `mind-net`'s `wire_size_is_exact_for_every_payload_kind` test; every
    /// other variant is counted by the encoder itself
    /// ([`mind_types::wire::serialized_len`]), so it cannot drift.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a size, not a dispatch: the encoder sizes every variant not listed"
    )]
    fn wire_size(&self) -> usize {
        match self {
            MindPayload::Insert { index, record, .. } => {
                insert_header_size(index) + record.wire_size()
            }
            MindPayload::InsertBatch { index, records, .. } => {
                insert_header_size(index) + records_size(records)
            }
            MindPayload::Replica { index, record, .. } => {
                replica_header_size(index) + record.wire_size()
            }
            MindPayload::ReplicaBatch { index, records, .. } => {
                replica_header_size(index) + records_size(records)
            }
            other => mind_types::wire::serialized_len(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carried_filter_bounds_inclusive() {
        let f = CarriedFilter {
            attr: 1,
            lo: 10,
            hi: 20,
        };
        assert!(f.accepts(&Record::new(vec![0, 10])));
        assert!(f.accepts(&Record::new(vec![0, 20])));
        assert!(!f.accepts(&Record::new(vec![0, 9])));
        assert!(!f.accepts(&Record::new(vec![0, 21])));
    }

    #[test]
    fn response_size_scales_with_records() {
        let response = |records| MindPayload::QueryResponse {
            query_id: 1,
            version: 0,
            responder: NodeId(0),
            answers: vec![(BitCode::ROOT, records)],
        };
        let empty = response(vec![]);
        let full = response((0..100).map(|i| Record::new(vec![i, i, i])).collect());
        assert!(full.wire_size() > empty.wire_size() + 2000);
    }
}
