//! The MIND node: overlay + index management + DAC storage queue.
//!
//! A [`MindNode`] is the complete per-host system of Figure 6: the overlay
//! communication component on one side, the index/data management stack on
//! the other, glued by an event-driven dispatcher. It implements the MIND
//! interface of Section 3.2 — `create_index`, `drop_index`,
//! `insert_record`, `query_index` — callable on any node.
//!
//! The node is decomposed by protocol concern: reliable delivery and
//! bounded dedup live in [`crate::reliability`], query split/retry/
//! completion in [`crate::query_track`], day-boundary version rollover in
//! [`crate::rollover`], and the batched storage queue in
//! [`crate::dac_drive`]. This module owns the struct, the MIND interface,
//! and the event dispatcher that fans timers out to those concerns.

use crate::dac_drive::{BatchResult, DacJob, PendingHandoff, Via, WriteOp};
use crate::index::IndexState;
use crate::messages::{CarriedFilter, IndexDef, MindPayload};
use crate::metrics::NodeMetrics;
use crate::query::QueryTracker;
use crate::reliability::{op_lifetime, GroupKey, PendingOp, SeenOps, WireBatch};
use crate::trigger::{Trigger, TriggerSet};
use mind_histogram::{CutTree, GridHistogram};
use mind_overlay::{Overlay, OverlayConfig, OverlayEvent, OverlayMsg};
use mind_store::{DacCostModel, StoreKind};
use mind_types::node::{NodeLogic, Outbox, SimTime, SECONDS};
use mind_types::{BitCode, DetHashMap, HyperRect, MindError, NodeId, Record, Replication};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The outbox type every MIND handler writes into.
pub(crate) type Out = Outbox<OverlayMsg<MindPayload>>;

/// Timer-token tag for MIND-level timers (the overlay uses `0xA5`).
const TOKEN_TAG: u64 = 0xB6 << 56;

/// Packs a MIND timer token: tag ∥ kind ∥ 48-bit argument. The kind
/// constants live with the modules that own them (`dac_drive`,
/// `query_track`, `rollover`, `reliability`).
pub(crate) fn token(kind: u64, arg: u64) -> u64 {
    TOKEN_TAG | (kind << 48) | (arg & 0xFFFF_FFFF_FFFF)
}

/// Every MIND timer kind, with the name its census line carries.
/// `reliability` keeps its kinds private and hands over only the list.
const TIMER_KINDS: [(u64, &str); 8] = {
    let [op_retry, anti_entropy, batch_flush] = crate::reliability::TIMER_KINDS;
    [
        (crate::dac_drive::KIND_DAC_TICK, "DacTick"),
        (crate::dac_drive::KIND_BATCH, "DacRelease"),
        (crate::query_track::KIND_QUERY_DEADLINE, "QueryDeadline"),
        (crate::query_track::KIND_QUERY_RETRY, "QueryRetry"),
        (crate::rollover::KIND_COLLECT, "Collect"),
        (op_retry, "OpRetry"),
        (anti_entropy, "AntiEntropy"),
        (batch_flush, "BatchFlush"),
    ]
};

/// MIND's timer kinds by name, indexed by the token's kind field. A kind
/// past the end fails the build; with the collision check below, every
/// slot has a name.
pub(crate) const TIMER_NAMES: [&str; 8] = {
    let mut names = [""; 8];
    let mut i = 0;
    while i < TIMER_KINDS.len() {
        names[TIMER_KINDS[i].0 as usize] = TIMER_KINDS[i].1;
        i += 1;
    }
    names
};

// The token layout, checked by the compiler: every kind fits the 8-bit
// kind field, no two kinds collide (`on_timer` hands a token to the first
// concern that claims its kind), and the tag differs from the overlay's.
const _: () = {
    assert!(
        TOKEN_TAG != mind_overlay::overlay::TOKEN_TAG,
        "timer tag shared with the overlay"
    );
    let mut i = 0;
    while i < TIMER_KINDS.len() {
        assert!(
            TIMER_KINDS[i].0 < 256,
            "timer kind overflows its 8-bit field"
        );
        let mut j = i + 1;
        while j < TIMER_KINDS.len() {
            assert!(
                TIMER_KINDS[i].0 != TIMER_KINDS[j].0,
                "two timer kinds collide"
            );
            j += 1;
        }
        i += 1;
    }
};

/// MIND node configuration.
#[derive(Debug, Clone, Copy)]
pub struct MindConfig {
    /// Storage processing costs (models the prototype's MySQL + JDBC).
    pub dac_cost: DacCostModel,
    /// Store backend for every per-version record store on this node.
    pub store_kind: StoreKind,
    /// Requests processed per DAC batch.
    pub dac_batch_size: usize,
    /// Queries time out (and count as failed) after this long.
    pub query_deadline: SimTime,
    /// Whether the designated collector computes and floods new versions.
    pub auto_versioning: bool,
    /// Base timeout before an unacked write op is re-sent; doubles per
    /// attempt. Must be positive: every op is acked and retried.
    pub retry_timeout: SimTime,
    /// Interval between anti-entropy catalog exchanges with a round-robin
    /// neighbor (heals lost index/version/trigger floods). `0` disables.
    pub anti_entropy_interval: SimTime,
    /// Ingest fast path: records of one index and version bound for the
    /// same owner (their leaf codes share one prefix of this node's own
    /// overlay depth) that arrive while an earlier frame to that owner is
    /// unacked are coalesced into one write op of up to this many records
    /// (one frame, one op id, one ack). At `1` (the default) nothing is
    /// grouped: every insert leaves immediately as a one-row op routed to
    /// its leaf code.
    pub insert_batch_max: usize,
    /// The longest a buffered row may wait for its group's unacked frame
    /// before it is shipped anyway — a cap, not a wait: rows whose group
    /// has nothing in flight leave at the end of the driver pass that
    /// took them, as one frame, and an ack releases whatever queued up
    /// behind it. Ignored while `insert_batch_max <= 1`.
    pub insert_batch_age: SimTime,
    /// This node's boot epoch, carried in the high 40 bits of the wire
    /// horizon field. A process runtime sets it to something strictly
    /// increasing across restarts of the same node id (e.g. wall-clock
    /// milliseconds at startup), so peers can tell a restarted origin
    /// that counts ops from zero again apart from a stale duplicate of
    /// the old incarnation (see `crate::reliability`). Simulated nodes
    /// keep the default `0` — a crash/revive there resumes the same
    /// logic object, whose op counter never regresses.
    pub boot_id: u64,
    /// Cap on the per-node insert latency/hop sample vectors
    /// ([`NodeMetrics::insert_latencies`] / `insert_hops`). The figure
    /// experiments keep the unlimited default; large-scale benchmarks set
    /// a finite cap so per-node memory stays bounded as worlds grow
    /// (samples past the cap are dropped, the scalar counters still move),
    /// and the long-lived `mind-node` process keeps none (`0`).
    pub metrics_samples_max: usize,
}

impl Default for MindConfig {
    fn default() -> Self {
        MindConfig {
            dac_cost: DacCostModel::default(),
            store_kind: StoreKind::KdTree,
            dac_batch_size: 64,
            query_deadline: 60 * SECONDS,
            auto_versioning: true,
            retry_timeout: 5 * SECONDS,
            anti_entropy_interval: 45 * SECONDS,
            insert_batch_max: 1,
            insert_batch_age: SECONDS / 20,
            boot_id: 0,
            metrics_samples_max: usize::MAX,
        }
    }
}

/// A complete MIND node.
pub struct MindNode {
    id: NodeId,
    pub(crate) cfg: MindConfig,
    pub(crate) overlay: Overlay<MindPayload>,
    pub(crate) indexes: BTreeMap<String, IndexState>,
    // DAC (crate::dac_drive)
    pub(crate) dac_queue: VecDeque<DacJob>,
    pub(crate) dac_busy: bool,
    /// The processed batch waiting out its modelled cost.
    pub(crate) pending_batch: Option<BatchResult>,
    // origin-side wire batching (crate::reliability)
    /// Insert groups with buffered rows or unacked frames — a `BTreeMap`
    /// so a bulk drain walks them in a replay-stable order.
    pub(crate) wire_batches: BTreeMap<GroupKey, WireBatch>,
    /// Age-timer argument → group key (the 48-bit timer budget cannot
    /// carry the key itself).
    pub(crate) wire_batch_keys: DetHashMap<u64, GroupKey>,
    pub(crate) wire_batch_seq: u64,
    // reliable delivery + bounded dedup (crate::reliability)
    pub(crate) op_seq: u64,
    pub(crate) pending_ops: DetHashMap<u64, PendingOp>,
    pub(crate) seen_ops: SeenOps,
    /// Sequence numbers (`op_seq` values, never wrapped) of this node's
    /// own unsettled ops; their minimum pins the horizon advertised to
    /// receivers (DESIGN.md §10).
    pub(crate) live_op_seqs: BTreeSet<u64>,
    pub(crate) anti_entropy_rr: u64,
    /// Memoized catalog digest for the anti-entropy exchange; cleared by
    /// every catalog mutation (index/version/trigger installs and drops),
    /// recomputed lazily on the next tick or digest receipt. Catalog
    /// changes are rare (index creation, daily rollover), so steady-state
    /// anti-entropy never re-walks the cut trees.
    catalog_digest_cache: Option<u64>,
    // queries (crate::query_track)
    pub(crate) query_seq: u64,
    /// Reused covering-code buffer for root-query splits: the flat cut
    /// tree fills it in place, so steady-state query routing allocates
    /// only for the outgoing plan message.
    pub(crate) cover_scratch: Vec<BitCode>,
    /// In-flight and finished query trackers, by query id.
    pub queries: DetHashMap<u64, QueryTracker>,
    // join-time data handoff (Section 3.4)
    pub(crate) handoff: Option<(NodeId, SimTime)>,
    pub(crate) handoff_seq: u64,
    pub(crate) pending_handoffs: DetHashMap<u64, PendingHandoff>,
    /// Set by a restart, cleared by the next catalog transfer: the catalog
    /// kept across the crash may hold drops this node missed while down,
    /// so that transfer replaces it instead of merging into it, and until
    /// then this node answers no `CatalogDigest` with it.
    catalog_stale: bool,
    // standing queries
    pub(crate) triggers: TriggerSet,
    trigger_seq: u64,
    /// Notifications received for triggers this node subscribed:
    /// `(trigger_id, storing node, record)`.
    pub trigger_log: Vec<(u64, NodeId, Record)>,
    // histogram collection (collector role, crate::rollover)
    pub(crate) collect_seq: u64,
    pub(crate) collecting: DetHashMap<u64, (String, u64, GridHistogram, usize)>,
    pub(crate) collect_keys: DetHashMap<(String, u64), u64>,
    /// Metrics this node accumulated.
    pub metrics: NodeMetrics,
}

impl MindNode {
    /// A node on a statically constructed overlay.
    pub fn new_static(
        id: NodeId,
        code: BitCode,
        entries: Vec<mind_overlay::NeighborEntry>,
        overlay_cfg: OverlayConfig,
        cfg: MindConfig,
    ) -> Self {
        Self::with_overlay(id, Overlay::new_static(id, code, entries, overlay_cfg), cfg)
    }

    /// The first node of a dynamically grown overlay.
    pub fn new_root(id: NodeId, overlay_cfg: OverlayConfig, cfg: MindConfig) -> Self {
        Self::with_overlay(id, Overlay::new_root(id, overlay_cfg), cfg)
    }

    /// A node that joins through `bootstrap` at startup.
    pub fn new_joiner(
        id: NodeId,
        bootstrap: NodeId,
        overlay_cfg: OverlayConfig,
        cfg: MindConfig,
    ) -> Self {
        Self::with_overlay(id, Overlay::new_joiner(id, bootstrap, overlay_cfg), cfg)
    }

    fn with_overlay(id: NodeId, overlay: Overlay<MindPayload>, cfg: MindConfig) -> Self {
        assert!(
            cfg.retry_timeout > 0,
            "retry_timeout must be positive: every write op is acked and retried"
        );
        let seen_ops = SeenOps::new(op_lifetime(cfg.retry_timeout));
        MindNode {
            id,
            overlay: overlay.with_boot(cfg.boot_id),
            cfg,
            indexes: BTreeMap::new(),
            dac_queue: VecDeque::new(),
            dac_busy: false,
            pending_batch: None,
            wire_batches: BTreeMap::new(),
            wire_batch_keys: DetHashMap::default(),
            wire_batch_seq: 0,
            op_seq: 0,
            pending_ops: DetHashMap::default(),
            seen_ops,
            live_op_seqs: BTreeSet::new(),
            anti_entropy_rr: 0,
            catalog_digest_cache: None,
            query_seq: 0,
            cover_scratch: Vec::new(),
            queries: DetHashMap::default(),
            handoff: None,
            handoff_seq: 0,
            pending_handoffs: DetHashMap::default(),
            catalog_stale: false,
            triggers: TriggerSet::new(),
            trigger_seq: 0,
            trigger_log: Vec::new(),
            collect_seq: 0,
            collecting: DetHashMap::default(),
            collect_keys: DetHashMap::default(),
            metrics: NodeMetrics::default(),
        }
    }

    /// Discards state that cannot survive a crash: in-flight DAC jobs,
    /// query trackers (their deadline timers died with the old
    /// incarnation), handoff and collection protocols, and every in-memory
    /// row store. The index *catalog* (schemas, cut trees, version
    /// numbering) is kept, marked stale: the first catalog transfer after
    /// the restart (the acceptor's answer when the rejoin completes)
    /// replaces it.
    fn reset_after_restart(&mut self) {
        self.dac_queue.clear();
        self.dac_busy = false;
        self.pending_batch = None;
        // Buffered-but-unsent rows die with the crash (their op ids were
        // never reserved, so nothing retries them) — same loss semantics
        // as records sitting in the DAC queue — and with them each
        // group's count of frames in flight.
        self.wire_batches.clear();
        self.wire_batch_keys.clear();
        self.pending_ops.clear();
        // The crash abandoned every in-flight op (their retry timers died
        // with the old incarnation): settle them all, so the horizon
        // advertised after restart advances past them.
        self.live_op_seqs.clear();
        // Forget applied op ids too: the rows died with the stores, so a
        // retried op must be stored again, not deduped into data loss.
        self.seen_ops.clear();
        self.queries.clear();
        self.handoff = None;
        self.pending_handoffs.clear();
        self.catalog_stale = true;
        self.collecting.clear();
        self.collect_keys.clear();
        for state in self.indexes.values_mut() {
            state.reset_stores();
        }
    }

    /// This node's transport address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The overlay component (read-only; for inspection).
    pub fn overlay(&self) -> &Overlay<MindPayload> {
        &self.overlay
    }

    /// Local state of an index, if created.
    pub fn index_state(&self, tag: &str) -> Option<&IndexState> {
        self.indexes.get(tag)
    }

    /// Tags of all indices known to this node.
    pub fn index_tags(&self) -> Vec<String> {
        let mut v: Vec<String> = self.indexes.keys().cloned().collect();
        v.sort();
        v
    }

    /// Digest of this node's catalog — every index's schema, replication
    /// and versions plus every installed trigger — streamed through the
    /// codec-layout hash without materializing a response message. Two
    /// nodes whose `CatalogResponse` payloads would carry the same bytes
    /// agree on this value; flood-delivery order is normalized (indices
    /// iterate a `BTreeMap`, triggers are digested in id order).
    pub fn catalog_digest(&mut self) -> u64 {
        if let Some(d) = self.catalog_digest_cache {
            return d;
        }
        let d = self.compute_catalog_digest();
        self.catalog_digest_cache = Some(d);
        d
    }

    /// The uncached digest walk — also usable through shared references
    /// (test inspection of a running world).
    pub fn compute_catalog_digest(&self) -> u64 {
        let mut dig = mind_types::wire::Fnv1a::default();
        dig.absorb(&(self.indexes.len() as u32));
        for (tag, st) in &self.indexes {
            dig.absorb(tag);
            dig.absorb(&st.schema);
            dig.absorb(&st.replication);
            dig.absorb(&(st.versions.len() as u32));
            for v in &st.versions {
                dig.absorb(&v.from_ts);
                dig.absorb(&v.cuts);
            }
        }
        let mut triggers = self.triggers.all();
        triggers.sort_by_key(|t| t.trigger_id);
        dig.absorb(&(triggers.len() as u32));
        for t in &triggers {
            dig.absorb(t);
        }
        dig.finish()
    }

    /// Drops the memoized catalog digest; called by every mutation of the
    /// index/trigger catalog.
    fn invalidate_catalog_digest(&mut self) {
        self.catalog_digest_cache = None;
    }

    /// The full catalog transfer: every index definition and every
    /// standing query — sent to fresh joiners and to anti-entropy peers
    /// whose digest disagreed with ours.
    fn catalog_response(&self) -> MindPayload {
        let indexes: Vec<IndexDef> = self
            .indexes
            .values()
            .map(|st| IndexDef {
                schema: st.schema.clone(),
                replication: st.replication,
                versions: st
                    .versions
                    .iter()
                    .map(|v| (v.from_ts, v.cuts.clone()))
                    .collect(),
            })
            .collect();
        MindPayload::CatalogResponse {
            indexes,
            triggers: self.triggers.all(),
        }
    }

    // ---- the MIND interface (Section 3.2) ----

    /// `create_index`: instantiates `schema` on every overlay node with
    /// version-0 cuts and the given replication level.
    pub fn create_index(
        &mut self,
        schema: mind_types::IndexSchema,
        cuts: CutTree,
        replication: Replication,
        out: &mut Out,
    ) -> Result<(), MindError> {
        if self.indexes.contains_key(&schema.tag) {
            return Err(MindError::IndexExists(schema.tag));
        }
        self.flood(
            MindPayload::CreateIndex {
                schema,
                cuts: std::sync::Arc::new(cuts),
                replication,
            },
            out,
        );
        Ok(())
    }

    /// `drop_index`: removes the index from every node.
    pub fn drop_index(&mut self, tag: &str, out: &mut Out) -> Result<(), MindError> {
        if !self.indexes.contains_key(tag) {
            return Err(MindError::UnknownIndex(tag.to_string()));
        }
        self.flood(
            MindPayload::DropIndex {
                index: tag.to_string(),
            },
            out,
        );
        Ok(())
    }

    /// `insert_record`: validates the record, embeds it through the
    /// governing version's cuts, and routes it to its region owner.
    pub fn insert(
        &mut self,
        now: SimTime,
        index: &str,
        record: Record,
        out: &mut Out,
    ) -> Result<(), MindError> {
        let state = self
            .indexes
            .get(index)
            .ok_or_else(|| MindError::UnknownIndex(index.to_string()))?;
        let record = state.conform(record)?;
        let ts = state.record_ts(&record);
        let version = state.version_for_ts(ts);
        #[expect(
            clippy::expect_used,
            reason = "version_for_ts returns an installed version"
        )]
        let cuts = &state.version(version).expect("version exists").cuts;
        let code = cuts.code_for_point(record.point(state.schema.indexed_dims));
        self.metrics.inserts_originated += 1;
        if self.cfg.insert_batch_max > 1 {
            // Ingest fast path: the batcher groups rows by owner and
            // decides when each group's next frame leaves.
            self.buffer_wire_insert(now, index.to_string(), version, code, record, out);
            return Ok(());
        }
        let (op_id, payload) = self.insert_op(index.to_string(), version, vec![record], now);
        self.launch_insert_op(now, code, op_id, payload, None, out);
        Ok(())
    }

    /// Installs a standing query: any node that stores a matching primary
    /// record will notify this node directly (see [`crate::trigger`]).
    /// Returns the trigger id.
    pub fn create_trigger(
        &mut self,
        index: &str,
        rect: HyperRect,
        filters: Vec<CarriedFilter>,
        out: &mut Out,
    ) -> Result<u64, MindError> {
        let state = self
            .indexes
            .get(index)
            .ok_or_else(|| MindError::UnknownIndex(index.to_string()))?;
        if rect.dims() != state.schema.indexed_dims {
            return Err(MindError::SchemaMismatch {
                index: index.to_string(),
                reason: format!(
                    "trigger has {} dims, index has {}",
                    rect.dims(),
                    state.schema.indexed_dims
                ),
            });
        }
        let trigger_id = ((self.id.0 as u64) << 20) | (self.trigger_seq & 0xF_FFFF);
        self.trigger_seq += 1;
        let trigger = Trigger {
            trigger_id,
            index: index.to_string(),
            rect,
            filters,
            origin: self.id,
        };
        self.flood(MindPayload::CreateTrigger { trigger }, out);
        Ok(trigger_id)
    }

    /// Removes a standing query everywhere.
    pub fn drop_trigger(&mut self, trigger_id: u64, out: &mut Out) {
        self.flood(MindPayload::DropTrigger { trigger_id }, out);
    }

    /// Drops every index version whose governed time range ends before
    /// `before_ts` — the version aging the paper defers ("the pointer
    /// will be dropped once the data have aged", Section 3.4/3.7).
    /// Returns the number of versions garbage-collected locally.
    pub fn gc_versions(&mut self, index: &str, before_ts: u64) -> Result<usize, MindError> {
        let state = self
            .indexes
            .get_mut(index)
            .ok_or_else(|| MindError::UnknownIndex(index.to_string()))?;
        Ok(state.gc_before(before_ts))
    }

    // ---- event plumbing ----

    /// Routes `payload` toward `target`; when routing ends here (this
    /// node answers, or nothing can), the upcall is handled at once.
    pub(crate) fn route(
        &mut self,
        now: SimTime,
        target: BitCode,
        payload: MindPayload,
        out: &mut Out,
    ) {
        let event = self.overlay.route(now, target, payload, out);
        self.process_event(now, event, out);
    }

    /// Sends `payload` straight to node `to`; addressed to this node, it
    /// is handled at once, with no frame.
    pub(crate) fn direct(&mut self, now: SimTime, to: NodeId, payload: MindPayload, out: &mut Out) {
        if to == self.id {
            self.on_direct(now, to, payload, out);
        } else {
            out.send(to, OverlayMsg::Direct { payload });
        }
    }

    /// Floods a catalog change to every other node and applies it here.
    pub(crate) fn flood(&mut self, payload: MindPayload, out: &mut Out) {
        self.overlay.flood(&payload, out);
        self.on_flood(payload);
    }

    /// The dispatcher: hands the one upcall of an overlay step, if any,
    /// to the index/data side.
    fn process_event(
        &mut self,
        now: SimTime,
        event: Option<OverlayEvent<MindPayload>>,
        out: &mut Out,
    ) {
        match event {
            Some(OverlayEvent::Delivered {
                target,
                hops,
                payload,
            }) => self.on_routed(now, target, hops, payload, out),
            Some(OverlayEvent::DirectDelivered { from, payload }) => {
                self.on_direct(now, from, payload, out);
            }
            Some(OverlayEvent::FloodDelivered { payload }) => self.on_flood(payload),
            Some(OverlayEvent::Undeliverable { .. }) => self.metrics.undeliverable += 1,
            Some(OverlayEvent::Joined { acceptor, .. }) => {
                // Section 3.4: fetch the index catalog from the node we
                // attached to, and keep a pointer to it for the region's
                // historical data until it ages.
                self.handoff = Some((acceptor, now));
                out.send(
                    acceptor,
                    OverlayMsg::Direct {
                        payload: MindPayload::CatalogRequest,
                    },
                );
            }
            None => {}
        }
    }

    fn on_flood(&mut self, payload: MindPayload) {
        // Every flood-delivered payload mutates the index/trigger catalog,
        // so the memoized anti-entropy digest is dropped up front.
        self.invalidate_catalog_digest();
        match payload {
            MindPayload::CreateIndex {
                schema,
                cuts,
                replication,
            } => {
                let tag = schema.tag.clone();
                self.indexes.entry(tag).or_insert_with(|| {
                    IndexState::new(schema, cuts, replication, self.cfg.store_kind)
                });
            }
            MindPayload::NewVersion {
                index,
                version,
                from_ts,
                cuts,
            } => {
                if let Some(state) = self.indexes.get_mut(&index) {
                    state.install_version(version, from_ts, cuts);
                }
            }
            MindPayload::DropIndex { index } => {
                self.indexes.remove(&index);
                self.triggers.remove_index(&index);
            }
            MindPayload::CreateTrigger { trigger } => {
                self.triggers.install(trigger);
            }
            MindPayload::DropTrigger { trigger_id } => {
                self.triggers.remove(trigger_id);
            }
            // Routed/direct-only payloads never arrive by flood; listing
            // them keeps this dispatch exhaustive, so a new wire variant
            // must explicitly choose its delivery path here.
            MindPayload::Insert { .. }
            | MindPayload::InsertBatch { .. }
            | MindPayload::Replica { .. }
            | MindPayload::ReplicaBatch { .. }
            | MindPayload::Ack { .. }
            | MindPayload::RootQuery { .. }
            | MindPayload::SubQuery { .. }
            | MindPayload::QueryPlan { .. }
            | MindPayload::QueryResponse { .. }
            | MindPayload::TriggerFired { .. }
            | MindPayload::CatalogRequest
            | MindPayload::CatalogDigest { .. }
            | MindPayload::CatalogResponse { .. }
            | MindPayload::HandoffScan { .. }
            | MindPayload::HandoffRecords { .. }
            | MindPayload::HistReport { .. } => {}
        }
    }

    /// A write op arrived, in any of its four wire shapes, which
    /// [`WriteOp::from_payload`] normalises. One already applied (a retry
    /// whose ack was lost, a network duplicate, or a dead incarnation's
    /// straggler) is re-acked without touching the DAC — the whole op was
    /// applied under one op id, so one check covers every row. Anything
    /// else is queued for [`MindNode::apply_write`]; a routed frame's
    /// overlay path is sampled once per op.
    fn on_write_op(&mut self, now: SimTime, payload: MindPayload, via: Via, out: &mut Out) {
        let Some((op, horizon)) = WriteOp::from_payload(payload, via, now) else {
            debug_assert!(false, "not a write arriving {via:?}");
            return;
        };
        if op.op_id != 0 && self.seen_ops.observe(now, op.op_id, horizon) {
            self.metrics.dup_ops_ignored += 1;
            let ack = MindPayload::Ack { op_id: op.op_id };
            self.direct(now, op.acker, ack, out);
            return;
        }
        if let Via::Routed { hops, .. } = via {
            if self.metrics.insert_hops.len() < self.cfg.metrics_samples_max {
                self.metrics.insert_hops.push(hops);
            }
        }
        self.enqueue(DacJob::Write(op), out);
    }

    /// A routed payload terminated here. `target` is the code it was
    /// routed toward: for inserts, the prefix every carried row's leaf
    /// code extends, for sub-queries the prefix every carried region code
    /// extends — this node may own only part of it (`dac_drive` re-splits
    /// inserts at apply time, `dispatch_subqueries` regions on arrival).
    fn on_routed(
        &mut self,
        now: SimTime,
        target: BitCode,
        hops: u32,
        payload: MindPayload,
        out: &mut Out,
    ) {
        match payload {
            write @ (MindPayload::Insert { .. } | MindPayload::InsertBatch { .. }) => {
                self.on_write_op(now, write, Via::Routed { target, hops }, out);
            }
            MindPayload::RootQuery {
                query_id,
                index,
                version,
                rect,
                filters,
                origin,
            } => {
                self.split_root_query(now, query_id, &index, version, rect, filters, origin, out);
            }
            MindPayload::SubQuery {
                query_id,
                index,
                version,
                codes,
                rect,
                filters,
                origin,
            } => {
                // Whatever of the group is not answered here is re-grouped
                // strictly deeper than the prefix it arrived under.
                self.dispatch_subqueries(
                    now,
                    query_id,
                    &index,
                    version,
                    &codes,
                    target.len() + 1,
                    &rect,
                    &filters,
                    origin,
                    out,
                );
            }
            MindPayload::HistReport {
                index,
                day,
                reporter: _,
                hist,
            } => {
                self.on_hist_report(now, index, day, hist, out);
            }
            // Flooded and direct-only payloads are never routed; listing
            // them keeps this dispatch exhaustive, so a new wire variant
            // must choose its delivery path here.
            other @ (MindPayload::CreateIndex { .. }
            | MindPayload::NewVersion { .. }
            | MindPayload::DropIndex { .. }
            | MindPayload::Replica { .. }
            | MindPayload::ReplicaBatch { .. }
            | MindPayload::Ack { .. }
            | MindPayload::QueryPlan { .. }
            | MindPayload::QueryResponse { .. }
            | MindPayload::CreateTrigger { .. }
            | MindPayload::DropTrigger { .. }
            | MindPayload::TriggerFired { .. }
            | MindPayload::CatalogRequest
            | MindPayload::CatalogDigest { .. }
            | MindPayload::CatalogResponse { .. }
            | MindPayload::HandoffScan { .. }
            | MindPayload::HandoffRecords { .. }) => {
                debug_assert!(false, "unexpected routed payload: {other:?}");
            }
        }
    }

    fn on_direct(&mut self, now: SimTime, from: NodeId, payload: MindPayload, out: &mut Out) {
        match payload {
            // Replica copies skip latency, hop and histogram accounting
            // but share the DAC (they cost real work).
            write @ (MindPayload::Replica { .. } | MindPayload::ReplicaBatch { .. }) => {
                self.on_write_op(now, write, Via::Pushed { from }, out);
            }
            MindPayload::Ack { op_id } => self.on_ack(now, op_id, out),
            MindPayload::TriggerFired {
                trigger_id,
                at,
                record,
            } => {
                self.trigger_log.push((trigger_id, at, record));
            }
            MindPayload::CatalogRequest => {
                out.send(
                    from,
                    OverlayMsg::Direct {
                        payload: self.catalog_response(),
                    },
                );
            }
            MindPayload::CatalogDigest { digest } => {
                // The anti-entropy steady state: digests agree, nothing
                // moves. Only a disagreeing peer costs a full transfer, and
                // a stale catalog is not one to hand out.
                if digest != self.catalog_digest() {
                    self.metrics.catalog_digest_mismatches += 1;
                    if !self.catalog_stale {
                        out.send(
                            from,
                            OverlayMsg::Direct {
                                payload: self.catalog_response(),
                            },
                        );
                    }
                }
            }
            MindPayload::CatalogResponse { indexes, triggers } => {
                self.invalidate_catalog_digest();
                // A transfer only adds, except the first after a restart:
                // what the sender lacks was dropped while this node was
                // down, so it goes, with its triggers.
                if std::mem::take(&mut self.catalog_stale) {
                    self.indexes
                        .retain(|tag, _| indexes.iter().any(|d| d.schema.tag == *tag));
                    self.triggers = TriggerSet::new();
                }
                for def in indexes {
                    let tag = def.schema.tag.clone();
                    let state = self.indexes.entry(tag).or_insert_with(|| {
                        let mut it = def.versions.iter();
                        #[expect(
                            clippy::expect_used,
                            reason = "catalog entries always carry version 0"
                        )]
                        let (_, first_cuts) = it.next().expect("at least version 0").clone();
                        IndexState::new(
                            def.schema.clone(),
                            first_cuts,
                            def.replication,
                            self.cfg.store_kind,
                        )
                    });
                    for (v, (from_ts, cuts)) in def.versions.into_iter().enumerate() {
                        state.install_version(v as u32, from_ts, cuts);
                    }
                }
                for t in triggers {
                    self.triggers.install(t);
                }
            }
            MindPayload::HandoffScan {
                handoff_id,
                index,
                version,
                code,
                rect,
                filters,
            } => {
                // Scan our retained historical rows for the joiner's
                // region — primaries only: replica copies there are echoes
                // of rows whose primaries already answer elsewhere (e.g.
                // the joiner's own post-join inserts replicated back to
                // us, its sibling).
                let records = self.run_scan(&index, version, &code, &rect, &filters, true);
                out.send(
                    from,
                    OverlayMsg::Direct {
                        payload: MindPayload::HandoffRecords {
                            handoff_id,
                            records,
                        },
                    },
                );
            }
            MindPayload::HandoffRecords {
                handoff_id,
                records,
            } => {
                if let Some(p) = self.pending_handoffs.remove(&handoff_id) {
                    let mut merged = p.local;
                    merged.extend(records);
                    let response = MindPayload::QueryResponse {
                        query_id: p.query_id,
                        version: p.version,
                        responder: self.id,
                        answers: vec![(p.code, merged)],
                    };
                    self.direct(now, p.origin, response, out);
                }
            }
            MindPayload::QueryPlan {
                query_id,
                version,
                codes,
                replaces,
            } => {
                if let Some(t) = self.queries.get_mut(&query_id) {
                    t.on_plan(now, version, codes, replaces);
                }
                // An empty or refined plan can complete the query.
                self.settle_query_timers(query_id, out);
            }
            MindPayload::QueryResponse {
                query_id,
                version,
                responder,
                answers,
            } => {
                if let Some(t) = self.queries.get_mut(&query_id) {
                    for (code, records) in answers {
                        t.on_response(now, version, code, responder, records);
                    }
                }
                self.settle_query_timers(query_id, out);
            }
            // Flooded and routed-only payloads never arrive direct.
            other @ (MindPayload::CreateIndex { .. }
            | MindPayload::NewVersion { .. }
            | MindPayload::DropIndex { .. }
            | MindPayload::Insert { .. }
            | MindPayload::InsertBatch { .. }
            | MindPayload::RootQuery { .. }
            | MindPayload::SubQuery { .. }
            | MindPayload::CreateTrigger { .. }
            | MindPayload::DropTrigger { .. }
            | MindPayload::HistReport { .. }) => {
                debug_assert!(false, "unexpected direct payload: {other:?}");
            }
        }
    }
}

impl NodeLogic for MindNode {
    type Msg = OverlayMsg<MindPayload>;

    fn on_start(&mut self, now: SimTime, out: &mut Outbox<Self::Msg>) {
        if self.overlay.on_start(now, out) {
            self.reset_after_restart();
        }
        self.arm_anti_entropy(out);
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg>,
    ) {
        self.metrics.census.count_message(&msg);
        let event = self.overlay.handle(now, from, msg, out);
        self.process_event(now, event, out);
    }

    fn on_timer(&mut self, now: SimTime, tok: u64, out: &mut Outbox<Self::Msg>) {
        // The overlay packs its tokens as `token` does: tag ∥ kind ∥ arg.
        let kind = (tok >> 48) & 0xFF;
        if self.overlay.owns_timer(tok) {
            self.metrics.census.count_timer(true, kind as usize);
            let event = self.overlay.on_timer(now, tok, out);
            self.process_event(now, event, out);
            return;
        }
        if tok & (0xFF << 56) != TOKEN_TAG {
            return;
        }
        self.metrics.census.count_timer(false, kind as usize);
        let arg = tok & 0xFFFF_FFFF_FFFF;
        // Each protocol concern claims its own timer kinds; the chain
        // stops at the first taker.
        let _ = self.handle_dac_timer(now, kind, out)
            || self.handle_query_timer(now, kind, arg, out)
            || self.handle_rollover_timer(kind, arg, out)
            || self.handle_reliability_timer(now, kind, arg, out);
    }
}
