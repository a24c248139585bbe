//! Reliable delivery (DESIGN.md §8) and bounded dedup state (§10).
//!
//! Every write op — the rows of one insert or replica frame — carries an
//! *op id* (origin node ∥ 24-bit counter) and is retried with exponential
//! backoff until acked or the retry budget runs out. Receivers remember
//! applied op ids so a retried copy is re-acked instead of double-stored.
//! [`MindNode::insert_op`] and [`MindNode::replica_op`] are where an op
//! gets its id and its wire shape: one row travels as `Insert`/`Replica`,
//! more as `InsertBatch`/`ReplicaBatch` (4 bytes a frame saved on the
//! one-row case); the receiving node applies all four the same way.
//!
//! The remembered set is **bounded** by a horizon protocol: every outgoing
//! op also carries the origin's *settled horizon* — the counter below
//! which all of its ops are acked or abandoned. A receiver keeps, per
//! origin, only the horizon and the applied counters above it, so its
//! dedup memory is O(origin's in-flight ops), not O(ops ever applied).
//!
//! The horizon's assumption — an origin's counters are monotone — breaks
//! when an origin *process* restarts and counts from zero again: its
//! fresh ops would sit below the remembered horizon and be re-acked as
//! duplicates without ever being applied (silent row loss). The high 40
//! bits of the wire horizon field therefore carry the origin's *boot
//! epoch* ([`crate::node::MindConfig::boot_id`]): a receiver that sees a
//! newer boot resets that origin's dedup memory, and ops from an older
//! boot are stale-incarnation duplicates by definition. Simulated nodes
//! keep the default boot id 0, so sim wire bytes are unchanged.

use crate::messages::MindPayload;
use crate::node::{token, MindNode, Out};
use mind_overlay::OverlayMsg;
use mind_types::node::{SimTime, TimerId};
use mind_types::{BitCode, NodeId, Record};
use std::collections::{BTreeMap, BTreeSet};

// The retry-class timer kinds are private: no other module can arm or
// match them and bypass the ack/retry state machine.
const KIND_OP_RETRY: u64 = 4;
const KIND_ANTI_ENTROPY: u64 = 6;
/// Age-flush timer for a partially filled wire insert batch.
const KIND_BATCH_FLUSH: u64 = 7;
/// This module's timer kinds, for `node.rs`'s build-time disjointness
/// check.
pub(crate) const TIMER_KINDS: [u64; 3] = [KIND_OP_RETRY, KIND_ANTI_ENTROPY, KIND_BATCH_FLUSH];

/// Op-id counters occupy the low 24 bits; the origin node id sits above.
const OP_COUNTER_MASK: u64 = 0xFF_FFFF;

fn op_origin(op_id: u64) -> u64 {
    op_id >> 24
}

fn op_counter(op_id: u64) -> u64 {
    op_id & OP_COUNTER_MASK
}

/// Splits a wire horizon field into (boot epoch, settled counter).
fn split_horizon(field: u64) -> (u64, u64) {
    (field >> 24, field & OP_COUNTER_MASK)
}

/// Where an unacked operation goes when re-sent.
#[derive(Debug, Clone)]
pub(crate) enum OpTarget {
    /// Re-route through the overlay toward a region code (inserts).
    Routed(BitCode),
    /// Re-send directly to a node (replica pushes).
    Direct(NodeId),
}

/// Key of one origin-side insert group: `(index, version, group code
/// length, group code as index)`.
pub(crate) type GroupKey = (String, u32, u8, u64);

/// What released an insert frame from the origin-side batcher.
#[derive(Debug, Clone, Copy)]
enum FlushCause {
    /// Nothing of the group was in flight: the row left at once.
    Idle,
    /// The group's last outstanding op was acked or abandoned.
    Ack,
    /// The buffer reached `insert_batch_max`.
    Size,
    /// `insert_batch_age` expired (or a driver forced the drain).
    Age,
}

/// Origin-side state of one insert group: the rows of one `(index,
/// version)` whose leaf codes share one prefix of this node's own
/// overlay depth — on a balanced overlay, one owner (the ingest fast
/// path, DESIGN.md §14). Rows buffer here only while an earlier frame of
/// the group is unacked; the entry lives while it has buffered rows or
/// unacked frames.
#[derive(Debug)]
pub(crate) struct WireBatch {
    /// The routing target: the common prefix of every row's leaf code.
    code: BitCode,
    /// Buffered records, in origin insert order.
    records: Vec<Record>,
    /// When the *oldest* buffered record was enqueued — becomes the
    /// frame's `sent_at`, so batching delay shows up in insert latency.
    oldest: SimTime,
    /// The armed age-cap timer and its token argument while rows are
    /// buffered; cancelled (and the argument's key mapping dropped) when
    /// another cause ships them first.
    timer: Option<(TimerId, u64)>,
    /// Frames of this group shipped and not yet acked or abandoned.
    in_flight: u32,
}

/// An insert/replica awaiting its ack.
#[derive(Debug)]
pub(crate) struct PendingOp {
    target: OpTarget,
    payload: MindPayload,
    attempts: u32,
    /// The armed retry timer; cancelled when the ack lands.
    timer: TimerId,
    /// The insert group whose in-flight count this op holds up, if the
    /// origin-side batcher shipped it.
    group: Option<GroupKey>,
}

/// Applied-op memory of one origin: the origin's boot epoch, a settled
/// horizon within that boot, and the applied counters above it.
#[derive(Debug, Default)]
struct OriginSeen {
    boot: u64,
    horizon: u64,
    recent: BTreeSet<u64>,
}

/// The receiver side of op dedup, bounded via the horizon protocol.
#[derive(Debug, Default)]
pub(crate) struct SeenOps {
    by_origin: BTreeMap<u64, OriginSeen>,
}

impl SeenOps {
    /// The single receive-path entry point: folds the op's carried
    /// boot/horizon into this origin's memory, then reports whether the
    /// op was already applied here. `true` means re-ack, don't apply —
    /// either the op is remembered directly, settled at its origin (at or
    /// below the horizon: its origin stopped retrying it, so a fresh copy
    /// can only be a stale duplicate still in flight), or it was sent by
    /// a dead incarnation of the origin (older boot epoch: that process
    /// is gone, nothing retries its ops, so in-flight copies are safe to
    /// drop). A *newer* boot epoch resets the origin's memory — the
    /// restarted process counts from zero again, and its fresh low
    /// counters must not be mistaken for settled old ones.
    pub(crate) fn observe(&mut self, op_id: u64, horizon_field: u64) -> bool {
        let (boot, horizon) = split_horizon(horizon_field);
        let o = self.by_origin.entry(op_origin(op_id)).or_default();
        if boot > o.boot {
            o.boot = boot;
            o.horizon = 0;
            o.recent.clear();
        } else if boot < o.boot {
            return true;
        }
        if horizon > o.horizon {
            o.horizon = horizon;
            o.recent.retain(|&c| c > horizon);
        }
        op_counter(op_id) <= o.horizon || o.recent.contains(&op_counter(op_id))
    }

    /// Re-check under the currently remembered state (the DAC apply-time
    /// guard; the boot/horizon folding already happened on receive).
    pub(crate) fn contains(&self, op_id: u64) -> bool {
        self.by_origin.get(&op_origin(op_id)).is_some_and(|o| {
            op_counter(op_id) <= o.horizon || o.recent.contains(&op_counter(op_id))
        })
    }

    /// Records an applied op.
    pub(crate) fn insert(&mut self, op_id: u64) {
        let o = self.by_origin.entry(op_origin(op_id)).or_default();
        if op_counter(op_id) > o.horizon {
            o.recent.insert(op_counter(op_id));
        }
    }

    /// Number of individually remembered op counters (the bounded part).
    pub(crate) fn len(&self) -> usize {
        self.by_origin.values().map(|o| o.recent.len()).sum()
    }

    /// Forgets everything (crash recovery: the rows died with the stores).
    pub(crate) fn clear(&mut self) {
        self.by_origin.clear();
    }
}

impl MindNode {
    /// A fresh idempotency key, unique per origin (node id ∥ counter,
    /// within the 48-bit timer-argument budget). The counter is reserved
    /// as live until the op settles, pinning the horizon below it.
    pub(crate) fn next_op_id(&mut self) -> u64 {
        // Pre-increment: the id 0 is reserved as the "no tracking" sentinel
        // (node 0's op 0 would otherwise collide with it and lose dedup).
        self.op_seq += 1;
        let id =
            (((self.id().0 as u64) << 24) | (self.op_seq & OP_COUNTER_MASK)) & 0xFFFF_FFFF_FFFF;
        self.live_op_counters.insert(op_counter(id));
        id
    }

    /// This node's wire horizon field: the boot epoch in the high bits,
    /// and below it the settled-op horizon — every counter at or below it
    /// is acked or abandoned.
    pub(crate) fn op_horizon(&self) -> u64 {
        let boot = (self.cfg.boot_id & 0xFF_FFFF_FFFF) << 24;
        let settled = match self.live_op_counters.first() {
            Some(&min) => min - 1,
            None => self.op_seq & OP_COUNTER_MASK,
        };
        boot | (settled & OP_COUNTER_MASK)
    }

    /// Re-stamps the horizon carried by an op about to be (re)sent.
    pub(crate) fn stamp_horizon(payload: &mut MindPayload, horizon: u64) {
        if let MindPayload::Insert { horizon: h, .. }
        | MindPayload::InsertBatch { horizon: h, .. }
        | MindPayload::Replica { horizon: h, .. }
        | MindPayload::ReplicaBatch { horizon: h, .. } = payload
        {
            *h = horizon;
        }
    }

    /// Marks an op settled (acked or abandoned), letting the horizon
    /// advance past it.
    fn settle_op(&mut self, op_id: u64) {
        self.live_op_counters.remove(&op_counter(op_id));
    }

    // ---- origin-side wire batching (the ingest fast path, DESIGN.md §14) ----

    /// Hands one conformed record to the batcher. Rows are grouped by
    /// their leaf code cut to this node's own overlay depth — the unit of
    /// delivery is a node, and on a balanced overlay that prefix names
    /// exactly one (a deeper or claim-answering receiver re-splits, see
    /// `dac_drive`). `insert_batch_age` is a cap, not a wait: a row whose
    /// group has nothing unacked leaves at once; rows arriving behind an
    /// unacked frame accumulate and leave on its ack, at
    /// `insert_batch_max` rows, or when the age expires, whichever is
    /// first. Only called when batching is enabled
    /// (`insert_batch_max > 1`).
    pub(crate) fn buffer_wire_insert(
        &mut self,
        now: SimTime,
        index: String,
        version: u32,
        leaf: BitCode,
        record: Record,
        out: &mut Out,
    ) {
        let own_len = self.overlay.code().map_or(0, |c| c.len());
        let code = leaf.prefix(own_len.min(leaf.len()));
        let key: GroupKey = (index, version, code.len(), code.as_index());
        let Some(group) = self.wire_batches.get_mut(&key) else {
            self.wire_batches.insert(
                key.clone(),
                WireBatch {
                    code,
                    records: vec![record],
                    oldest: now,
                    timer: None,
                    in_flight: 0,
                },
            );
            self.ship_wire_batch(now, key, FlushCause::Idle, out);
            return;
        };
        let first = group.records.is_empty();
        if first {
            group.oldest = now;
        }
        group.records.push(record);
        if group.records.len() >= self.cfg.insert_batch_max {
            self.ship_wire_batch(now, key, FlushCause::Size, out);
        } else if first {
            self.arm_batch_age(key, out);
        }
    }

    /// Arms the age cap for a group that just buffered its first row.
    fn arm_batch_age(&mut self, key: GroupKey, out: &mut Out) {
        let arg = self.wire_batch_seq & 0xFFFF_FFFF_FFFF;
        self.wire_batch_seq += 1;
        let timer = out.set_timer(self.cfg.insert_batch_age, token(KIND_BATCH_FLUSH, arg));
        if let Some(group) = self.wire_batches.get_mut(&key) {
            group.timer = Some((timer, arg));
        }
        self.wire_batch_keys.insert(arg, key);
    }

    /// Ships a group's buffered rows toward their owner as one op and
    /// retires the age timer; a no-op on an empty buffer.
    fn ship_wire_batch(&mut self, now: SimTime, key: GroupKey, cause: FlushCause, out: &mut Out) {
        let Some(group) = self.wire_batches.get_mut(&key) else {
            return;
        };
        if group.records.is_empty() {
            return;
        }
        let records = std::mem::take(&mut group.records);
        let (code, oldest) = (group.code, group.oldest);
        if let Some((timer, arg)) = group.timer.take() {
            out.cancel_timer(timer);
            self.wire_batch_keys.remove(&arg);
        }
        group.in_flight += 1;
        let frames = &mut self.metrics.insert_frames;
        match cause {
            FlushCause::Idle => frames.idle += 1,
            FlushCause::Ack => frames.ack += 1,
            FlushCause::Size => frames.size += 1,
            FlushCause::Age => frames.age += 1,
        }
        let (op_id, payload) = self.insert_op(key.0.clone(), key.1, records, oldest);
        self.launch_insert_op(now, code, op_id, payload, Some(key), out);
    }

    /// An op the batcher shipped was acked or abandoned: once the group
    /// has nothing left in flight, whatever queued up behind leaves.
    fn wire_group_settled(&mut self, now: SimTime, key: GroupKey, out: &mut Out) {
        let Some(group) = self.wire_batches.get_mut(&key) else {
            return;
        };
        group.in_flight = group.in_flight.saturating_sub(1);
        if group.in_flight > 0 {
            return;
        }
        if group.records.is_empty() {
            self.wire_batches.remove(&key);
        } else {
            self.ship_wire_batch(now, key, FlushCause::Ack, out);
        }
    }

    /// Age-cap timer fired: ship the group the argument maps to, if
    /// another cause has not already claimed its rows.
    fn flush_wire_batch(&mut self, now: SimTime, flush_arg: u64, out: &mut Out) {
        if let Some(key) = self.wire_batch_keys.remove(&flush_arg) {
            if let Some(group) = self.wire_batches.get_mut(&key) {
                group.timer = None; // this firing consumed it
            }
            self.ship_wire_batch(now, key, FlushCause::Age, out);
        }
    }

    /// Force-ships every buffered row immediately (deterministic key
    /// order; counted as age flushes — the driver declared the cap
    /// reached). Lets drivers drain buffered inserts without waiting out
    /// the age timers — a no-op when batching is off.
    pub fn flush_inserts(&mut self, now: SimTime, out: &mut Out) {
        let open: Vec<GroupKey> = self
            .wire_batches
            .iter()
            .filter(|(_, g)| !g.records.is_empty())
            .map(|(k, _)| k.clone())
            .collect();
        for key in open {
            self.ship_wire_batch(now, key, FlushCause::Age, out);
        }
    }

    /// Records currently buffered in open wire batches (not yet sent).
    pub fn buffered_inserts(&self) -> usize {
        self.wire_batches.values().map(|b| b.records.len()).sum()
    }

    /// Reserves a fresh op id for `records` (non-empty, all bound to one
    /// routing target) and builds their payload: one record is a plain
    /// `Insert` (no batch framing overhead), anything larger an
    /// `InsertBatch`. `sent_at` is when the oldest row entered the
    /// system, at this node or — for re-split rows — at their origin.
    pub(crate) fn insert_op(
        &mut self,
        index: String,
        version: u32,
        mut records: Vec<Record>,
        sent_at: SimTime,
    ) -> (u64, MindPayload) {
        debug_assert!(!records.is_empty(), "an insert op carries at least one row");
        let op_id = self.next_op_id();
        // Horizon read *after* reserving the op's counter, so the payload
        // never claims its own op as settled.
        let horizon = self.op_horizon();
        let origin = self.id();
        let payload = if records.len() == 1 {
            MindPayload::Insert {
                index,
                version,
                record: records.remove(0),
                origin,
                sent_at,
                op_id,
                horizon,
            }
        } else {
            self.metrics.insert_batches_sent += 1;
            MindPayload::InsertBatch {
                index,
                version,
                records,
                origin,
                sent_at,
                op_id,
                horizon,
            }
        };
        (op_id, payload)
    }

    /// The replica twin of [`MindNode::insert_op`]: reserves a fresh op
    /// id for a push of `records` (non-empty — what the primary just
    /// stored) to one takeover neighbor and builds its payload, a plain
    /// `Replica` for one record, a `ReplicaBatch` for more. Copies the
    /// records: every target gets its own, and the primary keeps the
    /// originals to store.
    pub(crate) fn replica_op(
        &mut self,
        index: String,
        version: u32,
        records: &[Record],
    ) -> MindPayload {
        let op_id = self.next_op_id();
        let horizon = self.op_horizon();
        match records {
            [record] => MindPayload::Replica {
                index,
                version,
                record: record.clone(),
                op_id,
                horizon,
            },
            _ => MindPayload::ReplicaBatch {
                index,
                version,
                records: records.to_vec(),
                op_id,
                horizon,
            },
        }
    }

    /// Arms ack tracking for an insert op and routes it toward `target`.
    pub(crate) fn launch_insert_op(
        &mut self,
        now: SimTime,
        target: BitCode,
        op_id: u64,
        payload: MindPayload,
        group: Option<GroupKey>,
        out: &mut Out,
    ) {
        self.track_op(op_id, OpTarget::Routed(target), payload.clone(), group, out);
        let events = self.overlay.route(now, target, payload, out);
        self.process_events(now, events, out);
    }

    /// Registers an operation for ack tracking and arms its retry timer.
    pub(crate) fn track_op(
        &mut self,
        op_id: u64,
        target: OpTarget,
        payload: MindPayload,
        group: Option<GroupKey>,
        out: &mut Out,
    ) {
        let timer = out.set_timer(self.cfg.retry_timeout, token(KIND_OP_RETRY, op_id));
        self.pending_ops.insert(
            op_id,
            PendingOp {
                target,
                payload,
                attempts: 0,
                timer,
                group,
            },
        );
    }

    /// Re-sends an unacked operation, with exponential backoff, until the
    /// retry budget runs out (then the op is abandoned and settles).
    fn retry_op(&mut self, now: SimTime, op_id: u64, out: &mut Out) {
        let horizon = self.op_horizon();
        let max_retries = self.cfg.max_retries;
        let retry_timeout = self.cfg.retry_timeout;
        let Some(op) = self.pending_ops.get_mut(&op_id) else {
            return; // acked in the meantime
        };
        if op.attempts >= max_retries {
            let group = self.pending_ops.remove(&op_id).and_then(|op| op.group);
            self.settle_op(op_id);
            self.metrics.retries_exhausted += 1;
            if let Some(key) = group {
                self.wire_group_settled(now, key, out);
            }
            return;
        }
        op.attempts += 1;
        let attempts = op.attempts;
        // Re-arm before re-sending, so a synchronous local ack on the
        // resend path cancels the *new* timer.
        op.timer = out.set_timer(
            retry_timeout << attempts.min(6),
            token(KIND_OP_RETRY, op_id),
        );
        let mut payload = op.payload.clone();
        Self::stamp_horizon(&mut payload, horizon);
        let target = op.target.clone();
        self.metrics.retries_sent += 1;
        match target {
            OpTarget::Routed(code) => {
                let events = self.overlay.route(now, code, payload, out);
                self.process_events(now, events, out);
            }
            OpTarget::Direct(node) => out.send(node, OverlayMsg::Direct { payload }),
        }
    }

    /// Handles a received (or loopback) ack: settles the op, cancels its
    /// pending retry timer, and lets the batcher release what queued up
    /// behind it.
    pub(crate) fn on_ack(&mut self, now: SimTime, op_id: u64, out: &mut Out) {
        if let Some(op) = self.pending_ops.remove(&op_id) {
            self.settle_op(op_id);
            self.metrics.acks_received += 1;
            out.cancel_timer(op.timer);
            if let Some(key) = op.group {
                self.wire_group_settled(now, key, out);
            }
        }
    }

    /// Queues an `Ack` for direct delivery (loopback-safe).
    pub(crate) fn send_ack(&mut self, now: SimTime, to: NodeId, op_id: u64, out: &mut Out) {
        if to == self.id() {
            self.on_ack(now, op_id, out);
        } else {
            out.send(
                to,
                OverlayMsg::Direct {
                    payload: MindPayload::Ack { op_id },
                },
            );
        }
    }

    /// Arms the recurring anti-entropy timer (called from `on_start`).
    pub(crate) fn arm_anti_entropy(&mut self, out: &mut Out) {
        if self.cfg.anti_entropy_interval > 0 {
            out.set_timer(self.cfg.anti_entropy_interval, token(KIND_ANTI_ENTROPY, 0));
        }
    }

    /// Periodically reconciles the index/trigger catalog with one neighbor
    /// (round-robin): heals CreateIndex/NewVersion/CreateTrigger floods
    /// lost to the network, since CatalogResponse installation is
    /// idempotent. The tick sends the local catalog *digest* (12 wire
    /// bytes); the peer ships its full catalog back only on mismatch, so
    /// a converged overlay pays O(1) bytes per node per tick instead of
    /// re-cloning every schema and cut tree (DESIGN.md §16). Healing is
    /// symmetric across two tick directions: whichever side is behind
    /// receives the full catalog when the *other* side's digest arrives.
    fn anti_entropy_tick(&mut self, out: &mut Out) {
        let peers = self.overlay.all_neighbor_targets();
        if !peers.is_empty() {
            let pick = peers[(self.anti_entropy_rr as usize) % peers.len()];
            self.anti_entropy_rr += 1;
            let digest = self.catalog_digest();
            self.metrics.catalog_digests_sent += 1;
            out.send(
                pick,
                OverlayMsg::Direct {
                    payload: MindPayload::CatalogDigest { digest },
                },
            );
        }
        self.arm_anti_entropy(out);
    }

    /// Dedup state size: individually remembered applied-op counters
    /// across all origins. Bounded by the senders' in-flight ops — the
    /// chaos suite asserts this stays flat under churn.
    pub fn seen_ops_len(&self) -> usize {
        self.seen_ops.len()
    }

    /// Operations awaiting their ack.
    pub fn pending_ops_len(&self) -> usize {
        self.pending_ops.len()
    }

    /// Handles reliability-class timers; `true` if `kind` was ours.
    pub(crate) fn handle_reliability_timer(
        &mut self,
        now: SimTime,
        kind: u64,
        arg: u64,
        out: &mut Out,
    ) -> bool {
        match kind {
            KIND_OP_RETRY => self.retry_op(now, arg, out),
            KIND_ANTI_ENTROPY => self.anti_entropy_tick(out),
            KIND_BATCH_FLUSH => self.flush_wire_batch(now, arg, out),
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(origin: u64, counter: u64) -> u64 {
        (origin << 24) | counter
    }

    fn hz(boot: u64, settled: u64) -> u64 {
        (boot << 24) | settled
    }

    // ---- the batcher's flush rule, on one node with a hand-driven outbox ----

    use crate::messages::Replication;
    use crate::node::MindConfig;
    use mind_histogram::CutTree;
    use mind_overlay::{OverlayConfig, StaticTopology};
    use mind_types::node::{NodeLogic, MILLIS, SECONDS};
    use mind_types::{AttrDef, AttrKind, IndexSchema};

    const MAX: usize = 4;
    const AGE: SimTime = 5 * MILLIS;

    /// Node 0 (code `0`) of a two-node overlay with index "t" installed;
    /// every row of [`far`] belongs to node 1 (code `1`).
    fn origin() -> (MindNode, Out) {
        let topo = StaticTopology::balanced(2);
        let cfg = MindConfig {
            insert_batch_max: MAX,
            insert_batch_age: AGE,
            retry_timeout: SECONDS,
            ..MindConfig::default()
        };
        let mut n = MindNode::new_static(
            NodeId(0),
            topo.code(0),
            topo.neighbor_entries(0),
            OverlayConfig::default(),
            cfg,
        );
        let mut out = Out::new();
        let schema = IndexSchema::new("t", vec![AttrDef::new("x", AttrKind::Generic, 0, 1023)], 1);
        let cuts = CutTree::even(schema.bounds(), 4);
        n.create_index(schema, cuts, Replication::None, &mut out)
            .unwrap();
        out.drain();
        (n, out)
    }

    /// Row `i` of the far half: distinct leaves, one owner.
    fn far(i: u64) -> Record {
        Record::new(vec![512 + 37 * i])
    }

    /// The insert frames in `out`, as `(op id, rows)`, plus the armed
    /// age-cap timers `(token, id)` and the cancelled timer ids.
    #[allow(clippy::type_complexity)]
    fn drain(out: &mut Out) -> (Vec<(u64, usize)>, Vec<(u64, TimerId)>, Vec<TimerId>) {
        let fx = out.drain();
        let mut frames = Vec::new();
        for (to, msg) in fx.sends {
            let OverlayMsg::Route {
                target, payload, ..
            } = msg
            else {
                continue;
            };
            assert_eq!(to, NodeId(1));
            assert_eq!(
                target,
                BitCode::parse("1").unwrap(),
                "addressed to the owner"
            );
            match payload {
                MindPayload::Insert { op_id, .. } => frames.push((op_id, 1)),
                MindPayload::InsertBatch { op_id, records, .. } => {
                    frames.push((op_id, records.len()));
                }
                other => panic!("unexpected routed payload {other:?}"),
            }
        }
        let ages = fx
            .timers
            .into_iter()
            .filter(|&(_, tok, _)| (tok >> 48) & 0xFF == KIND_BATCH_FLUSH)
            .map(|(delay, tok, id)| {
                assert_eq!(delay, AGE);
                (tok, id)
            })
            .collect();
        (frames, ages, fx.cancels)
    }

    fn ack(n: &mut MindNode, now: SimTime, op_id: u64, out: &mut Out) {
        let payload = MindPayload::Ack { op_id };
        n.on_message(now, NodeId(1), OverlayMsg::Direct { payload }, out);
    }

    #[test]
    fn idle_group_ships_at_once_and_the_ack_releases_what_queued_behind() {
        let (mut n, mut out) = origin();
        n.insert(10, "t", far(0), &mut out).unwrap();
        let (frames, ages, _) = drain(&mut out);
        assert_eq!(frames.len(), 1, "row 1 never waits");
        assert_eq!(frames[0].1, 1, "and leaves as a plain Insert");
        assert!(ages.is_empty(), "nothing buffered, no age timer");
        let first = frames[0].0;

        n.insert(20, "t", far(1), &mut out).unwrap();
        n.insert(30, "t", far(2), &mut out).unwrap();
        let (frames, ages, _) = drain(&mut out);
        assert!(frames.is_empty(), "rows behind an unacked frame accumulate");
        assert_eq!(ages.len(), 1, "one age cap per buffered run");
        assert_eq!(n.buffered_inserts(), 2);

        ack(&mut n, 300, first, &mut out);
        let (frames, _, cancels) = drain(&mut out);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].1, 2, "rows 2..k leave as one InsertBatch");
        assert!(
            cancels.contains(&ages[0].1),
            "the ack won: age timer retired"
        );
        assert_eq!(n.buffered_inserts(), 0);
        // The retired timer firing anyway (a driver that lost the race)
        // ships nothing twice.
        n.on_timer(5_020, ages[0].0, &mut out);
        assert!(drain(&mut out).0.is_empty());

        ack(&mut n, 600, frames[0].0, &mut out);
        assert!(n.wire_batches.is_empty(), "a settled group leaves no state");
        let f = n.metrics.insert_frames;
        assert_eq!((f.idle, f.ack, f.size, f.age), (1, 1, 0, 0));
        assert_eq!(n.metrics.insert_rows_forwarded, 0);
    }

    #[test]
    fn full_frames_pipeline_behind_an_unacked_one() {
        let (mut n, mut out) = origin();
        for i in 0..(1 + 2 * MAX as u64 + 1) {
            n.insert(10 + i, "t", far(i), &mut out).unwrap();
        }
        let (frames, ages, cancels) = drain(&mut out);
        let rows: Vec<usize> = frames.iter().map(|f| f.1).collect();
        assert_eq!(rows, vec![1, MAX, MAX], "size flushes do not wait for acks");
        assert_eq!(n.buffered_inserts(), 1);
        assert_eq!(ages.len(), 3, "each buffered run armed its own cap");
        assert_eq!(cancels.len(), 2, "and each size flush retired one");
        // Only the *last* outstanding ack releases the straggler.
        ack(&mut n, 400, frames[0].0, &mut out);
        ack(&mut n, 410, frames[1].0, &mut out);
        assert!(drain(&mut out).0.is_empty());
        ack(&mut n, 420, frames[2].0, &mut out);
        let (frames, _, _) = drain(&mut out);
        assert_eq!(frames.iter().map(|f| f.1).collect::<Vec<_>>(), vec![1]);
        let f = n.metrics.insert_frames;
        assert_eq!((f.idle, f.ack, f.size, f.age), (1, 1, 2, 0));
    }

    #[test]
    fn a_lost_ack_still_ships_on_the_age_cap_exactly_once() {
        let (mut n, mut out) = origin();
        n.insert(10, "t", far(0), &mut out).unwrap();
        let first = drain(&mut out).0[0].0;
        n.insert(20, "t", far(1), &mut out).unwrap();
        n.insert(30, "t", far(2), &mut out).unwrap();
        let (_, ages, _) = drain(&mut out);
        // The ack never comes; the cap fires.
        n.on_timer(20 + AGE, ages[0].0, &mut out);
        let (frames, _, cancels) = drain(&mut out);
        assert_eq!(frames.iter().map(|f| f.1).collect::<Vec<_>>(), vec![2]);
        assert!(
            !cancels.contains(&ages[0].1),
            "a fired timer is not cancelled"
        );
        // The first frame's ack (a retry's, say) arrives late: the group
        // still has the second frame out and nothing buffered.
        ack(&mut n, 9_000, first, &mut out);
        assert!(drain(&mut out).0.is_empty(), "shipped once, not again");
        let f = n.metrics.insert_frames;
        assert_eq!((f.idle, f.ack, f.size, f.age), (1, 0, 0, 1));
    }

    #[test]
    fn an_abandoned_frame_releases_the_group_like_an_ack() {
        let (mut n, mut out) = origin();
        n.cfg.max_retries = 0;
        n.insert(10, "t", far(0), &mut out).unwrap();
        let first = drain(&mut out).0[0].0;
        n.insert(20, "t", far(1), &mut out).unwrap();
        drain(&mut out);
        n.on_timer(SECONDS + 10, token(KIND_OP_RETRY, first), &mut out);
        assert_eq!(n.metrics.retries_exhausted, 1);
        let (frames, _, _) = drain(&mut out);
        assert_eq!(frames.iter().map(|f| f.1).collect::<Vec<_>>(), vec![1]);
        assert_eq!(n.metrics.insert_frames.ack, 1);
    }

    #[test]
    fn forced_drain_counts_and_ships_buffered_rows() {
        let (mut n, mut out) = origin();
        for i in 0..3 {
            n.insert(10 + i, "t", far(i), &mut out).unwrap();
        }
        let (_, ages, _) = drain(&mut out);
        assert_eq!(n.buffered_inserts(), 2);
        n.flush_inserts(50, &mut out);
        let (frames, _, cancels) = drain(&mut out);
        assert_eq!(frames.iter().map(|f| f.1).collect::<Vec<_>>(), vec![2]);
        assert_eq!(cancels, vec![ages[0].1]);
        assert_eq!(n.buffered_inserts(), 0);
        n.flush_inserts(60, &mut out);
        assert!(drain(&mut out).0.is_empty(), "nothing left to drain");
        assert_eq!(n.pending_ops_len(), 2, "both frames still tracked");
    }

    #[test]
    fn a_crash_clears_buffers_and_in_flight_counts() {
        let (mut n, mut out) = origin();
        n.on_start(0, &mut out);
        for i in 0..3 {
            n.insert(10 + i, "t", far(i), &mut out).unwrap();
        }
        let (frames, ages, _) = drain(&mut out);
        assert!(!n.wire_batches.is_empty() && n.pending_ops_len() == 1);
        // A second `on_start` is the restart after a crash.
        n.on_start(SECONDS, &mut out);
        assert!(n.wire_batches.is_empty() && n.wire_batch_keys.is_empty());
        assert_eq!((n.buffered_inserts(), n.pending_ops_len()), (0, 0));
        // Stragglers of the old incarnation find nothing to act on.
        ack(&mut n, SECONDS + 1, frames[0].0, &mut out);
        n.on_timer(SECONDS + 2, ages[0].0, &mut out);
        assert!(drain(&mut out).0.is_empty());
    }

    #[test]
    fn seen_ops_dedups_and_bounds() {
        let mut s = SeenOps::default();
        assert!(!s.observe(id(7, 3), hz(0, 0)));
        s.insert(id(7, 3));
        s.insert(id(7, 4));
        assert!(s.observe(id(7, 3), hz(0, 0)));
        assert_eq!(s.len(), 2);
        // Horizon 4 settles both; the memory is reclaimed but the ops
        // still read as seen.
        assert!(!s.observe(id(7, 5), hz(0, 4)));
        assert_eq!(s.len(), 0);
        assert!(s.observe(id(7, 3), hz(0, 4)));
        assert!(s.observe(id(7, 4), hz(0, 4)));
        assert!(!s.observe(id(7, 5), hz(0, 4)));
    }

    #[test]
    fn horizons_are_per_origin_and_monotonic() {
        let mut s = SeenOps::default();
        assert!(s.observe(id(1, 5), hz(0, 8)));
        assert!(!s.observe(id(2, 5), hz(0, 0)));
        // A stale (lower) horizon never regresses.
        assert!(s.observe(id(1, 8), hz(0, 3)));
        // Counters above the horizon are only seen if remembered.
        s.insert(id(1, 12));
        assert!(s.observe(id(1, 12), hz(0, 8)));
        assert!(!s.observe(id(1, 11), hz(0, 8)));
    }

    #[test]
    fn unknown_origin_is_never_seen() {
        let s = SeenOps::default();
        assert!(!s.contains(id(42, 1)));
    }

    #[test]
    fn newer_boot_resets_origin_memory() {
        let mut s = SeenOps::default();
        // Boot 100: counters up to 50 settled, 60 applied and remembered.
        assert!(!s.observe(id(3, 60), hz(100, 50)));
        s.insert(id(3, 60));
        assert!(s.observe(id(3, 42), hz(100, 50)));
        assert!(s.observe(id(3, 60), hz(100, 50)));
        // The origin restarts (boot 101) and counts from zero again: its
        // low fresh counters must NOT read as settled old ones.
        assert!(!s.observe(id(3, 1), hz(101, 0)));
        s.insert(id(3, 1));
        assert_eq!(s.len(), 1);
        // Its own retries still dedup within the new boot.
        assert!(s.observe(id(3, 1), hz(101, 0)));
        // A straggler from the dead incarnation is a stale duplicate.
        assert!(s.observe(id(3, 61), hz(100, 50)));
    }
}
