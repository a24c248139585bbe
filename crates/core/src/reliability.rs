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
//! op also carries the origin's *settled horizon* — the counter at or
//! before which all of its ops are acked or abandoned. A receiver keeps,
//! per origin, only the horizon and the applied counters after it, so
//! its dedup memory is O(origin's in-flight ops), not O(ops ever applied).
//!
//! The counter wraps every 2^24 ops, so "before" and "after" are serial
//! number order (RFC 1982): exact while fewer than 2^23 ops leave one
//! origin during the lifetime of one of its ops ([`op_lifetime`]). The
//! origin keeps its live ops as unwrapped sequence numbers and skips
//! counter 0 at each wrap (op id 0 is the untracked sentinel). A receiver
//! starts an origin's memory at the horizon the op carries, when it first
//! hears the origin and again after a silence longer than an op's
//! lifetime, which no copy of an op applied before it can outlast.
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

/// Retry budget of one write op, and of one query's sequence of retry
/// rounds (`crate::query_track`).
pub(crate) const MAX_RETRIES: u32 = 6;

/// Op-id counters occupy the low 24 bits; the origin node id sits above.
const OP_COUNTER_MASK: u64 = 0xFF_FFFF;

/// `a` comes after `b` as a serial number (RFC 1982) in the 24-bit
/// counter space: the step forward from `b` to `a` is nonzero and shorter
/// than half the space. Exact while fewer than 2^23 ops leave one origin
/// during the lifetime of one of its ops.
fn serial_after(a: u64, b: u64) -> bool {
    let step = a.wrapping_sub(b) & OP_COUNTER_MASK;
    step != 0 && step <= OP_COUNTER_MASK >> 1
}

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
    /// Nothing of the group was in flight: the rows left at the end of
    /// the pass that buffered them.
    Idle,
    /// The group's last outstanding op was acked or abandoned.
    Ack,
    /// The buffer reached `insert_batch_max`.
    Size,
    /// `insert_batch_age` expired.
    Age,
}

/// Origin-side state of one insert group: the rows of one `(index,
/// version)` whose leaf codes share one prefix of this node's own
/// overlay depth — on a balanced overlay, one owner (the ingest fast
/// path, DESIGN.md §14). Rows buffer here until the end of the pass
/// that buffered them, or while an earlier frame of the group is
/// unacked; the entry lives while it has buffered rows or unacked
/// frames.
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

/// The longest one op lives, from its first send to the last copy a
/// receiver can get: `MAX_RETRIES` resends on the doubling backoff
/// (`retry_timeout << attempt`) end by `63 * retry_timeout` and the op is
/// abandoned at `127 * retry_timeout`; one more `retry_timeout` covers
/// the last copy's transit.
pub(crate) fn op_lifetime(retry_timeout: SimTime) -> SimTime {
    retry_timeout << (MAX_RETRIES + 1)
}

/// Applied-op memory of one origin: the origin's boot epoch, a settled
/// horizon within that boot, the applied counters after it, and when
/// this node last heard an op of it.
#[derive(Debug)]
struct OriginSeen {
    boot: u64,
    horizon: u64,
    recent: BTreeSet<u64>,
    heard: SimTime,
}

impl OriginSeen {
    /// Settled at the origin (at or before the horizon) or applied here.
    fn seen(&self, counter: u64) -> bool {
        !serial_after(counter, self.horizon) || self.recent.contains(&counter)
    }
}

/// The receiver side of op dedup, bounded via the horizon protocol.
#[derive(Debug)]
pub(crate) struct SeenOps {
    by_origin: BTreeMap<u64, OriginSeen>,
    /// [`op_lifetime`] under this node's `retry_timeout`: an origin
    /// unheard for longer is forgotten.
    lifetime: SimTime,
}

impl SeenOps {
    pub(crate) fn new(lifetime: SimTime) -> Self {
        SeenOps {
            by_origin: BTreeMap::new(),
            lifetime,
        }
    }

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
    /// counters must not be mistaken for settled old ones. So does a
    /// silence from the origin longer than an op's lifetime: no copy of
    /// an op applied before it can still arrive, and the origin may have
    /// sent half the counter space meanwhile. A new origin's memory, or a
    /// reset one's, starts at the horizon the op carries: counters compare
    /// as serial numbers, so a fixed start would make half the counter
    /// space read as settled.
    pub(crate) fn observe(&mut self, now: SimTime, op_id: u64, horizon_field: u64) -> bool {
        let (boot, horizon) = split_horizon(horizon_field);
        let fresh = || OriginSeen {
            boot,
            horizon,
            recent: BTreeSet::new(),
            heard: now,
        };
        let o = self.by_origin.entry(op_origin(op_id)).or_insert_with(fresh);
        if boot < o.boot {
            return true;
        }
        if boot > o.boot || now.saturating_sub(o.heard) > self.lifetime {
            *o = fresh();
        }
        o.heard = now;
        if serial_after(horizon, o.horizon) {
            o.horizon = horizon;
            o.recent.retain(|&c| serial_after(c, horizon));
        }
        o.seen(op_counter(op_id))
    }

    /// Re-check under the currently remembered state (the DAC apply-time
    /// guard; the boot/horizon folding already happened on receive).
    pub(crate) fn contains(&self, op_id: u64) -> bool {
        let origin = self.by_origin.get(&op_origin(op_id));
        origin.is_some_and(|o| o.seen(op_counter(op_id)))
    }

    /// Records an applied op; [`SeenOps::observe`] met its origin first.
    pub(crate) fn insert(&mut self, op_id: u64) {
        let Some(o) = self.by_origin.get_mut(&op_origin(op_id)) else {
            debug_assert!(
                false,
                "op {op_id:#x} applied before its origin was observed"
            );
            return;
        };
        if serial_after(op_counter(op_id), o.horizon) {
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
    /// A fresh idempotency key, unique per origin among its live ops
    /// (node id ∥ counter, within the 48-bit timer-argument budget). The
    /// sequence number is reserved as live until the op settles, pinning
    /// the horizon below it.
    pub(crate) fn next_op_id(&mut self) -> u64 {
        // Pre-increment, and skip counter 0 at every wrap: the id 0 is
        // reserved as the "no tracking" sentinel (node 0's counter 0
        // would otherwise collide with it and lose dedup).
        self.op_seq += 1;
        if self.op_seq & OP_COUNTER_MASK == 0 {
            self.op_seq += 1;
        }
        self.live_op_seqs.insert(self.op_seq);
        (((self.id().0 as u64) << 24) | (self.op_seq & OP_COUNTER_MASK)) & 0xFFFF_FFFF_FFFF
    }

    /// This node's wire horizon field: the boot epoch in the high bits,
    /// and below it the settled-op horizon — every counter at or before it
    /// is acked or abandoned.
    pub(crate) fn op_horizon(&self) -> u64 {
        let boot = (self.cfg.boot_id & 0xFF_FFFF_FFFF) << 24;
        let settled = match self.live_op_seqs.first() {
            Some(&min) => min - 1,
            None => self.op_seq,
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
    /// advance past it. Its counter names the latest sequence number that
    /// ends in it: an op settles before the counter comes round again.
    fn settle_op(&mut self, op_id: u64) {
        let mut seq = (self.op_seq & !OP_COUNTER_MASK) | op_counter(op_id);
        if seq > self.op_seq {
            seq -= OP_COUNTER_MASK + 1;
        }
        self.live_op_seqs.remove(&seq);
    }

    // ---- origin-side wire batching (the ingest fast path, DESIGN.md §14) ----

    /// Hands one conformed record to the batcher. Rows are grouped by
    /// their leaf code cut to this node's own overlay depth — the unit of
    /// delivery is a node, and on a balanced overlay that prefix names
    /// exactly one (a deeper or claim-answering receiver re-splits, see
    /// `dac_drive`). `insert_batch_age` is a cap, not a wait: rows whose
    /// group has nothing unacked leave at the end of the pass that
    /// buffered them (a zero-delay flush timer), every row of that pass
    /// in one frame; rows arriving behind an unacked frame accumulate
    /// and leave on its ack, at `insert_batch_max` rows, or when the age
    /// expires, whichever is first. Only called when batching is enabled
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
            self.arm_batch_flush(key, 0, out);
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
            // An existing group with an empty buffer has a frame in flight.
            self.arm_batch_flush(key, self.cfg.insert_batch_age, out);
        }
    }

    /// Arms the flush of a group that just buffered its first row: 0 (the
    /// end of the pass) for a new group, else the age cap.
    fn arm_batch_flush(&mut self, key: GroupKey, delay: SimTime, out: &mut Out) {
        let arg = self.wire_batch_seq & 0xFFFF_FFFF_FFFF;
        self.wire_batch_seq += 1;
        let timer = out.set_timer(delay, token(KIND_BATCH_FLUSH, arg));
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

    /// Flush timer fired: ship the group the argument maps to, if
    /// another cause has not already claimed its rows — `Idle` with
    /// nothing in flight, else `Age`.
    fn flush_wire_batch(&mut self, now: SimTime, flush_arg: u64, out: &mut Out) {
        if let Some(key) = self.wire_batch_keys.remove(&flush_arg) {
            let Some(group) = self.wire_batches.get_mut(&key) else {
                return;
            };
            group.timer = None; // this firing consumed it
            let cause = if group.in_flight == 0 {
                FlushCause::Idle
            } else {
                FlushCause::Age
            };
            self.ship_wire_batch(now, key, cause, out);
        }
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
        self.route(now, target, payload, out);
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
        let retry_timeout = self.cfg.retry_timeout;
        let Some(op) = self.pending_ops.get_mut(&op_id) else {
            return; // acked in the meantime
        };
        if op.attempts >= MAX_RETRIES {
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
            OpTarget::Routed(code) => self.route(now, code, payload, out),
            OpTarget::Direct(node) => out.send(node, OverlayMsg::Direct { payload }),
        }
    }

    /// Handles an ack, a peer's or this node's own: settles the op,
    /// cancels its pending retry timer, and lets the batcher release what
    /// queued up behind it.
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

    fn seen() -> SeenOps {
        SeenOps::new(op_lifetime(SECONDS))
    }

    // ---- the batcher's flush rule, on one node in the host core both planes run ----

    use crate::node::MindConfig;
    use mind_histogram::CutTree;
    use mind_overlay::{OverlayConfig, StaticTopology};
    use mind_types::host::HostCore;
    use mind_types::node::{Effects, NodeLogic, MILLIS, SECONDS};
    use mind_types::{AttrDef, AttrKind, IndexSchema, Replication};
    use std::ops::Range;

    const MAX: usize = 4;
    const AGE: SimTime = 5 * MILLIS;

    type Fx = Effects<OverlayMsg<MindPayload>>;

    /// Node 0 (code `0`) of a two-node overlay, at most `max` rows a
    /// frame, with index "t" installed; every row of [`far`] belongs to
    /// node 1 (code `1`).
    fn origin(max: usize) -> HostCore<MindNode> {
        let topo = StaticTopology::balanced(2);
        let cfg = MindConfig {
            insert_batch_max: max,
            insert_batch_age: AGE,
            retry_timeout: SECONDS,
            ..MindConfig::default()
        };
        let n = MindNode::new_static(
            NodeId(0),
            topo.code(0),
            topo.neighbor_entries(0),
            OverlayConfig::default(),
            cfg,
        );
        let mut core = HostCore::new(n);
        let schema = IndexSchema::new("t", vec![AttrDef::new("x", AttrKind::Generic, 0, 1023)], 1);
        let cuts = CutTree::even(schema.bounds(), 4);
        core.pass(0, |n, _now, out| {
            n.create_index(schema, cuts, Replication::None, out)
                .unwrap();
        });
        core
    }

    /// Row `i` of the far half: distinct leaves, one owner.
    fn far(i: u64) -> Record {
        Record::new(vec![512 + 37 * i])
    }

    /// One pass that inserts [`far`] rows `rows` at `now`.
    fn insert(core: &mut HostCore<MindNode>, now: SimTime, rows: Range<u64>) -> Fx {
        let ((), fx) = core.pass(now, |n, now, out| {
            for i in rows {
                n.insert(now, "t", far(i), out).unwrap();
            }
        });
        fx
    }

    /// One pass that delivers node 1's ack of `op_id`.
    fn ack(core: &mut HostCore<MindNode>, now: SimTime, op_id: u64) -> Fx {
        let payload = MindPayload::Ack { op_id };
        let msg = OverlayMsg::Direct { payload };
        core.pass(now, |n, now, out| n.on_message(now, NodeId(1), msg, out))
            .1
    }

    /// One pass that fires the timer `tok`.
    fn fire(core: &mut HostCore<MindNode>, now: SimTime, tok: u64) -> Fx {
        core.pass(now, |n, now, out| n.on_timer(now, tok, out)).1
    }

    /// The insert frames of a pass, as `(op id, rows)`, plus the age-cap
    /// timers it armed `(token, id)` and the timer ids it cancelled. A
    /// zero-delay flush fired inside the pass, so none is armed.
    #[expect(
        clippy::type_complexity,
        reason = "frames, armed timers and cancels, drained together"
    )]
    fn drain(fx: Fx) -> (Vec<(u64, usize)>, Vec<(u64, TimerId)>, Vec<TimerId>) {
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

    /// Rows buffered behind unacked frames, not yet sent.
    fn buffered(core: &HostCore<MindNode>) -> usize {
        let batches = core.logic().wire_batches.values();
        batches.map(|b| b.records.len()).sum()
    }

    /// `(idle, ack, size, age)`: what released each insert frame.
    fn causes(core: &HostCore<MindNode>) -> (u64, u64, u64, u64) {
        let f = core.logic().metrics.insert_frames;
        (f.idle, f.ack, f.size, f.age)
    }

    #[test]
    fn idle_group_ships_at_once_and_the_ack_releases_what_queued_behind() {
        let mut core = origin(MAX);
        let (frames, ages, _) = drain(insert(&mut core, 10, 0..1));
        assert_eq!(frames.len(), 1, "row 1 leaves in the pass that took it");
        assert_eq!(frames[0].1, 1, "and leaves as a plain Insert");
        assert!(ages.is_empty(), "nothing buffered, no age timer");
        let first = frames[0].0;

        let (frames, ages, _) = drain(insert(&mut core, 20, 1..3));
        assert!(frames.is_empty(), "rows behind an unacked frame accumulate");
        assert_eq!(ages.len(), 1, "one age cap per buffered run");
        assert_eq!(buffered(&core), 2);

        let (frames, _, cancels) = drain(ack(&mut core, 300, first));
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].1, 2, "rows 2..k leave as one InsertBatch");
        assert!(
            cancels.contains(&ages[0].1),
            "the ack won: age timer retired"
        );
        assert_eq!(buffered(&core), 0);
        // The retired timer firing anyway (a driver that lost the race)
        // ships nothing twice.
        assert!(drain(fire(&mut core, 5_020, ages[0].0)).0.is_empty());

        drain(ack(&mut core, 600, frames[0].0));
        let n = core.logic();
        assert!(n.wire_batches.is_empty(), "a settled group leaves no state");
        assert_eq!(causes(&core), (1, 1, 0, 0));
        assert_eq!(n.metrics.insert_rows_forwarded, 0);
    }

    #[test]
    fn rows_to_an_idle_owner_in_one_pass_leave_as_one_frame() {
        let mut core = origin(64);
        let (frames, ages, cancels) = drain(insert(&mut core, 10, 0..10));
        assert_eq!(frames.iter().map(|f| f.1).collect::<Vec<_>>(), vec![10]);
        assert!(ages.is_empty() && cancels.is_empty());
        assert_eq!((buffered(&core), core.logic().pending_ops_len()), (0, 1));
        assert_eq!(causes(&core), (1, 0, 0, 0));
    }

    #[test]
    fn full_frames_pipeline_behind_an_unacked_one() {
        let mut core = origin(MAX);
        let (mut frames, _, _) = drain(insert(&mut core, 10, 0..1));
        let (behind, ages, cancels) = drain(insert(&mut core, 11, 1..(2 * MAX as u64 + 2)));
        frames.extend(behind);
        let rows: Vec<usize> = frames.iter().map(|f| f.1).collect();
        assert_eq!(rows, vec![1, MAX, MAX], "size flushes do not wait for acks");
        assert_eq!(buffered(&core), 1);
        assert_eq!(ages.len(), 3, "each buffered run armed its own cap");
        assert_eq!(cancels.len(), 2, "and each size flush retired one");
        // Only the *last* outstanding ack releases the straggler.
        assert!(drain(ack(&mut core, 400, frames[0].0)).0.is_empty());
        assert!(drain(ack(&mut core, 410, frames[1].0)).0.is_empty());
        let (frames, _, _) = drain(ack(&mut core, 420, frames[2].0));
        assert_eq!(frames.iter().map(|f| f.1).collect::<Vec<_>>(), vec![1]);
        assert_eq!(causes(&core), (1, 1, 2, 0));
    }

    #[test]
    fn a_lost_ack_still_ships_on_the_age_cap_exactly_once() {
        let mut core = origin(MAX);
        let first = drain(insert(&mut core, 10, 0..1)).0[0].0;
        let (_, ages, _) = drain(insert(&mut core, 20, 1..3));
        // The ack never comes; the cap fires.
        let (frames, _, cancels) = drain(fire(&mut core, 20 + AGE, ages[0].0));
        assert_eq!(frames.iter().map(|f| f.1).collect::<Vec<_>>(), vec![2]);
        assert!(
            !cancels.contains(&ages[0].1),
            "a fired timer is not cancelled"
        );
        // The first frame's ack (a retry's, say) arrives late: the group
        // still has the second frame out and nothing buffered.
        let (frames, _, _) = drain(ack(&mut core, 9_000, first));
        assert!(frames.is_empty(), "shipped once, not again");
        assert_eq!(causes(&core), (1, 0, 0, 1));
    }

    #[test]
    fn an_abandoned_frame_releases_the_group_like_an_ack() {
        let mut core = origin(MAX);
        let first = drain(insert(&mut core, 10, 0..1)).0[0].0;
        drain(insert(&mut core, 20, 1..2));
        let retry = token(KIND_OP_RETRY, first);
        let resent: Vec<(u64, usize)> = (0..MAX_RETRIES)
            .flat_map(|_| drain(fire(&mut core, SECONDS + 10, retry)).0)
            .collect();
        assert_eq!(resent, vec![(first, 1); MAX_RETRIES as usize]);
        assert_eq!(core.logic().metrics.retries_exhausted, 0);
        let (frames, _, _) = drain(fire(&mut core, SECONDS + 20, retry));
        assert_eq!(core.logic().metrics.retries_exhausted, 1);
        assert_eq!(frames.iter().map(|f| f.1).collect::<Vec<_>>(), vec![1]);
        assert_eq!(core.logic().metrics.insert_frames.ack, 1);
    }

    #[test]
    fn a_crash_clears_buffers_and_in_flight_counts() {
        let mut core = origin(MAX);
        core.pass(0, |n, now, out| n.on_start(now, out));
        let (frames, _, _) = drain(insert(&mut core, 10, 0..1));
        let (_, ages, _) = drain(insert(&mut core, 11, 1..3));
        let n = core.logic();
        assert!(!n.wire_batches.is_empty() && n.pending_ops_len() == 1);
        // A second `on_start` is the restart after a crash.
        core.pass(SECONDS, |n, now, out| n.on_start(now, out));
        let n = core.logic();
        assert!(n.wire_batches.is_empty() && n.wire_batch_keys.is_empty());
        assert_eq!((buffered(&core), n.pending_ops_len()), (0, 0));
        // Stragglers of the old incarnation find nothing to act on.
        assert!(drain(ack(&mut core, SECONDS + 1, frames[0].0)).0.is_empty());
        assert!(drain(fire(&mut core, SECONDS + 2, ages[0].0)).0.is_empty());
    }

    /// Node 0's op counter wraps with an op in flight: no op takes the
    /// untracked id 0, a receiver takes every op as new, and each ack
    /// settles the sequence number its op left under.
    #[test]
    fn op_ids_outlive_the_counter_wrap() {
        let mut core = origin(1);
        core.pass(0, |n, _, _| n.op_seq = OP_COUNTER_MASK - 2);
        let mut receiver = seen();
        let mut in_flight = None;
        for i in 0..4 {
            let fx = insert(&mut core, 10 + i, i..i + 1);
            let [(_, OverlayMsg::Route { payload, .. })] = &fx.sends[..] else {
                panic!("one insert frame, got {:?}", fx.sends);
            };
            let &MindPayload::Insert { op_id, horizon, .. } = payload else {
                panic!("one row leaves as a plain Insert, got {payload:?}");
            };
            assert_ne!(op_id, 0, "op id 0 is the untracked sentinel");
            assert!(
                !receiver.observe(10 + i, op_id, horizon),
                "op {op_id:#x} taken for a duplicate"
            );
            receiver.insert(op_id);
            // Each op is acked once the next is out: one is always in
            // flight, across the wrap too.
            if let Some(prev) = in_flight.replace(op_id) {
                ack(&mut core, 20 + i, prev);
            }
        }
        ack(&mut core, 30, in_flight.unwrap());
        let n = core.logic();
        assert_eq!((n.pending_ops_len(), n.live_op_seqs.len()), (0, 0));
    }

    #[test]
    fn seen_ops_dedups_and_bounds() {
        let mut s = seen();
        assert!(!s.observe(0, id(7, 3), hz(0, 0)));
        s.insert(id(7, 3));
        s.insert(id(7, 4));
        assert!(s.observe(0, id(7, 3), hz(0, 0)));
        assert_eq!(s.len(), 2);
        // Horizon 4 settles both; the memory is reclaimed but the ops
        // still read as seen.
        assert!(!s.observe(0, id(7, 5), hz(0, 4)));
        assert_eq!(s.len(), 0);
        assert!(s.observe(0, id(7, 3), hz(0, 4)));
        assert!(s.observe(0, id(7, 4), hz(0, 4)));
        assert!(!s.observe(0, id(7, 5), hz(0, 4)));
    }

    #[test]
    fn horizons_are_per_origin_and_monotonic() {
        let mut s = seen();
        assert!(s.observe(0, id(1, 5), hz(0, 8)));
        assert!(!s.observe(0, id(2, 5), hz(0, 0)));
        // A stale (lower) horizon never regresses.
        assert!(s.observe(0, id(1, 8), hz(0, 3)));
        // Counters above the horizon are only seen if remembered.
        s.insert(id(1, 12));
        assert!(s.observe(0, id(1, 12), hz(0, 8)));
        assert!(!s.observe(0, id(1, 11), hz(0, 8)));
    }

    /// A receiver hears nothing from an origin while that origin sends
    /// more than half the counter space. A retry inside an op's lifetime
    /// still dedups; once the silence outlasts it, the origin's next op
    /// reads as new, not as settled.
    #[test]
    fn a_quiet_origin_is_forgotten_after_an_op_lifetime() {
        let life = op_lifetime(SECONDS);
        let mut s = seen();
        assert!(!s.observe(0, id(5, 5), hz(0, 4)));
        s.insert(id(5, 5));
        assert!(s.observe(life, id(5, 5), hz(0, 4)));
        let later = 4 + 9_000_000;
        assert!(
            !s.observe(2 * life + 1, id(5, later + 1), hz(0, later)),
            "a fresh op after a long silence read as settled"
        );
        s.insert(id(5, later + 1));
        assert!(s.observe(2 * life + 2, id(5, later + 1), hz(0, later)));
    }

    #[test]
    fn unknown_origin_is_never_seen() {
        let s = seen();
        assert!(!s.contains(id(42, 1)));
    }

    #[test]
    fn newer_boot_resets_origin_memory() {
        let mut s = seen();
        // Boot 100: counters up to 50 settled, 60 applied and remembered.
        assert!(!s.observe(0, id(3, 60), hz(100, 50)));
        s.insert(id(3, 60));
        assert!(s.observe(0, id(3, 42), hz(100, 50)));
        assert!(s.observe(0, id(3, 60), hz(100, 50)));
        // The origin restarts (boot 101) and counts from zero again: its
        // low fresh counters must NOT read as settled old ones.
        assert!(!s.observe(0, id(3, 1), hz(101, 0)));
        s.insert(id(3, 1));
        assert_eq!(s.len(), 1);
        // Its own retries still dedup within the new boot.
        assert!(s.observe(0, id(3, 1), hz(101, 0)));
        // A straggler from the dead incarnation is a stale duplicate.
        assert!(s.observe(0, id(3, 61), hz(100, 50)));
    }
}
