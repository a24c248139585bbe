//! The overlay state machine: join, maintenance, routing, recovery.

use crate::messages::{OverlayEvent, OverlayMsg};
use crate::table::{NeighborEntry, NeighborTable};
use mind_types::node::{Outbox, SimTime, TimerId, MILLIS, SECONDS};
use mind_types::{BitCode, DetHashMap, DetHashSet, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Tag marking timer tokens owned by the overlay (top byte). An embedder
/// multiplexing its own timers onto the same node must tag them
/// differently; `mind-core` asserts this at build time.
pub const TOKEN_TAG: u64 = 0xA5 << 56;
const KIND_HEARTBEAT: u64 = 0;
const KIND_JOIN_RETRY: u64 = 1;
const KIND_RING: u64 = 2;
const KIND_JOIN_ABORT: u64 = 3;

/// The overlay's timer kinds by name, indexed by the token's kind field
/// (a node's census counts its firings). A kind past the end, or two
/// kinds on one slot, fails the build.
pub const TIMER_NAMES: [&str; 4] = {
    let mut names = [""; 4];
    names[KIND_HEARTBEAT as usize] = "Heartbeat";
    names[KIND_JOIN_RETRY as usize] = "JoinRetry";
    names[KIND_RING as usize] = "Ring";
    names[KIND_JOIN_ABORT as usize] = "JoinAbort";
    let mut i = 0;
    while i < names.len() {
        assert!(!names[i].is_empty(), "two timer kinds collide");
        i += 1;
    }
    names
};

/// Extras are pinged every this many heartbeat rounds (and given a
/// correspondingly longer expiry horizon).
const EXTRAS_PING_STRIDE: u64 = 4;

/// Random-walk length for join target selection (≈ log N).
const JOIN_WALK_TTL: u8 = 5;
/// Base back-off before a rejected joiner retries (jittered ×1–2).
const JOIN_RETRY_BACKOFF: SimTime = 500 * MILLIS;
/// Maximum scope of the expanding-ring recovery broadcast.
const RING_TTL_MAX: u8 = 4;
/// How long to wait for ring hits before escalating the scope.
const RING_TIMEOUT: SimTime = SECONDS;
/// Give up routing a message after this many overlay hops.
const ROUTE_TTL: u32 = 64;

fn token(kind: u64, arg: u64) -> u64 {
    TOKEN_TAG | (kind << 48) | (arg & 0xFFFF_FFFF_FFFF)
}

/// Failure-detection timing: the two overlay parameters a deployment
/// sets. The join, ring-recovery and routing scopes are constants above.
#[derive(Debug, Clone, Copy)]
pub struct OverlayConfig {
    /// Heartbeat period.
    pub hb_interval: SimTime,
    /// A neighbor silent for `hb_interval × hb_miss_threshold` is dead.
    pub hb_miss_threshold: u32,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            hb_interval: 2 * SECONDS,
            hb_miss_threshold: 3,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum JoinState {
    /// Full member of the overlay.
    Member,
    /// Waiting for a `JoinCandidate` after starting a lookup walk.
    Seeking,
    /// Sent `JoinRequest`, waiting for commit or reject.
    Requested(NodeId),
    /// Not yet started (or retrying after back-off).
    NotJoined,
}

#[derive(Debug, Clone)]
struct PendingJoin {
    joiner: NodeId,
    awaiting: BTreeSet<NodeId>,
    /// Distinguishes this accept from earlier aborted ones so a stale
    /// abort watchdog cannot kill a newer pending join.
    epoch: u64,
    /// The abort watchdog, cancelled when the split commits or aborts
    /// through another path.
    abort_timer: TimerId,
}

#[derive(Debug, Clone)]
struct PendingRing<P> {
    target: BitCode,
    payload: P,
    hops: u32,
    ttl: u8,
    /// The escalation timer, cancelled when a `RingHit` resolves the probe.
    timer: TimerId,
}

/// One node's view of the hypercube overlay.
///
/// `P` is the application payload carried by [`OverlayMsg::Route`] /
/// [`OverlayMsg::Flood`]; the overlay never inspects it.
#[derive(Debug)]
pub struct Overlay<P> {
    id: NodeId,
    cfg: OverlayConfig,
    code: Option<BitCode>,
    state: JoinState,
    bootstrap: Option<NodeId>,
    table: NeighborTable,
    /// Extra regions claimed after recursive failure takeover.
    claimed: BTreeSet<BitCode>,
    pending_join: Option<PendingJoin>,
    pending_rings: DetHashMap<u64, PendingRing<P>>,
    /// The pending join-retry watchdog, cancelled once membership commits.
    join_retry_timer: Option<TimerId>,
    /// `true` once `on_start` has run: a second call is a restart after a
    /// crash, and stale membership must not be resumed.
    started: bool,
    seen_probes: DetHashSet<u64>,
    seen_floods: DetHashSet<u64>,
    seq: u64,
    hb_round: u64,
    join_epoch: u64,
    rng: SmallRng,
}

impl<P: Clone> Overlay<P> {
    /// The first node of a new overlay: it owns the whole code space.
    pub fn new_root(id: NodeId, cfg: OverlayConfig) -> Self {
        Self::with_parts(
            id,
            cfg,
            Some(BitCode::ROOT),
            JoinState::Member,
            None,
            NeighborTable::new(),
        )
    }

    /// A node that will join the overlay through `bootstrap`.
    pub fn new_joiner(id: NodeId, bootstrap: NodeId, cfg: OverlayConfig) -> Self {
        Self::with_parts(
            id,
            cfg,
            None,
            JoinState::NotJoined,
            Some(bootstrap),
            NeighborTable::new(),
        )
    }

    /// A member of a statically constructed overlay (see [`crate::builder`]).
    pub fn new_static(
        id: NodeId,
        code: BitCode,
        entries: Vec<NeighborEntry>,
        cfg: OverlayConfig,
    ) -> Self {
        let mut table = NeighborTable::new();
        table.set_all(entries);
        Self::with_parts(id, cfg, Some(code), JoinState::Member, None, table)
    }

    fn with_parts(
        id: NodeId,
        cfg: OverlayConfig,
        code: Option<BitCode>,
        state: JoinState,
        bootstrap: Option<NodeId>,
        table: NeighborTable,
    ) -> Self {
        Overlay {
            id,
            cfg,
            code,
            state,
            bootstrap,
            table,
            claimed: BTreeSet::new(),
            pending_join: None,
            pending_rings: DetHashMap::default(),
            join_retry_timer: None,
            started: false,
            seen_probes: DetHashSet::default(),
            seen_floods: DetHashSet::default(),
            seq: 0,
            hb_round: 0,
            join_epoch: 0,
            rng: SmallRng::seed_from_u64(0x5EED ^ id.0 as u64),
        }
    }

    /// This node's transport address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's overlay code, once joined.
    pub fn code(&self) -> Option<BitCode> {
        self.code
    }

    /// `true` once the node is a full overlay member.
    pub fn is_member(&self) -> bool {
        self.state == JoinState::Member
    }

    /// Regions claimed through recursive failure takeover.
    pub fn claimed(&self) -> &BTreeSet<BitCode> {
        &self.claimed
    }

    /// The neighbor table (read-only).
    pub fn table(&self) -> &NeighborTable {
        &self.table
    }

    /// `true` if this node answers for `target` (its own code or a claimed
    /// region is compatible with the target).
    pub fn responsible_for(&self, target: &BitCode) -> bool {
        match self.code {
            Some(c) if c.compatible(target) => true,
            _ => self.claimed.iter().any(|r| r.compatible(target)),
        }
    }

    /// `true` if this node should *terminate* routing for `target` and
    /// answer it.
    ///
    /// Own-code responsibility always answers. Claim-only responsibility
    /// defers to the network first: after a failure, several detectors
    /// claim the dead region (Section 3.8's recursive takeover), but only
    /// the one with no live route closer to the region answers — so when
    /// a proper taker-over exists (the failed node's sibling, which holds
    /// the replicas), traffic still reaches it.
    pub fn should_answer(&self, target: &BitCode) -> bool {
        if let Some(c) = self.code {
            if c.compatible(target) {
                return true;
            }
        }
        if self.claimed.iter().any(|r| r.compatible(target)) {
            let my = self.code.unwrap_or(BitCode::ROOT);
            return self.table.next_hop(&my, target).is_none();
        }
        false
    }

    /// Replication targets for level `m` (Section 3.8): the live neighbors
    /// whose subtrees share code prefixes of length `len−1 … len−m` — the
    /// nodes that would take over this node's region if it failed.
    pub fn replica_targets(&self, m: usize) -> Vec<NodeId> {
        let Some(code) = self.code else {
            return Vec::new();
        };
        let len = code.len() as usize;
        let mut out = Vec::new();
        for i in 1..=m.min(len) {
            if let Some(e) = self.table.get(len - i) {
                if e.alive && e.node != self.id && !out.contains(&e.node) {
                    out.push(e.node);
                }
            }
        }
        out
    }

    /// All live neighbors (for full replication).
    pub fn all_neighbor_targets(&self) -> Vec<NodeId> {
        let mut v = self.table.alive_nodes();
        v.retain(|&n| n != self.id);
        v
    }

    /// Called when the hosting node starts: arms the heartbeat timer and,
    /// for joiners, begins the join protocol.
    ///
    /// A second call is a restart after a crash. The overlay has moved on
    /// without us — the failure detector declared us dead and our sibling
    /// took the region over — so stale membership (code, claims, table)
    /// must be forgotten and the node rejoins through a last-known contact.
    /// Returns `true` when such a restart reset happened, so the hosting
    /// node can discard its own crash-lost state.
    pub fn on_start(&mut self, now: SimTime, out: &mut Outbox<OverlayMsg<P>>) -> bool {
        out.set_timer(self.cfg.hb_interval, token(KIND_HEARTBEAT, 0));
        let restarted = self.started && self.reset_for_rejoin();
        self.started = true;
        if self.state == JoinState::NotJoined {
            self.start_join(now, out);
        }
        restarted
    }

    /// Forgets stale membership before a rejoin. Returns `false` (and keeps
    /// the current state) when no other node is known to rejoin through — a
    /// single-node overlay has nobody to have moved on without us.
    fn reset_for_rejoin(&mut self) -> bool {
        if self.bootstrap.is_none() {
            self.bootstrap = self
                .table
                .iter()
                .chain(self.table.extras().iter())
                .map(|e| e.node)
                .find(|&n| n != self.id);
        }
        if self.bootstrap.is_none() {
            return false;
        }
        self.state = JoinState::NotJoined;
        self.code = None;
        self.table = NeighborTable::new();
        self.claimed.clear();
        self.pending_join = None;
        self.pending_rings.clear();
        // Timer handles from before the crash belong to the previous
        // incarnation (the host already discarded them) — just forget them.
        self.join_retry_timer = None;
        true
    }

    /// (Re)starts the join protocol through the configured bootstrap node.
    pub fn start_join(&mut self, _now: SimTime, out: &mut Outbox<OverlayMsg<P>>) {
        let Some(bootstrap) = self.bootstrap else {
            return;
        };
        self.state = JoinState::Seeking;
        out.send(
            bootstrap,
            OverlayMsg::LookupJoinTarget {
                joiner: self.id,
                ttl: JOIN_WALK_TTL,
            },
        );
        // Watchdog: if nothing commits, retry from scratch. At most one is
        // ever pending — re-arming replaces (cancels) the previous one.
        let backoff = JOIN_RETRY_BACKOFF * 4 + self.jitter(JOIN_RETRY_BACKOFF * 4);
        self.arm_join_retry(backoff, out);
    }

    /// Arms (or re-arms) the single join-retry watchdog.
    fn arm_join_retry(&mut self, backoff: SimTime, out: &mut Outbox<OverlayMsg<P>>) {
        if let Some(t) = self.join_retry_timer.take() {
            out.cancel_timer(t);
        }
        self.join_retry_timer = Some(out.set_timer(backoff, token(KIND_JOIN_RETRY, 0)));
    }

    /// A fresh flood or probe id: this node's id above a 24-bit sequence
    /// number, so ids from different origins never collide.
    fn next_id(&mut self) -> u64 {
        let id = ((self.id.0 as u64) << 24) | (self.seq & 0xFF_FFFF);
        self.seq += 1;
        id
    }

    fn jitter(&mut self, range: SimTime) -> SimTime {
        self.rng.random_range(0..range.max(1))
    }

    /// Routes `payload` toward the region `target`. Local responsibility
    /// short-circuits into an immediate [`OverlayEvent::Delivered`].
    pub fn route(
        &mut self,
        now: SimTime,
        target: BitCode,
        payload: P,
        out: &mut Outbox<OverlayMsg<P>>,
    ) -> Option<OverlayEvent<P>> {
        self.forward_route(now, target, payload, 0, out)
    }

    /// Floods `payload` to every other overlay node. The caller applies
    /// it locally: a flood raises no upcall at its origin.
    pub fn flood(&mut self, payload: &P, out: &mut Outbox<OverlayMsg<P>>) {
        let flood_id = self.next_id();
        self.seen_floods.insert(flood_id);
        for n in self.table.alive_nodes() {
            out.send(
                n,
                OverlayMsg::Flood {
                    flood_id,
                    payload: payload.clone(),
                },
            );
        }
    }

    /// Handles an overlay message, returning its upcall, if any.
    pub fn handle(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: OverlayMsg<P>,
        out: &mut Outbox<OverlayMsg<P>>,
    ) -> Option<OverlayEvent<P>> {
        // Any traffic proves the sender is alive: refresh its liveness so
        // that lost heartbeat/ack messages (or a partition shorter than
        // the failure horizon) do not misdiagnose a chatty neighbor as
        // dead. Only entries still considered alive are refreshed — an
        // entry already declared dead may be stale (the node can have
        // rejoined under a different code), so resurrection is left to the
        // heartbeat exchange that carries the authoritative code.
        if let Some(e) = self.table.find_by_node_mut(from) {
            if e.alive {
                e.last_seen = now;
            }
        }
        match msg {
            OverlayMsg::LookupJoinTarget { joiner, ttl } => {
                self.on_lookup(joiner, ttl, out);
                None
            }
            OverlayMsg::JoinCandidate { candidate } => {
                if self.state == JoinState::Seeking {
                    self.state = JoinState::Requested(candidate);
                    out.send(candidate, OverlayMsg::JoinRequest);
                }
                None
            }
            OverlayMsg::JoinRequest => {
                self.on_join_request(now, from, out);
                None
            }
            OverlayMsg::SplitAsk { joiner, old_code } => {
                self.on_split_ask(now, from, joiner, old_code, out);
                None
            }
            OverlayMsg::SplitAck { ok, old_code } => {
                self.on_split_ack(now, from, ok, old_code, out);
                None
            }
            OverlayMsg::SplitCommit { new_code } => {
                self.table
                    .observe(&self.code.unwrap_or(BitCode::ROOT), from, new_code, now);
                None
            }
            OverlayMsg::JoinCommit { code, neighbors } => {
                self.on_join_commit(now, from, code, neighbors, out)
            }
            OverlayMsg::JoinReject => {
                if matches!(self.state, JoinState::Requested(_) | JoinState::Seeking) {
                    self.state = JoinState::NotJoined;
                    let backoff = JOIN_RETRY_BACKOFF + self.jitter(JOIN_RETRY_BACKOFF);
                    self.arm_join_retry(backoff, out);
                }
                None
            }
            OverlayMsg::Heartbeat { code } => {
                if let Some(my) = self.code {
                    self.table.observe(&my, from, code, now);
                    out.send(from, OverlayMsg::HeartbeatAck { code: my });
                }
                None
            }
            OverlayMsg::HeartbeatAck { code } => {
                if let Some(my) = self.code {
                    self.table.observe(&my, from, code, now);
                }
                None
            }
            OverlayMsg::TakeoverAnnounce {
                flood_id,
                origin,
                new_code,
            } => {
                if !self.seen_floods.insert(flood_id) {
                    return None;
                }
                if origin != self.id {
                    if let Some(my) = self.code {
                        self.table.observe(&my, origin, new_code, now);
                    }
                    // The region has a proper owner now; drop provisional
                    // claims it covers.
                    self.claimed.retain(|r| !new_code.compatible(r));
                }
                for n in self.table.alive_nodes() {
                    if n != from {
                        out.send(
                            n,
                            OverlayMsg::TakeoverAnnounce {
                                flood_id,
                                origin,
                                new_code,
                            },
                        );
                    }
                }
                None
            }
            OverlayMsg::Route {
                target,
                hops,
                payload,
            } => self.forward_route(now, target, payload, hops, out),
            OverlayMsg::RingProbe {
                probe_id,
                target,
                need_cpl,
                origin,
                ttl,
            } => {
                self.on_ring_probe(from, probe_id, target, need_cpl, origin, ttl, out);
                None
            }
            OverlayMsg::RingHit { probe_id } => {
                if let Some(p) = self.pending_rings.remove(&probe_id) {
                    // Resolved: the escalation timeout must never fire.
                    out.cancel_timer(p.timer);
                    out.send(
                        from,
                        OverlayMsg::Route {
                            target: p.target,
                            hops: p.hops + 1,
                            payload: p.payload,
                        },
                    );
                }
                None
            }
            OverlayMsg::Direct { payload } => Some(OverlayEvent::DirectDelivered { from, payload }),
            OverlayMsg::Flood { flood_id, payload } => {
                if !self.seen_floods.insert(flood_id) {
                    return None;
                }
                for n in self.table.alive_nodes() {
                    if n != from {
                        out.send(
                            n,
                            OverlayMsg::Flood {
                                flood_id,
                                payload: payload.clone(),
                            },
                        );
                    }
                }
                Some(OverlayEvent::FloodDelivered { payload })
            }
        }
    }

    /// `true` for a timer token the overlay armed (its [`TOKEN_TAG`]). An
    /// embedder multiplexing its own timers hands only these to
    /// [`Self::on_timer`].
    pub fn owns_timer(&self, tok: u64) -> bool {
        tok & (0xFF << 56) == TOKEN_TAG
    }

    /// Handles one of the overlay's own timers (see [`Self::owns_timer`]),
    /// returning its upcall, if any.
    pub fn on_timer(
        &mut self,
        now: SimTime,
        tok: u64,
        out: &mut Outbox<OverlayMsg<P>>,
    ) -> Option<OverlayEvent<P>> {
        debug_assert!(self.owns_timer(tok), "foreign timer token {tok:#x}");
        let kind = (tok >> 48) & 0xFF;
        let arg = tok & 0xFFFF_FFFF_FFFF;
        match kind {
            KIND_HEARTBEAT => {
                self.heartbeat_round(now, out);
                out.set_timer(self.cfg.hb_interval, token(KIND_HEARTBEAT, 0));
            }
            KIND_JOIN_RETRY => {
                self.join_retry_timer = None; // this firing consumed it
                if self.state != JoinState::Member {
                    self.start_join(now, out);
                }
            }
            KIND_RING => return self.on_ring_timeout(now, arg, out),
            KIND_JOIN_ABORT => {
                // The split never gathered all its acks (a SplitAck was
                // lost, or a neighbor died mid-protocol). Abort so the
                // joiner retries cleanly and this node accepts joins again
                // — without this watchdog a single lost SplitAck wedges
                // the acceptor forever.
                if let Some(p) = &self.pending_join {
                    if p.epoch == arg {
                        let joiner = p.joiner;
                        self.pending_join = None;
                        out.send(joiner, OverlayMsg::JoinReject);
                    }
                }
            }
            _ => {}
        }
        None
    }

    // ---- join protocol ----

    fn on_lookup(&mut self, joiner: NodeId, ttl: u8, out: &mut Outbox<OverlayMsg<P>>) {
        if !self.is_member() {
            return; // cannot help yet
        }
        let alive: Vec<&NeighborEntry> = self.table.alive().collect();
        if ttl > 0 && !alive.is_empty() {
            // Random-walk step.
            let pick = alive[self.rng.random_range(0..alive.len())].node;
            out.send(
                pick,
                OverlayMsg::LookupJoinTarget {
                    joiner,
                    ttl: ttl - 1,
                },
            );
            return;
        }
        // Walk endpoint: choose the shortest code in the neighborhood
        // (self included) — Adler's rule for balance with high probability.
        #[expect(clippy::expect_used, reason = "walk endpoints are members")]
        let mut best = (self.code.expect("member has code"), self.id);
        for e in alive {
            if (e.code.len(), e.node.0) < (best.0.len(), best.1 .0) {
                best = (e.code, e.node);
            }
        }
        out.send(joiner, OverlayMsg::JoinCandidate { candidate: best.1 });
    }

    fn on_join_request(&mut self, now: SimTime, joiner: NodeId, out: &mut Outbox<OverlayMsg<P>>) {
        let can_accept = self.is_member()
            && self.pending_join.is_none()
            && self
                .code
                .map(|c| c.len() < mind_types::code::MAX_CODE_LEN)
                .unwrap_or(false);
        if !can_accept {
            out.send(joiner, OverlayMsg::JoinReject);
            return;
        }
        #[expect(clippy::unwrap_used, reason = "membership checked above")]
        let old_code = self.code.unwrap();
        let awaiting: BTreeSet<NodeId> = self.table.alive_nodes().into_iter().collect();
        self.join_epoch += 1;
        let epoch = self.join_epoch;
        // Watchdog: abort the split if the acks don't all arrive (lost
        // SplitAck, neighbor death). Shorter than the joiner's own retry
        // watchdog so the acceptor is free again before the retry lands.
        let abort_timer = out.set_timer(JOIN_RETRY_BACKOFF * 2, token(KIND_JOIN_ABORT, epoch));
        self.pending_join = Some(PendingJoin {
            joiner,
            awaiting: awaiting.clone(),
            epoch,
            abort_timer,
        });
        if awaiting.is_empty() {
            // Single-node overlay: commit immediately.
            // (Handled via the same path as the last ack.)
            self.commit_join(now, out);
            debug_assert!(
                self.code == Some(old_code.child(false)),
                "immediate commit must split {old_code}"
            );
        } else {
            for n in awaiting {
                out.send(n, OverlayMsg::SplitAsk { joiner, old_code });
            }
        }
    }

    fn on_split_ask(
        &mut self,
        _now: SimTime,
        acceptor: NodeId,
        _joiner: NodeId,
        old_code: BitCode,
        out: &mut Outbox<OverlayMsg<P>>,
    ) {
        // The paper's deadlock-free serialization: a join at a shallower
        // node preempts an uncommitted join at a deeper one. Ties break on
        // node id so two equal-depth acceptors serialize deterministically.
        if let Some(pending) = &self.pending_join {
            let my_depth = (self.code.map(|c| c.len()).unwrap_or(0), self.id.0);
            let their_depth = (old_code.len(), acceptor.0);
            if my_depth < their_depth {
                // I am shallower: reject the deeper concurrent join.
                out.send(
                    acceptor,
                    OverlayMsg::SplitAck {
                        ok: false,
                        old_code,
                    },
                );
                return;
            }
            // They are shallower: abort my own pending join.
            out.send(pending.joiner, OverlayMsg::JoinReject);
            out.cancel_timer(pending.abort_timer);
            self.pending_join = None;
        }
        out.send(acceptor, OverlayMsg::SplitAck { ok: true, old_code });
    }

    fn on_split_ack(
        &mut self,
        now: SimTime,
        from: NodeId,
        ok: bool,
        old_code: BitCode,
        out: &mut Outbox<OverlayMsg<P>>,
    ) {
        if Some(old_code) != self.code {
            return; // stale ack from an aborted attempt
        }
        let Some(pending) = &mut self.pending_join else {
            return;
        };
        if !ok {
            let joiner = pending.joiner;
            out.cancel_timer(pending.abort_timer);
            self.pending_join = None;
            out.send(joiner, OverlayMsg::JoinReject);
            return;
        }
        pending.awaiting.remove(&from);
        if pending.awaiting.is_empty() {
            self.commit_join(now, out);
        }
    }

    fn commit_join(&mut self, now: SimTime, out: &mut Outbox<OverlayMsg<P>>) {
        let Some(pending) = self.pending_join.take() else {
            return;
        };
        // The split is committing: the abort watchdog can never be right.
        out.cancel_timer(pending.abort_timer);
        #[expect(clippy::expect_used, reason = "only members accept joins")]
        let old_code = self.code.expect("acceptor has code");
        let my_new = old_code.child(false);
        let joiner_code = old_code.child(true);
        // Hand the joiner my (pre-split) neighbor entries; its final
        // dimension's representative is me.
        let neighbors: Vec<(BitCode, NodeId)> =
            self.table.iter().map(|e| (e.code, e.node)).collect();
        out.send(
            pending.joiner,
            OverlayMsg::JoinCommit {
                code: joiner_code,
                neighbors,
            },
        );
        for n in self.table.alive_nodes() {
            out.send(n, OverlayMsg::SplitCommit { new_code: my_new });
        }
        self.code = Some(my_new);
        self.table
            .push(NeighborEntry::new(joiner_code, pending.joiner, now));
    }

    fn on_join_commit(
        &mut self,
        now: SimTime,
        acceptor: NodeId,
        code: BitCode,
        neighbors: Vec<(BitCode, NodeId)>,
        out: &mut Outbox<OverlayMsg<P>>,
    ) -> Option<OverlayEvent<P>> {
        if self.state == JoinState::Member {
            return None; // duplicate
        }
        self.state = JoinState::Member;
        // Joined: the retry watchdog is obsolete — retire it instead of
        // letting a dead one-shot sit in the host's timer queue.
        if let Some(t) = self.join_retry_timer.take() {
            out.cancel_timer(t);
        }
        self.code = Some(code);
        // The acceptor hands over its pre-split contact list; it may know
        // *us* already (an earlier aborted join attempt left us in its
        // extras). A node must never be its own neighbor — it would
        // heartbeat itself and, worse, replicate records onto their own
        // primary copy.
        let mut entries: Vec<NeighborEntry> = neighbors
            .into_iter()
            .filter(|&(_, n)| n != self.id)
            .map(|(c, n)| NeighborEntry::new(c, n, now))
            .collect();
        entries.push(NeighborEntry::new(code.sibling(), acceptor, now));
        self.table.set_all(entries);
        Some(OverlayEvent::Joined { code, acceptor })
    }

    // ---- maintenance & failure handling ----

    fn heartbeat_round(&mut self, now: SimTime, out: &mut Outbox<OverlayMsg<P>>) {
        let Some(my) = self.code else {
            return;
        };
        self.hb_round += 1;
        let horizon = self.cfg.hb_interval * self.cfg.hb_miss_threshold as SimTime;
        let extras_horizon = horizon * EXTRAS_PING_STRIDE as SimTime;
        if now > horizon {
            for dead in self
                .table
                .expire(now - horizon, now.saturating_sub(extras_horizon))
            {
                self.handle_neighbor_death(dead, out);
            }
        }
        // Representatives every round (the paper's ~log N maintenance
        // traffic); extras on a slower stride, just to stay warm.
        for n in self.table.rep_nodes() {
            out.send(
                n,
                OverlayMsg::Heartbeat {
                    code: self.code.unwrap_or(my),
                },
            );
        }
        if self.hb_round.is_multiple_of(EXTRAS_PING_STRIDE) {
            for n in self.table.extra_nodes() {
                out.send(
                    n,
                    OverlayMsg::Heartbeat {
                        code: self.code.unwrap_or(my),
                    },
                );
            }
        }
    }

    /// Section 3.8 takeover: the failed node's sibling shortens its code;
    /// otherwise the leftmost node of the sibling subtree claims the
    /// region as an alias.
    fn handle_neighbor_death(&mut self, dead: NeighborEntry, out: &mut Outbox<OverlayMsg<P>>) {
        let Some(my) = self.code else {
            return;
        };
        let x = dead.code;
        if x.is_empty() {
            return;
        }
        if my == x.sibling() {
            // Exact sibling: take over by shortening my code.
            let new_code = my.parent();
            self.code = Some(new_code);
            self.table.pop(); // the final dimension was the dead sibling
                              // Claims now covered by the shorter code are redundant.
            self.claimed.retain(|r| !new_code.is_prefix_of(r));
            // Announce the takeover overlay-wide: the failed node's other
            // neighbors (whom we do not know) must learn the new owner,
            // or their provisional claims would swallow traffic for the
            // region.
            let flood_id = self.next_id();
            self.seen_floods.insert(flood_id);
            for n in self.table.alive_nodes() {
                out.send(
                    n,
                    OverlayMsg::TakeoverAnnounce {
                        flood_id,
                        origin: self.id,
                        new_code,
                    },
                );
            }
        } else if !self.responsible_for(&x) {
            // Not the sibling: claim the dead region (the paper's
            // recursive takeover — "if both a node and its sibling fail,
            // a node in the sibling sub-tree takes over"). Every detector
            // claims; claims are ownership-safe because the region's
            // owner is dead, and `should_answer` makes claimants defer to
            // any live node closer to the region (e.g. the code-shortened
            // sibling holding the replicas).
            self.claimed.insert(x);
        }
    }

    // ---- routing ----

    fn forward_route(
        &mut self,
        _now: SimTime,
        target: BitCode,
        payload: P,
        hops: u32,
        out: &mut Outbox<OverlayMsg<P>>,
    ) -> Option<OverlayEvent<P>> {
        if self.should_answer(&target) {
            return Some(OverlayEvent::Delivered {
                target,
                hops,
                payload,
            });
        }
        if hops >= ROUTE_TTL {
            return Some(OverlayEvent::Undeliverable { target, payload });
        }
        let Some(my) = self.code else {
            return Some(OverlayEvent::Undeliverable { target, payload });
        };
        if let Some(e) = self.table.next_hop(&my, &target) {
            // Routing-loop guard: every greedy hop must strictly lengthen
            // the common prefix with the target, so routes terminate within
            // `target.len()` hops.
            debug_assert!(
                e.code.common_prefix_len(&target) > my.common_prefix_len(&target),
                "next hop {} at [{}] makes no prefix progress from [{my}] toward [{target}]",
                e.node,
                e.code
            );
            debug_assert!(e.node != self.id, "routing to self can never make progress");
            let node = e.node;
            out.send(
                node,
                OverlayMsg::Route {
                    target,
                    hops: hops + 1,
                    payload,
                },
            );
            return None;
        }
        // Greedy dead-end (Section 3.8): expanding-ring scoped broadcast.
        self.start_ring(target, payload, hops, 1, out);
        None
    }

    fn start_ring(
        &mut self,
        target: BitCode,
        payload: P,
        hops: u32,
        ttl: u8,
        out: &mut Outbox<OverlayMsg<P>>,
    ) {
        let probe_id = self.next_id();
        let my = self.code.unwrap_or(BitCode::ROOT);
        let need_cpl = my.common_prefix_len(&target);
        let timer = out.set_timer(RING_TIMEOUT, token(KIND_RING, probe_id));
        self.pending_rings.insert(
            probe_id,
            PendingRing {
                target,
                payload,
                hops,
                ttl,
                timer,
            },
        );
        for n in self.table.alive_nodes() {
            out.send(
                n,
                OverlayMsg::RingProbe {
                    probe_id,
                    target,
                    need_cpl,
                    origin: self.id,
                    ttl,
                },
            );
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the RingProbe wire fields"
    )]
    fn on_ring_probe(
        &mut self,
        from: NodeId,
        probe_id: u64,
        target: BitCode,
        need_cpl: u8,
        origin: NodeId,
        ttl: u8,
        out: &mut Outbox<OverlayMsg<P>>,
    ) {
        if !self.seen_probes.insert(probe_id) {
            return;
        }
        let my = self.code.unwrap_or(BitCode::ROOT);
        let my_cpl = my.common_prefix_len(&target);
        let can_resume = self.responsible_for(&target)
            || (my_cpl >= need_cpl && self.table.next_hop(&my, &target).is_some());
        if can_resume {
            out.send(origin, OverlayMsg::RingHit { probe_id });
            return;
        }
        if ttl > 1 {
            for n in self.table.alive_nodes() {
                if n != from && n != origin {
                    out.send(
                        n,
                        OverlayMsg::RingProbe {
                            probe_id,
                            target,
                            need_cpl,
                            origin,
                            ttl: ttl - 1,
                        },
                    );
                }
            }
        }
    }

    fn on_ring_timeout(
        &mut self,
        _now: SimTime,
        probe_id: u64,
        out: &mut Outbox<OverlayMsg<P>>,
    ) -> Option<OverlayEvent<P>> {
        let Some(p) = self.pending_rings.remove(&probe_id) else {
            return None; // already resolved
        };
        if p.ttl >= RING_TTL_MAX {
            return Some(OverlayEvent::Undeliverable {
                target: p.target,
                payload: p.payload,
            });
        }
        // Escalate the scope with a fresh probe id.
        self.start_ring(p.target, p.payload, p.hops, p.ttl + 1, out);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StaticTopology;
    use mind_types::WireSize;

    #[derive(Debug, Clone, PartialEq)]
    struct Tag(u32);
    impl WireSize for Tag {}

    type Out = Outbox<OverlayMsg<Tag>>;

    fn static_overlay(n: usize, k: usize) -> Overlay<Tag> {
        let topo = StaticTopology::balanced(n);
        Overlay::new_static(
            NodeId(k as u32),
            topo.code(k),
            topo.neighbor_entries(k),
            OverlayConfig::default(),
        )
    }

    #[test]
    fn responsibility_matches_compatibility() {
        let o = static_overlay(8, 3); // code 011
        assert!(o.responsible_for(&BitCode::parse("011").unwrap()));
        assert!(o.responsible_for(&BitCode::parse("0110101").unwrap()));
        assert!(o.responsible_for(&BitCode::parse("01").unwrap())); // short target
        assert!(!o.responsible_for(&BitCode::parse("010").unwrap()));
    }

    #[test]
    fn route_local_delivery() {
        let mut o = static_overlay(8, 3);
        let mut out: Out = Outbox::new();
        let ev = o.route(0, BitCode::parse("0111").unwrap(), Tag(1), &mut out);
        assert!(matches!(ev, Some(OverlayEvent::Delivered { hops: 0, .. })));
        assert!(out.sends.is_empty());
    }

    #[test]
    fn route_forwards_greedily() {
        let mut o = static_overlay(8, 0); // code 000
        let mut out: Out = Outbox::new();
        let ev = o.route(0, BitCode::parse("110").unwrap(), Tag(1), &mut out);
        assert!(ev.is_none());
        assert_eq!(out.sends.len(), 1);
        // Dim-0 neighbor of 000 is the leftmost node under 1xx: 100 = node 4.
        assert_eq!(out.sends[0].0, NodeId(4));
        match &out.sends[0].1 {
            OverlayMsg::Route { target, hops, .. } => {
                assert_eq!(*target, BitCode::parse("110").unwrap());
                assert_eq!(*hops, 1);
            }
            other => panic!("expected Route, got {other:?}"),
        }
    }

    #[test]
    fn replica_targets_follow_prefix_rule() {
        // Paper example: node 000000, m=3 -> neighbors 000001, 000010, 000100.
        let o = static_overlay(64, 0);
        let reps = o.replica_targets(3);
        assert_eq!(reps, vec![NodeId(1), NodeId(2), NodeId(4)]);
        // m larger than the code length saturates.
        let o2 = static_overlay(2, 0);
        assert_eq!(o2.replica_targets(5).len(), 1);
    }

    #[test]
    fn flood_reaches_all_neighbors_once() {
        let mut o = static_overlay(8, 0);
        let mut out: Out = Outbox::new();
        o.flood(&Tag(9), &mut out);
        assert_eq!(out.sends.len(), 3); // 3 neighbors in a 3-cube
                                        // Re-receiving my own flood id is suppressed.
        let (_, msg) = out.sends[0].clone();
        let ev = o.handle(1, NodeId(1), msg, &mut out);
        assert!(ev.is_none());
    }

    #[test]
    fn sibling_takeover_shortens_code() {
        let mut o = static_overlay(8, 0); // 000, sibling 001 = node 1
        let mut out: Out = Outbox::new();
        let dead = NeighborEntry::new(BitCode::parse("001").unwrap(), NodeId(1), 0);
        o.handle_neighbor_death(dead, &mut out);
        assert_eq!(o.code().unwrap(), BitCode::parse("00").unwrap());
        assert!(o.claimed().is_empty(), "the shortened code covers it");
        // Now responsible for the dead sibling's region.
        assert!(o.responsible_for(&BitCode::parse("0011").unwrap()));
        // The takeover is announced overlay-wide.
        assert!(out
            .sends
            .iter()
            .any(|(_, m)| matches!(m, OverlayMsg::TakeoverAnnounce { .. })));
    }

    #[test]
    fn heartbeat_round_takes_over_for_silent_neighbors() {
        // 16 nodes; node 0000's representatives are 0001 (its exact
        // sibling), 0010, 0100 and 1000. The sibling and 0100 go silent.
        let mut o = static_overlay(16, 0);
        let mut out: Out = Outbox::new();
        let cfg = OverlayConfig::default();
        let now = cfg.hb_interval * (cfg.hb_miss_threshold as SimTime + 1);
        for (node, code) in [(2, "0010"), (8, "1000")] {
            let ack = OverlayMsg::HeartbeatAck {
                code: BitCode::parse(code).unwrap(),
            };
            assert!(o.handle(now, NodeId(node), ack, &mut out).is_none());
        }
        let hb = token(KIND_HEARTBEAT, 0);
        assert!(o.owns_timer(hb));
        assert!(o.on_timer(now, hb, &mut out).is_none());
        assert_eq!(o.code().unwrap(), BitCode::parse("000").unwrap());
        let claimed: Vec<BitCode> = o.claimed().iter().copied().collect();
        assert_eq!(claimed, vec![BitCode::parse("0100").unwrap()]);
        assert!(out
            .sends
            .iter()
            .any(|(_, m)| matches!(m, OverlayMsg::TakeoverAnnounce { .. })));
    }

    #[test]
    fn detectors_claim_dead_regions_but_defer_to_live_routes() {
        // 16 nodes, codes 0000..1111. Node 0010 sees 0001 (node 1) die:
        // it claims the dead region (recursive takeover) but must defer
        // to live routes when asked to answer for it.
        let mut o2 = static_overlay(16, 2);
        let mut out: Out = Outbox::new();
        let dead = NeighborEntry::new(BitCode::parse("0001").unwrap(), NodeId(1), 0);
        o2.handle_neighbor_death(dead.clone(), &mut out);
        let region = BitCode::parse("0001").unwrap();
        assert!(o2.claimed().contains(&region));
        assert_eq!(o2.code().unwrap(), BitCode::parse("0010").unwrap());
        assert!(o2.responsible_for(&region));
        // A live route toward 0001 still exists (via its dim-2 entry
        // covering the 000x subtree) -> defer, do not answer.
        assert!(
            !o2.should_answer(&region),
            "claimant must defer while routes exist"
        );
        // The exact sibling shortens instead of claiming.
        let mut o0 = static_overlay(16, 0);
        o0.handle_neighbor_death(dead, &mut out);
        assert_eq!(o0.code().unwrap(), BitCode::parse("000").unwrap());
        assert!(o0.claimed().is_empty());
        assert!(o0.should_answer(&region), "code owner always answers");
    }

    #[test]
    fn claimant_answers_when_whole_neighborhood_is_dead() {
        // Node 0010's sibling 0011 and the pair 000x all die: the claimant
        // has no live route left toward the region and must answer.
        let mut o = static_overlay(16, 2); // code 0010
        let mut out: Out = Outbox::new();
        // Mark every entry covering the 00xx region dead and claim it.
        o.handle_neighbor_death(
            NeighborEntry::new(BitCode::parse("0001").unwrap(), NodeId(1), 0),
            &mut out,
        );
        if let Some(e) = o.table.find_by_node_mut(NodeId(0)) {
            e.alive = false;
        }
        if let Some(e) = o.table.find_by_node_mut(NodeId(1)) {
            e.alive = false;
        }
        if let Some(e) = o.table.find_by_node_mut(NodeId(3)) {
            e.alive = false;
        }
        let region = BitCode::parse("0001").unwrap();
        assert!(o.responsible_for(&region));
        assert!(
            o.should_answer(&region),
            "with no live route the claimant must answer (from replicas, or negatively)"
        );
    }

    #[test]
    fn recursive_sibling_takeover_shortens_repeatedly() {
        let mut o = static_overlay(16, 0);
        let mut out: Out = Outbox::new();
        // sibling 0001 dies -> code 000
        o.handle_neighbor_death(
            NeighborEntry::new(BitCode::parse("0001").unwrap(), NodeId(1), 0),
            &mut out,
        );
        assert_eq!(o.code().unwrap(), BitCode::parse("000").unwrap());
        // whole 001 subtree is dead; rep code recorded as 001 after some
        // merging on their side. 001.sibling() = 000 = my code -> shorten.
        o.handle_neighbor_death(
            NeighborEntry::new(BitCode::parse("001").unwrap(), NodeId(2), 0),
            &mut out,
        );
        assert_eq!(o.code().unwrap(), BitCode::parse("00").unwrap());
        // A non-sibling death elsewhere becomes a claim, not a shorten.
        o.handle_neighbor_death(
            NeighborEntry::new(BitCode::parse("0100").unwrap(), NodeId(4), 0),
            &mut out,
        );
        assert!(o.claimed().contains(&BitCode::parse("0100").unwrap()));
        assert_eq!(o.code().unwrap(), BitCode::parse("00").unwrap());
        // If instead the rep's code was 01 (fully merged neighbor subtree
        // that then died), its sibling is 00 = my code -> shorten to 0.
        o.handle_neighbor_death(
            NeighborEntry::new(BitCode::parse("01").unwrap(), NodeId(4), 0),
            &mut out,
        );
        assert_eq!(o.code().unwrap(), BitCode::parse("0").unwrap());
    }

    #[test]
    fn ring_probe_hit_and_resume() {
        // Node 000's dim-0 neighbor (100) is dead; route to 110 dead-ends
        // and starts a ring. Node 010 can resume (its dim-0 entry is 100
        // too... simulate a probe answered by a node responsible).
        let mut o = static_overlay(8, 6); // node 110
        let mut out: Out = Outbox::new();
        o.on_ring_probe(
            NodeId(0),
            77,
            BitCode::parse("110").unwrap(),
            0,
            NodeId(0),
            1,
            &mut out,
        );
        assert!(
            out.sends
                .iter()
                .any(|(n, m)| *n == NodeId(0)
                    && matches!(m, OverlayMsg::RingHit { probe_id: 77, .. }))
        );
    }

    #[test]
    fn ring_timeout_escalates_then_gives_up() {
        let mut o = static_overlay(8, 0);
        let mut out: Out = Outbox::new();
        // Kill all neighbors so routing dead-ends.
        for n in [1u32, 2, 4] {
            if let Some(e) = o.table.find_by_node_mut(NodeId(n)) {
                e.alive = false;
            }
        }
        let ev = o.route(0, BitCode::parse("111").unwrap(), Tag(5), &mut out);
        assert!(ev.is_none());
        assert_eq!(o.pending_rings.len(), 1);
        // With no live neighbors the probes go nowhere; fire timeouts.
        let mut gave_up = false;
        for _ in 0..10 {
            let timers: Vec<u64> = out.timers.iter().map(|&(_, t, _)| t).collect();
            out.timers.clear();
            for t in timers {
                if let Some(OverlayEvent::Undeliverable { .. }) = o.on_timer(1000, t, &mut out) {
                    gave_up = true;
                }
            }
            if gave_up {
                break;
            }
        }
        assert!(gave_up, "ring recovery should eventually give up");
    }

    #[test]
    fn join_commit_splits_codes() {
        // Root accepts a join directly.
        let mut root: Overlay<Tag> = Overlay::new_root(NodeId(0), OverlayConfig::default());
        let mut out: Out = Outbox::new();
        root.on_join_request(0, NodeId(1), &mut out);
        // No neighbors -> immediate commit.
        assert_eq!(root.code().unwrap(), BitCode::parse("0").unwrap());
        let commit = out
            .sends
            .iter()
            .find_map(|(n, m)| match m {
                OverlayMsg::JoinCommit { code, neighbors } if *n == NodeId(1) => {
                    Some((*code, neighbors.clone()))
                }
                _ => None,
            })
            .expect("joiner must receive JoinCommit");
        assert_eq!(commit.0, BitCode::parse("1").unwrap());
        assert!(commit.1.is_empty());
        // Root's table now has the joiner.
        assert_eq!(root.table().len(), 1);
    }

    #[test]
    fn concurrent_join_preemption_shallower_wins() {
        // Acceptor A at depth 2 (code 00) and acceptor B at depth 1
        // (code 1). A asks B to ack its split; B has its own pending join.
        // B is shallower, so B refuses A's split and keeps its own.
        let topo_codes = vec![
            BitCode::parse("00").unwrap(),
            BitCode::parse("01").unwrap(),
            BitCode::parse("1").unwrap(),
        ];
        let topo = StaticTopology::from_codes(topo_codes);
        let mk = |k: usize| -> Overlay<Tag> {
            Overlay::new_static(
                NodeId(k as u32),
                topo.code(k),
                topo.neighbor_entries(k),
                OverlayConfig::default(),
            )
        };
        let mut a = mk(0); // code 00
        let mut b = mk(2); // code 1
        let mut out: Out = Outbox::new();
        // Joiner X asks A; joiner Y asks B.
        a.on_join_request(0, NodeId(10), &mut out);
        b.on_join_request(0, NodeId(11), &mut out);
        assert!(a.pending_join.is_some());
        assert!(b.pending_join.is_some());
        out.sends.clear();
        // B receives A's SplitAsk: B (depth 1) is shallower -> reject.
        b.on_split_ask(
            0,
            NodeId(0),
            NodeId(10),
            BitCode::parse("00").unwrap(),
            &mut out,
        );
        assert!(
            b.pending_join.is_some(),
            "shallower acceptor keeps its join"
        );
        assert!(out
            .sends
            .iter()
            .any(|(n, m)| *n == NodeId(0) && matches!(m, OverlayMsg::SplitAck { ok: false, .. })));
        out.sends.clear();
        // A receives B's SplitAsk: A (depth 2) is deeper -> abort own, ack B.
        a.on_split_ask(
            0,
            NodeId(2),
            NodeId(11),
            BitCode::parse("1").unwrap(),
            &mut out,
        );
        assert!(a.pending_join.is_none(), "deeper acceptor aborts its join");
        assert!(out
            .sends
            .iter()
            .any(|(n, m)| *n == NodeId(10) && matches!(m, OverlayMsg::JoinReject)));
        assert!(out
            .sends
            .iter()
            .any(|(n, m)| *n == NodeId(2) && matches!(m, OverlayMsg::SplitAck { ok: true, .. })));
    }

    #[test]
    fn stale_split_ack_ignored() {
        let mut a = static_overlay(4, 0);
        let mut out: Out = Outbox::new();
        // Ack for a code A no longer has.
        a.on_split_ack(0, NodeId(1), true, BitCode::parse("11").unwrap(), &mut out);
        assert_eq!(a.code().unwrap(), BitCode::parse("00").unwrap());
        assert!(a.pending_join.is_none());
    }
}
