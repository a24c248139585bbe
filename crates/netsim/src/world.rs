//! The discrete-event simulation world.

use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::scheduler::{EventRef, Scheduler};
use crate::stats::SimStats;
use crate::topology::Site;
use mind_types::node::{NodeLogic, Outbox, SimTime, TimerId, MILLIS};
use mind_types::{NodeId, WireSize};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for all simulator randomness (jitter, fault draws). Same seed
    /// + same schedule = identical event trace.
    pub seed: u64,
    /// Propagation-delay model.
    pub latency: LatencyModel,
    /// Multiplicative latency jitter: each message's propagation is scaled
    /// by a uniform factor in `[1, 1 + jitter_frac]`. Exactly `0.0` means
    /// no jitter and consumes no randomness.
    pub jitter_frac: f64,
    /// Serialization rate of each overlay link in bytes/second. PlanetLab
    /// slices were bandwidth-capped, so this is deliberately modest.
    pub link_bytes_per_sec: u64,
    /// Base per-message handling time on a healthy node; multiplied by the
    /// site's load factor.
    pub node_service: SimTime,
    /// Seeded fault schedule (loss, duplication, delay spikes, partitions,
    /// crashes). The default plan injects nothing and draws no randomness.
    pub fault: FaultPlan,
    /// Record per-link counters and traces ([`SimStats::per_link`]). On by
    /// default — Figures 8 and 12 read them — but each message then pays a
    /// `BTreeMap` upsert keyed by `(from, to)`, and at 10k hosts the map
    /// itself grows to millions of entries. Large-world benchmarks turn
    /// this off; the scalar counters are unaffected.
    pub link_stats: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: LatencyModel::default(),
            jitter_frac: 0.25,
            link_bytes_per_sec: 1_500_000,
            node_service: 300, // 0.3 ms
            fault: FaultPlan::default(),
            link_stats: true,
        }
    }
}

/// A scheduled occurrence at one node. Message payloads are owned by the
/// scheduler's event arena, behind an `Rc` so the fault plane's duplicate
/// deliveries share one allocation instead of deep-cloning the message.
#[derive(Debug)]
enum EventKind<M> {
    Deliver {
        from: NodeId,
        msg: Rc<M>,
        /// Wire size, computed once at send time: consumed by the
        /// in-flight byte gauge when the message is serviced or dropped.
        bytes: u32,
    },
    Timer {
        token: u64,
        id: TimerId,
        incarnation: u32,
    },
    Crash,
    Revive,
    /// Internal: the host CPU frees up — drain its busy backlog.
    Resume,
}

/// An event that reached a busy host and is waiting for its CPU. Kept in
/// a per-host FIFO instead of being re-pushed into the global queue once
/// per service completion (the old scheme was O(backlog²) heap churn).
#[derive(Debug)]
enum Waiting<M> {
    Deliver {
        from: NodeId,
        msg: Rc<M>,
        bytes: u32,
    },
    Timer {
        token: u64,
        id: TimerId,
        incarnation: u32,
    },
}

#[derive(Debug, Clone, Default)]
struct Link {
    /// The link is unusable during any `[start, end)` window in the list.
    outages: Vec<(SimTime, SimTime)>,
    /// When the link's transmitter is next idle (single-server queue).
    next_free: SimTime,
    /// Memoized base propagation delay: sites never move, so the
    /// haversine + latency-model arithmetic is a pure function of the
    /// endpoint pair. At 10k hosts the per-message trig was a measured
    /// slice of the event loop (DESIGN.md §16); jitter still varies per
    /// message on top of this cached base.
    prop: Option<SimTime>,
}

struct Host<L: NodeLogic> {
    logic: L,
    site: Site,
    alive: bool,
    /// Bumped on every revive; a stale incarnation's timers never fire.
    incarnation: u32,
    /// Per-message service time: `cfg.node_service × site.load_factor`,
    /// fixed at admission (both factors are immutable afterwards).
    service: SimTime,
    /// The host CPU is busy until this instant (arrivals join `backlog`).
    busy_until: SimTime,
    /// Next [`TimerId`] this node's outboxes will hand out.
    timer_seq: u64,
    /// Pending timers by raw [`TimerId`]: the cancellation slot map.
    /// Entries are removed on fire, on cancel, and wholesale on crash.
    timers: BTreeMap<u64, EventRef>,
    /// Events that arrived while the CPU was busy, in arrival order.
    backlog: VecDeque<Waiting<L::Msg>>,
    /// Whether a `Resume` event is already scheduled for this host.
    resume_armed: bool,
}

/// The deterministic discrete-event simulator driving a set of
/// [`NodeLogic`] state machines over a modeled wide-area network.
pub struct World<L: NodeLogic> {
    cfg: SimConfig,
    hosts: Vec<Host<L>>,
    links: HashMap<(NodeId, NodeId), Link>,
    queue: Scheduler<(NodeId, EventKind<L::Msg>)>,
    backlog_total: usize,
    now: SimTime,
    rng: StdRng,
    /// Counters and traces; public for harness inspection.
    pub stats: SimStats,
}

impl<L: NodeLogic> World<L>
where
    L::Msg: WireSize + Clone,
{
    /// Creates an empty world.
    pub fn new(cfg: SimConfig) -> Self {
        World {
            // lint:allow(worldrng) this IS the world RNG: seeded once here
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            hosts: Vec::new(),
            links: HashMap::new(),
            queue: Scheduler::new(),
            backlog_total: 0,
            now: 0,
            stats: SimStats::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Mutable access to the fault plan. Lets a harness switch faults on
    /// a running world; edits take effect from the next send. Scheduled
    /// crashes are armed once at `add_node`, so only probabilistic faults
    /// and partition/link-fault windows can be changed this way.
    pub fn fault_plan_mut(&mut self) -> &mut FaultPlan {
        &mut self.cfg.fault
    }

    /// Number of hosts (alive or dead).
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// `true` when the world has no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Adds a node at `site` and schedules its `on_start` for the current
    /// time. Returns its transport address.
    pub fn add_node(&mut self, logic: L, site: Site) -> NodeId {
        let id = NodeId(self.hosts.len() as u32);
        let service = (self.cfg.node_service as f64 * site.load_factor) as SimTime;
        self.hosts.push(Host {
            logic,
            site,
            alive: true,
            incarnation: 0,
            service,
            busy_until: self.now,
            timer_seq: 1,
            timers: BTreeMap::new(),
            backlog: VecDeque::new(),
            resume_armed: false,
        });
        let mut out = self.outbox_for(id);
        self.hosts[id.0 as usize].logic.on_start(self.now, &mut out);
        self.flush_outbox(id, self.now, out);
        // Apply the fault plan's crash schedule for this node now that it
        // exists (plans are written before the world is populated).
        let crashes: Vec<(SimTime, Option<SimTime>)> = self
            .cfg
            .fault
            .crashes
            .iter()
            .filter(|c| c.node == id)
            .map(|c| (c.crash_at, c.revive_at))
            .collect();
        for (crash_at, revive_at) in crashes {
            self.push_event(crash_at.max(self.now), id, EventKind::Crash);
            if let Some(at) = revive_at {
                self.push_event(at.max(self.now), id, EventKind::Revive);
            }
        }
        id
    }

    /// The site a node runs at.
    pub fn site(&self, id: NodeId) -> &Site {
        &self.hosts[id.0 as usize].site
    }

    /// `true` if the node is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.hosts[id.0 as usize].alive
    }

    /// Read access to a node's logic (inspection only).
    pub fn node(&self, id: NodeId) -> &L {
        &self.hosts[id.0 as usize].logic
    }

    /// Runs `f` against a node's logic *at the current simulated time*,
    /// routing any emitted effects through the network. This is how an
    /// application invokes the MIND interface on its local node
    /// (`insert_record`, `query_index`, ...).
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R,
    ) -> R {
        let mut out = self.outbox_for(id);
        let now = self.now;
        let r = f(&mut self.hosts[id.0 as usize].logic, now, &mut out);
        self.flush_outbox(id, now, out);
        r
    }

    /// Crashes a node immediately: undelivered and future messages to it
    /// are dropped, its pending timers are cancelled and freed, and its
    /// busy backlog is discarded.
    pub fn crash_node(&mut self, id: NodeId) {
        self.crash_now(id);
    }

    /// Schedules a crash.
    pub fn schedule_crash(&mut self, id: NodeId, at: SimTime) {
        self.push_event(at, id, EventKind::Crash);
    }

    /// Revives a dead node: bumps its incarnation and replays `on_start`.
    pub fn revive_node(&mut self, id: NodeId) {
        self.revive_now(id);
    }

    /// Schedules a revive.
    pub fn schedule_revive(&mut self, id: NodeId, at: SimTime) {
        self.push_event(at, id, EventKind::Revive);
    }

    /// Makes the (bidirectional) link between `a` and `b` unusable during
    /// `[at, at + duration)` — messages sent in the window queue until it
    /// ends, modeling TCP retransmission through a transient outage.
    /// Windows accumulate: scheduling a second outage on the same link
    /// does not clobber the first.
    pub fn schedule_link_outage(&mut self, a: NodeId, b: NodeId, at: SimTime, duration: SimTime) {
        for key in [(a, b), (b, a)] {
            self.links
                .entry(key)
                .or_default()
                .outages
                .push((at, at + duration));
        }
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, _seq, (node, kind))) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        let idx = node.0 as usize;
        match kind {
            EventKind::Crash => self.crash_now(node),
            EventKind::Revive => self.revive_now(node),
            EventKind::Resume => {
                self.hosts[idx].resume_armed = false;
                self.drain_backlog(node);
            }
            EventKind::Deliver { from, msg, bytes } => {
                if !self.hosts[idx].alive {
                    self.stats.dropped_dead += 1;
                    self.stats.msg_bytes_inflight -= bytes as u64;
                } else if self.hosts[idx].busy_until > self.now {
                    // Busy host: park the delivery in the host's FIFO until
                    // the CPU frees up. Its bytes stay in flight.
                    self.stats.requeued_busy += 1;
                    self.hosts[idx]
                        .backlog
                        .push_back(Waiting::Deliver { from, msg, bytes });
                    self.backlog_total += 1;
                    self.note_pending();
                    self.arm_resume(node);
                } else {
                    self.stats.msg_bytes_inflight -= bytes as u64;
                    self.service_message(node, from, msg);
                }
            }
            EventKind::Timer {
                token,
                id,
                incarnation,
            } => {
                if !self.hosts[idx].alive || self.hosts[idx].incarnation != incarnation {
                    // Armed by a dead host or a previous incarnation: drop,
                    // and retire any slot-map entry it left behind.
                    self.hosts[idx].timers.remove(&id.0);
                } else if self.hosts[idx].busy_until > self.now {
                    self.stats.requeued_busy += 1;
                    self.hosts[idx].backlog.push_back(Waiting::Timer {
                        token,
                        id,
                        incarnation,
                    });
                    self.backlog_total += 1;
                    self.note_pending();
                    self.arm_resume(node);
                } else {
                    self.hosts[idx].timers.remove(&id.0);
                    self.fire_timer(node, token);
                }
            }
        }
        true
    }

    /// Runs until simulated time reaches `t` (or the queue drains).
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        self.now = self.now.max(t);
    }

    /// Runs until no events remain or `limit` is reached.
    pub fn run_until_idle(&mut self, limit: SimTime) {
        while self.now <= limit && self.step() {}
    }

    /// Number of pending events — scheduled plus parked in busy-host
    /// backlogs (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.queue.len() + self.backlog_total
    }

    /// Events parked in busy-host backlogs alone (diagnostics): the
    /// `pending_events` share that is CPU contention rather than
    /// scheduled future work.
    pub fn backlog_len(&self) -> usize {
        self.backlog_total
    }

    /// An outbox whose timer ids continue this node's sequence.
    fn outbox_for(&self, id: NodeId) -> Outbox<L::Msg> {
        Outbox::with_timer_seq(self.hosts[id.0 as usize].timer_seq)
    }

    fn note_pending(&mut self) {
        let p = (self.queue.len() + self.backlog_total) as u64;
        if p > self.stats.pending_events_peak {
            self.stats.pending_events_peak = p;
        }
        // The arena only grows at insert instants, so sampling it here
        // makes the high-water mark exact.
        let slots = self.queue.arena_len() as u64;
        if slots > self.stats.event_arena_peak {
            self.stats.event_arena_peak = slots;
        }
    }

    /// Schedules a delivery and charges its bytes to the in-flight gauge.
    fn push_deliver(
        &mut self,
        time: SimTime,
        to: NodeId,
        from: NodeId,
        msg: Rc<L::Msg>,
        bytes: usize,
    ) {
        let bytes = u32::try_from(bytes).unwrap_or(u32::MAX);
        self.stats.msg_bytes_inflight += bytes as u64;
        if self.stats.msg_bytes_inflight > self.stats.msg_bytes_inflight_peak {
            self.stats.msg_bytes_inflight_peak = self.stats.msg_bytes_inflight;
        }
        self.push_event(time, to, EventKind::Deliver { from, msg, bytes });
    }

    /// Approximate peak resident memory of the event plane: the arena's
    /// slot high-water times the per-slot size, plus the in-flight
    /// message-byte peak. The two peaks need not coincide, so this is an
    /// upper-bound estimate — cheap enough to report from a benchmark
    /// without a profiler.
    pub fn approx_peak_memory_bytes(&self) -> u64 {
        self.stats.event_arena_peak * self.queue.arena_slot_bytes() as u64
            + self.stats.msg_bytes_inflight_peak
    }

    fn push_event(&mut self, time: SimTime, node: NodeId, kind: EventKind<L::Msg>) -> EventRef {
        debug_assert!(time >= self.now, "scheduling into the past");
        let r = self.queue.insert(time, (node, kind));
        self.note_pending();
        r
    }

    /// Immediate crash: mark dead, free every pending timer (their arena
    /// slots are reclaimed on the spot), and discard the busy backlog —
    /// parked deliveries count as dropped-dead, parked timers die silently.
    fn crash_now(&mut self, id: NodeId) {
        let idx = id.0 as usize;
        self.hosts[idx].alive = false;
        let timers = std::mem::take(&mut self.hosts[idx].timers);
        for (_, r) in timers {
            let _ = self.queue.cancel(r);
        }
        let backlog = std::mem::take(&mut self.hosts[idx].backlog);
        self.backlog_total -= backlog.len();
        for item in backlog {
            if let Waiting::Deliver { bytes, .. } = item {
                self.stats.dropped_dead += 1;
                self.stats.msg_bytes_inflight -= bytes as u64;
            }
        }
    }

    /// Immediate revive (no-op on a live host).
    fn revive_now(&mut self, id: NodeId) {
        let idx = id.0 as usize;
        if self.hosts[idx].alive {
            return;
        }
        self.hosts[idx].alive = true;
        self.hosts[idx].incarnation += 1;
        self.hosts[idx].busy_until = self.now;
        let mut out = self.outbox_for(id);
        self.hosts[idx].logic.on_start(self.now, &mut out);
        self.flush_outbox(id, self.now, out);
    }

    /// Ensures a `Resume` event is scheduled for when the host frees up.
    fn arm_resume(&mut self, id: NodeId) {
        let idx = id.0 as usize;
        if self.hosts[idx].resume_armed {
            return;
        }
        self.hosts[idx].resume_armed = true;
        let at = self.hosts[idx].busy_until.max(self.now);
        self.push_event(at, id, EventKind::Resume);
    }

    /// Services parked events in arrival order until the backlog empties
    /// or a delivery occupies the CPU again (then re-arms `Resume`).
    fn drain_backlog(&mut self, id: NodeId) {
        let idx = id.0 as usize;
        if !self.hosts[idx].alive {
            // Crash already drained it; nothing can have accrued since.
            return;
        }
        loop {
            if self.hosts[idx].busy_until > self.now {
                if !self.hosts[idx].backlog.is_empty() {
                    self.arm_resume(id);
                }
                return;
            }
            let Some(item) = self.hosts[idx].backlog.pop_front() else {
                return;
            };
            self.backlog_total -= 1;
            match item {
                Waiting::Deliver { from, msg, bytes } => {
                    self.stats.msg_bytes_inflight -= bytes as u64;
                    self.service_message(id, from, msg);
                }
                Waiting::Timer {
                    token,
                    id: timer_id,
                    incarnation,
                } => {
                    // A missing slot-map entry means the timer was
                    // cancelled while it waited for the CPU.
                    if self.hosts[idx].incarnation == incarnation
                        && self.hosts[idx].timers.remove(&timer_id.0).is_some()
                    {
                        self.fire_timer(id, token);
                    }
                }
            }
        }
    }

    /// Delivers one message to a free host, occupying its CPU for the
    /// service time.
    fn service_message(&mut self, id: NodeId, from: NodeId, msg: Rc<L::Msg>) {
        let idx = id.0 as usize;
        let service = self.hosts[idx].service;
        self.hosts[idx].busy_until = self.now + service;
        self.stats.delivered += 1;
        // Sole-owner deliveries (the common case) move the payload out of
        // the arena without copying; only a still-pending duplicate forces
        // a clone.
        let msg = match Rc::try_unwrap(msg) {
            Ok(m) => m,
            Err(rc) => (*rc).clone(),
        };
        let mut out = self.outbox_for(id);
        self.hosts[idx]
            .logic
            .on_message(self.now, from, msg, &mut out);
        // Effects leave the host once the CPU is done with the message.
        self.flush_outbox(id, self.now + service, out);
    }

    fn fire_timer(&mut self, id: NodeId, token: u64) {
        self.stats.timers_fired += 1;
        let mut out = self.outbox_for(id);
        self.hosts[id.0 as usize]
            .logic
            .on_timer(self.now, token, &mut out);
        self.flush_outbox(id, self.now, out);
    }

    /// Retires one pending timer of `node`: O(1) via the slot map. If the
    /// timer is parked in the busy backlog rather than the scheduler,
    /// removing its map entry is what cancels it there.
    fn cancel_node_timer(&mut self, node: NodeId, id: TimerId) {
        if let Some(r) = self.hosts[node.0 as usize].timers.remove(&id.0) {
            let _ = self.queue.cancel(r);
            self.stats.timers_cancelled += 1;
        }
    }

    /// One trip through the directed link `from → to`: queuing behind the
    /// link's single-server transmitter, serialization, (possibly
    /// jittered) propagation, and any fault-plan delay spike. Records link
    /// stats and returns the arrival time. Every RNG draw is gated on its
    /// probability being non-zero, so fault-free, jitter-free worlds
    /// consume no randomness here.
    fn link_arrival(&mut self, from: NodeId, to: NodeId, t_emit: SimTime, bytes: usize) -> SimTime {
        let geo_from = self.hosts[from.0 as usize].site.geo;
        let geo_to = self.hosts[to.0 as usize].site.geo;
        let latency = self.cfg.latency;
        let link = self.links.entry((from, to)).or_default();
        let mut start = t_emit.max(link.next_free);
        // Skip forward over outage windows until none covers `start`
        // (leaving one window can land inside another).
        loop {
            let mut moved = false;
            for &(o_start, o_end) in &link.outages {
                if start >= o_start && start < o_end {
                    start = o_end;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        let serialize =
            (bytes as u128 * 1_000_000 / self.cfg.link_bytes_per_sec as u128) as SimTime;
        let queue_delay = start - t_emit;
        let prop = *link
            .prop
            .get_or_insert_with(|| latency.propagation(&geo_from, &geo_to));
        link.next_free = start + serialize;
        let jitter = if self.cfg.jitter_frac > 0.0 {
            1.0 + self.rng.random_range(0.0..self.cfg.jitter_frac)
        } else {
            1.0
        };
        let mut prop = (prop as f64 * jitter) as SimTime;
        if self.cfg.fault.delay_spike_prob > 0.0
            && self.rng.random_range(0.0..1.0) < self.cfg.fault.delay_spike_prob
        {
            prop += self
                .rng
                .random_range(1..=self.cfg.fault.delay_spike_max.max(1));
        }
        let arrival = start + serialize + prop;
        if self.cfg.link_stats {
            self.stats
                .record_link(from, to, bytes, queue_delay, arrival - t_emit, t_emit);
        }
        arrival
    }

    /// Routes an outbox's effects into the event queue: sends traverse the
    /// modeled network (queuing + serialization + jittered propagation)
    /// and the fault plane; timers attach to the emitting node's current
    /// incarnation; cancellations retire pending timers in O(1).
    fn flush_outbox(&mut self, from: NodeId, t_emit: SimTime, mut out: Outbox<L::Msg>) {
        let fx = out.drain();
        self.hosts[from.0 as usize].timer_seq = fx.next_timer_id;
        for (to, msg) in fx.sends {
            if to.0 as usize >= self.hosts.len() {
                // Unknown endpoint: the connection attempt fails.
                self.stats.dropped_unknown += 1;
                continue;
            }
            let bytes = msg.wire_size();
            if to == from {
                // Loopback: negligible network cost, never faulted.
                self.push_deliver(t_emit + 10, to, from, Rc::new(msg), bytes);
                continue;
            }
            // Fault plane. Partition checks are schedule lookups (no
            // RNG); loss and duplication draw only when their
            // probability is non-zero so zero-fault streams replay
            // unchanged.
            if self.cfg.fault.severed(from, to, t_emit) {
                self.stats.partitioned += 1;
                continue;
            }
            let loss = self.cfg.fault.loss_for(from, to, t_emit);
            if loss > 0.0 && self.rng.random_range(0.0..1.0) < loss {
                self.stats.dropped_fault += 1;
                continue;
            }
            let arrival = self.link_arrival(from, to, t_emit, bytes);
            let msg = Rc::new(msg);
            if self.cfg.fault.dup_prob > 0.0
                && self.rng.random_range(0.0..1.0) < self.cfg.fault.dup_prob
            {
                // The duplicate re-enters the link queue behind the
                // original, so it arrives strictly later. It shares the
                // original's arena payload instead of cloning it.
                self.stats.duplicated += 1;
                let dup_arrival = self.link_arrival(from, to, t_emit, bytes);
                self.push_deliver(dup_arrival, to, from, Rc::clone(&msg), bytes);
            }
            self.push_deliver(arrival, to, from, msg, bytes);
        }
        let incarnation = self.hosts[from.0 as usize].incarnation;
        for (delay, token, id) in fx.timers {
            let r = self.push_event(
                t_emit + delay.max(1),
                from,
                EventKind::Timer {
                    token,
                    id,
                    incarnation,
                },
            );
            self.hosts[from.0 as usize].timers.insert(id.0, r);
        }
        for id in fx.cancels {
            self.cancel_node_timer(from, id);
        }
    }
}

/// The simulator as a [`ClusterDriver`]: the deterministic substrate of
/// the `MindCluster` experiment API. `run_for` *is* the event loop, the
/// clock is simulated time, and same seed + same call sequence replays
/// byte-identically. The `Send + 'static` closure bounds the seam
/// requires are free here — everything runs inline on the caller's
/// thread.
impl<L: NodeLogic> mind_types::ClusterDriver<L> for World<L>
where
    L::Msg: WireSize + Clone,
{
    fn len(&self) -> usize {
        World::len(self)
    }

    fn now(&self) -> SimTime {
        World::now(self)
    }

    fn is_alive(&self, id: NodeId) -> bool {
        World::is_alive(self, id)
    }

    fn with_node<R, F>(&mut self, id: NodeId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R + Send + 'static,
    {
        World::with_node(self, id, f)
    }

    fn read<R, F>(&self, id: NodeId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&L) -> R + Send + 'static,
    {
        f(self.node(id))
    }

    fn run_for(&mut self, d: SimTime) {
        let t = self.now + d;
        self.run_until(t);
    }

    fn quiesce(&mut self, limit: SimTime) {
        let t = self.now + limit;
        self.run_until_idle(t);
    }

    fn crash(&mut self, id: NodeId) {
        self.crash_node(id);
    }

    fn revive(&mut self, id: NodeId) {
        self.revive_node(id);
    }
}

/// A convenient default for tests: 1 ms everywhere, no jitter.
pub fn lan_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        latency: LatencyModel {
            inflation: 1.0,
            km_per_sec: 200_000.0,
            fixed: MILLIS,
        },
        jitter_frac: 0.0,
        link_bytes_per_sec: 100_000_000,
        node_service: 10,
        fault: FaultPlan::default(),
        link_stats: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_types::node::SECONDS;

    /// Ping-pong logic: counts messages; replies until a hop budget runs out.
    struct PingPong {
        peer: Option<NodeId>,
        hops_left: u32,
        received: Vec<(SimTime, u32)>,
    }

    #[derive(Debug, Clone)]
    struct Ping(u32);
    impl WireSize for Ping {
        fn wire_size(&self) -> usize {
            100
        }
    }

    impl NodeLogic for PingPong {
        type Msg = Ping;
        fn on_start(&mut self, _now: SimTime, out: &mut Outbox<Ping>) {
            if let Some(peer) = self.peer {
                if self.hops_left > 0 {
                    out.send(peer, Ping(self.hops_left));
                }
            }
        }
        fn on_message(&mut self, now: SimTime, from: NodeId, msg: Ping, out: &mut Outbox<Ping>) {
            self.received.push((now, msg.0));
            if msg.0 > 1 {
                out.send(from, Ping(msg.0 - 1));
            }
        }
        fn on_timer(&mut self, _now: SimTime, _token: u64, _out: &mut Outbox<Ping>) {}
    }

    /// Builds a sink node `b` (id 0) first, then a pinger `a` (id 1) whose
    /// `on_start` fires the first ping — so the destination always exists.
    fn two_node_world(hops: u32) -> (World<PingPong>, NodeId, NodeId) {
        let mut w = World::new(lan_config(1));
        let b = w.add_node(
            PingPong {
                peer: None,
                hops_left: 0,
                received: vec![],
            },
            Site::new("b", 0.0, 1.0),
        );
        let a = w.add_node(
            PingPong {
                peer: Some(b),
                hops_left: hops,
                received: vec![],
            },
            Site::new("a", 0.0, 0.0),
        );
        (w, a, b)
    }

    #[test]
    fn messages_flow_and_time_advances() {
        let (mut w, a, b) = two_node_world(4);
        w.run_until_idle(10 * SECONDS);
        // 4 hops: b gets 4 and 2, a gets 3 and 1.
        assert_eq!(
            w.node(b)
                .received
                .iter()
                .map(|&(_, h)| h)
                .collect::<Vec<_>>(),
            vec![4, 2]
        );
        assert_eq!(
            w.node(a)
                .received
                .iter()
                .map(|&(_, h)| h)
                .collect::<Vec<_>>(),
            vec![3, 1]
        );
        assert!(w.now() > 4 * MILLIS, "four 1ms+ hops, now = {}", w.now());
        assert_eq!(w.stats.delivered, 4);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut w, _a, b) = two_node_world(6);
            w.run_until_idle(10 * SECONDS);
            w.node(b).received.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dead_node_drops_messages() {
        let (mut w, _a, b) = two_node_world(4);
        w.crash_node(b);
        w.run_until_idle(10 * SECONDS);
        assert!(w.node(b).received.is_empty());
        assert_eq!(w.stats.dropped_dead, 1);
    }

    #[test]
    fn revive_replays_on_start() {
        let (mut w, a, _b) = two_node_world(2);
        w.run_until_idle(SECONDS);
        let before = w.node(a).received.len();
        w.crash_node(a);
        w.revive_node(a); // on_start sends another ping
        w.run_until_idle(10 * SECONDS);
        assert!(w.node(a).received.len() > before);
    }

    #[test]
    fn link_outage_delays_delivery() {
        let (mut w, a, b) = two_node_world(0); // no initial traffic
                                               // Outage covers the send window; message waits out the outage.
        w.schedule_link_outage(a, b, 0, 5 * SECONDS);
        w.with_node(a, |_logic, _now, out| out.send(b, Ping(1)));
        w.run_until_idle(30 * SECONDS);
        let (t, _) = w.node(b).received[0];
        assert!(
            t >= 5 * SECONDS,
            "delivery at {t} should wait for outage end"
        );
    }

    #[test]
    fn stacked_link_outages_do_not_clobber() {
        // Regression: a second outage on the same link used to overwrite
        // the first. Two back-to-back windows must both be honored — a
        // message sent during the first window waits out both.
        let (mut w, a, b) = two_node_world(0);
        w.schedule_link_outage(a, b, 0, 5 * SECONDS);
        w.schedule_link_outage(a, b, 5 * SECONDS, 5 * SECONDS);
        w.with_node(a, |_logic, _now, out| out.send(b, Ping(1)));
        w.run_until_idle(30 * SECONDS);
        let (t, _) = w.node(b).received[0];
        assert!(
            t >= 10 * SECONDS,
            "delivery at {t} should wait out both outage windows"
        );
    }

    #[test]
    fn unknown_destination_counts_dropped_unknown() {
        let (mut w, a, _b) = two_node_world(0);
        w.with_node(a, |_logic, _now, out| out.send(NodeId(99), Ping(1)));
        w.run_until_idle(SECONDS);
        assert_eq!(w.stats.dropped_unknown, 1);
        assert_eq!(
            w.stats.dropped_dead, 0,
            "out-of-range sends must not masquerade as dead-host drops"
        );
    }

    #[test]
    fn with_node_routes_effects() {
        let (mut w, a, b) = two_node_world(0); // no initial traffic
        w.with_node(a, |_logic, _now, out| out.send(b, Ping(1)));
        w.run_until_idle(SECONDS);
        assert_eq!(w.node(b).received.len(), 1);
    }

    #[test]
    fn loaded_node_serializes_deliveries() {
        let mut cfg = lan_config(2);
        cfg.node_service = 100_000; // 100 ms per message
        let mut w: World<PingPong> = World::new(cfg);
        let sink = NodeId(1);
        let a = w.add_node(
            PingPong {
                peer: None,
                hops_left: 0,
                received: vec![],
            },
            Site::new("src", 0.0, 0.0),
        );
        let mut slow = Site::new("sink", 0.0, 0.1);
        slow.load_factor = 5.0; // 500 ms per message
        let _b = w.add_node(
            PingPong {
                peer: None,
                hops_left: 0,
                received: vec![],
            },
            slow,
        );
        // Blast 5 messages at once (Ping(1) elicits no reply traffic).
        w.with_node(a, |_l, _n, out| {
            for _ in 0..5 {
                out.send(sink, Ping(1));
            }
        });
        w.run_until_idle(60 * SECONDS);
        let times: Vec<SimTime> = w.node(sink).received.iter().map(|&(t, _)| t).collect();
        assert_eq!(times.len(), 5);
        // Handlers run at least 500 ms apart on the overloaded host.
        for pair in times.windows(2) {
            assert!(
                pair[1] - pair[0] >= 500_000,
                "deliveries {pair:?} too close"
            );
        }
        // Each parked message entered the backlog exactly once (the old
        // requeue scheme re-pushed the whole backlog per completion).
        assert_eq!(w.stats.requeued_busy, 4);
        assert_eq!(w.pending_events(), 0, "backlog fully drained");
        assert!(w.stats.pending_events_peak >= 5);
    }

    #[test]
    fn timers_cancelled_across_incarnations() {
        struct TimerNode {
            fired: u32,
        }
        #[derive(Debug, Clone)]
        struct NoMsg;
        impl WireSize for NoMsg {}
        impl NodeLogic for TimerNode {
            type Msg = NoMsg;
            fn on_start(&mut self, _now: SimTime, out: &mut Outbox<NoMsg>) {
                out.set_timer(SECONDS, 1);
            }
            fn on_message(&mut self, _n: SimTime, _f: NodeId, _m: NoMsg, _o: &mut Outbox<NoMsg>) {}
            fn on_timer(&mut self, _now: SimTime, _token: u64, _out: &mut Outbox<NoMsg>) {
                self.fired += 1;
            }
        }
        let mut w: World<TimerNode> = World::new(lan_config(3));
        let a = w.add_node(TimerNode { fired: 0 }, Site::new("a", 0.0, 0.0));
        // Crash + revive before the original timer fires: the stale timer
        // must not fire, but the revive's new timer must.
        w.crash_node(a);
        w.revive_node(a);
        w.run_until_idle(10 * SECONDS);
        assert_eq!(w.node(a).fired, 1);
    }

    #[test]
    fn explicit_cancel_prevents_fire() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        #[derive(Debug, Clone)]
        struct NoMsg;
        impl WireSize for NoMsg {}
        impl NodeLogic for TimerNode {
            type Msg = NoMsg;
            fn on_start(&mut self, _now: SimTime, _out: &mut Outbox<NoMsg>) {}
            fn on_message(&mut self, _n: SimTime, _f: NodeId, _m: NoMsg, _o: &mut Outbox<NoMsg>) {}
            fn on_timer(&mut self, _now: SimTime, token: u64, _out: &mut Outbox<NoMsg>) {
                self.fired.push(token);
            }
        }
        let mut w: World<TimerNode> = World::new(lan_config(5));
        let a = w.add_node(TimerNode { fired: vec![] }, Site::new("a", 0.0, 0.0));
        let (keep, kill) = w.with_node(a, |_l, _n, out| {
            (out.set_timer(SECONDS, 1), out.set_timer(SECONDS, 2))
        });
        // Cancel from a later event's outbox, as protocol code would.
        w.with_node(a, |_l, _n, out| out.cancel_timer(kill));
        w.run_until_idle(10 * SECONDS);
        assert_eq!(w.node(a).fired, vec![1]);
        assert_eq!(w.stats.timers_cancelled, 1);
        assert_eq!(w.stats.timers_fired, 1);
        // Cancelling an already-fired timer is a counted-free no-op.
        w.with_node(a, |_l, _n, out| out.cancel_timer(keep));
        assert_eq!(w.stats.timers_cancelled, 1);
    }

    #[test]
    fn memory_high_water_counters_move_under_load() {
        let (mut w, a, b) = two_node_world(0);
        assert_eq!(w.stats.msg_bytes_inflight, 0);
        w.with_node(a, |_l, _n, out| {
            for _ in 0..8 {
                out.send(b, Ping(1));
            }
        });
        // Eight 100-byte pings scheduled at once: all in flight together.
        assert!(
            w.stats.msg_bytes_inflight_peak >= 800,
            "peak {} too low",
            w.stats.msg_bytes_inflight_peak
        );
        assert!(w.stats.event_arena_peak >= 8);
        w.run_until_idle(10 * SECONDS);
        assert_eq!(
            w.stats.msg_bytes_inflight, 0,
            "gauge balances to zero once all deliveries are serviced"
        );
        assert!(w.approx_peak_memory_bytes() >= 800);
    }

    #[test]
    fn inflight_gauge_balances_through_crash_and_busy_paths() {
        let mut cfg = lan_config(7);
        cfg.node_service = 100_000;
        let mut w: World<PingPong> = World::new(cfg);
        let sink = NodeId(1);
        let a = w.add_node(
            PingPong {
                peer: None,
                hops_left: 0,
                received: vec![],
            },
            Site::new("src", 0.0, 0.0),
        );
        let b = w.add_node(
            PingPong {
                peer: None,
                hops_left: 0,
                received: vec![],
            },
            Site::new("sink", 0.0, 0.1),
        );
        w.with_node(a, |_l, _n, out| {
            for _ in 0..5 {
                out.send(sink, Ping(1));
            }
        });
        // Let some deliveries park in the busy backlog, then crash the
        // sink so the rest die on both the dead-drop and discard paths.
        w.run_until_idle(150 * MILLIS);
        w.crash_node(b);
        w.run_until_idle(10 * SECONDS);
        assert_eq!(w.stats.msg_bytes_inflight, 0, "every path returns bytes");
    }

    #[test]
    fn link_stats_gate_disables_per_link_accounting() {
        let mut cfg = lan_config(8);
        cfg.link_stats = false;
        let mut w: World<PingPong> = World::new(cfg);
        let b_id = NodeId(1);
        let a = w.add_node(
            PingPong {
                peer: None,
                hops_left: 0,
                received: vec![],
            },
            Site::new("a", 0.0, 0.0),
        );
        let _b = w.add_node(
            PingPong {
                peer: None,
                hops_left: 0,
                received: vec![],
            },
            Site::new("b", 0.0, 1.0),
        );
        w.with_node(a, |_l, _n, out| out.send(b_id, Ping(1)));
        w.run_until_idle(10 * SECONDS);
        assert!(w.stats.per_link.is_empty(), "per-link map stays empty");
        assert_eq!(w.stats.delivered, 1, "scalar counters unaffected");
    }

    #[test]
    fn queue_delay_recorded_under_burst() {
        let mut cfg = lan_config(4);
        cfg.link_bytes_per_sec = 1000; // 100-byte message = 100 ms serialization
        let mut w: World<PingPong> = World::new(cfg);
        let b_id = NodeId(1);
        let a = w.add_node(
            PingPong {
                peer: None,
                hops_left: 0,
                received: vec![],
            },
            Site::new("a", 0.0, 0.0),
        );
        let _b = w.add_node(
            PingPong {
                peer: None,
                hops_left: 0,
                received: vec![],
            },
            Site::new("b", 0.0, 1.0),
        );
        w.with_node(a, |_l, _n, out| {
            for i in 0..3 {
                out.send(b_id, Ping(i));
            }
        });
        w.run_until_idle(60 * SECONDS);
        let stats = &w.stats.per_link[&(a, b_id)];
        assert_eq!(stats.messages, 3);
        // Third message waits for two 100 ms serializations.
        assert!(stats.max_queue_delay >= 200 * MILLIS);
    }
}
