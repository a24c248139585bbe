//! Simulation counters and per-link traces.

use mind_types::node::SimTime;
use mind_types::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Per-directed-link counters.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Messages carried.
    pub messages: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Messages larger than the control-plane envelope (64 bytes) —
    /// effectively the data tuples/queries on the link, separating the
    /// Figure 12 tuple counts from heartbeat chatter.
    pub data_messages: u64,
    /// Total time messages waited for the link to free up.
    pub total_queue_delay: SimTime,
    /// Worst single queuing delay observed.
    pub max_queue_delay: SimTime,
}

/// Aggregate simulation statistics.
///
/// The per-link message counters regenerate Figure 12 (tuples per overlay
/// link); the optional per-link delay traces regenerate Figure 8 (the
/// transmission-delay time series of the slowest link).
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Messages handed to `on_message`.
    pub delivered: u64,
    /// Messages dropped because the destination was dead on arrival.
    pub dropped_dead: u64,
    /// Messages addressed to a [`NodeId`] outside the world — a failed
    /// connection attempt, not a dead-host drop.
    pub dropped_unknown: u64,
    /// Messages lost by the fault plan (global or per-link loss draws).
    pub dropped_fault: u64,
    /// Extra copies injected by the fault plan's duplication draws.
    pub duplicated: u64,
    /// Messages dropped because a scheduled partition severed the link.
    pub partitioned: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Timers retired via `cancel_timer` before they could fire.
    pub timers_cancelled: u64,
    /// Events that arrived at a busy host and were parked in its backlog
    /// (each parked event is counted exactly once).
    pub requeued_busy: u64,
    /// High-water mark of pending events (scheduled + parked in busy-host
    /// backlogs) — bounded-memory evidence for long chaos runs.
    pub pending_events_peak: u64,
    /// High-water mark of allocated event-arena slots. Slots are reused
    /// after fire/cancel, so this is the scheduler's resident capacity —
    /// not traffic volume — and with the per-slot size it bounds the
    /// event plane's memory without an external profiler.
    pub event_arena_peak: u64,
    /// Wire bytes of messages currently in flight: scheduled deliveries
    /// plus deliveries parked in busy-host backlogs. Maintained by the
    /// world at push/consume instants; balances back to zero once every
    /// message is serviced or dropped.
    pub msg_bytes_inflight: u64,
    /// High-water mark of [`SimStats::msg_bytes_inflight`] — the
    /// message-arena memory peak the sim benchmark reports.
    pub msg_bytes_inflight_peak: u64,
    /// Counters per directed link `(from, to)`.
    pub per_link: BTreeMap<(NodeId, NodeId), LinkStats>,
    /// Links for which full delay traces are recorded.
    pub traced_links: BTreeSet<(NodeId, NodeId)>,
    /// `(send time, total delay)` samples for traced links.
    pub traces: BTreeMap<(NodeId, NodeId), Vec<(SimTime, SimTime)>>,
}

/// Network-level statistics including the fault-plane counters — the name
/// the chaos/fault test suites use for assertions.
pub type NetStats = SimStats;

impl SimStats {
    /// The scalar counters as one comparable tuple `(delivered,
    /// dropped_dead, dropped_unknown, dropped_fault, duplicated,
    /// partitioned, timers_fired, timers_cancelled, requeued_busy,
    /// pending_events_peak)` — handy for determinism assertions.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
        (
            self.delivered,
            self.dropped_dead,
            self.dropped_unknown,
            self.dropped_fault,
            self.duplicated,
            self.partitioned,
            self.timers_fired,
            self.timers_cancelled,
            self.requeued_busy,
            self.pending_events_peak,
        )
    }

    /// Every scalar field by name, in declaration order: what a replay
    /// pin prints. The destructuring fails the build when a field is
    /// added and not named here.
    pub fn named(&self) -> [(&'static str, u64); 13] {
        let SimStats {
            delivered,
            dropped_dead,
            dropped_unknown,
            dropped_fault,
            duplicated,
            partitioned,
            timers_fired,
            timers_cancelled,
            requeued_busy,
            pending_events_peak,
            event_arena_peak,
            msg_bytes_inflight,
            msg_bytes_inflight_peak,
            per_link: _,
            traced_links: _,
            traces: _,
        } = *self;
        [
            ("delivered", delivered),
            ("dropped_dead", dropped_dead),
            ("dropped_unknown", dropped_unknown),
            ("dropped_fault", dropped_fault),
            ("duplicated", duplicated),
            ("partitioned", partitioned),
            ("timers_fired", timers_fired),
            ("timers_cancelled", timers_cancelled),
            ("requeued_busy", requeued_busy),
            ("pending_events_peak", pending_events_peak),
            ("event_arena_peak", event_arena_peak),
            ("msg_bytes_inflight", msg_bytes_inflight),
            ("msg_bytes_inflight_peak", msg_bytes_inflight_peak),
        ]
    }

    /// Enables delay tracing on the directed link `from → to`.
    pub fn trace_link(&mut self, from: NodeId, to: NodeId) {
        self.traced_links.insert((from, to));
    }

    /// Records one message on a link.
    pub(crate) fn record_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        queue_delay: SimTime,
        total_delay: SimTime,
        sent_at: SimTime,
    ) {
        let s = self.per_link.entry((from, to)).or_default();
        s.messages += 1;
        if bytes > 64 {
            s.data_messages += 1;
        }
        s.bytes += bytes as u64;
        s.total_queue_delay += queue_delay;
        s.max_queue_delay = s.max_queue_delay.max(queue_delay);
        if self.traced_links.contains(&(from, to)) {
            self.traces
                .entry((from, to))
                .or_default()
                .push((sent_at, total_delay));
        }
    }

    /// The directed link that carried the most messages.
    pub fn busiest_link(&self) -> Option<((NodeId, NodeId), &LinkStats)> {
        self.per_link
            .iter()
            .max_by_key(|(_, s)| s.messages)
            .map(|(&k, v)| (k, v))
    }

    /// The directed link with the worst single queuing delay — the paper's
    /// "slowest link" of Figure 8.
    pub fn slowest_link(&self) -> Option<((NodeId, NodeId), &LinkStats)> {
        self.per_link
            .iter()
            .max_by_key(|(_, s)| s.max_queue_delay)
            .map(|(&k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rank_links() {
        let mut s = SimStats::default();
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        s.record_link(a, b, 100, 0, 10, 0);
        s.record_link(a, b, 32, 50, 60, 5);
        s.record_link(b, c, 100, 500, 510, 7);
        assert_eq!(s.busiest_link().unwrap().0, (a, b));
        assert_eq!(s.slowest_link().unwrap().0, (b, c));
        assert_eq!(s.per_link[&(a, b)].messages, 2);
        assert_eq!(s.per_link[&(a, b)].bytes, 132);
        assert_eq!(
            s.per_link[&(a, b)].data_messages,
            1,
            "32-byte control msg not counted"
        );
        assert_eq!(s.per_link[&(a, b)].max_queue_delay, 50);
    }

    #[test]
    fn tracing_only_requested_links() {
        let mut s = SimStats::default();
        let (a, b) = (NodeId(0), NodeId(1));
        s.trace_link(a, b);
        s.record_link(a, b, 10, 1, 11, 100);
        s.record_link(b, a, 10, 2, 12, 101);
        assert_eq!(s.traces[&(a, b)], vec![(100, 11)]);
        assert!(!s.traces.contains_key(&(b, a)));
    }
}
