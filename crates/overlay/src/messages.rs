//! Overlay wire messages and upcall events.

use mind_types::{BitCode, NodeId, WireSize};
use serde::{Deserialize, Serialize};

/// Names one broadcast ([`OverlayMsg::Flood`], [`OverlayMsg::TakeoverAnnounce`]
/// or [`OverlayMsg::RingProbe`]) by three parts, so that each node handles
/// it once: the node that started it, that node's boot epoch (a restarted
/// process counts from 0 again) and its unmasked sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BroadcastId {
    /// The node that started the broadcast.
    pub origin: NodeId,
    /// The origin's boot epoch (`MindConfig::boot_id` in `mind-core`).
    pub boot: u64,
    /// The origin's count of broadcasts started before this one, this boot.
    pub seq: u64,
}

/// Messages exchanged between overlay instances.
///
/// `P` is the application payload type (`mind-core`'s index-management
/// payload); the overlay transports it opaquely in [`OverlayMsg::Route`]
/// and [`OverlayMsg::Flood`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum OverlayMsg<P> {
    // ---- join protocol (Section 3.3, Figure 4) ----
    /// Random-walk step looking for a join target on behalf of `joiner`.
    LookupJoinTarget {
        /// The node that wants to join.
        joiner: NodeId,
        /// Remaining random-walk steps.
        ttl: u8,
    },
    /// Walk endpoint's answer: the shortest-code node in its neighborhood.
    JoinCandidate {
        /// Proposed accepting node.
        candidate: NodeId,
    },
    /// Direct request from the joiner to the accepting candidate.
    JoinRequest,
    /// Acceptor asks a neighbor to acknowledge its split `old_code` →
    /// `old_code·0` (self) / `old_code·1` (joiner).
    SplitAsk {
        /// The joining node (future owner of `old_code·1`).
        joiner: NodeId,
        /// The acceptor's current code.
        old_code: BitCode,
    },
    /// Neighbor's verdict on a [`OverlayMsg::SplitAsk`].
    SplitAck {
        /// `false` rejects the split (the neighbor is serializing a
        /// shallower concurrent join).
        ok: bool,
        /// Echo of the acceptor code the verdict refers to.
        old_code: BitCode,
    },
    /// Acceptor informs neighbors the split committed; carries its new
    /// code.
    SplitCommit {
        /// Acceptor's post-split code (`old_code·0`).
        new_code: BitCode,
    },
    /// Acceptor tells the joiner the join is final and hands over its
    /// neighbor table.
    JoinCommit {
        /// The joiner's new code.
        code: BitCode,
        /// Neighbor entries for the joiner: `(entry code, node)`.
        neighbors: Vec<(BitCode, NodeId)>,
    },
    /// A join attempt was refused (concurrent-join preemption); the joiner
    /// backs off and retries from its bootstrap.
    JoinReject,

    // ---- maintenance (Section 3.8) ----
    /// Periodic liveness beacon; carries the sender's current code so
    /// tables self-heal.
    Heartbeat {
        /// Sender's current code.
        code: BitCode,
    },
    /// Reply to a heartbeat.
    HeartbeatAck {
        /// Sender's current code.
        code: BitCode,
    },
    /// Overlay-wide announcement that the broadcast's origin took over a
    /// failed sibling's region by shortening its code to `new_code`.
    /// Flooded (with duplicate suppression) so that *all* nodes — the
    /// failed node's former neighbors included, which the taker-over does
    /// not know — learn the region's new owner and can dissolve their own
    /// provisional claims on it.
    TakeoverAnnounce {
        /// The broadcast id; its origin is the node that took over.
        id: BroadcastId,
        /// The origin's shortened code.
        new_code: BitCode,
    },

    // ---- routing ----
    /// Greedy-routed application message.
    Route {
        /// Destination region code.
        target: BitCode,
        /// Overlay hops taken so far.
        hops: u32,
        /// Opaque application payload.
        payload: P,
    },
    /// Expanding-ring search for a node with code overlap ≥ `need_cpl`
    /// with `target` (recovery from greedy dead-ends).
    RingProbe {
        /// The broadcast id; its origin is the node waiting for the
        /// probe result.
        id: BroadcastId,
        /// The routing target that dead-ended.
        target: BitCode,
        /// Minimum common-prefix length a responder must improve on.
        need_cpl: u8,
        /// Remaining broadcast scope.
        ttl: u8,
    },
    /// Positive answer to a ring probe.
    RingHit {
        /// Echo of the probe's id.
        id: BroadcastId,
    },

    // ---- flooding (index create/drop) ----
    /// Flooded application payload with duplicate suppression.
    Flood {
        /// The broadcast id.
        id: BroadcastId,
        /// Opaque application payload, delivered on every node.
        payload: P,
    },

    /// Application payload sent directly to a known node, bypassing
    /// overlay routing — used for replica pushes and for query responses,
    /// which the paper transfers "directly to the originator rather than
    /// being routed on the overlay" (Section 3.6).
    Direct {
        /// Opaque application payload.
        payload: P,
    },
}

impl<P: WireSize> WireSize for OverlayMsg<P> {
    fn wire_size(&self) -> usize {
        // Envelope sizes approximate the prototype's framed TCP messages.
        match self {
            OverlayMsg::Route { payload, .. } => 24 + payload.wire_size(),
            OverlayMsg::Flood { payload, .. } => 16 + payload.wire_size(),
            OverlayMsg::Direct { payload } => 8 + payload.wire_size(),
            OverlayMsg::JoinCommit { neighbors, .. } => 16 + neighbors.len() * 16,
            // Fixed-size control messages, enumerated so the compiler
            // flags this site when a new wire variant is added.
            OverlayMsg::LookupJoinTarget { .. }
            | OverlayMsg::JoinCandidate { .. }
            | OverlayMsg::JoinRequest
            | OverlayMsg::SplitAsk { .. }
            | OverlayMsg::SplitAck { .. }
            | OverlayMsg::SplitCommit { .. }
            | OverlayMsg::JoinReject
            | OverlayMsg::Heartbeat { .. }
            | OverlayMsg::HeartbeatAck { .. }
            | OverlayMsg::TakeoverAnnounce { .. }
            | OverlayMsg::RingProbe { .. }
            | OverlayMsg::RingHit { .. } => 32,
        }
    }
}

/// Upcalls from the overlay to its embedding node: an overlay step
/// yields at most one. Splits, takeovers and failure verdicts change the
/// overlay's own state ([`crate::Overlay::code`],
/// [`crate::Overlay::claimed`]) and raise no upcall.
#[derive(Debug, Clone, PartialEq)]
pub enum OverlayEvent<P> {
    /// This node completed its join and owns `code`.
    Joined {
        /// The code assigned by the accepting node.
        code: BitCode,
        /// The accepting node (the joiner's sibling), which still holds
        /// the region's historical data — the application keeps a pointer
        /// to it until that data ages (Section 3.4).
        acceptor: NodeId,
    },
    /// A routed payload reached the node responsible for `target`.
    Delivered {
        /// The region code the message was addressed to.
        target: BitCode,
        /// Overlay hops the message took.
        hops: u32,
        /// The payload.
        payload: P,
    },
    /// A flooded payload arrived (exactly once per flood id).
    FloodDelivered {
        /// The payload.
        payload: P,
    },
    /// A direct (unrouted) payload arrived.
    DirectDelivered {
        /// The sending node.
        from: NodeId,
        /// The payload.
        payload: P,
    },
    /// A routed message could not be delivered (TTL exhausted after
    /// recovery attempts). Carries the payload back to the application.
    Undeliverable {
        /// The region code the message was addressed to.
        target: BitCode,
        /// The payload.
        payload: P,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Payload(Vec<u8>);
    impl WireSize for Payload {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn wire_size_reflects_payload() {
        let small = OverlayMsg::Route {
            target: BitCode::ROOT,
            hops: 0,
            payload: Payload(vec![0; 10]),
        };
        let big = OverlayMsg::Route {
            target: BitCode::ROOT,
            hops: 0,
            payload: Payload(vec![0; 1000]),
        };
        assert!(big.wire_size() > small.wire_size());
        let hb: OverlayMsg<Payload> = OverlayMsg::Heartbeat {
            code: BitCode::ROOT,
        };
        assert_eq!(hb.wire_size(), 32);
    }
}
