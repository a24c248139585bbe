//! Transport-agnostic, event-driven node abstraction.
//!
//! A MIND node (overlay logic + index management + local store) is a pure
//! state machine: it reacts to *messages* from peers and to *timers* it set
//! for itself, and emits messages and new timers. The paper's prototype ran
//! this state machine behind a Java TCP dispatcher on PlanetLab; here the
//! same Rust state machine is driven by either
//!
//! * `mind-netsim`'s deterministic discrete-event simulator — our PlanetLab
//!   substitute, with modeled propagation, queuing and failures — or
//! * `mind-net`'s real `std::net` TCP transport.
//!
//! Keeping the logic synchronous and transport-free is what makes the whole
//! distributed system unit-testable and the experiments reproducible.

/// Identifier of a transport endpoint (a simulator host or a TCP peer).
///
/// NodeIds are *transport* addresses; hypercube [`crate::BitCode`]s are
/// *overlay* addresses. The overlay maps codes to NodeIds via its neighbor
/// tables.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Simulated or wall-clock time in **microseconds**.
pub type SimTime = u64;

/// One millisecond expressed in [`SimTime`] units.
pub const MILLIS: SimTime = 1_000;
/// One second expressed in [`SimTime`] units.
pub const SECONDS: SimTime = 1_000_000;

/// Sizing hook for the simulator's bandwidth/serialization model.
pub trait WireSize {
    /// Approximate encoded size of the message in bytes.
    fn wire_size(&self) -> usize {
        64
    }
}

/// Handle to a pending timer, returned by [`Outbox::set_timer`].
///
/// Ids are unique per node for the lifetime of that node's driver (they
/// survive crash/revive), so protocol code can hold one across events and
/// later retire the timer with [`Outbox::cancel_timer`]. Cancelling an id
/// that already fired (or was already cancelled) is a harmless no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

impl std::fmt::Display for TimerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The effects a node emits while handling one event.
///
/// Collected rather than performed so that the driver (simulator or
/// transport) stays in control of delivery, latency and failure modeling.
/// The driver threads the node's timer-id counter through via
/// [`Outbox::with_timer_seq`] so that [`TimerId`]s stay unique across the
/// node's lifetime.
#[derive(Debug)]
pub struct Outbox<M> {
    /// Messages to deliver: `(destination, message)`.
    pub sends: Vec<(NodeId, M)>,
    /// Timers to arm: `(delay, token, id)`. The driver calls
    /// [`NodeLogic::on_timer`] with `token` after `delay`, unless `id` is
    /// cancelled first.
    pub timers: Vec<(SimTime, u64, TimerId)>,
    /// Timers to retire before they fire.
    pub cancels: Vec<TimerId>,
    /// Next timer id to hand out (driver-provided, per node).
    next_timer: u64,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::with_timer_seq(1)
    }
}

impl<M> Outbox<M> {
    /// A fresh, empty outbox. Timer ids start at 1; drivers that keep a
    /// node alive across many events should use [`Outbox::with_timer_seq`]
    /// instead so ids never repeat.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh outbox whose next [`TimerId`] is `next_timer`.
    pub fn with_timer_seq(next_timer: u64) -> Self {
        Outbox {
            sends: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            next_timer,
        }
    }

    /// Queues `msg` for delivery to `to`.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Arms a timer that fires after `delay` with the given `token`.
    /// Returns a handle that [`Outbox::cancel_timer`] can retire later —
    /// including from a different event's outbox.
    #[inline]
    pub fn set_timer(&mut self, delay: SimTime, token: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.timers.push((delay, token, id));
        id
    }

    /// Retires a pending timer. No-op if it already fired or was cancelled.
    #[inline]
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.cancels.push(id);
    }

    /// `true` when no effects were emitted.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty() && self.cancels.is_empty()
    }

    /// Moves all effects out, leaving the outbox empty.
    pub fn drain(&mut self) -> Effects<M> {
        Effects {
            sends: std::mem::take(&mut self.sends),
            timers: std::mem::take(&mut self.timers),
            cancels: std::mem::take(&mut self.cancels),
            next_timer_id: self.next_timer,
        }
    }
}

/// Drained outbox effects.
#[derive(Debug)]
pub struct Effects<M> {
    /// Messages to deliver: `(destination, message)`.
    pub sends: Vec<(NodeId, M)>,
    /// Timers to arm: `(delay, token, id)`.
    pub timers: Vec<(SimTime, u64, TimerId)>,
    /// Timer handles to retire.
    pub cancels: Vec<TimerId>,
    /// Where the timer-id counter ended up; the driver persists this and
    /// seeds the node's next outbox with it.
    pub next_timer_id: u64,
}

/// The event-driven node state machine.
pub trait NodeLogic {
    /// The peer-to-peer message type.
    type Msg;

    /// Called once when the node comes up (or restarts after a crash).
    fn on_start(&mut self, now: SimTime, out: &mut Outbox<Self::Msg>);

    /// Called for every delivered message.
    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg>,
    );

    /// Called when a timer armed via [`Outbox::set_timer`] fires.
    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Outbox<Self::Msg>);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        seen: Vec<(NodeId, u32)>,
    }

    impl NodeLogic for Echo {
        type Msg = u32;
        fn on_start(&mut self, _now: SimTime, out: &mut Outbox<u32>) {
            let _ = out.set_timer(5 * SECONDS, 1);
        }
        fn on_message(&mut self, _now: SimTime, from: NodeId, msg: u32, out: &mut Outbox<u32>) {
            self.seen.push((from, msg));
            out.send(from, msg + 1);
        }
        fn on_timer(&mut self, _now: SimTime, _token: u64, _out: &mut Outbox<u32>) {}
    }

    #[test]
    fn outbox_collects_effects() {
        let mut n = Echo { seen: vec![] };
        let mut out = Outbox::new();
        n.on_start(0, &mut out);
        assert_eq!(out.timers, vec![(5 * SECONDS, 1, TimerId(1))]);
        n.on_message(10, NodeId(3), 7, &mut out);
        assert_eq!(out.sends, vec![(NodeId(3), 8)]);
        assert_eq!(n.seen, vec![(NodeId(3), 7)]);
        let fx = out.drain();
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.timers.len(), 1);
        assert_eq!(fx.next_timer_id, 2);
        assert!(out.is_empty());
    }

    #[test]
    fn timer_ids_are_unique_across_outboxes_via_seq() {
        let mut a: Outbox<u32> = Outbox::with_timer_seq(1);
        let t1 = a.set_timer(10, 0);
        let t2 = a.set_timer(20, 0);
        assert_ne!(t1, t2);
        let fx = a.drain();
        // The driver threads the counter into the next event's outbox.
        let mut b: Outbox<u32> = Outbox::with_timer_seq(fx.next_timer_id);
        let t3 = b.set_timer(30, 0);
        assert!(t3 > t2);
        b.cancel_timer(t1);
        assert_eq!(b.drain().cancels, vec![t1]);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(42).to_string(), "n42");
    }
}
