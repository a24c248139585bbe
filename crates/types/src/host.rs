//! The host core: what every driver of a [`NodeLogic`] keeps per node.
//!
//! A driver (the simulator's `World`, a `TcpHost` thread) owns a clock, a
//! transport and a timer wheel ([`Scheduler`]), and per node a
//! [`HostCore`]: the logic, the timer-id sequence and the live timers.
//! Every event is one [`HostCore::pass`], which fires the pass's own
//! zero-delay timers before it returns; the driver routes its sends,
//! then [`HostCore::arm`]s its timers, then [`HostCore::cancel`]s. A core
//! outlives a crash, so ids never repeat; its wheel refs do not, so
//! [`HostCore::retire_all`] runs before a core leaves its wheel.

use crate::node::{Effects, NodeLogic, Outbox, SimTime, TimerId};
use crate::scheduler::{EventRef, Scheduler};
use std::collections::BTreeMap;

/// One node's logic, timer-id sequence and live timers.
pub struct HostCore<L: NodeLogic> {
    logic: L,
    /// Next [`TimerId`] this node's outboxes hand out.
    timer_seq: u64,
    /// Live timers: the cancellation slot map. An entry leaves on fire,
    /// on cancel and on retire-all.
    timers: BTreeMap<u64, EventRef>,
}

impl<L: NodeLogic> HostCore<L> {
    /// A fresh core: timer ids start at 1, nothing is armed.
    pub fn new(logic: L) -> Self {
        HostCore {
            logic,
            timer_seq: 1,
            timers: BTreeMap::new(),
        }
    }

    /// The hosted logic.
    pub fn logic(&self) -> &L {
        &self.logic
    }

    /// The hosted logic, to read or take from between passes.
    pub fn logic_mut(&mut self) -> &mut L {
        &mut self.logic
    }

    /// The hosted logic, out of its core.
    pub fn into_logic(self) -> L {
        self.logic
    }

    /// Runs one handler at `now` against a fresh outbox that continues
    /// this node's timer-id sequence; returns its result and its effects,
    /// none of them applied yet.
    ///
    /// A timer the pass arms with delay 0 fires at the end of the pass,
    /// in arming order, against the same outbox, and so does one that
    /// such a firing arms. One the pass cancelled first does not fire.
    /// None of them is in the returned effects, so none reaches a wheel.
    #[inline]
    pub fn pass<R>(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R,
    ) -> (R, Effects<L::Msg>) {
        let mut out = Outbox::with_timer_seq(self.timer_seq);
        let r = f(&mut self.logic, now, &mut out);
        let mut i = 0;
        while let Some(&(delay, token, id)) = out.timers.get(i) {
            if delay > 0 {
                i += 1;
                continue;
            }
            out.timers.remove(i);
            if !out.cancels.contains(&id) {
                self.logic.on_timer(now, token, &mut out);
            }
        }
        let fx = out.drain();
        self.timer_seq = fx.next_timer_id;
        (r, fx)
    }

    /// Arms timer `id` on `wheel` at `t + delay.max(1)`, carrying `event`.
    /// A pass's effects carry no zero delay; the floor keeps a hand-made
    /// one from firing in the tick that armed it.
    #[inline]
    pub fn arm<T>(
        &mut self,
        wheel: &mut Scheduler<T>,
        t: SimTime,
        delay: SimTime,
        id: TimerId,
        event: T,
    ) {
        let r = wheel.insert(t + delay.max(1), event);
        self.timers.insert(id.0, r);
    }

    /// Retires timer `id`; `true` if it was live (a fired, cancelled or
    /// unknown id is a no-op). A popped timer parked behind a busy CPU is
    /// live until [`HostCore::due`] claims it, so this stops it too.
    #[inline]
    pub fn cancel<T>(&mut self, wheel: &mut Scheduler<T>, id: TimerId) -> bool {
        self.timers.remove(&id.0).map(|r| wheel.cancel(r)).is_some()
    }

    /// Claims a timer the driver popped: `true` if it is still live and
    /// should fire. Either way `id` is no longer live afterwards.
    #[inline]
    pub fn due(&mut self, id: TimerId) -> bool {
        self.timers.remove(&id.0).is_some()
    }

    /// Retires every live timer and frees its wheel entry. Nothing counts
    /// as cancelled: this is a crash, or a core leaving its wheel.
    pub fn retire_all<T>(&mut self, wheel: &mut Scheduler<T>) {
        for r in std::mem::take(&mut self.timers).into_values() {
            let _ = wheel.cancel(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    /// Arms a timer per message, with the message as both delay and token.
    struct Arms;

    impl NodeLogic for Arms {
        type Msg = u64;
        fn on_start(&mut self, _now: SimTime, _out: &mut Outbox<u64>) {}
        fn on_message(&mut self, _now: SimTime, _from: NodeId, delay: u64, out: &mut Outbox<u64>) {
            out.set_timer(delay, delay);
        }
        fn on_timer(&mut self, _now: SimTime, _token: u64, _out: &mut Outbox<u64>) {}
    }

    /// One pass that arms `delay` and applies it to `wheel` at time 0.
    fn arm_one(core: &mut HostCore<Arms>, wheel: &mut Scheduler<TimerId>, delay: u64) -> TimerId {
        let ((), fx) = core.pass(0, |l, now, out| l.on_message(now, NodeId(0), delay, out));
        let (delay, _, id) = fx.timers[0];
        core.arm(wheel, 0, delay, id, id);
        id
    }

    #[test]
    fn ids_continue_when_the_core_moves_to_a_new_wheel() {
        let mut core = HostCore::new(Arms);
        let mut first = Scheduler::new();
        let a = arm_one(&mut core, &mut first, 1_000);
        let b = arm_one(&mut core, &mut first, 2_000);
        core.retire_all(&mut first);
        let mut second = Scheduler::new();
        let c = arm_one(&mut core, &mut second, 1_000);
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn cancelling_a_fired_or_unknown_id_is_not_counted() {
        let mut core = HostCore::new(Arms);
        let mut wheel = Scheduler::new();
        let id = arm_one(&mut core, &mut wheel, 5);
        let (t, _, popped) = wheel.pop().expect("armed");
        assert_eq!((t, popped), (5, id));
        assert!(core.due(id));
        assert!(!core.cancel(&mut wheel, id), "fired");
        assert!(!core.cancel(&mut wheel, TimerId(99)), "unknown");
        let live = arm_one(&mut core, &mut wheel, 5);
        assert!(core.cancel(&mut wheel, live));
        assert!(!core.cancel(&mut wheel, live), "already cancelled");
        assert!(!core.due(live), "a cancelled timer does not fire");
        assert!(wheel.is_empty());
    }

    #[test]
    fn a_popped_timer_stays_cancellable_until_claimed() {
        let mut core = HostCore::new(Arms);
        let mut wheel = Scheduler::new();
        let id = arm_one(&mut core, &mut wheel, 5);
        let _parked = wheel.pop().expect("armed");
        assert!(core.cancel(&mut wheel, id), "parked, not fired");
        assert!(!core.due(id));
    }

    /// Arms zero-delay timers 1, 2 and 4 (cancelling 4) and a 10 µs
    /// timer 5 per message; firing 2 arms a zero-delay 3.
    #[derive(Default)]
    struct Chain {
        fired: Vec<u64>,
    }

    impl NodeLogic for Chain {
        type Msg = ();
        fn on_start(&mut self, _now: SimTime, _out: &mut Outbox<()>) {}
        fn on_message(&mut self, _now: SimTime, _from: NodeId, _msg: (), out: &mut Outbox<()>) {
            out.set_timer(0, 1);
            out.set_timer(0, 2);
            let cancelled = out.set_timer(0, 4);
            out.set_timer(10, 5);
            out.cancel_timer(cancelled);
        }
        fn on_timer(&mut self, _now: SimTime, token: u64, out: &mut Outbox<()>) {
            self.fired.push(token);
            if token == 2 {
                out.set_timer(0, 3);
            }
        }
    }

    #[test]
    fn zero_delay_timers_fire_in_the_pass_that_armed_them() {
        let mut core = HostCore::new(Chain::default());
        let mut wheel = Scheduler::new();
        let ((), fx) = core.pass(7, |l, now, out| l.on_message(now, NodeId(0), (), out));
        assert_eq!(core.logic().fired, vec![1, 2, 3], "arming order, chained");
        // Ids 1, 2, 3 and 5 went to the zero-delay timers.
        assert_eq!(fx.timers, vec![(10, 5, TimerId(4))], "only the 10 µs one");
        for (delay, _, id) in fx.timers {
            core.arm(&mut wheel, 7, delay, id, id);
        }
        assert_eq!((wheel.len(), wheel.peek_time()), (1, Some(17)));
        let ((), fx) = core.pass(8, |l, now, out| l.on_message(now, NodeId(0), (), out));
        assert_eq!(
            fx.timers,
            vec![(10, 5, TimerId(9))],
            "the sequence moved on"
        );
        // A zero delay armed on a wheel by hand still lands one tick out.
        let mut wheel = Scheduler::new();
        core.arm(&mut wheel, 0, 0, TimerId(99), TimerId(99));
        assert_eq!(wheel.peek_time(), Some(1));
    }

    #[test]
    fn retire_all_leaves_no_live_id_and_an_empty_wheel() {
        let mut core = HostCore::new(Arms);
        let mut wheel = Scheduler::new();
        // One timer per wheel tier: level 0, level 1, overflow.
        let ids: Vec<TimerId> = [5_000, 5_000_000, 500_000_000]
            .into_iter()
            .map(|d| arm_one(&mut core, &mut wheel, d))
            .collect();
        assert_eq!(wheel.len(), 3);
        core.retire_all(&mut wheel);
        assert!(wheel.is_empty());
        assert_eq!(wheel.pop(), None);
        assert!(
            ids.iter().all(|&id| !core.cancel(&mut wheel, id)),
            "none live"
        );
    }

    #[test]
    fn a_pass_without_a_wheel_advances_ids_and_arms_nothing() {
        let mut core = HostCore::new(Arms);
        let (r, fx) = core.pass(7, |l, now, out| {
            l.on_message(now, NodeId(0), 10, out);
            now
        });
        assert_eq!((r, fx.timers.len()), (7, 1));
        let dropped = fx.timers[0].2;
        assert!(!core.due(dropped), "effects dropped, nothing armed");
        let ((), fx) = core.pass(8, |l, now, out| l.on_message(now, NodeId(0), 10, out));
        assert_eq!(fx.timers[0].2, TimerId(2), "the sequence moved on");
    }

    #[test]
    fn no_ref_outlives_its_wheel() {
        // Wheel refs are (slot, seq) pairs and every wheel counts from
        // zero, so a ref carried to a new wheel could name a stranger's
        // event there. Retire-all before the move makes that impossible.
        let mut core = HostCore::new(Arms);
        let mut old = Scheduler::new();
        let stale = arm_one(&mut core, &mut old, 5);
        core.retire_all(&mut old);
        let mut new = Scheduler::new();
        let fresh = arm_one(&mut core, &mut new, 5);
        assert!(!core.cancel(&mut new, stale));
        assert_eq!(new.pop().map(|(_, _, id)| id), Some(fresh));
    }
}
