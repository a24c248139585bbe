//! Property tests for timer cancellation: a timer whose handle is
//! cancelled before it fires must never fire — including when the timer
//! is parked in a busy host's backlog at cancellation time, and across
//! crash/revive (a crash retires every pending timer of the old
//! incarnation). Conversely, a timer that is never cancelled
//! on a never-crashed host fires exactly once, never before its due
//! time, and the whole timeline replays byte-identically from the seed.

use mind_netsim::world::lan_config;
use mind_netsim::{FaultPlan, SimConfig, Site, World};
use mind_types::node::{NodeLogic, Outbox, SimTime, TimerId, SECONDS};
use mind_types::{DetHashMap, NodeId, WireSize};
use proptest::prelude::*;

/// Fire-and-forget busywork payload: its only job is to occupy the
/// receiving host's CPU so that due timers get parked in the backlog.
#[derive(Debug, Clone)]
struct Ping;
impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        64
    }
}

/// A host that records every timer that actually fires. Handles are
/// removed on fire, so the driver can tell "cancelled before it fired"
/// (handle still present) apart from "already fired" (handle gone).
struct TimerHost {
    handles: DetHashMap<u64, TimerId>,
    fired: Vec<(SimTime, u64)>,
}

impl NodeLogic for TimerHost {
    type Msg = Ping;
    fn on_start(&mut self, _now: SimTime, _out: &mut Outbox<Ping>) {}
    fn on_message(&mut self, _now: SimTime, _from: NodeId, _msg: Ping, _out: &mut Outbox<Ping>) {}
    fn on_timer(&mut self, now: SimTime, token: u64, _out: &mut Outbox<Ping>) {
        self.handles.remove(&token);
        self.fired.push((now, token));
    }
}

/// One scripted driver action, executed at a fixed sim time.
#[derive(Debug, Clone)]
enum Act {
    /// Arm timer `token` on `node` with the given delay.
    Arm {
        node: NodeId,
        delay: SimTime,
        token: u64,
    },
    /// Cancel `token` on `node` if its handle is still live.
    Cancel { node: NodeId, token: u64 },
    /// Busywork traffic: occupy `to`'s CPU for a full service time.
    Send { from: NodeId, to: NodeId },
}

/// What one run observed: the merged fire log (node-major, in-log order),
/// the set of tokens whose cancel found a live handle, and per-token arm
/// metadata `(node, armed_at, due_at)`.
struct RunLog {
    fired: Vec<(NodeId, SimTime, u64)>,
    cancelled: Vec<u64>,
    armed: DetHashMap<u64, (NodeId, SimTime, SimTime)>,
}

fn run_script(
    n: usize,
    seed: u64,
    script: &[(SimTime, Act)],
    crash: Option<(NodeId, SimTime, Option<SimTime>)>,
) -> RunLog {
    let mut fault = FaultPlan::default();
    if let Some((victim, crash_at, revive_at)) = crash {
        fault = fault.with_crash(victim, crash_at, revive_at);
    }
    let cfg = SimConfig {
        // 150 ms per message: a short traffic burst keeps a host busy
        // long past a timer's due time, forcing the backlog requeue path.
        node_service: 150_000,
        fault,
        ..lan_config(seed)
    };
    let mut w = World::new(cfg);
    for k in 0..n {
        w.add_node(
            TimerHost {
                handles: DetHashMap::default(),
                fired: Vec::new(),
            },
            Site::new(format!("s{k}"), k as f64, (k * 3) as f64),
        );
    }

    let mut cancelled = Vec::new();
    let mut armed = DetHashMap::default();
    for (at, act) in script {
        w.run_until(*at);
        match *act {
            Act::Arm { node, delay, token } => {
                let armed_at = w.now();
                w.with_node(node, |host, _, out| {
                    let h = out.set_timer(delay, token);
                    host.handles.insert(token, h);
                });
                armed.insert(token, (node, armed_at, armed_at + delay));
            }
            Act::Cancel { node, token } => {
                let live = w.with_node(node, |host, _, out| {
                    if let Some(h) = host.handles.remove(&token) {
                        out.cancel_timer(h);
                        true
                    } else {
                        false
                    }
                });
                if live {
                    cancelled.push(token);
                }
            }
            Act::Send { from, to } => {
                w.with_node(from, |_, _, out| out.send(to, Ping));
            }
        }
    }
    w.run_until_idle(3600 * SECONDS);

    let mut fired = Vec::new();
    for k in 0..n {
        let id = NodeId(k as u32);
        for &(t, token) in &w.node(id).fired {
            fired.push((id, t, token));
        }
    }
    RunLog {
        fired,
        cancelled,
        armed,
    }
}

/// Deterministic pin of the backlog cancellation path: a timer comes due
/// while its host's CPU is busy, gets parked in the backlog, and is then
/// cancelled before the CPU frees up — it must never fire.
#[test]
fn cancel_reaches_timer_parked_in_busy_backlog() {
    let script = vec![
        // Due at t=2s.
        (
            0,
            Act::Arm {
                node: NodeId(0),
                delay: 2 * SECONDS,
                token: 7,
            },
        ),
        // 14 back-to-back messages at 150 ms service each keep node 0
        // busy from ~1.9s until past 4s, so the timer parks at t=2s.
        (
            SECONDS + 900_000,
            Act::Send {
                from: NodeId(1),
                to: NodeId(0),
            },
        ),
        (
            SECONDS + 900_000,
            Act::Send {
                from: NodeId(1),
                to: NodeId(0),
            },
        ),
        // Cancel at t=2.5s: after the due time, while still parked.
        (
            2 * SECONDS + 500_000,
            Act::Cancel {
                node: NodeId(0),
                token: 7,
            },
        ),
    ];
    let mut script = script;
    for _ in 0..12 {
        script.push((
            SECONDS + 900_000,
            Act::Send {
                from: NodeId(1),
                to: NodeId(0),
            },
        ));
    }
    script.sort_by_key(|&(at, _)| at);
    let log = run_script(2, 1, &script, None);
    assert!(
        log.cancelled.contains(&7),
        "cancel should have found a live handle (timer was parked, not fired)"
    );
    assert!(
        log.fired.is_empty(),
        "parked-then-cancelled timer fired: {:?}",
        log.fired
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Cancellation safety and liveness under busy hosts and one optional
    /// crash/revive cycle.
    #[test]
    fn prop_cancelled_timer_never_fires(
        n in 2usize..6,
        seed in any::<u64>(),
        raw_arms in prop::collection::vec(
            (0u64..90, 0usize..6, 1u64..40, prop::option::of(0u64..50)),
            5..40,
        ),
        raw_traffic in prop::collection::vec((0u64..90, 0usize..6, 0usize..6), 0..60),
        raw_crash in prop::option::of((0usize..6, 10u64..60, prop::option::of(1u64..30))),
    ) {
        let crash = raw_crash.and_then(|(node, at, revive)| {
            (node < n).then(|| {
                let crash_at = at * SECONDS;
                (NodeId(node as u32), crash_at, revive.map(|d| crash_at + d * SECONDS))
            })
        });
        // A node's dead window, for filtering driver actions: poking a
        // dead host from outside the sim is not a semantics we test.
        let dead_at = |node: NodeId, t: SimTime| {
            crash.is_some_and(|(victim, crash_at, revive_at)| {
                node == victim && t >= crash_at && revive_at.map(|r| t < r).unwrap_or(true)
            })
        };

        let mut script: Vec<(SimTime, Act)> = Vec::new();
        for (i, &(at, node, delay, cancel)) in raw_arms.iter().enumerate() {
            if node >= n {
                continue;
            }
            let node = NodeId(node as u32);
            let at = at * SECONDS;
            if !dead_at(node, at) {
                script.push((at, Act::Arm { node, delay: delay * SECONDS, token: i as u64 }));
                if let Some(delta) = cancel {
                    let c_at = at + delta * SECONDS;
                    if !dead_at(node, c_at) {
                        script.push((c_at, Act::Cancel { node, token: i as u64 }));
                    }
                }
            }
        }
        for &(at, from, to) in &raw_traffic {
            if from < n && to < n && from != to {
                script.push((
                    at * SECONDS,
                    Act::Send { from: NodeId(from as u32), to: NodeId(to as u32) },
                ));
            }
        }
        // Stable sort: an Arm precedes its same-instant Cancel because it
        // was pushed first.
        script.sort_by_key(|&(at, _)| at);
        if script.is_empty() {
            return Ok(());
        }

        let log = run_script(n, seed, &script, crash);

        // Safety: a cancel that found a live handle means the timer had
        // not fired yet — and then it must never fire, whether it was
        // sitting in the wheel or parked in a busy host's backlog.
        for &(node, t, token) in &log.fired {
            prop_assert!(
                !log.cancelled.contains(&token),
                "token {} fired at t={} on {:?} after a successful cancel",
                token, t, node
            );
            let &(armed_on, armed_at, due) = log.armed.get(&token).expect("fired unknown token");
            prop_assert_eq!(node, armed_on, "timer fired on the wrong node");
            prop_assert!(t >= due, "token {} fired at {} before its due time {}", token, t, due);
            // Incarnation safety: a crash retires every timer the old
            // incarnation armed; none of them may fire at or after it.
            if let Some((victim, crash_at, _)) = crash {
                if node == victim && armed_at < crash_at {
                    prop_assert!(
                        t < crash_at,
                        "pre-crash token {} fired at t={} (crash at {})",
                        token, t, crash_at
                    );
                }
            }
        }

        // At most one fire per token, ever.
        for token in log.armed.keys() {
            let copies = log.fired.iter().filter(|&&(_, _, tk)| tk == *token).count();
            prop_assert!(copies <= 1, "token {} fired {} times", token, copies);
        }

        // Liveness: an uncancelled timer on a host that never crashed (or
        // that was armed by the post-revive incarnation) fires exactly once.
        for (token, &(node, armed_at, _)) in &log.armed {
            if log.cancelled.contains(token) {
                continue;
            }
            if let Some((victim, crash_at, _)) = crash {
                if node == victim && armed_at < crash_at {
                    continue; // wiped by the crash, by design
                }
            }
            let copies = log.fired.iter().filter(|&&(_, _, tk)| tk == *token).count();
            prop_assert_eq!(copies, 1, "uncancelled token {} fired {} times", token, copies);
        }

        // Determinism: same seed, same script — identical fire timeline
        // and identical cancellation outcomes.
        let log2 = run_script(n, seed, &script, crash);
        prop_assert_eq!(log.fired, log2.fired, "same seed produced a different fire timeline");
        prop_assert_eq!(log.cancelled, log2.cancelled);
    }
}

/// One at-scale wheel run (see the proptest below): arms `waves` waves of
/// thousands of timers spanning all three scheduler tiers, cancels a
/// seeded subset at arm time, and advances far enough between waves that
/// level-1 cascades and overflow promotion happen with the cursor deep
/// into (and wrapped around) the wheel. Returns the fire log and the
/// world's high-water counters.
struct WheelRun {
    fired: Vec<(SimTime, u64)>,
    /// Exact model of what must fire: every uncancelled timer at its due
    /// time, ordered by `(due, arm order)` — the scheduler's `seq` is
    /// assigned at insertion and timers are this world's only events, so
    /// pop order must reproduce arm order within equal instants.
    expected_fired: Vec<(SimTime, u64)>,
    pending_peak: u64,
    arena_peak: u64,
    /// Exact model of both high-water counters: the largest number of
    /// timers ever simultaneously scheduled.
    expected_peak: u64,
}

#[expect(
    clippy::disallowed_methods,
    reason = "the wave sizes derive from the same seed as the world"
)]
fn run_wheel_at_scale(seed: u64, waves: usize) -> WheelRun {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut w = World::new(lan_config(seed));
    let id = w.add_node(
        TimerHost {
            handles: DetHashMap::default(),
            fired: Vec::new(),
        },
        Site::new("s0", 0.0, 0.0),
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0x17EE_15C4);
    let mut token = 0u64;
    // Per token: (due, cancelled) in arm order — arm order IS scheduler
    // insertion order here (timers are the only events in this world).
    let mut armed: Vec<(SimTime, bool)> = Vec::new();
    let mut expected_peak = 0u64;

    for _ in 0..waves {
        let base = w.now();
        // Live timers still scheduled when this wave starts arming.
        let live = armed
            .iter()
            .filter(|&&(due, cancelled)| !cancelled && due > base)
            .count() as u64;
        let k = 3_500 + rng.random_range(0..2_000u64);
        expected_peak = expected_peak.max(live + k);

        let wave_tokens: Vec<u64> = (0..k)
            .map(|_| {
                // Spread across the wheel tiers: level 0 (< 262 ms),
                // level 1 (< ~67 s), and the overflow heap beyond it.
                let delay = match rng.random_range(0..3u8) {
                    0 => rng.random_range(1..262_000u64),
                    1 => rng.random_range(262_000..67_000_000u64),
                    _ => rng.random_range(67_000_000..400 * SECONDS),
                };
                let tk = token;
                token += 1;
                w.with_node(id, |host, _, out| {
                    let h = out.set_timer(delay, tk);
                    host.handles.insert(tk, h);
                });
                armed.push((base + delay, false));
                tk
            })
            .collect();
        // Cancel ~20% of the wave before time moves: every handle is
        // still live, so each cancel must retire a scheduled timer.
        for tk in wave_tokens {
            if rng.random_range(0..5u8) == 0 {
                w.with_node(id, |host, _, out| {
                    let h = host.handles.remove(&tk).expect("handle still live");
                    out.cancel_timer(h);
                });
                armed[tk as usize].1 = true;
            }
        }
        // Advance past many level-1 cascade boundaries (one per 262 ms)
        // and past the ~67 s overflow horizon, so the next wave arms with
        // a wrapped cursor while earlier overflow entries promote down.
        let advance = rng.random_range(50..150u64) * SECONDS;
        w.run_until(w.now() + advance);
    }
    w.run_until_idle(SimTime::MAX);

    let mut expected_fired: Vec<(SimTime, u64)> = armed
        .iter()
        .enumerate()
        .filter(|&(_, &(_, cancelled))| !cancelled)
        .map(|(tk, &(due, _))| (due, tk as u64))
        .collect();
    expected_fired.sort_unstable();

    WheelRun {
        fired: w.node(id).fired.clone(),
        expected_fired,
        pending_peak: w.stats.pending_events_peak,
        arena_peak: w.stats.event_arena_peak,
        expected_peak,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The scheduler at bench_sim scale: 10k+ timers across all tiers and
    /// several cursor wraps. Every uncancelled timer fires exactly at its
    /// due time in global `(due, arm order)` — i.e. overflow→level-1→
    /// level-0 promotion loses nothing and never reorders — and the
    /// pending/arena high-water counters match an exact ground-truth
    /// model of the armed population.
    #[test]
    fn prop_wheel_at_scale_promotes_overflow_exactly(
        seed in any::<u64>(),
        waves in 2usize..5,
    ) {
        let run = run_wheel_at_scale(seed, waves);

        // Exact timeline: overflow→level-1→level-0 promotion across
        // cursor wraps loses nothing, invents nothing, fires nothing
        // early or late, and never reorders.
        prop_assert_eq!(&run.fired, &run.expected_fired,
            "fire timeline diverged from the (due, arm order) model");

        // High-water counters match the exact model: the largest number
        // of timers ever simultaneously scheduled (arena slots are only
        // allocated when no freed slot exists, so its peak is the same
        // quantity).
        prop_assert_eq!(run.pending_peak, run.expected_peak, "pending_events_peak off");
        prop_assert_eq!(run.arena_peak, run.expected_peak, "event_arena_peak off");

        // Determinism at scale: the same seed replays byte-identically.
        let run2 = run_wheel_at_scale(seed, waves);
        prop_assert_eq!(&run.fired, &run2.fired,
            "same seed produced a different fire timeline");
        prop_assert_eq!(run.pending_peak, run2.pending_peak);
    }
}
