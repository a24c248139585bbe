//! Property tests for the fault-injection plane: under an arbitrary
//! seeded [`FaultPlan`], every message is delivered exactly once, dropped,
//! or duplicated exactly as the plan dictates — never delivered to a dead
//! or partitioned endpoint, and never sent at all by a dead one — and the
//! same seed replays a byte-identical delivery order.

use mind_netsim::world::lan_config;
use mind_netsim::{FaultPlan, SimConfig, Site, World};
use mind_types::node::{NodeLogic, Outbox, SimTime, SECONDS};
use mind_types::{NodeId, WireSize};
use proptest::prelude::*;

/// A passive endpoint that logs every delivery it observes.
struct Recorder {
    log: Vec<(SimTime, NodeId, u64)>,
}

#[derive(Debug, Clone)]
struct Tagged(u64);
impl WireSize for Tagged {
    fn wire_size(&self) -> usize {
        64
    }
}

impl NodeLogic for Recorder {
    type Msg = Tagged;
    fn on_start(&mut self, _now: SimTime, _out: &mut Outbox<Tagged>) {}
    fn on_message(&mut self, now: SimTime, from: NodeId, msg: Tagged, _out: &mut Outbox<Tagged>) {
        self.log.push((now, from, msg.0));
    }
    fn on_timer(&mut self, _now: SimTime, _token: u64, _out: &mut Outbox<Tagged>) {}
}

fn build_world(n: usize, seed: u64, fault: FaultPlan) -> World<Recorder> {
    let cfg = SimConfig {
        fault,
        ..lan_config(seed)
    };
    let mut w = World::new(cfg);
    for k in 0..n {
        w.add_node(
            Recorder { log: Vec::new() },
            Site::new(format!("s{k}"), k as f64, (k * 3) as f64),
        );
    }
    w
}

/// One send the driver performs: at `at`, `from` sends tag `tag` to `to`.
#[derive(Debug, Clone)]
struct Send {
    at: SimTime,
    from: usize,
    to: usize,
    tag: u64,
}

/// One delivery observed at a node: (where, when, from, tag).
type Delivery = (NodeId, SimTime, NodeId, u64);
/// A crash: (victim, crash time, revive time).
type CrashWindow = (NodeId, SimTime, Option<SimTime>);
/// The scalar NetStats counters, as returned by `SimStats::counters`.
type Counters = (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64);

/// Drives a scripted send schedule through a world and returns the
/// combined delivery log plus the stats counters.
fn run_script(
    n: usize,
    seed: u64,
    fault: &FaultPlan,
    script: &[Send],
) -> (Vec<Delivery>, Counters, Vec<SimTime>) {
    let mut w = build_world(n, seed, fault.clone());
    let mut emit_times = Vec::with_capacity(script.len());
    for s in script {
        w.run_until(s.at);
        emit_times.push(w.now());
        let to = NodeId(s.to as u32);
        let tag = s.tag;
        w.with_node(NodeId(s.from as u32), |_, _, out| out.send(to, Tagged(tag)));
    }
    w.run_until_idle(3600 * SECONDS);
    let mut log = Vec::new();
    for k in 0..n {
        for &(t, from, tag) in &w.node(NodeId(k as u32)).log {
            log.push((NodeId(k as u32), t, from, tag));
        }
    }
    (log, w.stats.counters(), emit_times)
}

/// `true` if `node` is the crash victim and down at `t`.
fn down(crash: Option<CrashWindow>, node: NodeId, t: SimTime) -> bool {
    crash.is_some_and(|(victim, crash_at, revive_at)| {
        node == victim && t >= crash_at && revive_at.is_none_or(|r| t < r)
    })
}

/// Builds a valid script from raw proptest triples: loopbacks and
/// out-of-range endpoints filtered, time-sorted, tags unique.
fn make_script(n: usize, raw: Vec<(u64, usize, usize)>) -> Vec<Send> {
    let mut s: Vec<Send> = raw
        .into_iter()
        .enumerate()
        .filter(|&(_, (_, from, to))| from != to && from < n && to < n)
        .map(|(i, (at, from, to))| Send {
            at: at * SECONDS,
            from,
            to,
            tag: i as u64,
        })
        .collect();
    s.sort_by_key(|x| x.at);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-message guarantees under an arbitrary plan: each tag arrives at
    /// most twice (original + one duplicate), only at its addressee, never
    /// across an active partition cut, and never at a dead host. The same
    /// seed and plan replay to a byte-identical log and identical stats.
    #[test]
    fn prop_fault_plan_semantics(
        n in 3usize..8,
        seed in any::<u64>(),
        loss in 0.0f64..0.4,
        dup in 0.0f64..0.3,
        partition in prop::option::of((prop::collection::vec(0usize..8, 1..4), 5u64..30, 1u64..20)),
        crash in prop::option::of((0usize..8, 5u64..40, prop::option::of(1u64..30))),
        raw_script in prop::collection::vec((0u64..60, 0usize..8, 0usize..8), 10..50),
    ) {
        let mut plan = FaultPlan::lossy(loss).with_duplication(dup);
        if let Some((island, cut, len)) = partition {
            let mut island: Vec<NodeId> = island
                .into_iter()
                .filter(|&k| k < n)
                .map(|k| NodeId(k as u32))
                .collect();
            island.sort();
            island.dedup();
            if !island.is_empty() {
                let cut_at = cut * SECONDS;
                plan = plan.with_partition(island, cut_at, cut_at + len * SECONDS);
            }
        }
        let mut crash_window = None;
        if let Some((node, crash_at, revive)) = crash {
            if node < n {
                let crash_at = crash_at * SECONDS;
                let revive_at = revive.map(|d| crash_at + d * SECONDS);
                plan = plan.with_crash(NodeId(node as u32), crash_at, revive_at);
                crash_window = Some((NodeId(node as u32), crash_at, revive_at));
            }
        }
        let script = make_script(n, raw_script);
        if script.is_empty() { return Ok(()); }

        let (log, stats, emits) = run_script(n, seed, &plan, &script);

        // A dead host sends nothing: the victim's sends inside its down
        // window vanish before the network, counted nowhere.
        let muted = script
            .iter()
            .zip(&emits)
            .filter(|&(s, &t)| down(crash_window, NodeId(s.from as u32), t))
            .count() as u64;
        // Conservation: every other send is severed, lost, or becomes a
        // delivery attempt (plus at most one duplicate); attempts reach a
        // live host or count against a dead one. Nothing else vanishes.
        let (delivered, dropped_dead, _unknown, dropped_fault, duplicated, partitioned, ..) = stats;
        prop_assert_eq!(
            delivered + dropped_dead,
            script.len() as u64 - muted - partitioned - dropped_fault + duplicated,
            "conservation violated"
        );
        prop_assert_eq!(log.len() as u64, delivered);

        // Index the script by tag for the per-delivery checks.
        for &(at_node, t, from, tag) in &log {
            let i = script.iter().position(|x| x.tag == tag).expect("unknown tag");
            let (s, t_emit) = (&script[i], emits[i]);
            prop_assert!(!down(crash_window, from, t_emit), "a dead host's send was delivered");
            prop_assert_eq!(at_node, NodeId(s.to as u32), "delivered to the wrong node");
            prop_assert_eq!(from, NodeId(s.from as u32), "wrong sender");
            prop_assert!(t >= t_emit, "delivered before it was sent");
            prop_assert!(
                !plan.severed(NodeId(s.from as u32), NodeId(s.to as u32), t_emit),
                "delivered across an active partition cut"
            );
            prop_assert!(!down(crash_window, at_node, t), "delivered to a dead host at t={}", t);
        }
        // At most original + one duplicate per tag; no duplication => at
        // most one.
        for s in &script {
            let copies = log.iter().filter(|&&(_, _, _, tag)| tag == s.tag).count();
            prop_assert!(copies <= 2, "tag {} delivered {} times", s.tag, copies);
            if dup == 0.0 {
                prop_assert!(copies <= 1, "duplicate without duplication enabled");
            }
        }
        // Determinism: same seed, same plan, same script — identical log
        // (order included) and identical counters.
        let (log2, stats2, emits2) = run_script(n, seed, &plan, &script);
        prop_assert_eq!(&log, &log2, "same seed produced a different delivery order");
        prop_assert_eq!(stats, stats2, "same seed produced different stats");
        prop_assert_eq!(&emits, &emits2);
        // The muted sends touch no counter and no RNG draw: the script
        // without them replays to the same log and the same stats.
        if muted > 0 {
            let live: Vec<Send> = script
                .iter()
                .zip(&emits)
                .filter(|&(s, &t)| !down(crash_window, NodeId(s.from as u32), t))
                .map(|(s, _)| s.clone())
                .collect();
            let (log3, stats3, _) = run_script(n, seed, &plan, &live);
            prop_assert_eq!(log, log3, "muted sends moved the delivery log");
            prop_assert_eq!(stats, stats3, "muted sends moved a counter");
        }
    }

    /// With every fault probability at zero, the plan is a no-op: every
    /// message is delivered exactly once regardless of seed.
    #[test]
    fn prop_zero_plan_delivers_everything(
        n in 3usize..8,
        seed in any::<u64>(),
        raw_script in prop::collection::vec((0u64..60, 0usize..8, 0usize..8), 5..30),
    ) {
        let script = make_script(n, raw_script);
        if script.is_empty() { return Ok(()); }
        let (log, (delivered, dropped_dead, _unknown, dropped_fault, duplicated, partitioned, ..), _) =
            run_script(n, seed, &FaultPlan::default(), &script);
        prop_assert_eq!(delivered as usize, script.len());
        prop_assert_eq!(log.len(), script.len());
        prop_assert_eq!(dropped_dead + dropped_fault + duplicated + partitioned, 0);
    }
}

/// Regression for the jitter hot-path fix: `jitter_frac == 0` must mean
/// *no* jitter and must not consume RNG — so two zero-jitter, zero-fault
/// worlds with different seeds produce byte-identical delivery timelines.
#[test]
fn zero_jitter_is_exact_and_consumes_no_rng() {
    let script: Vec<Send> = (0..20)
        .map(|i| Send {
            at: i as SimTime * SECONDS,
            from: (i % 4) as usize,
            to: ((i + 1) % 4) as usize,
            tag: i as u64,
        })
        .collect();
    let (log_a, stats_a, _) = run_script(4, 1, &FaultPlan::default(), &script);
    let (log_b, stats_b, _) = run_script(4, 0xDEAD_BEEF, &FaultPlan::default(), &script);
    assert_eq!(
        log_a, log_b,
        "zero-jitter delivery times depend on the seed: the RNG was consulted"
    );
    assert_eq!(stats_a, stats_b);

    // Contrast: with jitter enabled the seed must matter (the draw is
    // genuinely consumed), so the two timelines diverge.
    let jittered = |seed: u64| {
        let cfg = SimConfig {
            jitter_frac: 0.5,
            ..lan_config(seed)
        };
        let mut w = World::new(cfg);
        for k in 0..4 {
            w.add_node(
                Recorder { log: Vec::new() },
                Site::new(format!("s{k}"), k as f64, (k * 3) as f64),
            );
        }
        for s in &script {
            w.run_until(s.at);
            let to = NodeId(s.to as u32);
            let tag = s.tag;
            w.with_node(NodeId(s.from as u32), |_, _, out| out.send(to, Tagged(tag)));
        }
        w.run_until_idle(3600 * SECONDS);
        (0..4)
            .flat_map(|k| w.node(NodeId(k)).log.clone())
            .collect::<Vec<_>>()
    };
    assert_ne!(
        jittered(1),
        jittered(0xDEAD_BEEF),
        "jitter_frac > 0 must actually draw from the seeded RNG"
    );
}
