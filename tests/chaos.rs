//! Seeded chaos suite: the full MIND pipeline (index build → inserts →
//! range queries → version rollover) driven through the netsim fault
//! plane — message loss, duplication, delay spikes, partitions, and
//! scheduled crashes — checked against a fault-free oracle, the
//! invariant auditor, and exact determinism of the fault injection.
//!
//! Every scenario runs over pinned seeds so CI failures reproduce.

use mind::audit::{AuditConfig, Auditor};
use mind::core::{ClusterConfig, MindCluster, Replication};
use mind::histogram::CutTree;
use mind::netsim::FaultPlan;
use mind::types::node::{SimTime, SECONDS};
use mind::types::{HyperRect, NodeId, Record};
use mind_bench::worlds::{
    assert_matches_oracle, batched_replay_run, build, chaos_worlds, metric_sum, observe,
    random_record, replay_run, schema, sorted_values, spray, Fingerprint, PIN_SEED,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 3] = [3, 17, 42];

#[test]
fn loss_and_duplication_match_oracle_across_version_rollover() {
    for seed in SEEDS {
        let fault = FaultPlan::lossy(0.05)
            .with_duplication(0.02)
            .with_delay_spikes(0.01, 200_000); // up to 200ms extra
        let n = 10;
        let mut cluster = build(n, seed, fault, Replication::None);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut oracle = Vec::new();

        // Day-0 records, then the paper's day-boundary version rollover.
        spray(&mut cluster, &mut rng, n, 150, 0, &mut oracle);
        cluster.run_for(120 * SECONDS);
        cluster.report_day_histograms("chaos", 0);
        // Generous settle: the NewVersion flood and any catalog gaps must
        // heal (anti-entropy period is 45s) before day-1 traffic arrives.
        cluster.run_for(120 * SECONDS);

        // Day-1 records land in the auto-installed version 1.
        spray(&mut cluster, &mut rng, n, 100, 1, &mut oracle);
        cluster.run_for(180 * SECONDS);

        // (a) Results equal the fault-free oracle, across both versions.
        assert_matches_oracle(&mut cluster, NodeId(3), &oracle, &format!("seed {seed}"));
        // (b) The invariant auditor is clean after quiesce.
        cluster
            .audit_settled()
            .assert_clean(&format!("seed {seed} after lossy rollover"));
        // (c) Retry counters are bounded: nothing ran out of budget, and
        // the total retry volume stays under ops × budget.
        let exhausted = metric_sum(&cluster, |m| m.retries_exhausted);
        assert_eq!(exhausted, 0, "seed {seed}: a retried op ran out of budget");
        let retries = metric_sum(&cluster, |m| m.retries_sent);
        let acked_ops = metric_sum(&cluster, |m| m.acks_received);
        assert!(
            retries <= acked_ops * 6,
            "seed {seed}: {retries} retries for {acked_ops} acked ops"
        );
        // The plan actually injected faults.
        let s = cluster.world().stats.clone();
        assert!(s.dropped_fault > 0, "seed {seed}: loss never injected");
        assert!(s.duplicated > 0, "seed {seed}: duplication never injected");
    }
}

#[test]
fn partition_heals_without_data_loss_or_false_death() {
    for seed in SEEDS {
        let n = 10;
        // Nodes 0–2 are islanded 70s–85s in; background loss on top.
        let cut_at: SimTime = 70 * SECONDS;
        let heal_at: SimTime = 85 * SECONDS;
        let fault = FaultPlan::lossy(0.01).with_partition(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            cut_at,
            heal_at,
        );
        let mut cluster = build(n, seed, fault, Replication::None);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA11);
        let mut oracle = Vec::new();
        spray(&mut cluster, &mut rng, n, 80, 0, &mut oracle);

        // Keep inserting from both sides of the cut while it is active.
        cluster.run_until(cut_at + SECONDS);
        for i in 0..30 {
            // Alternate between island (0–2) and mainland (3–9) origins.
            let origin = if i % 2 == 0 { i % 3 } else { 3 + (i % 7) };
            let r = random_record(&mut rng, 0);
            oracle.push(r.clone());
            cluster.insert(NodeId(origin as u32), "chaos", r).unwrap();
            if i % 10 == 0 {
                cluster.run_for(SECONDS);
            }
        }
        // Heal, then quiesce long enough for the retry backoff (5s·2^k)
        // to re-deliver everything stranded by the cut.
        cluster.run_until(heal_at + 120 * SECONDS);

        assert_matches_oracle(
            &mut cluster,
            NodeId(1),
            &oracle,
            &format!("seed {seed} post-heal"),
        );
        cluster
            .audit_settled()
            .assert_clean(&format!("seed {seed} after partition healed"));
        // The cut must not have been misdiagnosed as node death: every
        // node is still a member, and no takeover claimed island codes.
        for k in 0..n as u32 {
            assert!(
                cluster.world().node(NodeId(k)).overlay().is_member(),
                "seed {seed}: node {k} lost membership over a partition"
            );
        }
        let s = cluster.world().stats.clone();
        assert!(
            s.partitioned > 0,
            "seed {seed}: partition never severed a send"
        );
        let exhausted = metric_sum(&cluster, |m| m.retries_exhausted);
        assert_eq!(exhausted, 0, "seed {seed}: op lost across the partition");
    }
}

#[test]
fn scheduled_crash_with_replication_preserves_recall() {
    for seed in SEEDS {
        let n = 10;
        // The plan kills node 6 at t = 170s, after the insert stream has
        // quiesced; Level-1 replication must cover its region.
        let fault = FaultPlan::lossy(0.02).with_crash(NodeId(6), 170 * SECONDS, None);
        let mut cluster = build(n, seed, fault, Replication::Level(1));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let mut oracle = Vec::new();
        spray(&mut cluster, &mut rng, n, 120, 0, &mut oracle);
        // Quiesce fully (acks + replica pushes) before the crash fires.
        cluster.run_until(160 * SECONDS);
        assert!(cluster.world().is_alive(NodeId(6)));
        cluster.run_until(175 * SECONDS);
        assert!(
            !cluster.world().is_alive(NodeId(6)),
            "seed {seed}: scheduled crash never fired"
        );
        // Let the sibling takeover settle, then check recall.
        cluster.run_for(90 * SECONDS);
        assert_matches_oracle(
            &mut cluster,
            NodeId(2),
            &oracle,
            &format!("seed {seed} post-crash"),
        );
        cluster
            .audit_settled()
            .assert_clean(&format!("seed {seed} after crash takeover"));
        let s = cluster.world().stats.clone();
        assert!(s.dropped_fault > 0, "seed {seed}: loss never injected");
    }
}

#[test]
fn sustained_churn_keeps_pending_events_and_seen_ops_bounded() {
    // An hour of continuous insert + query churn under background loss:
    // the event plane must not accumulate state. Before the cancellable
    // timer wheel and the seen-op horizon GC, this scenario grew both
    // the simulator's pending-event count (stale one-shot timers, busy
    // requeues) and every node's dedup ledger without bound.
    let seed = 17;
    let n = 10;
    let fault = FaultPlan::lossy(0.03).with_duplication(0.01);
    let mut cluster = build(n, seed, fault, Replication::Level(1));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B);
    let mut oracle = Vec::new();
    let start = cluster.world().now();
    let q = HyperRect::new(vec![0, 0, 0], vec![1 << 20, 86_400 * 7, 1 << 20]);

    let mut pending_peak = 0usize;
    let mut seen_peak = 0usize;
    for minute in 0..60u64 {
        spray(&mut cluster, &mut rng, n, 20, 0, &mut oracle);
        // A query every few minutes keeps deadline/retry timers churning.
        if minute % 5 == 4 {
            let at = NodeId((minute % n as u64) as u32);
            let outcome = cluster
                .query_and_wait(at, "chaos", q.clone(), vec![])
                .unwrap();
            assert!(outcome.complete, "minute {minute}: query incomplete");
        }
        cluster.run_until(start + (minute + 1) * 60 * SECONDS);

        // Sample at the minute boundary: scheduled + backlogged events,
        // and the largest per-node dedup ledger.
        pending_peak = pending_peak.max(cluster.world().pending_events());
        let seen_now = (0..n as u32)
            .filter(|&k| cluster.world().is_alive(NodeId(k)))
            .map(|k| cluster.world().node(NodeId(k)).seen_ops_len())
            .max()
            .unwrap_or(0);
        seen_peak = seen_peak.max(seen_now);
    }

    // Bounds with generous headroom over observed steady state; the
    // pre-refactor event plane blew through both within minutes (the
    // fig14 profile hit 100k+ pending events by t=220s).
    assert!(
        pending_peak < 1_000,
        "pending events unbounded under churn: peak {pending_peak}"
    );
    assert!(
        seen_peak < 250,
        "seen_ops ledger unbounded under churn: peak {seen_peak}"
    );
    // The run stayed healthy: answers still equal the fault-free oracle.
    assert_matches_oracle(&mut cluster, NodeId(5), &oracle, "post-churn");
    let exhausted = metric_sum(&cluster, |m| m.retries_exhausted);
    assert_eq!(exhausted, 0, "a retried op ran out of budget under churn");
    eprintln!("churn peaks: pending={pending_peak} seen_ops={seen_peak}");
}

#[test]
fn golden_replay_pins() {
    // The same-seed tests compare a build with itself; this compares it
    // with the build that wrote `results/replay_pins.txt`, which begins
    // with these three worlds' blocks (the `replay_pins` figure writes
    // it). A change that claims to leave the simulated bytes alone must
    // leave them alone; a protocol change re-pins with `mind-figures all
    // --write results`, and the diff names every counter and kind moved.
    let mut rendered = Vec::new();
    for (title, world) in chaos_worlds() {
        world.render(&mut rendered, &title).unwrap();
    }
    let rendered = String::from_utf8(rendered).unwrap();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/replay_pins.txt");
    let committed = std::fs::read_to_string(path).unwrap();
    let moved: Vec<String> = rendered
        .lines()
        .zip(committed.lines())
        .filter(|(now, pinned)| now != pinned)
        .map(|(now, pinned)| format!("  pinned {pinned:?}, now {now:?}"))
        .collect();
    assert!(
        committed.starts_with(&rendered),
        "{path} does not begin with the chaos worlds:\n{}",
        moved.join("\n")
    );
}

#[test]
fn census_accounts_for_every_delivery_and_timer() {
    // Every delivery is counted under one kind at the node it reached.
    // Without batching and under a modelled storage cost no timer is
    // armed with delay 0, so every timer counted is a simulator event.
    let plain = replay_run(PIN_SEED);
    assert_eq!(plain.census.messages(), plain.stat("delivered"));
    assert_eq!(plain.census.timers(), plain.stat("timers_fired"));
    // With batching, a new group's flush is armed with delay 0 and fires
    // at the end of the pass that armed it (`HostCore::pass`): the node
    // counts it, the simulator never schedules it. Those flushes are the
    // whole gap.
    let (batched, _) = batched_replay_run(PIN_SEED);
    assert_eq!(batched.census.messages(), batched.stat("delivered"));
    let in_pass = batched.census.timers() - batched.stat("timers_fired");
    let flushes = batched
        .census
        .counts()
        .find(|(kind, _)| kind == "timer.BatchFlush")
        .map(|(_, n)| n)
        .unwrap();
    assert!(
        0 < in_pass && in_pass <= flushes,
        "{in_pass} timers fired in-pass, {flushes} batch flushes"
    );
}

#[test]
fn batched_ingest_survives_chaos_and_replays_identically() {
    // The ingest fast path under loss + duplication + partition: answers
    // equal the fault-free oracle, the auditor is clean, and two same-seed
    // runs agree on every counter, answer byte, retry, and batch count.
    for seed in SEEDS {
        let a = batched_replay_run(seed);
        let b = batched_replay_run(seed);
        assert_eq!(a, b, "seed {seed}: batched replay diverged");
    }
}

/// An `n`-node cluster on an *unbalanced* overlay (`n` not a power of
/// two: codes of two lengths) with the index created under
/// `Replication::Level(1)`, background loss and duplication, and a 10 s
/// failure horizon — no partition to ride out, so a takeover (and the
/// senders' stale contacts) settles within a run. Also returns the
/// configs a joiner needs, the cuts, and every node's code length.
fn build_unbalanced(
    n: usize,
    seed: u64,
    batch_max: usize,
) -> (
    MindCluster,
    (mind::overlay::OverlayConfig, mind::core::MindConfig),
    CutTree,
    Vec<u8>,
) {
    let mut cfg = ClusterConfig::planetlab(n, seed);
    cfg.mind.insert_batch_max = batch_max;
    cfg.sim.fault = FaultPlan::lossy(0.03).with_duplication(0.01);
    cfg.overlay.hb_miss_threshold = 5;
    let joiner_cfgs = (cfg.overlay, cfg.mind);
    let mut cluster = MindCluster::new(cfg);
    let lens: Vec<u8> = (0..n).map(|k| cluster.topology().code(k).len()).collect();
    assert!(
        lens.iter().min() < lens.iter().max(),
        "n = {n} must give an unbalanced overlay"
    );
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 9);
    cluster
        .create_index(NodeId(0), s, cuts.clone(), Replication::Level(1))
        .unwrap();
    cluster.run_for(50 * SECONDS);
    (cluster, joiner_cfgs, cuts, lens)
}

/// One seeded batched run on an *unbalanced* overlay (`n` not a power
/// of two: codes of two lengths), where a frame addressed to a prefix of
/// the sender's own depth can land on a deeper node that owns only part
/// of it and must re-split at apply time. The stream crosses a dynamic
/// join (one owner's region splits under the senders' feet) and a crash
/// with sibling takeover (`Replication::Level(1)`), under background
/// loss and duplication. Rows spread over all seven days so every node
/// owns some. Oracle-checked and audited clean before returning the
/// fingerprint plus `(InsertBatch frames, rows re-split)`.
fn unbalanced_batched_run(n: usize, seed: u64) -> (Fingerprint, (u64, u64)) {
    let (mut cluster, (overlay_cfg, mind_cfg), cuts, lens) = build_unbalanced(n, seed, 8);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B1A5);
    let mut oracle = Vec::new();
    let mut insert = |cluster: &mut MindCluster, at: u32, r: Record| {
        oracle.push(r.clone());
        cluster.insert(NodeId(at), "chaos", r).unwrap();
    };
    for i in 0..60usize {
        let r = random_record(&mut rng, i as u64 % 7);
        insert(&mut cluster, (i % n) as u32, r);
        if i % 20 == 19 {
            cluster.run_for(SECONDS);
        }
    }
    // A burst from the shallowest node (the last code is never split):
    // its groups are wider than the deep owners they land on, and a burst
    // fills multi-record frames that have to be taken apart there.
    for i in 0..80u64 {
        let r = random_record(&mut rng, i % 7);
        insert(&mut cluster, n as u32 - 1, r);
    }
    cluster.run_for(2 * SECONDS);
    // Before any join leaves historical rows behind a handoff pointer,
    // residency is exact: every row taken apart above reached its owner
    // (sibling replicas would mask a misplaced row in the answer below).
    cluster.run_for(40 * SECONDS);
    assert_eq!(
        cluster.total_primary_rows("chaos"),
        60 + 80,
        "n {n} seed {seed}: burst not settled"
    );
    assert_eq!(
        cluster.misplaced_primary_rows("chaos"),
        0,
        "n {n} seed {seed}: a row rests on a node that does not own it"
    );

    // A node joins mid-stream: some owner's code lengthens while frames
    // addressed to its old, shorter code are still being produced.
    let joiner = cluster.world_mut().add_node(
        mind::core::MindNode::new_joiner(NodeId(n as u32), NodeId(0), overlay_cfg, mind_cfg),
        mind::netsim::Site::new("joiner", 40.0, -75.0),
    );
    for i in 0..80usize {
        let r = random_record(&mut rng, i as u64 % 7);
        insert(&mut cluster, (i % n) as u32, r);
        if i % 8 == 7 {
            cluster.run_for(SECONDS);
        }
    }
    cluster.run_for(60 * SECONDS);
    assert!(
        cluster.world().node(joiner).overlay().is_member(),
        "n {n} seed {seed}: the joiner never joined"
    );
    // The joiner originates too (at its own, deepest, depth).
    for i in 0..20u64 {
        let r = random_record(&mut rng, i % 7);
        insert(&mut cluster, joiner.0, r);
    }
    // Quiesce (acks + replica pushes), then kill a deep node: its
    // sibling holds the Level-1 replicas and takes the region over.
    cluster.run_for(90 * SECONDS);
    let victim = 1usize;
    assert_eq!(lens[victim], *lens.iter().max().unwrap());
    let dead_region = cuts.rect_for_code(&cluster.topology().code(victim));
    cluster.crash(NodeId(victim as u32));
    // Rows for the dead owner, inserted into the failure window from
    // every depth: they ride their origin's retries — or, where a
    // shallow origin's frame reached the live sibling first, the
    // sibling's custody retries — until the takeover lands.
    for i in 0..40usize {
        let r = Record::new(
            (0..3)
                .map(|d| rng.random_range(dead_region.lo(d)..=dead_region.hi(d)))
                .collect(),
        );
        insert(&mut cluster, (2 + i % (n - 2)) as u32, r);
        if i % 10 == 9 {
            cluster.run_for(SECONDS);
        }
    }
    cluster.run_for(90 * SECONDS);
    // And the whole space again, on the overlay the takeover left.
    for i in 0..40usize {
        let r = random_record(&mut rng, i as u64 % 7);
        insert(&mut cluster, (2 + i % (n - 1)) as u32, r);
    }
    cluster.run_for(150 * SECONDS);

    let ctx = format!("n {n} seed {seed} unbalanced batched");
    assert_matches_oracle(&mut cluster, NodeId(3), &oracle, &ctx);
    cluster.audit_settled().assert_clean(&ctx);
    let exhausted = metric_sum(&cluster, |m| m.retries_exhausted);
    assert_eq!(exhausted, 0, "{ctx}: an op ran out of budget");
    let batches = metric_sum(&cluster, |m| m.insert_batches_sent);
    assert!(batches > 0, "{ctx}: batching never engaged");
    let forwarded = metric_sum(&cluster, |m| m.insert_rows_forwarded);
    assert!(forwarded > 0, "{ctx}: no frame ever needed a re-split");

    (observe(&mut cluster, NodeId(2)), (batches, forwarded))
}

#[test]
fn batched_ingest_on_unbalanced_overlay() {
    // Owner-addressed frames on overlays where "a prefix of my own depth"
    // does not name one node: every row must still end up at its owner
    // exactly once, and the whole run must replay byte-identically.
    for n in [6, 11] {
        for seed in SEEDS {
            let a = unbalanced_batched_run(n, seed);
            let b = unbalanced_batched_run(n, seed);
            assert_eq!(
                a, b,
                "n {n} seed {seed}: unbalanced batched replay diverged"
            );
        }
    }
}

/// One seeded query run on an *unbalanced* overlay (`n` not a power of
/// two: codes of two lengths), where a `SubQuery` addressed to a prefix
/// of the sender's own depth can land on a deeper node that answers only
/// part of it and must re-group the rest. Queries are issued from every
/// depth, across a dynamic join (the joiner answers through its live
/// handoff pointer), and across a crash with sibling takeover
/// (`Replication::Level(1)`), under background loss and duplication, so
/// query retries re-dispatch only the codes still missing. Every answer
/// outside the failure window is oracle-exact and the cluster audited
/// before returning the fingerprint plus `(scan jobs, regions answered,
/// query retry rounds)`. (The receiver that is *no deeper* than the
/// prefix and answers part of it through a claim exists for a second per
/// failure here; `tests/churn_and_recovery.rs` builds one that lasts.)
fn unbalanced_query_run(n: usize, seed: u64) -> (Fingerprint, (u64, u64, u64)) {
    let (mut cluster, (overlay_cfg, mind_cfg), _, lens) = build_unbalanced(n, seed, 1);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E0);
    let mut oracle = Vec::new();
    let spread = |cluster: &mut MindCluster, rng: &mut StdRng, oracle: &mut Vec<Record>| {
        for i in 0..120usize {
            let r = random_record(rng, i as u64 % 7);
            oracle.push(r.clone());
            cluster.insert(NodeId((i % n) as u32), "chaos", r).unwrap();
            if i % 20 == 19 {
                cluster.run_for(SECONDS);
            }
        }
        cluster.run_for(40 * SECONDS);
    };
    // The whole space, then two random boxes, from `at`: each answer is
    // exactly the oracle's rows inside the box.
    let ask = |cluster: &mut MindCluster, rng: &mut StdRng, oracle: &[Record], at: u32| {
        let (side, week) = (1u64 << 20, 86_400 * 7);
        let mut span = |max: u64| {
            let (a, b) = (rng.random_range(0..=max), rng.random_range(0..=max));
            (a.min(b), a.max(b))
        };
        let mut boxes = vec![HyperRect::new(vec![0, 0, 0], vec![side, week, side])];
        for _ in 0..2 {
            let (x, t, y) = (span(side), span(week), span(side));
            boxes.push(HyperRect::new(vec![x.0, t.0, y.0], vec![x.1, t.1, y.1]));
        }
        for q in boxes {
            let inside: Vec<Record> = oracle
                .iter()
                .filter(|r| q.contains_point(r.point(3)))
                .cloned()
                .collect();
            let ctx = format!("n {n} seed {seed} unbalanced query from {at} over {q:?}");
            let outcome = cluster
                .query_and_wait(NodeId(at), "chaos", q, vec![])
                .unwrap();
            assert!(outcome.complete, "{ctx}: incomplete");
            assert_eq!(
                sorted_values(&outcome.records),
                sorted_values(&inside),
                "{ctx}: answer differs from the oracle"
            );
        }
    };

    spread(&mut cluster, &mut rng, &mut oracle);
    for at in 0..n as u32 {
        ask(&mut cluster, &mut rng, &oracle, at);
    }

    // A node joins: an owner's code lengthens, and the joiner answers its
    // half through the handoff pointer to the rows its acceptor kept.
    let joiner = cluster.world_mut().add_node(
        mind::core::MindNode::new_joiner(NodeId(n as u32), NodeId(0), overlay_cfg, mind_cfg),
        mind::netsim::Site::new("joiner", 40.0, -75.0),
    );
    cluster.run_for(60 * SECONDS);
    assert!(
        cluster.world().node(joiner).overlay().is_member(),
        "n {n} seed {seed}: the joiner never joined"
    );
    spread(&mut cluster, &mut rng, &mut oracle);
    for at in [joiner.0, 0, n as u32 - 1, 2] {
        ask(&mut cluster, &mut rng, &oracle, at);
    }

    // Kill a deep node and keep asking, from every node, through the
    // whole failure window (a query a node each second: one frame pair
    // per region instead of per owner would bury the simulated hosts).
    // The dead region's codes go unanswered until its sibling takes over,
    // and the retry rounds re-dispatch only those.
    let victim = 0usize;
    assert_eq!(lens[victim], *lens.iter().max().unwrap());
    cluster.crash(NodeId(victim as u32));
    // One box just inside the bounds, so its covering is coarse in the
    // middle and leaf-fine along every face, and the dead region is
    // always part of it.
    let (side, week) = (1u64 << 20, 86_400 * 7);
    let inner = HyperRect::new(vec![1, 1, 1], vec![side - 1, week - 1, side - 1]);
    let inside = sorted_values(
        &oracle
            .iter()
            .filter(|r| inner.contains_point(r.point(3)))
            .cloned()
            .collect::<Vec<_>>(),
    );
    let mut asked = Vec::new();
    for _ in 0..20 {
        for at in 1..=n as u32 {
            let id = cluster.query(NodeId(at), "chaos", inner.clone(), vec![]);
            asked.push((at, id.unwrap()));
        }
        cluster.run_for(SECONDS);
    }
    cluster.run_for(90 * SECONDS);
    // Between noticing the death and hearing of the takeover, a
    // neighbor answers the dead region through a provisional claim, from
    // a store that never held its rows: an answer given in that second or
    // two may be short. But every query ends, and what it holds is a
    // duplicate-free part of the oracle's answer.
    for (at, id) in asked {
        let ctx = format!("n {n} seed {seed} query {id} from {at} in the failure window");
        let tracker = &cluster.world().node(NodeId(at)).queries[&id];
        assert!(tracker.done(), "{ctx}: still open");
        let got = sorted_values(&tracker.outcome().records);
        let mut expected = inside.iter().peekable();
        for row in &got {
            while expected.next_if(|e| *e < row).is_some() {}
            assert_eq!(
                expected.next(),
                Some(row),
                "{ctx}: a row twice or from nowhere"
            );
        }
    }
    for at in (0..=n as u32).filter(|&at| at != victim as u32) {
        ask(&mut cluster, &mut rng, &oracle, at);
    }

    let ctx = format!("n {n} seed {seed} unbalanced queries");
    // Everything `audit_settled()` checks, except the freshness of
    // provisional claims: a detector that fires after the sibling's
    // takeover announce has already passed claims the dead region and is
    // never told again (n 11 seed 3 runs into it, with or without queries
    // in the failure window). The overlay owns that race; such a claimant
    // defers to the owner in `should_answer`, so no answer depends on it.
    let settled = AuditConfig {
        require_fresh_claims: false,
        ..AuditConfig::settled()
    };
    Auditor::with_config(settled)
        .audit(&cluster.audit_snapshot())
        .assert_clean(&ctx);
    let jobs = metric_sum(&cluster, |m| m.subqueries_answered);
    let regions = metric_sum(&cluster, |m| m.query_regions_answered);
    assert!(regions > jobs, "{ctx}: no scan job ever shared regions");
    let rounds = metric_sum(&cluster, |m| m.query_retries);
    assert!(rounds > 0, "{ctx}: no query ever needed a retry round");

    (observe(&mut cluster, NodeId(2)), (jobs, regions, rounds))
}

#[test]
fn grouped_queries_on_unbalanced_overlay() {
    // Owner-addressed sub-queries on overlays where "a prefix of my own
    // depth" does not name one node: every region must still be answered
    // exactly once, and the whole run must replay byte-identically.
    for n in [6, 11] {
        for seed in SEEDS {
            let a = unbalanced_query_run(n, seed);
            let b = unbalanced_query_run(n, seed);
            assert_eq!(a, b, "n {n} seed {seed}: unbalanced query replay diverged");
        }
    }
}

#[test]
fn same_seed_and_plan_replay_identically() {
    // Two runs of the same seeded scenario must agree on every fault
    // counter and every query answer, byte for byte.
    for seed in SEEDS {
        let a = replay_run(seed);
        let b = replay_run(seed);
        assert_eq!(a.stats, b.stats, "seed {seed}: NetStats counters diverged");
        assert_eq!(a.answer, b.answer, "seed {seed}: query answers diverged");
        assert_eq!(
            a.retries_sent, b.retries_sent,
            "seed {seed}: retry volume diverged"
        );
        assert_eq!(
            a.link_bytes, b.link_bytes,
            "seed {seed}: wire bytes diverged"
        );
        assert_eq!(a.census, b.census, "seed {seed}: census diverged");
    }
}
