//! Figure 4: the deadlock-free concurrent join procedure.
//!
//! The paper illustrates two nodes X and Y joining simultaneously: both
//! are optimistically accepted, the join at the shallower node preempts
//! the uncommitted deeper one, the loser retries, and the overlay ends up
//! with a consistent prefix-free code set. This binary replays that race
//! at increasing contention and reports the outcome.

use super::{io, Scale, Verdict, Write};
use crate::report::{header, kv};
use mind_core::MindPayload;
use mind_netsim::world::lan_config;
use mind_netsim::{Site, World};
use mind_overlay::{Overlay, OverlayConfig, OverlayMsg};
use mind_types::node::{NodeLogic, Outbox, SimTime, SECONDS};
use mind_types::NodeId;

/// Minimal wrapper: just the overlay, no index machinery.
struct Bare(Overlay<MindPayload>);

impl NodeLogic for Bare {
    type Msg = OverlayMsg<MindPayload>;
    fn on_start(&mut self, now: SimTime, out: &mut Outbox<Self::Msg>) {
        self.0.on_start(now, out);
    }
    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg>,
    ) {
        let _ = self.0.handle(now, from, msg, out);
    }
    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Outbox<Self::Msg>) {
        let _ = self.0.on_timer(now, token, out);
    }
}

fn race(joiners: usize, seed: u64) -> (bool, Vec<String>) {
    let mut world: World<Bare> = World::new(lan_config(seed));
    world.add_node(
        Bare(Overlay::new_root(NodeId(0), OverlayConfig::default())),
        Site::new("root", 0.0, 0.0),
    );
    for k in 1..=joiners {
        world.add_node(
            Bare(Overlay::new_joiner(
                NodeId(k as u32),
                NodeId(0),
                OverlayConfig::default(),
            )),
            Site::new(format!("j{k}"), 0.0, 0.1 * k as f64),
        );
        // No delay between joiners: maximum contention.
    }
    world.run_until(10 * 60 * SECONDS);
    let mut codes = Vec::new();
    let mut ok = true;
    for k in 0..=joiners {
        let o = &world.node(NodeId(k as u32)).0;
        match o.code() {
            Some(c) if o.is_member() => codes.push(c),
            _ => ok = false,
        }
    }
    // Verify prefix-freeness and completeness.
    for i in 0..codes.len() {
        for j in 0..codes.len() {
            if i != j && codes[i].is_prefix_of(&codes[j]) {
                ok = false;
            }
        }
    }
    if ok {
        let total: u64 = codes.iter().map(|c| 1u64 << (32 - c.len() as u32)).sum();
        ok = total == 1u64 << 32;
    }
    (ok, codes.iter().map(|c| c.to_string()).collect())
}

pub fn run(out: &mut dyn Write, _scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 4",
        "deadlock-free serialization of concurrent joins",
        "simultaneous joins serialize; shallower node's join preempts deeper uncommitted ones",
    )?;
    let mut every_ok = true;
    for joiners in [2usize, 4, 8, 16] {
        let mut all_ok = true;
        let mut example = Vec::new();
        for seed in 0..5u64 {
            let (ok, codes) = race(joiners, seed);
            all_ok &= ok;
            if seed == 0 {
                example = codes;
            }
        }
        kv(
            out,
            &format!("{joiners} simultaneous joiners (5 seeds)"),
            format!(
                "{} — final codes e.g. [{}]",
                if all_ok {
                    "consistent prefix-free code space"
                } else {
                    "FAILED"
                },
                example.join(", ")
            ),
        )?;
        every_ok &= all_ok;
    }
    Ok(Verdict::new(
        every_ok,
        "2/4/8/16 simultaneous joiners x 5 seeds end prefix-free and complete",
    ))
}
