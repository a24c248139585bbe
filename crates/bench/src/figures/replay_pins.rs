//! The replay pins: what the seeded worlds did, by counter and by
//! message and timer kind, so that a protocol change's diff names every
//! number it moved (`ov.Heartbeat 1026118` → `ov.Heartbeat 542351`).
//! The three chaos worlds come first — `tests/chaos.rs` asserts that the
//! committed file begins with them — and the 1k churn world's first
//! 120 s last.
//!
//! Not a figure of the paper. Its check is that each census accounts for
//! its world: the deliveries by kind sum to the simulator's `delivered`,
//! and the timers by kind to at least its `timers_fired` (a zero-delay
//! timer fires inside the pass that armed it and is no simulator event).

use super::{io, Scale, Verdict, Write};
use crate::worlds::{chaos_worlds, churn_title, run_world, CHURN_SEED, SMOKE_WORLD};

pub fn run(out: &mut dyn Write, _: &Scale) -> io::Result<Verdict> {
    let (n, span) = SMOKE_WORLD;
    let smoke = (churn_title(n, span), run_world(n, span, CHURN_SEED).0);
    let mut consistent = true;
    let mut in_pass = Vec::new();
    for (title, world) in chaos_worlds().iter().chain([&smoke]) {
        world.render(out, title)?;
        let (timers, fired) = (world.census.timers(), world.stat("timers_fired"));
        consistent &= world.census.messages() == world.stat("delivered") && timers >= fired;
        in_pass.push(timers.saturating_sub(fired).to_string());
    }
    Ok(Verdict::new(
        consistent,
        format!(
            "deliveries by kind sum to delivered, timers by kind exceed timers_fired by {} \
             (fired in-pass)",
            in_pass.join("/")
        ),
    ))
}
