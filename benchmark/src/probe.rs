//! The host-speed probe.
//!
//! The box this benchmark was defined on shares its cores with other
//! tenants: a throughput-bound loop runs 1.5× slower whenever the sibling
//! hyperthread is busy, in episodes of 0.1–1 s that come and go over
//! minutes. No run length the driver allows averages that away — the same
//! binary measured 430 and 800 queries/s an hour apart — so wall-clock
//! rates and CPU-bound latencies are reported *at reference host speed*:
//! the harness interleaves short bursts of a fixed, throughput-bound
//! kernel with its own loops, and a phase's numbers are scaled by how much
//! slower than [`NOMINAL_BURST_NS`] those bursts ran while it lasted.
//!
//! The kernel is the benchmark's own (eight independent integer-mix
//! chains, one unpredictable branch, a 4 KB table that stays in L1 so the
//! system's own cache footprint cannot move it), so no change to the
//! repository can move it. A dependent chain or a pointer chase would not
//! do: neither slows down when a sibling thread competes for issue slots,
//! and the system under test does.

use std::time::Instant;

/// Rounds per burst (about 20 µs undisturbed).
const ROUNDS: u64 = 2_000;
/// At most one burst per this many µs.
const EVERY_US: u64 = 500;
/// What a burst takes on the defining machine when nothing disturbs it.
/// Only ratios to this are used, so the value matters for nothing but the
/// readability of `proc.host_slowdown`.
pub const NOMINAL_BURST_NS: f64 = 20_000.0;

/// Bursts of the reference kernel, timestamped.
pub struct Probe {
    epoch: Instant,
    last_us: u64,
    table: Vec<u32>,
    lanes: [u64; 8],
    /// `(µs since the probe's epoch, burst wall time in ns)`.
    samples: Vec<(u64, u32)>,
}

impl Probe {
    /// A probe whose clock starts now.
    pub fn new() -> Self {
        Probe {
            epoch: crate::wall(),
            last_us: 0,
            table: vec![0; 1 << 10],
            lanes: [1, 2, 3, 4, 5, 6, 7, 8],
            samples: Vec::new(),
        }
    }

    /// µs since the probe's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Runs one burst unless one ran in the last [`EVERY_US`]. The loops
    /// call this wherever they would otherwise only wait.
    pub fn tick(&mut self) {
        if self.now_us() >= self.last_us + EVERY_US || self.samples.is_empty() {
            self.burst();
        }
    }

    /// Runs one burst now (to bracket a call that cannot be interleaved).
    pub fn burst(&mut self) {
        let at = self.now_us();
        self.last_us = at;
        let started = crate::wall();
        let mask = self.table.len() - 1;
        let mut acc = 0u64;
        for i in 0..ROUNDS {
            for lane in self.lanes.iter_mut() {
                *lane = crate::gen::mix(*lane ^ i);
            }
            let slot = (self.lanes[0] as usize) & mask;
            let v = self.table[slot];
            if v & 1 == 0 {
                acc += v as u64;
                self.table[slot] = v.wrapping_add(3);
            } else {
                acc ^= self.lanes[3];
                self.table[(self.lanes[5] as usize) & mask] ^= 1;
            }
        }
        std::hint::black_box(acc);
        self.samples.push((at, started.elapsed().as_nanos() as u32));
    }

    /// How much slower than nominal the bursts in `[from_us, to_us]` ran:
    /// their mean over [`NOMINAL_BURST_NS`], leaving out bursts that took
    /// more than three times the window's median — those were descheduled
    /// half-way (the harness shares two cores with the system's threads),
    /// which is the system's doing, not the host's. `None` without a burst.
    pub fn slowdown(&self, from_us: u64, to_us: u64) -> Option<f64> {
        let a = self.samples.partition_point(|s| s.0 < from_us);
        let b = self.samples.partition_point(|s| s.0 <= to_us);
        if b <= a {
            return None;
        }
        let mut ns: Vec<u32> = self.samples[a..b].iter().map(|s| s.1).collect();
        ns.sort_unstable();
        let cap = ns[ns.len() / 2].saturating_mul(3);
        let kept = &ns[..ns.partition_point(|&x| x <= cap)];
        let mean = kept.iter().map(|&x| x as f64).sum::<f64>() / kept.len() as f64;
        Some(mean / NOMINAL_BURST_NS)
    }

    /// Bursts recorded so far.
    pub fn bursts(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_are_rate_limited_and_windowed() {
        let mut p = Probe::new();
        p.tick();
        p.tick(); // within 500 µs of the first: skipped
        assert_eq!(p.bursts(), 1);
        std::thread::sleep(std::time::Duration::from_micros(700));
        p.tick();
        assert_eq!(p.bursts(), 2);
        let all = p.slowdown(0, u64::MAX).unwrap();
        assert!(all > 0.1 && all < 100.0, "slowdown {all}");
        assert!(p.slowdown(u64::MAX - 1, u64::MAX).is_none());
        let first = p.samples[0];
        assert_eq!(
            p.slowdown(first.0, first.0),
            Some(first.1 as f64 / NOMINAL_BURST_NS)
        );
    }
}
