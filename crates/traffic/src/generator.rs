//! The synthetic backbone flow generator.
//!
//! Generation is *stateless and deterministic*: the flows of any
//! `(day, window, router)` cell are a pure function of the seed, so
//! experiments can stream days of traffic without holding it in memory,
//! and any figure can be regenerated bit-for-bit.

use crate::flow::RawFlow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Statistical parameters of the synthetic backbone.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Master seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Number of backbone routers exporting flows.
    pub routers: usize,
    /// Number of distinct /16 prefixes in the address population.
    pub prefixes: usize,
    /// Mean sampled flows per second per router at the diurnal peak.
    pub flows_per_sec: f64,
    /// Diurnal modulation depth in `[0, 1)`: traffic at the nightly trough
    /// is `(1 − amplitude)` of the peak.
    pub diurnal_amplitude: f64,
    /// Fraction of the prefix popularity ranking that rotates every hour —
    /// the churn that makes *hourly* histograms mismatch (Figure 3) while
    /// daily ones stay stable.
    pub hourly_drift: f64,
    /// Small day-over-day parameter drift (the ≤ 20 % daily mismatch).
    pub daily_drift: f64,
    /// Pareto shape for flow sizes (heavier tail when closer to 1).
    pub pareto_alpha: f64,
    /// Pareto scale (minimum sampled flow size in bytes).
    pub pareto_xm: f64,
    /// Per-router sampling-rate multiplier on flow volume. The paper's
    /// Abilene routers sampled 1/100, GÉANT's 1/1000, so Abilene nodes
    /// injected ~10× the tuples. Empty = all 1.0.
    pub router_volume: Vec<f64>,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0,
            routers: 11,
            prefixes: 512,
            flows_per_sec: 40.0,
            diurnal_amplitude: 0.6,
            hourly_drift: 0.15,
            daily_drift: 0.02,
            pareto_alpha: 1.2,
            pareto_xm: 400.0,
            router_volume: Vec::new(),
        }
    }
}

impl TrafficConfig {
    /// A 34-router Abilene + GÉANT configuration: routers `0..11` are
    /// Abilene (1/100 sampling → 10× volume), `11..34` are GÉANT.
    pub fn abilene_geant(seed: u64) -> Self {
        let mut v = vec![1.0; 34];
        for x in v.iter_mut().take(11) {
            *x = 10.0;
        }
        TrafficConfig {
            seed,
            routers: 34,
            flows_per_sec: 4.0,
            router_volume: v,
            ..Default::default()
        }
    }
}

/// Deterministic synthetic flow source.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    cfg: TrafficConfig,
    /// Zipf cumulative weights over prefix ranks (popularity ∝ 1/rank).
    zipf_cum: Vec<f64>,
}

/// Well-known destination ports, Zipf-weighted: web dominates, with mail,
/// DNS, databases and P2P in the tail.
const PORTS: [u16; 10] = [80, 443, 25, 53, 110, 3306, 22, 21, 6881, 4662];

impl TrafficGenerator {
    /// Builds a generator for the given configuration.
    pub fn new(cfg: TrafficConfig) -> Self {
        assert!(cfg.routers >= 1 && cfg.prefixes >= 2);
        assert!(cfg.pareto_alpha > 0.0 && cfg.pareto_xm >= 1.0);
        let mut zipf_cum = Vec::with_capacity(cfg.prefixes);
        let mut acc = 0.0;
        for r in 0..cfg.prefixes {
            acc += 1.0 / (r as f64 + 1.0);
            zipf_cum.push(acc);
        }
        TrafficGenerator { cfg, zipf_cum }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrafficConfig {
        &self.cfg
    }

    /// Diurnal rate multiplier at second-of-day `s` (peak at 14:00 local).
    fn diurnal(&self, s: u64) -> f64 {
        let phase = (s % 86_400) as f64 / 86_400.0 * std::f64::consts::TAU;
        // Peak in the afternoon: cos is shifted so the max lands at 14 h.
        let peak_phase = 14.0 / 24.0 * std::f64::consts::TAU;
        1.0 - self.cfg.diurnal_amplitude * 0.5 * (1.0 - (phase - peak_phase).cos())
    }

    /// Samples a prefix *rank* from the Zipf popularity law.
    fn sample_rank(&self, rng: &mut StdRng) -> usize {
        let total = self.zipf_cum.last().copied().unwrap_or(1.0);
        let u: f64 = rng.random_range(0.0..total);
        self.zipf_cum
            .partition_point(|&c| c < u)
            .min(self.cfg.prefixes - 1)
    }

    /// Maps a popularity rank to a concrete prefix for `(day, hour)`.
    ///
    /// The layout models real address allocation: popular destinations
    /// cluster in a handful of address *blocks* (big networks own
    /// contiguous ranges), so the traffic distribution is skewed at every
    /// histogram granularity. Within a block, the daily drift slides the
    /// popular slots a little per day and the hourly drift slides them
    /// much faster — so fine-grained histograms churn hour over hour
    /// while coarse (block-level) mass stays put, reproducing the
    /// Figure 3 contrast.
    fn rank_to_prefix(&self, rank: usize, day: u64, hour: u64) -> u32 {
        let id = rank as u64 % self.cfg.prefixes as u64;
        // 8 blocks of 64 popularity slots laid out across the /16 space;
        // consecutive ranks share a block, so the Zipf head concentrates
        // in block 0.
        let block = (id / 64) % 8;
        // Hour-over-hour churn: an hour-keyed affine permutation of the
        // slots within the block (yesterday's hot prefix is cold an hour
        // later). Day-over-day drift: a small rotation on top.
        let slot = if self.cfg.hourly_drift > 0.0 {
            let a = 2 * ((hour * 7) % 32) + 1; // odd -> bijection mod 64
            let b = hour.wrapping_mul(2_654_435_761) % 64;
            (id * a + b) % 64
        } else {
            id % 64
        };
        let daily = (day as f64 * self.cfg.daily_drift * 64.0) as u64;
        let slot = (slot + daily) % 64;
        let prefix16 = block * 8192 + slot * 128 + (id % 128);
        (prefix16 as u32) << 16
    }

    /// Generates the sampled flows router `router` exports during the
    /// `window_len`-second window starting at `window_start` (seconds since
    /// the epoch of `day`).
    pub fn window_flows(
        &self,
        day: u64,
        window_start: u64,
        window_len: u64,
        router: u16,
    ) -> Vec<RawFlow> {
        let mut rng = StdRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(day.wrapping_mul(0x1000_0000))
                .wrapping_add(window_start.wrapping_mul(131))
                .wrapping_add(router as u64),
        );
        let volume = self
            .cfg
            .router_volume
            .get(router as usize)
            .copied()
            .unwrap_or(1.0);
        let hour = window_start / 3600;
        let mean = self.cfg.flows_per_sec * window_len as f64 * self.diurnal(window_start) * volume;
        // Poisson-ish count via normal approximation, clamped.
        let jit: f64 = rng.random_range(-1.0..1.0);
        let n = (mean + jit * mean.sqrt()).max(0.0) as usize;
        let mut flows = Vec::with_capacity(n);
        for _ in 0..n {
            let dst_rank = self.sample_rank(&mut rng);
            let src_rank = self.sample_rank(&mut rng);
            let dst_prefix = self.rank_to_prefix(dst_rank, day, hour);
            // Router locality: each router sees a rotated source population.
            let src_prefix = self.rank_to_prefix(src_rank + router as usize * 7, day, hour);
            let u: f64 = rng.random_range(f64::EPSILON..1.0);
            let bytes = (self.cfg.pareto_xm / u.powf(1.0 / self.cfg.pareto_alpha)) as u64;
            let port_idx = self.sample_port(&mut rng);
            flows.push(RawFlow {
                src_ip: src_prefix | rng.random_range(0..65_536u32),
                dst_ip: dst_prefix | rng.random_range(0..256u32), // servers cluster
                src_port: rng.random_range(1024..65_535u16),
                dst_port: PORTS[port_idx],
                bytes: bytes.min(1 << 32),
                packets: (bytes / 800).max(1) as u32,
                start: window_start + rng.random_range(0..window_len),
                router,
            });
        }
        flows
    }

    fn sample_port(&self, rng: &mut StdRng) -> usize {
        // Zipf over the port list.
        let total: f64 = (1..=PORTS.len()).map(|r| 1.0 / r as f64).sum();
        let mut u: f64 = rng.random_range(0.0..total);
        for (i, _) in PORTS.iter().enumerate() {
            u -= 1.0 / (i + 1) as f64;
            if u <= 0.0 {
                return i;
            }
        }
        PORTS.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_types::DetHashMap;

    fn generator() -> TrafficGenerator {
        TrafficGenerator::new(TrafficConfig::default())
    }

    #[test]
    fn deterministic_per_cell() {
        let g = generator();
        let a = g.window_flows(0, 3600, 30, 3);
        let b = g.window_flows(0, 3600, 30, 3);
        assert_eq!(a, b);
        let c = g.window_flows(0, 3630, 30, 3);
        assert_ne!(a, c, "different windows must differ");
    }

    #[test]
    fn diurnal_modulation_peaks_in_afternoon() {
        let g = generator();
        let peak = g.diurnal(14 * 3600);
        let trough = g.diurnal(2 * 3600);
        assert!(peak > trough, "peak {peak} vs trough {trough}");
        assert!(peak > 0.95 && trough >= 1.0 - g.cfg.diurnal_amplitude - 0.05);
    }

    #[test]
    fn flow_sizes_heavy_tailed() {
        let g = generator();
        let mut sizes: Vec<u64> = (0..200)
            .flat_map(|w| g.window_flows(0, w * 30, 30, 0))
            .map(|f| f.bytes)
            .collect();
        sizes.sort_unstable();
        let n = sizes.len();
        assert!(n > 1000);
        let median = sizes[n / 2];
        let p999 = sizes[n * 999 / 1000];
        assert!(
            p999 > median * 50,
            "tail too light: median {median}, p99.9 {p999}"
        );
    }

    #[test]
    fn prefix_popularity_skewed() {
        let g = generator();
        let mut counts: DetHashMap<u32, u64> = DetHashMap::default();
        for w in 0..100 {
            for f in g.window_flows(0, w * 30, 30, 0) {
                *counts.entry(f.dst_prefix()).or_insert(0) += 1;
            }
        }
        let total: u64 = counts.values().sum();
        let mut v: Vec<u64> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = v.iter().take(10).sum();
        assert!(
            top10 as f64 / total as f64 > 0.25,
            "top-10 prefixes should dominate: {top10}/{total}"
        );
    }

    #[test]
    fn router_volume_scales_flow_count() {
        let g = TrafficGenerator::new(TrafficConfig::abilene_geant(1));
        let abilene: usize = (0..20)
            .map(|w| g.window_flows(0, w * 30, 30, 0).len())
            .sum();
        let geant: usize = (0..20)
            .map(|w| g.window_flows(0, w * 30, 30, 20).len())
            .sum();
        assert!(
            abilene > geant * 5,
            "Abilene (1/100 sampling) must inject far more: {abilene} vs {geant}"
        );
    }

    #[test]
    fn hourly_popularity_churns_daily_stays() {
        let g = generator();
        let top_prefix = |day: u64, hour: u64| -> u32 {
            let mut counts: DetHashMap<u32, u64> = DetHashMap::default();
            for w in 0..40 {
                for f in g.window_flows(day, hour * 3600 + w * 30, 30, 0) {
                    *counts.entry(f.dst_prefix()).or_insert(0) += 1;
                }
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        // Same hour on consecutive days: stable-ish popular prefix set.
        // Different hours within a day: rotated.
        let h2 = top_prefix(0, 2);
        let h14 = top_prefix(0, 14);
        assert_ne!(h2, h14, "hourly drift should rotate popularity");
    }
}
