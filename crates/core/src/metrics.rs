//! Per-node metrics and summary statistics for the evaluation figures.

use mind_types::node::SimTime;
use serde::{Deserialize, Serialize};

/// Counters and samples one node accumulates while running.
#[derive(Debug, Default, Clone)]
pub struct NodeMetrics {
    /// `(completed_at, latency)` for every primary insert this node (as
    /// region owner) finished durably storing — the Figure 7/14 series.
    pub insert_latencies: Vec<(SimTime, SimTime)>,
    /// Overlay hops of every insert that arrived here.
    pub insert_hops: Vec<u32>,
    /// Routed messages that gave up (TTL/recovery exhaustion).
    pub undeliverable: u64,
    /// Inserts this node originated (per-monitor volume, Figure 12).
    pub inserts_originated: u64,
    /// Multi-record `InsertBatch` frames this node shipped (the ingest
    /// fast path; one-record stragglers leave as plain `Insert`s and are
    /// not counted here).
    pub insert_batches_sent: u64,
    /// Insert frames the origin-side batcher shipped, by what released
    /// them. At low arrival rates `idle` dominates (the row never
    /// waited); at saturation `size` and `ack` do; `age` counts the
    /// frames that sat out the full `insert_batch_age` (a lost or slow
    /// ack).
    pub insert_frames: FlushCounts,
    /// Rows that reached this node under a prefix it only partly owned
    /// and that it re-originated toward their owner (the apply-time
    /// re-split; 0 on a balanced overlay).
    pub insert_rows_forwarded: u64,
    /// Sub-query scan jobs run here: one per `SubQuery` frame (or local
    /// dispatch) this node answered, however many regions it named.
    pub subqueries_answered: u64,
    /// Covering regions those scan jobs answered (one per region code);
    /// the ratio to `subqueries_answered` is the regions a frame pair and
    /// a store scan were shared by.
    pub query_regions_answered: u64,
    /// Unacked insert/replica operations this node re-sent.
    pub retries_sent: u64,
    /// Acks received for this node's insert/replica operations.
    pub acks_received: u64,
    /// Duplicate operations (already-applied `op_id`s) ignored here.
    pub dup_ops_ignored: u64,
    /// Rows of peers' write ops dropped unapplied and unacked because one
    /// of the op's rows did not have the index schema's arity.
    pub rows_rejected: u64,
    /// Operations abandoned after exhausting their retry budget.
    pub retries_exhausted: u64,
    /// Query plan/sub-query re-dispatch rounds this node issued.
    pub query_retries: u64,
    /// Anti-entropy ticks this node sent as 12-byte catalog digests (the
    /// steady-state background cost; see DESIGN.md §16).
    pub catalog_digests_sent: u64,
    /// Received digests that disagreed with the local catalog — each one
    /// cost a full `CatalogResponse` reply. In a converged overlay this
    /// stays near zero while `catalog_digests_sent` keeps climbing.
    pub catalog_digest_mismatches: u64,
}

/// Insert frames by flush cause (see [`NodeMetrics::insert_frames`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlushCounts {
    /// The group had nothing in flight: its rows left at the end of the
    /// pass that buffered them.
    pub idle: u64,
    /// Released by the ack (or abandonment) of the group's last
    /// outstanding frame.
    pub ack: u64,
    /// The buffer reached `insert_batch_max`.
    pub size: u64,
    /// `insert_batch_age` expired.
    pub age: u64,
}

/// Percentile of a *sorted* slice using nearest-rank (the convention the
/// paper's box plots use). `p` in `[0, 100]`.
pub fn percentile(sorted: &[SimTime], p: f64) -> SimTime {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// The latency summary every latency figure reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Sample count.
    pub count: usize,
    /// Median (50th percentile).
    pub median: SimTime,
    /// Arithmetic mean.
    pub mean: SimTime,
    /// 90th percentile.
    pub p90: SimTime,
    /// 99th percentile.
    pub p99: SimTime,
    /// Maximum.
    pub max: SimTime,
}

impl LatencySummary {
    /// Summarizes a set of latency samples (order irrelevant).
    pub fn from_samples(mut samples: Vec<SimTime>) -> Self {
        samples.sort_unstable();
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                median: 0,
                mean: 0,
                p90: 0,
                p99: 0,
                max: 0,
            };
        }
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        LatencySummary {
            count: samples.len(),
            median: percentile(&samples, 50.0),
            mean: (sum / samples.len() as u128) as SimTime,
            p90: percentile(&samples, 90.0),
            p99: percentile(&samples, 99.0),
            max: samples.last().copied().unwrap_or(0),
        }
    }

    /// Renders microsecond fields as seconds for experiment output.
    pub fn format_seconds(&self) -> String {
        format!(
            "n={} median={:.3}s mean={:.3}s p90={:.3}s p99={:.3}s max={:.3}s",
            self.count,
            self.median as f64 / 1e6,
            self.mean as f64 / 1e6,
            self.p90 as f64 / 1e6,
            self.p99 as f64 / 1e6,
            self.max as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<SimTime> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
    }

    #[test]
    fn percentile_empty_and_single() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn summary_statistics() {
        let s = LatencySummary::from_samples(vec![4, 1, 3, 2, 100]);
        assert_eq!(s.count, 5);
        assert_eq!(s.median, 3);
        assert_eq!(s.mean, 22);
        assert_eq!(s.max, 100);
        assert!(s.p90 >= s.median);
    }

    #[test]
    fn summary_empty() {
        let s = LatencySummary::from_samples(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.median, 0);
    }

    #[test]
    fn format_is_humane() {
        let s = LatencySummary::from_samples(vec![1_500_000]);
        let txt = s.format_seconds();
        assert!(txt.contains("median=1.500s"), "{txt}");
    }
}
