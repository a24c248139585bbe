//! Windowed aggregation and pre-filtering of flow records (Section 2.2).
//!
//! Network monitors do not insert raw flows into MIND; they aggregate them
//! over a time window (30 s in every experiment) keyed by
//! `(dst_prefix, src_prefix)` and filter out small, uninteresting
//! aggregates. The paper measures almost two orders of magnitude reduction
//! from this step (Figure 1) — the property that makes distributed
//! indexing affordable at backbone scale.

use crate::flow::RawFlow;
use mind_types::{DetHashMap, DetHashSet};

/// One aggregated flow record: the unit MIND actually indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggRecord {
    /// Destination /16 prefix.
    pub dst_prefix: u32,
    /// Source /16 prefix.
    pub src_prefix: u32,
    /// Window start time (seconds since trace epoch).
    pub window_start: u64,
    /// Total bytes in the aggregate (the paper's `octets`).
    pub octets: u64,
    /// Distinct connections `(src_ip, src_port, dst_ip, dst_port)` — the paper's
    /// `fanout`, which blows up under scans and DoS floods.
    pub fanout: u64,
    /// Average bytes per distinct connection (the paper's `flow_size`,
    /// used by Index-3 to spot tunneling over well-known ports).
    pub avg_flow_size: u64,
    /// Most common destination port in the aggregate.
    pub dst_port: u16,
    /// The observing router.
    pub router: u16,
}

/// Aggregates one window of flows from one router into per-prefix-pair
/// records. Flows outside `[window_start, window_start + window_len)` are
/// ignored (robustness against sloppy exporters).
pub fn aggregate_window(flows: &[RawFlow], window_start: u64, window_len: u64) -> Vec<AggRecord> {
    struct State {
        octets: u64,
        conns: DetHashSet<(u32, u16, u32, u16)>,
        ports: DetHashMap<u16, u32>,
        router: u16,
    }
    let mut map: DetHashMap<(u32, u32), State> = DetHashMap::default();
    for f in flows {
        if f.start < window_start || f.start >= window_start + window_len {
            continue;
        }
        let key = (f.dst_prefix(), f.src_prefix());
        let st = map.entry(key).or_insert_with(|| State {
            octets: 0,
            conns: DetHashSet::default(),
            ports: DetHashMap::default(),
            router: f.router,
        });
        st.octets += f.bytes;
        st.conns
            .insert((f.src_ip, f.src_port, f.dst_ip, f.dst_port));
        *st.ports.entry(f.dst_port).or_insert(0) += 1;
    }
    let mut out: Vec<AggRecord> = map
        .into_iter()
        .map(|((dst_prefix, src_prefix), st)| {
            let fanout = st.conns.len() as u64;
            let dst_port = st
                .ports
                .iter()
                .max_by_key(|&(p, c)| (*c, u32::from(*p)))
                .map(|(&p, _)| p)
                .unwrap_or(0);
            AggRecord {
                dst_prefix,
                src_prefix,
                window_start,
                octets: st.octets,
                fanout,
                avg_flow_size: st.octets / fanout.max(1),
                dst_port,
                router: st.router,
            }
        })
        .collect();
    // Deterministic output order.
    out.sort_by_key(|r| (r.dst_prefix, r.src_prefix));
    out
}

/// Counts raw flows vs aggregates vs filtered aggregates for one window —
/// the three series of Figure 1.
pub fn reduction_counts(
    flows: &[RawFlow],
    window_start: u64,
    window_len: u64,
    octet_threshold: u64,
) -> (usize, usize, usize) {
    let aggs = aggregate_window(flows, window_start, window_len);
    let filtered = aggs.iter().filter(|a| a.octets >= octet_threshold).count();
    (flows.len(), aggs.len(), filtered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(src: u32, dst: u32, port: u16, bytes: u64, start: u64) -> RawFlow {
        RawFlow {
            src_ip: src,
            dst_ip: dst,
            src_port: 40_000, // fixed so repeat flows are the same connection
            dst_port: port,
            bytes,
            packets: 1,
            start,
            router: 3,
        }
    }

    #[test]
    fn groups_by_prefix_pair() {
        let flows = vec![
            flow(0x0A00_0001, 0xC0A8_0001, 80, 100, 0),
            flow(0x0A00_0002, 0xC0A8_0002, 80, 200, 5),
            flow(0x0B00_0001, 0xC0A8_0001, 80, 400, 9),
        ];
        let aggs = aggregate_window(&flows, 0, 30);
        assert_eq!(aggs.len(), 2);
        let a = aggs.iter().find(|a| a.src_prefix == 0x0A00_0000).unwrap();
        assert_eq!(a.octets, 300);
        assert_eq!(a.fanout, 2);
        assert_eq!(a.avg_flow_size, 150);
    }

    #[test]
    fn fanout_counts_distinct_connections() {
        // Same connection twice = one; new port = new connection.
        let flows = vec![
            flow(1, 0xC0A8_0001, 80, 10, 0),
            flow(1, 0xC0A8_0001, 80, 10, 1),
            flow(1, 0xC0A8_0001, 443, 10, 2),
            flow(1, 0xC0A8_0009, 80, 10, 3),
        ];
        let aggs = aggregate_window(&flows, 0, 30);
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].fanout, 3);
    }

    #[test]
    fn flows_outside_window_ignored() {
        let flows = vec![flow(1, 2, 80, 10, 29), flow(1, 2, 80, 10, 30)];
        let aggs = aggregate_window(&flows, 0, 30);
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].octets, 10);
    }

    #[test]
    fn dominant_port_reported() {
        let flows = vec![
            flow(1, 2, 53, 10, 0),
            flow(3, 2, 80, 10, 0),
            flow(4, 2, 80, 10, 0),
        ];
        let aggs = aggregate_window(&flows, 0, 30);
        assert_eq!(aggs[0].dst_port, 80);
    }

    #[test]
    fn reduction_counts_monotone() {
        let mut flows = Vec::new();
        for i in 0..100u32 {
            flows.push(flow(i, 0xC0A8_0000 | (i % 4), 80, (i as u64 + 1) * 10, 0));
        }
        let (raw, agg, filt) = reduction_counts(&flows, 0, 30, 400);
        assert_eq!(raw, 100);
        assert!(agg <= raw);
        assert!(filt <= agg);
        assert!(filt > 0);
    }

    #[test]
    fn empty_input() {
        assert!(aggregate_window(&[], 0, 30).is_empty());
    }
}
