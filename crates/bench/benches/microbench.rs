//! Criterion microbenches for MIND's hot paths.
//!
//! These complement the figure-level experiment binaries: they measure
//! the data-structure costs that determine how far a real deployment
//! could push insert/query rates — the embedding, routing table lookups,
//! k-d tree range scans, histogram operations, aggregation, and the wire
//! codec.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mind_histogram::{mismatch, CutTree, GridHistogram};
use mind_overlay::StaticTopology;
use mind_store::{KdTree, NaiveKdTree};
use mind_traffic::aggregate::aggregate_window;
use mind_traffic::generator::{TrafficConfig, TrafficGenerator};
use mind_types::{BitCode, HyperRect, NodeId, Record, RecordId};
use std::hint::black_box;

fn bounds3() -> HyperRect {
    HyperRect::new(vec![0, 0, 0], vec![u32::MAX as u64, 86_400, 2 << 20])
}

fn sample_points(n: usize, seed: u64) -> Vec<Vec<u64>> {
    mind_bench::harness::store_sample_points(n, seed)
}

fn bench_embedding(c: &mut Criterion) {
    let pts = sample_points(10_000, 1);
    let refs: Vec<&[u64]> = pts.iter().map(|p| p.as_slice()).collect();
    let tree = CutTree::balanced_from_points(bounds3(), 12, &refs);

    c.bench_function("cut_tree/build_balanced_10k_depth12", |b| {
        b.iter(|| CutTree::balanced_from_points(bounds3(), 12, black_box(&refs)));
    });
    c.bench_function("cut_tree/code_for_point", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % pts.len();
            black_box(tree.code_for_point(&pts[i]))
        });
    });
    c.bench_function("cut_tree/covering_codes_5min_query", |b| {
        let q = HyperRect::new(vec![0, 40_000, 0], vec![u32::MAX as u64, 40_300, 2 << 20]);
        b.iter(|| black_box(tree.covering_codes_at_least(&q, 6)));
    });
}

fn bench_routing(c: &mut Criterion) {
    let topo = StaticTopology::balanced(102);
    let entries = topo.neighbor_entries(0);
    let mut table = mind_overlay::NeighborTable::new();
    table.set_all(entries);
    let me = topo.code(0);
    let targets: Vec<BitCode> = (0..64).map(|i| BitCode::from_index(i, 6)).collect();

    c.bench_function("overlay/next_hop_102_nodes", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % targets.len();
            black_box(table.next_hop(&me, &targets[i]))
        });
    });
    c.bench_function("overlay/static_table_build_102", |b| {
        b.iter(|| black_box(topo.neighbor_entries(50)));
    });
}

/// Before/after store benches: the columnar [`KdTree`] against the
/// pre-columnar [`NaiveKdTree`] oracle on the same 100k 3-dim workload the
/// `bench_store` binary gates in CI (see `BENCH_store.json`).
fn bench_store(c: &mut Criterion) {
    let pts = sample_points(100_000, 2);
    let entries: Vec<(Vec<u64>, RecordId)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), RecordId(i as u64)))
        .collect();
    let tree = KdTree::build(3, entries.clone());
    let naive = NaiveKdTree::build(3, entries.clone());
    // The paper's standing monitoring-query shape: every non-time
    // attribute wildcarded, a 5-minute time window (same rect as the
    // `bench_store` gate binary).
    let query = HyperRect::new(vec![0, 40_000, 0], vec![u32::MAX as u64, 40_300, 2 << 20]);

    c.bench_function("kdtree/build_100k", |b| {
        b.iter_batched(
            || entries.clone(),
            |e| KdTree::build(3, e),
            BatchSize::LargeInput,
        );
    });
    c.bench_function("kdtree_naive/build_100k", |b| {
        b.iter_batched(
            || entries.clone(),
            |e| NaiveKdTree::build(3, e),
            BatchSize::LargeInput,
        );
    });
    c.bench_function("kdtree/range_query_100k", |b| {
        b.iter(|| black_box(tree.range_vec(&query)));
    });
    c.bench_function("kdtree_naive/range_query_100k", |b| {
        b.iter(|| black_box(naive.range_vec(&query)));
    });
    c.bench_function("kdtree/count_range_100k", |b| {
        b.iter(|| black_box(tree.count_range(&query)));
    });
    c.bench_function("kdtree_naive/count_range_100k", |b| {
        b.iter(|| black_box(naive.count_range(&query)));
    });
    c.bench_function("memstore/insert", |b| {
        let mut store = mind_store::MemStore::new(3);
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % pts.len();
            store.insert(Record::new(pts[i].clone()))
        });
    });
}

fn bench_histogram(c: &mut Criterion) {
    let pts = sample_points(10_000, 3);
    let mut h1 = GridHistogram::new(bounds3(), 64);
    let mut h2 = GridHistogram::new(bounds3(), 64);
    for (i, p) in pts.iter().enumerate() {
        if i % 2 == 0 {
            h1.add(p);
        } else {
            h2.add(p);
        }
    }
    c.bench_function("histogram/add", |b| {
        let mut h = GridHistogram::new(bounds3(), 64);
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % pts.len();
            h.add(&pts[i]);
        });
    });
    c.bench_function("histogram/merge_5k_bins", |b| {
        b.iter_batched(|| h1.clone(), |mut h| h.merge(&h2), BatchSize::SmallInput);
    });
    c.bench_function("histogram/mismatch", |b| {
        b.iter(|| black_box(mismatch(&h1, &h2)));
    });
}

fn bench_traffic(c: &mut Criterion) {
    let generator = TrafficGenerator::new(TrafficConfig::default());
    let flows = generator.window_flows(0, 43_200, 30, 0);
    c.bench_function("traffic/generate_window", |b| {
        let mut w = 0;
        b.iter(|| {
            w += 30;
            black_box(generator.window_flows(0, w, 30, 0))
        });
    });
    c.bench_function("traffic/aggregate_window", |b| {
        b.iter(|| black_box(aggregate_window(&flows, 43_200, 30)));
    });
}

fn bench_wire(c: &mut Criterion) {
    use mind_core::MindPayload;
    use mind_overlay::OverlayMsg;
    let msg: OverlayMsg<MindPayload> = OverlayMsg::Route {
        target: BitCode::from_index(37, 6),
        hops: 3,
        payload: MindPayload::Insert {
            index: "index-1".into(),
            version: 0,
            record: Record::new(vec![1, 2, 3, 4, 5]),
            origin: NodeId(7),
            sent_at: 1,
            op_id: 1,
            horizon: 0,
        },
    };
    let bytes = mind_net::to_bytes(&msg).unwrap();
    c.bench_function("wire/encode_insert", |b| {
        b.iter(|| black_box(mind_net::to_bytes(&msg).unwrap()));
    });
    c.bench_function("wire/decode_insert", |b| {
        b.iter(|| black_box(mind_net::from_bytes::<OverlayMsg<MindPayload>>(&bytes).unwrap()));
    });
}

criterion_group!(
    benches,
    bench_embedding,
    bench_routing,
    bench_store,
    bench_histogram,
    bench_traffic,
    bench_wire
);
criterion_main!(benches);
