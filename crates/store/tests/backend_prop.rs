//! Differential suite for the store backend: the columnar [`MemStore`], the
//! pre-columnar [`NaiveKdTree`] oracle, and a brute-force scan must agree
//! *exactly* on `range_ids` / `count_range` — an independent implementation
//! is the strongest correctness oracle the backend can get (mirrors
//! `columnar_prop.rs`, which races the columnar tree alone).
//!
//! Coverage the strategies force: duplicate-heavy inputs (tiny coordinate
//! domains), empty and singleton stores, full-domain wildcard rectangles,
//! and `u64::MAX`-boundary coordinates (the trees compare against inclusive
//! `hi` bounds, which must hold at the top of the domain).

use mind_store::{MemStore, NaiveKdTree, StoreKind};
use mind_types::{HyperRect, Record, RecordId};
use proptest::prelude::*;

/// Brute-force oracle: ids of the points inside `rect`, in id order.
fn brute(points: &[Vec<u64>], rect: &HyperRect) -> Vec<RecordId> {
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| rect.contains_point(p))
        .map(|(i, _)| RecordId(i as u64))
        .collect()
}

fn sorted(mut ids: Vec<RecordId>) -> Vec<RecordId> {
    ids.sort();
    ids
}

/// Builds the store and the naive tree from the same points.
fn build_all(points: &[Vec<u64>]) -> (MemStore, NaiveKdTree) {
    let mut mem = MemStore::new(3);
    for p in points {
        mem.insert(Record::new(p.clone()));
    }
    let entries = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), RecordId(i as u64)))
        .collect();
    (mem, NaiveKdTree::build(3, entries))
}

/// Asserts all three implementations agree on `rect`, returning the count.
fn assert_agree(
    points: &[Vec<u64>],
    mem: &MemStore,
    naive: &NaiveKdTree,
    rect: &HyperRect,
) -> usize {
    let oracle = brute(points, rect);
    assert_eq!(sorted(mem.range_ids(rect)), oracle, "columnar vs brute");
    assert_eq!(sorted(naive.range_vec(rect)), oracle, "naive vs brute");
    assert_eq!(mem.count_range(rect), oracle.len(), "columnar count");
    assert_eq!(naive.count_range(rect), oracle.len(), "naive count");
    oracle.len()
}

/// Duplicate-heavy 3-d points: a tiny domain guarantees collisions.
fn dup_points(max: u64, len: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0..=max, 3), 0..len)
}

/// Coordinates biased to the edges of the u64 domain: small values,
/// `u64::MAX`-adjacent values, and arbitrary bit patterns.
fn edge_coord() -> impl Strategy<Value = u64> {
    // (The vendored proptest's `prop_oneof!` is unweighted; arms are
    // repeated to bias toward the domain edges.)
    prop_oneof![
        0u64..16,
        0u64..16,
        (u64::MAX - 15)..=u64::MAX,
        (u64::MAX - 15)..=u64::MAX,
        any::<u64>(),
    ]
}

fn edge_points(len: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(edge_coord(), 3), 0..len)
}

/// A rect from two corner draws (normalized per-axis so `lo <= hi`).
fn rect_from(a: Vec<u64>, b: Vec<u64>) -> HyperRect {
    let lo = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
    let hi = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
    HyperRect::new(lo, hi)
}

proptest! {
    /// Duplicate-heavy small domains: store and oracle agree with brute
    /// force on ids and counts.
    #[test]
    fn backends_agree_on_duplicate_heavy_inputs(
        points in dup_points(6, 300),
        a in prop::collection::vec(0u64..=7, 3),
        b in prop::collection::vec(0u64..=7, 3),
    ) {
        let (mem, naive) = build_all(&points);
        let rect = rect_from(a, b);
        assert_agree(&points, &mem, &naive, &rect);
    }

    /// u64-domain edges: max coordinates, arbitrary bit patterns, and
    /// rects whose corners sit at the boundaries.
    #[test]
    fn backends_agree_at_u64_boundaries(
        points in edge_points(64),
        a in prop::collection::vec(edge_coord(), 3),
        b in prop::collection::vec(edge_coord(), 3),
    ) {
        let (mem, naive) = build_all(&points);
        let rect = rect_from(a, b);
        assert_agree(&points, &mem, &naive, &rect);
    }

    /// The full-domain wildcard rectangle returns every id exactly once,
    /// whatever the input.
    #[test]
    fn full_domain_wildcard_returns_each_id_once(points in edge_points(128)) {
        let (mem, naive) = build_all(&points);
        let n = assert_agree(&points, &mem, &naive, &HyperRect::full(3));
        prop_assert_eq!(n, points.len());
    }

    /// Buffered-vs-rebuilt equivalence through the `Store` trait: answers
    /// must not depend on whether `rebuild` has folded the insert buffer
    /// into the tree.
    #[test]
    fn rebuild_is_observationally_invisible(
        points in dup_points(40, 400),
        a in prop::collection::vec(0u64..=50, 3),
        b in prop::collection::vec(0u64..=50, 3),
    ) {
        let rect = rect_from(a, b);
        let oracle = brute(&points, &rect);
        let mut buffered = StoreKind::KdTree.new_store(3);
        for p in &points {
            buffered.insert(Record::new(p.clone()));
        }
        let before = sorted(buffered.range_ids(&rect));
        let count_before = buffered.count_range(&rect);
        buffered.rebuild();
        prop_assert_eq!(&sorted(buffered.range_ids(&rect)), &oracle, "rebuilt");
        prop_assert_eq!(&before, &oracle, "buffered");
        prop_assert_eq!(count_before, oracle.len());
        prop_assert_eq!(buffered.count_range(&rect), oracle.len());
        prop_assert_eq!(
            buffered.count_range(&rect),
            buffered.range_ids(&rect).len(),
            "count must equal materialized ids"
        );
    }
}

#[test]
fn empty_and_singleton_stores_agree() {
    let (mem, naive) = build_all(&[]);
    for rect in [
        HyperRect::full(3),
        HyperRect::new(vec![0, 0, 0], vec![0, 0, 0]),
        HyperRect::new(vec![u64::MAX; 3], vec![u64::MAX; 3]),
    ] {
        assert_agree(&[], &mem, &naive, &rect);
    }

    let points = vec![vec![5, u64::MAX, 0]];
    let (mem, naive) = build_all(&points);
    for rect in [
        HyperRect::full(3),
        HyperRect::new(vec![5, u64::MAX, 0], vec![5, u64::MAX, 0]),
        HyperRect::new(vec![6, 0, 0], vec![u64::MAX, u64::MAX, u64::MAX]),
        HyperRect::new(vec![0, 0, 1], vec![u64::MAX, u64::MAX, u64::MAX]),
    ] {
        assert_agree(&points, &mem, &naive, &rect);
    }
}

#[test]
fn all_points_identical_max_coordinate() {
    // Every record at the very top of the domain: inclusive bounds must
    // still hit.
    let points: Vec<Vec<u64>> = (0..150).map(|_| vec![u64::MAX; 3]).collect();
    let (mem, naive) = build_all(&points);
    let exact = HyperRect::new(vec![u64::MAX; 3], vec![u64::MAX; 3]);
    assert_eq!(assert_agree(&points, &mem, &naive, &exact), 150);
    let below = HyperRect::new(vec![0; 3], vec![u64::MAX - 1, u64::MAX, u64::MAX]);
    assert_eq!(assert_agree(&points, &mem, &naive, &below), 0);
}
