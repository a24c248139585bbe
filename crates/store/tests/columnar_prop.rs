//! Differential properties: the columnar [`KdTree`] must answer every
//! query exactly like brute force *and* exactly like the pre-columnar
//! [`NaiveKdTree`] it replaced.
//!
//! The columnar tree changes three things that could silently corrupt
//! answers — the permutation-based layout, the bounding-box containment
//! fast path (wholesale slice emission), and the leaf buckets — so every
//! property here compares sorted id multisets across all three
//! implementations, and `count_range` against the materialized count.

use mind_store::{KdTree, MemStore, NaiveKdTree};
use mind_types::{HyperRect, Record, RecordId, Value};
use proptest::prelude::*;

fn brute(points: &[(Vec<Value>, RecordId)], rect: &HyperRect) -> Vec<RecordId> {
    let mut v: Vec<RecordId> = points
        .iter()
        .filter(|(p, _)| rect.contains_point(p))
        .map(|(_, id)| *id)
        .collect();
    v.sort();
    v
}

fn sorted(mut v: Vec<RecordId>) -> Vec<RecordId> {
    v.sort();
    v
}

/// Points with heavy duplicate pressure: coordinates from a tiny domain,
/// so select-nth pivots collide and whole runs share a value.
fn dup_points(max: u64, len: usize) -> impl Strategy<Value = Vec<(Vec<Value>, RecordId)>> {
    prop::collection::vec(prop::collection::vec(0..max, 3), 0..len).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, p)| (p, RecordId(i as u64)))
            .collect()
    })
}

fn rect3(max: u64) -> impl Strategy<Value = HyperRect> {
    (
        prop::collection::vec(0..max, 3),
        prop::collection::vec(0..max, 3),
    )
        .prop_map(|(lo, span)| {
            let hi = lo.iter().zip(&span).map(|(&l, &s)| l + s).collect();
            HyperRect::new(lo, hi)
        })
}

proptest! {
    /// Columnar == brute force == naive, under duplicate-heavy data.
    #[test]
    fn columnar_matches_naive_and_brute(
        points in dup_points(12, 400),
        rect in rect3(12),
    ) {
        let columnar = KdTree::build(3, points.clone());
        let naive = NaiveKdTree::build(3, points.clone());
        let want = brute(&points, &rect);
        prop_assert_eq!(&sorted(columnar.range_vec(&rect)), &want);
        prop_assert_eq!(&sorted(naive.range_vec(&rect)), &want);
        prop_assert_eq!(columnar.count_range(&rect), want.len());
        prop_assert_eq!(naive.count_range(&rect), want.len());
    }

    /// The full-containment fast path: query rectangles that swallow the
    /// whole domain (and therefore every subtree bounding box) must still
    /// report each id exactly once.
    #[test]
    fn full_containment_reports_each_id_once(
        points in dup_points(8, 300),
    ) {
        let columnar = KdTree::build(3, points.clone());
        let all = HyperRect::full(3);
        let got = sorted(columnar.range_vec(&all));
        let want: Vec<RecordId> = (0..points.len() as u64).map(RecordId).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(columnar.count_range(&all), points.len());
    }

    /// Runs-and-tail interleavings: a MemStore mid-stream (the older rows
    /// in sealed runs, the newest in its tail) answers exactly like one
    /// tree built over every row, and both match brute force. The drawn
    /// points are cycled five times, to up to 3,000 rows.
    #[test]
    fn memstore_interleavings_match(
        vals in prop::collection::vec(prop::collection::vec(0u64..40, 2), 1..600),
        rect in (
            prop::collection::vec(0u64..40, 2),
            prop::collection::vec(0u64..40, 2),
        ).prop_map(|(lo, span)| {
            let hi = lo.iter().zip(&span).map(|(&l, &s)| l + s).collect();
            HyperRect::new(lo, hi)
        }),
    ) {
        let rows: Vec<Vec<Value>> = vals.iter().cycle().take(vals.len() * 5).cloned().collect();
        let mut store = MemStore::new(2);
        for p in &rows {
            store.insert(Record::new(p.clone()));
        }
        let one_shot = KdTree::build(
            2,
            rows.iter().cloned().zip(0u64..).map(|(p, i)| (p, RecordId(i))).collect(),
        );
        let expected = rows.iter().filter(|p| rect.contains_point(p)).count();
        prop_assert_eq!(store.range_ids(&rect).len(), expected);
        prop_assert_eq!(store.count_range(&rect), expected);
        // Same ids, not just same counts.
        prop_assert_eq!(
            sorted(store.range_ids(&rect)),
            sorted(one_shot.range_vec(&rect))
        );
    }
}

#[test]
fn empty_and_singleton_trees() {
    let empty = KdTree::build(2, vec![]);
    let naive_empty = NaiveKdTree::build(2, vec![]);
    let q = HyperRect::new(vec![0, 0], vec![100, 100]);
    assert!(empty.range_vec(&q).is_empty());
    assert!(naive_empty.range_vec(&q).is_empty());
    assert_eq!(empty.count_range(&q), 0);

    let single = KdTree::build(2, vec![(vec![50, 50], RecordId(9))]);
    assert_eq!(single.range_vec(&q), vec![RecordId(9)]);
    assert_eq!(single.count_range(&q), 1);
    let miss = HyperRect::new(vec![0, 0], vec![49, 100]);
    assert!(single.range_vec(&miss).is_empty());
    assert_eq!(single.count_range(&miss), 0);
}

#[test]
fn all_points_identical() {
    // Degenerate bounding boxes everywhere: every subtree collapses to a
    // single point in space, so every query either fully contains the
    // root box or misses it.
    let pts: Vec<_> = (0..100).map(|i| (vec![3u64, 3, 3], RecordId(i))).collect();
    let tree = KdTree::build(3, pts);
    let hit = HyperRect::new(vec![3, 3, 3], vec![3, 3, 3]);
    let miss = HyperRect::new(vec![4, 0, 0], vec![9, 9, 9]);
    assert_eq!(tree.range_vec(&hit).len(), 100);
    assert_eq!(tree.count_range(&hit), 100);
    assert!(tree.range_vec(&miss).is_empty());
    assert_eq!(tree.count_range(&miss), 0);
}
