//! Differential properties: the columnar [`KdTree`] must answer every
//! query exactly like brute force.
//!
//! The columnar tree has three things that could silently corrupt
//! answers — the permutation-based layout, the bounding-box containment
//! fast path (wholesale slice emission), and the leaf buckets — so every
//! property here compares sorted id multisets against a brute-force scan.

use mind_store::{KdTree, MemStore};
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

/// A columnar tree over `points`, built from columns as the store builds
/// its runs.
fn columnar(dims: usize, points: &[(Vec<Value>, RecordId)]) -> KdTree {
    let cols = (0..dims)
        .map(|d| points.iter().map(|(p, _)| p[d]).collect())
        .collect();
    KdTree::from_columns(cols, points.iter().map(|(_, id)| *id).collect())
}

/// The ids `tree` reports inside `rect`, sorted.
fn ids(tree: &KdTree, rect: &HyperRect) -> Vec<RecordId> {
    let mut out = Vec::new();
    tree.range(rect, &mut out);
    sorted(out)
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
    /// Columnar == brute force, under duplicate-heavy data.
    #[test]
    fn columnar_matches_brute_force(
        points in dup_points(12, 400),
        rect in rect3(12),
    ) {
        let tree = columnar(3, &points);
        prop_assert_eq!(ids(&tree, &rect), brute(&points, &rect));
    }

    /// The full-containment fast path: query rectangles that swallow the
    /// whole domain (and therefore every subtree bounding box) must still
    /// report each id exactly once.
    #[test]
    fn full_containment_reports_each_id_once(
        points in dup_points(8, 300),
    ) {
        let tree = columnar(3, &points);
        let got = ids(&tree, &HyperRect::full(3));
        let want: Vec<RecordId> = (0..points.len() as u64).map(RecordId).collect();
        prop_assert_eq!(got, want);
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
        let points: Vec<_> = rows.iter().cloned().zip(0u64..).map(|(p, i)| (p, RecordId(i))).collect();
        let one_shot = columnar(2, &points);
        let expected = rows.iter().filter(|p| rect.contains_point(p)).count();
        prop_assert_eq!(store.range_ids(&rect).len(), expected);
        // Same ids, not just same counts.
        prop_assert_eq!(
            sorted(store.range_ids(&rect)),
            ids(&one_shot, &rect)
        );
    }
}

#[test]
fn empty_and_singleton_trees() {
    let empty = columnar(2, &[]);
    let q = HyperRect::new(vec![0, 0], vec![100, 100]);
    assert!(ids(&empty, &q).is_empty());

    let single = columnar(2, &[(vec![50, 50], RecordId(9))]);
    assert_eq!(ids(&single, &q), vec![RecordId(9)]);
    let miss = HyperRect::new(vec![0, 0], vec![49, 100]);
    assert!(ids(&single, &miss).is_empty());
}

#[test]
fn all_points_identical() {
    // Degenerate bounding boxes everywhere: every subtree collapses to a
    // single point in space, so every query either fully contains the
    // root box or misses it.
    let pts: Vec<_> = (0..100).map(|i| (vec![3u64, 3, 3], RecordId(i))).collect();
    let tree = columnar(3, &pts);
    let hit = HyperRect::new(vec![3, 3, 3], vec![3, 3, 3]);
    let miss = HyperRect::new(vec![4, 0, 0], vec![9, 9, 9]);
    assert_eq!(ids(&tree, &hit).len(), 100);
    assert!(ids(&tree, &miss).is_empty());
}
