//! Storage-layer edge cases: range queries against empty stores,
//! degenerate single-point rectangles, and duplicate-key inserts — each
//! exercised in the store's unindexed tail and in its sealed k-d runs.

use mind_store::{KdTree, MemStore, Store};
use mind_types::{HyperRect, Record, RecordId};

fn rec(vals: &[u64]) -> Record {
    Record::new(vals.to_vec())
}

#[test]
fn empty_stores_answer_ranges_negatively() {
    // Tree: no points, any rectangle.
    let tree = KdTree::build(3, vec![]);
    assert!(tree.range_vec(&HyperRect::full(3)).is_empty());
    assert_eq!(
        tree.count_range(&HyperRect::new(vec![5, 5, 5], vec![5, 5, 5])),
        0
    );

    // Store: same, via ids, records, and counts.
    let store = MemStore::new(2);
    assert!(store.is_empty());
    assert!(store.range_ids(&HyperRect::full(2)).is_empty());
    assert!(store.range_records(&HyperRect::full(2)).is_empty());
    assert_eq!(
        store.count_range(&HyperRect::new(vec![0, 0], vec![0, 0])),
        0
    );
    assert_eq!(store.range_ids(&HyperRect::full(2)), Vec::<RecordId>::new());
}

#[test]
fn single_point_rectangle_hits_exactly_that_point() {
    let mut store = MemStore::new(2);
    store.insert(rec(&[10, 10, 100]));
    store.insert(rec(&[10, 11, 101]));
    store.insert(rec(&[11, 10, 102]));

    let point = HyperRect::new(vec![10, 10], vec![10, 10]);
    // Tail path (three rows, nothing sealed yet).
    let hits = store.range_records(&point);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].value(2), 100);
    // Indexed path: far-away rows in one batch seal the three into a run
    // (wherever a batch is cut, seals fall at the same rows).
    store.insert_batch((0..2000).map(|i| rec(&[1000 + i, 1000, i])).collect());
    let hits = store.range_records(&point);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].value(2), 100);

    // Off-by-one on each axis misses.
    assert_eq!(
        store.count_range(&HyperRect::new(vec![9, 10], vec![9, 10])),
        0
    );
    assert_eq!(
        store.count_range(&HyperRect::new(vec![10, 9], vec![10, 9])),
        0
    );

    // Degenerate rectangle at the domain origin and at u64::MAX.
    assert_eq!(
        store.count_range(&HyperRect::new(vec![0, 0], vec![0, 0])),
        0
    );
    let top = u64::MAX;
    assert_eq!(
        store.count_range(&HyperRect::new(vec![top, top], vec![top, top])),
        0
    );
}

#[test]
fn duplicate_key_inserts_are_all_stored_and_all_found() {
    // 1,600 records on the same indexed point: enough to straddle the
    // 1,024-row seal, so some live in a k-d run and some in the tail.
    let mut store = MemStore::new(2);
    let mut ids = Vec::new();
    for i in 0..1600u64 {
        ids.push(store.insert(rec(&[42, 42, i])));
    }
    assert_eq!(store.len(), 1600);
    // Every insert got a distinct id.
    let mut sorted = ids.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), 1600, "duplicate keys must not collapse ids");

    let point = HyperRect::new(vec![42, 42], vec![42, 42]);
    assert_eq!(store.count_range(&point), 1600);
    let hits = store.range_records(&point);
    assert_eq!(hits.len(), 1600);
    // The carried (non-indexed) attribute distinguishes the duplicates.
    let mut carried: Vec<u64> = hits.iter().map(|r| r.value(2)).collect();
    carried.sort();
    assert_eq!(carried, (0..1600).collect::<Vec<_>>());

    // A rectangle just beside the pile sees none of it.
    assert_eq!(
        store.count_range(&HyperRect::new(vec![43, 42], vec![43, 42])),
        0
    );
}
