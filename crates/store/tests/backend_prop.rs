//! Differential suite for the store backend: the columnar [`MemStore`] and
//! a brute-force scan must agree *exactly* on `range_ids` — the scan is
//! the backend's oracle (mirrors `columnar_prop.rs`, which races the
//! columnar tree alone) — and the store's `range_records` must rebuild
//! every matching row whole.
//!
//! Coverage the strategies force: duplicate-heavy inputs (tiny coordinate
//! domains), empty and singleton stores, full-domain wildcard rectangles,
//! `u64::MAX`-boundary coordinates (the trees compare against inclusive
//! `hi` bounds, which must hold at the top of the domain), and stores on
//! either side of the sizes where `MemStore` seals its 1,024-row tail and
//! merges runs four at a time.

use mind_store::{MemStore, Store};
use mind_types::{HyperRect, Record, RecordId};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

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

/// Builds the store from `points`, one insert each.
fn build(points: &[Vec<u64>]) -> MemStore {
    let mut mem = MemStore::new(3);
    for p in points {
        mem.insert(Record::new(p.clone()));
    }
    mem
}

/// Asserts the store agrees with brute force on `rect`, returning how many
/// ids they found.
fn assert_agree(points: &[Vec<u64>], mem: &MemStore, rect: &HyperRect) -> usize {
    let oracle = brute(points, rect);
    assert_eq!(sorted(mem.range_ids(rect)), oracle, "columnar vs brute");
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
    /// Duplicate-heavy small domains: the store agrees with brute force on
    /// ids.
    #[test]
    fn backends_agree_on_duplicate_heavy_inputs(
        points in dup_points(6, 300),
        a in prop::collection::vec(0u64..=7, 3),
        b in prop::collection::vec(0u64..=7, 3),
    ) {
        let mem = build(&points);
        let rect = rect_from(a, b);
        assert_agree(&points, &mem, &rect);
    }

    /// u64-domain edges: max coordinates, arbitrary bit patterns, and
    /// rects whose corners sit at the boundaries.
    #[test]
    fn backends_agree_at_u64_boundaries(
        points in edge_points(64),
        a in prop::collection::vec(edge_coord(), 3),
        b in prop::collection::vec(edge_coord(), 3),
    ) {
        let mem = build(&points);
        let rect = rect_from(a, b);
        assert_agree(&points, &mem, &rect);
    }

    /// The full-domain wildcard rectangle returns every id exactly once,
    /// whatever the input.
    #[test]
    fn full_domain_wildcard_returns_each_id_once(points in edge_points(128)) {
        let mem = build(&points);
        let n = assert_agree(&points, &mem, &HyperRect::full(3));
        prop_assert_eq!(n, points.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch cuts are observationally invisible: a store filled one row at
    /// a time and one filled by batches cut at arbitrary rows give the
    /// same answers. The points are cycled to 5,000 rows, past four seals
    /// and a merge.
    #[test]
    fn any_batch_cut_is_observationally_invisible(
        points in dup_points(40, 400),
        cuts in prop::collection::vec(0usize..=5000, 0..8),
        a in prop::collection::vec(0u64..=50, 3),
        b in prop::collection::vec(0u64..=50, 3),
    ) {
        let rows: Vec<Vec<u64>> = points.iter().cycle().take(5000).cloned().collect();
        let rect = rect_from(a, b);
        let oracle = brute(&rows, &rect);
        let mut singles = MemStore::new(3);
        for r in &rows {
            singles.insert(Record::new(r.clone()));
        }
        let mut batched = MemStore::new(3);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(rows.len())).collect();
        cuts.sort_unstable();
        let mut from = 0;
        for to in cuts.into_iter().chain([rows.len()]) {
            batched.insert_batch(rows[from..to].iter().cloned().map(Record::new).collect());
            from = to;
        }
        prop_assert_eq!(batched.len(), rows.len());
        prop_assert_eq!(&sorted(singles.range_ids(&rect)), &oracle, "singles");
        prop_assert_eq!(&sorted(batched.range_ids(&rect)), &oracle, "batched");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A scan returns each matching row whole: its indexed values out of
    /// the run and tail columns, its two carried values (the first unique
    /// per row) out of the slab. The rows, of arity `dims + 2`, are cycled
    /// to 5,000 — past four seals and a merge — and batched at arbitrary
    /// cuts.
    #[test]
    fn prop_range_records_return_whole_rows(
        points in dup_points(40, 400),
        cuts in prop::collection::vec(0usize..=5000, 0..8),
        a in prop::collection::vec(0u64..=50, 3),
        b in prop::collection::vec(0u64..=50, 3),
    ) {
        let rows: Vec<Vec<u64>> = points
            .iter()
            .cycle()
            .take(5000)
            .zip(0u64..)
            .map(|(p, i)| {
                let carried = [i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15)];
                p.iter().copied().chain(carried).collect()
            })
            .collect();
        let rect = rect_from(a, b);
        let mut want: Vec<Vec<u64>> = rows
            .iter()
            .filter(|r| rect.contains_point(&r[..3]))
            .cloned()
            .collect();
        want.sort();
        let mut store = MemStore::new(3);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(rows.len())).collect();
        cuts.sort_unstable();
        let mut from = 0;
        for to in cuts.into_iter().chain([rows.len()]) {
            store.insert_batch(rows[from..to].iter().cloned().map(Record::new).collect());
            from = to;
        }
        let mut got: Vec<Vec<u64>> = store
            .range_records(&rect)
            .iter()
            .map(|r| r.values().to_vec())
            .collect();
        got.sort();
        prop_assert_eq!(got, want);
    }
}

/// Either side of every merge cascade up to ~65k rows, at sizes
/// `1024 × 4^k ± 1`: just before, the store holds three runs of every
/// smaller size and a full tail but one; just after, one run and one tail
/// row. It agrees with brute force on every query shape at each size.
#[test]
fn store_agrees_with_brute_force_either_side_of_every_merge() {
    let mut rng = StdRng::seed_from_u64(27);
    let mut points: Vec<Vec<u64>> = Vec::new();
    let mut mem = MemStore::new(3);
    let rects = [
        HyperRect::full(3),
        HyperRect::new(vec![100, 200, 10], vec![399, 899, 59]),
        HyperRect::new(vec![500, 0, 0], vec![500, u64::MAX, u64::MAX]),
        HyperRect::new(vec![0, 0, 99], vec![999, 999, 99]),
    ];
    for k in 0..4 {
        let at = 1024 * 4usize.pow(k);
        for size in [at - 1, at + 1] {
            while points.len() < size {
                let p = vec![
                    rng.random_range(0..1000u64),
                    rng.random_range(0..1000u64),
                    rng.random_range(0..100u64),
                ];
                mem.insert(Record::new(p.clone()));
                points.push(p);
            }
            for rect in &rects {
                assert_agree(&points, &mem, rect);
            }
        }
    }
}

#[test]
fn empty_and_singleton_stores_agree() {
    let mem = build(&[]);
    for rect in [
        HyperRect::full(3),
        HyperRect::new(vec![0, 0, 0], vec![0, 0, 0]),
        HyperRect::new(vec![u64::MAX; 3], vec![u64::MAX; 3]),
    ] {
        assert_agree(&[], &mem, &rect);
    }

    let points = vec![vec![5, u64::MAX, 0]];
    let mem = build(&points);
    for rect in [
        HyperRect::full(3),
        HyperRect::new(vec![5, u64::MAX, 0], vec![5, u64::MAX, 0]),
        HyperRect::new(vec![6, 0, 0], vec![u64::MAX, u64::MAX, u64::MAX]),
        HyperRect::new(vec![0, 0, 1], vec![u64::MAX, u64::MAX, u64::MAX]),
    ] {
        assert_agree(&points, &mem, &rect);
    }
}

#[test]
fn all_points_identical_max_coordinate() {
    // Every record at the very top of the domain: inclusive bounds must
    // still hit.
    let points: Vec<Vec<u64>> = (0..150).map(|_| vec![u64::MAX; 3]).collect();
    let mem = build(&points);
    let exact = HyperRect::new(vec![u64::MAX; 3], vec![u64::MAX; 3]);
    assert_eq!(assert_agree(&points, &mem, &exact), 150);
    let below = HyperRect::new(vec![0; 3], vec![u64::MAX - 1, u64::MAX, u64::MAX]);
    assert_eq!(assert_agree(&points, &mem, &below), 0);
}
