//! The per-(index, version) record store.
//!
//! Rows are indexed by levelled k-d runs, the logarithmic method: the
//! newest rows sit in a columnar tail of fewer than `TAIL` rows, a full
//! tail is sealed into an immutable [`KdTree`] run, and whenever `FANOUT`
//! runs have equal length they are merged into one. The run lengths are
//! therefore the base-`FANOUT` digits of `len / TAIL`, each times its place
//! value: a function of the row count alone, so single inserts and batches
//! cut anywhere leave the same runs. A scan queries every run (at most
//! `FANOUT - 1` of each length, so O(log n) runs) and sweeps the tail with
//! the k-d leaves' 64-row bitmask kernel.

use crate::kdtree::{leaf_mask, KdTree};
use mind_types::{HyperRect, Record, RecordId, Value};
use std::mem::size_of;

/// Rows the tail holds before it is sealed into a run: the smallest run,
/// whose columns stay in L1/L2 while they are laid out.
pub(crate) const TAIL: usize = 1024;

/// How many runs of one length merge into one run. Each row is re-laid
/// out once per level it climbs; with 2 instead of 4, `tcp_ingest` (2
/// vCPUs) paid 0.56 instead of 0.43 µs of re-layout per row and lost 12 %
/// of its rows/s.
pub(crate) const FANOUT: usize = 4;

/// An in-memory record store answering multi-dimensional range queries —
/// MIND's replacement for the prototype's per-node MySQL backend.
///
/// Records are append-only: the paper never deletes individual records;
/// whole index *versions* age out and their stores are dropped wholesale
/// (Section 3.7).
///
/// A row lives once, with no allocation of its own. Its first `dims`
/// values, the indexed point, live only in the columns of the tail or of
/// the run holding it, so an insert appends `dims` scalars and a merge
/// concatenates columns with no transpose. The rest of its values, the
/// carried attributes, live in one slab at `id * stride`, where `stride =
/// arity - dims` and the arity is fixed by the store's first row.
/// [`MemStore::range_records`] is where a [`Record`] is materialised: it
/// copies each matching row out of the columns and the slab.
#[derive(Debug, Clone)]
pub struct MemStore {
    dims: usize,
    /// Values per row, fixed by the first row (0 while the store is empty).
    arity: usize,
    /// Rows stored.
    len: usize,
    /// The carried values of row `id` at `id * stride..(id + 1) * stride`,
    /// `stride = arity - dims`.
    carried: Vec<Value>,
    /// Immutable k-d runs over the oldest `len - len % TAIL` rows, largest
    /// (oldest) first, at most `FANOUT - 1` of each length.
    runs: Vec<KdTree>,
    /// The newest `len % TAIL` rows, columnar: `tail[d][i]` is coordinate
    /// `d` of the row with id `len - len % TAIL + i`.
    tail: Vec<Vec<Value>>,
}

impl MemStore {
    /// Creates an empty store whose records have `dims` indexed dimensions.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "zero-dimensional store");
        assert!(dims <= 32, "active-dimension masks are 32 bits wide");
        MemStore {
            dims,
            arity: 0,
            len: 0,
            carried: Vec::new(),
            runs: Vec::new(),
            tail: (0..dims).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indexed dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Appends a record: its first `dims` values to the tail's columns,
    /// the rest to the carried slab.
    ///
    /// # Panics
    /// Panics if the record has fewer values than the store's
    /// dimensionality, or not as many as the store's first row (the
    /// caller — `mind-core` — checks records against the schema before
    /// they reach storage).
    pub fn insert(&mut self, record: Record) -> RecordId {
        let values = record.values();
        assert!(
            values.len() >= self.dims,
            "record arity {} below store dimensionality {}",
            values.len(),
            self.dims
        );
        if self.len == 0 {
            self.arity = values.len();
        }
        assert!(
            values.len() == self.arity,
            "record arity {} differs from the store's arity {}",
            values.len(),
            self.arity
        );
        let (point, carried) = values.split_at(self.dims);
        for (col, &v) in self.tail.iter_mut().zip(point) {
            col.push(v);
        }
        self.carried.extend_from_slice(carried);
        let id = RecordId(self.len as u64);
        self.len += 1;
        if self.tail[0].len() == TAIL {
            self.seal_tail();
        }
        id
    }

    /// Seals the full tail into a run. The trailing runs it completes a
    /// group of `FANOUT` equal lengths with are folded into the same run,
    /// and so on up while merges cascade, so a row is laid out once per
    /// level it reaches, not once per merge on the way there.
    fn seal_tail(&mut self) {
        let (mut len, mut keep) = (TAIL, self.runs.len());
        while keep >= FANOUT - 1
            && self.runs[keep + 1 - FANOUT..keep]
                .iter()
                .all(|run| run.len() == len)
        {
            keep -= FANOUT - 1;
            len *= FANOUT;
        }
        let mut cols: Vec<Vec<Value>> = (0..self.dims).map(|_| Vec::with_capacity(len)).collect();
        let mut ids = Vec::with_capacity(len);
        for run in self.runs.drain(keep..) {
            let (run_cols, run_ids) = run.into_columns();
            for (col, run_col) in cols.iter_mut().zip(run_cols) {
                col.extend_from_slice(&run_col);
            }
            ids.extend_from_slice(&run_ids);
        }
        let first = self.len - TAIL;
        for (col, tail) in cols.iter_mut().zip(&mut self.tail) {
            col.append(tail);
        }
        ids.extend((first..self.len).map(|i| RecordId(i as u64)));
        self.runs.push(KdTree::from_columns(cols, ids));
    }

    /// The tail in 64-row blocks: each block's first tail index and the
    /// bitmask of its rows inside `rect`.
    fn tail_masks<'a>(&'a self, rect: &'a HyperRect) -> impl Iterator<Item = (usize, u64)> + 'a {
        let n = self.tail[0].len();
        let all = u32::MAX >> (32 - self.dims);
        (0..n).step_by(64).map(move |lo| {
            let hi = n.min(lo + 64);
            (lo, leaf_mask(&self.tail, rect, lo, hi, all))
        })
    }

    /// Calls `hit` with the columns, position and id of every row whose
    /// indexed point lies inside `rect`: the runs oldest first, each in its
    /// walk order, then the tail in id order.
    fn for_each_hit(&self, rect: &HyperRect, mut hit: impl FnMut(&[Vec<Value>], usize, RecordId)) {
        for run in &self.runs {
            let (cols, ids) = (run.columns(), run.ids());
            run.range_positions(rect, |span| {
                for pos in span {
                    hit(cols, pos, ids[pos]);
                }
            });
        }
        let first = self.len - self.tail[0].len();
        for (lo, mut mask) in self.tail_masks(rect) {
            while mask != 0 {
                let pos = lo + mask.trailing_zeros() as usize;
                hit(&self.tail, pos, RecordId((first + pos) as u64));
                mask &= mask - 1;
            }
        }
    }

    /// Ids of all records whose indexed point lies inside `rect`.
    pub fn range_ids(&self, rect: &HyperRect) -> Vec<RecordId> {
        let mut out = Vec::new();
        self.for_each_hit(rect, |_, _, id| out.push(id));
        out
    }

    /// Records matching `rect`, in the order [`Self::range_ids`] lists
    /// their ids. Each is rebuilt from its indexed values in the columns
    /// and its carried values in the slab: the one place a stored row is
    /// copied out.
    pub fn range_records(&self, rect: &HyperRect) -> Vec<Record> {
        let mut out = Vec::new();
        self.for_each_hit(rect, |cols, pos, id| {
            let stride = self.arity - self.dims;
            let at = id.0 as usize * stride;
            let mut values = Vec::with_capacity(self.arity);
            values.extend(cols.iter().map(|col| col[pos]));
            values.extend_from_slice(&self.carried[at..at + stride]);
            out.push(Record::new(values));
        });
        out
    }

    /// Bytes the rows occupy: per row, its values (in the columns and the
    /// slab) and the id its run keeps beside them. Counts no slack
    /// capacity; O(1).
    pub fn approx_bytes(&self) -> usize {
        self.len * (self.arity * size_of::<Value>() + size_of::<RecordId>())
    }
}

// `iter()` and `get()` used to live here; they are not expressible through
// a dyn-safe trait (`impl Iterator` return, borrowed records keyed by an
// id the trait makes opaque), so the last callers were restructured onto
// `range_records` over the full domain and the methods removed — MemStore's
// whole surface now flows through [`crate::Store`].
impl crate::Store for MemStore {
    fn insert(&mut self, record: Record) -> RecordId {
        MemStore::insert(self, record)
    }
    fn range_records(&self, rect: &HyperRect) -> Vec<Record> {
        MemStore::range_records(self, rect)
    }
    fn approx_bytes(&self) -> usize {
        MemStore::approx_bytes(self)
    }
    fn len(&self) -> usize {
        MemStore::len(self)
    }
    fn dims(&self) -> usize {
        MemStore::dims(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;
    use proptest::prelude::*;

    fn rec(vals: &[u64]) -> Record {
        Record::new(vals.to_vec())
    }

    fn run_lens(s: &MemStore) -> Vec<usize> {
        s.runs.iter().map(KdTree::len).collect()
    }

    #[test]
    fn insert_and_range() {
        let mut s = MemStore::new(2);
        s.insert(rec(&[1, 1, 99]));
        s.insert(rec(&[5, 5, 98]));
        s.insert(rec(&[9, 9, 97]));
        let hits = s.range_records(&HyperRect::new(vec![0, 0], vec![5, 5]));
        assert_eq!(hits.len(), 2);
        // Carried attributes come back with the record.
        assert!(hits.iter().any(|r| r.value(2) == 99));
        assert!(hits.iter().any(|r| r.value(2) == 98));
    }

    #[test]
    fn range_records_rebuild_exact_rows_across_run_and_tail() {
        let row = |i: u64| rec(&[i, i + 77, i * 3]);
        let mut s = MemStore::new(1);
        for i in 0..1500u64 {
            s.insert(row(i));
        }
        // Ids 1000..1100 straddle the sealed run and the tail.
        assert_eq!((run_lens(&s), s.tail[0].len()), (vec![TAIL], 1500 - TAIL));
        let rect = HyperRect::new(vec![1000], vec![1099]);
        let (mut a, b) = (s.range_records(&rect), s.range_records(&rect));
        // Two scans rebuild the same rows in the same order, and each row
        // is the one inserted: indexed value, then both carried values.
        assert_eq!(a, b);
        a.sort_by_key(|r| r.value(0));
        assert_eq!(a, (1000..1100).map(row).collect::<Vec<_>>());
    }

    #[test]
    fn range_sees_buffered_and_rebuilt_records() {
        let mut s = MemStore::new(1);
        for i in 0..2000u64 {
            s.insert(rec(&[i]));
        }
        // The first 1,024 records are sealed into a run, the rest are in
        // the tail; a rect over ids 1000..1100 straddles the two.
        assert_eq!((run_lens(&s), s.tail[0].len()), (vec![TAIL], 2000 - TAIL));
        let straddle = HyperRect::new(vec![1000], vec![1099]);
        let mut ids = s.range_ids(&straddle);
        ids.sort();
        assert_eq!(ids, (1000..1100).map(RecordId).collect::<Vec<_>>());
    }

    #[test]
    fn approx_bytes_incremental_matches_recompute() {
        let mut s = MemStore::new(2);
        assert_eq!(s.approx_bytes(), 0);
        for i in 0..1500u64 {
            s.insert(rec(&[i, i * 2, i * 3]));
        }
        // The count equals a recompute over every row, across a seal: two
        // column values, one carried value and one run id per row.
        let all = s.range_records(&HyperRect::full(2));
        assert_eq!(all.len(), 1500);
        let recomputed = all.iter().map(|r| r.values().len() * 8 + 8).sum::<usize>();
        assert_eq!(s.approx_bytes(), recomputed);
        assert_eq!(s.approx_bytes(), 1500 * 32);
    }

    #[test]
    fn ids_are_dense_and_full_domain_scan_returns_all() {
        let mut s = MemStore::new(1);
        let id = s.insert(rec(&[7, 42]));
        assert_eq!(id, RecordId(0));
        assert_eq!(s.insert(rec(&[9, 43])), RecordId(1));
        let all = s.range_records(&HyperRect::full(1));
        assert_eq!(all.len(), 2);
        assert!(all.iter().any(|r| r.value(1) == 42));
    }

    #[test]
    fn extra_values_are_carried_not_indexed() {
        let mut s = MemStore::new(1);
        s.insert(rec(&[5, 1_000_000]));
        // Indexing is on dim 0 only; a rect over [0,10] finds it.
        assert_eq!(s.range_ids(&HyperRect::new(vec![0], vec![10])).len(), 1);
    }

    #[test]
    #[should_panic(expected = "below store dimensionality")]
    fn short_record_rejected() {
        MemStore::new(3).insert(rec(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "differs from the store's arity")]
    fn a_row_of_another_arity_than_the_first_rejected() {
        let mut s = MemStore::new(1);
        s.insert(rec(&[1, 2]));
        s.insert(rec(&[1, 2, 3]));
    }

    #[test]
    fn insert_batch_matches_singles_and_rebuilds_once() {
        // One batch past four seals and a merge: it seals and merges at the
        // rows single inserts do, so the observable state (ids, runs,
        // answers, bytes) is identical.
        let mut singles = MemStore::new(2);
        let mut batched = MemStore::new(2);
        let records: Vec<Record> = (0..5000u64).map(|i| rec(&[i, i * 3, i * 7])).collect();
        for r in &records {
            singles.insert(r.clone());
        }
        batched.insert_batch(records);
        assert_eq!(batched.len(), singles.len());
        assert_eq!(run_lens(&batched), vec![TAIL * FANOUT]);
        assert_eq!(run_lens(&batched), run_lens(&singles));
        assert_eq!(batched.approx_bytes(), singles.approx_bytes());
        let rect = HyperRect::new(vec![100, 0], vec![4500, u64::MAX]);
        let (mut a, mut b) = (singles.range_ids(&rect), batched.range_ids(&rect));
        a.sort();
        b.sort();
        assert_eq!(a, (100..=4500).map(RecordId).collect::<Vec<_>>());
        assert_eq!(a, b);
    }

    #[test]
    fn a_seal_and_a_merge_keep_every_row() {
        // Small enough for Miri, large enough to run the seal, merge and
        // slab index arithmetic: 4,097 one-dimensional rows are four seals,
        // one merge into a 4,096-row run, and one row left in the tail.
        // The coordinates are a permutation of the ids, so no run is
        // sorted, and each row carries its id.
        let mut s = MemStore::new(1);
        let coord = |i: u64| i * 7 % 4097;
        let row = |i: u64| rec(&[coord(i), i]);
        for i in 0..4097 {
            s.insert(row(i));
        }
        assert_eq!((run_lens(&s), s.tail[0].len()), (vec![4096], 1));
        for (lo, hi) in [(100, 2099), (4090, 4090), (0, u64::MAX)] {
            let rect = HyperRect::new(vec![lo], vec![hi]);
            let want: Vec<u64> = (0..4097)
                .filter(|&i| (lo..=hi).contains(&coord(i)))
                .collect();
            // Rows come back in the order of their ids, each whole.
            let mut rows = s.range_records(&rect);
            let carried: Vec<RecordId> = rows.iter().map(|r| RecordId(r.value(1))).collect();
            assert_eq!(carried, s.range_ids(&rect));
            rows.sort_by_key(|r| r.value(1));
            assert_eq!(rows, want.into_iter().map(row).collect::<Vec<_>>());
        }
    }

    /// The run lengths a store of `len` rows holds: the base-`FANOUT`
    /// digits of `len / TAIL`, most significant first, each repeated as
    /// often as its value says and scaled by its place.
    fn digit_runs(len: usize) -> Vec<usize> {
        let mut runs = Vec::new();
        let (mut q, mut place) = (len / TAIL, TAIL);
        while q > 0 {
            runs.extend(std::iter::repeat_n(place, q % FANOUT));
            q /= FANOUT;
            place *= FANOUT;
        }
        runs.reverse();
        runs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// However a stream is cut into batches, the runs after every
        /// batch are the ones single inserts leave, and their lengths are
        /// the base-`FANOUT` digits of `len / TAIL`.
        #[test]
        fn prop_batch_cuts_leave_the_runs_singles_do(
            cuts in prop::collection::vec(1u64..1500, 1..28),
        ) {
            let mut singles = MemStore::new(1);
            let mut batched = MemStore::new(1);
            for cut in cuts {
                let from = batched.len() as u64;
                let batch: Vec<Record> = (from..from + cut).map(|i| rec(&[i % 97])).collect();
                for r in &batch {
                    singles.insert(r.clone());
                }
                batched.insert_batch(batch);
                prop_assert_eq!(run_lens(&batched), run_lens(&singles));
                prop_assert_eq!(run_lens(&batched), digit_runs(batched.len()));
                prop_assert_eq!(batched.tail[0].len(), batched.len() % TAIL);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_range_complete_under_interleaving(
            vals in prop::collection::vec((0u64..50, 0u64..50), 1..500),
            qlo in (0u64..50, 0u64..50),
            qspan in (0u64..50, 0u64..50),
        ) {
            let mut s = MemStore::new(2);
            for &(x, y) in &vals {
                s.insert(rec(&[x, y]));
            }
            let rect = HyperRect::new(
                vec![qlo.0, qlo.1],
                vec![qlo.0 + qspan.0, qlo.1 + qspan.1],
            );
            let expected = vals
                .iter()
                .filter(|&&(x, y)| rect.contains_point(&[x, y]))
                .count();
            prop_assert_eq!(s.range_ids(&rect).len(), expected);
        }
    }
}
