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
use std::sync::Arc;

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
/// Records live behind [`Arc`], so the local scan path
/// ([`MemStore::range_records`]) hands out refcount bumps instead of deep
/// copies — a record is only materialized when it crosses the (simulated)
/// wire. The indexed dimensions are kept columnar in the tail and in every
/// run, so an insert appends `dims` scalars and never allocates a
/// per-point vector, and a merge concatenates columns with no transpose.
#[derive(Debug, Clone)]
pub struct MemStore {
    dims: usize,
    records: Vec<Arc<Record>>,
    /// Immutable k-d runs over the oldest `len - len % TAIL` rows, largest
    /// (oldest) first, at most `FANOUT - 1` of each length.
    runs: Vec<KdTree>,
    /// The newest `len % TAIL` rows, columnar: `tail[d][i]` is coordinate
    /// `d` of the row with id `len - len % TAIL + i`.
    tail: Vec<Vec<Value>>,
    /// Incrementally maintained [`Self::approx_bytes`] value; records are
    /// append-only, so inserts only ever add to it.
    bytes: usize,
}

impl MemStore {
    /// Creates an empty store whose records have `dims` indexed dimensions.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "zero-dimensional store");
        assert!(dims <= 32, "active-dimension masks are 32 bits wide");
        MemStore {
            dims,
            records: Vec::new(),
            runs: Vec::new(),
            tail: (0..dims).map(|_| Vec::new()).collect(),
            bytes: 0,
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Indexed dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Appends a record and indexes its first `dims` values.
    ///
    /// # Panics
    /// Panics if the record has fewer values than the store's
    /// dimensionality (the caller — `mind-core` — validates records against
    /// the schema before they reach storage).
    pub fn insert(&mut self, record: Record) -> RecordId {
        assert!(
            record.values().len() >= self.dims,
            "record arity {} below store dimensionality {}",
            record.values().len(),
            self.dims
        );
        let id = RecordId(self.records.len() as u64);
        for (col, &v) in self.tail.iter_mut().zip(record.point(self.dims)) {
            col.push(v);
        }
        self.bytes += record.values().len() * 8 + 24 + self.dims * 8 + 32;
        self.records.push(Arc::new(record));
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
        let first = self.records.len() - TAIL;
        for (col, tail) in cols.iter_mut().zip(&mut self.tail) {
            col.append(tail);
        }
        ids.extend((first..self.records.len()).map(|i| RecordId(i as u64)));
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

    /// Ids of all records whose indexed point lies inside `rect`.
    pub fn range_ids(&self, rect: &HyperRect) -> Vec<RecordId> {
        let mut out = Vec::new();
        for run in &self.runs {
            run.range(rect, &mut out);
        }
        let first = self.records.len() - self.tail[0].len();
        for (lo, mut mask) in self.tail_masks(rect) {
            while mask != 0 {
                let i = first + lo + mask.trailing_zeros() as usize;
                out.push(RecordId(i as u64));
                mask &= mask - 1;
            }
        }
        out
    }

    /// Records matching `rect`, as shared handles — the zero-copy local
    /// scan path. Callers that put records on the wire materialize them at
    /// the send boundary; everything staying on-node (the common case for
    /// the paper's single-node queries) never copies record payloads.
    pub fn range_records(&self, rect: &HyperRect) -> Vec<Arc<Record>> {
        self.range_ids(rect)
            .into_iter()
            .map(|id| Arc::clone(&self.records[id.0 as usize]))
            .collect()
    }

    /// Approximate heap footprint in bytes (storage-balance metrics).
    ///
    /// Maintained incrementally on insert — sampling storage balance across
    /// hundreds of simulated nodes no longer walks every record heap.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
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
    fn range_records(&self, rect: &HyperRect) -> Vec<Arc<Record>> {
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
    fn range_records_shares_not_copies() {
        let mut s = MemStore::new(1);
        for i in 0..1500u64 {
            s.insert(rec(&[i, i + 77]));
        }
        // Ids 1000..1100 straddle the sealed run and the tail.
        assert_eq!((run_lens(&s), s.tail[0].len()), (vec![TAIL], 1500 - TAIL));
        let rect = HyperRect::new(vec![1000], vec![1099]);
        let (mut a, mut b) = (s.range_records(&rect), s.range_records(&rect));
        a.sort_by_key(|r| r.value(0));
        b.sort_by_key(|r| r.value(0));
        assert_eq!(a.len(), 100);
        for (x, y) in a.iter().zip(&b) {
            // Both scans alias the stored record: one allocation, three refs.
            assert!(Arc::ptr_eq(x, y));
            assert_eq!(Arc::strong_count(x), 3);
            assert_eq!(x.value(1), x.value(0) + 77);
        }
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
        // The incremental counter equals the O(n) recompute, across a seal.
        // (Records are walked via a full-domain scan — `iter()` left with
        // the dyn-safe trait cut.)
        let all = s.range_records(&HyperRect::full(2));
        assert_eq!(all.len(), 1500);
        let recomputed = all.iter().map(|r| r.values().len() * 8 + 24).sum::<usize>()
            + s.len() * (s.dims() * 8 + 32);
        assert_eq!(s.approx_bytes(), recomputed);
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
        // Small enough for Miri, large enough to run the seal and merge
        // index arithmetic: 4,097 one-dimensional rows are four seals, one
        // merge into a 4,096-row run, and one row left in the tail. The
        // coordinates are a permutation of the ids, so no run is sorted.
        let mut s = MemStore::new(1);
        let coord = |i: u64| i * 7 % 4097;
        for i in 0..4097 {
            s.insert(rec(&[coord(i)]));
        }
        assert_eq!((run_lens(&s), s.tail[0].len()), (vec![4096], 1));
        for (lo, hi) in [(100, 2099), (4090, 4090), (0, u64::MAX)] {
            let rect = HyperRect::new(vec![lo], vec![hi]);
            let mut ids = s.range_ids(&rect);
            ids.sort();
            let want: Vec<RecordId> = (0..4097)
                .filter(|&i| (lo..=hi).contains(&coord(i)))
                .map(RecordId)
                .collect();
            assert_eq!(ids, want);
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
