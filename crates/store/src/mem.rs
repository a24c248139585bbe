//! The per-(index, version) record store.

use crate::kdtree::KdTree;
use mind_types::{HyperRect, Record, RecordId, Value};
use std::sync::Arc;

/// When the unindexed insert buffer exceeds this fraction of the k-d tree
/// size (and a floor), the tree is rebuilt. Insert-heavy monitoring
/// workloads amortize the rebuilds to O(log n) per insert.
const REBUILD_FRACTION: usize = 4; // rebuild when buffer > len/4
const REBUILD_FLOOR: usize = 256;

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
/// wire. The insert buffer is columnar (`buf_cols` mirrors the tree's
/// layout), so an insert appends `dims + 1` scalars and never allocates a
/// per-point vector; rebuilds drain the buffer straight into
/// [`KdTree::absorb`] with no transpose.
#[derive(Debug, Clone)]
pub struct MemStore {
    dims: usize,
    records: Vec<Arc<Record>>,
    tree: KdTree,
    /// Columnar insert buffer: `buf_cols[d][i]` is coordinate `d` of the
    /// `i`-th not-yet-indexed point, parallel to `buf_ids`.
    buf_cols: Vec<Vec<Value>>,
    buf_ids: Vec<RecordId>,
    /// Incrementally maintained [`Self::approx_bytes`] value; records are
    /// append-only, so inserts only ever add to it.
    bytes: usize,
}

impl MemStore {
    /// Creates an empty store whose records have `dims` indexed dimensions.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "zero-dimensional store");
        MemStore {
            dims,
            records: Vec::new(),
            tree: KdTree::build(dims, vec![]),
            buf_cols: (0..dims).map(|_| Vec::new()).collect(),
            buf_ids: Vec::new(),
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

    /// Appends a record to the columnar buffer *without* the rebuild
    /// check — the shared tail of [`MemStore::insert`] and
    /// [`MemStore::insert_batch`], which differ only in how often they
    /// consider folding the buffer into the tree.
    fn push_record(&mut self, record: Record) -> RecordId {
        assert!(
            record.values().len() >= self.dims,
            "record arity {} below store dimensionality {}",
            record.values().len(),
            self.dims
        );
        let id = RecordId(self.records.len() as u64);
        let point = record.point(self.dims);
        for (col, &v) in self.buf_cols.iter_mut().zip(point) {
            col.push(v);
        }
        self.buf_ids.push(id);
        self.bytes += record.values().len() * 8 + 24 + self.dims * 8 + 32;
        self.records.push(Arc::new(record));
        id
    }

    /// Buffered rows a tree of `indexed` points tolerates before a rebuild.
    fn threshold(indexed: usize) -> usize {
        REBUILD_FLOOR.max(indexed / REBUILD_FRACTION)
    }

    /// `true` when the insert buffer has outgrown the rebuild threshold.
    fn buffer_over_threshold(&self) -> bool {
        self.buf_ids.len() > Self::threshold(self.tree.len())
    }

    /// Appends a record and indexes its first `dims` values.
    ///
    /// # Panics
    /// Panics if the record has fewer values than the store's
    /// dimensionality (the caller — `mind-core` — validates records against
    /// the schema before they reach storage).
    pub fn insert(&mut self, record: Record) -> RecordId {
        let id = self.push_record(record);
        if self.buffer_over_threshold() {
            self.rebuild();
        }
        id
    }

    /// Bulk append with at most *one* rebuild. A batch that trips the
    /// threshold mid-stream under [`MemStore::insert`] would pay a tree
    /// rebuild per `REBUILD_FLOOR`-sized slice; here the rebuild cost is
    /// amortized over the entire batch.
    ///
    /// Where the batch's tail fits the buffer of the rebuilt tree (every
    /// wire-sized batch into a store of any size), the rebuild happens at
    /// the very row [`MemStore::insert`] would have rebuilt at and the tail
    /// is buffered behind it. The split between tree and buffer is then a
    /// function of how many rows the store holds, not of where the sender's
    /// frames happened to be cut: an overshoot of a few dozen rows while
    /// the tree is small would shift every later rebuild by the same
    /// proportion, and with it how much unsorted buffer a scan finds.
    pub fn insert_batch(&mut self, records: Vec<Record>) {
        let mut records = records.into_iter();
        let until_rebuild =
            (Self::threshold(self.tree.len()) + 1).saturating_sub(self.buf_ids.len());
        if let Some(tail) = records.len().checked_sub(until_rebuild) {
            let rebuilt = self.tree.len() + self.buf_ids.len() + until_rebuild;
            if tail <= Self::threshold(rebuilt) {
                for record in records.by_ref().take(until_rebuild) {
                    self.push_record(record);
                }
                self.rebuild();
            }
        }
        for record in records {
            self.push_record(record);
        }
        if self.buffer_over_threshold() {
            self.rebuild();
        }
    }

    /// Folds the insert buffer into the k-d tree (in place — the tree's
    /// column buffers are reused, see [`KdTree::absorb`]).
    pub fn rebuild(&mut self) {
        if self.buf_ids.is_empty() {
            return;
        }
        self.tree.absorb(&mut self.buf_cols, &mut self.buf_ids);
    }

    /// `true` when buffered point `i` lies inside `rect`.
    #[inline]
    fn buffered_in(&self, i: usize, rect: &HyperRect) -> bool {
        self.buf_cols
            .iter()
            .enumerate()
            .all(|(d, col)| rect.lo(d) <= col[i] && col[i] <= rect.hi(d))
    }

    /// Ids of all records whose indexed point lies inside `rect`.
    pub fn range_ids(&self, rect: &HyperRect) -> Vec<RecordId> {
        let mut out = self.tree.range_vec(rect);
        for i in 0..self.buf_ids.len() {
            if self.buffered_in(i, rect) {
                out.push(self.buf_ids[i]);
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

    /// Counts records inside `rect` (allocation-free: counting traversal
    /// over the tree plus a columnar scan of the insert buffer).
    pub fn count_range(&self, rect: &HyperRect) -> usize {
        self.tree.count_range(rect)
            + (0..self.buf_ids.len())
                .filter(|&i| self.buffered_in(i, rect))
                .count()
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
    fn insert_batch(&mut self, records: Vec<Record>) {
        MemStore::insert_batch(self, records);
    }
    fn rebuild(&mut self) {
        MemStore::rebuild(self);
    }
    fn range_ids(&self, rect: &HyperRect) -> Vec<RecordId> {
        MemStore::range_ids(self, rect)
    }
    fn range_records(&self, rect: &HyperRect) -> Vec<Arc<Record>> {
        MemStore::range_records(self, rect)
    }
    fn count_range(&self, rect: &HyperRect) -> usize {
        MemStore::count_range(self, rect)
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
    use proptest::prelude::*;

    fn rec(vals: &[u64]) -> Record {
        Record::new(vals.to_vec())
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
        s.insert(rec(&[3, 77]));
        let hits = s.range_records(&HyperRect::new(vec![0], vec![10]));
        assert_eq!(hits.len(), 1);
        // The handle aliases the stored record: two strong refs, same data.
        assert_eq!(Arc::strong_count(&hits[0]), 2);
        assert_eq!(hits[0].value(1), 77);
    }

    #[test]
    fn range_sees_buffered_and_rebuilt_records() {
        let mut s = MemStore::new(1);
        for i in 0..2000u64 {
            s.insert(rec(&[i]));
        }
        // Some records are in the tree, some still in the buffer.
        assert_eq!(s.count_range(&HyperRect::new(vec![0], vec![1999])), 2000);
        assert_eq!(s.count_range(&HyperRect::new(vec![500], vec![599])), 100);
        s.rebuild();
        assert_eq!(s.count_range(&HyperRect::new(vec![500], vec![599])), 100);
    }

    #[test]
    fn approx_bytes_incremental_matches_recompute() {
        let mut s = MemStore::new(2);
        assert_eq!(s.approx_bytes(), 0);
        for i in 0..1000u64 {
            s.insert(rec(&[i, i * 2, i * 3]));
        }
        // The incremental counter equals the old O(n) recompute, across
        // buffered and rebuilt states alike. (Records are walked via a
        // full-domain scan — `iter()` left with the dyn-safe trait cut.)
        let all = s.range_records(&HyperRect::full(2));
        assert_eq!(all.len(), 1000);
        let recomputed = all.iter().map(|r| r.values().len() * 8 + 24).sum::<usize>()
            + s.len() * (s.dims() * 8 + 32);
        assert_eq!(s.approx_bytes(), recomputed);
        s.rebuild();
        assert_eq!(s.approx_bytes(), recomputed, "rebuild must not drift");
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
        // A batch far above REBUILD_FLOOR: the single-insert path rebuilds
        // several times mid-stream, the batch path once at the end — the
        // observable state (ids, answers, bytes) must be identical.
        let mut singles = MemStore::new(2);
        let mut batched = MemStore::new(2);
        let records: Vec<Record> = (0..2000u64).map(|i| rec(&[i, i * 3, i * 7])).collect();
        for r in &records {
            singles.insert(r.clone());
        }
        batched.insert_batch(records);
        assert_eq!(batched.len(), singles.len());
        assert_eq!(batched.approx_bytes(), singles.approx_bytes());
        let rect = HyperRect::new(vec![100, 0], vec![900, u64::MAX]);
        let (mut a, mut b) = (singles.range_ids(&rect), batched.range_ids(&rect));
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(batched.count_range(&rect), singles.count_range(&rect));
    }

    #[test]
    fn small_batches_rebuild_where_singles_do() {
        // However a stream is cut into wire-sized batches, the tree/buffer
        // split after every batch is the one single inserts leave.
        let records: Vec<Record> = (0..5000u64).map(|i| rec(&[i, i * 3, i * 7])).collect();
        for cut in [1usize, 7, 64, 200] {
            let mut singles = MemStore::new(2);
            let mut batched = MemStore::new(2);
            let mut sizes = (1..=cut).cycle();
            let mut rest = &records[..];
            while !rest.is_empty() {
                let (batch, after) = rest.split_at(sizes.next().unwrap_or(1).min(rest.len()));
                for r in batch {
                    singles.insert(r.clone());
                }
                batched.insert_batch(batch.to_vec());
                assert_eq!(
                    (batched.tree.len(), batched.buf_ids.len()),
                    (singles.tree.len(), singles.buf_ids.len()),
                    "cut {cut}, {} rows in",
                    batched.len()
                );
                rest = after;
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
            prop_assert_eq!(s.count_range(&rect), expected);
        }
    }
}
