//! The store interface and its one backend.
//!
//! [`Store`] is the seam the rest of the system sees: `mind-core`'s
//! per-version stores and the baseline architectures hold `Box<dyn Store>`
//! and never name a concrete type. One implementation stands behind it —
//! the columnar k-d tree ([`crate::MemStore`]) — and the trait is
//! deliberately dyn-safe so a replacement (levelled runs, a disk-resident
//! store) slots in behind the same methods. [`StoreKind`] is the
//! constructor callers name; nothing reads it from the environment.

use crate::mem::MemStore;
use crate::naive::NaiveKdTree;
use mind_types::{HyperRect, Record, RecordId};
use std::sync::Arc;

/// The per-(index, version) record store interface.
///
/// Object-safe by construction: every consumer holds `Box<dyn Store>`.
/// Records are append-only (the paper ages out whole index *versions*,
/// never individual records), so there is no delete method; `rebuild` is a
/// hint that buffered inserts should be folded into the main structure —
/// backends with no insert buffer treat it as a no-op.
pub trait Store: std::fmt::Debug + Send {
    /// Appends a record and indexes its first `dims()` values, returning
    /// the id it was stored under (dense, insertion-ordered).
    fn insert(&mut self, record: Record) -> RecordId;

    /// Appends a whole batch of records, in order. Equivalent to calling
    /// [`Store::insert`] once per record — ids stay dense and
    /// insertion-ordered — but a backend may override it to amortize
    /// per-insert bookkeeping over the batch (the k-d store rebuilds at most
    /// once, at the row single inserts would have). The ingest fast path
    /// hands the DAC whole `InsertBatch` payloads, so this is the hot entry
    /// point under batched wire traffic.
    fn insert_batch(&mut self, records: Vec<Record>) {
        for record in records {
            self.insert(record);
        }
    }

    /// Folds any buffered inserts into the main index structure.
    fn rebuild(&mut self);

    /// Ids of all records whose indexed point lies inside `rect`.
    fn range_ids(&self, rect: &HyperRect) -> Vec<RecordId>;

    /// Records matching `rect`, as shared handles — the zero-copy local
    /// scan path. Callers that put records on the wire materialize them at
    /// the send boundary.
    fn range_records(&self, rect: &HyperRect) -> Vec<Arc<Record>>;

    /// Counts records inside `rect` without materializing ids.
    fn count_range(&self, rect: &HyperRect) -> usize;

    /// Approximate heap footprint in bytes (storage-balance metrics).
    /// Must be maintained incrementally — metric sampling across hundreds
    /// of simulated nodes calls this hot.
    fn approx_bytes(&self) -> usize;

    /// Number of stored records.
    fn len(&self) -> usize;

    /// Indexed dimensionality.
    fn dims(&self) -> usize;

    /// `true` when the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The [`Store`] backend a node builds its per-version stores from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// The columnar k-d tree (`MemStore`).
    #[default]
    KdTree,
}

impl StoreKind {
    /// Creates an empty store of this kind with `dims` indexed dimensions.
    pub fn new_store(self, dims: usize) -> Box<dyn Store> {
        match self {
            StoreKind::KdTree => Box::new(MemStore::new(dims)),
        }
    }
}

/// Differential fuzz driver shared by the `store_range` fuzz target and its
/// unit tests: parses arbitrary bytes into a record set plus a query
/// rectangle and asserts that the k-d store filled one `insert` at a time,
/// the k-d store filled by one `insert_batch` of the same rows (its own
/// rebuild-at-the-same-row path), the [`NaiveKdTree`] oracle and a
/// brute-force scan agree exactly on ids and counts.
///
/// Input layout (frozen: the committed `fuzz/corpus/store_range` inputs
/// replay against it): `data[0]` packs the dimensionality
/// (`1 + data[0] % 3`) and a rebuild-control bit (`data[0] & 0x80`); the
/// remaining bytes are read as little-endian u64s — first `2 * dims` become
/// the rect bounds (normalized so `lo <= hi` per axis), the rest become
/// points.
pub fn fuzz_store_range(data: &[u8]) {
    let Some((&ctl, rest)) = data.split_first() else {
        return;
    };
    let dims = 1 + (ctl % 3) as usize;
    let rebuild_midway = ctl & 0x80 != 0;
    let mut nums = rest.chunks_exact(8).map(|c| {
        let mut b = [0u8; 8];
        b.copy_from_slice(c);
        u64::from_le_bytes(b)
    });

    let mut lo = Vec::with_capacity(dims);
    let mut hi = Vec::with_capacity(dims);
    for _ in 0..dims {
        let (a, b) = (nums.next().unwrap_or(0), nums.next().unwrap_or(u64::MAX));
        lo.push(a.min(b));
        hi.push(a.max(b));
    }
    let rect = HyperRect::new(lo, hi);

    // Cap the record count so a pathological input length stays fast.
    let points: Vec<Vec<u64>> = {
        let mut pts = Vec::with_capacity(64);
        let mut point = Vec::with_capacity(dims);
        for v in nums.take(512 * dims) {
            point.push(v);
            if point.len() == dims {
                pts.push(std::mem::take(&mut point));
                point = Vec::with_capacity(dims);
            }
        }
        pts
    };

    let mut kd: Box<dyn Store> = StoreKind::KdTree.new_store(dims);
    for (i, p) in points.iter().enumerate() {
        kd.insert(Record::new(p.to_vec()));
        if rebuild_midway && i == points.len() / 2 {
            kd.rebuild();
        }
    }
    // The batched entry point must land records under the same ids as the
    // one-at-a-time path, wherever its single rebuild falls.
    let mut kd_batched: Box<dyn Store> = StoreKind::KdTree.new_store(dims);
    kd_batched.insert_batch(points.iter().map(|p| Record::new(p.to_vec())).collect());
    let naive = NaiveKdTree::build(
        dims,
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.to_vec(), RecordId(i as u64)))
            .collect(),
    );

    let brute: Vec<RecordId> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| rect.contains_point(p))
        .map(|(i, _)| RecordId(i as u64))
        .collect();
    let sorted = |mut ids: Vec<RecordId>| {
        ids.sort();
        ids
    };
    assert_eq!(
        sorted(kd.range_ids(&rect)),
        brute,
        "kdtree ids diverge from brute force"
    );
    assert_eq!(
        sorted(kd_batched.range_ids(&rect)),
        brute,
        "batched kdtree ids diverge from brute force"
    );
    assert_eq!(
        sorted(naive.range_vec(&rect)),
        brute,
        "naive ids diverge from brute force"
    );
    assert_eq!(kd.count_range(&rect), brute.len(), "kdtree count diverges");
    assert_eq!(
        kd_batched.count_range(&rect),
        brute.len(),
        "batched kdtree count diverges"
    );
    assert_eq!(
        naive.count_range(&rect),
        brute.len(),
        "naive count diverges"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_a_working_store() {
        let mut s = StoreKind::default().new_store(2);
        assert!(s.is_empty());
        s.insert(Record::new(vec![3, 4, 99]));
        s.rebuild();
        let rect = HyperRect::new(vec![0, 0], vec![10, 10]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.dims(), 2);
        assert_eq!(s.count_range(&rect), 1);
        assert_eq!(s.range_ids(&rect), vec![RecordId(0)]);
        assert_eq!(s.range_records(&rect)[0].value(2), 99);
        assert!(s.approx_bytes() > 0);
    }

    #[test]
    fn fuzz_driver_accepts_arbitrary_inputs() {
        fuzz_store_range(&[]);
        fuzz_store_range(&[0x81]);
        fuzz_store_range(&[2, 1, 2, 3]); // short tail: no full u64s
        let mut data = vec![0x82u8]; // 3 dims, rebuild midway
        for v in [0u64, u64::MAX, 5, 40, 7, 1, 2, 3, 6, 41, 8, 99, 99, 99] {
            data.extend_from_slice(&v.to_le_bytes());
        }
        fuzz_store_range(&data);
        // Past the rebuild floor, so the batched store rebuilds mid-batch.
        let mut data = vec![0x80u8]; // 1 dim, rebuild midway
        for v in (0..400u64).map(|i| i * 7 % 101) {
            data.extend_from_slice(&v.to_le_bytes());
        }
        fuzz_store_range(&data);
    }
}
