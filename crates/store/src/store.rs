//! The store interface and its one backend.
//!
//! [`Store`] is the seam the rest of the system sees: `mind-core`'s
//! per-version stores and the baseline architectures hold `Box<dyn Store>`
//! and never name a concrete type. One implementation stands behind it —
//! levelled columnar k-d runs ([`crate::MemStore`]) — and the trait is
//! deliberately dyn-safe so a replacement (a disk-resident store) slots in
//! behind the same methods. [`StoreKind`] is the constructor callers name;
//! nothing reads it from the environment.

use crate::mem::{MemStore, FANOUT, TAIL};
use mind_types::{HyperRect, Record, RecordId};

/// The per-(index, version) record store interface.
///
/// Object-safe by construction: every consumer holds `Box<dyn Store>`.
/// Records are append-only (the paper ages out whole index *versions*,
/// never individual records), so there is no delete method. How a backend
/// lays out what it holds is its own business and has no hint method: the
/// k-d store's layout is a function of its row count alone.
pub trait Store: std::fmt::Debug + Send {
    /// Appends a record and indexes its first `dims()` values, returning
    /// the id it was stored under (dense, insertion-ordered).
    fn insert(&mut self, record: Record) -> RecordId;

    /// Appends a whole batch of records, in order. Equivalent to calling
    /// [`Store::insert`] once per record — ids stay dense and
    /// insertion-ordered — but a backend may override it to amortize
    /// per-insert bookkeeping over the batch. The ingest fast path hands
    /// the DAC whole `InsertBatch` payloads, so this is the hot entry point
    /// under batched wire traffic.
    fn insert_batch(&mut self, records: Vec<Record>) {
        for record in records {
            self.insert(record);
        }
    }

    /// Records matching `rect`, each an owned copy of the stored row. The
    /// store keeps no record objects: the copy is made here, once, and the
    /// caller moves it on (into a query tracker or a response frame).
    fn range_records(&self, rect: &HyperRect) -> Vec<Record>;

    /// Approximate bytes the stored rows occupy. Only the benchmark's
    /// store replay reads it (`store.bytes_per_row`).
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
/// rectangle and asserts that the k-d store filled one `insert` at a time
/// and the k-d store filled by `insert_batch` (cut in two where the input
/// says) each agree exactly with a brute-force scan on ids, and that both
/// return exactly the matching rows, whole.
///
/// Input layout (frozen: the committed `fuzz/corpus/store_range` inputs
/// replay against it): `data[0]` packs the dimensionality
/// (`1 + data[0] % 3`) and a batch-cut bit (`data[0] & 0x80`); the
/// remaining bytes are read as little-endian u64s — first `2 * dims` become
/// the rect bounds (normalized so `lo <= hi` per axis), the rest become up
/// to 512 points. The points are cycled to `TAIL × FANOUT + 1` rows, each
/// carrying its row number as an extra value, so every input with a point
/// crosses the store's seals and a merge. With the cut bit set, the batched
/// store takes its rows in two `insert_batch` calls, cut at
/// `rows × (data[0] & 0x7f) / 0x7f`; otherwise in one.
pub fn fuzz_store_range(data: &[u8]) {
    let Some((&ctl, rest)) = data.split_first() else {
        return;
    };
    let dims = 1 + (ctl % 3) as usize;
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

    // Cap the point count so a pathological input length stays fast.
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
    let rows: Vec<Vec<u64>> = points
        .iter()
        .cycle()
        .take(TAIL * FANOUT + 1)
        .zip(0u64..)
        .map(|(p, i)| p.iter().copied().chain([i]).collect())
        .collect();
    let records = |rows: &[Vec<u64>]| -> Vec<Record> {
        rows.iter().map(|r| Record::new(r.clone())).collect()
    };

    let mut kd = MemStore::new(dims);
    for record in records(&rows) {
        kd.insert(record);
    }
    // The batched entry point must land records under the same ids as the
    // one-at-a-time path, wherever the batches are cut.
    let cut = if ctl & 0x80 != 0 {
        rows.len() * usize::from(ctl & 0x7f) / 0x7f
    } else {
        rows.len()
    };
    let mut kd_batched = MemStore::new(dims);
    kd_batched.insert_batch(records(&rows[..cut]));
    kd_batched.insert_batch(records(&rows[cut..]));

    let brute: Vec<RecordId> = rows
        .iter()
        .zip(0u64..)
        .filter(|(r, _)| rect.contains_point(&r[..dims]))
        .map(|(_, i)| RecordId(i))
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
    // Each row carries its row number last, so rows sort into id order.
    let whole: Vec<&[u64]> = brute.iter().map(|id| &rows[id.0 as usize][..]).collect();
    for (store, name) in [(&kd, "kdtree"), (&kd_batched, "batched kdtree")] {
        let mut got = store.range_records(&rect);
        got.sort_by_key(|r| r.value(dims));
        let got: Vec<&[u64]> = got.iter().map(Record::values).collect();
        assert_eq!(got, whole, "{name} rows diverge from brute force");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_a_working_store() {
        let mut s = StoreKind::default().new_store(2);
        assert!(s.is_empty());
        s.insert(Record::new(vec![3, 4, 99]));
        let rect = HyperRect::new(vec![0, 0], vec![10, 10]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.dims(), 2);
        let hits = s.range_records(&rect);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value(2), 99);
        assert!(s.approx_bytes() > 0);
    }

    #[test]
    fn fuzz_driver_accepts_arbitrary_inputs() {
        fuzz_store_range(&[]);
        fuzz_store_range(&[0x81]);
        fuzz_store_range(&[2, 1, 2, 3]); // short tail: no full u64s
        let mut data = vec![0x82u8]; // 2 dims, batches cut at 2/127
        for v in [0u64, u64::MAX, 5, 40, 7, 1, 2, 3, 6, 41, 8, 99, 99, 99] {
            data.extend_from_slice(&v.to_le_bytes());
        }
        fuzz_store_range(&data);
        // 400 points, so the cycle repeats ten times rather than thousands.
        let mut data = vec![0xC0u8]; // 1 dim, batches cut at 64/127
        for v in (0..400u64).map(|i| i * 7 % 101) {
            data.extend_from_slice(&v.to_le_bytes());
        }
        fuzz_store_range(&data);
    }
}
