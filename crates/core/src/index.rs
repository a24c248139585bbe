//! Per-node index state: schema, versions, cuts, stores.

use mind_histogram::{CutTree, GridHistogram};
use mind_store::{Store, StoreKind};
use mind_types::{IndexSchema, MindError, Record, Replication};
use std::sync::Arc;

/// Bins per dimension of the per-day histograms shipped to the collector.
pub(crate) const HIST_GRANULARITY: u32 = 64;

/// One version of an index: its cuts and the local share of its data.
///
/// Versions implement the paper's daily re-balancing without data motion
/// (Section 3.7): each day's records are embedded with cuts computed from
/// the previous day's distribution, and queries consult the version(s)
/// their time range overlaps.
#[derive(Debug)]
pub struct IndexVersion {
    /// First record timestamp governed by this version.
    pub from_ts: u64,
    /// The data-space cuts of this version. Shared, not owned: the tree
    /// is immutable once computed, and at 10k nodes per-node deep copies
    /// of a depth-10 tree were the dominant resident-memory cost
    /// (DESIGN.md §16) — every node that installs the same version now
    /// points at the same allocation within a process.
    pub cuts: Arc<CutTree>,
    /// Rows this node owns as the region's primary. The backend behind
    /// the `dyn Store` is uniform across a node's versions, built by the
    /// node config's [`StoreKind`].
    pub primary: Box<dyn Store>,
    /// Replica copies pushed by prefix neighbors. Kept separate from the
    /// primaries so that (a) join-time handoff scans return only the
    /// acceptor's own historical data (never echoes of rows the joiner
    /// already holds) and (b) storage metrics stay exact. Normal
    /// sub-queries scan both stores; region clipping keeps replica rows
    /// from double-counting because they only match sub-queries for
    /// regions this node has taken over.
    pub replicas: Box<dyn Store>,
}

/// All local state for one index.
#[derive(Debug)]
pub struct IndexState {
    /// The index schema.
    pub schema: IndexSchema,
    /// Replication level for inserts.
    pub replication: Replication,
    /// Versions ordered by `from_ts` (version number = position).
    pub versions: Vec<IndexVersion>,
    /// This node's observed data distribution for the current day,
    /// shipped to the collector at each day boundary.
    pub day_histogram: GridHistogram,
    /// Store backend used for every version's primary/replica stores
    /// (needed again at version install, crash reset, and GC time).
    pub store_kind: StoreKind,
}

impl IndexState {
    /// Creates the index with its version-0 cuts (effective from t = 0).
    pub fn new(
        schema: IndexSchema,
        cuts: impl Into<Arc<CutTree>>,
        replication: Replication,
        store_kind: StoreKind,
    ) -> Self {
        let dims = schema.indexed_dims;
        let bounds = schema.bounds();
        IndexState {
            schema,
            replication,
            versions: vec![IndexVersion {
                from_ts: 0,
                cuts: cuts.into(),
                primary: store_kind.new_store(dims),
                replicas: store_kind.new_store(dims),
            }],
            day_histogram: GridHistogram::new(bounds, HIST_GRANULARITY),
            store_kind,
        }
    }

    /// Installs a new version. Versions must arrive in order with
    /// increasing `from_ts`; duplicates (flood re-delivery across
    /// restarts) are ignored.
    pub fn install_version(&mut self, version: u32, from_ts: u64, cuts: impl Into<Arc<CutTree>>) {
        if (version as usize) < self.versions.len() {
            return; // already installed
        }
        assert_eq!(
            version as usize,
            self.versions.len(),
            "index {}: version {} arrived out of order",
            self.schema.tag,
            version
        );
        assert!(
            from_ts >= self.versions.last().map(|v| v.from_ts).unwrap_or(0),
            "index {}: version {} from_ts regresses",
            self.schema.tag,
            version
        );
        self.versions.push(IndexVersion {
            from_ts,
            cuts: cuts.into(),
            primary: self.store_kind.new_store(self.schema.indexed_dims),
            replicas: self.store_kind.new_store(self.schema.indexed_dims),
        });
    }

    /// The version governing a record with timestamp `ts` (the last
    /// version whose `from_ts` is ≤ `ts`). Records with no timestamp
    /// attribute always use the latest version.
    pub fn version_for_ts(&self, ts: Option<u64>) -> u32 {
        match ts {
            None => (self.versions.len() - 1) as u32,
            Some(t) => {
                let mut v = 0;
                for (i, ver) in self.versions.iter().enumerate() {
                    if ver.from_ts <= t {
                        v = i;
                    } else {
                        break;
                    }
                }
                v as u32
            }
        }
    }

    /// The versions a query time range `[t1, t2]` overlaps (all versions
    /// when the schema has no timestamp dimension).
    pub fn versions_for_range(&self, range: Option<(u64, u64)>) -> Vec<u32> {
        match range {
            None => (0..self.versions.len() as u32).collect(),
            Some((t1, t2)) => {
                let mut out = Vec::new();
                for (i, ver) in self.versions.iter().enumerate() {
                    let end = self
                        .versions
                        .get(i + 1)
                        .map(|n| n.from_ts.saturating_sub(1))
                        .unwrap_or(u64::MAX);
                    if ver.from_ts <= t2 && t1 <= end {
                        out.push(i as u32);
                    }
                }
                out
            }
        }
    }

    /// The timestamp of a record under this schema, if the schema has a
    /// timestamp dimension.
    pub fn record_ts(&self, record: &Record) -> Option<u64> {
        self.schema.time_dim().map(|d| record.value(d))
    }

    /// Validates and clamps a record for this index.
    pub fn conform(&self, record: Record) -> Result<Record, MindError> {
        record.conform(&self.schema)
    }

    /// A version by number.
    pub fn version(&self, v: u32) -> Option<&IndexVersion> {
        self.versions.get(v as usize)
    }

    /// A version by number, mutably.
    pub fn version_mut(&mut self, v: u32) -> Option<&mut IndexVersion> {
        self.versions.get_mut(v as usize)
    }

    /// Total primary rows across versions.
    pub fn primary_rows(&self) -> u64 {
        self.versions.iter().map(|v| v.primary.len() as u64).sum()
    }

    /// Drops every version's stored rows (crash-lost in-memory state)
    /// while keeping the catalog — schema, cut trees, version numbering —
    /// intact. Used when a node restarts after a crash.
    pub fn reset_stores(&mut self) {
        let dims = self.schema.indexed_dims;
        let kind = self.store_kind;
        for v in &mut self.versions {
            v.primary = kind.new_store(dims);
            v.replicas = kind.new_store(dims);
        }
    }

    /// Garbage-collects versions whose governed time range ends before
    /// `before_ts`, dropping their stores wholesale (the paper's aging
    /// model: whole versions expire, individual records never delete).
    /// The version numbering of the survivors is preserved by replacing
    /// collected stores with empty tombstones rather than renumbering.
    pub fn gc_before(&mut self, before_ts: u64) -> usize {
        let dims = self.schema.indexed_dims;
        let kind = self.store_kind;
        let mut collected = 0;
        let n = self.versions.len();
        for i in 0..n {
            let end = self
                .versions
                .get(i + 1)
                .map(|nx| nx.from_ts.saturating_sub(1))
                .unwrap_or(u64::MAX);
            let v = &mut self.versions[i];
            if end < before_ts && (!v.primary.is_empty() || !v.replicas.is_empty()) {
                v.primary = kind.new_store(dims);
                v.replicas = kind.new_store(dims);
                collected += 1;
            }
        }
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_types::{AttrDef, AttrKind, HyperRect};

    fn schema() -> IndexSchema {
        IndexSchema::new(
            "t",
            vec![
                AttrDef::new("x", AttrKind::Generic, 0, 1023),
                AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400 * 3),
                AttrDef::new("y", AttrKind::Generic, 0, 1023),
            ],
            3,
        )
    }

    fn state() -> IndexState {
        let s = schema();
        let cuts = CutTree::even(s.bounds(), 4);
        IndexState::new(s, cuts, Replication::Level(1), StoreKind::KdTree)
    }

    #[test]
    fn version_zero_covers_everything() {
        let st = state();
        assert_eq!(st.version_for_ts(Some(0)), 0);
        assert_eq!(st.version_for_ts(Some(1_000_000)), 0);
        assert_eq!(st.versions_for_range(Some((0, 100))), vec![0]);
    }

    #[test]
    fn versions_partition_time() {
        let mut st = state();
        let cuts = CutTree::even(st.schema.bounds(), 4);
        st.install_version(1, 86_400, cuts.clone());
        st.install_version(2, 2 * 86_400, cuts);
        assert_eq!(st.version_for_ts(Some(10)), 0);
        assert_eq!(st.version_for_ts(Some(86_400)), 1);
        assert_eq!(st.version_for_ts(Some(86_399)), 0);
        assert_eq!(st.version_for_ts(Some(3 * 86_400)), 2);
        assert_eq!(st.versions_for_range(Some((0, 86_399))), vec![0]);
        assert_eq!(st.versions_for_range(Some((80_000, 90_000))), vec![0, 1]);
        assert_eq!(st.versions_for_range(Some((86_400, 86_400))), vec![1]);
        assert_eq!(st.versions_for_range(None), vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_version_ignored() {
        let mut st = state();
        let cuts = CutTree::even(st.schema.bounds(), 4);
        st.install_version(1, 86_400, cuts.clone());
        st.install_version(1, 86_400, cuts);
        assert_eq!(st.versions.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn version_gap_panics() {
        let mut st = state();
        let cuts = CutTree::even(st.schema.bounds(), 4);
        st.install_version(5, 86_400, cuts);
    }

    #[test]
    fn record_ts_reads_time_dim() {
        let st = state();
        assert_eq!(st.record_ts(&Record::new(vec![1, 777, 3])), Some(777));
    }

    #[test]
    fn conform_clamps() {
        let st = state();
        let r = st.conform(Record::new(vec![5000, 10, 20])).unwrap();
        assert_eq!(r.value(0), 1023);
        let bounds: HyperRect = st.schema.bounds();
        assert!(bounds.contains_point(r.point(3)));
    }
}
