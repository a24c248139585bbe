//! The original array-of-structs k-d tree, kept as a reference oracle.
//!
//! This is the tree [`crate::KdTree`] replaced: one heap-allocated
//! `Vec<Value>` per point, no bounding-box pruning, and a `count_range`
//! that materializes ids just to take their length. It stays in the crate
//! for differential testing: the columnar tree's proptests and the
//! `store_range` fuzz body check every query against this implementation
//! point-for-point (see `crates/store/tests/columnar_prop.rs`).
//!
//! Do not use it on a hot path.

use mind_types::{HyperRect, RecordId, Value};

/// The pre-columnar k-d tree: implicit median layout over `(point, id)`
/// pairs, one `Vec<Value>` allocation per point.
#[derive(Debug, Clone, Default)]
pub struct NaiveKdTree {
    dims: usize,
    pts: Vec<(Vec<Value>, RecordId)>,
}

impl NaiveKdTree {
    /// Builds a tree over the given points.
    ///
    /// # Panics
    /// Panics if `dims == 0` or any point has a different dimensionality.
    pub fn build(dims: usize, mut pts: Vec<(Vec<Value>, RecordId)>) -> Self {
        assert!(dims > 0, "zero-dimensional tree");
        for (p, _) in &pts {
            assert_eq!(p.len(), dims, "point dimensionality mismatch");
        }
        if !pts.is_empty() {
            let len = pts.len();
            layout(&mut pts, 0, len, 0, dims);
        }
        NaiveKdTree { dims, pts }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// `true` when the tree indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// Dimensionality of the indexed points.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Collects the ids of every point inside `rect` (inclusive bounds).
    pub fn range(&self, rect: &HyperRect, out: &mut Vec<RecordId>) {
        assert_eq!(rect.dims(), self.dims, "query dimensionality mismatch");
        if !self.pts.is_empty() {
            self.range_rec(rect, 0, self.pts.len(), 0, out);
        }
    }

    /// Convenience wrapper over [`Self::range`] returning a fresh vec.
    pub fn range_vec(&self, rect: &HyperRect) -> Vec<RecordId> {
        let mut out = Vec::new();
        self.range(rect, &mut out);
        out
    }

    /// Counts points inside `rect` — via a scratch id vector, which is
    /// exactly the allocation the columnar tree's counting traversal
    /// removed.
    pub fn count_range(&self, rect: &HyperRect) -> usize {
        self.range_vec(rect).len()
    }

    fn range_rec(
        &self,
        rect: &HyperRect,
        lo: usize,
        hi: usize,
        depth: usize,
        out: &mut Vec<RecordId>,
    ) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let (point, id) = &self.pts[mid];
        if rect.contains_point(point) {
            out.push(*id);
        }
        let axis = depth % self.dims;
        let coord = point[axis];
        // Left subtree holds coords <= node coord on this axis, right holds
        // coords >= (duplicates may go either way, so both bounds are
        // inclusive comparisons against the query rectangle).
        if rect.lo(axis) <= coord {
            self.range_rec(rect, lo, mid, depth + 1, out);
        }
        if rect.hi(axis) >= coord {
            self.range_rec(rect, mid + 1, hi, depth + 1, out);
        }
    }

    /// Consumes the tree, returning the raw points.
    pub fn into_points(self) -> Vec<(Vec<Value>, RecordId)> {
        self.pts
    }
}

/// Recursively arranges `pts[lo..hi]` into median layout.
fn layout(pts: &mut [(Vec<Value>, RecordId)], lo: usize, hi: usize, depth: usize, dims: usize) {
    if hi - lo <= 1 {
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let axis = depth % dims;
    pts[lo..hi].select_nth_unstable_by(mid - lo, |a, b| a.0[axis].cmp(&b.0[axis]));
    layout(pts, lo, mid, depth + 1, dims);
    layout(pts, mid + 1, hi, depth + 1, dims);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_still_answers() {
        let pts: Vec<_> = (0..100)
            .map(|i| (vec![i, i * 7 % 50], RecordId(i)))
            .collect();
        let t = NaiveKdTree::build(2, pts);
        assert_eq!(t.len(), 100);
        let hits = t.range_vec(&HyperRect::new(vec![0, 0], vec![9, 49]));
        assert_eq!(hits.len(), 10);
        assert_eq!(t.count_range(&HyperRect::full(2)), 100);
    }
}
