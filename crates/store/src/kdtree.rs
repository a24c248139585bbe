//! A columnar (structure-of-arrays) k-d tree over `u64` attribute points.
//!
//! MIND nodes answer every sub-query with a multi-dimensional range scan
//! over their local share of the index. The prototype delegated those scans
//! to MySQL; this tree serves them natively, and its layout is chosen for
//! the CPU cache rather than for pointer convenience:
//!
//! * **Columnar storage** — one flat `Vec<Value>` per dimension plus a
//!   parallel record-id array. A traversal that filters on axis `d` streams
//!   `cols[d]` sequentially instead of hopping between per-point heap
//!   allocations; building the tree allocates O(dims) vectors total, not
//!   O(points).
//! * **Implicit median layout** — for any slice, the midpoint element is
//!   the splitting node at that level; tree structure is slice boundaries,
//!   so there are no node objects at all.
//! * **Bounding-box pruning with active-dimension tracking** — recursion
//!   carries the subtree's bounding box (tightened by each split
//!   coordinate) and the set of dimensions the query does not yet fully
//!   contain. A dimension that becomes contained is settled for the whole
//!   subtree and is never compared again; when the set empties, the
//!   subtree is reported wholesale with one `extend_from_slice` over the
//!   id column — no per-point containment checks. Large range scans (the
//!   paper's wildcard monitoring queries, which constrain only time)
//!   degenerate into a one-dimensional walk ending in a handful of
//!   `memcpy`s.
//! * **Leaf buckets** — slices at or below [`LEAF_CUTOFF`] are left
//!   unpartitioned and scanned dimension-major: one sequential sweep per
//!   column, AND-ed into a hit bitmask. At that size a branchy descent
//!   costs more than streaming a few cache lines. The same kernel scans
//!   [`crate::MemStore`]'s not-yet-indexed tail, 64 rows at a time.
//! * **Immutable runs** — a tree is laid out once, from columns, and never
//!   changes. [`crate::MemStore`] keeps a few of them as levelled runs and
//!   merges runs by concatenating their columns (`KdTree::into_columns`)
//!   into one new tree ([`KdTree::from_columns`]); no per-point pairs are
//!   built on that path.

use mind_types::{HyperRect, RecordId, Value};
use std::ops::Range;

/// Slices at or below this length are leaf buckets: left unpartitioned at
/// build time and scanned dimension-major at query time (see
/// [`leaf_mask`]). Must not exceed 64 — leaf hits are tracked in a
/// `u64` bitmask. Tuned on 100k uniform 3-dim points: wider
/// buckets shift boundary work out of the branchy descent and into
/// sequential column sweeps, and 64 was the fastest power of two.
const LEAF_CUTOFF: usize = 64;

/// An immutable columnar k-d tree built over `(point, record id)` pairs.
///
/// Mutation is handled one level up: [`crate::MemStore`] collects new
/// points in a small columnar tail, seals each full tail into a tree and
/// merges trees of equal size (the logarithmic method: O(log n) re-layout
/// work per insert).
#[derive(Debug, Clone, Default)]
pub struct KdTree {
    dims: usize,
    /// `cols[d][i]` is coordinate `d` of point `i`, in median-layout order:
    /// for any slice, the midpoint is the splitting node at that level.
    cols: Vec<Vec<Value>>,
    /// Record id of point `i`, parallel to the columns.
    ids: Vec<RecordId>,
    /// Root bounding box (per-dimension min), empty when the tree is empty.
    bb_lo: Vec<Value>,
    /// Root bounding box (per-dimension max).
    bb_hi: Vec<Value>,
}

impl KdTree {
    /// Builds a tree directly from column buffers (no transpose).
    ///
    /// # Panics
    /// Panics if `cols` is empty or the columns and `ids` disagree on
    /// length.
    pub fn from_columns(cols: Vec<Vec<Value>>, ids: Vec<RecordId>) -> Self {
        assert!(!cols.is_empty(), "zero-dimensional tree");
        assert!(cols.len() <= 32, "active-dimension masks are 32 bits wide");
        for col in &cols {
            assert_eq!(col.len(), ids.len(), "column/id length mismatch");
        }
        let mut tree = KdTree {
            dims: cols.len(),
            cols,
            ids,
            bb_lo: Vec::new(),
            bb_hi: Vec::new(),
        };
        tree.relayout();
        tree
    }

    /// The coordinate columns, in layout order.
    pub(crate) fn columns(&self) -> &[Vec<Value>] {
        &self.cols
    }

    /// The record ids, in layout order (parallel to the columns).
    pub(crate) fn ids(&self) -> &[RecordId] {
        &self.ids
    }

    /// Consumes the tree, returning its column buffers and id array (in
    /// layout order) for a merge to concatenate.
    pub(crate) fn into_columns(self) -> (Vec<Vec<Value>>, Vec<RecordId>) {
        (self.cols, self.ids)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the tree indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of the indexed points.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Collects the ids of every point inside `rect` (inclusive bounds).
    pub fn range(&self, rect: &HyperRect, out: &mut Vec<RecordId>) {
        self.range_positions(rect, |span| out.extend_from_slice(&self.ids[span]));
    }

    /// Reports the layout positions of every point inside `rect`, in walk
    /// order, as spans: a subtree the query contains is one span, any
    /// other hit a span of one. Position `i` is the point whose coordinates
    /// are `columns()[d][i]` and whose id is `ids()[i]`.
    pub(crate) fn range_positions(&self, rect: &HyperRect, mut emit: impl FnMut(Range<usize>)) {
        assert_eq!(rect.dims(), self.dims, "query dimensionality mismatch");
        if self.ids.is_empty() {
            return;
        }
        let Some(active) = self.root_active_dims(rect) else {
            return; // disjoint from the data's bounding box
        };
        if active == 0 {
            emit(0..self.ids.len());
            return;
        }
        let mut bb_lo = self.bb_lo.clone();
        let mut bb_hi = self.bb_hi.clone();
        self.range_rec(
            rect,
            0,
            self.ids.len(),
            0,
            &mut bb_lo,
            &mut bb_hi,
            active,
            &mut emit,
        );
    }

    /// The *active dimension set* at the root: bit `d` is set when the
    /// query rectangle does **not** already contain the data's bounding
    /// box on dimension `d`. Returns `None` when the query is disjoint
    /// from the bounding box on some dimension (no point can match).
    ///
    /// Contained dimensions are settled for the whole traversal — the
    /// paper's standing monitoring queries wildcard every non-time
    /// attribute, so for them this collapses the k-d walk to a pure time
    /// scan. Recursion only ever *clears* bits (see [`Self::range_rec`]):
    /// tightening a child's bounding box on the split axis can newly
    /// contain that axis, and an empty set means the whole slice matches.
    #[inline]
    fn root_active_dims(&self, rect: &HyperRect) -> Option<u32> {
        let mut active = 0u32;
        for d in 0..self.dims {
            if rect.hi(d) < self.bb_lo[d] || self.bb_hi[d] < rect.lo(d) {
                return None;
            }
            if !(rect.lo(d) <= self.bb_lo[d] && self.bb_hi[d] <= rect.hi(d)) {
                active |= 1 << d;
            }
        }
        Some(active)
    }

    /// `true` when point `i` lies inside `rect` on every dimension in
    /// `active` (dimensions outside the set are contained by the path's
    /// bounding box, so the point passes them for free).
    #[inline]
    fn point_in(&self, i: usize, rect: &HyperRect, active: u32) -> bool {
        let mut rem = active;
        while rem != 0 {
            let d = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            let v = self.cols[d][i];
            if v < rect.lo(d) || rect.hi(d) < v {
                return false;
            }
        }
        true
    }

    /// Recursive range scan over `lo..hi` with the invariant `active != 0`
    /// (an empty active set is handled by the caller via wholesale
    /// emission). The bounding box changes on exactly one axis per
    /// recursion step, so containment is re-checked only on that axis.
    #[expect(
        clippy::too_many_arguments,
        reason = "the recursion carries its slice, box and active set by value to stay allocation-free"
    )]
    fn range_rec<F: FnMut(Range<usize>)>(
        &self,
        rect: &HyperRect,
        lo: usize,
        hi: usize,
        depth: usize,
        bb_lo: &mut [Value],
        bb_hi: &mut [Value],
        active: u32,
        emit: &mut F,
    ) {
        debug_assert!(active != 0, "contained slices are emitted by the caller");
        if lo >= hi {
            return;
        }
        // Leaf bucket: dimension-major column sweep, then decode the mask.
        if hi - lo <= LEAF_CUTOFF {
            let mut mask = leaf_mask(&self.cols, rect, lo, hi, active);
            while mask != 0 {
                let j = lo + mask.trailing_zeros() as usize;
                emit(j..j + 1);
                mask &= mask - 1;
            }
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let axis = depth % self.dims;
        let coord = self.cols[axis][mid];
        if self.point_in(mid, rect, active) {
            emit(mid..mid + 1);
        }
        // Left subtree holds coords <= node coord on this axis, right holds
        // coords >= (duplicates may go either way, so both bounds are
        // inclusive comparisons against the query rectangle). The split
        // coordinate tightens the child's bounding box; save/restore keeps
        // the traversal allocation-free, and a child whose tightened axis
        // becomes contained may drop out of the active set entirely —
        // `active == 0` is the wholesale fast path.
        let bit = 1u32 << axis;
        if rect.lo(axis) <= coord {
            let saved = bb_hi[axis];
            bb_hi[axis] = saved.min(coord);
            let child = if active & bit != 0
                && rect.lo(axis) <= bb_lo[axis]
                && bb_hi[axis] <= rect.hi(axis)
            {
                active & !bit
            } else {
                active
            };
            if child == 0 {
                emit(lo..mid);
            } else {
                self.range_rec(rect, lo, mid, depth + 1, bb_lo, bb_hi, child, emit);
            }
            bb_hi[axis] = saved;
        }
        if rect.hi(axis) >= coord {
            let saved = bb_lo[axis];
            bb_lo[axis] = saved.max(coord);
            let child = if active & bit != 0
                && rect.lo(axis) <= bb_lo[axis]
                && bb_hi[axis] <= rect.hi(axis)
            {
                active & !bit
            } else {
                active
            };
            if child == 0 {
                emit(mid + 1..hi);
            } else {
                self.range_rec(rect, mid + 1, hi, depth + 1, bb_lo, bb_hi, child, emit);
            }
            bb_lo[axis] = saved;
        }
    }

    /// Re-establishes the median layout and root bounding box over the
    /// current column contents. Runs the recursive median partition on a
    /// permutation vector, then applies it to every column and the id
    /// array with one reused scratch buffer.
    fn relayout(&mut self) {
        let n = self.ids.len();
        if n == 0 {
            self.bb_lo.clear();
            self.bb_hi.clear();
            return;
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        layout_perm(&mut perm, &self.cols, 0, self.dims);
        // Scatter columns into layout order; `scratch` is swapped in as the
        // new column each round, so one buffer serves every dimension.
        let mut scratch: Vec<Value> = Vec::with_capacity(n);
        for col in &mut self.cols {
            scratch.clear();
            scratch.extend(perm.iter().map(|&i| col[i as usize]));
            std::mem::swap(col, &mut scratch);
        }
        let mut id_scratch: Vec<RecordId> = Vec::with_capacity(n);
        id_scratch.extend(perm.iter().map(|&i| self.ids[i as usize]));
        self.ids = id_scratch;
        // Root bounding box: per-dimension min/max (one sequential pass per
        // column — this is what lets traversals start pruning immediately).
        self.bb_lo = self
            .cols
            .iter()
            .map(|col| col.iter().copied().min().unwrap_or(0))
            .collect();
        self.bb_hi = self
            .cols
            .iter()
            .map(|col| col.iter().copied().max().unwrap_or(0))
            .collect();
    }
}

/// Bitmask of the points in `lo..hi` (at most 64 wide) of `cols` that lie
/// inside `rect`, bit `j` standing for point `lo + j`. Only the dimensions
/// in `active` are checked. This is the one scan kernel for unindexed
/// rows: the tree's leaf buckets and [`crate::MemStore`]'s tail both go
/// through it.
///
/// The scan is dimension-major: each active column's slice is swept
/// sequentially and AND-ed into the mask, so a probe touches a few short
/// contiguous runs instead of striding across all columns point by point
/// — this is where the columnar layout pays — and a column that
/// eliminates every candidate short-circuits the rest.
#[inline]
pub(crate) fn leaf_mask(
    cols: &[Vec<Value>],
    rect: &HyperRect,
    lo: usize,
    hi: usize,
    active: u32,
) -> u64 {
    debug_assert!(hi - lo <= 64, "leaf bucket wider than the bitmask");
    let width = hi - lo;
    let mut mask: u64 = if width == 64 { !0 } else { (1u64 << width) - 1 };
    let mut rem = active;
    while rem != 0 {
        let d = rem.trailing_zeros() as usize;
        rem &= rem - 1;
        // One wrapping subtraction folds the two-sided bound check:
        // `v - lo <= hi - lo` (mod 2^64) iff `lo <= v <= hi`.
        let qlo = rect.lo(d);
        let span = rect.hi(d).wrapping_sub(qlo);
        let mut m = 0u64;
        for (j, &v) in cols[d][lo..hi].iter().enumerate() {
            m |= u64::from(v.wrapping_sub(qlo) <= span) << j;
        }
        mask &= m;
        if mask == 0 {
            return 0;
        }
    }
    mask
}

/// Recursively arranges `perm` (indices into the columns) into median
/// layout, stopping at leaf buckets of [`LEAF_CUTOFF`].
fn layout_perm(perm: &mut [u32], cols: &[Vec<Value>], depth: usize, dims: usize) {
    let len = perm.len();
    if len <= LEAF_CUTOFF {
        return;
    }
    let mid = len / 2;
    let axis = depth % dims;
    let col = &cols[axis];
    perm.select_nth_unstable_by(mid, |&a, &b| col[a as usize].cmp(&col[b as usize]));
    let (left, right) = perm.split_at_mut(mid);
    layout_perm(left, cols, depth + 1, dims);
    layout_perm(&mut right[1..], cols, depth + 1, dims);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn brute(points: &[(Vec<Value>, RecordId)], rect: &HyperRect) -> Vec<RecordId> {
        let mut v: Vec<RecordId> = points
            .iter()
            .filter(|(p, _)| rect.contains_point(p))
            .map(|(_, id)| *id)
            .collect();
        v.sort();
        v
    }

    /// A tree over `points`, built from columns as the store builds runs.
    fn build(dims: usize, points: &[(Vec<Value>, RecordId)]) -> KdTree {
        let cols = (0..dims)
            .map(|d| points.iter().map(|(p, _)| p[d]).collect())
            .collect();
        KdTree::from_columns(cols, points.iter().map(|(_, id)| *id).collect())
    }

    /// The ids `tree` reports inside `rect`, sorted.
    fn ids(tree: &KdTree, rect: &HyperRect) -> Vec<RecordId> {
        let mut out = Vec::new();
        tree.range(rect, &mut out);
        out.sort();
        out
    }

    #[test]
    fn empty_tree() {
        let tree = build(3, &[]);
        assert!(tree.is_empty());
        assert!(ids(&tree, &HyperRect::full(3)).is_empty());
    }

    #[test]
    fn single_point() {
        let tree = build(2, &[(vec![5, 5], RecordId(1))]);
        assert_eq!(
            ids(&tree, &HyperRect::new(vec![0, 0], vec![10, 10])),
            vec![RecordId(1)]
        );
        assert!(ids(&tree, &HyperRect::new(vec![6, 0], vec![10, 10])).is_empty());
    }

    #[test]
    fn duplicate_coordinates_all_found() {
        let pts: Vec<_> = (0..20).map(|i| (vec![7u64, 7], RecordId(i))).collect();
        let tree = build(2, &pts);
        let hits = ids(&tree, &HyperRect::new(vec![7, 7], vec![7, 7]));
        assert_eq!(hits.len(), 20);
    }

    #[test]
    fn boundary_inclusive() {
        let tree = build(1, &[(vec![10], RecordId(0)), (vec![20], RecordId(1))]);
        assert_eq!(ids(&tree, &HyperRect::new(vec![10], vec![20])).len(), 2);
        assert_eq!(ids(&tree, &HyperRect::new(vec![11], vec![19])).len(), 0);
    }

    #[test]
    fn full_containment_reports_wholesale() {
        // A query covering the whole domain exercises the root-level
        // containment fast path: every id, no per-point checks.
        let pts: Vec<_> = (0..500)
            .map(|i| (vec![i % 37, i % 91], RecordId(i)))
            .collect();
        let tree = build(2, &pts);
        let got = ids(&tree, &HyperRect::full(2));
        assert_eq!(got, brute(&pts, &HyperRect::full(2)));
        // Exactly the bounding box also fully contains.
        let in_bb = ids(&tree, &HyperRect::new(vec![0, 0], vec![36, 90]));
        assert_eq!(in_bb, got);
    }

    #[test]
    fn random_queries_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        let points: Vec<(Vec<Value>, RecordId)> = (0..2000)
            .map(|i| {
                (
                    vec![
                        rng.random_range(0..1000u64),
                        rng.random_range(0..1000u64),
                        rng.random_range(0..100u64),
                    ],
                    RecordId(i),
                )
            })
            .collect();
        let tree = build(3, &points);
        for _ in 0..100 {
            let lo: Vec<u64> = vec![
                rng.random_range(0..1000),
                rng.random_range(0..1000),
                rng.random_range(0..100),
            ];
            let hi: Vec<u64> = lo
                .iter()
                .map(|&l| l + rng.random_range(0..500u64))
                .collect();
            let rect = HyperRect::new(lo, hi);
            let got = ids(&tree, &rect);
            assert_eq!(got, brute(&points, &rect));
        }
    }

    proptest! {
        #[test]
        fn prop_range_matches_brute_force(
            raw in prop::collection::vec(prop::collection::vec(0u64..100, 2), 0..300),
            qlo in prop::collection::vec(0u64..100, 2),
            span in prop::collection::vec(0u64..100, 2),
        ) {
            let points: Vec<(Vec<Value>, RecordId)> = raw
                .into_iter()
                .enumerate()
                .map(|(i, p)| (p, RecordId(i as u64)))
                .collect();
            let tree = build(2, &points);
            let rect = HyperRect::new(
                qlo.clone(),
                qlo.iter().zip(&span).map(|(&l, &s)| l + s).collect(),
            );
            let got = ids(&tree, &rect);
            prop_assert_eq!(got, brute(&points, &rect));
        }
    }
}
