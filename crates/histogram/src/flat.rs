//! Flat-arena data-space cut trees: the production route-plane layout.
//!
//! [`CutTree`] stores the recursive cuts of the `cuts` builders as
//! structure-of-arrays columns over one breadth-first node arena:
//!
//! * `axis` — the split axis per node, with [`LEAF_AXIS`] marking leaves;
//! * `threshold` — the cut value per split node;
//! * `child` — the arena index of the low child; siblings are adjacent in
//!   level order, so the high child is `child + 1` and a descent step is
//!   the branchless `child + (went high)`. Level order also packs the top
//!   levels — which every single descent touches — into a handful of
//!   cache lines, where a pointer tree (or a DFS arena) scatters them one
//!   node per line;
//! * `leaf_start..leaf_end` — each node's span of descendant leaves in the
//!   code-ordered leaf tables `leaf_codes` / `leaf_rects`.
//!
//! Every traversal the routing hot path runs — `code_for_point` per insert
//! hop, `query_prefix` / `covering_codes` per query split,
//! `rect_for_code` per sub-query scan — is iterative and allocation-free
//! (`no_allocating_calls_outside_tests` walls this file). Two observations
//! make that possible:
//!
//! 1. **Clamp elision.** A point's code is that of the point clamped onto
//!    the bounds, which the test oracle computes on a clamped `Vec` copy.
//!    But every split threshold `t` on axis `d` is interior to its node's
//!    region, which is contained in the bounds — so
//!    `bounds.lo(d) <= t < bounds.hi(d)`. A raw coordinate below the
//!    bounds compares `<= t` exactly like its clamped value
//!    (`bounds.lo(d)`), and one above compares `> t` likewise. Raw
//!    comparisons therefore take bit-identical branches, and no clamped
//!    copy is ever materialized.
//! 2. **Corner-leaf region memo.** A low cut keeps every lower bound and a
//!    high cut keeps every upper bound, so a node's region is exactly
//!    `leftmost_leaf.span(rightmost_leaf)` — two lookups in `leaf_rects`
//!    instead of re-splitting the bounds cut by cut. Child-intersection
//!    tests during a covering descent reduce to comparing the query
//!    against the threshold on the split axis alone, because intersection
//!    on every other axis is inherited from the parent.
//!
//! There is one build path: the builders in `cuts.rs` emit the preorder
//! `axis`/`threshold` columns the wire carries, and
//! `CutTree::from_columns` validates them and lays out the arena for a
//! built tree and a decoded one alike. A test-only boxed oracle
//! (`NaiveCutTree`, in `naive.rs`) walks the same columns the obvious
//! way, and its properties check every public traversal against it.

use crate::cuts::{self, Columns};
use mind_types::code::MAX_CODE_LEN;
use mind_types::{BitCode, HyperRect, Value};
use serde::de::Error as _;
use serde::ser::SerializeStruct;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Sentinel in the `axis` column marking a leaf node.
pub(crate) const LEAF_AXIS: u16 = u16::MAX;

/// Upper bound on the covering-descent stack: one pending sibling per
/// level plus the two children of the current node.
const MAX_STACK: usize = MAX_CODE_LEN as usize + 2;

/// A complete set of recursive data-space cuts for one index version,
/// laid out as a flat arena (see the module docs).
///
/// Cut trees are value types: they serialize compactly (bounds plus the
/// preorder `axis`/`threshold` columns — the leaf memo is rebuilt on
/// deserialization) and are shipped to every node when a new index
/// version is created, so all nodes embed records identically without
/// coordination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutTree {
    bounds: HyperRect,
    /// Split axis per arena node; [`LEAF_AXIS`] marks a leaf.
    axis: Vec<u16>,
    /// Cut value per split node (unused slots hold 0 for leaves).
    threshold: Vec<Value>,
    /// Arena index of each split node's low child; the high child is the
    /// adjacent `child + 1` (children are enqueued together in level
    /// order). Unused slots hold 0 for leaves.
    child: Vec<u32>,
    /// First descendant leaf (index into the leaf tables) per node.
    leaf_start: Vec<u32>,
    /// One past the last descendant leaf per node.
    leaf_end: Vec<u32>,
    /// Leaf codes in code (= preorder) order.
    leaf_codes: Vec<BitCode>,
    /// Leaf regions, parallel to `leaf_codes`.
    leaf_rects: Vec<HyperRect>,
    /// Maximum leaf depth, cached at build time.
    depth: u8,
}

impl CutTree {
    /// Builds an even (midpoint) cut tree of the given depth.
    ///
    /// Axes are cut round-robin; axes that can no longer be split (single
    /// value) are skipped, and a region that is a single point becomes a
    /// leaf early.
    pub fn even(bounds: HyperRect, depth: u8) -> Self {
        let cuts = cuts::even(&bounds, depth);
        Self::build(bounds, cuts)
    }

    /// Builds a balanced cut tree of the given depth from raw data points.
    ///
    /// Every threshold is the (approximate) median of the points inside the
    /// region along the cut axis, so sibling regions receive near-equal
    /// point counts. Regions containing no points fall back to midpoint
    /// cuts so the tree still covers the whole domain.
    pub fn balanced_from_points(bounds: HyperRect, depth: u8, points: &[&[Value]]) -> Self {
        let cuts = cuts::balanced_from_points(&bounds, depth, points);
        Self::build(bounds, cuts)
    }

    /// Builds a balanced cut tree from an aggregated
    /// [`GridHistogram`](crate::GridHistogram) — the form used by the daily
    /// on-line collection protocol of Section 3.7.
    ///
    /// Thresholds snap to histogram bin boundaries; once a region shrinks to
    /// a single bin on every axis, remaining cuts fall back to midpoints.
    /// The balance quality therefore improves with histogram granularity,
    /// as the paper observes.
    ///
    /// # Panics
    /// Panics if the histogram bounds differ from `bounds`.
    pub fn balanced_from_histogram(
        bounds: HyperRect,
        depth: u8,
        hist: &crate::GridHistogram,
    ) -> Self {
        let cuts = cuts::balanced_from_histogram(&bounds, depth, hist);
        Self::build(bounds, cuts)
    }

    /// Validates a builder's preorder columns into the arena, through the
    /// same [`Self::from_columns`] a decoded wire tree takes.
    #[expect(clippy::expect_used, reason = "the builders emit only valid columns")]
    pub(crate) fn build(bounds: HyperRect, cuts: Columns) -> Self {
        Self::from_columns(bounds, cuts.axis, cuts.threshold).expect("a built cut tree validates")
    }

    /// Rebuilds the arena (child pointers, leaf memo, depth) from the
    /// serialized columns, validating untrusted wire input: the preorder
    /// walk must consume the columns exactly, every split axis must exist,
    /// every threshold must be interior to its region, and no leaf may sit
    /// deeper than the 64-bit code space.
    pub(crate) fn from_columns(
        bounds: HyperRect,
        axis: Vec<u16>,
        threshold: Vec<Value>,
    ) -> Result<Self, &'static str> {
        if axis.len() != threshold.len() {
            return Err("cut tree columns disagree in length");
        }
        if axis.is_empty() {
            return Err("cut tree has no nodes");
        }
        if axis.len() > u32::MAX as usize {
            return Err("cut tree arena exceeds u32 indexing");
        }
        let n = axis.len();
        // Phase 1: validate the preorder wire columns and derive the
        // leaf memo. `child` temporarily holds each split's preorder high
        // child (the low child is the next preorder slot).
        let mut tree = CutTree {
            bounds,
            axis,
            threshold,
            child: vec![0; n],
            leaf_start: vec![0; n],
            leaf_end: vec![0; n],
            leaf_codes: Vec::with_capacity(n / 2 + 1),
            leaf_rects: Vec::with_capacity(n / 2 + 1),
            depth: 0,
        };
        let root_rect = tree.bounds.span(&tree.bounds);
        let end = rebuild(&mut tree, 0, root_rect, BitCode::ROOT)?;
        if end != n {
            return Err("cut tree columns extend past the preorder walk");
        }
        // Phase 2: permute the node columns into breadth-first order (see
        // the module docs for why the hot descent wants level order).
        // Dequeuing a split enqueues its two children back to back, so
        // siblings land adjacent and one child pointer suffices.
        let mut order = Vec::with_capacity(n);
        order.push(0u32);
        let mut head = 0usize;
        while head < order.len() {
            let p = order[head] as usize;
            head += 1;
            if tree.axis[p] != LEAF_AXIS {
                order.push(p as u32 + 1);
                order.push(tree.child[p]);
            }
        }
        let mut bfs_of = vec![0u32; n];
        for (i, &p) in order.iter().enumerate() {
            bfs_of[p as usize] = i as u32;
        }
        let mut axis = Vec::with_capacity(n);
        let mut threshold = Vec::with_capacity(n);
        let mut child = Vec::with_capacity(n);
        let mut leaf_start = Vec::with_capacity(n);
        let mut leaf_end = Vec::with_capacity(n);
        for &p in &order {
            let p = p as usize;
            axis.push(tree.axis[p]);
            threshold.push(tree.threshold[p]);
            child.push(if tree.axis[p] == LEAF_AXIS {
                0
            } else {
                bfs_of[p + 1]
            });
            leaf_start.push(tree.leaf_start[p]);
            leaf_end.push(tree.leaf_end[p]);
        }
        tree.axis = axis;
        tree.threshold = threshold;
        tree.child = child;
        tree.leaf_start = leaf_start;
        tree.leaf_end = leaf_end;
        Ok(tree)
    }

    /// The bounding hyper-rectangle of the indexed data space.
    pub fn bounds(&self) -> &HyperRect {
        &self.bounds
    }

    /// The code of the leaf region containing `point` (clamped to bounds).
    ///
    /// Allocation-free: raw coordinates are compared directly against the
    /// thresholds — bit-identical to clamping first (see the module docs).
    #[inline]
    pub fn code_for_point(&self, point: &[Value]) -> BitCode {
        assert_eq!(
            point.len(),
            self.bounds.dims(),
            "point dimensionality mismatch"
        );
        let mut bits = 0u64;
        let mut len = 0u32;
        let mut idx = 0usize;
        loop {
            let a = self.axis[idx];
            if a == LEAF_AXIS {
                return BitCode::from_raw(bits, len as u8);
            }
            // Branchless step: the cut direction is data-dependent and
            // unpredictable, so the adjacent-sibling add beats a ~50 %
            // mispredict on every level of the descent.
            let c = self.child[idx] as usize;
            let go_hi = point[a as usize] > self.threshold[idx];
            bits |= (go_hi as u64) << (63 - len);
            idx = c + go_hi as usize;
            len += 1;
        }
    }

    /// The hyper-rectangle addressed by `code` (or by as much of `code` as
    /// the tree is deep — extra trailing bits are ignored, mirroring how a
    /// node with a short overlay code owns every longer data code it
    /// prefixes).
    ///
    /// O(depth): a walk to the addressed node plus one corner join from
    /// the leaf memo, instead of re-splitting the bounds cut by cut.
    pub fn rect_for_code(&self, code: &BitCode) -> HyperRect {
        let mut idx = 0usize;
        for bit in code.iter_bits() {
            if self.axis[idx] == LEAF_AXIS {
                break;
            }
            idx = self.child[idx] as usize + bit as usize;
        }
        self.node_rect(idx)
    }

    /// The memoized region of an **exact** leaf code, by reference — the
    /// zero-copy fast path for sub-query scans, which overwhelmingly
    /// address whole leaves. Returns `None` for interior or foreign codes
    /// (fall back to [`Self::rect_for_code`]).
    pub fn leaf_rect(&self, code: &BitCode) -> Option<&HyperRect> {
        // Leaf codes are in code order (`BitCode`'s `Ord` is the tree
        // in-order), so the memo is binary-searchable.
        self.leaf_codes
            .binary_search(code)
            .ok()
            .map(|i| &self.leaf_rects[i])
    }

    /// The minimal set of region codes that together cover
    /// `query ∩ bounds`, with no code an ancestor of another.
    ///
    /// This is the query *split* of Section 3.6: the sub-queries a query is
    /// divided into, each routed independently to the node owning that
    /// region.
    pub fn covering_codes(&self, query: &HyperRect) -> Vec<BitCode> {
        self.covering_codes_at_least(query, 0)
    }

    /// Like [`Self::covering_codes`], but regions fully contained in the
    /// query are still split until their codes are at least `min_len` bits
    /// (or the tree bottoms out).
    ///
    /// Query splitting uses the splitting node's own code length as
    /// `min_len` so that, on a balanced overlay, every emitted sub-query
    /// maps to (at most) one node; deeper receivers refine the plan
    /// further on arrival.
    pub fn covering_codes_at_least(&self, query: &HyperRect, min_len: u8) -> Vec<BitCode> {
        let mut out = Vec::with_capacity(8);
        self.covering_codes_into(query, min_len, &mut out);
        out
    }

    /// Buffer-reusing form of [`Self::covering_codes_at_least`]: clears
    /// `out` and fills it with the covering codes in code order. Callers
    /// on the query hot path keep one scratch buffer alive across splits
    /// so steady-state splitting allocates nothing.
    pub fn covering_codes_into(&self, query: &HyperRect, min_len: u8, out: &mut Vec<BitCode>) {
        out.clear();
        if !self.bounds.intersects(query) {
            return;
        }
        // Iterative DFS on a fixed-size stack (bounded by MAX_CODE_LEN).
        // The low child is pushed last so it is expanded first — the
        // recursive oracle's low-then-high emission order exactly.
        //
        // Invariant: every stacked node's region intersects `query`
        // (checked incrementally on the split axis; the other axes are
        // inherited from the parent). Working with the raw query instead
        // of `query ∩ bounds` is equivalent because every region is
        // contained in the bounds.
        let mut stack = [(0u32, BitCode::ROOT); MAX_STACK];
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let (idx, code) = stack[top];
            let idx = idx as usize;
            if code.len() >= min_len && self.query_contains_node(query, idx) {
                out.push(code);
                continue;
            }
            let a = self.axis[idx];
            if a == LEAF_AXIS {
                out.push(code);
                continue;
            }
            let d = a as usize;
            let t = self.threshold[idx];
            let c = self.child[idx];
            if query.hi(d) > t {
                stack[top] = (c + 1, code.child(true));
                top += 1;
            }
            if query.lo(d) <= t {
                stack[top] = (c, code.child(false));
                top += 1;
            }
        }
    }

    /// The longest single code whose region contains all of
    /// `query ∩ bounds` — where a query is first routed before splitting.
    ///
    /// Returns `None` when the query misses the domain entirely.
    pub fn query_prefix(&self, query: &HyperRect) -> Option<BitCode> {
        if !self.bounds.intersects(query) {
            return None;
        }
        let mut code = BitCode::ROOT;
        let mut idx = 0usize;
        loop {
            let a = self.axis[idx];
            if a == LEAF_AXIS {
                return Some(code);
            }
            let d = a as usize;
            let t = self.threshold[idx];
            // The clipped query's extent on the split axis, computed on
            // the fly instead of materializing `query ∩ bounds`. The
            // current region always contains the clipped query, so each
            // child intersects it iff the clipped extent straddles `t`.
            let in_lo = query.lo(d).max(self.bounds.lo(d)) <= t;
            let in_hi = query.hi(d).min(self.bounds.hi(d)) > t;
            match (in_lo, in_hi) {
                (true, false) => {
                    code = code.child(false);
                    idx = self.child[idx] as usize;
                }
                (false, true) => {
                    code = code.child(true);
                    idx = self.child[idx] as usize + 1;
                }
                _ => return Some(code),
            }
        }
    }

    /// All `(leaf code, leaf hyper-rectangle)` pairs, in code order —
    /// served straight from the memo tables.
    pub fn leaves(&self) -> Vec<(BitCode, HyperRect)> {
        self.leaf_codes
            .iter()
            .zip(&self.leaf_rects)
            .map(|(c, r)| (*c, r.span(r)))
            .collect()
    }

    /// Maximum leaf depth (code length) of the tree.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_codes.len()
    }

    /// Distributes `points` over the leaves and returns the per-leaf counts
    /// (in leaf order) — the storage-balance measurement behind Figure 13.
    pub fn leaf_occupancy(&self, points: impl Iterator<Item = Vec<Value>>) -> Vec<u64> {
        let mut counts = vec![0u64; self.leaf_codes.len()];
        for p in points {
            let code = self.code_for_point(&p);
            if let Ok(i) = self.leaf_codes.binary_search(&code) {
                counts[i] += 1;
            }
        }
        counts
    }

    /// The region of arena node `idx`, joined from its corner leaves.
    #[inline]
    fn node_rect(&self, idx: usize) -> HyperRect {
        let first = &self.leaf_rects[self.leaf_start[idx] as usize];
        let last = &self.leaf_rects[self.leaf_end[idx] as usize - 1];
        first.span(last)
    }

    /// `query.contains_rect(region of idx)` without materializing the
    /// region: lower bounds come from the leftmost descendant leaf, upper
    /// bounds from the rightmost.
    #[inline]
    fn query_contains_node(&self, query: &HyperRect, idx: usize) -> bool {
        let first = &self.leaf_rects[self.leaf_start[idx] as usize];
        let last = &self.leaf_rects[self.leaf_end[idx] as usize - 1];
        (0..query.dims()).all(|d| query.lo(d) <= first.lo(d) && last.hi(d) <= query.hi(d))
    }
}

/// Recursively wires up preorder node `idx` (high-child pointer in
/// `child`, leaf span, leaf memo) and returns the index one past its
/// subtree; the caller then permutes the columns to level order. Errors
/// instead of panicking on malformed columns — this path runs on wire
/// input. The depth guard bounds the recursion at `MAX_CODE_LEN + 1`
/// frames.
fn rebuild(
    tree: &mut CutTree,
    idx: usize,
    rect: HyperRect,
    code: BitCode,
) -> Result<usize, &'static str> {
    if idx >= tree.axis.len() {
        return Err("cut tree preorder walk ran off the columns");
    }
    let a = tree.axis[idx];
    if a == LEAF_AXIS {
        let li = tree.leaf_codes.len() as u32;
        tree.leaf_start[idx] = li;
        tree.leaf_end[idx] = li + 1;
        tree.leaf_codes.push(code);
        tree.leaf_rects.push(rect);
        tree.depth = tree.depth.max(code.len());
        return Ok(idx + 1);
    }
    let d = a as usize;
    if d >= tree.bounds.dims() {
        return Err("cut tree split axis out of range");
    }
    let t = tree.threshold[idx];
    if !(rect.lo(d) <= t && t < rect.hi(d)) {
        return Err("cut tree threshold outside its region's interior");
    }
    if code.len() >= MAX_CODE_LEN {
        return Err("cut tree deeper than the 64-bit code space");
    }
    let (lo_rect, hi_rect) = rect.split_at(d, t);
    let ls = tree.leaf_codes.len() as u32;
    let hi_idx = rebuild(tree, idx + 1, lo_rect, code.child(false))?;
    tree.child[idx] = hi_idx as u32;
    let end = rebuild(tree, hi_idx, hi_rect, code.child(true))?;
    tree.leaf_start[idx] = ls;
    tree.leaf_end[idx] = tree.leaf_codes.len() as u32;
    Ok(end)
}

// ---- wire form ----
//
// Only the defining columns cross the wire: bounds, axis, threshold. The
// derived state (child pointers, leaf memo, depth) is rebuilt — and the
// columns validated — on arrival, so a malformed message is a decode
// error, never a panic deeper in the query path.

impl Serialize for CutTree {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // The arena is stored in level order; the wire format is the
        // preorder walk (what the builders emit), so re-derive it.
        let n = self.axis.len();
        let mut axis = Vec::with_capacity(n);
        let mut threshold = Vec::with_capacity(n);
        let mut stack = Vec::with_capacity(self.depth as usize + 2);
        stack.push(0u32);
        while let Some(i) = stack.pop() {
            let i = i as usize;
            axis.push(self.axis[i]);
            threshold.push(self.threshold[i]);
            if self.axis[i] != LEAF_AXIS {
                let c = self.child[i];
                stack.push(c + 1); // popped after the low subtree
                stack.push(c);
            }
        }
        let mut s = serializer.serialize_struct("CutTree", 3)?;
        s.serialize_field("bounds", &self.bounds)?;
        s.serialize_field("axis", &axis)?;
        s.serialize_field("threshold", &threshold)?;
        s.end()
    }
}

/// The owned decode target matching [`CutTree`]'s serialized shape.
#[derive(Deserialize)]
struct CutTreeWire {
    bounds: HyperRect,
    axis: Vec<u16>,
    threshold: Vec<Value>,
}

impl<'de> Deserialize<'de> for CutTree {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let w = CutTreeWire::deserialize(deserializer)?;
        CutTree::from_columns(w.bounds, w.axis, w.threshold).map_err(D::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds2() -> HyperRect {
        HyperRect::new(vec![0, 0], vec![1023, 1023])
    }

    #[test]
    fn leaf_rect_hits_exact_leaves_only() {
        let t = CutTree::even(bounds2(), 3);
        for (code, rect) in t.leaves() {
            assert_eq!(t.leaf_rect(&code), Some(&rect));
            assert_eq!(t.rect_for_code(&code), rect);
        }
        // Interior code: no memo entry, but rect_for_code still serves it.
        let interior = BitCode::parse("0").unwrap();
        assert_eq!(t.leaf_rect(&interior), None);
        assert_eq!(
            t.rect_for_code(&interior),
            HyperRect::new(vec![0, 0], vec![511, 1023])
        );
    }

    #[test]
    fn covering_codes_into_reuses_the_buffer() {
        let t = CutTree::even(bounds2(), 4);
        let mut buf = Vec::new();
        t.covering_codes_into(&bounds2(), 0, &mut buf);
        assert_eq!(buf, vec![BitCode::ROOT]);
        let tiny = HyperRect::new(vec![10, 10], vec![20, 20]);
        t.covering_codes_into(&tiny, 0, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].len(), 4);
        // A missing query clears the buffer rather than appending.
        let outside = HyperRect::new(vec![2000, 2000], vec![3000, 3000]);
        t.covering_codes_into(&outside, 0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn single_point_domain_is_one_leaf() {
        let t = CutTree::even(HyperRect::new(vec![5, 5], vec![5, 5]), 8);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.code_for_point(&[5, 5]), BitCode::ROOT);
        assert_eq!(t.leaf_rect(&BitCode::ROOT).unwrap(), t.bounds());
    }

    #[test]
    fn from_columns_rejects_malformed_wire_input() {
        let b = bounds2();
        // Truncated: a split with no children.
        assert!(CutTree::from_columns(b.span(&b), vec![0], vec![511]).is_err());
        // Dangling: nodes after the preorder walk completes.
        assert!(CutTree::from_columns(b.span(&b), vec![LEAF_AXIS, LEAF_AXIS], vec![0, 0]).is_err());
        // Axis out of range.
        assert!(
            CutTree::from_columns(b.span(&b), vec![7, LEAF_AXIS, LEAF_AXIS], vec![511, 0, 0])
                .is_err()
        );
        // Threshold outside the region interior.
        assert!(
            CutTree::from_columns(b.span(&b), vec![0, LEAF_AXIS, LEAF_AXIS], vec![1023, 0, 0])
                .is_err()
        );
        // Column length mismatch and empty arenas.
        assert!(CutTree::from_columns(b.span(&b), vec![LEAF_AXIS], vec![]).is_err());
        assert!(CutTree::from_columns(b.span(&b), vec![], vec![]).is_err());
        // A well-formed single split parses.
        let ok = CutTree::from_columns(b.span(&b), vec![0, LEAF_AXIS, LEAF_AXIS], vec![511, 0, 0])
            .unwrap();
        assert_eq!(ok.leaf_count(), 2);
        assert_eq!(ok.depth(), 1);
    }

    /// An allocation here silently re-grows the per-hop routing cost the
    /// arena removed; sizing with `with_capacity` or `vec![..]` stays legal.
    #[test]
    fn no_allocating_calls_outside_tests() {
        let src = include_str!("flat.rs");
        let (body, _) = src.split_once("\n#[cfg(test)]").expect("a test module");
        for needle in ["Vec::new(", ".to_vec(", ".clone("] {
            assert!(!body.contains(needle), "flat.rs calls `{needle}`");
        }
    }

    #[test]
    fn occupancy_counts_in_leaf_order() {
        let t = CutTree::even(bounds2(), 2);
        let pts = vec![vec![0, 0], vec![0, 1023], vec![1023, 1023], vec![1, 1]];
        assert_eq!(t.leaf_occupancy(pts.into_iter()), vec![2, 1, 0, 1]);
    }
}
