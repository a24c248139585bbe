//! Recursive data-space cut builders (Sections 3.4 and 3.7).
//!
//! A cut tree records the sequence of hyper-plane cuts MIND applies to an
//! index's bounding hyper-rectangle. Each cut splits one axis of a region
//! into a *low* half (code bit `0`) and a *high* half (code bit `1`);
//! repeating the cuts to depth `L` yields up to `2^L` leaf
//! hyper-rectangles, each named by an `L`-bit [`BitCode`](mind_types::BitCode).
//! Records are stored at the overlay node whose (shorter) code is a prefix
//! of the record's leaf code, which is what makes records that are near
//! each other in the attribute space land on the same node.
//!
//! Two construction strategies correspond to Figure 5:
//!
//! * **even** cuts split each axis at its midpoint regardless of the data —
//!   simple, but storage becomes as skewed as the traffic (Figure 2);
//! * **balanced** cuts place each hyper-plane at the weighted median of the
//!   observed data distribution (from raw points, or from the
//!   [`GridHistogram`] shipped by the daily collection protocol), so every
//!   leaf holds approximately the same number of tuples.
//!
//! The tree is independent of the overlay: `k` (data dimensions) and the
//! hypercube dimensionality are decoupled, exactly as Section 3.4 requires.
//!
//! The builders here emit the preorder [`Columns`] — the form the wire
//! carries — and [`CutTree`](crate::CutTree)'s constructors validate them
//! through the same `from_columns` a decoded tree takes, so there is one
//! build path.

use crate::flat::LEAF_AXIS;
use crate::grid::GridHistogram;
use mind_types::code::MAX_CODE_LEN;
use mind_types::{HyperRect, Value};

/// The preorder cut columns of one tree: an `axis` and a `threshold` per
/// node, low subtree before high, with [`LEAF_AXIS`] (threshold 0)
/// marking a leaf.
#[derive(Debug, Default)]
pub(crate) struct Columns {
    pub(crate) axis: Vec<u16>,
    pub(crate) threshold: Vec<Value>,
}

impl Columns {
    fn leaf(&mut self) {
        self.axis.push(LEAF_AXIS);
        self.threshold.push(0);
    }

    fn split(&mut self, dim: usize, threshold: Value) {
        assert!(dim < LEAF_AXIS as usize, "axis collides with leaf sentinel");
        self.axis.push(dim as u16);
        self.threshold.push(threshold);
    }
}

/// Even (midpoint) cuts of the given depth.
pub(crate) fn even(bounds: &HyperRect, depth: u8) -> Columns {
    assert!(depth <= MAX_CODE_LEN);
    let mut out = Columns::default();
    build_even(bounds, 0, depth, &mut out);
    out
}

/// Balanced cuts of the given depth over raw data points.
pub(crate) fn balanced_from_points(bounds: &HyperRect, depth: u8, points: &[&[Value]]) -> Columns {
    assert!(depth <= MAX_CODE_LEN);
    let owned: Vec<Vec<Value>> = points
        .iter()
        .map(|p| {
            assert_eq!(p.len(), bounds.dims(), "point dimensionality mismatch");
            let mut v = p.to_vec();
            bounds.clamp_point(&mut v);
            v
        })
        .collect();
    let mut out = Columns::default();
    build_balanced_points(bounds, 0, depth, owned, &mut out);
    out
}

/// Balanced cuts of the given depth over an aggregated histogram.
pub(crate) fn balanced_from_histogram(
    bounds: &HyperRect,
    depth: u8,
    hist: &GridHistogram,
) -> Columns {
    assert!(depth <= MAX_CODE_LEN);
    assert_eq!(hist.bounds(), bounds, "histogram bounds mismatch");
    let bins: Vec<(Vec<u64>, u64)> = hist.raw_bins().collect();
    let mut out = Columns::default();
    build_balanced_hist(bounds, 0, depth, &bins, hist, &mut out);
    out
}

/// Picks the first splittable axis starting from `level % dims`, or `None`
/// when the region is a leaf: `depth` is reached, or it is a single point.
fn pick_axis(rect: &HyperRect, level: u8, depth: u8) -> Option<usize> {
    if level >= depth {
        return None;
    }
    let dims = rect.dims();
    (0..dims)
        .map(|i| (level as usize + i) % dims)
        .find(|&d| rect.splittable(d))
}

fn build_even(rect: &HyperRect, level: u8, depth: u8, out: &mut Columns) {
    let Some(dim) = pick_axis(rect, level, depth) else {
        return out.leaf();
    };
    let t = rect.midpoint(dim);
    out.split(dim, t);
    let (lo, hi) = rect.split_at(dim, t);
    build_even(&lo, level + 1, depth, out);
    build_even(&hi, level + 1, depth, out);
}

fn build_balanced_points(
    rect: &HyperRect,
    level: u8,
    depth: u8,
    points: Vec<Vec<Value>>,
    out: &mut Columns,
) {
    let Some(dim) = pick_axis(rect, level, depth) else {
        return out.leaf();
    };
    let threshold = median_threshold(rect, dim, &points).unwrap_or_else(|| rect.midpoint(dim));
    out.split(dim, threshold);
    let (lo_rect, hi_rect) = rect.split_at(dim, threshold);
    let (lo_pts, hi_pts) = points.into_iter().partition(|p| p[dim] <= threshold);
    build_balanced_points(&lo_rect, level + 1, depth, lo_pts, out);
    build_balanced_points(&hi_rect, level + 1, depth, hi_pts, out);
}

/// The threshold `t ∈ [lo, hi)` along `dim` that best halves `points`, or
/// `None` when the points give no information (empty, or all identical on
/// this axis at the low edge with no room to cut below them).
fn median_threshold(rect: &HyperRect, dim: usize, points: &[Vec<Value>]) -> Option<Value> {
    if points.is_empty() {
        return None;
    }
    let mut coords: Vec<Value> = points.iter().map(|p| p[dim]).collect();
    coords.sort_unstable();
    let n = coords.len();
    // Candidate thresholds straddle the median; clamp into the valid open
    // interval [lo, hi).
    let clamp = |v: Value| v.clamp(rect.lo(dim), rect.hi(dim) - 1);
    let med = clamp(coords[n / 2]);
    let alt = clamp(coords[(n - 1) / 2].saturating_sub(1).max(rect.lo(dim)));
    let left = |t: Value| coords.partition_point(|&c| c <= t);
    let imbalance = |t: Value| {
        let l = left(t);
        (2 * l).abs_diff(n)
    };
    let best = if imbalance(alt) < imbalance(med) {
        alt
    } else {
        med
    };
    // If every point is on one side, the cut gives no balance: report None
    // so the caller can fall back to a midpoint cut.
    let l = left(best);
    if l == 0 || l == n {
        None
    } else {
        Some(best)
    }
}

fn build_balanced_hist(
    rect: &HyperRect,
    level: u8,
    depth: u8,
    bins: &[(Vec<u64>, u64)],
    hist: &GridHistogram,
    out: &mut Columns,
) {
    let Some(dim) = pick_axis(rect, level, depth) else {
        return out.leaf();
    };
    // Try the round-robin axis first, then the others, looking for a bin
    // boundary that splits the in-rect mass; otherwise cut at the midpoint.
    let dims = rect.dims();
    let mut choice: Option<(usize, Value)> = None;
    for i in 0..dims {
        let d = (level as usize + i) % dims;
        if !rect.splittable(d) {
            continue;
        }
        if let Some(t) = histogram_median_boundary(rect, d, bins, hist) {
            choice = Some((d, t));
            break;
        }
    }
    let (dim, threshold) = choice.unwrap_or((dim, rect.midpoint(dim)));
    out.split(dim, threshold);
    let (lo_rect, hi_rect) = rect.split_at(dim, threshold);
    let (lo_bins, hi_bins): (Vec<_>, Vec<_>) = bins
        .iter()
        .cloned()
        .partition(|(coords, _)| hist.bin_rect(coords).lo(dim) <= threshold);
    build_balanced_hist(&lo_rect, level + 1, depth, &lo_bins, hist, out);
    build_balanced_hist(&hi_rect, level + 1, depth, &hi_bins, hist, out);
}

/// Finds the bin boundary along `dim` that best halves the mass of `bins`
/// within `rect`, returning a threshold strictly inside the axis range.
/// `None` when no interior bin boundary separates the mass.
fn histogram_median_boundary(
    rect: &HyperRect,
    dim: usize,
    bins: &[(Vec<u64>, u64)],
    hist: &GridHistogram,
) -> Option<Value> {
    // Collect (bin end along dim, weight) for in-rect bins.
    let mut by_end: std::collections::BTreeMap<Value, u64> = std::collections::BTreeMap::new();
    let mut total = 0u64;
    for (coords, w) in bins {
        let b = hist.bin_rect(coords);
        let end = b.hi(dim).min(rect.hi(dim));
        *by_end.entry(end).or_insert(0) += w;
        total += w;
    }
    if total == 0 || by_end.len() < 2 {
        return None;
    }
    let half = total / 2;
    let mut cum = 0u64;
    let mut best: Option<(u64, Value)> = None;
    for (&end, &w) in &by_end {
        cum += w;
        if end >= rect.hi(dim) {
            break; // a cut at or past the high edge is not interior
        }
        let imbalance = (2 * cum).abs_diff(total);
        if best.is_none_or(|(b, _)| imbalance < b) {
            best = Some((imbalance, end));
        }
        if cum > half {
            break;
        }
    }
    best.map(|(_, t)| t.clamp(rect.lo(dim), rect.hi(dim) - 1))
}

#[cfg(test)]
mod tests {
    use crate::{CutTree, GridHistogram};
    use mind_types::{BitCode, HyperRect, Value};
    use proptest::prelude::*;

    fn bounds2() -> HyperRect {
        HyperRect::new(vec![0, 0], vec![1023, 1023])
    }

    #[test]
    fn even_tree_shape() {
        let t = CutTree::even(bounds2(), 4);
        assert_eq!(t.depth(), 4);
        assert_eq!(t.leaf_count(), 16);
        let leaves = t.leaves();
        // Leaves partition the domain evenly: 16 regions of 256x256.
        for (_, r) in &leaves {
            assert_eq!(r.width(0) * r.width(1), 256 * 256);
        }
    }

    #[test]
    fn code_for_point_descends_correctly() {
        let t = CutTree::even(bounds2(), 2);
        // depth 2: first cut dim 0 at 511, then dim 1 at 511.
        assert_eq!(t.code_for_point(&[0, 0]).to_string(), "00");
        assert_eq!(t.code_for_point(&[0, 1023]).to_string(), "01");
        assert_eq!(t.code_for_point(&[1023, 0]).to_string(), "10");
        assert_eq!(t.code_for_point(&[1023, 1023]).to_string(), "11");
    }

    #[test]
    fn rect_for_code_ignores_extra_bits() {
        let t = CutTree::even(bounds2(), 2);
        let full = t.rect_for_code(&BitCode::parse("00").unwrap());
        let extra = t.rect_for_code(&BitCode::parse("0010").unwrap());
        assert_eq!(full, extra);
    }

    #[test]
    fn narrow_axis_skipped() {
        // Axis 0 has a single value; all cuts must go to axis 1.
        let t = CutTree::even(HyperRect::new(vec![7, 0], vec![7, 1023]), 3);
        assert_eq!(t.leaf_count(), 8);
        for (_, r) in t.leaves() {
            assert_eq!(r.lo(0), 7);
            assert_eq!(r.hi(0), 7);
        }
    }

    #[test]
    fn balanced_points_equalizes_skewed_data() {
        // 90% of points clustered in a corner. Depth-3 balanced tree should
        // hold ~ n/8 per leaf; even tree would put 90% in one leaf.
        let mut pts: Vec<Vec<Value>> = Vec::new();
        for i in 0..900u64 {
            pts.push(vec![i % 30, (i / 30) % 30]); // cluster in [0,30)^2
        }
        for i in 0..100u64 {
            pts.push(vec![100 + i * 9, 500 + (i * 37) % 500]);
        }
        let refs: Vec<&[Value]> = pts.iter().map(|p| p.as_slice()).collect();
        let bal = CutTree::balanced_from_points(bounds2(), 3, &refs);
        let even = CutTree::even(bounds2(), 3);
        let bal_max = *bal
            .leaf_occupancy(pts.iter().cloned())
            .iter()
            .max()
            .unwrap();
        let even_max = *even
            .leaf_occupancy(pts.iter().cloned())
            .iter()
            .max()
            .unwrap();
        assert!(
            bal_max < even_max / 2,
            "balanced max {bal_max} not much better than even max {even_max}"
        );
        assert!(bal_max <= 1000 / 8 * 2, "balanced max {bal_max} too large");
    }

    #[test]
    fn balanced_histogram_tracks_points() {
        let mut pts: Vec<Vec<Value>> = Vec::new();
        for i in 0..1000u64 {
            // Zipf-ish cluster near origin.
            let x = (i * i) % 200;
            let y = (i * 7) % 150;
            pts.push(vec![x, y]);
        }
        let mut hist = GridHistogram::new(bounds2(), 64);
        for p in &pts {
            hist.add(p);
        }
        let tree = CutTree::balanced_from_histogram(bounds2(), 4, &hist);
        let occ = tree.leaf_occupancy(pts.iter().cloned());
        let max = *occ.iter().max().unwrap();
        // Perfect balance would be 1000/16 ≈ 63; histogram granularity
        // limits precision, so allow 4x.
        assert!(max <= 63 * 4, "histogram-balanced max {max} too large");
    }

    #[test]
    fn covering_codes_small_and_large_queries() {
        let t = CutTree::even(bounds2(), 4);
        // Tiny query inside one leaf -> exactly one 4-bit code.
        let tiny = HyperRect::new(vec![10, 10], vec![20, 20]);
        let codes = t.covering_codes(&tiny);
        assert_eq!(codes.len(), 1);
        assert_eq!(codes[0].len(), 4);
        // Whole domain -> single root code.
        let all = t.covering_codes(&bounds2());
        assert_eq!(all, vec![BitCode::ROOT]);
        // Query outside the domain -> empty.
        let outside = HyperRect::new(vec![2000, 2000], vec![3000, 3000]);
        assert!(t.covering_codes(&outside).is_empty());
    }

    #[test]
    fn query_prefix_contains_query() {
        let t = CutTree::even(bounds2(), 6);
        let q = HyperRect::new(vec![100, 200], vec![150, 260]);
        let p = t.query_prefix(&q).unwrap();
        assert!(t.rect_for_code(&p).contains_rect(&q));
        // The prefix is maximal: descending one more bit loses part of q.
        if p.len() < t.depth() {
            let r0 = t.rect_for_code(&p.child(false));
            let r1 = t.rect_for_code(&p.child(true));
            assert!(!r0.contains_rect(&q) && !r1.contains_rect(&q));
        }
    }

    fn arb_points() -> impl Strategy<Value = Vec<Vec<Value>>> {
        prop::collection::vec(prop::collection::vec(0u64..=1023, 2), 1..200)
    }

    proptest! {
        #[test]
        fn prop_leaves_partition_domain(depth in 0u8..7, pts in arb_points()) {
            let refs: Vec<&[Value]> = pts.iter().map(|p| p.as_slice()).collect();
            let t = CutTree::balanced_from_points(bounds2(), depth, &refs);
            let leaves = t.leaves();
            // Disjoint...
            for i in 0..leaves.len() {
                for j in (i + 1)..leaves.len() {
                    prop_assert!(!leaves[i].1.intersects(&leaves[j].1));
                }
            }
            // ...and total volume covers the domain.
            let vol: u128 = leaves
                .iter()
                .map(|(_, r)| r.width(0) * r.width(1))
                .sum();
            prop_assert_eq!(vol, 1024u128 * 1024);
        }

        #[test]
        fn prop_point_code_consistent(pts in arb_points(), x in 0u64..=1023, y in 0u64..=1023) {
            let refs: Vec<&[Value]> = pts.iter().map(|p| p.as_slice()).collect();
            let t = CutTree::balanced_from_points(bounds2(), 5, &refs);
            let code = t.code_for_point(&[x, y]);
            prop_assert!(t.rect_for_code(&code).contains_point(&[x, y]));
        }

        #[test]
        fn prop_covering_codes_cover_and_antichain(
            pts in arb_points(),
            qx in 0u64..=1023, qy in 0u64..=1023,
            w in 0u64..512, h in 0u64..512,
        ) {
            let refs: Vec<&[Value]> = pts.iter().map(|p| p.as_slice()).collect();
            let t = CutTree::balanced_from_points(bounds2(), 6, &refs);
            let q = HyperRect::new(
                vec![qx, qy],
                vec![(qx + w).min(1023), (qy + h).min(1023)],
            );
            let codes = t.covering_codes(&q);
            // Antichain: no code is a prefix of another.
            for i in 0..codes.len() {
                for j in 0..codes.len() {
                    if i != j {
                        prop_assert!(!codes[i].is_prefix_of(&codes[j]));
                    }
                }
            }
            // Coverage: sample points of q are inside some covering rect.
            for (px, py) in [(q.lo(0), q.lo(1)), (q.hi(0), q.hi(1)),
                             ((q.lo(0) + q.hi(0)) / 2, (q.lo(1) + q.hi(1)) / 2)] {
                let hit = codes.iter().any(|c| t.rect_for_code(c).contains_point(&[px, py]));
                prop_assert!(hit, "point ({px},{py}) not covered");
            }
            // Every point lands in the leaf its code names, and querying a
            // point-rect finds that leaf's code as its only cover.
            let point_q = HyperRect::new(vec![qx, qy], vec![qx, qy]);
            let pc = t.covering_codes(&point_q);
            prop_assert_eq!(pc.len(), 1);
            prop_assert!(pc[0].is_prefix_of(&t.code_for_point(&[qx, qy]))
                || t.code_for_point(&[qx, qy]).is_prefix_of(&pc[0]));
        }

        #[test]
        fn prop_query_prefix_prefixes_all_covers(
            pts in arb_points(),
            qx in 0u64..=1000, qy in 0u64..=1000,
        ) {
            let refs: Vec<&[Value]> = pts.iter().map(|p| p.as_slice()).collect();
            let t = CutTree::balanced_from_points(bounds2(), 5, &refs);
            let q = HyperRect::new(vec![qx, qy], vec![(qx + 23).min(1023), (qy + 23).min(1023)]);
            let prefix = t.query_prefix(&q).unwrap();
            for c in t.covering_codes(&q) {
                prop_assert!(prefix.is_prefix_of(&c) || c.is_prefix_of(&prefix));
            }
        }
    }
}
