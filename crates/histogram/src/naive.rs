//! The test-only cut-tree oracle and the properties that race the flat
//! arena against it.
//!
//! [`NaiveCutTree`] holds the builders' preorder columns as a boxed tree
//! and answers every traversal the obvious way: it clamps a point before
//! descending, re-splits the bounds cut by cut, and recurses. The flat
//! [`CutTree`](crate::CutTree) is the routing hot path — codes it emits
//! become overlay addresses, so a single differing bit silently misroutes
//! records. Every
//! query surface (`code_for_point`, `rect_for_code`, `covering_codes`,
//! `covering_codes_at_least`, `query_prefix`, `leaf_occupancy`) is
//! therefore checked bit-for-bit against the oracle across all three
//! builders (even cuts, point-balanced, histogram-balanced), with the
//! awkward inputs the unit tests skip: duplicate-heavy point sets,
//! out-of-bounds probes, codes deeper than the tree, degenerate one-leaf
//! domains, and requested depths far beyond what a tiny domain can
//! realize.

use crate::cuts::Columns;
use crate::flat::LEAF_AXIS;
use mind_types::{BitCode, HyperRect, Value};

enum Node {
    Leaf,
    Split {
        dim: usize,
        /// Low half is `value <= threshold`, high half is `value > threshold`.
        threshold: Value,
        low: Box<Node>,
        high: Box<Node>,
    },
}

/// A cut tree as boxed nodes, traversed recursively.
pub(crate) struct NaiveCutTree {
    bounds: HyperRect,
    root: Node,
}

impl NaiveCutTree {
    /// The boxed tree over a builder's preorder columns.
    pub(crate) fn new(bounds: HyperRect, cuts: &Columns) -> Self {
        let mut nodes = cuts.axis.iter().zip(&cuts.threshold);
        let root = node(&mut nodes);
        assert!(nodes.next().is_none(), "columns extend past the tree");
        NaiveCutTree { bounds, root }
    }

    pub(crate) fn code_for_point(&self, point: &[Value]) -> BitCode {
        let mut p = point.to_vec();
        self.bounds.clamp_point(&mut p);
        let mut code = BitCode::ROOT;
        let mut node = &self.root;
        while let Node::Split {
            dim,
            threshold,
            low,
            high,
        } = node
        {
            let go_hi = p[*dim] > *threshold;
            code = code.child(go_hi);
            node = if go_hi { high } else { low };
        }
        code
    }

    pub(crate) fn rect_for_code(&self, code: &BitCode) -> HyperRect {
        let mut rect = self.bounds.clone();
        let mut node = &self.root;
        for bit in code.iter_bits() {
            let Node::Split {
                dim,
                threshold,
                low,
                high,
            } = node
            else {
                break;
            };
            let (lo_rect, hi_rect) = rect.split_at(*dim, *threshold);
            (rect, node) = if bit { (hi_rect, high) } else { (lo_rect, low) };
        }
        rect
    }

    pub(crate) fn covering_codes(&self, query: &HyperRect) -> Vec<BitCode> {
        self.covering_codes_at_least(query, 0)
    }

    pub(crate) fn covering_codes_at_least(&self, query: &HyperRect, min_len: u8) -> Vec<BitCode> {
        let mut out = Vec::new();
        if let Some(clipped) = self.bounds.intersection(query) {
            cover(
                &self.root,
                &self.bounds,
                &clipped,
                BitCode::ROOT,
                min_len,
                &mut out,
            );
        }
        out
    }

    pub(crate) fn query_prefix(&self, query: &HyperRect) -> Option<BitCode> {
        let clipped = self.bounds.intersection(query)?;
        let mut code = BitCode::ROOT;
        let mut rect = self.bounds.clone();
        let mut node = &self.root;
        while let Node::Split {
            dim,
            threshold,
            low,
            high,
        } = node
        {
            let (lo_rect, hi_rect) = rect.split_at(*dim, *threshold);
            match (lo_rect.intersects(&clipped), hi_rect.intersects(&clipped)) {
                (true, false) => (code, rect, node) = (code.child(false), lo_rect, low),
                (false, true) => (code, rect, node) = (code.child(true), hi_rect, high),
                _ => break,
            }
        }
        Some(code)
    }

    /// All `(leaf code, leaf hyper-rectangle)` pairs, in code order.
    pub(crate) fn leaves(&self) -> Vec<(BitCode, HyperRect)> {
        let mut out = Vec::new();
        collect_leaves(&self.root, &self.bounds, BitCode::ROOT, &mut out);
        out
    }

    pub(crate) fn depth(&self) -> u8 {
        fn d(n: &Node) -> u8 {
            match n {
                Node::Leaf => 0,
                Node::Split { low, high, .. } => 1 + d(low).max(d(high)),
            }
        }
        d(&self.root)
    }

    pub(crate) fn leaf_occupancy(&self, points: impl Iterator<Item = Vec<Value>>) -> Vec<u64> {
        let leaves = self.leaves();
        let mut counts = vec![0u64; leaves.len()];
        for p in points {
            let code = self.code_for_point(&p);
            let leaf = leaves.iter().position(|(c, _)| *c == code);
            counts[leaf.expect("a point's code names a leaf")] += 1;
        }
        counts
    }
}

fn node<'a>(nodes: &mut impl Iterator<Item = (&'a u16, &'a Value)>) -> Node {
    match nodes.next() {
        None => panic!("columns end inside the tree"),
        Some((&LEAF_AXIS, _)) => Node::Leaf,
        Some((&axis, &threshold)) => Node::Split {
            dim: axis as usize,
            threshold,
            low: Box::new(node(nodes)),
            high: Box::new(node(nodes)),
        },
    }
}

fn cover(
    node: &Node,
    rect: &HyperRect,
    query: &HyperRect,
    code: BitCode,
    min_len: u8,
    out: &mut Vec<BitCode>,
) {
    if code.len() >= min_len && query.contains_rect(rect) {
        out.push(code);
        return;
    }
    match node {
        Node::Leaf => out.push(code),
        Node::Split {
            dim,
            threshold,
            low,
            high,
        } => {
            let (lo_rect, hi_rect) = rect.split_at(*dim, *threshold);
            if lo_rect.intersects(query) {
                cover(low, &lo_rect, query, code.child(false), min_len, out);
            }
            if hi_rect.intersects(query) {
                cover(high, &hi_rect, query, code.child(true), min_len, out);
            }
        }
    }
}

fn collect_leaves(
    node: &Node,
    rect: &HyperRect,
    code: BitCode,
    out: &mut Vec<(BitCode, HyperRect)>,
) {
    match node {
        Node::Leaf => out.push((code, rect.clone())),
        Node::Split {
            dim,
            threshold,
            low,
            high,
        } => {
            let (lo_rect, hi_rect) = rect.split_at(*dim, *threshold);
            collect_leaves(low, &lo_rect, code.child(false), out);
            collect_leaves(high, &hi_rect, code.child(true), out);
        }
    }
}

mod tests {
    use super::NaiveCutTree;
    use crate::cuts::{self, Columns};
    use crate::{CutTree, GridHistogram};
    use mind_types::{BitCode, HyperRect, Value};
    use proptest::prelude::*;

    fn bounds2() -> HyperRect {
        HyperRect::new(vec![0, 0], vec![1023, 1023])
    }

    /// The oracle and the product over one builder's columns.
    fn pair(bounds: HyperRect, cuts: Columns) -> (NaiveCutTree, CutTree) {
        let naive = NaiveCutTree::new(bounds.clone(), &cuts);
        (naive, CutTree::build(bounds, cuts))
    }

    /// One (oracle, flat) pair per builder, all over the same inputs.
    fn tree_pairs(depth: u8, pts: &[Vec<Value>]) -> Vec<(NaiveCutTree, CutTree)> {
        let refs: Vec<&[Value]> = pts.iter().map(|p| p.as_slice()).collect();
        let mut hist = GridHistogram::new(bounds2(), 32);
        for p in pts {
            hist.add(p);
        }
        vec![
            pair(bounds2(), cuts::even(&bounds2(), depth)),
            pair(
                bounds2(),
                cuts::balanced_from_points(&bounds2(), depth, &refs),
            ),
            pair(
                bounds2(),
                cuts::balanced_from_histogram(&bounds2(), depth, &hist),
            ),
        ]
    }

    fn arb_points() -> impl Strategy<Value = Vec<Vec<Value>>> {
        prop::collection::vec(prop::collection::vec(0u64..=1023, 2), 1..150)
    }

    /// Duplicate-heavy point sets: coordinates drawn from eight values, so
    /// balanced builders see long runs of equal points and repeated
    /// thresholds.
    fn arb_clumped_points() -> impl Strategy<Value = Vec<Vec<Value>>> {
        prop::collection::vec(prop::collection::vec(0u64..=7, 2), 1..150)
    }

    fn arb_query() -> impl Strategy<Value = HyperRect> {
        (0u64..=1200, 0u64..=1200, 0u64..600, 0u64..600).prop_map(|(x, y, w, h)| {
            // Deliberately allowed to hang past the domain edge (and to miss
            // the domain entirely): clipping is part of the contract.
            HyperRect::new(vec![x, y], vec![x + w, y + h])
        })
    }

    proptest! {
        #[test]
        fn prop_codes_bit_identical(
            depth in 0u8..8,
            pts in arb_points(),
            px in 0u64..=4000,
            py in 0u64..=4000,
        ) {
            for (naive, flat) in tree_pairs(depth, &pts) {
                // Every build point, plus an arbitrary (possibly out-of-bounds)
                // probe: the flat descent skips the oracle's clamp, so the
                // out-of-range cases are exactly where they could diverge.
                let probe = vec![px, py];
                for p in pts.iter().chain(std::iter::once(&probe)) {
                    prop_assert_eq!(flat.code_for_point(p), naive.code_for_point(p));
                }
            }
        }

        #[test]
        fn prop_rect_for_code_matches_even_past_the_leaves(
            depth in 0u8..7,
            pts in arb_points(),
            extra in prop::collection::vec(any::<bool>(), 0..4),
        ) {
            for (naive, flat) in tree_pairs(depth, &pts) {
                prop_assert_eq!(flat.leaves(), naive.leaves());
                for (code, rect) in naive.leaves() {
                    prop_assert_eq!(flat.rect_for_code(&code), rect.clone());
                    prop_assert_eq!(flat.leaf_rect(&code), Some(&rect));
                    // Trailing bits past a leaf are ignored by both trees.
                    let mut deep = code;
                    for &b in &extra {
                        deep = deep.child(b);
                    }
                    prop_assert_eq!(flat.rect_for_code(&deep), naive.rect_for_code(&deep));
                }
            }
        }

        #[test]
        fn prop_covering_codes_match(
            depth in 0u8..7,
            pts in arb_points(),
            q in arb_query(),
            min_len in 0u8..8,
        ) {
            for (naive, flat) in tree_pairs(depth, &pts) {
                prop_assert_eq!(flat.covering_codes(&q), naive.covering_codes(&q));
                prop_assert_eq!(
                    flat.covering_codes_at_least(&q, min_len),
                    naive.covering_codes_at_least(&q, min_len)
                );
            }
        }

        #[test]
        fn prop_query_prefix_matches(depth in 0u8..7, pts in arb_points(), q in arb_query()) {
            for (naive, flat) in tree_pairs(depth, &pts) {
                prop_assert_eq!(flat.query_prefix(&q), naive.query_prefix(&q));
            }
        }

        #[test]
        fn prop_duplicate_heavy_builds_agree(depth in 0u8..8, pts in arb_clumped_points()) {
            for (naive, flat) in tree_pairs(depth, &pts) {
                for p in &pts {
                    prop_assert_eq!(
                        flat.code_for_point(p),
                        naive.code_for_point(p)
                    );
                }
                prop_assert_eq!(flat.leaves(), naive.leaves());
            }
        }

        #[test]
        fn prop_single_point_domain_is_one_leaf(v in 0u64..=1023, depth in 0u8..64) {
            // A zero-width domain can never split, no matter the requested
            // depth: both trees must collapse to the root leaf.
            let dom = HyperRect::new(vec![v, v], vec![v, v]);
            let flat = CutTree::even(dom.clone(), depth);
            prop_assert_eq!(flat.depth(), 0);
            prop_assert_eq!(flat.leaf_count(), 1);
            prop_assert_eq!(flat.code_for_point(&[v, v]), BitCode::ROOT);
            prop_assert_eq!(flat.leaf_rect(&BitCode::ROOT), Some(&dom));
            prop_assert_eq!(flat.query_prefix(&dom), Some(BitCode::ROOT));
        }

        #[test]
        fn prop_tiny_domain_at_huge_requested_depth(
            w in 0u64..=3,
            h in 0u64..=3,
            depth in 8u8..64,
            px in 0u64..=3,
            py in 0u64..=3,
        ) {
            // The requested depth dwarfs what a <=4x4 domain can realize; the
            // builders must bottom out on unit-width axes, and the flat tree
            // must mirror wherever the oracle stopped.
            let dom = HyperRect::new(vec![0, 0], vec![w, h]);
            let (naive, flat) = pair(dom.clone(), cuts::even(&dom, depth));
            prop_assert_eq!(flat.depth(), naive.depth());
            prop_assert_eq!(flat.leaves(), naive.leaves());
            prop_assert_eq!(
                flat.code_for_point(&[px, py]),
                naive.code_for_point(&[px, py])
            );
        }

        #[test]
        fn prop_occupancy_matches(depth in 0u8..6, pts in arb_points()) {
            for (naive, flat) in tree_pairs(depth, &pts) {
                prop_assert_eq!(
                    flat.leaf_occupancy(pts.iter().cloned()),
                    naive.leaf_occupancy(pts.iter().cloned())
                );
            }
        }
    }
}
