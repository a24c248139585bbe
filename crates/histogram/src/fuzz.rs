//! In-library fuzz driver for the [`CutTree::from_columns`] wire decoder.
//!
//! The executable fuzz target (`fuzz/fuzz_targets/cut_columns.rs`) is a
//! one-line `libfuzzer_sys` wrapper around [`fuzz_cut_columns`]; keeping
//! the body here means a crashing input replays as a plain unit test with
//! no fuzzing toolchain installed, and gives the driver `pub(crate)`
//! access to the column decoder. It lives outside `flat.rs` so the
//! `routealloc` lint wall on that file (the descent paths are
//! allocation-free by construction) keeps applying to the hot paths
//! alone — a fuzz harness allocates freely by design.

use crate::flat::{CutTree, LEAF_AXIS};
use mind_types::code::MAX_CODE_LEN;
use mind_types::{BitCode, HyperRect};

/// Fuzz driver shared by the `cut_columns` fuzz target and its unit
/// tests: parses arbitrary bytes into the serialized cut-tree columns
/// (`bounds`, `axis`, `threshold`), feeds them through the same
/// [`CutTree::from_columns`] validation the wire decoder runs, and — when
/// the columns are accepted — asserts the structural invariants every
/// valid tree must satisfy. A malformed input must come back as `Err`,
/// never a panic, because this path runs on untrusted catalog messages.
///
/// Input layout: `data[0]` picks the dimensionality (`1 + data[0] % 3`);
/// the next `2 * dims` little-endian u64s become the bounds (normalized
/// so `lo <= hi` per axis); each remaining 3-byte chunk `[a, t0, t1]` is
/// one preorder node — `a & 0x80` marks a leaf, otherwise the axis is
/// `a % (dims + 1)` (occasionally out of range, to reach the axis-check
/// error path) and the 16-bit tail is scaled across that axis's root
/// span so both interior and non-interior thresholds occur.
pub fn fuzz_cut_columns(data: &[u8]) {
    let Some((&ctl, rest)) = data.split_first() else {
        return;
    };
    let dims = 1 + (ctl % 3) as usize;
    if rest.len() < 16 * dims {
        return;
    }
    let (bound_bytes, node_bytes) = rest.split_at(16 * dims);
    let mut nums = bound_bytes.chunks_exact(8).map(|c| {
        let mut b = [0u8; 8];
        b.copy_from_slice(c);
        u64::from_le_bytes(b)
    });
    let mut lo = Vec::with_capacity(dims);
    let mut hi = Vec::with_capacity(dims);
    for _ in 0..dims {
        #[expect(clippy::unwrap_used, reason = "split_at guarantees 2*dims u64s")]
        let (a, b) = (nums.next().unwrap(), nums.next().unwrap());
        lo.push(a.min(b));
        hi.push(a.max(b));
    }
    let bounds = HyperRect::new(lo, hi);

    // Cap the node count so a pathological input length stays fast.
    let mut axis = Vec::with_capacity(64);
    let mut threshold = Vec::with_capacity(64);
    for chunk in node_bytes.chunks_exact(3).take(8192) {
        let (a, raw) = (chunk[0], u16::from_le_bytes([chunk[1], chunk[2]]) as u64);
        if a & 0x80 != 0 {
            axis.push(LEAF_AXIS);
            threshold.push(0);
        } else {
            let d = (a % (dims as u8 + 1)) as usize;
            axis.push(d as u16);
            threshold.push(match bounds.los().get(d) {
                Some(&l) if bounds.hi(d) > l => {
                    l + ((raw as u128 * (bounds.hi(d) - l) as u128) >> 16) as u64
                }
                _ => raw,
            });
        }
    }

    let Ok(tree) = CutTree::from_columns(bounds.clone(), axis.clone(), threshold.clone()) else {
        return;
    };

    // A valid preorder binary tree has one more leaf than it has splits.
    let n = axis.len();
    assert_eq!(tree.leaf_count(), n / 2 + 1, "leaf count vs column length");
    assert!(tree.depth() <= MAX_CODE_LEN, "depth exceeds the code space");

    // Rebuilding from the same columns is deterministic.
    let again = match CutTree::from_columns(bounds.clone(), axis, threshold) {
        Ok(t) => t,
        Err(e) => panic!("second rebuild of accepted columns: {e}"),
    };
    assert_eq!(
        tree.leaves(),
        again.leaves(),
        "rebuild is not deterministic"
    );

    // Leaf memo invariants: codes strictly increasing, rects inside the
    // bounds, and the three addressing paths (exact-leaf memo, code walk,
    // point descent) agree on every leaf.
    let leaves = tree.leaves();
    for pair in leaves.windows(2) {
        assert!(pair[0].0 < pair[1].0, "leaf codes out of order");
    }
    for (code, rect) in &leaves {
        assert!(bounds.contains_rect(rect), "leaf escapes the bounds");
        assert_eq!(tree.leaf_rect(code), Some(rect), "leaf memo lookup");
        assert_eq!(&tree.rect_for_code(code), rect, "code walk disagrees");
        assert_eq!(&tree.code_for_point(rect.los()), code, "lo corner");
        assert_eq!(&tree.code_for_point(rect.his()), code, "hi corner");
    }

    // Fully refining the whole domain enumerates exactly the leaves.
    let refined = tree.covering_codes_at_least(&bounds, MAX_CODE_LEN);
    let leaf_codes: Vec<BitCode> = leaves.iter().map(|(c, _)| *c).collect();
    assert_eq!(refined, leaf_codes, "full refinement != leaf set");
    assert!(
        tree.query_prefix(&bounds).is_some(),
        "whole domain has no routing prefix"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays the `cut_columns` fuzz driver on the committed seed shapes
    /// (well-formed trees and each rejection class) plus a pseudo-random
    /// byte soup, so a crashing fuzz input reproduces as a unit test.
    #[test]
    fn fuzz_cut_columns_replays_seed_shapes() {
        let b = |lo: u64, hi: u64| {
            let mut v = lo.to_le_bytes().to_vec();
            v.extend(hi.to_le_bytes());
            v
        };
        // Degenerate and truncated inputs return without parsing.
        fuzz_cut_columns(&[]);
        fuzz_cut_columns(&[0x00]);
        fuzz_cut_columns(&[0x02, 1, 2, 3]); // dims=3 but bounds cut short

        // Single leaf, one split, and a nested 2-dim tree.
        let mut one = vec![0x00];
        one.extend(b(0, 1023));
        one.extend([0x80, 0, 0]);
        fuzz_cut_columns(&one);
        let mut split = vec![0x01];
        split.extend(b(0, 1023));
        split.extend(b(0, 1023));
        split.extend([0x00, 0x00, 0x80]); // split axis 0 at ~mid
        split.extend([0x80, 0, 0]);
        split.extend([0x01, 0x00, 0x40]); // high child splits axis 1
        split.extend([0x80, 0, 0]);
        split.extend([0x80, 0, 0]);
        fuzz_cut_columns(&split);
        // Error classes: truncated walk, bad axis, degenerate axis.
        let mut trunc = vec![0x00];
        trunc.extend(b(0, 1023));
        trunc.extend([0x00, 0x00, 0x80]);
        trunc.extend([0x80, 0, 0]);
        fuzz_cut_columns(&trunc);
        let mut bad_axis = vec![0x00];
        bad_axis.extend(b(0, 1023));
        bad_axis.extend([0x01, 0x00, 0x80]);
        bad_axis.extend([0x80, 0, 0]);
        bad_axis.extend([0x80, 0, 0]);
        fuzz_cut_columns(&bad_axis);
        let mut degen = vec![0x00];
        degen.extend(b(7, 7));
        degen.extend([0x00, 0x34, 0x12]);
        degen.extend([0x80, 0, 0]);
        degen.extend([0x80, 0, 0]);
        fuzz_cut_columns(&degen);
        // Deterministic byte soup (xorshift), exercising arbitrary mixes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut soup = Vec::with_capacity(4096);
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            soup.push(x as u8);
        }
        for chunk in soup.chunks(257) {
            fuzz_cut_columns(chunk);
        }
        fuzz_cut_columns(&soup);
    }
}
