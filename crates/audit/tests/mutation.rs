//! Mutation tests for the auditor: build a provably clean snapshot, corrupt
//! it surgically, and assert the auditor reports *exactly* the violation the
//! corruption introduces — no more, no less.
//!
//! The clean fixture is a uniform hypercube at `depth` bits: node `i` owns
//! code `from_index(i, depth)`, its neighbor entry at dimension `d` points at
//! the owner of `code.flip(d)` (which makes tables symmetric and puts every
//! entry inside its `flip_prefix(d)` subtree by construction), replication is
//! `Level(1)` toward the dimension-`k-1` neighbor, and every node carries the
//! same two-version index whose cut tree is built by recursive midpoint
//! bisection (so leaf rectangles reassemble into the bounds exactly).

use mind_audit::auditor::{check_query_split, Auditor, ViolationKind};
use mind_audit::snapshot::{
    IndexSnapshot, NeighborSnapshot, NodeSnapshot, ReplicationSnapshot, Snapshot, VersionSnapshot,
};
use mind_types::{BitCode, HyperRect, NodeId};
use proptest::prelude::*;

const TAG: &str = "idx";
const DIMS: usize = 3;

fn id_of(code: BitCode) -> NodeId {
    NodeId(code.as_index() as u32)
}

/// Recursive midpoint bisection: `2^cut_depth` leaves cycling split axes,
/// whose rectangles tile `rect` exactly.
fn build_leaves(
    code: BitCode,
    rect: HyperRect,
    remaining: u8,
    out: &mut Vec<(BitCode, HyperRect)>,
) {
    if remaining == 0 {
        out.push((code, rect));
        return;
    }
    let axis = usize::from(code.len()) % DIMS;
    let (lo, hi) = rect.split_at(axis, rect.midpoint(axis));
    build_leaves(code.child(false), lo, remaining - 1, out);
    build_leaves(code.child(true), hi, remaining - 1, out);
}

/// A quiescent `2^depth`-node cluster holding one `Level(1)`-replicated
/// index with two agreed versions.
fn uniform_cube(depth: u8, cut_depth: u8) -> Snapshot {
    let bounds = HyperRect::new(vec![0; DIMS], vec![1 << 16; DIMS]);
    let mut leaves = Vec::new();
    build_leaves(BitCode::ROOT, bounds.clone(), cut_depth, &mut leaves);
    let versions = vec![
        VersionSnapshot {
            from_ts: 0,
            bounds: bounds.clone(),
            leaves: leaves.clone(),
            primary_rows: 3,
            replica_rows: 1,
        },
        VersionSnapshot {
            from_ts: 86_400,
            bounds,
            leaves,
            primary_rows: 2,
            replica_rows: 0,
        },
    ];

    let n = 1u64 << depth;
    let nodes = (0..n)
        .map(|i| {
            let code = BitCode::from_index(i, depth);
            let neighbors: Vec<NeighborSnapshot> = (0..depth)
                .map(|d| NeighborSnapshot {
                    dim: d,
                    code: code.flip(d),
                    node: id_of(code.flip(d)),
                    alive: true,
                })
                .collect();
            let replica_targets = vec![id_of(code.flip(depth - 1))];
            let mut indexes = std::collections::BTreeMap::new();
            indexes.insert(
                TAG.to_string(),
                IndexSnapshot {
                    replication: ReplicationSnapshot::Level(1),
                    replica_targets,
                    versions: versions.clone(),
                },
            );
            NodeSnapshot {
                id: id_of(code),
                alive: true,
                member: true,
                code: Some(code),
                claimed: Vec::new(),
                neighbors,
                extras: Vec::new(),
                indexes,
            }
        })
        .collect();
    Snapshot {
        now: 1_000_000,
        nodes,
    }
}

fn kinds(snap: &Snapshot, auditor: Auditor) -> Vec<ViolationKind> {
    auditor
        .audit(snap)
        .violations
        .iter()
        .map(|v| v.kind())
        .collect()
}

proptest! {
    // ------------------------------------------------------------------
    // Baseline: the fixture really is clean, at every depth, under the
    // strictest auditor. Every mutation test below rests on this.
    // ------------------------------------------------------------------
    #[test]
    fn clean_cube_audits_clean(depth in 1..=4u8, cut_depth in 1..=5u8) {
        let snap = uniform_cube(depth, cut_depth);
        prop_assert!(Auditor::settled().audit(&snap).is_clean());
        prop_assert!(Auditor::structural().audit(&snap).is_clean());
    }

    // ------------------------------------------------------------------
    // Overlay mutations.
    // ------------------------------------------------------------------

    /// Kill one node (and mark the entries pointing at it dead, as failure
    /// detection would): its region is now uncovered, and nothing else.
    #[test]
    fn dropped_code_is_exactly_a_coverage_gap(depth in 1..=4u8, pick in 0..1024u64) {
        let mut snap = uniform_cube(depth, 2);
        let n = 1u64 << depth;
        let victim = id_of(BitCode::from_index(pick % n, depth));
        for node in &mut snap.nodes {
            if node.id == victim {
                node.alive = false;
                node.member = false;
                node.code = None;
            }
            for e in &mut node.neighbors {
                if e.node == victim {
                    e.alive = false;
                }
            }
            for idx in node.indexes.values_mut() {
                idx.replica_targets.retain(|t| *t != victim);
            }
        }
        prop_assert_eq!(
            kinds(&snap, Auditor::settled()),
            vec![ViolationKind::CoverageGap]
        );
    }

    /// A second live member with a duplicate code breaks prefix-freeness.
    /// (Structural auditor: the clone's table is a copy of the original's,
    /// so only the partition invariant is violated.)
    #[test]
    fn duplicate_code_is_exactly_a_code_overlap(depth in 1..=4u8, pick in 0..1024u64) {
        let mut snap = uniform_cube(depth, 2);
        let n = 1u64 << depth;
        let orig = snap.nodes[(pick % n) as usize].clone();
        let mut clone = orig;
        clone.id = NodeId(n as u32 + 1);
        clone.indexes.clear();
        snap.nodes.push(clone);
        prop_assert_eq!(
            kinds(&snap, Auditor::structural()),
            vec![ViolationKind::CodeOverlap]
        );
    }

    /// Claiming a region a live member owns is exactly a stale claim.
    #[test]
    fn claim_over_live_owner_is_exactly_a_stale_claim(depth in 1..=4u8, pick in 0..1024u64) {
        let mut snap = uniform_cube(depth, 2);
        let n = 1u64 << depth;
        let claimer = (pick % n) as usize;
        let other = ((pick + 1) % n) as usize;
        let stolen = snap.nodes[other].code.unwrap();
        snap.nodes[claimer].claimed.push(stolen);
        prop_assert_eq!(
            kinds(&snap, Auditor::settled()),
            vec![ViolationKind::StaleClaim]
        );
    }

    // ------------------------------------------------------------------
    // Neighbor-table mutations.
    // ------------------------------------------------------------------

    /// Reroute the reciprocal entry on the far side of one link (to a dead
    /// placeholder, as a buggy repair would): the near side now points at a
    /// node that no longer knows it.
    #[test]
    fn severed_back_pointer_is_exactly_an_asymmetry(depth in 2..=4u8, pick in 0..1024u64) {
        let mut snap = uniform_cube(depth, 2);
        let n = 1u64 << depth;
        let a = id_of(BitCode::from_index(pick % n, depth));
        let t = id_of(BitCode::from_index(pick % n, depth).flip(0));
        let third = id_of(BitCode::from_index((pick + 2) % n, depth));
        let target = snap.nodes.iter_mut().find(|x| x.id == t).unwrap();
        let entry = &mut target.neighbors[0];
        prop_assert_eq!(entry.node, a);
        entry.node = third;
        entry.alive = false; // dim 0 carries no Level(1) replica, so only
                             // the symmetry invariant is disturbed
        prop_assert_eq!(
            kinds(&snap, Auditor::settled()),
            vec![ViolationKind::NeighborAsymmetry]
        );
    }

    // ------------------------------------------------------------------
    // Replication mutations.
    // ------------------------------------------------------------------

    /// Recording the wrong replica target (dimension 0 instead of the
    /// takeover neighbor at dimension k-1) is exactly a target mismatch.
    #[test]
    fn wrong_replica_target_is_exactly_a_target_mismatch(depth in 2..=4u8, pick in 0..1024u64) {
        let mut snap = uniform_cube(depth, 2);
        let n = 1u64 << depth;
        let code = BitCode::from_index(pick % n, depth);
        let node = snap.nodes.iter_mut().find(|x| x.id == id_of(code)).unwrap();
        node.indexes.get_mut(TAG).unwrap().replica_targets = vec![id_of(code.flip(0))];
        prop_assert_eq!(
            kinds(&snap, Auditor::settled()),
            vec![ViolationKind::ReplicaTargetMismatch]
        );
    }

    /// Pointing the takeover entry (and the matching replica record) at a
    /// node outside the takeover subtree misplaces the replica: the target
    /// no longer shares exactly k-1 code bits with the primary. The same
    /// corruption is necessarily also a subtree escape — any node that
    /// *is* in the dim-(k-1) subtree shares exactly k-1 bits, so a wrong
    /// prefix length implies a wrong subtree.
    #[test]
    fn misplaced_replica_is_a_prefix_mismatch(depth in 2..=4u8, pick in 0..1024u64) {
        let mut snap = uniform_cube(depth, 2);
        let n = 1u64 << depth;
        let code = BitCode::from_index(pick % n, depth);
        let wrong = id_of(code.flip(0));
        let displaced = id_of(code.flip(depth - 1));
        let node = snap.nodes.iter_mut().find(|x| x.id == id_of(code)).unwrap();
        node.neighbors[usize::from(depth - 1)].node = wrong;
        node.indexes.get_mut(TAG).unwrap().replica_targets = vec![wrong];
        // The displaced takeover neighbor still lists us; keep it as an
        // extra so only the placement invariants (not symmetry) trip.
        node.extras.push(displaced);
        let mut got = kinds(&snap, Auditor::settled());
        got.sort_by_key(|k| format!("{k:?}"));
        prop_assert_eq!(
            got,
            vec![
                ViolationKind::NeighborSubtreeEscape,
                ViolationKind::ReplicaPrefixMismatch,
            ]
        );
    }

    // ------------------------------------------------------------------
    // Cut-tree mutations (applied to every node alike, so the cross-node
    // agreement invariant stays satisfied and only the targeted geometry
    // invariant trips — once per node).
    // ------------------------------------------------------------------

    /// Skew one leaf boundary by a single unit: the leaves still partition
    /// code space, but their rectangles no longer reassemble.
    #[test]
    fn skewed_cut_boundary_is_exactly_a_geometry_mismatch(
        depth in 1..=3u8,
        cut_depth in 1..=5u8,
        pick in 0..1024u64,
    ) {
        let mut snap = uniform_cube(depth, cut_depth);
        let n = 1usize << depth;
        let leaf_count = 1u64 << cut_depth;
        let leaf = (pick % leaf_count) as usize;
        for node in &mut snap.nodes {
            let ver = &mut node.indexes.get_mut(TAG).unwrap().versions[0];
            let (_, rect) = &mut ver.leaves[leaf];
            let skewed = HyperRect::new(
                rect.los().to_vec(),
                rect.his()
                    .iter()
                    .enumerate()
                    .map(|(d, h)| if d == 0 { h - 1 } else { *h })
                    .collect(),
            );
            *rect = skewed;
        }
        prop_assert_eq!(
            kinds(&snap, Auditor::settled()),
            vec![ViolationKind::CutGeometryMismatch; n]
        );
    }

    /// Drop one leaf: part of code space has no cut region.
    #[test]
    fn dropped_cut_leaf_is_exactly_a_cut_coverage_gap(
        depth in 1..=3u8,
        cut_depth in 1..=5u8,
        pick in 0..1024u64,
    ) {
        let mut snap = uniform_cube(depth, cut_depth);
        let n = 1usize << depth;
        let leaf_count = 1u64 << cut_depth;
        let leaf = (pick % leaf_count) as usize;
        for node in &mut snap.nodes {
            node.indexes.get_mut(TAG).unwrap().versions[0].leaves.remove(leaf);
        }
        prop_assert_eq!(
            kinds(&snap, Auditor::settled()),
            vec![ViolationKind::CutCoverageGap; n]
        );
    }

    /// Add a leaf underneath an existing one: two leaves now cover the same
    /// code region.
    #[test]
    fn nested_cut_leaf_is_exactly_a_cut_leaf_overlap(
        depth in 1..=3u8,
        cut_depth in 1..=4u8,
        pick in 0..1024u64,
    ) {
        let mut snap = uniform_cube(depth, cut_depth);
        let n = 1usize << depth;
        let leaf_count = 1u64 << cut_depth;
        let leaf = (pick % leaf_count) as usize;
        for node in &mut snap.nodes {
            let ver = &mut node.indexes.get_mut(TAG).unwrap().versions[0];
            let (code, rect) = ver.leaves[leaf].clone();
            ver.leaves.push((code.child(true), rect));
        }
        prop_assert_eq!(
            kinds(&snap, Auditor::settled()),
            vec![ViolationKind::CutLeafOverlap; n]
        );
    }

    // ------------------------------------------------------------------
    // Version mutations.
    // ------------------------------------------------------------------

    /// Timestamps running backwards (consistently, on every node) trip only
    /// the per-node monotonicity invariant — once per node.
    #[test]
    fn backwards_timestamps_are_exactly_a_regression(depth in 1..=3u8) {
        let mut snap = uniform_cube(depth, 2);
        let n = 1usize << depth;
        for node in &mut snap.nodes {
            let idx = node.indexes.get_mut(TAG).unwrap();
            idx.versions[0].from_ts = 10;
            idx.versions[1].from_ts = 5;
        }
        prop_assert_eq!(
            kinds(&snap, Auditor::settled()),
            vec![ViolationKind::VersionRegression; n]
        );
    }

    /// One node drifting on a version timestamp disagrees with every other
    /// live holder — and with nothing else.
    #[test]
    fn drifted_timestamp_is_exactly_a_disagreement(depth in 1..=3u8, pick in 0..1024u64) {
        let mut snap = uniform_cube(depth, 2);
        let n = 1usize << depth;
        let mutant = (pick as usize) % n;
        snap.nodes[mutant].indexes.get_mut(TAG).unwrap().versions[1].from_ts = 86_401;
        prop_assert_eq!(
            kinds(&snap, Auditor::settled()),
            vec![ViolationKind::VersionDisagreement; n - 1]
        );
    }

    // ------------------------------------------------------------------
    // Query-split checks (pure function, driven directly).
    // ------------------------------------------------------------------

    /// One code per leaf covers any query exactly once; replacing a code by
    /// its two children (a refinement plan) is equally clean.
    #[test]
    fn full_split_is_clean_and_refinement_is_clean(cut_depth in 1..=5u8, pick in 0..1024u64) {
        let snap = uniform_cube(1, cut_depth);
        let ver = &snap.nodes[0].indexes[TAG].versions[0];
        // One code per leaf is only gap- and excess-free when every leaf
        // intersects the query, i.e. for a full-space query; a narrower
        // query expects the splitter to omit the out-of-range codes.
        let query = ver.bounds.clone();
        let mut codes: Vec<BitCode> = ver.leaves.iter().map(|(c, _)| *c).collect();
        prop_assert!(check_query_split(ver, &query, &codes).is_empty());
        let refined = (pick as usize) % codes.len();
        let victim = codes.swap_remove(refined);
        codes.push(victim.child(false));
        codes.push(victim.child(true));
        prop_assert!(check_query_split(ver, &query, &codes).is_empty());
    }

    /// Dropping one sub-query leaves its leaf uncovered.
    #[test]
    fn dropped_subquery_is_exactly_a_split_gap(cut_depth in 1..=5u8, pick in 0..1024u64) {
        let snap = uniform_cube(1, cut_depth);
        let ver = &snap.nodes[0].indexes[TAG].versions[0];
        let query = ver.bounds.clone();
        let mut codes: Vec<BitCode> = ver.leaves.iter().map(|(c, _)| *c).collect();
        let dropped = (pick as usize) % codes.len();
        codes.remove(dropped);
        let got: Vec<ViolationKind> =
            check_query_split(ver, &query, &codes).iter().map(|v| v.kind()).collect();
        prop_assert_eq!(got, vec![ViolationKind::QuerySplitGap]);
    }

    /// Duplicating a sub-query double-covers its leaf.
    #[test]
    fn duplicated_subquery_is_exactly_a_split_overlap(cut_depth in 1..=5u8, pick in 0..1024u64) {
        let snap = uniform_cube(1, cut_depth);
        let ver = &snap.nodes[0].indexes[TAG].versions[0];
        let query = ver.bounds.clone();
        let mut codes: Vec<BitCode> = ver.leaves.iter().map(|(c, _)| *c).collect();
        let dup = codes[(pick as usize) % codes.len()];
        codes.push(dup);
        let got: Vec<ViolationKind> =
            check_query_split(ver, &query, &codes).iter().map(|v| v.kind()).collect();
        prop_assert_eq!(got, vec![ViolationKind::QuerySplitOverlap]);
    }

    /// A sub-query aimed at a region the (clipped) query never touches is
    /// excess work.
    #[test]
    fn off_query_subquery_is_exactly_excess(cut_depth in 1..=5u8) {
        let snap = uniform_cube(1, cut_depth);
        let ver = &snap.nodes[0].indexes[TAG].versions[0];
        // Query exactly the first leaf's rectangle: only that leaf
        // intersects, so the last leaf's code is pure excess.
        let query = ver.leaves[0].1.clone();
        let codes = vec![ver.leaves[0].0, ver.leaves[ver.leaves.len() - 1].0];
        let got: Vec<ViolationKind> =
            check_query_split(ver, &query, &codes).iter().map(|v| v.kind()).collect();
        prop_assert_eq!(got, vec![ViolationKind::QuerySplitExcess]);
    }
}
