//! Deterministic verification of a [`Snapshot`] against MIND's distributed
//! invariants.
//!
//! Every check reports a precise [`Violation`] naming the node, index,
//! version, code or rectangle at fault. Checks come in two strictness
//! classes:
//!
//! * **structural** — invariants that must hold at *every* instant, even
//!   mid-churn: live codes are prefix-free, neighbor tables are
//!   dimension-consistent, every cut tree partitions the attribute space,
//!   version timestamps are monotone and agree across nodes.
//! * **settled** — invariants that are only guaranteed once joins, failure
//!   detection and takeover floods have quiesced: the live codes (plus
//!   claimed regions) tile the hypercube exactly, neighbor links are
//!   symmetric, claims never shadow a live owner, and replicas sit at live
//!   prefix neighbors.
//!
//! [`Auditor::structural`] runs only the first class; [`Auditor::settled`]
//! runs both.

use std::collections::BTreeMap;
use std::fmt;

use mind_types::{BitCode, HyperRect, NodeId, Replication};

use crate::snapshot::{NodeSnapshot, Snapshot, VersionSnapshot};

/// Codes near the representation limit cannot be split further; the gap
/// search stops descending there (real overlay codes are far shorter).
const MAX_GAP_DEPTH: u8 = 62;

/// Which strictness class(es) to verify. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Also check the settled class: live codes plus claimed regions tile
    /// the hypercube, live neighbor entries point at live members inside
    /// their subtree and are reciprocated, and replica targets are the
    /// ones the table dictates at the right prefix distance.
    pub settled: bool,
    /// Forbid claimed regions that shadow a live member's code.
    pub require_fresh_claims: bool,
}

impl AuditConfig {
    /// Only the invariants that hold at every instant, even mid-churn.
    pub fn structural() -> Self {
        AuditConfig {
            settled: false,
            require_fresh_claims: false,
        }
    }

    /// Every invariant, for quiescent (post-stabilization) states.
    pub fn settled() -> Self {
        AuditConfig {
            settled: true,
            require_fresh_claims: true,
        }
    }
}

/// One detected invariant violation: which invariant tripped, and the
/// report line naming what is at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated invariant.
    pub kind: ViolationKind,
    /// The report line, e.g. `stale claim: n0 claims [1] but live n1 owns [1]`.
    pub detail: String,
}

impl Violation {
    fn new(kind: ViolationKind, detail: String) -> Self {
        Violation { kind, detail }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// The invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Two live members own overlapping regions (one code prefixes the
    /// other): the zone space is no longer a partition.
    CodeOverlap,
    /// No live code or claimed region covers a region: data and queries
    /// routed there have no owner.
    CoverageGap,
    /// A node still claims a region although a live member covers it.
    StaleClaim,
    /// A member's neighbor table does not have one entry per code bit, or
    /// entries are out of dimension order.
    TableShape,
    /// An entry's recorded code lies outside the subtree it must represent.
    NeighborDimMismatch,
    /// An entry still marked alive points at a node that is globally dead
    /// or no longer a member.
    NeighborTargetDead,
    /// The target's *actual* current code has left the subtree the entry
    /// represents.
    NeighborSubtreeEscape,
    /// A node lists a live neighbor that does not know it back.
    NeighborAsymmetry,
    /// Two leaves of one cut tree overlap in code space.
    CutLeafOverlap,
    /// A cut tree's leaves miss part of code space.
    CutCoverageGap,
    /// Leaf rectangles do not reassemble into the version bounds by sibling
    /// merges: some cut boundary is skewed.
    CutGeometryMismatch,
    /// The recorded replica targets differ from what the neighbor table
    /// dictates for the index's replication level.
    ReplicaTargetMismatch,
    /// A replica sits on a node whose code does not share exactly the
    /// required prefix length with the primary.
    ReplicaPrefixMismatch,
    /// A node's version timestamps go backwards.
    VersionRegression,
    /// Two live nodes disagree on a version's timestamp or cut tree.
    VersionDisagreement,
    /// Two sub-query codes of one split overlap.
    QuerySplitOverlap,
    /// Part of the query rectangle is covered by no sub-query.
    QuerySplitGap,
    /// A sub-query whose region misses the query rectangle entirely.
    QuerySplitExcess,
}

/// The outcome of one audit pass.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// All detected violations, in check order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// `true` when no invariant tripped.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the formatted violation list when the audit failed.
    ///
    /// `context` names the audit point (e.g. `"after takeover"`).
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "audit failed {context}: {} violation(s)\n{}",
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean");
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Verifies [`Snapshot`]s against the invariant catalog.
#[derive(Debug, Clone, Copy)]
pub struct Auditor {
    config: AuditConfig,
}

impl Auditor {
    /// An auditor for quiescent states: runs every check.
    pub fn settled() -> Self {
        Auditor {
            config: AuditConfig::settled(),
        }
    }

    /// An auditor safe to run mid-churn: structural checks only.
    pub fn structural() -> Self {
        Auditor {
            config: AuditConfig::structural(),
        }
    }

    /// An auditor with an explicit configuration.
    pub fn with_config(config: AuditConfig) -> Self {
        Auditor { config }
    }

    /// Runs every enabled check over `snap`.
    pub fn audit(&self, snap: &Snapshot) -> AuditReport {
        let mut out = Vec::new();
        self.check_overlay(snap, &mut out);
        self.check_tables(snap, &mut out);
        self.check_cut_trees(snap, &mut out);
        self.check_replication(snap, &mut out);
        self.check_versions(snap, &mut out);
        AuditReport { violations: out }
    }

    /// Prefix-freeness of live codes, total coverage (codes plus claims),
    /// and staleness of claimed regions.
    fn check_overlay(&self, snap: &Snapshot, out: &mut Vec<Violation>) {
        let live = snap.live_codes();
        for (i, (a, a_code)) in live.iter().enumerate() {
            for (b, b_code) in live.iter().skip(i + 1) {
                if a_code.compatible(b_code) {
                    out.push(Violation::new(
                        ViolationKind::CodeOverlap,
                        format!("code overlap: {a} owns [{a_code}] and {b} owns [{b_code}]"),
                    ));
                }
            }
        }

        if self.config.require_fresh_claims {
            for node in snap.nodes.iter().filter(|n| n.alive) {
                for claim in &node.claimed {
                    if let Some((owner, owner_code)) = live
                        .iter()
                        .find(|(id, c)| *id != node.id && c.compatible(claim))
                    {
                        out.push(Violation::new(
                            ViolationKind::StaleClaim,
                            format!(
                                "stale claim: {} claims [{claim}] but live {owner} owns \
                                 [{owner_code}]",
                                node.id
                            ),
                        ));
                    }
                }
            }
        }

        if self.config.settled {
            let mut cover: Vec<BitCode> = live.iter().map(|(_, c)| *c).collect();
            for node in snap.nodes.iter().filter(|n| n.alive) {
                cover.extend(node.claimed.iter().copied());
            }
            if let Some(region) = find_gap(BitCode::ROOT, &cover) {
                out.push(Violation::new(
                    ViolationKind::CoverageGap,
                    format!("coverage gap: no live code or claim covers [{region}]"),
                ));
            }
        }
    }

    /// Neighbor-table shape, dimension consistency, liveness and symmetry.
    fn check_tables(&self, snap: &Snapshot, out: &mut Vec<Violation>) {
        for node in snap.nodes.iter().filter(|n| n.alive && n.member) {
            let Some(code) = node.code else { continue };
            let id = node.id;
            let len = code.len();
            if node.neighbors.len() != usize::from(len) {
                out.push(Violation::new(
                    ViolationKind::TableShape,
                    format!(
                        "table shape: {id} (code length {len}): {} entries for a {len}-bit code",
                        node.neighbors.len()
                    ),
                ));
            }
            for (pos, entry) in node.neighbors.iter().enumerate() {
                let (dim, target) = (entry.dim, entry.node);
                if usize::from(dim) != pos {
                    out.push(Violation::new(
                        ViolationKind::TableShape,
                        format!(
                            "table shape: {id} (code length {len}): entry at position {pos} \
                             labeled dim {dim}"
                        ),
                    ));
                    continue;
                }
                if dim >= len {
                    continue; // already reported as a shape violation above
                }
                let subtree = code.flip_prefix(dim);
                if !subtree.compatible(&entry.code) {
                    out.push(Violation::new(
                        ViolationKind::NeighborDimMismatch,
                        format!(
                            "neighbor dim mismatch: {id} dim {dim} must represent [{subtree}] \
                             but records {target} at [{}]",
                            entry.code
                        ),
                    ));
                }
                if !entry.alive || !self.config.settled {
                    continue;
                }
                let Some(t) = snap.node(target).filter(|t| t.alive && t.member) else {
                    out.push(Violation::new(
                        ViolationKind::NeighborTargetDead,
                        format!("dead neighbor: {id} dim {dim} still lists {target} as alive"),
                    ));
                    continue;
                };
                if let Some(actual) = t.code.filter(|a| !subtree.compatible(a)) {
                    out.push(Violation::new(
                        ViolationKind::NeighborSubtreeEscape,
                        format!(
                            "neighbor escaped subtree: {id} dim {dim} represents [{subtree}] \
                             but {target} now owns [{actual}]"
                        ),
                    ));
                }
                if !t.neighbors.iter().any(|e| e.node == id) && !t.extras.contains(&id) {
                    out.push(Violation::new(
                        ViolationKind::NeighborAsymmetry,
                        format!(
                            "asymmetric link: {id} lists {target} (dim {dim}) but {target} does \
                             not know {id}"
                        ),
                    ));
                }
            }
        }
    }

    /// Per-version cut trees: leaf codes partition code space and leaf
    /// rectangles reassemble into the bounds.
    fn check_cut_trees(&self, snap: &Snapshot, out: &mut Vec<Violation>) {
        for node in &snap.nodes {
            for (tag, index) in &node.indexes {
                for (v, ver) in index.versions.iter().enumerate() {
                    let at = format!("{} {tag} v{v}", node.id);
                    let codes: Vec<BitCode> = ver.leaves.iter().map(|(c, _)| *c).collect();
                    let mut overlapping = false;
                    for (i, a) in codes.iter().enumerate() {
                        for b in codes.iter().skip(i + 1) {
                            if a.compatible(b) {
                                overlapping = true;
                                out.push(Violation::new(
                                    ViolationKind::CutLeafOverlap,
                                    format!("cut leaf overlap: {at}: [{a}] overlaps [{b}]"),
                                ));
                            }
                        }
                    }
                    if let Some(region) = find_gap(BitCode::ROOT, &codes) {
                        out.push(Violation::new(
                            ViolationKind::CutCoverageGap,
                            format!("cut coverage gap: {at}: no leaf covers [{region}]"),
                        ));
                        continue; // merge needs a complete leaf set
                    }
                    if overlapping {
                        continue;
                    }
                    if let Err((region, why)) = merge_to_bounds(&ver.leaves, &ver.bounds) {
                        out.push(Violation::new(
                            ViolationKind::CutGeometryMismatch,
                            format!("cut geometry mismatch: {at} at [{region}]: {why}"),
                        ));
                    }
                }
            }
        }
    }

    /// Replica targets match what the table dictates and sit at the right
    /// prefix distance.
    fn check_replication(&self, snap: &Snapshot, out: &mut Vec<Violation>) {
        if !self.config.settled {
            return;
        }
        for node in snap.nodes.iter().filter(|n| n.alive && n.member) {
            let Some(code) = node.code else { continue };
            let k = code.len();
            for (tag, index) in &node.indexes {
                let mut expected: Vec<(u8, NodeId)> = Vec::new();
                match index.replication {
                    Replication::None => {}
                    Replication::Level(m) => {
                        for i in 1..=m.min(k) {
                            let dim = k - i;
                            if let Some(e) = node.neighbors.get(usize::from(dim)) {
                                if e.alive && e.node != node.id {
                                    expected.push((dim, e.node));
                                }
                            }
                        }
                    }
                    Replication::Full => {
                        for e in &node.neighbors {
                            if e.alive && e.node != node.id {
                                expected.push((e.dim, e.node));
                            }
                        }
                        for x in &node.extras {
                            if *x != node.id {
                                expected.push((0, *x));
                            }
                        }
                    }
                }

                let mut want: Vec<NodeId> = expected.iter().map(|(_, n)| *n).collect();
                want.sort();
                want.dedup();
                let mut got = index.replica_targets.clone();
                got.sort();
                got.dedup();
                if want != got {
                    out.push(Violation::new(
                        ViolationKind::ReplicaTargetMismatch,
                        format!(
                            "replica target mismatch: {} {tag}: table dictates {want:?}, recorded \
                             {got:?}",
                            node.id
                        ),
                    ));
                    continue;
                }

                // Prefix placement only constrains leveled replication: a
                // replica at dim d must share exactly d code bits with the
                // primary (the node that takes the region over on failure).
                if let Replication::Level(_) = index.replication {
                    for (dim, target) in &expected {
                        let Some(actual) = snap.node(*target).and_then(|t| t.code) else {
                            continue; // liveness reported by check_tables
                        };
                        let cpl = code.common_prefix_len(&actual);
                        if cpl != *dim {
                            out.push(Violation::new(
                                ViolationKind::ReplicaPrefixMismatch,
                                format!(
                                    "replica prefix mismatch: {} {tag}: replica on {target} shares \
                                     prefix {cpl}, placement dim requires {dim}",
                                    node.id
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Version timestamps are monotone per node and agree across live nodes.
    fn check_versions(&self, snap: &Snapshot, out: &mut Vec<Violation>) {
        for node in &snap.nodes {
            for (tag, index) in &node.indexes {
                for (v, pair) in index.versions.windows(2).enumerate() {
                    if pair[1].from_ts < pair[0].from_ts {
                        out.push(Violation::new(
                            ViolationKind::VersionRegression,
                            format!(
                                "version regression: {} {tag} v{} starts at {} before v{v} at {}",
                                node.id,
                                v + 1,
                                pair[1].from_ts,
                                pair[0].from_ts
                            ),
                        ));
                    }
                }
            }
        }

        // Cross-node agreement per (index, version) among live nodes: the
        // version flood installs the same cuts everywhere, so any live pair
        // holding the same version number must agree on its timestamp,
        // bounds and leaf codes/rectangles.
        for tag in snap.index_tags() {
            let holders: Vec<&NodeSnapshot> = snap
                .nodes
                .iter()
                .filter(|n| n.alive && n.indexes.contains_key(&tag))
                .collect();
            for (i, a) in holders.iter().enumerate() {
                for b in holders.iter().skip(i + 1) {
                    let (Some(ia), Some(ib)) = (a.indexes.get(&tag), b.indexes.get(&tag)) else {
                        continue;
                    };
                    for (v, (va, vb)) in ia.versions.iter().zip(&ib.versions).enumerate() {
                        let why = if va.from_ts != vb.from_ts {
                            format!("from_ts {} vs {}", va.from_ts, vb.from_ts)
                        } else if va.bounds != vb.bounds {
                            "bounds differ".to_owned()
                        } else if va.leaves != vb.leaves {
                            "cut trees differ".to_owned()
                        } else {
                            continue;
                        };
                        out.push(Violation::new(
                            ViolationKind::VersionDisagreement,
                            format!(
                                "version disagreement: {tag} v{v}: {} vs {}: {why}",
                                a.id, b.id
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Verifies that a query split covers `query ∩ bounds` exactly once.
///
/// `version` supplies the cut-tree geometry; `codes` are the sub-query
/// regions the split produced. Checks that the codes are pairwise
/// prefix-free, that every cut leaf intersecting the query is covered by
/// exactly one code (or tiled completely by finer codes, as a refinement
/// plan produces), and that no code misses the query entirely.
pub fn check_query_split(
    version: &VersionSnapshot,
    query: &HyperRect,
    codes: &[BitCode],
) -> Vec<Violation> {
    let gap = |region: BitCode| {
        Violation::new(
            ViolationKind::QuerySplitGap,
            format!("query split gap: query region [{region}] has no sub-query"),
        )
    };
    let excess = |code: &BitCode| {
        Violation::new(
            ViolationKind::QuerySplitExcess,
            format!("query split excess: sub-query [{code}] misses the query rectangle"),
        )
    };
    let mut out = Vec::new();
    for (i, a) in codes.iter().enumerate() {
        for b in codes.iter().skip(i + 1) {
            if a.compatible(b) {
                out.push(Violation::new(
                    ViolationKind::QuerySplitOverlap,
                    format!("query split overlap: sub-queries [{a}] and [{b}] overlap"),
                ));
            }
        }
    }

    let Some(clipped) = version.bounds.intersection(query) else {
        out.extend(codes.iter().map(excess));
        return out;
    };

    for (leaf_code, leaf_rect) in &version.leaves {
        if !leaf_rect.intersects(&clipped) {
            continue;
        }
        let ancestors: Vec<BitCode> = codes
            .iter()
            .filter(|c| c.is_prefix_of(leaf_code))
            .copied()
            .collect();
        let finer: Vec<BitCode> = codes
            .iter()
            .filter(|c| leaf_code.is_prefix_of(c) && c.len() > leaf_code.len())
            .copied()
            .collect();
        match (ancestors.len(), finer.is_empty()) {
            (1, true) => {}
            (0, false) => {
                // A refinement plan may tile a leaf with finer codes; they
                // must then cover the whole leaf between them.
                out.extend(find_gap(*leaf_code, &finer).map(gap));
            }
            (0, true) => out.push(gap(*leaf_code)),
            // Multiple/mixed covers are compatible pairs, already reported
            // as QuerySplitOverlap above.
            _ => {}
        }
    }

    for code in codes {
        let touches = version
            .leaves
            .iter()
            .any(|(lc, lr)| lc.compatible(code) && lr.intersects(&clipped));
        if !touches {
            out.push(excess(code));
        }
    }
    out
}

/// Depth-first search for a region under `prefix` that no item covers.
///
/// Returns `None` when `items` cover all of `prefix`'s subtree; otherwise a
/// witness region (some uncovered code). Items above `prefix` (prefixes of
/// it) cover it outright.
fn find_gap(prefix: BitCode, items: &[BitCode]) -> Option<BitCode> {
    if items.iter().any(|c| c.is_prefix_of(&prefix)) {
        return None;
    }
    if !items.iter().any(|c| prefix.is_prefix_of(c)) {
        return Some(prefix);
    }
    if prefix.len() >= MAX_GAP_DEPTH {
        return Some(prefix);
    }
    find_gap(prefix.child(false), items).or_else(|| find_gap(prefix.child(true), items))
}

/// Merges sibling leaves bottom-up and checks the final rectangle equals
/// `bounds`. Requires a complete, prefix-free leaf set (checked by the
/// caller). On failure returns the parent region and a human-readable
/// reason.
fn merge_to_bounds(
    leaves: &[(BitCode, HyperRect)],
    bounds: &HyperRect,
) -> Result<(), (BitCode, String)> {
    let mut map: BTreeMap<BitCode, HyperRect> = leaves.iter().cloned().collect();
    if map.is_empty() {
        return Err((BitCode::ROOT, "no leaves".to_owned()));
    }
    while map.len() > 1 {
        let Some(deepest) = map.keys().max_by_key(|c| c.len()).copied() else {
            break;
        };
        if deepest.is_empty() {
            break;
        }
        let sibling = deepest.sibling();
        let parent = deepest.parent();
        let (low_code, high_code) = if deepest.bit(deepest.len() - 1) {
            (sibling, deepest)
        } else {
            (deepest, sibling)
        };
        let (Some(low), Some(high)) = (map.remove(&low_code), map.remove(&high_code)) else {
            return Err((parent, format!("sibling of [{deepest}] missing")));
        };
        match join_rects(&low, &high) {
            Some(joined) => {
                map.insert(parent, joined);
            }
            None => {
                return Err((
                    parent,
                    format!("children [{low_code}] and [{high_code}] do not reassemble"),
                ));
            }
        }
    }
    match map.into_iter().next() {
        Some((code, rect)) if code == BitCode::ROOT && rect == *bounds => Ok(()),
        Some((code, rect)) => Err((
            code,
            format!("merged region is {rect:?}, version bounds are {bounds:?}"),
        )),
        None => Err((BitCode::ROOT, "no leaves".to_owned())),
    }
}

/// Joins two rectangles that abut on exactly one axis (the inverse of
/// `HyperRect::split_at`). Returns `None` when they do not reassemble.
fn join_rects(low: &HyperRect, high: &HyperRect) -> Option<HyperRect> {
    if low.dims() != high.dims() {
        return None;
    }
    let mut split_axis = None;
    for d in 0..low.dims() {
        if low.lo(d) == high.lo(d) && low.hi(d) == high.hi(d) {
            continue;
        }
        if split_axis.is_some() {
            return None; // differs on two axes
        }
        let abuts = low.lo(d) <= low.hi(d)
            && low.hi(d).checked_add(1) == Some(high.lo(d))
            && high.lo(d) <= high.hi(d);
        if !abuts {
            return None;
        }
        split_axis = Some(d);
    }
    let d = split_axis?;
    let mut lo = Vec::with_capacity(low.dims());
    let mut hi = Vec::with_capacity(low.dims());
    for axis in 0..low.dims() {
        if axis == d {
            lo.push(low.lo(axis));
            hi.push(high.hi(axis));
        } else {
            lo.push(low.lo(axis));
            hi.push(low.hi(axis));
        }
    }
    Some(HyperRect::new(lo, hi))
}
