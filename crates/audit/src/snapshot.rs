//! Plain-data capture of the cluster state the invariants range over.
//!
//! A [`Snapshot`] is deliberately dumb: every field is public, nothing is
//! lazily derived, and no simulator or overlay types leak in. That keeps the
//! auditor deterministic (two captures of the same cluster state are equal)
//! and lets mutation tests corrupt a snapshot surgically — drop a code, skew
//! a cut boundary, misplace a replica — and assert the auditor pinpoints
//! exactly that corruption.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use mind_types::{BitCode, HyperRect, NodeId, Replication};

/// One captured state of the whole cluster at a simulated instant.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Simulated time (microseconds) of the capture.
    pub now: u64,
    /// Every node the deployment has ever seen, dead or alive.
    pub nodes: Vec<NodeSnapshot>,
}

/// One node's audited state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// The node's stable identity.
    pub id: NodeId,
    /// `true` if the simulator considers the node up.
    pub alive: bool,
    /// `true` if the node is a zone member (owns a region of the cube).
    pub member: bool,
    /// The node's overlay code, when it is a member.
    pub code: Option<BitCode>,
    /// Regions of dead non-sibling neighbors this node answers for.
    pub claimed: Vec<BitCode>,
    /// Dimension-ordered representative neighbor entries
    /// (entry `i` represents the `code.flip_prefix(i)` subtree).
    pub neighbors: Vec<NeighborSnapshot>,
    /// Extra (non-representative) neighbors learned opportunistically.
    pub extras: Vec<NodeId>,
    /// Per-index audited state, keyed by index tag.
    pub indexes: BTreeMap<String, IndexSnapshot>,
}

impl NodeSnapshot {
    /// An empty snapshot for a node that never joined.
    pub fn new(id: NodeId) -> Self {
        NodeSnapshot {
            id,
            alive: false,
            member: false,
            code: None,
            claimed: Vec::new(),
            neighbors: Vec::new(),
            extras: Vec::new(),
            indexes: BTreeMap::new(),
        }
    }

    /// Rows the node holds as primary for `index`, over all versions.
    pub fn primary_rows(&self, index: &str) -> u64 {
        self.indexes
            .get(index)
            .map_or(0, |i| i.versions.iter().map(|v| v.primary_rows).sum())
    }
}

/// One neighbor-table entry as seen by the owning node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeighborSnapshot {
    /// Table dimension (position): the entry represents the
    /// `code.flip_prefix(dim)` subtree.
    pub dim: u8,
    /// The neighbor's code as last heard.
    pub code: BitCode,
    /// The neighbor's identity.
    pub node: NodeId,
    /// `true` unless the owner has locally marked the entry dead.
    pub alive: bool,
}

/// One index as held by one node.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IndexSnapshot {
    /// The index's replication policy.
    pub replication: Replication,
    /// The nodes this node currently pushes replicas to, as reported by the
    /// overlay at capture time.
    pub replica_targets: Vec<NodeId>,
    /// All installed versions, in version-number order (dense numbering).
    pub versions: Vec<VersionSnapshot>,
}

/// One index version as held by one node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionSnapshot {
    /// First record timestamp governed by this version.
    pub from_ts: u64,
    /// The version's attribute-space bounding rectangle.
    pub bounds: HyperRect,
    /// `(leaf code, leaf rectangle)` pairs of the version's cut tree, in
    /// code order.
    pub leaves: Vec<(BitCode, HyperRect)>,
    /// Rows held as the region primary.
    pub primary_rows: u64,
    /// Rows held as replica copies for prefix neighbors.
    pub replica_rows: u64,
}

impl Snapshot {
    /// The snapshot entry for `id`, if the node exists.
    pub fn node(&self, id: NodeId) -> Option<&NodeSnapshot> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Codes of live members — the set that must tile the hypercube.
    pub fn live_codes(&self) -> Vec<(NodeId, BitCode)> {
        self.nodes
            .iter()
            .filter(|n| n.alive && n.member)
            .filter_map(|n| n.code.map(|c| (n.id, c)))
            .collect()
    }

    /// All index tags present anywhere in the cluster, deduplicated.
    pub fn index_tags(&self) -> Vec<String> {
        let mut tags: Vec<String> = self
            .nodes
            .iter()
            .flat_map(|n| n.indexes.keys().cloned())
            .collect();
        tags.sort();
        tags.dedup();
        tags
    }
}
