//! Bridges a live [`MindCluster`] to the `mind-audit` invariant auditor.
//!
//! [`MindCluster::audit_snapshot`] captures a plain-data
//! [`mind_audit::Snapshot`] of the whole deployment — overlay codes, claimed
//! regions, neighbor tables, replica targets and every index version's cut
//! tree — through the cluster's read-only accessors, so capturing never
//! perturbs the simulation.
//!
//! With the `audit` cargo feature enabled, every state-changing cluster
//! operation (time advance, crash, revive, index creation, version GC)
//! re-runs the structural invariants and panics on the first violation,
//! naming the audit point. The feature is off by default because the audit
//! is O(nodes² + leaves²) per call; tests and debugging sessions opt in with
//! `cargo test --features audit`.

use mind_audit::{
    AuditReport, Auditor, IndexSnapshot, NeighborSnapshot, NodeSnapshot, Snapshot, VersionSnapshot,
};
use mind_types::{ClusterDriver, NodeId, Replication};

use mind_netsim::World;

use crate::cluster::MindCluster;
use crate::node::MindNode;

/// Captures the audited state of every node in a raw simulation world.
///
/// Tests that drive a [`World<MindNode>`] directly (dynamic join, custom
/// topologies) audit through this; [`MindCluster::audit_snapshot`] is the
/// cluster-level convenience over it.
pub fn snapshot_world(world: &World<MindNode>) -> Snapshot {
    let mut nodes = Vec::with_capacity(world.len());
    for k in 0..world.len() {
        let id = NodeId(k as u32);
        let node = world.node(id);
        nodes.push(snapshot_node(id, world.is_alive(id), node));
    }
    Snapshot {
        now: world.now(),
        nodes,
    }
}

impl<D: ClusterDriver<MindNode>> MindCluster<D> {
    /// Captures the audited state of every node, dead or alive.
    pub fn audit_snapshot(&self) -> Snapshot {
        let mut nodes = Vec::with_capacity(self.len());
        for k in 0..self.len() {
            let id = NodeId(k as u32);
            let alive = self.is_alive(id);
            nodes.push(self.read_node(id, move |n| snapshot_node(id, alive, n)));
        }
        Snapshot {
            now: self.now(),
            nodes,
        }
    }

    /// Runs the full invariant catalog; the cluster must be quiescent
    /// (joins, failure detection and takeovers settled).
    pub fn audit_settled(&self) -> AuditReport {
        Auditor::settled().audit(&self.audit_snapshot())
    }

    /// Runs only the invariants that hold at every instant, even mid-churn.
    pub fn audit_structural(&self) -> AuditReport {
        Auditor::structural().audit(&self.audit_snapshot())
    }

    /// Audit point: panics on any structural violation, naming `context`.
    ///
    /// Called by the cluster's state-changing operations when the `audit`
    /// feature is enabled; also useful directly from tests.
    pub fn audit_point(&self, context: &str) {
        self.audit_structural().assert_clean(context);
    }
}

/// Extracts one node's audited state.
///
/// Public so the real-transport runtime's control server can assemble a
/// fleet-wide [`Snapshot`] from per-process node snapshots.
pub fn snapshot_node(id: NodeId, alive: bool, node: &MindNode) -> NodeSnapshot {
    let overlay = node.overlay();
    let mut snap = NodeSnapshot::new(id);
    snap.alive = alive;
    snap.member = overlay.is_member();
    snap.code = overlay.code();
    snap.claimed = overlay.claimed().iter().copied().collect();
    snap.neighbors = overlay
        .table()
        .iter()
        .enumerate()
        .map(|(dim, e)| NeighborSnapshot {
            dim: dim as u8,
            code: e.code,
            node: e.node,
            alive: e.alive,
        })
        .collect();
    snap.extras = overlay.table().extra_nodes();

    for tag in node.index_tags() {
        let Some(state) = node.index_state(&tag) else {
            continue;
        };
        let replica_targets = match state.replication {
            Replication::None => Vec::new(),
            Replication::Level(m) => overlay.replica_targets(m.into()),
            Replication::Full => overlay.all_neighbor_targets(),
        };
        let versions = state
            .versions
            .iter()
            .map(|v| VersionSnapshot {
                from_ts: v.from_ts,
                bounds: v.cuts.bounds().clone(),
                leaves: v.cuts.leaves(),
                primary_rows: v.primary.len() as u64,
                replica_rows: v.replicas.len() as u64,
            })
            .collect();
        snap.indexes.insert(
            tag,
            IndexSnapshot {
                replication: state.replication,
                replica_targets,
                versions,
            },
        );
    }
    snap
}
