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
    AuditReport, Auditor, IndexSnapshot, NeighborSnapshot, NodeSnapshot, ReplicationSnapshot,
    Snapshot, VersionSnapshot,
};
use mind_types::{ClusterDriver, NodeId};

use mind_netsim::World;

use crate::cluster::MindCluster;
use crate::messages::Replication;
use crate::node::MindNode;

/// Audit cadence from `MIND_AUDIT_EVERY`: the automatic audit points run
/// the structural audit only at every k-th trigger. The default `1`
/// keeps today's audit-every-event behavior (what the `--features audit`
/// test suite pins); large-world benchmarks set it high because each
/// audit walks the entire deployment — O(nodes² + leaves²) — after
/// every membership event.
pub fn audit_every_from_env() -> u64 {
    audit_every_from_lookup(|name| std::env::var(name).ok())
}

/// [`audit_every_from_env`] with an injectable variable lookup, so the
/// malformed-input paths are testable without mutating the process
/// environment (env vars are global state across test threads).
fn audit_every_from_lookup(lookup: impl Fn(&str) -> Option<String>) -> u64 {
    const NAME: &str = "MIND_AUDIT_EVERY";
    match lookup(NAME) {
        None => 1,
        Some(s) => match s.parse::<u64>() {
            // Every k-th audit point; 0 would mean "never", which is
            // spelled by not enabling the audit feature instead.
            Ok(k) if k >= 1 => k,
            _ => {
                eprintln!("warning: ignoring malformed {NAME}={s:?}; using 1");
                1
            }
        },
    }
}

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

    /// Cadence-gated audit point: counts every trigger and runs the full
    /// audit only at every `MIND_AUDIT_EVERY`-th one (default 1 = every
    /// trigger). This is what the automatic audit points inside
    /// `run_for`/`crash`/`revive`/... call, so a 10k-node world under
    /// churn does not pay a whole-world walk per membership event.
    #[cfg(feature = "audit")]
    pub fn audit_point_gated(&self, context: &str) {
        let t = self.audit_ticks.get() + 1;
        self.audit_ticks.set(t);
        if t % self.audit_every == 0 {
            self.audit_point(context);
        }
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
        let (replication, replica_targets) = match state.replication {
            Replication::None => (ReplicationSnapshot::None, Vec::new()),
            Replication::Level(m) => (
                ReplicationSnapshot::Level(m),
                overlay.replica_targets(m.into()),
            ),
            Replication::Full => (ReplicationSnapshot::Full, overlay.all_neighbor_targets()),
        };
        let versions = state
            .versions
            .iter()
            .map(|v| VersionSnapshot {
                from_ts: v.from_ts,
                bounds: v.cuts.bounds().clone(),
                leaves: v.cuts.leaves(),
                primary_rows: v.primary_rows,
                replica_rows: v.replica_rows,
            })
            .collect();
        snap.indexes.insert(
            tag,
            IndexSnapshot {
                replication,
                replica_targets,
                versions,
            },
        );
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_cadence_parses_like_the_other_env_knobs() {
        assert_eq!(audit_every_from_lookup(|_| None), 1);
        assert_eq!(audit_every_from_lookup(|_| Some("64".into())), 64);
        // Malformed or senseless values warn and fall back to every-event.
        assert_eq!(audit_every_from_lookup(|_| Some("0".into())), 1);
        assert_eq!(audit_every_from_lookup(|_| Some("-3".into())), 1);
        assert_eq!(audit_every_from_lookup(|_| Some("often".into())), 1);
        assert_eq!(audit_every_from_lookup(|_| Some("".into())), 1);
    }
}
