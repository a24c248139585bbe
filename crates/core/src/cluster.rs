//! The experiment harness: a full MIND deployment behind the
//! [`ClusterDriver`] seam.
//!
//! [`MindCluster`] is the programmatic equivalent of the paper's PlanetLab
//! deployments: `n` [`MindNode`]s on a statically constructed balanced
//! hypercube (the way the paper "carefully constructed" its 34-node
//! overlay), exposing the MIND interface plus the metric collection every
//! figure of the evaluation needs.
//!
//! The cluster is generic over **how** the nodes run: the default driver
//! is `mind-netsim`'s deterministic `World` (one process, simulated
//! clock, byte-identical replay), and the same API runs unchanged over
//! `mind-net`'s `TcpFleet` (one thread-per-connection TCP host per node,
//! real clocks, best-effort ordering). Code that needs simulator-only
//! facilities — fault plans, link outages, `SimStats` — uses the
//! sim-specialized accessors [`MindCluster::world`] /
//! [`MindCluster::world_mut`], which only exist for the sim driver.

use crate::messages::CarriedFilter;
use crate::node::{MindConfig, MindNode};
use crate::query::QueryOutcome;
use mind_histogram::CutTree;
use mind_netsim::{SimConfig, Site, World};
use mind_overlay::{OverlayConfig, StaticTopology};
use mind_types::node::SimTime;
use mind_types::{ClusterDriver, HyperRect, IndexSchema, MindError, NodeId, Record, Replication};

/// Everything needed to stand up a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Network simulation parameters.
    pub sim: SimConfig,
    /// Overlay protocol parameters.
    pub overlay: OverlayConfig,
    /// Per-node MIND parameters.
    pub mind: MindConfig,
    /// Deployment sites; the cluster size is `sites.len()`.
    pub sites: Vec<Site>,
}

impl ClusterConfig {
    /// The paper's baseline deployment: 34 nodes at the Abilene + GÉANT
    /// router cities.
    pub fn baseline(seed: u64) -> Self {
        ClusterConfig {
            sim: SimConfig {
                seed,
                ..SimConfig::default()
            },
            overlay: OverlayConfig::default(),
            mind: MindConfig::default(),
            sites: mind_netsim::topology::baseline_sites(),
        }
    }

    /// The large-scale deployment: `n` PlanetLab-like sites.
    pub fn planetlab(n: usize, seed: u64) -> Self {
        ClusterConfig {
            sim: SimConfig {
                seed,
                ..SimConfig::default()
            },
            overlay: OverlayConfig::default(),
            mind: MindConfig::default(),
            sites: mind_netsim::planetlab_sites(n, seed),
        }
    }
}

/// A running MIND deployment over any [`ClusterDriver`].
///
/// The default driver is the discrete-event simulator; `MindCluster`
/// with no type argument is the simulated cluster every experiment and
/// test has always used.
pub struct MindCluster<D = World<MindNode>> {
    driver: D,
    topology: StaticTopology,
}

impl MindCluster<World<MindNode>> {
    /// Builds the simulated cluster: a balanced static overlay, one node
    /// per site, on a fresh deterministic world.
    pub fn new(cfg: ClusterConfig) -> Self {
        let n = cfg.sites.len();
        assert!(n >= 1, "a cluster needs at least one site");
        let topology = StaticTopology::balanced(n);
        let mut world = World::new(cfg.sim);
        for (k, site) in cfg.sites.into_iter().enumerate() {
            let node = MindNode::new_static(
                NodeId(k as u32),
                topology.code(k),
                topology.neighbor_entries(k),
                cfg.overlay,
                cfg.mind,
            );
            world.add_node(node, site);
        }
        MindCluster {
            driver: world,
            topology,
        }
    }

    /// The underlying simulation world (failure injection, stats).
    pub fn world(&self) -> &World<MindNode> {
        &self.driver
    }

    /// Mutable access to the world (outage scheduling, tracing).
    pub fn world_mut(&mut self) -> &mut World<MindNode> {
        &mut self.driver
    }
}

impl<D: ClusterDriver<MindNode>> MindCluster<D> {
    /// Wraps an already-populated driver (a `TcpFleet`, a hand-built
    /// world) and the static code assignment its nodes were built from.
    pub fn from_parts(driver: D, topology: StaticTopology) -> Self {
        MindCluster { driver, topology }
    }

    /// The driver this cluster runs over.
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Mutable access to the driver.
    pub fn driver_mut(&mut self) -> &mut D {
        &mut self.driver
    }

    /// Consumes the cluster, returning the driver (fleet teardown).
    pub fn into_driver(self) -> D {
        self.driver
    }

    /// Number of nodes (alive or dead).
    pub fn len(&self) -> usize {
        self.driver.len()
    }

    /// `true` when the cluster has no nodes (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.driver.is_empty()
    }

    /// Current cluster time (simulated or wall, per the driver).
    pub fn now(&self) -> SimTime {
        self.driver.now()
    }

    /// The static code assignment (for test oracles).
    pub fn topology(&self) -> &StaticTopology {
        &self.topology
    }

    /// `true` if node `id` is currently up.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.driver.is_alive(id)
    }

    /// Runs a read-only closure against one node's logic: the generic
    /// inspection hook for tests and metric harvesters that need state
    /// this API does not expose directly.
    pub fn read_node<R, F>(&self, id: NodeId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&MindNode) -> R + Send + 'static,
    {
        self.driver.read(id, f)
    }

    /// Runs the cluster until absolute time `t` (no-op if in the past).
    pub fn run_until(&mut self, t: SimTime) {
        let now = self.driver.now();
        if t > now {
            self.run_for(t - now);
        }
    }

    /// Advances cluster time by `d`.
    pub fn run_for(&mut self, d: SimTime) {
        self.driver.run_for(d);
        #[cfg(feature = "audit")]
        self.audit_point("after run_for (joins/failures/takeovers settled here)");
    }

    /// Best-effort settle barrier bounded by `limit` (see
    /// [`ClusterDriver::quiesce`]).
    pub fn quiesce(&mut self, limit: SimTime) {
        self.driver.quiesce(limit);
        #[cfg(feature = "audit")]
        self.audit_point("after quiesce");
    }

    /// Polls `cond` every [`ClusterDriver::poll_interval`] until it holds
    /// or `timeout` elapses; returns whether it held. The portable
    /// barrier for "wait until the flood/burst/rejoin lands" under either
    /// driver.
    pub fn wait_until(
        &mut self,
        timeout: SimTime,
        mut cond: impl FnMut(&mut Self) -> bool,
    ) -> bool {
        let deadline = self.driver.now() + timeout;
        loop {
            if cond(self) {
                return true;
            }
            if self.driver.now() >= deadline {
                return false;
            }
            let step = self.driver.poll_interval();
            self.driver.run_for(step);
        }
    }

    /// Creates an index from node `at` (floods to all nodes).
    pub fn create_index(
        &mut self,
        at: NodeId,
        schema: IndexSchema,
        cuts: CutTree,
        replication: Replication,
    ) -> Result<(), MindError> {
        let r = self.driver.with_node(at, move |n, _now, out| {
            n.create_index(schema, cuts, replication, out)
        });
        #[cfg(feature = "audit")]
        self.audit_point("after create_index");
        r
    }

    /// Inserts a record into `index` from node `at`.
    pub fn insert(&mut self, at: NodeId, index: &str, record: Record) -> Result<(), MindError> {
        let index = index.to_string();
        self.driver
            .with_node(at, move |n, now, out| n.insert(now, &index, record, out))
    }

    /// Issues a query from node `at`; returns the query id.
    pub fn query(
        &mut self,
        at: NodeId,
        index: &str,
        rect: HyperRect,
        filters: Vec<CarriedFilter>,
    ) -> Result<u64, MindError> {
        let index = index.to_string();
        self.driver.with_node(at, move |n, now, out| {
            n.query(now, &index, rect, filters, out)
        })
    }

    /// The outcome of a query issued from `at`, once finished.
    pub fn query_outcome(&self, at: NodeId, query_id: u64) -> Option<QueryOutcome> {
        self.driver.read(at, move |n| n.query_outcome(query_id))
    }

    /// Issues a query and runs the cluster until it finishes (or the
    /// deadline passes). Convenience for experiments.
    pub fn query_and_wait(
        &mut self,
        at: NodeId,
        index: &str,
        rect: HyperRect,
        filters: Vec<CarriedFilter>,
    ) -> Result<QueryOutcome, MindError> {
        let qid = self.query(at, index, rect, filters)?;
        self.wait_until(120 * mind_types::node::SECONDS, |c| {
            c.query_outcome(at, qid).is_some()
        });
        Ok(self.query_outcome(at, qid).unwrap_or_default())
    }

    /// Installs a standing query from node `at`; returns the trigger id.
    pub fn create_trigger(
        &mut self,
        at: NodeId,
        index: &str,
        rect: HyperRect,
        filters: Vec<CarriedFilter>,
    ) -> Result<u64, MindError> {
        let index = index.to_string();
        self.driver.with_node(at, move |n, _now, out| {
            n.create_trigger(&index, rect, filters, out)
        })
    }

    /// Removes a standing query from node `at`.
    pub fn drop_trigger(&mut self, at: NodeId, trigger_id: u64) {
        self.driver
            .with_node(at, move |n, _now, out| n.drop_trigger(trigger_id, out));
    }

    /// Notifications node `at` has received for its triggers.
    pub fn trigger_log(&self, at: NodeId) -> Vec<(u64, NodeId, mind_types::Record)> {
        self.driver.read(at, |n| n.trigger_log.clone())
    }

    /// Garbage-collects aged index versions on every live node; returns
    /// the total number of version stores dropped.
    pub fn gc_versions(&mut self, index: &str, before_ts: u64) -> usize {
        let mut total = 0;
        for k in 0..self.driver.len() {
            let id = NodeId(k as u32);
            if self.driver.is_alive(id) {
                let index = index.to_string();
                total += self.driver.with_node(id, move |n, _now, _out| {
                    n.gc_versions(&index, before_ts).unwrap_or(0)
                });
            }
        }
        #[cfg(feature = "audit")]
        self.audit_point("after gc_versions (version rollover/GC)");
        total
    }

    /// Ships day histograms from every live node (day-boundary tick).
    pub fn report_day_histograms(&mut self, index: &str, day: u64) {
        for k in 0..self.driver.len() {
            let id = NodeId(k as u32);
            if self.driver.is_alive(id) {
                let index = index.to_string();
                let _ = self.driver.with_node(id, move |n, now, out| {
                    n.report_day_histogram(now, &index, day, out)
                });
            }
        }
    }

    /// Crashes a node (messages to it are dropped until revived).
    pub fn crash(&mut self, id: NodeId) {
        self.driver.crash(id);
        #[cfg(feature = "audit")]
        self.audit_point("after crash (failure injected)");
    }

    /// Revives a crashed node.
    pub fn revive(&mut self, id: NodeId) {
        self.driver.revive(id);
        #[cfg(feature = "audit")]
        self.audit_point("after revive (rejoin begins)");
    }

    /// All insertion latency samples across nodes (µs).
    pub fn insert_latency_samples(&self) -> Vec<SimTime> {
        let mut v = Vec::new();
        for k in 0..self.driver.len() {
            v.extend(self.driver.read(NodeId(k as u32), |n| {
                n.metrics
                    .insert_latencies
                    .iter()
                    .map(|&(_, lat)| lat)
                    .collect::<Vec<_>>()
            }));
        }
        v
    }

    /// All insertion hop counts across nodes.
    pub fn insert_hops(&self) -> Vec<u32> {
        let mut v = Vec::new();
        for k in 0..self.driver.len() {
            v.extend(
                self.driver
                    .read(NodeId(k as u32), |n| n.metrics.insert_hops.clone()),
            );
        }
        v
    }

    /// Primary rows per node for one index (Figure 13's series).
    pub fn storage_distribution(&self, index: &str) -> Vec<u64> {
        (0..self.driver.len())
            .map(|k| {
                let index = index.to_string();
                self.driver.read(NodeId(k as u32), move |n| {
                    n.index_state(&index).map(|s| s.primary_rows()).unwrap_or(0)
                })
            })
            .collect()
    }

    /// Total records stored (primary only) for sanity checks.
    pub fn total_primary_rows(&self, index: &str) -> u64 {
        self.storage_distribution(index).iter().sum()
    }

    /// Primary rows resident on a live node that does not own them (see
    /// [`MindNode::misplaced_primary_rows`]), summed over the cluster.
    pub fn misplaced_primary_rows(&self, index: &str) -> u64 {
        (0..self.driver.len())
            .map(|k| NodeId(k as u32))
            .filter(|&id| self.driver.is_alive(id))
            .map(|id| {
                let index = index.to_string();
                self.driver
                    .read(id, move |n| n.misplaced_primary_rows(&index))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_config_has_34_sites() {
        let cfg = ClusterConfig::baseline(1);
        assert_eq!(cfg.sites.len(), 34);
        let cluster = MindCluster::new(cfg);
        assert_eq!(cluster.len(), 34);
    }

    #[test]
    fn planetlab_config_sizes() {
        let cfg = ClusterConfig::planetlab(102, 2);
        assert_eq!(MindCluster::new(cfg).len(), 102);
    }
}
