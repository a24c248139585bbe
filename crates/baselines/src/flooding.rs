//! The query-flooding baseline: data stays local, queries go everywhere.

use crate::messages::BaselineMsg;
use mind_store::{Store, StoreKind};
use mind_types::node::{NodeLogic, Outbox, SimTime};
use mind_types::{DetHashMap, DetHashSet, HyperRect, NodeId, Record};

/// Tracks one flooded query at its originator.
#[derive(Debug)]
pub struct FloodQuery {
    /// Issue time.
    pub issued_at: SimTime,
    /// Nodes that have not answered yet.
    pub awaiting: DetHashSet<NodeId>,
    /// Accumulated records: the local share's rows and every peer's
    /// answer, moved in as they arrive.
    pub records: Vec<Record>,
    /// Set when every node has answered.
    pub completed_at: Option<SimTime>,
}

/// A monitor node in the flooding architecture.
///
/// Records are stored where they are produced — zero insert traffic — and
/// every query is evaluated by **every** node, which is exactly the
/// scaling drawback Section 2.1 describes for high query loads.
pub struct FloodingNode {
    id: NodeId,
    /// All nodes in the deployment (including self).
    peers: Vec<NodeId>,
    store: Box<dyn Store>,
    query_seq: u64,
    /// In-flight and finished queries by id.
    pub queries: DetHashMap<u64, FloodQuery>,
    /// Queries this node evaluated on behalf of others.
    pub evaluations: u64,
}

impl FloodingNode {
    /// Creates a node that knows the full peer list. Every node evaluates
    /// every query locally, on the store a MIND node uses.
    pub fn new(id: NodeId, peers: Vec<NodeId>, dims: usize) -> Self {
        FloodingNode {
            id,
            peers,
            store: StoreKind::KdTree.new_store(dims),
            query_seq: 0,
            queries: DetHashMap::default(),
            evaluations: 0,
        }
    }

    /// Stores a locally observed record (no network traffic at all).
    pub fn insert_local(&mut self, record: Record) {
        self.store.insert(record);
    }

    /// Records stored on this node.
    pub fn stored(&self) -> usize {
        self.store.len()
    }

    /// Floods a query to every peer; returns the query id.
    pub fn query(&mut self, now: SimTime, rect: HyperRect, out: &mut Outbox<BaselineMsg>) -> u64 {
        let query_id = ((self.id.0 as u64) << 32) | self.query_seq;
        self.query_seq += 1;
        let mut awaiting: DetHashSet<NodeId> = self.peers.iter().copied().collect();
        awaiting.remove(&self.id);
        // Answer the local share immediately.
        let local = self.store.range_records(&rect);
        self.evaluations += 1;
        let mut q = FloodQuery {
            issued_at: now,
            awaiting,
            records: local,
            completed_at: None,
        };
        if q.awaiting.is_empty() {
            q.completed_at = Some(now);
        }
        self.queries.insert(query_id, q);
        for &p in &self.peers {
            if p != self.id {
                out.send(
                    p,
                    BaselineMsg::QueryReq {
                        query_id,
                        rect: rect.clone(),
                        origin: self.id,
                    },
                );
            }
        }
        query_id
    }

    /// Latency of a completed query.
    pub fn query_latency(&self, query_id: u64) -> Option<SimTime> {
        let q = self.queries.get(&query_id)?;
        Some(q.completed_at? - q.issued_at)
    }
}

impl NodeLogic for FloodingNode {
    type Msg = BaselineMsg;

    fn on_start(&mut self, _now: SimTime, _out: &mut Outbox<BaselineMsg>) {}

    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: BaselineMsg,
        out: &mut Outbox<BaselineMsg>,
    ) {
        match msg {
            BaselineMsg::QueryReq {
                query_id,
                rect,
                origin,
            } => {
                self.evaluations += 1;
                let records = self.store.range_records(&rect);
                out.send(
                    origin,
                    BaselineMsg::QueryResp {
                        query_id,
                        responder: self.id,
                        records,
                    },
                );
                let _ = from;
            }
            BaselineMsg::QueryResp {
                query_id,
                responder,
                records,
            } => {
                if let Some(q) = self.queries.get_mut(&query_id) {
                    if q.awaiting.remove(&responder) {
                        q.records.extend(records);
                        if q.awaiting.is_empty() && q.completed_at.is_none() {
                            q.completed_at = Some(now);
                        }
                    }
                }
            }
            BaselineMsg::Insert { .. } => {
                debug_assert!(false, "flooding architecture never ships records");
            }
        }
    }

    fn on_timer(&mut self, _now: SimTime, _token: u64, _out: &mut Outbox<BaselineMsg>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_netsim::world::lan_config;
    use mind_netsim::{Site, World};
    use mind_types::node::SECONDS;

    fn build(n: usize) -> World<FloodingNode> {
        let peers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let mut w = World::new(lan_config(1));
        for k in 0..n {
            w.add_node(
                FloodingNode::new(NodeId(k as u32), peers.clone(), 2),
                Site::new(format!("s{k}"), 0.0, k as f64 * 0.1),
            );
        }
        w
    }

    #[test]
    fn query_gathers_all_local_shares() {
        let mut w = build(8);
        // Each node stores one record at x = its id.
        for k in 0..8u64 {
            w.with_node(NodeId(k as u32), |n, _now, _out| {
                n.insert_local(Record::new(vec![k, 0]));
            });
        }
        let qid = w.with_node(NodeId(0), |n, now, out| {
            n.query(now, HyperRect::new(vec![2, 0], vec![5, 10]), out)
        });
        w.run_until(10 * SECONDS);
        let n0 = w.node(NodeId(0));
        let q = &n0.queries[&qid];
        assert!(q.completed_at.is_some());
        assert_eq!(q.records.len(), 4); // x ∈ {2,3,4,5}
                                        // Every node evaluated the query — the flooding cost.
        for k in 0..8u32 {
            assert_eq!(w.node(NodeId(k)).evaluations, 1, "node {k}");
        }
    }

    #[test]
    fn inserts_cost_no_messages() {
        let mut w = build(4);
        for k in 0..4u32 {
            w.with_node(NodeId(k), |n, _now, _out| {
                for i in 0..100u64 {
                    n.insert_local(Record::new(vec![i, i]));
                }
            });
        }
        w.run_until(SECONDS);
        assert_eq!(w.stats.delivered, 0, "flooding stores locally, no traffic");
    }
}
