//! The centralized baseline: every record moves to one collector.

use crate::messages::BaselineMsg;
use mind_store::{Store, StoreKind};
use mind_types::node::{NodeLogic, Outbox, SimTime};
use mind_types::{HyperRect, NodeId, Record};
use std::collections::HashMap;
use std::sync::Arc;

/// Tracks one query at its originator (single expected answer).
#[derive(Debug)]
pub struct CentralQuery {
    /// Issue time.
    pub issued_at: SimTime,
    /// The hub's answer (shared handles: the hub answering its own query
    /// never copies payloads; wire answers are wrapped on receipt).
    pub records: Vec<Arc<Record>>,
    /// Set when the hub answered.
    pub completed_at: Option<SimTime>,
}

/// A node in the centralized architecture. One node (the *hub*) stores
/// everything; the rest forward records and queries to it.
///
/// Section 2.1: this "lacks the physical redundancy necessary in an
/// operational network monitoring system" and concentrates all insert
/// traffic on the hub's links — measurable here via the simulator's
/// per-link stats.
pub struct CentralizedNode {
    id: NodeId,
    hub: NodeId,
    store: Box<dyn Store>,
    query_seq: u64,
    /// Queries this node originated.
    pub queries: HashMap<u64, CentralQuery>,
    /// Inserts the hub has durably stored.
    pub hub_stored: u64,
    /// Cumulative hub insert latency (µs) for mean computation.
    pub hub_latency_sum: u128,
}

impl CentralizedNode {
    /// Creates a node; `hub` is where all data lives. The store — only
    /// materially exercised at the hub — is the one a MIND node uses.
    pub fn new(id: NodeId, hub: NodeId, dims: usize) -> Self {
        CentralizedNode {
            id,
            hub,
            store: StoreKind::KdTree.new_store(dims),
            query_seq: 0,
            queries: HashMap::new(),
            hub_stored: 0,
            hub_latency_sum: 0,
        }
    }

    /// `true` when this node is the hub.
    pub fn is_hub(&self) -> bool {
        self.id == self.hub
    }

    /// Ships a record to the hub (or stores directly when we are it).
    pub fn insert(&mut self, now: SimTime, record: Record, out: &mut Outbox<BaselineMsg>) {
        if self.is_hub() {
            self.store.insert(record);
            self.hub_stored += 1;
        } else {
            out.send(
                self.hub,
                BaselineMsg::Insert {
                    record,
                    sent_at: now,
                },
            );
        }
    }

    /// Sends a query to the hub; returns the query id.
    pub fn query(&mut self, now: SimTime, rect: HyperRect, out: &mut Outbox<BaselineMsg>) -> u64 {
        let query_id = ((self.id.0 as u64) << 32) | self.query_seq;
        self.query_seq += 1;
        let mut q = CentralQuery {
            issued_at: now,
            records: vec![],
            completed_at: None,
        };
        if self.is_hub() {
            q.records = self.store.range_records(&rect);
            q.completed_at = Some(now);
        } else {
            out.send(
                self.hub,
                BaselineMsg::QueryReq {
                    query_id,
                    rect,
                    origin: self.id,
                },
            );
        }
        self.queries.insert(query_id, q);
        query_id
    }

    /// Latency of a completed query.
    pub fn query_latency(&self, query_id: u64) -> Option<SimTime> {
        let q = self.queries.get(&query_id)?;
        Some(q.completed_at? - q.issued_at)
    }

    /// Rows in the local store (only meaningful at the hub).
    pub fn stored(&self) -> usize {
        self.store.len()
    }
}

impl NodeLogic for CentralizedNode {
    type Msg = BaselineMsg;

    fn on_start(&mut self, _now: SimTime, _out: &mut Outbox<BaselineMsg>) {}

    fn on_message(
        &mut self,
        now: SimTime,
        _from: NodeId,
        msg: BaselineMsg,
        out: &mut Outbox<BaselineMsg>,
    ) {
        match msg {
            BaselineMsg::Insert { record, sent_at } => {
                debug_assert!(self.is_hub(), "only the hub receives inserts");
                self.store.insert(record);
                self.hub_stored += 1;
                self.hub_latency_sum += (now - sent_at) as u128;
            }
            BaselineMsg::QueryReq {
                query_id,
                rect,
                origin,
            } => {
                debug_assert!(self.is_hub(), "only the hub receives queries");
                // Materialize at the wire boundary: the response leaves the
                // hub, so the payload copy is unavoidable here.
                let records = self
                    .store
                    .range_records(&rect)
                    .iter()
                    .map(|r| (**r).clone())
                    .collect();
                out.send(
                    origin,
                    BaselineMsg::QueryResp {
                        query_id,
                        responder: self.id,
                        records,
                    },
                );
            }
            BaselineMsg::QueryResp {
                query_id,
                responder: _,
                records,
            } => {
                if let Some(q) = self.queries.get_mut(&query_id) {
                    q.records = records.into_iter().map(Arc::new).collect();
                    q.completed_at = Some(now);
                }
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

    fn build(n: usize) -> World<CentralizedNode> {
        let mut w = World::new(lan_config(2));
        for k in 0..n {
            w.add_node(
                CentralizedNode::new(NodeId(k as u32), NodeId(0), 2),
                Site::new(format!("s{k}"), 0.0, k as f64 * 0.1),
            );
        }
        w
    }

    #[test]
    fn all_data_lands_on_hub_and_queries_resolve() {
        let mut w = build(8);
        for k in 0..8u32 {
            w.with_node(NodeId(k), |n, now, out| {
                n.insert(now, Record::new(vec![k as u64, 1]), out);
            });
        }
        w.run_until(10 * SECONDS);
        assert_eq!(w.node(NodeId(0)).stored(), 8);
        let qid = w.with_node(NodeId(5), |n, now, out| {
            n.query(now, HyperRect::new(vec![0, 0], vec![3, 10]), out)
        });
        w.run_until(20 * SECONDS);
        let q = &w.node(NodeId(5)).queries[&qid];
        assert!(q.completed_at.is_some());
        assert_eq!(q.records.len(), 4);
    }

    #[test]
    fn hub_links_concentrate_traffic() {
        let mut w = build(8);
        for round in 0..20u64 {
            for k in 1..8u32 {
                w.with_node(NodeId(k), |n, now, out| {
                    n.insert(now, Record::new(vec![round, k as u64]), out);
                });
            }
            let t = w.now() + SECONDS;
            w.run_until(t);
        }
        // Every link with traffic has the hub as an endpoint.
        for ((from, to), stats) in &w.stats.per_link {
            assert!(
                *from == NodeId(0) || *to == NodeId(0),
                "non-hub link {from}->{to} carried {} msgs",
                stats.messages
            );
        }
        let inbound: u64 = w
            .stats
            .per_link
            .iter()
            .filter(|((_, to), _)| *to == NodeId(0))
            .map(|(_, s)| s.messages)
            .sum();
        assert_eq!(inbound, 140, "hub absorbs all 7×20 inserts");
    }

    #[test]
    fn hub_can_query_itself() {
        let mut w = build(2);
        w.with_node(NodeId(0), |n, now, out| {
            n.insert(now, Record::new(vec![5, 5]), out);
        });
        let qid = w.with_node(NodeId(0), |n, now, out| {
            n.query(now, HyperRect::new(vec![0, 0], vec![10, 10]), out)
        });
        assert_eq!(w.node(NodeId(0)).query_latency(qid), Some(0));
    }
}
