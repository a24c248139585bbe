//! The control protocol between clients (`mind-loadgen`, operators,
//! tests) and a `mind-node` process.
//!
//! Serde-encoded [`ControlRequest`]/[`ControlResponse`] values travel in
//! the same length-delimited frames the overlay uses (`mind_net::frame`),
//! over a dedicated control socket per node. One request, one response,
//! in order, per connection; connections are cheap and long-lived.

use mind_audit::NodeSnapshot;
use mind_core::{FlushCounts, QueryOutcome, Replication};
use mind_net::frame::{read_frame, write_frame};
use mind_net::{from_bytes, to_bytes, HostStatsSnapshot};
use mind_types::{IndexSchema, Record};
use serde::{Deserialize, Serialize};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A client operation on one node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ControlRequest {
    /// Liveness probe.
    Ping,
    /// Create an index (floods cluster-wide from this node). The cut
    /// tree is built node-side as an even `depth`-deep split of the
    /// schema bounds.
    CreateIndex {
        /// The index schema.
        schema: IndexSchema,
        /// Even cut-tree depth.
        depth: u8,
        /// Replication policy.
        replication: Replication,
    },
    /// Insert a batch of records into `index` at this node. One request,
    /// one ack — the client's unit of batching.
    Insert {
        /// Target index tag.
        index: String,
        /// Records in schema order.
        rows: Vec<Record>,
    },
    /// Range query over `index`; blocks node-side until the distributed
    /// query completes or times out.
    Query {
        /// Target index tag.
        index: String,
        /// Per-dimension lower corner (inclusive).
        lo: Vec<u64>,
        /// Per-dimension upper corner (inclusive).
        hi: Vec<u64>,
    },
    /// The node's transport counters.
    HostStats,
    /// The node's protocol counters ([`NodeStats`]).
    NodeStats,
    /// The node's audited state: membership, index catalog and per-version
    /// row counts, and what fleet-wide invariant checks range over.
    Snapshot,
    /// Clean process shutdown via the stop flag (no signals involved).
    Shutdown,
}

/// What one node's ingest and query planes did, from its `NodeMetrics`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NodeStats {
    /// Rows inserted at this node (the rows its batcher ships).
    pub rows_originated: u64,
    /// Insert frames the node's batcher shipped, by flush cause.
    pub frames: FlushCounts,
    /// Rows the node re-originated toward their owner.
    pub rows_forwarded: u64,
    /// Sub-query scan jobs the node ran (one per `SubQuery` it answered).
    pub subquery_scans: u64,
    /// Covering regions those scan jobs answered.
    pub query_regions: u64,
}

/// The node's answer to one [`ControlRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ControlResponse {
    /// Generic success.
    Ok,
    /// Answer to [`ControlRequest::Ping`].
    Pong,
    /// Answer to [`ControlRequest::Query`].
    Query(QueryOutcome),
    /// Answer to [`ControlRequest::HostStats`].
    HostStats(HostStatsSnapshot),
    /// Answer to [`ControlRequest::NodeStats`].
    NodeStats(NodeStats),
    /// Answer to [`ControlRequest::Snapshot`].
    Snapshot(NodeSnapshot),
    /// The operation failed node-side.
    Err(String),
}

/// A blocking control-protocol client over one TCP connection.
pub struct ControlClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ControlClient {
    /// Connects to a node's control address.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(ControlClient { reader, writer })
    }

    /// Connects, retrying until the node answers a ping or the deadline
    /// passes — the "wait for the process to come up" helper.
    pub fn connect_ready(addr: SocketAddr, deadline: Duration) -> io::Result<Self> {
        let end = std::time::Instant::now() + deadline;
        loop {
            if let Ok(mut c) = Self::connect(addr, Duration::from_millis(250)) {
                if let Ok(ControlResponse::Pong) = c.call(&ControlRequest::Ping) {
                    return Ok(c);
                }
            }
            if std::time::Instant::now() >= end {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{addr} never answered a ping"),
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// One request/response round trip.
    pub fn call(&mut self, req: &ControlRequest) -> io::Result<ControlResponse> {
        let bytes = to_bytes(req).map_err(io::Error::other)?;
        write_frame(&mut self.writer, &bytes)?;
        self.writer.flush()?;
        let Some(reply) = read_frame(&mut self.reader)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "control connection closed mid-call",
            ));
        };
        from_bytes(&reply).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_types::{AttrDef, AttrKind, NodeId};

    #[test]
    fn requests_roundtrip_through_the_wire_codec() {
        let reqs = vec![
            ControlRequest::Ping,
            ControlRequest::CreateIndex {
                schema: IndexSchema::new(
                    "t",
                    vec![AttrDef::new("x", AttrKind::Generic, 0, 100)],
                    1,
                ),
                depth: 4,
                replication: Replication::Level(1),
            },
            ControlRequest::Insert {
                index: "t".into(),
                rows: vec![Record::new(vec![7])],
            },
            ControlRequest::Query {
                index: "t".into(),
                lo: vec![0],
                hi: vec![100],
            },
            ControlRequest::Shutdown,
        ];
        for req in reqs {
            let bytes = to_bytes(&req).unwrap();
            let back: ControlRequest = from_bytes(&bytes).unwrap();
            assert_eq!(format!("{req:?}"), format!("{back:?}"));
        }
        let resp = ControlResponse::Snapshot(NodeSnapshot::new(NodeId(3)));
        let bytes = to_bytes(&resp).unwrap();
        let back: ControlResponse = from_bytes(&bytes).unwrap();
        assert_eq!(format!("{resp:?}"), format!("{back:?}"));
    }
}
