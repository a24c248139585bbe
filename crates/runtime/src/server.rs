//! The per-process control server: runs control-protocol requests against
//! the hosted node, on the connection's thread under the node's core lock.
//!
//! One thread per control connection; each request becomes one
//! [`HostHandle::invoke`], and a distributed query, which the node answers
//! asynchronously, one more [`HostHandle::wait_for`]: the pass that
//! finishes it hands the outcome to the connection's thread. Shutdown is
//! SIGTERM-free: a [`ControlRequest::Shutdown`] flips the shared stop
//! flag, the accept loop unblocks itself, and the process's main thread
//! proceeds to halt the host.

use crate::control::{ControlRequest, ControlResponse, NodeStats};
use mind_core::audit::snapshot_node;
use mind_core::{MindNode, QueryOutcome};
use mind_histogram::CutTree;
use mind_net::frame::{read_frame, write_frame};
use mind_net::{from_bytes, to_bytes, HostHandle};
use mind_types::{HyperRect, MindError, NodeId};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a control-side query waits for the distributed answer.
const QUERY_WAIT: Duration = Duration::from_secs(120);

/// Serves the control protocol for one hosted node until a
/// [`ControlRequest::Shutdown`] arrives (or the stop flag is flipped by
/// other means). Blocks the calling thread.
pub fn serve(listener: TcpListener, id: NodeId, handle: HostHandle<MindNode>) {
    let stop = Arc::new(AtomicBool::new(false));
    let local = listener.local_addr().ok();
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let handle = handle.clone();
        let stop = Arc::clone(&stop);
        let spawned = std::thread::Builder::new()
            .name(format!("mind-ctl-{}", id.0))
            .spawn(move || {
                let _ = stream.set_nodelay(true);
                let Ok(peer) = stream.try_clone() else { return };
                let mut reader = BufReader::new(peer);
                let mut writer = BufWriter::new(stream);
                while let Ok(Some(bytes)) = read_frame(&mut reader) {
                    let Ok(req) = from_bytes::<ControlRequest>(&bytes) else {
                        break; // corrupted client
                    };
                    let is_shutdown = matches!(req, ControlRequest::Shutdown);
                    let resp = answer(&handle, id, req)
                        .unwrap_or_else(|| ControlResponse::Err("host stopped".into()));
                    if let Ok(frame) = to_bytes(&resp) {
                        if write_frame(&mut writer, &frame)
                            .and_then(|()| writer.flush())
                            .is_err()
                        {
                            break;
                        }
                    }
                    if is_shutdown {
                        stop.store(true, Ordering::Relaxed);
                        // Unblock the accept loop.
                        if let Some(addr) = local {
                            let _ = TcpStream::connect(addr);
                        }
                        return;
                    }
                }
            });
        if spawned.is_err() {
            break;
        }
    }
}

/// Executes one request against the hosted node; `None` once the host
/// has stopped.
fn answer(
    handle: &HostHandle<MindNode>,
    id: NodeId,
    req: ControlRequest,
) -> Option<ControlResponse> {
    let done = |r: Result<(), MindError>| match r {
        Ok(()) => ControlResponse::Ok,
        Err(e) => ControlResponse::Err(e.to_string()),
    };
    Some(match req {
        ControlRequest::Ping => ControlResponse::Pong,
        ControlRequest::HostStats => ControlResponse::HostStats(handle.stats()),
        ControlRequest::CreateIndex {
            schema,
            depth,
            replication,
        } => {
            let cuts = CutTree::even(schema.bounds(), depth);
            done(
                handle
                    .invoke(move |n, _now, out| n.create_index(schema, cuts, replication, out))?,
            )
        }
        ControlRequest::Insert { index, rows } => done(handle.invoke(move |n, now, out| {
            rows.into_iter()
                .try_for_each(|rec| n.insert(now, &index, rec, out))
        })?),
        ControlRequest::Query { index, lo, hi } => {
            let rect = HyperRect::new(lo, hi);
            match handle.invoke(move |n, now, out| n.query(now, &index, rect, vec![], out))? {
                // Taking the outcome keeps no finished query's rows. Past the
                // deadline a live host (the invoke) answers incomplete.
                Ok(qid) => ControlResponse::Query(
                    handle
                        .wait_for(QUERY_WAIT, move |n| n.take_query_outcome(qid))
                        .or_else(|| handle.invoke(|_, _, _| QueryOutcome::default()))?,
                ),
                Err(e) => ControlResponse::Err(e.to_string()),
            }
        }
        ControlRequest::NodeStats => {
            ControlResponse::NodeStats(handle.invoke(|n, _now, _out| NodeStats {
                rows_originated: n.metrics.inserts_originated,
                frames: n.metrics.insert_frames,
                rows_forwarded: n.metrics.insert_rows_forwarded,
                subquery_scans: n.metrics.subqueries_answered,
                query_regions: n.metrics.query_regions_answered,
            })?)
        }
        ControlRequest::Snapshot => ControlResponse::Snapshot(
            handle.invoke(move |n, _now, _out| snapshot_node(id, true, n))?,
        ),
        ControlRequest::Shutdown => ControlResponse::Ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_core::{MindConfig, Replication};
    use mind_net::TcpHost;
    use mind_overlay::{OverlayConfig, StaticTopology};
    use mind_types::{AttrDef, AttrKind, IndexSchema};

    #[test]
    fn a_finished_query_leaves_the_node() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = [(NodeId(0), listener.local_addr().unwrap())].into();
        let topo = StaticTopology::balanced(1);
        let logic = MindNode::new_static(
            NodeId(0),
            topo.code(0),
            topo.neighbor_entries(0),
            OverlayConfig::default(),
            MindConfig::default(),
        );
        let host = TcpHost::spawn(NodeId(0), listener, peers, logic).unwrap();
        let handle = host.handle();
        let schema = IndexSchema::new("t", vec![AttrDef::new("x", AttrKind::Generic, 0, 100)], 1);
        let create = ControlRequest::CreateIndex {
            schema,
            depth: 2,
            replication: Replication::None,
        };
        assert!(matches!(
            answer(&handle, NodeId(0), create),
            Some(ControlResponse::Ok)
        ));
        let query = ControlRequest::Query {
            index: "t".into(),
            lo: vec![0],
            hi: vec![100],
        };
        let Some(ControlResponse::Query(outcome)) = answer(&handle, NodeId(0), query) else {
            panic!("not a query answer");
        };
        assert!(outcome.complete);
        assert_eq!(host.invoke(|n, _now, _out| n.queries.len()), 0);
        host.shutdown();
    }
}
