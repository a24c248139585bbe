//! The per-process control server: bridges control-protocol connections
//! onto the hosted node's driver thread.
//!
//! One thread per control connection; each request becomes one
//! [`HostHandle::invoke`] (or a short invoke-poll loop for distributed
//! queries, which the node answers asynchronously). Shutdown is
//! SIGTERM-free: a [`ControlRequest::Shutdown`] flips the shared stop
//! flag, the accept loop unblocks itself, and the process's main thread
//! proceeds to halt the host.

use crate::control::{ControlRequest, ControlResponse, NodeStats};
use mind_core::audit::snapshot_node;
use mind_core::{MindNode, QueryOutcome};
use mind_histogram::CutTree;
use mind_net::frame::{read_frame, write_frame};
use mind_net::{from_bytes, to_bytes, HostHandle};
use mind_types::{HyperRect, NodeId};
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
                    let req: ControlRequest = match from_bytes(&bytes) {
                        Ok(r) => r,
                        Err(_) => break, // corrupted client
                    };
                    let is_shutdown = matches!(req, ControlRequest::Shutdown);
                    let resp = answer(&handle, id, req);
                    if let Ok(frame) = to_bytes(&resp) {
                        if write_frame(&mut writer, &frame).is_err() {
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

/// Executes one request against the hosted node.
fn answer(handle: &HostHandle<MindNode>, id: NodeId, req: ControlRequest) -> ControlResponse {
    match req {
        ControlRequest::Ping => ControlResponse::Pong,
        ControlRequest::HostStats => ControlResponse::HostStats(handle.stats()),
        ControlRequest::CreateIndex {
            schema,
            depth,
            replication,
        } => {
            let cuts = CutTree::even(schema.bounds(), depth);
            match handle.invoke(move |n, _now, out| n.create_index(schema, cuts, replication, out))
            {
                Some(Ok(())) => ControlResponse::Ok,
                Some(Err(e)) => ControlResponse::Err(e.to_string()),
                None => ControlResponse::Err("host stopped".into()),
            }
        }
        ControlRequest::Insert { index, rows } => {
            let r = handle.invoke(move |n, now, out| {
                for rec in rows {
                    n.insert(now, &index, rec, out)?;
                }
                Ok::<(), mind_types::MindError>(())
            });
            match r {
                Some(Ok(())) => ControlResponse::Ok,
                Some(Err(e)) => ControlResponse::Err(e.to_string()),
                None => ControlResponse::Err("host stopped".into()),
            }
        }
        ControlRequest::Query { index, lo, hi } => {
            let rect = HyperRect::new(lo, hi);
            let qid = handle.invoke(move |n, now, out| n.query(now, &index, rect, vec![], out));
            let qid = match qid {
                Some(Ok(q)) => q,
                Some(Err(e)) => return ControlResponse::Err(e.to_string()),
                None => return ControlResponse::Err("host stopped".into()),
            };
            // The distributed query completes asynchronously; poll the
            // tracker on the driver thread until it does.
            let deadline = Instant::now() + QUERY_WAIT;
            loop {
                match handle.invoke(move |n, _now, _out| n.query_outcome(qid)) {
                    Some(Some(outcome)) => return ControlResponse::Query(outcome),
                    Some(None) => {
                        if Instant::now() >= deadline {
                            return ControlResponse::Query(QueryOutcome {
                                complete: false,
                                latency: None,
                                records: vec![],
                                cost_nodes: 0,
                            });
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    None => return ControlResponse::Err("host stopped".into()),
                }
            }
        }
        ControlRequest::PrimaryRows { index } => {
            match handle.invoke(move |n, _now, _out| {
                n.index_state(&index).map(|s| s.primary_rows()).unwrap_or(0)
            }) {
                Some(count) => ControlResponse::Count(count),
                None => ControlResponse::Err("host stopped".into()),
            }
        }
        ControlRequest::Catalog => match handle.invoke(|n, _now, _out| n.index_tags()) {
            Some(tags) => ControlResponse::Catalog(tags),
            None => ControlResponse::Err("host stopped".into()),
        },
        ControlRequest::IsMember => match handle.invoke(|n, _now, _out| n.overlay().is_member()) {
            Some(m) => ControlResponse::Member(m),
            None => ControlResponse::Err("host stopped".into()),
        },
        ControlRequest::NodeStats => {
            let stats = handle.invoke(|n, _now, _out| NodeStats {
                frames: n.metrics.insert_frames,
                rows_forwarded: n.metrics.insert_rows_forwarded,
                subquery_scans: n.metrics.subqueries_answered,
                query_regions: n.metrics.query_regions_answered,
            });
            match stats {
                Some(stats) => ControlResponse::NodeStats(stats),
                None => ControlResponse::Err("host stopped".into()),
            }
        }
        ControlRequest::Snapshot => {
            match handle.invoke(move |n, _now, _out| snapshot_node(id, true, n)) {
                Some(snap) => ControlResponse::Snapshot(snap),
                None => ControlResponse::Err("host stopped".into()),
            }
        }
        ControlRequest::Shutdown => ControlResponse::Ok,
    }
}
