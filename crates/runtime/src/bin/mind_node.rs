//! `mind-node`: one process, one MIND node.
//!
//! ```text
//! mind-node --id 2 --cluster cluster.txt [--retry-ms 500] [--hb-ms 500]
//!           [--anti-entropy-ms 45000]
//! ```
//!
//! `--retry-ms` is the base ack timeout before an unacked op is re-sent
//! and must be > 0. Insert batching is fixed: at most 64 rows share one
//! insert frame to one owner, and a row waits at most 5 ms behind that
//! owner's unacked frame before it ships anyway — a cap, not a wait: with
//! nothing in flight the rows leave at the end of the pass that took them.
//!
//! Reads the cluster spec (`id node_addr control_addr` per line), binds
//! this node's overlay and control listeners, hosts the `MindNode` logic
//! on a `TcpHost`, and serves the control protocol until a `Shutdown`
//! request flips the stop flag — no signals involved.

use mind_core::{DacCostModel, MindConfig, MindNode};
use mind_net::TcpHost;
use mind_overlay::{OverlayConfig, StaticTopology};
use mind_runtime::{server, ClusterSpec};
use mind_types::node::MILLIS;
use mind_types::NodeId;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

/// Rows at most in one insert frame to one owner.
const INSERT_BATCH_MAX: usize = 64;
/// The longest a row waits behind its owner's unacked frame.
const INSERT_BATCH_AGE: u64 = 5 * MILLIS;

struct Args {
    id: u32,
    cluster: PathBuf,
    retry_ms: u64,
    hb_ms: u64,
    anti_entropy_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut id = None;
    let mut cluster = None;
    let mut retry_ms = 500u64;
    let mut hb_ms = 500u64;
    let mut anti_entropy_ms = 45_000u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--id" => id = Some(val("--id")?.parse().map_err(|e| format!("--id: {e}"))?),
            "--cluster" => cluster = Some(PathBuf::from(val("--cluster")?)),
            "--retry-ms" => {
                retry_ms = val("--retry-ms")?
                    .parse()
                    .map_err(|e| format!("--retry-ms: {e}"))?;
                if retry_ms == 0 {
                    return Err(
                        "--retry-ms must be > 0: every write op is acked and retried".into(),
                    );
                }
            }
            "--hb-ms" => {
                hb_ms = val("--hb-ms")?
                    .parse()
                    .map_err(|e| format!("--hb-ms: {e}"))?;
            }
            "--anti-entropy-ms" => {
                anti_entropy_ms = val("--anti-entropy-ms")?
                    .parse()
                    .map_err(|e| format!("--anti-entropy-ms: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        id: id.ok_or("--id is required")?,
        cluster: cluster.ok_or("--cluster is required")?,
        retry_ms,
        hb_ms,
        anti_entropy_ms,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mind-node: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match ClusterSpec::load(&args.cluster) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mind-node: bad cluster spec: {e}");
            return ExitCode::FAILURE;
        }
    };
    let id = NodeId(args.id);
    let Some(me) = spec.node(id).copied() else {
        eprintln!("mind-node: id {} not in the cluster spec", args.id);
        return ExitCode::FAILURE;
    };

    let n = spec.len();
    let topo = StaticTopology::balanced(n);
    let overlay_cfg = OverlayConfig {
        hb_interval: args.hb_ms * MILLIS,
        ..OverlayConfig::default()
    };
    // Boot epoch: strictly increasing across restarts of this node id, so
    // peers can tell this incarnation's fresh op counters from the dead
    // one's settled ones (the reliability horizon protocol).
    let boot_id = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(1);
    let mind_cfg = MindConfig {
        retry_timeout: args.retry_ms * MILLIS,
        anti_entropy_interval: args.anti_entropy_ms * MILLIS,
        insert_batch_max: INSERT_BATCH_MAX,
        insert_batch_age: INSERT_BATCH_AGE,
        boot_id,
        // Nothing on the process plane reads the per-row latency and hop
        // samples, so a long-lived node keeps none.
        metrics_samples_max: 0,
        // No MySQL stands behind a real node: no modelled DAC cost, so
        // what a batch costs is the store's own work.
        dac_cost: DacCostModel::FREE,
        ..MindConfig::default()
    };
    let logic = MindNode::new_static(
        id,
        topo.code(args.id as usize),
        topo.neighbor_entries(args.id as usize),
        overlay_cfg,
        mind_cfg,
    );

    let node_listener = match TcpListener::bind(me.node_addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mind-node: cannot bind node addr {}: {e}", me.node_addr);
            return ExitCode::FAILURE;
        }
    };
    let control_listener = match TcpListener::bind(me.control_addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!(
                "mind-node: cannot bind control addr {}: {e}",
                me.control_addr
            );
            return ExitCode::FAILURE;
        }
    };

    let host = match TcpHost::spawn(id, node_listener, spec.peer_map(), logic) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("mind-node: host spawn failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "mind-node id={} node_addr={} control_addr={} peers={}",
        args.id, me.node_addr, me.control_addr, n
    );

    // Serve until a Shutdown request flips the stop flag.
    server::serve(control_listener, id, host.handle());

    host.shutdown();
    println!("mind-node id={} stopped", args.id);
    ExitCode::SUCCESS
}
