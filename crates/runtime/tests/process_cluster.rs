//! Process-per-node integration tests: real `mind-node` binaries on
//! localhost, driven over the control protocol.
//!
//! * kill -9 one process mid-run, restart it, and assert the PR 1
//!   stale-membership invariant at process level: the revived node comes
//!   back **fresh** (member again, zero rows, catalog re-learned via
//!   anti-entropy) and the cluster keeps serving,
//! * a loadgen smoke: reported percentiles are monotone
//!   (p50 ≤ p99 ≤ p999), ops counts conserve, and the whole cluster
//!   shuts down cleanly over the control protocol (no signals).

use mind_core::Replication;
use mind_runtime::control::{ControlClient, ControlRequest, ControlResponse};
use mind_runtime::loadgen::{self, LoadOptions};
use mind_runtime::ClusterSpec;
use mind_types::{NodeId, Record};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NODE_BIN: &str = env!("CARGO_BIN_EXE_mind-node");

/// Kills any still-running children on drop so a failed assert doesn't
/// leak processes.
struct Fleet {
    children: Vec<Option<Child>>,
    spec_path: PathBuf,
    spec: ClusterSpec,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for c in self.children.iter_mut().flatten() {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_file(&self.spec_path);
    }
}

fn spawn_node(spec_path: &PathBuf, id: u32, extra: &[&str]) -> Child {
    let mut cmd = Command::new(NODE_BIN);
    cmd.arg("--id")
        .arg(id.to_string())
        .arg("--cluster")
        .arg(spec_path)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for a in extra {
        cmd.arg(a);
    }
    cmd.spawn().expect("spawn mind-node")
}

fn spawn_fleet(n: usize, tag: &str, extra: &[&str]) -> Fleet {
    let spec = ClusterSpec::localhost(n).expect("alloc ports");
    let spec_path =
        std::env::temp_dir().join(format!("mind-proc-{}-{}.cluster", std::process::id(), tag));
    std::fs::write(&spec_path, spec.render()).expect("write spec");
    let children = (0..n)
        .map(|k| Some(spawn_node(&spec_path, k as u32, extra)))
        .collect();
    Fleet {
        children,
        spec_path,
        spec,
    }
}

fn client(fleet: &Fleet, id: u32) -> ControlClient {
    ControlClient::connect_ready(
        fleet.spec.node(NodeId(id)).unwrap().control_addr,
        Duration::from_secs(20),
    )
    .expect("node never became ready")
}

fn primary_rows(c: &mut ControlClient, index: &str) -> u64 {
    match c
        .call(&ControlRequest::PrimaryRows {
            index: index.into(),
        })
        .expect("rows call")
    {
        ControlResponse::Count(k) => k,
        r => panic!("unexpected rows response {r:?}"),
    }
}

fn total_rows(clients: &mut [ControlClient], index: &str) -> u64 {
    clients.iter_mut().map(|c| primary_rows(c, index)).sum()
}

fn has_index(c: &mut ControlClient, index: &str) -> bool {
    matches!(
        c.call(&ControlRequest::Catalog),
        Ok(ControlResponse::Catalog(tags)) if tags.iter().any(|t| t == index)
    )
}

/// Waits up to `d` for the child to exit successfully.
fn wait_timeout(child: &mut Child, d: Duration) -> bool {
    let deadline = Instant::now() + d;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return false;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => return false,
        }
    }
}

/// Shuts down over the control protocol and asserts every process exits 0
/// within the grace period — the SIGTERM-free shutdown proof.
fn shutdown_and_reap(fleet: &mut Fleet) {
    loadgen::shutdown_cluster(&fleet.spec);
    for (k, slot) in fleet.children.iter_mut().enumerate() {
        if let Some(mut child) = slot.take() {
            assert!(
                wait_timeout(&mut child, Duration::from_secs(10)),
                "node {k} did not exit cleanly"
            );
        }
    }
}

#[test]
fn zero_retry_timeout_is_rejected_at_parse_time() {
    let out = Command::new(NODE_BIN)
        .args(["--id", "0", "--cluster", "unread.txt", "--retry-ms", "0"])
        .output()
        .expect("spawn mind-node");
    assert!(!out.status.success(), "--retry-ms 0 was accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--retry-ms must be > 0"), "stderr: {err}");
}

#[test]
fn killed_process_rejoins_fresh_and_cluster_keeps_serving() {
    const N: usize = 4;
    const INDEX: &str = "proc-flows";
    // Slow heartbeats: failure detection must NOT fire during the brief
    // kill window, so the row accounting stays exact (no takeover
    // promotes anything behind our back). Fast anti-entropy: the
    // restarted process re-learns the index catalog in ~1 s.
    // Replication::None keeps the ledger exact too: kill-lost rows stay
    // lost, so the expected totals have a single possible value.
    let flags: &[&str] = &[
        "--hb-ms",
        "30000",
        "--anti-entropy-ms",
        "750",
        "--retry-ms",
        "300",
    ];
    let mut fleet = spawn_fleet(N, "restart", flags);
    let mut clients: Vec<ControlClient> = (0..N as u32).map(|k| client(&fleet, k)).collect();

    // Create the index and wait for the flood to land on every node.
    let resp = clients[0]
        .call(&ControlRequest::CreateIndex {
            schema: loadgen::load_schema(INDEX),
            depth: 6,
            replication: Replication::None,
        })
        .expect("create_index");
    assert!(matches!(resp, ControlResponse::Ok), "create: {resp:?}");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !clients.iter_mut().all(|c| has_index(c, INDEX)) {
        assert!(Instant::now() < deadline, "index flood never settled");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Burst 1: 800 rows round-robin, scattered over the full cube in
    // every dimension so each node's zone holds data; wait until fully
    // stored.
    let rows1: Vec<Record> = (0..800u64)
        .map(|i| {
            Record::new(vec![
                (i * 2_654_435_761) % (1 << 20),
                (i * 12_289) % 86_400,
                (i * 793_517) % (1 << 20),
            ])
        })
        .collect();
    for (i, r) in rows1.iter().enumerate() {
        let resp = clients[i % N]
            .call(&ControlRequest::Insert {
                index: INDEX.into(),
                rows: vec![r.clone()],
            })
            .expect("insert");
        assert!(matches!(resp, ControlResponse::Ok), "insert: {resp:?}");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while total_rows(&mut clients, INDEX) != 800 {
        assert!(Instant::now() < deadline, "burst 1 never fully stored");
        std::thread::sleep(Duration::from_millis(50));
    }
    let victim_rows = primary_rows(&mut clients[3], INDEX);
    assert!(victim_rows > 0, "victim holds no data; kill proves nothing");

    // SIGKILL node 3 — no drain, no goodbye.
    {
        let mut child = fleet.children[3].take().expect("child 3");
        child.kill().expect("kill -9");
        let _ = child.wait();
    }

    // Restart the same id against the same spec file; the drop guard now
    // owns the replacement too.
    fleet.children[3] = Some(spawn_node(&fleet.spec_path, 3, flags));

    // The revived node must come back a member (static topology) but
    // FRESH: zero rows, and the index catalog re-learned from a peer via
    // anti-entropy rather than remembered.
    let mut c3 = client(&fleet, 3);
    match c3.call(&ControlRequest::IsMember).expect("member") {
        ControlResponse::Member(m) => assert!(m, "revived node lost membership"),
        r => panic!("unexpected member response {r:?}"),
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while !has_index(&mut c3, INDEX) {
        assert!(
            Instant::now() < deadline,
            "anti-entropy never healed the revived node's catalog"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(
        primary_rows(&mut c3, INDEX),
        0,
        "revived node must rejoin fresh (kill wiped its store)"
    );

    // The cluster keeps serving: a second burst (routed through the
    // revived node too) conserves exactly — kill-lost rows stay lost,
    // new rows all land.
    clients[3] = c3;
    let rows2: Vec<Record> = (0..300u64)
        .map(|i| {
            let j = i + 10_000;
            Record::new(vec![
                (j * 1_073_741_827) % (1 << 20),
                (j * 12_289) % 86_400,
                (j * 793_517) % (1 << 20),
            ])
        })
        .collect();
    for (i, r) in rows2.iter().enumerate() {
        let resp = clients[(i + 3) % N]
            .call(&ControlRequest::Insert {
                index: INDEX.into(),
                rows: vec![r.clone()],
            })
            .expect("insert 2");
        assert!(matches!(resp, ControlResponse::Ok), "insert 2: {resp:?}");
    }
    let want = 800 - victim_rows + 300;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = total_rows(&mut clients, INDEX);
        if got == want {
            break;
        }
        if Instant::now() >= deadline {
            let per: Vec<u64> = clients.iter_mut().map(|c| primary_rows(c, INDEX)).collect();
            let drops: Vec<String> = clients
                .iter_mut()
                .map(|c| format!("{:?}", c.call(&ControlRequest::HostStats)))
                .collect();
            panic!(
                "conservation after restart: have {got}, want {want}; per-node {per:?}; stats {drops:#?}"
            );
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // A full-range query issued AT the revived node completes with full
    // recall of everything still stored.
    let resp = clients[3]
        .call(&ControlRequest::Query {
            index: INDEX.into(),
            lo: vec![0, 0, 0],
            hi: vec![(1 << 20) - 1, 86_399, (1 << 20) - 1],
        })
        .expect("query");
    match resp {
        ControlResponse::Query(o) => {
            assert!(o.complete, "post-restart query incomplete");
            assert_eq!(o.records.len() as u64, want, "post-restart recall");
        }
        r => panic!("unexpected query response {r:?}"),
    }

    shutdown_and_reap(&mut fleet);
}

#[test]
fn loadgen_smoke_percentiles_monotone_and_ops_conserve() {
    const N: usize = 4;
    let mut fleet = spawn_fleet(N, "loadgen", &["--retry-ms", "300"]);

    let opts = LoadOptions {
        cluster: fleet.spec.clone(),
        index: "smoke-flows".into(),
        inserts: 12_000,
        batch: 48,
        queries: 8,
        replication: Replication::None,
        depth: 6,
        timeout: Duration::from_secs(60),
    };
    let report = loadgen::run(&opts).expect("loadgen run");

    assert_eq!(report.inserts_total, 12_000);
    assert!(report.conserved, "ops must conserve: {}", report.render());
    assert!(
        report.audit_clean,
        "fleet audit failed: {}",
        report.render()
    );
    assert!(report.insert_rate > 0.0);
    let (p50, p99, p999) = report.insert_hist.percentiles();
    assert!(p50 <= p99 && p99 <= p999, "insert percentiles not monotone");
    let (q50, q99, q999) = report.query_hist.percentiles();
    assert!(q50 <= q99 && q99 <= q999, "query percentiles not monotone");
    assert_eq!(report.queries_complete, report.queries_total);

    shutdown_and_reap(&mut fleet);
}
