//! `mind-loadgen`: drive a `mind-node` cluster and verify what it stored.
//!
//! ```text
//! mind-loadgen --cluster cluster.txt [--inserts 100000] [--shutdown]
//! ```
//!
//! Creates one index (depth 8, no replication), inserts `--inserts` rows
//! in 64-row requests, one client thread per node, then issues 16 range
//! queries. Prints stable `key=value` lines (`queries_complete=`,
//! `conserved=`, `audit_clean=`, and per node
//! `nodeK_insert_frames=idle:..,ack:..,size:..,age:..` — what released
//! each insert frame the node's batcher shipped — `nodeK_rows_per_frame=`,
//! the rows inserted at the node over those frames, and
//! `nodeK_insert_rows_forwarded=`, the rows it re-split toward their
//! owner, `nodeK_subquery_scans=` / `nodeK_query_regions=` /
//! `nodeK_regions_per_scan=`, the sub-query scan jobs it ran, the
//! covering regions they answered and their ratio). Exits nonzero if the
//! run errors, conservation or the audit fails, or a query comes back
//! incomplete. It times nothing: the socket plane's throughput and
//! latency are the benchmark's (`BENCHMARK.json`). `--shutdown` sends
//! every node a clean control-protocol shutdown after the run.

use mind_runtime::loadgen::{run, shutdown_cluster};
use mind_runtime::{ClusterSpec, LoadOptions};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    opts: LoadOptions,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut cluster: Option<PathBuf> = None;
    let mut inserts = 100_000u64;
    let mut shutdown = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--cluster" => cluster = Some(PathBuf::from(val("--cluster")?)),
            "--inserts" => {
                inserts = val("--inserts")?
                    .parse()
                    .map_err(|e| format!("--inserts: {e}"))?;
            }
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let cluster = cluster.ok_or("--cluster is required")?;
    let opts = LoadOptions {
        cluster: ClusterSpec::load(&cluster)?,
        inserts,
    };
    Ok(Args { opts, shutdown })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mind-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match run(&args.opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mind-loadgen: run failed: {e}");
            if args.shutdown {
                shutdown_cluster(&args.opts.cluster);
            }
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.render());
    if args.shutdown {
        shutdown_cluster(&args.opts.cluster);
    }

    let mut ok = true;
    if !report.conserved {
        eprintln!(
            "mind-loadgen: FAIL conservation ({} stored != {} inserted)",
            report.stored_total, report.inserts_total
        );
        ok = false;
    }
    if !report.audit_clean {
        eprintln!("mind-loadgen: FAIL fleet audit");
        ok = false;
    }
    if report.queries_complete < report.queries_total {
        eprintln!(
            "mind-loadgen: FAIL incomplete queries ({}/{} complete)",
            report.queries_complete, report.queries_total
        );
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
