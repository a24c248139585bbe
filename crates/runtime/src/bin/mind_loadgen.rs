//! `mind-loadgen`: hammer a `mind-node` cluster, report throughput and
//! latency percentiles, verify conservation and audit cleanliness.
//!
//! ```text
//! mind-loadgen --cluster cluster.txt [--inserts 100000] [--batch 64]
//!              [--queries 32] [--depth 8] [--replication none|level:K|full]
//!              [--timeout-s 90] [--shutdown]
//! ```
//!
//! Prints stable `key=value` lines (rates, p50/p99/p999 for inserts and
//! queries, `conserved=`, `audit_clean=`, and per node
//! `nodeK_insert_frames=idle:..,ack:..,size:..,age:..` — what released
//! each insert frame the node's batcher shipped — and
//! `nodeK_insert_rows_forwarded=`, the rows it re-split toward their
//! owner, `nodeK_subquery_scans=` / `nodeK_query_regions=` /
//! `nodeK_regions_per_scan=`, the sub-query scan jobs it ran, the
//! covering regions they answered and their ratio). Exits nonzero if the run
//! errors, conservation or the audit fails, or no insert throughput was
//! sustained (how much is the benchmark's `tcp_ingest/rows_per_s`, not
//! this tool's). `--shutdown` sends every node a clean control-protocol
//! shutdown after the run.

use mind_core::Replication;
use mind_runtime::loadgen::{run, shutdown_cluster};
use mind_runtime::{ClusterSpec, LoadOptions};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    opts: LoadOptions,
    shutdown: bool,
}

fn parse_replication(s: &str) -> Result<Replication, String> {
    match s {
        "none" => Ok(Replication::None),
        "full" => Ok(Replication::Full),
        other => match other.strip_prefix("level:") {
            Some(k) => Ok(Replication::Level(
                k.parse().map_err(|e| format!("--replication: {e}"))?,
            )),
            None => Err(format!("--replication: unknown policy {other:?}")),
        },
    }
}

fn parse_args() -> Result<Args, String> {
    let mut cluster: Option<PathBuf> = None;
    let mut opts = LoadOptions::default();
    let mut shutdown = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--cluster" => cluster = Some(PathBuf::from(val("--cluster")?)),
            "--inserts" => {
                opts.inserts = val("--inserts")?
                    .parse()
                    .map_err(|e| format!("--inserts: {e}"))?;
            }
            "--batch" => {
                opts.batch = val("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?;
            }
            "--queries" => {
                opts.queries = val("--queries")?
                    .parse()
                    .map_err(|e| format!("--queries: {e}"))?;
            }
            "--depth" => {
                opts.depth = val("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?;
            }
            "--replication" => opts.replication = parse_replication(&val("--replication")?)?,
            "--index" => opts.index = val("--index")?,
            "--timeout-s" => {
                opts.timeout = Duration::from_secs(
                    val("--timeout-s")?
                        .parse()
                        .map_err(|e| format!("--timeout-s: {e}"))?,
                );
            }
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let cluster = cluster.ok_or("--cluster is required")?;
    opts.cluster = ClusterSpec::load(&cluster)?;
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
    if report.insert_rate < 1.0 {
        eprintln!(
            "mind-loadgen: FAIL no sustained insert throughput ({:.0} rows/s)",
            report.insert_rate
        );
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
