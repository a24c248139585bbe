//! The four workloads: sizing, phases, checks, and the numbers each one
//! reports.
//!
//! Every measured phase is a fixed amount of work derived from
//! `--seconds` by the rates below (calibrated on the commit that defined
//! the benchmark so that a phase lasts about `--seconds` there). A faster
//! commit finishes sooner; its counts, its memory and its rates stay
//! comparable.

use crate::gen::{self, Oracle, QClass, Query, Row};
use crate::probe::Probe;
use crate::procfs::{self, ProcSnapshot};
use crate::report::Report;
use crate::stats;
use crate::tcp::{self, Fleet, QueryDone};
use crate::trace::{self, Class};
use crate::{sim, Args};
use mind_types::node::SimTime;
use mind_types::NodeId;

/// Rows `tcp_ingest` pushes per second of `--seconds`.
const INGEST_ROWS_PER_S: f64 = 118_000.0;
/// Share of `--seconds` `tcp_ingest` spends ingesting; the rest goes to
/// its closing query sweep.
const INGEST_SHARE: f64 = 0.8;
/// Queries `tcp_ingest`'s closing sweep runs per second of its share.
const SWEEP_QUERIES_PER_S: f64 = 160.0;
/// Queries `tcp_query` runs per second of `--seconds`.
const QUERY_QUERIES_PER_S: f64 = 480.0;
/// Rows of `tcp_query`'s closing ingest burst per second of `--seconds`.
const BURST_ROWS_PER_S: f64 = 16_000.0;
/// `tcp_query` runs its queries in this many segments and ingests a few
/// rows between them. The k-d store scans an unsorted insert buffer that
/// grows to a quarter of the tree before it is folded in, so how full
/// that buffer happens to be when the preload ends moves every scan by up
/// to 1.5×, and it depends on the seed. The nudges walk each node through
/// one whole fill-and-rebuild cycle, so the run sees the average.
const QUERY_SEGMENTS: usize = 8;
/// Rows of one nudge, as a share of the rows stored before the first.
const NUDGE_SHARE: f64 = 0.035;
/// `tcp_mixed`'s offered load (its phase lasts `--seconds` by design):
/// about a quarter of what this arrival pattern saturates at when the
/// host runs at half speed, so that a slow host never tips the open loop
/// into a growing backlog (at four times this rate, half the runs did).
const MIXED_ROWS_PER_S: f64 = 2_000.0;
/// Rows per open-loop batch: one batch per millisecond at the rate above.
const MIXED_ROW_BATCH: usize = (MIXED_ROWS_PER_S / 1e3) as usize;
/// `tcp_mixed`'s offered query rate (whole five-query groups in every
/// slice at the committed `run_seconds`, so rows and queries end together).
const MIXED_QUERIES_PER_S: f64 = 48.0;
/// Simulated seconds `sim_churn` runs per second of `--seconds`.
const SIM_SECS_PER_S: f64 = 70.0;
/// Rows preloaded by set-up, per workload.
const PRELOAD_INGEST: usize = 200_000;
const PRELOAD_QUERY: usize = 300_000;
const PRELOAD_MIXED: usize = 200_000;
/// Rows of the untimed warm-up slice after the preload.
const WARM_ROWS: usize = 16_384;
/// Queries of the untimed warm-up slice (every origin dials every peer).
const WARM_QUERIES: usize = 64;
/// Equal-work slices a phase's rate is combined from.
const SLICES: usize = 48;
/// Set-ups per plain run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The traced sample.
const TRACE_ROWS: usize = 10_000;
const TRACE_QUERIES_PER_CLASS: usize = 200;

/// Which socket workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpKind {
    /// Closed-loop ingest at saturation.
    Ingest,
    /// Closed-loop queries over a quiet store.
    Query,
    /// Open-loop writes beside reads.
    Mixed,
}

impl TcpKind {
    fn name(self) -> &'static str {
        match self {
            TcpKind::Ingest => "tcp_ingest",
            TcpKind::Query => "tcp_query",
            TcpKind::Mixed => "tcp_mixed",
        }
    }
}

/// The fixed work of one socket run.
#[derive(Debug, Clone, Copy)]
struct TcpSizes {
    preload: usize,
    warm_rows: usize,
    warm_queries: usize,
    /// Rows ingested between two query segments (`tcp_query` only).
    nudge: usize,
    rows: usize,
    queries: usize,
}

impl TcpSizes {
    fn of(kind: TcpKind, seconds: f64, smoke: bool) -> Self {
        let mut s = match kind {
            TcpKind::Ingest => TcpSizes {
                preload: PRELOAD_INGEST,
                warm_rows: WARM_ROWS,
                warm_queries: WARM_QUERIES,
                nudge: 0,
                rows: (seconds * INGEST_SHARE * INGEST_ROWS_PER_S) as usize,
                queries: (seconds * (1.0 - INGEST_SHARE) * SWEEP_QUERIES_PER_S) as usize,
            },
            TcpKind::Query => TcpSizes {
                preload: PRELOAD_QUERY,
                warm_rows: 0,
                warm_queries: WARM_QUERIES,
                nudge: (PRELOAD_QUERY as f64 * NUDGE_SHARE) as usize,
                rows: (seconds * BURST_ROWS_PER_S) as usize,
                queries: (seconds * QUERY_QUERIES_PER_S) as usize,
            },
            TcpKind::Mixed => TcpSizes {
                preload: PRELOAD_MIXED,
                warm_rows: WARM_ROWS,
                warm_queries: WARM_QUERIES,
                nudge: 0,
                rows: (seconds * MIXED_ROWS_PER_S) as usize,
                queries: (seconds * MIXED_QUERIES_PER_S) as usize,
            },
        };
        if smoke {
            s.preload /= 10;
            s.warm_rows /= 4;
            s.nudge /= 10;
        }
        s.rows = s.rows.next_multiple_of(tcp::LOADER_BATCH);
        // Whole slices of whole narrow-narrow-narrow-narrow-wide groups.
        s.queries = s.queries.next_multiple_of(5 * SLICES);
        s
    }

    fn total_rows(&self) -> usize {
        self.base() + QUERY_SEGMENTS * self.nudge + self.rows
    }

    /// First row of the measured phase.
    fn base(&self) -> usize {
        self.preload + self.warm_rows
    }
}

fn header(workload: &str, args: &Args, input_hash: u64, config: &str) {
    println!(
        "# mind-benchmark workload={workload} seed={} seconds={} trace={} smoke={} \
         input_hash={input_hash:016x} nproc={}",
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke,
        procfs::nproc()
    );
    println!("# config {config}");
}

/// Set-up: build the deployment, create the index, preload through the
/// real ingest path until durable, run one untimed warm-up slice.
fn tcp_setup(
    sizes: &TcpSizes,
    rows: &[Row],
    cuts: &mind_histogram::CutTree,
    warm: &[Query],
    probe: &mut Probe,
) -> Result<Fleet, String> {
    let mut cluster = tcp::deploy(cuts, probe)?;
    tcp::ingest_closed(&mut cluster, rows, 0, sizes.base(), probe)?;
    tcp::take_insert_stamps(&mut cluster);
    tcp::query_closed(&mut cluster, warm, rows, sizes.base(), probe)?;
    Ok(cluster)
}

/// The probe's readings mapped onto a deployment's clock.
struct HostSpeed<'a> {
    probe: &'a Probe,
    /// Probe clock minus deployment clock, µs (both count from their own
    /// epoch at the same pace).
    offset: i64,
}

impl HostSpeed<'_> {
    /// How much slower than nominal the host ran between two deployment
    /// times; `None` when no burst fell in between.
    fn slowdown(&self, from_us: u64, to_us: u64) -> Option<f64> {
        let shift = |t: u64| (t as i64 + self.offset).max(0) as u64;
        self.probe.slowdown(shift(from_us), shift(to_us))
    }

    /// A phase's rate at reference host speed: each slice's rate times the
    /// host's slowdown while it ran (the phase's, for a slice too short
    /// to hold a burst), then the slices' harmonic mean — the phase's work
    /// over its time, had the host run at reference speed throughout.
    /// Returns `(rate, slice spread, rate as measured)`.
    fn rate(&self, slices: &[stats::Slice]) -> (f64, f64, f64) {
        let (Some(first), Some(last)) = (slices.first(), slices.last()) else {
            return (0.0, 0.0, 0.0);
        };
        let phase = self.slowdown(first.from_us, last.to_us).unwrap_or(1.0);
        let scaled: Vec<f64> = slices
            .iter()
            .map(|s| s.rate * self.slowdown(s.from_us, s.to_us).unwrap_or(phase))
            .collect();
        let raw: Vec<f64> = slices.iter().map(|s| s.rate).collect();
        (
            stats::harmonic_mean(&scaled),
            stats::iqr_share(&scaled),
            stats::harmonic_mean(&raw),
        )
    }
}

/// Rate and latency numbers of a set of insert stamps.
struct InsertNumbers {
    rows_per_s: f64,
    raw_rows_per_s: f64,
    slice_spread: f64,
    p50_us: f64,
    p99_us: f64,
    n: usize,
}

fn insert_numbers(
    stamps: &[(SimTime, SimTime)],
    phase_start: SimTime,
    host: &HostSpeed,
) -> InsertNumbers {
    let slices = stats::slices(stamps.iter().map(|s| s.0).collect(), phase_start, SLICES);
    let (rows_per_s, slice_spread, raw_rows_per_s) = host.rate(&slices);
    let mut lat: Vec<u64> = stamps.iter().map(|s| s.1).collect();
    lat.sort_unstable();
    InsertNumbers {
        rows_per_s,
        raw_rows_per_s,
        slice_spread,
        p50_us: stats::median_u64(&lat),
        p99_us: stats::p99_or_tail(&lat) as f64,
        n: lat.len(),
    }
}

/// Rate and latency numbers of a set of finished queries.
struct QueryNumbers {
    queries_per_s: f64,
    raw_queries_per_s: f64,
    slice_spread: f64,
    p50_us: f64,
    n: usize,
    /// `(p50, p99, n)` of the narrow and of the wide queries, as measured.
    narrow: (f64, f64, usize),
    wide: (f64, f64, usize),
    nodes_per_query: f64,
}

/// Equal-work slices of a run of finished queries.
fn query_slices(done: &[QueryDone], phase_start: SimTime, n: usize) -> Vec<stats::Slice> {
    let done_at = done
        .iter()
        .filter(|d| d.complete)
        .map(|d| d.completed_at)
        .collect();
    stats::slices(done_at, phase_start, n)
}

fn query_numbers(done: &[QueryDone], slices: &[stats::Slice], host: &HostSpeed) -> QueryNumbers {
    let ok: Vec<&QueryDone> = done.iter().filter(|d| d.complete).collect();
    let (queries_per_s, slice_spread, raw_queries_per_s) = host.rate(slices);
    let class = |c: QClass| {
        let mut lat: Vec<u64> = ok
            .iter()
            .filter(|d| d.class == c)
            .map(|d| d.latency)
            .collect();
        lat.sort_unstable();
        (
            stats::median_u64(&lat),
            stats::p99_or_tail(&lat) as f64,
            lat.len(),
        )
    };
    let all: Vec<u64> = ok.iter().map(|d| d.latency).collect();
    QueryNumbers {
        queries_per_s,
        raw_queries_per_s,
        slice_spread,
        p50_us: stats::median_u64(&all),
        n: all.len(),
        narrow: class(QClass::Narrow),
        wide: class(QClass::Wide),
        nodes_per_query: ok.iter().map(|d| d.nodes as f64).sum::<f64>() / ok.len().max(1) as f64,
    }
}

/// `rows_per_s` at reference host speed when the loop was closed (its
/// rate is the system's); as measured when it was open (its rate is the
/// timetable's). `insert_p50_us` is as measured either way: it is the
/// window over the rate at saturation and the batch age below it, and
/// neither follows the host's speed the way a scan does.
fn set_insert(r: &mut Report, n: &InsertNumbers, closed: bool, issued: usize, what: &str) {
    r.fail(
        issued.saturating_sub(n.n) as u64,
        "rows without a durable stamp",
    );
    r.set(
        "rows_per_s",
        if closed {
            n.rows_per_s
        } else {
            n.raw_rows_per_s
        },
    );
    r.set("insert_p50_us", n.p50_us);
    r.set("tail.insert_p99_us", n.p99_us);
    r.note(format!(
        "rows_per_s, insert_p50_us: {what}, n={} rows in {SLICES} slices; as measured \
         {:.0} rows/s, at reference host speed {:.0} rows/s (slice spread {:.3})",
        n.n, n.raw_rows_per_s, n.rows_per_s, n.slice_spread
    ));
}

/// `queries_per_s` as [`set_insert`] does rows; the latencies as measured.
fn set_query(r: &mut Report, n: &QueryNumbers, closed: bool, what: &str) {
    r.set(
        "queries_per_s",
        if closed {
            n.queries_per_s
        } else {
            n.raw_queries_per_s
        },
    );
    r.set("tail.query_p50_us", n.p50_us);
    r.set("tail.query_narrow_p50_us", n.narrow.0);
    r.set("tail.query_narrow_p99_us", n.narrow.1);
    r.set("tail.query_wide_p50_us", n.wide.0);
    r.set("tail.query_wide_p99_us", n.wide.1);
    r.set("core.nodes_per_query", n.nodes_per_query);
    r.note(format!(
        "queries_per_s: {what}, n={} queries ({} narrow, {} wide) in {SLICES} slices; as \
         measured {:.1} 1/s, at reference host speed {:.1} 1/s (slice spread {:.3})",
        n.n, n.narrow.2, n.wide.2, n.raw_queries_per_s, n.queries_per_s, n.slice_spread
    ));
}

/// Counts the answers [`tcp::check_queries`] found `(incomplete, wrong)`.
fn fail_queries(r: &mut Report, (incomplete, wrong): (u64, u64)) {
    r.fail(incomplete, "queries incomplete");
    r.fail(wrong, "query answers differ from the oracle");
}

/// Per-row and per-query shares of what the process spent in a phase.
fn set_proc(
    r: &mut Report,
    before: &ProcSnapshot,
    after: &ProcSnapshot,
    rows: usize,
    queries: usize,
) {
    let cpu = after.cpu_us.saturating_sub(before.cpu_us) as f64;
    let ctx = after.ctx_switches.saturating_sub(before.ctx_switches) as f64;
    if rows > 0 {
        r.set("proc.cpu_us_per_row", cpu / rows as f64);
        r.set("proc.ctx_switches_per_row", ctx / rows as f64);
        r.set(
            "proc.rss_bytes_per_row",
            after.rss_bytes.saturating_sub(before.rss_bytes) as f64 / rows as f64,
        );
    }
    if queries > 0 {
        r.set("proc.cpu_us_per_query", cpu / queries as f64);
    }
    r.set("proc.threads", after.threads as f64);
}

/// Set-ups per run: several for a plain run, one where `setup_s` is not
/// in the result line.
fn setup_reps(args: &Args) -> usize {
    if args.trace || args.smoke {
        1
    } else {
        SETUP_REPS
    }
}

/// One timed set-up: what it built, and `(seconds as measured, host
/// slowdown while it ran)`.
fn timed_setup<T>(
    probe: &mut Probe,
    setup: impl FnOnce(&mut Probe) -> Result<T, String>,
) -> Result<(T, (f64, f64)), String> {
    let (started, from_us) = (crate::wall(), probe.now_us());
    let built = setup(probe)?;
    let slow = probe.slowdown(from_us, probe.now_us()).unwrap_or(1.0);
    Ok((built, (started.elapsed().as_secs_f64(), slow)))
}

/// The set-ups after the measured one: each is timed and torn down.
fn more_setups<T>(
    reps: usize,
    probe: &mut Probe,
    setups: &mut Vec<(f64, f64)>,
    setup: impl Fn(&mut Probe) -> Result<T, String>,
    teardown: impl Fn(T),
) -> Result<(), String> {
    for _ in 1..reps {
        let (built, timing) = timed_setup(probe, &setup)?;
        teardown(built);
        setups.push(timing);
    }
    Ok(())
}

/// `setup_s`: the median of the set-ups, each divided by the host's
/// slowdown while it ran.
fn set_setup(r: &mut Report, setups: &[(f64, f64)], what: &str) {
    let mut scaled: Vec<f64> = setups.iter().map(|(s, slow)| s / slow).collect();
    r.set("setup_s", stats::median(&mut scaled));
    r.note(format!(
        "setup_s: median of {} set-ups, (seconds as measured, host slowdown) {:?}: {what}",
        setups.len(),
        setups
            .iter()
            .map(|(s, slow)| ((s * 1e3).round() / 1e3, (slow * 1e3).round() / 1e3))
            .collect::<Vec<_>>(),
    ));
}

/// Runs one socket workload.
pub fn run_tcp(kind: TcpKind, args: &Args) -> Result<Report, String> {
    let sizes = TcpSizes::of(kind, args.seconds, args.smoke);
    let rows = gen::rows(args.seed, sizes.total_rows().max(TRACE_ROWS));
    let cuts = gen::cuts(args.seed, &rows);
    let warm = gen::queries(args.seed ^ 0x5EED, sizes.warm_queries, &rows, sizes.preload);
    let queries = gen::queries(args.seed, sizes.queries, &rows, sizes.preload);
    header(
        kind.name(),
        args,
        gen::input_hash(&rows, &queries),
        &tcp::config_line(),
    );
    let mut r = Report::default();
    let mut probe = Probe::new();

    // The first deployment, in a fresh process, is the one measured: its
    // memory is then one deployment's, not three deployments' leftovers.
    // The other set-ups `setup_s` is the median of come after it.
    let setup = |probe: &mut Probe| tcp_setup(&sizes, &rows, &cuts, &warm, probe);
    let (mut cluster, first_setup) = timed_setup(&mut probe, setup)?;

    let host_before = tcp::host_stats(&cluster);
    let phase_wall = crate::wall();
    let phase_from_us = probe.now_us();
    let offset = probe.now_us() as i64 - cluster.now() as i64;
    let (base, end) = (sizes.base(), sizes.total_rows());
    let oracle = Oracle::new(&rows[..end]);
    match kind {
        TcpKind::Ingest => {
            let p0 = procfs::snapshot();
            let t0 = cluster.now();
            tcp::ingest_closed(&mut cluster, &rows, base, end, &mut probe)?;
            let stamps = tcp::take_insert_stamps(&mut cluster);
            let p1 = procfs::snapshot();
            // The closing sweep: the same query mix over everything
            // ingested, checked against the full oracle — conservation
            // seen through the query path.
            let t1 = cluster.now();
            let done = tcp::query_closed(&mut cluster, &queries, &rows, end, &mut probe)?;
            let p2 = procfs::snapshot();
            let host = HostSpeed {
                probe: &probe,
                offset,
            };
            let inn = insert_numbers(&stamps, t0, &host);
            set_insert(&mut r, &inn, true, sizes.rows, "the measured closed loop");
            r.set("tail.slice_spread", inn.slice_spread);
            let qn = query_numbers(&done, &query_slices(&done, t1, SLICES), &host);
            set_query(&mut r, &qn, true, "the closing sweep (secondary here)");
            set_proc(&mut r, &p0, &p1, sizes.rows, 0);
            r.set(
                "proc.cpu_us_per_query",
                p2.cpu_us.saturating_sub(p1.cpu_us) as f64 / done.len().max(1) as f64,
            );
            fail_queries(&mut r, tcp::check_queries(&done, &queries, &oracle, end));
        }
        TcpKind::Query => {
            let mut horizon = base;
            let (mut done, mut slices) = (Vec::new(), Vec::new());
            let (mut cpu_us, mut failed) = (0, (0, 0));
            for segment in queries.chunks(sizes.queries / QUERY_SEGMENTS) {
                let p0 = procfs::snapshot();
                let t0 = cluster.now();
                let seg = tcp::query_closed(&mut cluster, segment, &rows, horizon, &mut probe)?;
                cpu_us += procfs::snapshot().cpu_us.saturating_sub(p0.cpu_us);
                slices.extend(query_slices(&seg, t0, SLICES / QUERY_SEGMENTS));
                let (incomplete, wrong) = tcp::check_queries(&seg, segment, &oracle, horizon);
                failed = (failed.0 + incomplete, failed.1 + wrong);
                done.extend(seg);
                // The nudge (see QUERY_SEGMENTS); its stamps go unused.
                tcp::ingest_closed(
                    &mut cluster,
                    &rows,
                    horizon,
                    horizon + sizes.nudge,
                    &mut probe,
                )?;
                tcp::take_insert_stamps(&mut cluster);
                horizon += sizes.nudge;
            }
            // The closing burst: a short closed-loop ingest, so that this
            // workload too has an ingest rate and latency to report.
            let t1 = cluster.now();
            tcp::ingest_closed(&mut cluster, &rows, horizon, end, &mut probe)?;
            let stamps = tcp::take_insert_stamps(&mut cluster);
            let host = HostSpeed {
                probe: &probe,
                offset,
            };
            let qn = query_numbers(&done, &slices, &host);
            set_query(&mut r, &qn, true, "the measured closed loop");
            r.set("tail.slice_spread", qn.slice_spread);
            r.set(
                "proc.cpu_us_per_query",
                cpu_us as f64 / done.len().max(1) as f64,
            );
            r.set("proc.threads", procfs::snapshot().threads as f64);
            fail_queries(&mut r, failed);
            set_insert(
                &mut r,
                &insert_numbers(&stamps, t1, &host),
                true,
                sizes.rows,
                "the closing burst (secondary here)",
            );
        }
        TcpKind::Mixed => {
            let p0 = procfs::snapshot();
            let run = tcp::mixed_open(
                &mut cluster,
                &rows,
                base,
                end,
                MIXED_ROW_BATCH,
                MIXED_ROWS_PER_S,
                &queries,
                MIXED_QUERIES_PER_S,
                &mut probe,
            )?;
            let stamps = tcp::take_insert_stamps(&mut cluster);
            let p1 = procfs::snapshot();
            let host = HostSpeed {
                probe: &probe,
                offset,
            };
            let inn = insert_numbers(&stamps, run.started_at, &host);
            set_insert(
                &mut r,
                &inn,
                false,
                sizes.rows,
                "the open loop, timed from due",
            );
            let slices = query_slices(&run.done, run.started_at, SLICES);
            let qn = query_numbers(&run.done, &slices, &host);
            set_query(&mut r, &qn, false, "the open loop, timed from due");
            r.set("tail.slice_spread", inn.slice_spread.max(qn.slice_spread));
            let mut late = run.lateness.clone();
            late.sort_unstable();
            r.set("tail.gen_late_p99_us", stats::p99_or_tail(&late) as f64);
            set_proc(&mut r, &p0, &p1, sizes.rows, run.done.len());
            // Rows written while a query ran may or may not be in its
            // answer; the preloaded ones must be, exactly.
            fail_queries(
                &mut r,
                tcp::check_queries(&run.done, &queries, &oracle, base),
            );
            // A late answer is a slow one, not a wrong one: it is counted
            // here and shows in the latencies, and fails nothing.
            let over = run
                .done
                .iter()
                .filter(|d| d.complete && d.latency > tcp::MIXED_LATE_US)
                .count();
            r.set("tail.late_queries", over as f64);
        }
    }
    r.set(
        "proc.host_slowdown",
        probe.slowdown(phase_from_us, probe.now_us()).unwrap_or(1.0),
    );
    r.note(format!(
        "measured phase: {:.2} s wall, {} probe bursts so far",
        phase_wall.elapsed().as_secs_f64(),
        probe.bursts()
    ));

    // Exact row conservation, and nothing dropped or abandoned on the way.
    let stored = cluster.total_primary_rows(gen::INDEX) as usize;
    r.fail(
        stored.abs_diff(end) as u64,
        "total_primary_rows differs from rows issued",
    );
    let host = tcp::host_stats(&cluster);
    let dropped = host.sends_dropped - host_before.sends_dropped;
    r.fail(dropped, "sends dropped by the transport");
    r.set("net.host_sends_dropped", dropped as f64);
    r.set(
        "net.host_reconnects",
        (host.reconnects - host_before.reconnects) as f64,
    );
    r.set(
        "net.host_inbound_throttled",
        (host.inbound_throttled - host_before.inbound_throttled) as f64,
    );
    let core = tcp::core_counters(&cluster);
    r.fail(
        core.retries_exhausted,
        "operations abandoned after their retries",
    );
    r.fail(core.undeliverable, "routed messages undeliverable");
    r.attempted = (QUERY_SEGMENTS * sizes.nudge + sizes.rows + sizes.queries) as u64;
    r.set(
        "peak_rss_mb",
        procfs::snapshot().peak_rss_bytes as f64 / 1e6,
    );
    tcp::teardown(cluster);

    let mut setups = vec![first_setup];
    more_setups(
        setup_reps(args),
        &mut probe,
        &mut setups,
        setup,
        tcp::teardown,
    )?;
    set_setup(
        &mut r,
        &setups,
        &format!(
            "deploy, create index, preload {} rows, warm up {} rows + {} queries",
            sizes.preload, sizes.warm_rows, sizes.warm_queries
        ),
    );
    if args.trace {
        traced_run(kind.name(), args, &rows, &cuts, sizes.preload, &mut r)?;
    }
    Ok(r)
}

/// The traced passes and the replay, folded into per-layer metrics.
fn traced_run(
    workload: &str,
    args: &Args,
    rows: &[Row],
    cuts: &mind_histogram::CutTree,
    preload: usize,
    r: &mut Report,
) -> Result<(), String> {
    let sample = &rows[..TRACE_ROWS.min(rows.len())];
    let per_class = if args.smoke {
        50
    } else {
        TRACE_QUERIES_PER_CLASS
    };
    let narrow = gen::queries_of(args.seed, QClass::Narrow, per_class, sample, sample.len());
    let wide = gen::queries_of(args.seed, QClass::Wide, per_class, sample, sample.len());
    // Rows are offered on a virtual timetable at the mixed workload's
    // rate, so the batcher sees the arrival pattern it sees there.
    let per_tick = MIXED_ROW_BATCH;
    let first = trace::pass(sample, cuts, &narrow, &wide, per_tick, true)?;
    let second = trace::pass(sample, cuts, &narrow, &wide, per_tick, true)?;
    let plain = trace::pass(sample, cuts, &narrow, &wide, per_tick, false)?;
    if first.counts != second.counts || first.counts != plain.counts {
        return Err(format!(
            "traced counts differ between passes of one seed:\n{:?}\n{:?}\n{:?}",
            first.counts, second.counts, plain.counts
        ));
    }
    let c = &first.counts;
    r.fail(
        (2 * per_class) as u64 - c.queries_complete,
        "traced queries incomplete",
    );
    let selfs = trace::self_times(&first.spans);
    let ns = |name: &str, class: Class| trace::self_ns(&first.spans, &selfs, name, class) as f64;
    let both = |name: &str| ns(name, Class::Narrow) + ns(name, Class::Wide);
    let every = |name: &str| both(name) + ns(name, Class::Insert) + ns(name, Class::Background);
    let n_rows = sample.len() as f64;
    let n_queries = (2 * per_class) as f64;
    let frames: f64 = c.frames.iter().sum::<u64>() as f64;
    let calls = |name: &str, class: Class| {
        first
            .spans
            .iter()
            .filter(|s| s.name == name && s.class == class)
            .count() as f64
    };

    r.set(
        "core.insert_ns_per_row",
        ns("core.insert", Class::Insert) / n_rows,
    );
    r.set(
        "core.on_message_ns_per_row",
        ns("core.on_message", Class::Insert) / n_rows,
    );
    r.set(
        "core.on_timer_ns_per_row",
        ns("core.on_timer", Class::Insert) / n_rows,
    );
    r.set("core.query_ns_per_query", both("core.query") / n_queries);
    r.set(
        "core.on_message_ns_per_query",
        both("core.on_message") / n_queries,
    );
    r.set(
        "core.on_timer_ns_per_query",
        both("core.on_timer") / n_queries,
    );
    r.set(
        "core.msgs_per_row",
        calls("core.on_message", Class::Insert) / n_rows,
    );
    r.set("core.acks_per_row", c.acks as f64 / n_rows);
    r.set(
        "core.rows_per_insert_frame",
        c.insert_frame_rows as f64 / c.insert_frames.max(1) as f64,
    );
    r.set(
        "core.batch_wait_us_per_row",
        c.batch_wait_us as f64 / c.batch_wait_rows.max(1) as f64,
    );
    r.set("core.subqueries_per_query", c.subqueries as f64 / n_queries);
    if r.get("core.nodes_per_query") == 0.0 {
        r.set("core.nodes_per_query", c.responders as f64 / n_queries);
    }
    r.set("core.retries_sent", c.retries_sent as f64);
    r.set("core.query_retries", c.query_retries as f64);
    r.set("core.dup_ops_ignored", c.dup_ops_ignored as f64);
    r.set("core.retries_exhausted", c.retries_exhausted as f64);
    r.set("overlay.hops_per_row", c.row_hops as f64 / n_rows);
    r.set("overlay.hops_per_query", c.query_hops as f64 / n_queries);
    r.set(
        "overlay.background_msgs_per_s",
        c.frames[Class::Background as usize] as f64 * 1e6 / c.virtual_us.max(1) as f64,
    );
    r.set("overlay.undeliverable", c.undeliverable as f64);
    r.set("net.encode_ns_per_frame", every("net.encode") / frames);
    r.set("net.decode_ns_per_frame", every("net.decode") / frames);
    r.set(
        "net.frame_ns_per_frame",
        (every("net.frame_write") + every("net.frame_read")) / frames,
    );
    let i = Class::Insert as usize;
    let (n, w) = (Class::Narrow as usize, Class::Wide as usize);
    r.set("net.frames_per_row", c.frames[i] as f64 / n_rows);
    r.set("net.wire_bytes_per_row", c.wire_bytes[i] as f64 / n_rows);
    r.set(
        "net.frames_per_query",
        (c.frames[n] + c.frames[w]) as f64 / n_queries,
    );
    r.set(
        "net.wire_bytes_per_query",
        (c.wire_bytes[n] + c.wire_bytes[w]) as f64 / n_queries,
    );
    // What the end-to-end medians hold beyond the layers' own work and
    // the batcher's wait: sockets, thread hand-offs, queues.
    let layers = [
        "core.insert",
        "core.query",
        "core.on_message",
        "core.on_timer",
    ];
    let net = [
        "net.encode",
        "net.frame_write",
        "net.frame_read",
        "net.decode",
    ];
    let traced_us_per_row = layers
        .iter()
        .chain(&net)
        .map(|l| ns(l, Class::Insert))
        .sum::<f64>()
        / n_rows
        / 1e3;
    let traced_us_per_query =
        layers.iter().chain(&net).map(|l| both(l)).sum::<f64>() / n_queries / 1e3;
    r.set(
        "net.host_wait_us_per_row",
        r.get("insert_p50_us") - traced_us_per_row - r.get("core.batch_wait_us_per_row"),
    );
    r.set(
        "net.host_wait_us_per_query",
        r.get("tail.query_p50_us") - traced_us_per_query,
    );

    let owner = tcp::topology().code(0);
    let replay_narrow = gen::queries_of(args.seed, QClass::Narrow, per_class, rows, preload);
    let rp = trace::replay(
        &rows[..preload.min(rows.len())],
        cuts,
        &replay_narrow,
        &wide,
        owner,
    );
    r.set("histogram.code_ns_per_row", rp.code_ns_per_row);
    r.set("histogram.cover_ns_per_query", rp.cover_ns_per_query);
    r.set("histogram.codes_per_query", rp.codes_per_query);
    r.set("store.insert_ns_per_row", rp.insert_ns_per_row);
    r.set("store.range_ns_per_query_narrow", rp.range_ns_narrow);
    r.set("store.range_ns_per_query_wide", rp.range_ns_wide);
    r.set("store.rows_per_query_narrow", rp.rows_narrow);
    r.set("store.rows_per_query_wide", rp.rows_wide);
    r.set("store.bytes_per_row", rp.bytes_per_row);

    // The second traced pass against the untraced one: the first also
    // pays for cold caches and a cold allocator.
    r.set(
        "trace.overhead_frac",
        second.wall_s / plain.wall_s.max(1e-9) - 1.0,
    );
    r.set("trace.spans", first.spans.len() as f64);
    r.set("trace.rows", n_rows);
    r.set("trace.queries", n_queries);
    r.note(format!(
        "traced sample: {} rows + {} queries per class, counts identical over 2 traced + 1 \
         untraced pass ({:.3} s / {:.3} s / {:.3} s wall)",
        sample.len(),
        per_class,
        first.wall_s,
        second.wall_s,
        plain.wall_s
    ));
    let path = crate::out_dir().join(format!("trace-{workload}.json"));
    match std::fs::write(&path, trace::spans_json(&first.spans, &selfs)) {
        Ok(()) => r.note(format!("span table: {}", path.display())),
        Err(e) => r.note(format!("span table not written ({}): {e}", path.display())),
    }
    Ok(())
}

/// Runs the simulated churn world.
pub fn run_sim(args: &Args) -> Result<Report, String> {
    let span = if args.smoke {
        60
    } else {
        ((args.seconds * SIM_SECS_PER_S) as u64).next_multiple_of(sim::SLICE_SECS)
    };
    let n_rows = (span * sim::FEED_ROWS_PER_S) as usize;
    let rows = gen::rows(args.seed, n_rows);
    let queries = gen::range_queries(args.seed, span as usize);
    let cuts = sim::feed_cuts(args.seed, &rows, span);
    header(
        "sim_churn",
        args,
        gen::input_hash(&rows, &queries),
        &sim::config_line(),
    );
    let mut r = Report::default();

    let mut probe = Probe::new();
    // One call builds and settles the world: bracket it with bursts. The
    // first world is the one measured (see `run_tcp`).
    let setup = |probe: &mut Probe| {
        (0..8).for_each(|_| probe.burst());
        let cluster = sim::setup(&cuts, span)?;
        (0..8).for_each(|_| probe.burst());
        Ok(cluster)
    };
    let (mut cluster, first_setup) = timed_setup(&mut probe, setup)?;

    let p0 = procfs::snapshot();
    let events_before = sim_events(&cluster);
    let run = sim::drive(&mut cluster, &rows, &queries, span, &mut probe);
    let p1 = procfs::snapshot();
    r.note(format!(
        "measured phase: {span} simulated s in {:.2} s wall, {} slices of {} simulated s",
        run.wall_s,
        run.slice_wall.len() - 1,
        sim::SLICE_SECS
    ));

    // Node-stamped (simulated) completion times, bucketed into slices,
    // over the wall time each slice took.
    let slice_us = sim::SLICE_SECS * mind_types::node::SECONDS;
    let slices = run.slice_wall.len() - 1;
    let mut rows_in = vec![0u64; slices];
    let mut insert_lat = Vec::new();
    for k in 0..sim::SIM_NODES as u32 {
        for &(done_at, lat) in &cluster.world().node(NodeId(k)).metrics.insert_latencies {
            insert_lat.push(lat);
            let s = (done_at.saturating_sub(run.started_at) / slice_us) as usize;
            if s < slices {
                rows_in[s] += 1;
            }
        }
    }
    let mut queries_in = vec![0u64; slices];
    let mut query_lat = Vec::new();
    let (mut incomplete, mut bogus, mut twice, mut answered_rows) = (0u64, 0u64, 0u64, 0u64);
    for &(at, qid, qi, sec) in &run.queries_issued {
        let node = cluster.world().node(at);
        let Some(t) = node.queries.get(&qid) else {
            // The origin crashed after issuing: its trackers died with it.
            continue;
        };
        let Some(done_at) = t.completed_at else {
            incomplete += 1;
            continue;
        };
        query_lat.push(done_at - t.issued_at);
        let s = (done_at.saturating_sub(run.started_at) / slice_us) as usize;
        if s < slices {
            queries_in[s] += 1;
        }
        let rect = sim::feed_query(&queries[qi], sec);
        let mut seqs: Vec<u64> = Vec::with_capacity(t.records.len());
        for rec in &t.records {
            let v = rec.values();
            let genuine = (v[3] as usize) < rows.len()
                && rect.contains_point(&v[..3])
                && rows[v[3] as usize].prefix as u64 == v[0]
                && rows[v[3] as usize].octets as u64 == v[2];
            if genuine {
                seqs.push(v[3]);
            } else {
                bogus += 1;
            }
        }
        seqs.sort_unstable();
        twice += seqs.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        answered_rows += seqs.len() as u64;
    }
    // Per wall second, at reference host speed: each slice's count over
    // its wall time, times the host's slowdown while it ran.
    let rate = |counts: &[u64]| -> (f64, f64, f64) {
        let raw: Vec<f64> = counts
            .iter()
            .zip(run.slice_wall.windows(2))
            .map(|(&c, w)| c as f64 / (w[1] - w[0]).max(1e-9))
            .collect();
        let scaled: Vec<f64> = raw
            .iter()
            .zip(run.slice_probe_us.windows(2))
            .map(|(r, p)| r * probe.slowdown(p[0], p[1]).unwrap_or(1.0))
            .collect();
        (
            stats::harmonic_mean(&scaled),
            stats::iqr_share(&scaled),
            stats::harmonic_mean(&raw),
        )
    };
    let (rows_per_s, row_spread, raw_rows_per_s) = rate(&rows_in);
    let (queries_per_s, _, raw_queries_per_s) = rate(&queries_in);
    let slowdown = probe
        .slowdown(
            run.slice_probe_us[0],
            *run.slice_probe_us.last().unwrap_or(&0),
        )
        .unwrap_or(1.0);
    r.set("proc.host_slowdown", slowdown);
    insert_lat.sort_unstable();
    query_lat.sort_unstable();
    r.set("rows_per_s", rows_per_s);
    r.set("queries_per_s", queries_per_s);
    r.set("insert_p50_us", stats::median_u64(&insert_lat));
    r.set("tail.query_p50_us", stats::median_u64(&query_lat));
    r.set("tail.insert_p99_us", stats::p99_or_tail(&insert_lat) as f64);
    r.set("tail.query_wide_p50_us", stats::median_u64(&query_lat));
    r.set(
        "tail.query_wide_p99_us",
        stats::p99_or_tail(&query_lat) as f64,
    );
    r.set("tail.slice_spread", row_spread);
    r.note(format!(
        "rows_per_s, queries_per_s: rows durable / queries answered per wall second over \
         {slices} slices; as measured {raw_rows_per_s:.0} rows/s and {raw_queries_per_s:.1} 1/s at \
         host slowdown {slowdown:.3}, at reference host speed {rows_per_s:.0} rows/s and \
         {queries_per_s:.1} 1/s; insert_p50_us, tail.query_p50_us: simulated us, n={} rows, n={} queries \
         ({answered_rows} rows returned)",
        insert_lat.len(),
        query_lat.len()
    ));

    let rows_durable = insert_lat.len() as u64;
    let (mut exhausted, mut undeliverable, mut retries, mut q_retries, mut dups, mut subq) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for k in 0..sim::SIM_NODES as u32 {
        let m = &cluster.world().node(NodeId(k)).metrics;
        exhausted += m.retries_exhausted;
        undeliverable += m.undeliverable;
        retries += m.retries_sent;
        q_retries += m.query_retries;
        dups += m.dup_ops_ignored;
        subq += m.subqueries_answered;
    }
    r.attempted = run.rows_issued + run.queries_issued.len() as u64;
    r.fail(exhausted, "operations abandoned after their retries");
    r.fail(incomplete, "queries incomplete at the end");
    r.fail(
        bogus,
        "rows in answers that were never issued or lie outside the range",
    );
    // Under churn a row whose owner crashed is retried 30, 90, 210 s
    // later, so a few may still be on their way when the run ends; and a
    // row can be answered by its owner and by the node that held it
    // through a takeover. Both are reported, not failed: an insert fails
    // when the protocol abandons it (`retries_exhausted`).
    r.note(format!(
        "{} rows issued, {rows_durable} durable stamps ({} still in retry at the end), {} \
         primary rows stored at the end, {twice} rows answered twice",
        run.rows_issued,
        run.rows_issued.saturating_sub(rows_durable),
        cluster.total_primary_rows(gen::INDEX)
    ));

    let st = &cluster.world().stats;
    let events = sim_events(&cluster) - events_before;
    r.set("netsim.events_total", events as f64);
    r.set(
        "netsim.events_per_row",
        events as f64 / run.rows_issued.max(1) as f64,
    );
    r.set(
        "netsim.events_per_wall_s",
        events as f64 / run.wall_s.max(1e-9),
    );
    r.set("netsim.delivered", st.delivered as f64);
    r.set("netsim.timers_fired", st.timers_fired as f64);
    r.set("netsim.timers_cancelled", st.timers_cancelled as f64);
    r.set("netsim.requeued_busy", st.requeued_busy as f64);
    r.set("netsim.pending_events_peak", st.pending_events_peak as f64);
    r.set("netsim.event_arena_peak", st.event_arena_peak as f64);
    r.set(
        "netsim.approx_mem_mb",
        cluster.world().approx_peak_memory_bytes() as f64 / 1e6,
    );
    r.set(
        "netsim.wall_s_per_sim_hour",
        run.slice_wall.last().copied().unwrap_or(0.0) * 3600.0 / span as f64,
    );
    r.set("overlay.undeliverable", undeliverable as f64);
    let hops: u64 = (0..sim::SIM_NODES as u32)
        .map(|k| {
            cluster
                .world()
                .node(NodeId(k))
                .metrics
                .insert_hops
                .iter()
                .map(|&h| h as u64)
                .sum::<u64>()
        })
        .sum();
    r.set(
        "overlay.hops_per_row",
        hops as f64 / rows_durable.max(1) as f64,
    );
    r.set("core.retries_sent", retries as f64);
    r.set("core.query_retries", q_retries as f64);
    r.set("core.dup_ops_ignored", dups as f64);
    r.set("core.retries_exhausted", exhausted as f64);
    r.set(
        "core.subqueries_per_query",
        subq as f64 / run.queries_issued.len().max(1) as f64,
    );
    set_proc(
        &mut r,
        &p0,
        &p1,
        run.rows_issued as usize,
        run.queries_issued.len(),
    );
    r.set(
        "peak_rss_mb",
        procfs::snapshot().peak_rss_bytes as f64 / 1e6,
    );
    drop(cluster);
    let mut setups = vec![first_setup];
    more_setups(setup_reps(args), &mut probe, &mut setups, setup, drop)?;
    set_setup(
        &mut r,
        &setups,
        &format!(
            "build the {}-node world, create the index, settle",
            sim::SIM_NODES
        ),
    );
    Ok(r)
}

/// Events the world has processed so far (as `bench_sim` totals them).
fn sim_events(cluster: &mind_core::MindCluster) -> u64 {
    let c = cluster.world().stats.counters();
    c.0 + c.1 + c.2 + c.3 + c.4 + c.5 + c.6 + c.8
}

/// Dispatches on the workload name.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "tcp_ingest" => run_tcp(TcpKind::Ingest, args),
        "tcp_query" => run_tcp(TcpKind::Query, args),
        "tcp_mixed" => run_tcp(TcpKind::Mixed, args),
        "sim_churn" => run_sim(args),
        other => Err(format!(
            "unknown workload {other:?}; one of {:?}",
            crate::report::WORKLOADS
        )),
    }
}
