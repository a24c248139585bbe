//! Metric names, units and the output format.
//!
//! The two tables below are the single definition of what the benchmark
//! prints; `BENCHMARK.json` repeats them for the driver, and `--smoke`
//! plus a unit test fail when the two drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, in the order `--repeat` alternates them.
pub const WORKLOADS: [&str; 4] = ["tcp_ingest", "tcp_query", "tcp_mixed", "sim_churn"];

/// End-to-end metrics `(name, unit, higher is better)`: what a user of
/// MIND sees. Printed as the JSON line's metrics by a `--trace 0` run.
pub const END_TO_END: [(&str, &str, bool); 5] = [
    ("setup_s", "s", false),
    ("rows_per_s", "rows/s", true),
    ("queries_per_s", "1/s", true),
    ("insert_p50_us", "us", false),
    ("peak_rss_mb", "MB", false),
];

/// Per-layer metrics `(name, unit, higher is better)`, prefix = crate.
/// Printed as the JSON line's metrics by a `--trace 1` run.
pub const PER_LAYER: [(&str, &str, bool); 71] = [
    ("histogram.code_ns_per_row", "ns", false),
    ("histogram.cover_ns_per_query", "ns", false),
    ("histogram.codes_per_query", "count", false),
    ("overlay.hops_per_row", "count", false),
    ("overlay.hops_per_query", "count", false),
    ("overlay.background_msgs_per_s", "1/s", false),
    ("overlay.undeliverable", "count", false),
    ("core.insert_ns_per_row", "ns", false),
    ("core.on_message_ns_per_row", "ns", false),
    ("core.on_timer_ns_per_row", "ns", false),
    ("core.query_ns_per_query", "ns", false),
    ("core.on_message_ns_per_query", "ns", false),
    ("core.on_timer_ns_per_query", "ns", false),
    ("core.msgs_per_row", "count", false),
    ("core.acks_per_row", "count", false),
    ("core.rows_per_insert_frame", "count", true),
    ("core.batch_wait_us_per_row", "us", false),
    ("core.subqueries_per_query", "count", false),
    ("core.nodes_per_query", "count", false),
    ("core.retries_sent", "count", false),
    ("core.query_retries", "count", false),
    ("core.dup_ops_ignored", "count", false),
    ("core.retries_exhausted", "count", false),
    ("net.encode_ns_per_frame", "ns", false),
    ("net.decode_ns_per_frame", "ns", false),
    ("net.frame_ns_per_frame", "ns", false),
    ("net.frames_per_row", "count", false),
    ("net.wire_bytes_per_row", "B", false),
    ("net.frames_per_query", "count", false),
    ("net.wire_bytes_per_query", "B", false),
    ("net.host_wait_us_per_row", "us", false),
    ("net.host_wait_us_per_query", "us", false),
    ("net.host_sends_dropped", "count", false),
    ("net.host_reconnects", "count", false),
    ("net.host_inbound_throttled", "count", false),
    ("store.insert_ns_per_row", "ns", false),
    ("store.range_ns_per_query_narrow", "ns", false),
    ("store.range_ns_per_query_wide", "ns", false),
    ("store.rows_per_query_narrow", "count", false),
    ("store.rows_per_query_wide", "count", false),
    ("store.bytes_per_row", "B", false),
    ("netsim.events_total", "count", false),
    ("netsim.events_per_row", "count", false),
    ("netsim.events_per_wall_s", "1/s", true),
    ("netsim.delivered", "count", false),
    ("netsim.timers_fired", "count", false),
    ("netsim.timers_cancelled", "count", false),
    ("netsim.requeued_busy", "count", false),
    ("netsim.pending_events_peak", "count", false),
    ("netsim.event_arena_peak", "count", false),
    ("netsim.approx_mem_mb", "MB", false),
    ("netsim.wall_s_per_sim_hour", "s", false),
    ("proc.cpu_us_per_row", "us", false),
    ("proc.cpu_us_per_query", "us", false),
    ("proc.ctx_switches_per_row", "count", false),
    ("proc.threads", "count", false),
    ("proc.rss_bytes_per_row", "B", false),
    ("proc.host_slowdown", "ratio", false),
    ("tail.insert_p99_us", "us", false),
    ("tail.query_p50_us", "us", false),
    ("tail.query_narrow_p50_us", "us", false),
    ("tail.query_wide_p50_us", "us", false),
    ("tail.query_narrow_p99_us", "us", false),
    ("tail.query_wide_p99_us", "us", false),
    ("tail.gen_late_p99_us", "us", false),
    ("tail.late_queries", "count", false),
    ("tail.slice_spread", "ratio", false),
    ("trace.overhead_frac", "ratio", false),
    ("trace.spans", "count", false),
    ("trace.rows", "count", false),
    ("trace.queries", "count", false),
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (rows + queries).
    pub attempted: u64,
    /// Operations that failed: a row not durable by the end, a query
    /// incomplete or wrong against the oracle, a dropped send.
    pub failed: u64,
    /// Free-form lines printed above the metrics (sample counts, phase
    /// lengths, what failed).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric. The name must be in one of the two tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A recorded metric (`0.0` when the workload does not exercise it).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts `n` failed operations and says why.
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.failed += n;
            self.note(format!("FAILED {n}: {why}"));
        }
    }

    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table: every recorded metric by name with its
    /// unit (both groups — the plain run prints its per-layer
    /// diagnostics here too), notes first.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some(v) = self.values.get(name) {
                let _ = writeln!(s, "{name:<34} {v:>16.4} {unit}");
            }
        }
        s
    }

    /// The contract's last line: `correct`, `attempted`, `failed`, and
    /// every metric of the chosen group (zero where not exercised).
    pub fn json_line(&self, per_layer: bool) -> String {
        let group: &[(&str, &str, bool)] = if per_layer { &PER_LAYER } else { &END_TO_END };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, _)) in group.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(self.get(name))
            );
        }
        s.push_str("}}");
        s
    }
}

/// A float as JSON: all its digits, never `NaN`/`inf`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Pulls `"name": {"value": <number>` pairs out of a result line this
/// module wrote (for `--repeat`, which reads its children's output).
pub fn parse_json_line(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let field = |key: &str| -> Option<u64> {
        let at = line.find(key)? + key.len();
        line[at..]
            .trim_start_matches([':', ' '])
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let attempted = field("\"attempted\"")?;
    let failed = field("\"failed\"")?;
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\"")?..];
    let mut rest = body;
    while let Some(at) = rest.find("{\"value\": ") {
        let name_end = rest[..at].rfind("\": ")?;
        let name_start = rest[..name_end].rfind('"')? + 1;
        let name = &rest[name_start..name_end];
        let num = &rest[at + 10..];
        let end = num.find([',', '}'])?;
        metrics.insert(name.to_string(), num[..end].trim().parse().ok()?);
        rest = &num[end..];
    }
    Some((correct, attempted, failed, metrics))
}

/// The objects `BENCHMARK.json` lists under `key` (`"workloads"`,
/// `"end_to_end"` or `"per_layer"`), each as its raw text. A scanner for
/// this one file's flat shape, not a JSON parser.
pub fn entries_in_benchmark_json<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let Some(at) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let rest = &json[at..];
    let (Some(open), Some(close)) = (rest.find('['), rest.find(']')) else {
        return Vec::new();
    };
    rest[open + 1..close]
        .split('}')
        .filter(|obj| obj.contains('{'))
        .collect()
}

/// The value of `field` in one such object: a string without its quotes,
/// or a bare number's text.
pub fn field_of(obj: &str, field: &str) -> Option<String> {
    let at = obj.find(&format!("\"{field}\""))? + field.len() + 2;
    let v = obj[at..].trim_start_matches([':', ' ']);
    match v.strip_prefix('"') {
        Some(quoted) => Some(quoted[..quoted.find('"')?].to_string()),
        None => Some(v.split([',', '\n', ' ']).next()?.to_string()),
    }
}

/// `(name, unit)` of every entry under `key` (unit empty where absent).
pub fn names_in_benchmark_json(json: &str, key: &str) -> Vec<(String, String)> {
    entries_in_benchmark_json(json, key)
        .into_iter()
        .filter_map(|obj| {
            Some((
                field_of(obj, "name")?,
                field_of(obj, "unit").unwrap_or_default(),
            ))
        })
        .collect()
}

/// The regression bound `BENCHMARK.json` gives an end-to-end metric.
pub fn bound_in_benchmark_json(json: &str, metric: &str) -> Option<f64> {
    entries_in_benchmark_json(json, "end_to_end")
        .into_iter()
        .find(|obj| field_of(obj, "name").as_deref() == Some(metric))
        .and_then(|obj| field_of(obj, "bound")?.parse().ok())
}

/// Checks the tables above against `BENCHMARK.json`; the differences, or
/// an empty list when they agree.
pub fn schema_drift(json: &str) -> Vec<String> {
    let mut drift = Vec::new();
    let mut check = |key: &str, ours: Vec<(String, String)>| {
        let theirs = names_in_benchmark_json(json, key);
        if theirs != ours {
            drift.push(format!(
                "{key}: BENCHMARK.json has {theirs:?}, the binary has {ours:?}"
            ));
        }
    };
    check(
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| (w.to_string(), String::new()))
            .collect(),
    );
    let table = |t: &[(&str, &str, bool)]| -> Vec<(String, String)> {
        t.iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect()
    };
    check("end_to_end", table(&END_TO_END));
    check("per_layer", table(&PER_LAYER));
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && !m.2));
    }

    #[test]
    fn json_line_round_trips() {
        let mut r = Report {
            attempted: 1000,
            ..Report::default()
        };
        r.set("setup_s", 0.8127);
        r.set("rows_per_s", 123456.789);
        let line = r.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0"));
        let (correct, attempted, failed, m) = parse_json_line(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (1000, 0));
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m["setup_s"], 0.8127);
        assert_eq!(m["rows_per_s"], 123456.789);
        assert_eq!(m["peak_rss_mb"], 0.0);
        r.fail(3, "late");
        assert!(r.json_line(true).contains("\"correct\": false"));
        let (_, _, failed, m) = parse_json_line(&r.json_line(true)).unwrap();
        assert_eq!(failed, 3);
        assert_eq!(m.len(), PER_LAYER.len());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(schema_drift(&json), Vec::<String>::new());
    }

    #[test]
    fn drift_is_noticed() {
        let json = r#"{"workloads": [{"name": "tcp_ingest", "why": "x"}],
            "end_to_end": [{"name": "setup_s", "unit": "ms", "better": "lower", "bound": 0.1}],
            "per_layer": []}"#;
        assert_eq!(
            names_in_benchmark_json(json, "end_to_end"),
            vec![("setup_s".to_string(), "ms".to_string())]
        );
        assert_eq!(schema_drift(json).len(), 3);
        assert_eq!(bound_in_benchmark_json(json, "setup_s"), Some(0.1));
        assert_eq!(bound_in_benchmark_json(json, "absent"), None);
    }
}
