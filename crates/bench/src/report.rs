//! Output formatting for the figures.
//!
//! Each figure writes: the experiment header, the paper's reported
//! shape, and the measured series — aligned so a reader can compare
//! shapes at a glance (matching `EXPERIMENTS.md`).

use std::io::{self, Write};

use mind_types::node::SimTime;

/// Writes the standard experiment banner.
pub fn header(out: &mut dyn Write, figure: &str, title: &str, paper_claim: &str) -> io::Result<()> {
    let rule = "================================================================";
    writeln!(
        out,
        "{rule}\n{figure}: {title}\npaper: {paper_claim}\n{rule}"
    )
}

/// Writes one aligned key/value line.
pub fn kv(out: &mut dyn Write, key: &str, value: impl std::fmt::Display) -> io::Result<()> {
    writeln!(out, "  {key:<44} {value}")
}

/// Formats microseconds as seconds with millisecond precision.
pub fn fmt_us(us: SimTime) -> String {
    format!("{:.3}s", us as f64 / 1e6)
}

/// CDF sample points of a latency (or any) distribution: `(value,
/// cumulative fraction)` at the given percentiles.
pub fn cdf_points(samples: &[SimTime], percentiles: &[f64]) -> Vec<(f64, SimTime)> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentiles
        .iter()
        .map(|&p| (p, mind_core::percentile(&sorted, p)))
        .collect()
}

/// Fraction of samples at or below `threshold`.
pub fn fraction_leq(samples: &[u64], threshold: u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&s| s <= threshold).count() as f64 / samples.len() as f64
}

// ---- machine-readable benchmark reports ----
//
// The gate baseline (`BENCH_sim.json`) is a flat JSON object mapping
// metric names to numbers. The workspace deliberately vendors no JSON
// crate, so the emitter and the (correspondingly restricted) parser live
// here: one level, string keys, finite numeric values — exactly what a
// regression gate needs, and trivially diffable in review.

/// Serializes `(key, value)` pairs as a flat, stable-order JSON object.
/// Keys must not contain `"` or `\` (bench metric names never do).
pub fn json_numbers(pairs: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in pairs.iter().enumerate() {
        assert!(
            !k.contains('"') && !k.contains('\\'),
            "metric name needs no escaping: {k}"
        );
        assert!(v.is_finite(), "metric {k} is not finite");
        out.push_str("  \"");
        out.push_str(k);
        out.push_str("\": ");
        // Integers stay integral so committed baselines diff cleanly.
        if v.fract() == 0.0 && v.abs() < 1e15 {
            out.push_str(&format!("{}", *v as i64));
        } else {
            out.push_str(&format!("{v:.3}"));
        }
        out.push_str(if i + 1 == pairs.len() { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

/// Parses a flat JSON object of numbers (the output of [`json_numbers`]).
/// Returns `None` on anything structurally unexpected — a gate must fail
/// loudly on a malformed baseline rather than pass vacuously.
pub fn parse_json_numbers(s: &str) -> Option<Vec<(String, f64)>> {
    let body = s.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value: f64 = value.trim().parse().ok()?;
        out.push((key.to_string(), value));
    }
    Some(out)
}

/// Looks up one metric in a parsed report.
pub fn metric(report: &[(String, f64)], key: &str) -> Option<f64> {
    report.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_points_monotone() {
        let samples: Vec<u64> = (1..=1000).collect();
        let pts = cdf_points(&samples, &[10.0, 50.0, 90.0, 99.0]);
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts[1].1, 500);
    }

    #[test]
    fn fraction_leq_counts() {
        let s = vec![1, 2, 3, 4, 5];
        assert_eq!(fraction_leq(&s, 3), 0.6);
        assert_eq!(fraction_leq(&s, 0), 0.0);
        assert_eq!(fraction_leq(&[], 10), 0.0);
    }

    #[test]
    fn fmt_us_seconds() {
        assert_eq!(fmt_us(1_500_000), "1.500s");
    }

    #[test]
    fn json_roundtrip() {
        let pairs = vec![
            ("naive.range_ns".to_string(), 123456.0),
            ("columnar.range_ns".to_string(), 7890.0),
            ("range_speedup".to_string(), 15.647),
        ];
        let s = json_numbers(&pairs);
        let back = parse_json_numbers(&s).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(metric(&back, "naive.range_ns"), Some(123456.0));
        assert_eq!(metric(&back, "range_speedup"), Some(15.647));
        assert_eq!(metric(&back, "missing"), None);
    }

    #[test]
    fn json_integers_stay_integral() {
        let s = json_numbers(&[("x".to_string(), 42.0)]);
        assert!(s.contains("\"x\": 42\n"), "{s}");
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(parse_json_numbers("not json").is_none());
        assert!(parse_json_numbers("{\"a\": }").is_none());
        assert_eq!(parse_json_numbers("{}").map(|v| v.len()), Some(0));
    }
}
