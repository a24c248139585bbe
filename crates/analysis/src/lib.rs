//! AST-level determinism analyzer for the MIND workspace.
//!
//! The workspace's static lint wall — the source-pattern rules that
//! neither the compiler, clippy nor the vendored APIs already enforce —
//! as a token-tree pass: every workspace `.rs` file is lexed into a
//! delimiter-matched token stream with exact `#[cfg(test)]` scoping, and a
//! rule engine runs over it. String literals and comments can neither
//! produce false hits nor hide real ones, and rules can see structure a
//! substring scan cannot (method receivers, paths, loop bodies).
//!
//! The crate registry (`crates.io`) is unreachable from this workspace, so
//! `syn` is not available; `lex`/`stream` are a purpose-built stand-in
//! that plays its role for the token-level analyses here (the same
//! offline-stand-in pattern as `vendor/`). See DESIGN.md §12 for the rule
//! catalog.

pub mod diag;
pub mod lex;
pub mod rules;
pub mod stream;

pub use diag::Diagnostic;

use stream::SourceFile;

/// Runs every rule over `files` (`(workspace-relative path, source)`
/// pairs) and returns the surviving diagnostics, sorted and deduplicated.
///
/// Pure function of its input: the driver binary owns all file I/O, and
/// fixture tests call this directly.
pub fn analyze_sources(files: &[(String, String)]) -> Vec<Diagnostic> {
    let file_rules = rules::file_rules();
    let known_rules = rules::rule_names();
    let mut diags: Vec<Diagnostic> = Vec::new();

    for (rel_path, src) in files {
        let sf = match SourceFile::parse(rel_path, src) {
            Ok(sf) => sf,
            // A file the analyzer cannot read structurally is itself a
            // finding — the pass must be total over the workspace.
            Err(e) => {
                diags.push(Diagnostic {
                    rel_path: rel_path.clone(),
                    line: e.line,
                    rule: "syntax",
                    why: e.msg,
                    text: String::new(),
                });
                continue;
            }
        };

        for rule in &file_rules {
            let meta = rule.meta();
            if !meta.in_scope(rel_path) || (sf.is_test_file && !meta.applies_in_tests) {
                continue;
            }
            let mut hits: Vec<(u32, String)> = Vec::new();
            rule.check(&sf, &mut hits);
            for (line, detail) in hits {
                if sf.waived(meta.name, line) {
                    continue;
                }
                let why = if detail.is_empty() {
                    meta.why.to_owned()
                } else {
                    format!("{} {}", meta.why, detail)
                };
                diags.push(Diagnostic {
                    rel_path: rel_path.clone(),
                    line,
                    rule: meta.name,
                    why,
                    text: sf.line_text(line).to_owned(),
                });
            }
        }

        // waiver-justified: every waiver needs a reason and a real rule
        // name. Not itself waivable.
        for w in &sf.waivers {
            if !known_rules.contains(&w.rule.as_str()) {
                diags.push(Diagnostic {
                    rel_path: rel_path.clone(),
                    line: w.line,
                    rule: "waiver-justified",
                    why: format!("waiver names unknown rule `{}`", w.rule),
                    text: sf.line_text(w.line).to_owned(),
                });
            } else if !w.justified {
                diags.push(Diagnostic {
                    rel_path: rel_path.clone(),
                    line: w.line,
                    rule: "waiver-justified",
                    why: format!(
                        "lint:allow({}) carries no justification; say why \
                         the waiver is sound",
                        w.rule
                    ),
                    text: sf.line_text(w.line).to_owned(),
                });
            }
        }
    }

    diags.sort();
    diags.dedup();
    diags
}
