//! The rule engine: per-file rules over annotated token streams.

use crate::lex::TokKind;
use crate::stream::{SourceFile, Tok};

mod hashiter;
mod needles;

/// Static facts about a rule: identity, rationale, and scope.
pub struct Meta {
    /// Short name used in diagnostics and `lint:allow(<name>)` waivers.
    pub name: &'static str,
    /// Rationale shown with each hit.
    pub why: &'static str,
    /// `true` if the rule also applies inside test code.
    pub applies_in_tests: bool,
    /// When non-empty, the rule *only* applies under these path prefixes.
    pub only_prefixes: &'static [&'static str],
    /// Path prefixes the rule does not apply to.
    pub exempt_prefixes: &'static [&'static str],
}

impl Meta {
    /// `true` if the rule applies to a file at `rel_path` at all.
    pub fn in_scope(&self, rel_path: &str) -> bool {
        if self.exempt_prefixes.iter().any(|p| rel_path.starts_with(p)) {
            return false;
        }
        self.only_prefixes.is_empty() || self.only_prefixes.iter().any(|p| rel_path.starts_with(p))
    }
}

/// A rule that inspects one file at a time.
pub trait FileRule {
    /// The rule's identity and scope.
    fn meta(&self) -> &'static Meta;
    /// Scans `sf`, emitting `(line, detail)` hits. `detail` may add
    /// hit-specific context to the rule's `why` (empty = none).
    fn check(&self, sf: &SourceFile, out: &mut Vec<(u32, String)>);
}

/// Every per-file rule, in diagnostic order.
pub fn file_rules() -> Vec<Box<dyn FileRule>> {
    let mut rules: Vec<Box<dyn FileRule>> = needles::rules();
    rules.push(Box::new(hashiter::HashIterRule));
    rules
}

/// Every rule name (for waiver validation).
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = file_rules().iter().map(|r| r.meta().name).collect();
    names.push("waiver-justified");
    names
}

// ---------------------------------------------------------- token helpers

/// `true` if `t` is the identifier `s`.
pub(crate) fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// `true` if `t` is the punctuation `s`.
pub(crate) fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

/// If `toks[i]` starts a method call `.name(`, returns the method name
/// index. `..` never matches (it is a distinct token).
pub(crate) fn method_call_at(toks: &[Tok], i: usize) -> Option<usize> {
    if is_punct(&toks[i], ".")
        && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        && toks
            .get(i + 2)
            .is_some_and(|t| t.kind == TokKind::Open(crate::lex::Delim::Paren))
    {
        Some(i + 1)
    } else {
        None
    }
}

/// `true` if the identifiers `segs` appear at `i` joined by `::`
/// (`segs = ["Instant", "now"]` matches `Instant::now`).
pub(crate) fn path_at(toks: &[Tok], i: usize, segs: &[&str]) -> bool {
    let mut k = i;
    for (n, seg) in segs.iter().enumerate() {
        if !toks.get(k).is_some_and(|t| is_ident(t, seg)) {
            return false;
        }
        k += 1;
        if n + 1 < segs.len() {
            if !toks.get(k).is_some_and(|t| is_punct(t, "::")) {
                return false;
            }
            k += 1;
        }
    }
    true
}
