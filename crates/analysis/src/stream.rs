//! The annotated token stream rules scan: delimiter structure plus exact
//! `#[cfg(test)]` scoping.
//!
//! Delimiters are matched on real tokens (the lexer already removed
//! strings and comments), so brace counting cannot be fooled the way the
//! legacy line scanner's was. Test scope is an attribute fact, not a
//! heuristic: a `#[cfg(test)]` attribute marks the next item's brace group
//! (and everything inside it) as test code.

use crate::lex::{self, Delim, LexError, TokKind, Waiver};

/// One token of the annotated stream.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Lexeme (placeholder for literals).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// `true` inside a `#[cfg(test)]`-scoped item.
    pub in_test: bool,
    /// For [`TokKind::Open`]: index of the matching close token.
    /// For [`TokKind::Close`]: index of the matching open token.
    /// Unused otherwise.
    pub mate: usize,
    /// Delimiter nesting depth (tokens at the file top level are 0; an
    /// `Open` carries the depth *outside* it, its contents are depth+1).
    pub depth: u32,
}

/// A fully prepared source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative, `/`-separated path.
    pub rel_path: String,
    /// Source lines (for diagnostic snippets), 0-indexed.
    pub lines: Vec<String>,
    /// Annotated tokens.
    pub toks: Vec<Tok>,
    /// Comment waivers.
    pub waivers: Vec<Waiver>,
    /// `true` when the whole file is test/example code by path.
    pub is_test_file: bool,
}

/// A structural failure preparing a file (lex error, unbalanced
/// delimiters) — always a hard analyzer failure, never ignored.
#[derive(Debug)]
pub struct StreamError {
    /// 1-based line.
    pub line: u32,
    /// Cause.
    pub msg: String,
}

impl From<LexError> for StreamError {
    fn from(e: LexError) -> Self {
        StreamError {
            line: e.line,
            msg: e.msg,
        }
    }
}

impl SourceFile {
    /// Lexes and annotates `src`.
    pub fn parse(rel_path: &str, src: &str) -> Result<SourceFile, StreamError> {
        let lexed = lex::lex(src)?;
        let is_test_file = path_is_test(rel_path);
        let mut toks: Vec<Tok> = lexed
            .tokens
            .into_iter()
            .map(|t| Tok {
                kind: t.kind,
                text: t.text,
                line: t.line,
                in_test: is_test_file,
                mate: usize::MAX,
                depth: 0,
            })
            .collect();
        match_delims(&mut toks)?;
        if !is_test_file {
            mark_cfg_test(&mut toks);
        }
        Ok(SourceFile {
            rel_path: rel_path.to_owned(),
            lines: src.lines().map(str::to_owned).collect(),
            toks,
            waivers: lexed.waivers,
            is_test_file,
        })
    }

    /// The trimmed text of a 1-based source line (for diagnostics).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map_or("", |s| s.trim())
    }

    /// `true` if a waiver for `rule` sits on `line` or the line above.
    pub fn waived(&self, rule: &str, line: u32) -> bool {
        self.waivers
            .iter()
            .any(|w| w.rule == rule && (w.line == line || w.line + 1 == line))
    }
}

/// `true` for paths whose entire contents are test/example code.
fn path_is_test(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/examples/")
}

/// Fills `mate` and `depth` for every delimiter token.
fn match_delims(toks: &mut [Tok]) -> Result<(), StreamError> {
    let mut stack: Vec<(usize, Delim)> = Vec::new();
    for i in 0..toks.len() {
        toks[i].depth = stack.len() as u32;
        match toks[i].kind {
            TokKind::Open(d) => stack.push((i, d)),
            TokKind::Close(d) => {
                let Some((open, od)) = stack.pop() else {
                    return Err(StreamError {
                        line: toks[i].line,
                        msg: format!("unmatched closing {:?}", d),
                    });
                };
                if od != d {
                    return Err(StreamError {
                        line: toks[i].line,
                        msg: format!("mismatched delimiters: {:?} closed by {:?}", od, d),
                    });
                }
                toks[open].mate = i;
                toks[i].mate = open;
                toks[i].depth = toks[open].depth;
            }
            _ => {}
        }
    }
    if let Some((open, d)) = stack.pop() {
        return Err(StreamError {
            line: toks[open].line,
            msg: format!("unclosed {:?}", d),
        });
    }
    Ok(())
}

/// Marks the brace group of every `#[cfg(test)]`-attributed item (and all
/// nested tokens) as test code.
///
/// The flag set by an attribute survives across further attributes and the
/// item header (`mod tests`, `fn t(..) -> X`), and is cleared by a `;` at
/// the same depth (`#[cfg(test)] use …;` guards no braces).
fn mark_cfg_test(toks: &mut [Tok]) {
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            let attr_close = toks[i + 1].mate; // the `]`
            let depth = toks[i].depth;
            // Scan forward for the attributed item's brace group.
            let mut j = attr_close + 1;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Open(Delim::Brace) if toks[j].depth == depth => {
                        let close = toks[j].mate;
                        for t in &mut toks[j..=close] {
                            t.in_test = true;
                        }
                        break;
                    }
                    // Non-brace groups (parameter lists, other attributes)
                    // are skipped wholesale.
                    TokKind::Open(_) => j = toks[j].mate,
                    TokKind::Punct if toks[j].text == ";" && toks[j].depth == depth => break,
                    _ => {}
                }
                j += 1;
            }
            i = attr_close + 1;
            continue;
        }
        i += 1;
    }
}

/// `true` if `toks[i..]` starts the exact attribute `#[cfg(test)]`.
fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    let t = |k: usize| toks.get(i + k);
    t(0).is_some_and(|x| x.kind == TokKind::Punct && x.text == "#")
        && t(1).is_some_and(|x| x.kind == TokKind::Open(Delim::Bracket))
        && t(2).is_some_and(|x| x.kind == TokKind::Ident && x.text == "cfg")
        && t(3).is_some_and(|x| x.kind == TokKind::Open(Delim::Paren))
        && t(4).is_some_and(|x| x.kind == TokKind::Ident && x.text == "test")
        && t(5).is_some_and(|x| x.kind == TokKind::Close(Delim::Paren))
        && t(6).is_some_and(|x| x.kind == TokKind::Close(Delim::Bracket))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/a.rs", src).unwrap()
    }

    fn ident_flags(sf: &SourceFile, name: &str) -> Vec<bool> {
        sf.toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text == name)
            .map(|t| t.in_test)
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_scoped_exactly() {
        let src = "fn a() { before(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { inside(); }\n}\n\
                   fn b() { after(); }\n";
        let sf = parse(src);
        assert_eq!(ident_flags(&sf, "before"), vec![false]);
        assert_eq!(ident_flags(&sf, "inside"), vec![true]);
        assert_eq!(ident_flags(&sf, "after"), vec![false]);
    }

    #[test]
    fn braces_in_strings_do_not_leak_test_scope() {
        // The regression the legacy scanner's brace counter had: a `"{"`
        // inside a test mod made it think the mod never closed.
        let src = "#[cfg(test)]\nmod tests {\n let s = \"{\";\n}\n\
                   fn prod() { after_string_brace(); }\n";
        let sf = parse(src);
        assert_eq!(ident_flags(&sf, "after_string_brace"), vec![false]);
    }

    #[test]
    fn cfg_test_fn_with_params_is_scoped() {
        let src = "#[cfg(test)]\nfn helper(x: u32) -> u32 { inner() }\nfn p() { outer(); }\n";
        let sf = parse(src);
        assert_eq!(ident_flags(&sf, "inner"), vec![true]);
        assert_eq!(ident_flags(&sf, "outer"), vec![false]);
    }

    #[test]
    fn cfg_test_use_guards_nothing() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn p() { body(); }\n";
        let sf = parse(src);
        assert_eq!(ident_flags(&sf, "body"), vec![false]);
    }

    #[test]
    fn cfg_not_test_is_not_test_scope() {
        let src = "#[cfg(not(test))]\nfn p() { body(); }\n";
        let sf = parse(src);
        assert_eq!(ident_flags(&sf, "body"), vec![false]);
    }

    #[test]
    fn attributes_between_cfg_test_and_item_are_crossed() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() { inside(); } }\n";
        let sf = parse(src);
        assert_eq!(ident_flags(&sf, "inside"), vec![true]);
    }

    #[test]
    fn test_file_paths_are_wholly_test() {
        let sf = SourceFile::parse("crates/x/tests/a.rs", "fn t() { x(); }").unwrap();
        assert_eq!(ident_flags(&sf, "x"), vec![true]);
    }

    #[test]
    fn unbalanced_delims_error() {
        assert!(SourceFile::parse("crates/x/src/a.rs", "fn f() {").is_err());
        assert!(SourceFile::parse("crates/x/src/a.rs", "fn f() )").is_err());
    }

    #[test]
    fn depth_and_mates() {
        let sf = parse("fn f(a: u32) { g(a); }");
        let open_brace = sf
            .toks
            .iter()
            .position(|t| t.kind == TokKind::Open(Delim::Brace))
            .unwrap();
        let close = sf.toks[open_brace].mate;
        assert_eq!(sf.toks[close].kind, TokKind::Close(Delim::Brace));
        assert_eq!(sf.toks[close].mate, open_brace);
        assert_eq!(sf.toks[open_brace].depth, 0);
        assert_eq!(sf.toks[open_brace + 1].depth, 1);
    }
}
