//! A Rust lexer producing a token stream with exact line numbers.
//!
//! This is the layer that makes the analyzer immune to the failure mode of
//! the legacy substring scanner: string literals, character literals, and
//! comments are consumed as single opaque tokens (or dropped entirely), so
//! a `"{"` in a test fixture or a `.unwrap()` mentioned in a doc comment
//! can never be mistaken for code.
//!
//! The environment vendors no registry crates, so this plays the role a
//! `syn`/`proc-macro2` front-end would: full literal/comment handling and
//! delimiter structure, without the parts of a real parser the rule engine
//! does not need (expression precedence, type resolution).

use std::fmt;

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`r#ident` is normalized to `ident`).
    Ident,
    /// Lifetime (`'a`), without the quote.
    Lifetime,
    /// Numeric literal, lexeme preserved (`0xA5`, `1_000u64`, `1.5`).
    Num,
    /// String/char/byte-string literal; contents opaque.
    Str,
    /// Operator or separator. Multi-character operators `::`, `=>`, `->`,
    /// `..`, `..=`, `...` are single tokens; everything else is one char.
    Punct,
    /// Opening delimiter `(`, `[` or `{`.
    Open(Delim),
    /// Closing delimiter `)`, `]` or `}`.
    Close(Delim),
}

/// Delimiter flavor for [`TokKind::Open`]/[`TokKind::Close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `(` … `)`
    Paren,
    /// `[` … `]`
    Bracket,
    /// `{` … `}`
    Brace,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// The lexeme (for [`TokKind::Str`] this is a placeholder, not the
    /// literal's contents — rules must never see inside strings).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

/// A `lint:allow(<rule>)` waiver found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the waiver text appears on.
    pub line: u32,
    /// The rule name inside the parentheses.
    pub rule: String,
    /// Whether non-empty justification text follows the closing paren.
    pub justified: bool,
}

/// A lexing failure (unterminated literal or comment).
#[derive(Debug, Clone)]
pub struct LexError {
    /// 1-based line of the offending construct.
    pub line: u32,
    /// Human-readable cause.
    pub msg: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Waivers found in comments, in source order.
    pub waivers: Vec<Waiver>,
}

/// Lexes `src` into tokens and waivers.
pub fn lex(src: &str) -> Result<Lexed, LexError> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Result<Lexed, LexError> {
        while let Some(c) = self.peek(0) {
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment()?,
                b'"' => self.string()?,
                b'\'' => self.char_or_lifetime()?,
                b'r' | b'b' | b'c' if self.raw_or_byte_prefix() => {}
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                b'(' => self.delim(TokKind::Open(Delim::Paren), "("),
                b')' => self.delim(TokKind::Close(Delim::Paren), ")"),
                b'[' => self.delim(TokKind::Open(Delim::Bracket), "["),
                b']' => self.delim(TokKind::Close(Delim::Bracket), "]"),
                b'{' => self.delim(TokKind::Open(Delim::Brace), "{"),
                b'}' => self.delim(TokKind::Close(Delim::Brace), "}"),
                _ => self.punct(),
            }
        }
        Ok(self.out)
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: &str) {
        self.out.tokens.push(Token {
            kind,
            text: text.to_owned(),
            line: self.line,
        });
    }

    fn delim(&mut self, kind: TokKind, text: &str) {
        self.push(kind, text);
        self.pos += 1;
    }

    /// `// …` — consumed to end of line; scanned for waivers.
    fn line_comment(&mut self) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == b'\n' {
                break;
            }
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.scan_waivers(&text, self.line);
    }

    /// `/* … */`, nesting honored; scanned for waivers line by line.
    fn block_comment(&mut self) -> Result<(), LexError> {
        let open_line = self.line;
        self.pos += 2;
        let mut depth = 1usize;
        let mut cur = String::new();
        while depth > 0 {
            match self.peek(0) {
                None => {
                    return Err(LexError {
                        line: open_line,
                        msg: "unterminated block comment".into(),
                    })
                }
                Some(b'\n') => {
                    self.scan_waivers(&cur, self.line);
                    cur.clear();
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'/') if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.pos += 2;
                }
                Some(b'*') if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.pos += 2;
                }
                Some(c) => {
                    cur.push(c as char);
                    self.pos += 1;
                }
            }
        }
        self.scan_waivers(&cur, self.line);
        Ok(())
    }

    /// Records any `lint:allow(<rule>)` occurrences in comment text.
    fn scan_waivers(&mut self, text: &str, line: u32) {
        let mut rest = text;
        while let Some(at) = rest.find("lint:allow(") {
            let after = &rest[at + "lint:allow(".len()..];
            let Some(close) = after.find(')') else {
                break;
            };
            let rule = after[..close].trim().to_owned();
            // Only a real rule-name token is a waiver; prose like
            // "lint:allow(<rule>)" in documentation is not.
            let is_name = !rule.is_empty()
                && rule
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
            if !is_name {
                rest = &after[close + 1..];
                continue;
            }
            let tail = &after[close + 1..];
            // Justification: any non-punctuation text after the closing
            // paren (a bare "." or "," does not explain anything).
            let justified = tail.trim().chars().any(|c| c.is_alphanumeric());
            self.out.waivers.push(Waiver {
                line,
                rule,
                justified,
            });
            rest = tail;
        }
    }

    /// `"…"` with escape handling.
    fn string(&mut self) -> Result<(), LexError> {
        let open_line = self.line;
        self.pos += 1; // opening quote
        loop {
            match self.peek(0) {
                None => {
                    return Err(LexError {
                        line: open_line,
                        msg: "unterminated string literal".into(),
                    })
                }
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    // Skip the escaped character (may be a quote).
                    self.pos += 2;
                }
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
            }
        }
        self.out.tokens.push(Token {
            kind: TokKind::Str,
            text: "\"…\"".into(),
            line: open_line,
        });
        Ok(())
    }

    /// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"` — returns `true` if a
    /// raw/byte/c-string was consumed, `false` if this `r`/`b`/`c` starts a
    /// plain identifier (the caller then lexes it as one).
    fn raw_or_byte_prefix(&mut self) -> bool {
        let mut i = self.pos;
        // Up to two prefix letters (`br`, `cr`), then optional `#`s, then `"`.
        let mut letters = 0;
        while letters < 2 && matches!(self.src.get(i), Some(b'r' | b'b' | b'c')) {
            i += 1;
            letters += 1;
        }
        let hash_start = i;
        while self.src.get(i) == Some(&b'#') {
            i += 1;
        }
        let hashes = i - hash_start;
        if self.src.get(i) != Some(&b'"') {
            // Not a string prefix — but `r#ident` is a raw identifier.
            if hashes == 1
                && self
                    .src
                    .get(hash_start + 1)
                    .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_')
                && self.src.get(self.pos) == Some(&b'r')
                && hash_start == self.pos + 1
            {
                self.pos += 2; // skip `r#`, lex the rest as a plain ident
                self.ident();
                return true;
            }
            return false;
        }
        // Byte/c strings without `#`s still use escape rules; raw ones do
        // not. Distinguish by whether any `#`s or a leading `r` is present.
        let raw =
            hashes > 0 || self.src[self.pos] == b'r' || self.src.get(self.pos + 1) == Some(&b'r');
        let open_line = self.line;
        self.pos = i + 1; // past the opening quote
        loop {
            match self.peek(0) {
                None => {
                    // Unterminated; surface at the close-delimiter check.
                    break;
                }
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'\\') if !raw => {
                    self.pos += 2;
                }
                Some(b'"') => {
                    // A raw string closes only on `"` followed by its `#`s.
                    let mut ok = true;
                    for k in 0..hashes {
                        if self.src.get(self.pos + 1 + k) != Some(&b'#') {
                            ok = false;
                            break;
                        }
                    }
                    self.pos += 1;
                    if ok {
                        self.pos += hashes;
                        break;
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
        self.out.tokens.push(Token {
            kind: TokKind::Str,
            text: "\"…\"".into(),
            line: open_line,
        });
        true
    }

    /// `'a` lifetime vs `'x'` char literal.
    fn char_or_lifetime(&mut self) -> Result<(), LexError> {
        // Lifetime: quote + ident-start, NOT followed by a closing quote
        // (`'a'` is a char; `'a` is a lifetime).
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        let ident_start = c1.is_some_and(|c| c == b'_' || c.is_ascii_alphabetic());
        if ident_start && c2 != Some(b'\'') {
            let start = self.pos + 1;
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.push(TokKind::Lifetime, &text);
            return Ok(());
        }
        // Char literal: quote, (escape | char), quote.
        let open_line = self.line;
        self.pos += 1;
        match self.peek(0) {
            Some(b'\\') => {
                self.pos += 2;
                // Multi-char escapes (`\u{1F600}`, `\x7f`) run to the quote.
                while self.peek(0).is_some() && self.peek(0) != Some(b'\'') {
                    self.pos += 1;
                }
            }
            Some(_) => self.pos += 1,
            None => {
                return Err(LexError {
                    line: open_line,
                    msg: "unterminated character literal".into(),
                })
            }
        }
        if self.peek(0) != Some(b'\'') {
            return Err(LexError {
                line: open_line,
                msg: "unterminated character literal".into(),
            });
        }
        self.pos += 1;
        self.out.tokens.push(Token {
            kind: TokKind::Str,
            text: "'…'".into(),
            line: open_line,
        });
        Ok(())
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokKind::Ident, &text);
    }

    fn number(&mut self) {
        let start = self.pos;
        // Integer/float body: digits, `_`, base prefixes, hex digits, type
        // suffixes — all alphanumeric, so one class suffices. A `.` joins
        // only when followed by a digit (so `0..n` stays a range).
        while let Some(c) = self.peek(0) {
            let joins_fraction = c == b'.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !self.src[start..self.pos].contains(&b'.');
            if !(c == b'_' || c.is_ascii_alphanumeric() || joins_fraction) {
                break;
            }
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokKind::Num, &text);
    }

    fn punct(&mut self) {
        let joined: &str = match (self.peek(0), self.peek(1), self.peek(2)) {
            (Some(b':'), Some(b':'), _) => "::",
            (Some(b'='), Some(b'>'), _) => "=>",
            (Some(b'-'), Some(b'>'), _) => "->",
            (Some(b'.'), Some(b'.'), Some(b'=')) => "..=",
            (Some(b'.'), Some(b'.'), Some(b'.')) => "...",
            (Some(b'.'), Some(b'.'), _) => "..",
            _ => {
                let c = self.src[self.pos] as char;
                self.pos += 1;
                let mut s = String::new();
                s.push(c);
                self.push(TokKind::Punct, &s);
                return;
            }
        };
        self.pos += joined.len();
        self.push(TokKind::Punct, joined);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .unwrap()
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn braces_in_strings_are_not_delimiters() {
        let toks = kinds(r#"let s = "{"; let t = '{';"#);
        assert!(!toks.iter().any(|(k, _)| matches!(k, TokKind::Open(_))));
    }

    #[test]
    fn comments_produce_no_tokens() {
        let toks = kinds("// x.unwrap()\n/* y.unwrap() */ a");
        assert_eq!(toks, vec![(TokKind::Ident, "a".into())]);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still comment */ b");
        assert_eq!(toks, vec![(TokKind::Ident, "b".into())]);
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let toks = kinds(r##"let s = r#"quote " inside"#; x"##);
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Str));
        assert_eq!(toks.last().map(|(_, t)| t.as_str()), Some("x"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars = toks.iter().filter(|(k, _)| *k == TokKind::Str).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn escaped_quote_in_string() {
        let toks = kinds(r#"let s = "a\"b{"; y"#);
        assert_eq!(toks.last().map(|(_, t)| t.as_str()), Some("y"));
        assert!(!toks.iter().any(|(k, _)| matches!(k, TokKind::Open(_))));
    }

    #[test]
    fn multichar_puncts_join() {
        let toks = kinds("a::b => c -> d 0..n 1..=m");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["::", "=>", "->", "..", "..="]);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"multi\nline\"\nb /* c\nd */ e";
        let lexed = lex(src).unwrap();
        let by_name: Vec<(String, u32)> = lexed
            .tokens
            .iter()
            .map(|t| (t.text.clone(), t.line))
            .collect();
        assert!(by_name.contains(&("a".into(), 1)));
        assert!(by_name.contains(&("b".into(), 4)));
        assert!(by_name.contains(&("e".into(), 5)));
    }

    #[test]
    fn waivers_parsed_with_justification_flag() {
        let lexed =
            lex("// lint:allow(unwrap) invariant holds\nlet x = 1; // lint:allow(rng)\n").unwrap();
        assert_eq!(lexed.waivers.len(), 2);
        assert_eq!(lexed.waivers[0].rule, "unwrap");
        assert!(lexed.waivers[0].justified);
        assert_eq!(lexed.waivers[1].rule, "rng");
        assert!(!lexed.waivers[1].justified);
        assert_eq!(lexed.waivers[1].line, 2);
    }

    #[test]
    fn hex_and_shift_tokens() {
        let toks = kinds("const T: u64 = 0xA5 << 56;");
        let nums: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, vec!["0xA5", "56"]);
    }

    #[test]
    fn raw_identifier_normalized() {
        let toks = kinds("let r#match = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "match"));
    }
}
