//! The needle rules as token patterns: method calls, `::` paths, and
//! bare identifiers instead of raw substrings, so strings and comments
//! cannot produce hits and multi-line call chains cannot hide them.

use super::{is_ident, is_punct, method_call_at, path_at, FileRule, Meta};
use crate::lex::TokKind;
use crate::stream::SourceFile;

/// What a pattern rule looks for in the token stream.
enum Pat {
    /// A method call `.name(` for any listed name.
    Method(&'static [&'static str]),
    /// A `::`-joined path suffix, e.g. `["Instant", "now"]`.
    Path(&'static [&'static str]),
    /// A bare identifier occurrence anywhere.
    Ident(&'static [&'static str]),
    /// An identifier used as a path head (`name::…`) — type positions
    /// like `rng: StdRng` do not match.
    PathHead(&'static str),
}

/// A rule made of token patterns.
pub struct PatternRule {
    meta: &'static Meta,
    pats: &'static [Pat],
}

impl FileRule for PatternRule {
    fn meta(&self) -> &'static Meta {
        self.meta
    }

    fn check(&self, sf: &SourceFile, out: &mut Vec<(u32, String)>) {
        let toks = &sf.toks;
        for i in 0..toks.len() {
            if toks[i].in_test && !self.meta.applies_in_tests {
                continue;
            }
            for pat in self.pats {
                match pat {
                    Pat::Method(names) => {
                        if let Some(m) = method_call_at(toks, i) {
                            if names.contains(&toks[m].text.as_str()) {
                                out.push((toks[m].line, String::new()));
                            }
                        }
                    }
                    Pat::Path(segs) => {
                        // Suffix match: `["Instant", "now"]` also catches
                        // `std::time::Instant::now`.
                        if path_at(toks, i, segs) {
                            out.push((toks[i].line, String::new()));
                        }
                    }
                    Pat::Ident(names) => {
                        if toks[i].kind == TokKind::Ident && names.contains(&toks[i].text.as_str())
                        {
                            out.push((toks[i].line, String::new()));
                        }
                    }
                    Pat::PathHead(name) => {
                        if is_ident(&toks[i], name)
                            && toks.get(i + 1).is_some_and(|t| is_punct(t, "::"))
                        {
                            out.push((toks[i].line, String::new()));
                        }
                    }
                }
            }
        }
    }
}

static UNWRAP: Meta = Meta {
    name: "unwrap",
    why: "propagate or handle errors in production code",
    applies_in_tests: false,
    only_prefixes: &[],
    // Figure bodies and binaries: panic-on-error IS their error handling.
    exempt_prefixes: &[
        "crates/bench/src/bin/",
        "crates/bench/src/figures/",
        "crates/runtime/src/bin/",
    ],
};

static WALLCLOCK: Meta = Meta {
    name: "wallclock",
    why: "simulator-driven code must take time from the event clock",
    applies_in_tests: true,
    only_prefixes: &[],
    // The real-TCP host driver and its demo run on actual wall time.
    exempt_prefixes: &["crates/net/", "crates/runtime/", "examples/realtime_tcp"],
};

static RECCLONE: Meta = Meta {
    name: "recclone",
    why: "the local scan path hands out Arc<Record> handles; deep copies \
          belong only at the wire boundary (core's to_wire)",
    applies_in_tests: false,
    // The store's scan surface is what the zero-copy query path rests on.
    only_prefixes: &["crates/store/src/mem.rs"],
    exempt_prefixes: &[],
};

static ROUTEALLOC: Meta = Meta {
    name: "routealloc",
    why: "the flat cut tree's descent paths are allocation-free by \
          construction; an allocation here silently re-grows the per-hop \
          routing cost the arena rewrite removed",
    applies_in_tests: false,
    only_prefixes: &["crates/histogram/src/flat.rs"],
    exempt_prefixes: &[],
};

static WORLDRNG: Meta = Meta {
    name: "worldrng",
    why: "netsim randomness must derive from the single world seed \
          (SimConfig::seed); waive construction sites that do",
    applies_in_tests: false,
    only_prefixes: &["crates/netsim/src/"],
    exempt_prefixes: &[],
};

/// The five needle rules.
pub fn rules() -> Vec<Box<dyn FileRule>> {
    vec![
        Box::new(PatternRule {
            meta: &UNWRAP,
            pats: &[Pat::Method(&["unwrap", "expect"])],
        }),
        Box::new(PatternRule {
            meta: &WALLCLOCK,
            pats: &[
                Pat::Path(&["SystemTime", "now"]),
                Pat::Path(&["Instant", "now"]),
            ],
        }),
        Box::new(PatternRule {
            meta: &RECCLONE,
            pats: &[Pat::Method(&["clone"])],
        }),
        Box::new(PatternRule {
            meta: &ROUTEALLOC,
            pats: &[
                Pat::Path(&["Vec", "new"]),
                Pat::Method(&["to_vec", "clone"]),
            ],
        }),
        Box::new(PatternRule {
            meta: &WORLDRNG,
            pats: &[
                Pat::Ident(&["seed_from_u64", "from_seed"]),
                Pat::PathHead("StdRng"),
            ],
        }),
    ]
}
