//! The rule engine: applies the closed rule set to one lexed file,
//! honoring test-code regions and suppression pragmas.

use crate::config::{known_rule, scan_pragma, LintConfig, PragmaScan};
use crate::lexer::{lex, Comment, TokKind, Token};

/// One rule violation (or meta-finding such as `stale-allow`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule id (a member of [`crate::config::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of this occurrence.
    pub message: String,
}

impl Finding {
    /// Renders as `path:line: [rule] message` (the stable text format).
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Integer-type idents that make an `as` cast a `bare-cast` finding.
const INT_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// How far above an `unsafe` token a `// SAFETY:` comment may end and
/// still count as adjacent (lines).
const SAFETY_ADJACENCY: usize = 3;

/// Per-file scan context derived from the path.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
    /// Owning crate short name (`core`, `mem`, …; `suite` for `src/`).
    pub crate_name: &'a str,
}

/// Derives the crate short name from a workspace-relative path.
pub fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("suite")
}

/// Computes the byte ranges of test code: any block introduced by an
/// attribute whose tokens mention `test` (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, …))]`). Every rule skips findings inside them —
/// tests may unwrap, index, and hash freely.
fn test_regions(tokens: &[Token], src: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_hash = tokens[i].kind == TokKind::Punct && tokens[i].text(src) == "#";
        let opens_attr = is_hash
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Punct && t.text(src) == "[");
        if !opens_attr {
            i += 1;
            continue;
        }
        // Walk to the attribute's matching `]`, noting a `test` ident.
        let mut depth = 0usize;
        let mut mentions_test = false;
        let mut j = i + 1;
        while j < tokens.len() {
            let t = tokens[j].text(src);
            match t {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" if tokens[j].kind == TokKind::Ident => mentions_test = true,
                _ => {}
            }
            j += 1;
        }
        if !mentions_test {
            i = j + 1;
            continue;
        }
        // The attributed item's block: the next `{` at brace depth 0
        // (stopping at a `;` — `mod tests;` has no inline block).
        let mut k = j + 1;
        let mut found = None;
        while k < tokens.len() {
            match tokens[k].text(src) {
                "{" => {
                    found = Some(k);
                    break;
                }
                ";" => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = found else {
            i = j + 1;
            continue;
        };
        // Matching close brace.
        let mut depth = 0usize;
        let mut close = tokens.len().saturating_sub(1);
        for (idx, t) in tokens.iter().enumerate().skip(open) {
            match t.text(src) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = idx;
                        break;
                    }
                }
                _ => {}
            }
        }
        regions.push((tokens[open].start, tokens[close].end));
        i = close + 1;
    }
    regions
}

/// Scans one file's source, returning raw findings with pragmas already
/// applied (suppressed findings removed; `bad-pragma`/`stale-pragma`
/// meta-findings added). The `lint.toml` allowlist is applied by the
/// caller ([`crate::run_workspace`]), which owns staleness accounting.
pub fn scan_source(ctx: FileCtx<'_>, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    let lexed = lex(src);
    let regions = test_regions(&lexed.tokens, src);
    let in_test = |tok: &Token| {
        regions
            .iter()
            .any(|&(s, e)| tok.start >= s && tok.start < e)
    };

    let deterministic_scope = !cfg.determinism_exempt.iter().any(|c| c == ctx.crate_name);
    let panic_scope = !cfg.panic_exempt.iter().any(|c| c == ctx.crate_name);
    let cast_scope = cfg.cost_paths.iter().any(|p| p == ctx.path);
    let index_scope = cfg.strict_index.iter().any(|p| p == ctx.path);
    let audited = cfg.audited_unsafe.iter().any(|p| p == ctx.path);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, line: usize, message: String| {
        raw.push(Finding {
            rule,
            path: ctx.path.to_string(),
            line,
            message,
        });
    };

    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if in_test(tok) {
            continue;
        }
        let text = tok.text(src);
        match tok.kind {
            TokKind::Ident => match text {
                "HashMap" | "HashSet" if deterministic_scope => push(
                    "hash-collections",
                    tok.line,
                    format!(
                        "`{text}` has nondeterministic iteration order; use BTree{}",
                        &text[4..]
                    ),
                ),
                "Instant" | "SystemTime" if deterministic_scope => push(
                    "wall-clock",
                    tok.line,
                    format!("`{text}` reads the wall clock; timing belongs in obs/bench/cli"),
                ),
                "as" if cast_scope => {
                    if let Some(next) = toks.get(i + 1) {
                        let target = next.text(src);
                        if next.kind == TokKind::Ident && INT_TARGETS.contains(&target) {
                            push(
                                "bare-cast",
                                tok.line,
                                format!(
                                    "bare `as {target}` in a cost path; use a hygcn_mem::cast helper"
                                ),
                            );
                        }
                    }
                }
                "unwrap" | "expect" if panic_scope => {
                    let after_dot =
                        i > 0 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text(src) == ".";
                    let called = toks
                        .get(i + 1)
                        .is_some_and(|t| t.kind == TokKind::Punct && t.text(src) == "(");
                    if after_dot && called {
                        push(
                            "unwrap",
                            tok.line,
                            format!("`.{text}()` in library code; return an error or justify"),
                        );
                    }
                }
                "panic" | "todo" | "unimplemented" if panic_scope => {
                    let banged = toks
                        .get(i + 1)
                        .is_some_and(|t| t.kind == TokKind::Punct && t.text(src) == "!");
                    // `panic!` the macro, not `std::panic::` the module.
                    if banged {
                        push(
                            "panic-macro",
                            tok.line,
                            format!("`{text}!` in library code; return an error instead"),
                        );
                    }
                }
                "unsafe" => {
                    if !audited {
                        push(
                            "unsafe-audit",
                            tok.line,
                            "`unsafe` outside the audited-module list ([scope] audited_unsafe)"
                                .to_string(),
                        );
                    }
                    let documented = lexed.comments.iter().any(|c| {
                        c.text.contains("SAFETY:")
                            && c.end_line <= tok.line
                            && c.end_line + SAFETY_ADJACENCY >= tok.line
                    });
                    if !documented {
                        push(
                            "unsafe-audit",
                            tok.line,
                            "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                        );
                    }
                }
                _ => {}
            },
            TokKind::Punct => match text {
                "==" | "!=" if deterministic_scope => {
                    let float_side = [i.wrapping_sub(1), i + 1]
                        .iter()
                        .any(|&j| toks.get(j).is_some_and(|t| t.kind == TokKind::Float));
                    if float_side {
                        push(
                            "float-cmp",
                            tok.line,
                            format!("exact float `{text}` comparison against a float literal"),
                        );
                    }
                }
                "[" if index_scope => {
                    let indexes = i > 0
                        && (toks[i - 1].kind == TokKind::Ident
                            && !is_keyword(toks[i - 1].text(src))
                            || toks[i - 1].text(src) == "]"
                            || toks[i - 1].text(src) == ")");
                    if indexes {
                        push(
                            "slice-index",
                            tok.line,
                            "bare indexing in a strict-index file; use .get()/.get_mut()"
                                .to_string(),
                        );
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }

    apply_pragmas(ctx, src, &lexed.comments, raw)
}

/// Keywords that may directly precede `[` without it being an index
/// expression (`return [..]`, `in [..]`, `&mut [..]` handled by punct,
/// and the slice patterns `let [a, b] = ..` and `for [a, b] in ..`).
fn is_keyword(t: &str) -> bool {
    matches!(
        t,
        "return"
            | "in"
            | "if"
            | "else"
            | "match"
            | "break"
            | "mut"
            | "const"
            | "static"
            | "dyn"
            | "let"
            | "for"
    )
}

/// Applies in-source pragmas to `raw` findings: a pragma suppresses
/// matching findings on its own line or the line directly below its
/// end. Malformed pragmas and pragmas that suppress nothing become
/// findings themselves.
fn apply_pragmas(
    ctx: FileCtx<'_>,
    _src: &str,
    comments: &[Comment],
    raw: Vec<Finding>,
) -> Vec<Finding> {
    struct Active {
        rules: Vec<String>,
        lines: [usize; 2],
        at: usize,
        used: bool,
    }
    let mut pragmas: Vec<Active> = Vec::new();
    let mut meta: Vec<Finding> = Vec::new();
    for c in comments {
        match scan_pragma(&c.text) {
            PragmaScan::NotAPragma => {}
            PragmaScan::Malformed(why) => meta.push(Finding {
                rule: "bad-pragma",
                path: ctx.path.to_string(),
                line: c.line,
                message: why,
            }),
            PragmaScan::Ok(p) => pragmas.push(Active {
                rules: p.rules,
                lines: [c.end_line, c.end_line + 1],
                at: c.line,
                used: false,
            }),
        }
    }
    let mut kept: Vec<Finding> = Vec::new();
    for f in raw {
        let mut suppressed = false;
        for p in pragmas.iter_mut() {
            if p.lines.contains(&f.line) && p.rules.iter().any(|r| r == f.rule) {
                p.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    for p in &pragmas {
        if !p.used {
            kept.push(Finding {
                rule: "stale-pragma",
                path: ctx.path.to_string(),
                line: p.at,
                message: format!(
                    "pragma for ({}) suppresses nothing; delete it",
                    p.rules.join(", ")
                ),
            });
        }
    }
    kept.extend(meta);
    debug_assert!(known_rule("stale-pragma"));
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LintConfig {
        LintConfig {
            cost_paths: vec!["crates/core/src/cost.rs".into()],
            strict_index: vec!["crates/dse/src/strict.rs".into()],
            audited_unsafe: vec!["crates/mem/src/audited.rs".into()],
            ..LintConfig::default()
        }
    }

    fn findings(path: &str, src: &str) -> Vec<(String, usize)> {
        scan_source(
            FileCtx {
                path,
                crate_name: crate_of(path),
            },
            src,
            &cfg(),
        )
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); panic!(); }\n}\n";
        let f = findings("crates/core/src/a.rs", src);
        assert_eq!(f, [("unwrap".to_string(), 1)]);
    }

    #[test]
    fn unwrap_variants_do_not_match() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(n); c.expect_err(\"x\"); }\n";
        assert!(findings("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let src = "// lint: allow(unwrap) -- justified\nfn f() { a.unwrap(); }\n\
                   fn g() { b.unwrap(); } // lint: allow(unwrap) -- also fine\n";
        assert!(findings("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn stale_and_bad_pragmas_are_findings() {
        let src = "// lint: allow(unwrap) -- nothing here\nfn f() {}\n\
                   // lint: allow(unwrap)\n";
        let f = findings("crates/core/src/a.rs", src);
        assert!(f.contains(&("stale-pragma".to_string(), 1)), "{f:?}");
        assert!(f.contains(&("bad-pragma".to_string(), 3)), "{f:?}");
    }

    #[test]
    fn scoping_by_crate_and_file() {
        // obs is determinism-exempt; cli is panic-exempt.
        assert!(findings("crates/obs/src/lib.rs", "type M = HashMap<u32, u32>;").is_empty());
        assert!(findings("crates/cli/src/a.rs", "fn f() { x.unwrap(); }").is_empty());
        assert_eq!(
            findings("crates/core/src/a.rs", "type M = HashMap<u32, u32>;"),
            [("hash-collections".to_string(), 1)]
        );
        // Casts only fire in cost paths.
        assert!(findings("crates/core/src/other.rs", "let x = y as u64;").is_empty());
        assert_eq!(
            findings("crates/core/src/cost.rs", "let x = y as u64;"),
            [("bare-cast".to_string(), 1)]
        );
        assert!(
            findings("crates/core/src/cost.rs", "let x = y as f64;").is_empty(),
            "float targets are not the truncation class"
        );
    }

    #[test]
    fn unsafe_needs_audit_listing_and_safety_comment() {
        let audited_ok = "// SAFETY: the mask bounds the index.\nunsafe { q() }\n";
        assert!(findings("crates/mem/src/audited.rs", audited_ok).is_empty());
        let f = findings("crates/mem/src/audited.rs", "unsafe { q() }\n");
        assert_eq!(f, [("unsafe-audit".to_string(), 1)]);
        let f = findings("crates/core/src/a.rs", audited_ok);
        assert_eq!(f, [("unsafe-audit".to_string(), 2)], "not in audited list");
    }

    #[test]
    fn slice_index_only_in_strict_files() {
        assert!(findings("crates/dse/src/other.rs", "fn f() { a[0]; }").is_empty());
        let f = findings("crates/dse/src/strict.rs", "fn f() { a[i + 1]; }");
        assert_eq!(f, [("slice-index".to_string(), 1)]);
        // Array literals, types, and attributes are not indexing.
        let benign = "#[derive(Debug)]\nfn f() -> [u8; 4] { let v = vec![1]; [0; 4] }\n";
        assert!(findings("crates/dse/src/strict.rs", benign).is_empty());
    }

    #[test]
    fn slice_patterns_are_not_indexing() {
        let patterns = "fn f() { let [a, b, c, d] = quad; for [a, b] in pairs {} }";
        assert!(findings("crates/dse/src/strict.rs", patterns).is_empty());
        // Indexing right after a pattern is still indexing.
        let f = findings(
            "crates/dse/src/strict.rs",
            "fn f() { let [a] = x[0]; for y in z[1..] {} }",
        );
        assert_eq!(
            f,
            [
                ("slice-index".to_string(), 1),
                ("slice-index".to_string(), 1)
            ]
        );
    }

    #[test]
    fn float_comparisons_against_literals() {
        let f = findings("crates/core/src/a.rs", "fn f() { if x == 0.0 { } }");
        assert_eq!(f, [("float-cmp".to_string(), 1)]);
        assert!(findings("crates/core/src/a.rs", "fn f() { if x == 0 { } }").is_empty());
    }

    #[test]
    fn words_in_strings_and_comments_do_not_fire() {
        let src = "// HashMap unwrap panic!\nfn f() { let s = \"unwrap() HashMap\"; }\n";
        assert!(findings("crates/core/src/a.rs", src).is_empty());
    }
}
