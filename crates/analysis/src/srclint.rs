//! Source-level concurrency-policy lint for the workspace.
//!
//! `slin-analyze --lint-src` scans every Rust source under `crates/` and
//! enforces the repo's concurrency policy statically, as a blocking CI
//! step. The rules are deliberately textual — line-oriented, comment- and
//! test-region-aware, no parser — so the pass stays dependency-free and
//! auditable; each rule is tuned to hold on the tree with **zero
//! waivers**, so any hit is a regression.
//!
//! Rules (see [`RULES`]):
//!
//! * `forbid-unsafe` — every crate root (`crates/**/src/lib.rs`) carries
//!   `#![forbid(unsafe_code)]`;
//! * `hot-path-unwrap` — no `.unwrap()` and no non-literal `.expect(`
//!   in the ingest hot paths (`crates/daemon/src`,
//!   `crates/core/src/stream`) outside test regions;
//! * `lock-order` — the workspace's known mutexes are acquired in one
//!   global order within any function (registry shards → span ring →
//!   recorder events), so lock cycles cannot be introduced silently;
//! * `no-debug-macros` — `dbg!`, `todo!`, and `unimplemented!` never ship
//!   outside `#[cfg(test)]` regions (stderr noise in daemons; reachable
//!   panics in checkers).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule identifiers with one-line descriptions (for `--help` and docs).
pub const RULES: &[(&str, &str)] = &[
    (
        "forbid-unsafe",
        "every crates/**/src/lib.rs must declare #![forbid(unsafe_code)]",
    ),
    (
        "hot-path-unwrap",
        "no .unwrap() / non-literal .expect( in daemon or streaming ingest paths",
    ),
    (
        "lock-order",
        "known mutex families must be acquired in the global order within a function",
    ),
    (
        "no-debug-macros",
        "dbg!/todo!/unimplemented! are banned outside #[cfg(test)] regions",
    ),
];

/// Development-only macros that must never ship in non-test code: `dbg`
/// leaks stderr noise into long-running daemons, `todo`/`unimplemented`
/// turn a reachable path into a panic. Stored without the `!` so this
/// file's own constant does not trip the rule; matching appends it.
const DEBUG_MACROS: &[&str] = &["dbg", "todo", "unimplemented"];

/// Directories whose non-test code is an ingest hot path.
const HOT_PATHS: &[&str] = &["crates/daemon/src/", "crates/core/src/stream/"];

/// Known mutex families, in their global acquisition order. A `.lock()`
/// whose receiver window matches `pattern` belongs to the family.
const LOCK_ORDER: &[(&str, &str)] = &[
    ("registry-shard", "shards"),
    ("span-ring", "self.ring"),
    ("recorder-events", "self.events"),
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintHit {
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line, or 0 for whole-file findings.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for LintHit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lints every Rust source under `<root>/crates`. Returns all hits,
/// deterministically ordered (sorted file walk, then line order).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<LintHit>> {
    let mut hits = Vec::new();
    for path in rust_sources(&root.join("crates"))? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        // Integration tests and benches are not production code.
        if rel.contains("/tests/") || rel.contains("/benches/") {
            continue;
        }
        let source = fs::read_to_string(&path)?;
        lint_file(&rel, &source, &mut hits);
    }
    Ok(hits)
}

/// All `.rs` files under `dir`, sorted for determinism, skipping `target`.
fn rust_sources(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            if entry.is_dir() {
                if entry.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(entry);
            } else if entry.extension().is_some_and(|e| e == "rs") {
                out.push(entry);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Per-line facts computed in one pass: comment-stripped text and whether
/// the line sits inside a `#[cfg(test)]` region.
struct Line {
    code: String,
    in_test: bool,
}

/// Strips `//` comments (string-literal aware, heuristically) and marks
/// `#[cfg(test)]`-gated regions by brace tracking.
fn preprocess(source: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut test_depth: Option<usize> = None; // brace depth where the region opened
    let mut depth = 0usize;
    let mut pending_cfg_test = false;
    for raw in source.lines() {
        let code = strip_comment(raw);
        let in_test = test_depth.is_some();
        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        if code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && opens > 0 {
            // The item the attribute gates (a `mod tests`, a test-only
            // impl, …) opens here; the region ends when depth returns.
            test_depth.get_or_insert(depth);
            pending_cfg_test = false;
        } else if pending_cfg_test && !code.trim().is_empty() && !code.trim().starts_with("#[") {
            pending_cfg_test = false; // attribute gated a single line item
        }
        depth = (depth + opens).saturating_sub(closes);
        if let Some(open_depth) = test_depth {
            if depth <= open_depth {
                test_depth = None;
            }
        }
        lines.push(Line { code, in_test });
    }
    lines
}

/// Blanks the contents of string literals (escape-aware), so rules about
/// code tokens ignore matches inside messages and doc examples.
fn mask_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_str = false;
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_str => {
                out.push(' ');
                if chars.next().is_some() {
                    out.push(' ');
                }
            }
            '"' => {
                in_str = !in_str;
                out.push('"');
            }
            _ if in_str => out.push(' '),
            _ => out.push(c),
        }
    }
    out
}

/// Cuts a line at the first `//` that is not inside a string literal.
fn strip_comment(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip escaped char
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return line[..i].to_string();
            }
            _ => {}
        }
        i += 1;
    }
    line.to_string()
}

fn lint_file(rel: &str, source: &str, hits: &mut Vec<LintHit>) {
    let lines = preprocess(source);

    // Rule: forbid-unsafe — crate roots must forbid unsafe code.
    if rel.starts_with("crates/") && rel.ends_with("/src/lib.rs") {
        let has = lines.iter().any(|l| l.code.contains("forbid(unsafe_code)"));
        if !has {
            hits.push(LintHit {
                rule: "forbid-unsafe",
                file: rel.to_string(),
                line: 0,
                message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
            });
        }
    }

    // Rule: hot-path-unwrap — panicking extractors are banned in ingest
    // hot paths; .expect( is allowed only with an immediate literal
    // invariant message.
    if HOT_PATHS.iter().any(|p| rel.starts_with(p)) {
        for (idx, l) in lines.iter().enumerate() {
            if l.in_test {
                continue;
            }
            if l.code.contains(".unwrap()") {
                hits.push(LintHit {
                    rule: "hot-path-unwrap",
                    file: rel.to_string(),
                    line: idx + 1,
                    message: ".unwrap() in an ingest hot path (return a typed error instead)"
                        .to_string(),
                });
            }
            if let Some(pos) = l.code.find(".expect(") {
                let after = &l.code[pos + ".expect(".len()..];
                if !after.trim_start().starts_with('"') {
                    hits.push(LintHit {
                        rule: "hot-path-unwrap",
                        file: rel.to_string(),
                        line: idx + 1,
                        message: ".expect( without a literal invariant message in an ingest \
                                  hot path"
                            .to_string(),
                    });
                }
            }
        }
    }

    // Rule: lock-order — within one function, known mutex families must
    // be acquired in non-decreasing global order.
    let mut watermark: Option<(usize, &str)> = None;
    for (idx, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        if l.code.contains("fn ") && l.code.contains('(') {
            watermark = None; // new function scope
        }
        if !l.code.contains(".lock()") {
            continue;
        }
        // The receiver may sit on the previous line(s) of a method chain.
        let lo = idx.saturating_sub(2);
        let window: String = lines[lo..=idx]
            .iter()
            .map(|w| w.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        let family = LOCK_ORDER
            .iter()
            .enumerate()
            .find(|(_, (_, pat))| window.contains(pat));
        if let Some((rank, (name, _))) = family {
            if let Some((held_rank, held_name)) = watermark {
                if rank < held_rank {
                    hits.push(LintHit {
                        rule: "lock-order",
                        file: rel.to_string(),
                        line: idx + 1,
                        message: format!(
                            "acquires `{name}` after `{held_name}` — global order is \
                             registry-shard < span-ring < recorder-events"
                        ),
                    });
                }
            }
            if watermark.is_none_or(|(held_rank, _)| rank > held_rank) {
                watermark = Some((rank, name));
            }
        }
    }

    // Rule: no-debug-macros — development-only macros are banned outside
    // test regions (comments were already stripped by `preprocess`).
    for (idx, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let masked = mask_strings(&l.code);
        for mac in DEBUG_MACROS {
            // Require a non-identifier character before the match so
            // `my_dbg!` or a `dbg` path segment does not trip the rule;
            // string-literal contents are masked out above.
            let bang = format!("{mac}!");
            let found = masked.match_indices(&bang).any(|(pos, _)| {
                pos == 0
                    || !masked[..pos]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
            });
            if found {
                hits.push(LintHit {
                    rule: "no-debug-macros",
                    file: rel.to_string(),
                    line: idx + 1,
                    message: format!("`{bang}` outside a #[cfg(test)] region"),
                });
                break; // one hit per line is enough
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, src: &str) -> Vec<LintHit> {
        let mut hits = Vec::new();
        lint_file(rel, src, &mut hits);
        hits
    }

    #[test]
    fn missing_forbid_unsafe_is_flagged_on_crate_roots_only() {
        let hits = lint_str("crates/foo/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "forbid-unsafe");
        assert!(lint_str("crates/foo/src/other.rs", "pub fn f() {}\n").is_empty());
        assert!(lint_str(
            "crates/foo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
    }

    #[test]
    fn hot_path_unwrap_skips_tests_and_comments_but_catches_code() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // x.unwrap() in a comment is fine\n    \
                   x.unwrap()\n}\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) -> u8 \
                   {\n        x.unwrap()\n    }\n}\n";
        let hits = lint_str("crates/daemon/src/foo.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert!(lint_str("crates/adt/src/foo.rs", src).is_empty(), "scope");
    }

    #[test]
    fn expect_requires_a_literal_message_in_hot_paths() {
        let ok = "fn f() {\n    m.lock().expect(\"poisoned\");\n}\n";
        assert!(lint_str("crates/core/src/stream/foo.rs", ok).is_empty());
        let bad = "fn f() {\n    m.lock().expect(msg);\n}\n";
        let hits = lint_str("crates/core/src/stream/foo.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "hot-path-unwrap");
    }

    #[test]
    fn lock_order_flags_inversions_within_one_function() {
        let bad = "fn f(&self) {\n    let a = self.events.lock();\n    let b = \
                   self.shards[0].lock();\n}\n";
        let hits = lint_str("crates/obs/src/foo.rs", bad);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "lock-order");
        // The same pair in order, or split across functions, is fine.
        let ok = "fn f(&self) {\n    let a = self.shards[0].lock();\n    let b = \
                  self.events.lock();\n}\nfn g(&self) {\n    let a = self.events.lock();\n}\n\
                  fn h(&self) {\n    let b = self.shards[0].lock();\n}\n";
        assert!(lint_str("crates/obs/src/foo.rs", ok).is_empty());
    }

    #[test]
    fn debug_macros_are_banned_outside_test_regions() {
        let bad = "fn f(x: u8) -> u8 {\n    dbg!(x);\n    todo!()\n}\n";
        let hits = lint_str("crates/adt/src/foo.rs", bad);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == "no-debug-macros"));
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[1].line, 3);
        // Test regions and comments are exempt; lookalike identifiers and
        // other macros containing the name are not matches.
        let ok = "fn f() {\n    // a dbg!(x) in a comment\n    my_dbg!(1);\n    \
                  log(\"never todo!() here\");\n}\n\
                  #[cfg(test)]\nmod tests {\n    fn g() {\n        dbg!(1);\n        \
                  unimplemented!()\n    }\n}\n";
        assert!(lint_str("crates/adt/src/foo.rs", ok).is_empty());
        let unimpl = "fn f() {\n    unimplemented!(\"later\")\n}\n";
        let hits = lint_str("crates/core/src/foo.rs", unimpl);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("unimplemented!"));
    }

    #[test]
    fn the_workspace_itself_lints_clean() {
        // CARGO_MANIFEST_DIR = <root>/crates/analysis.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let hits = lint_workspace(root).expect("workspace readable");
        assert!(hits.is_empty(), "lint hits: {hits:#?}");
    }
}
