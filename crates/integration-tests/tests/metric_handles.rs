//! Lint: per-event metric updates go through handles resolved once.
//!
//! `MetricsRegistry::counter`/`histogram`/`gauge` take the registry
//! lock and look the name up on every call, so a hot path that chains
//! one straight into `.incr()`, `.add()`, `.set()` or `.record*()` pays
//! a mutex and a string lookup per event. Resolve the handle once
//! instead, in a `static OnceLock<Arc<…>>` and its `get_or_init`
//! closure (the `clamp_levels` idiom in `didt-dsp`).
//!
//! The check reads the non-test source of the crates on the per-event
//! paths with all whitespace removed, so a call split across lines by
//! rustfmt is caught too.

use std::fs;
use std::path::{Path, PathBuf};

const CRATES: [&str; 6] = ["dsp", "core", "uarch", "trace", "serve", "bench"];
const LOOKUPS: [&str; 3] = [".counter(", ".histogram(", ".gauge("];
const UPDATES: [&str; 4] = [".incr(", ".add(", ".set(", ".record"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Index one past the `)` closing the `(` at `open`, skipping string
/// literals; `None` when unbalanced.
fn close_paren(s: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < s.len() {
        match s[i] {
            b'"' => {
                i += 1;
                while i < s.len() && s[i] != b'"' {
                    i += if s[i] == b'\\' { 2 } else { 1 };
                }
            }
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// `src` with line comments and every `#[cfg(test)]` item (a `mod`
/// block or a single item) removed.
fn non_test_source(src: &str) -> String {
    let code: String = src
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let mut out = String::new();
    let mut rest = code.as_str();
    while let Some(at) = rest.find("#[cfg(test)]") {
        out.push_str(&rest[..at]);
        let item = &rest[at..];
        // The item ends at its block's closing brace, or at `;` for a
        // block-less item (`use`, `const`), whichever comes first.
        let brace = item.find('{');
        let semi = item.find(';');
        let end = match (brace, semi) {
            (Some(b), Some(s)) if s < b => s + 1,
            (Some(b), _) => {
                let mut depth = 0usize;
                let mut end = item.len();
                for (i, c) in item[b..].char_indices() {
                    match c {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                end = b + i + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                end
            }
            (None, Some(s)) => s + 1,
            (None, None) => item.len(),
        };
        rest = &item[end..];
    }
    out.push_str(rest);
    out
}

/// Every lookup chained straight into an update, outside any
/// `get_or_init` closure, as `file: snippet`.
fn violations(file: &Path, src: &str) -> Vec<String> {
    let flat: String = non_test_source(src)
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    let s = flat.as_bytes();
    let mut found = Vec::new();
    for lookup in LOOKUPS {
        let mut from = 0;
        while let Some(pos) = flat[from..].find(lookup).map(|p| p + from) {
            from = pos + 1;
            let Some(end) = close_paren(s, pos + lookup.len() - 1) else {
                continue;
            };
            if !UPDATES.iter().any(|u| flat[end..].starts_with(u)) {
                continue;
            }
            // Inside `get_or_init(...)` when one opens before `pos` and
            // closes after it.
            let in_init = flat[..pos]
                .match_indices("get_or_init(")
                .any(|(at, m)| close_paren(s, at + m.len() - 1).is_some_and(|close| close > pos));
            if !in_init {
                let snippet = &flat[pos..(end + 8).min(flat.len())];
                found.push(format!("{}: {snippet}", file.display()));
            }
        }
    }
    found
}

#[test]
fn metric_updates_use_handles_resolved_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in CRATES {
        rust_files(&root.join(krate).join("src"), &mut files);
    }
    assert!(files.len() > 20, "found only {} source files", files.len());
    let found: Vec<String> = files
        .iter()
        .flat_map(|f| violations(f, &fs::read_to_string(f).expect("read source")))
        .collect();
    assert!(
        found.is_empty(),
        "registry lookups chained into a per-event update; resolve the \
         handle once in a `static OnceLock<Arc<_>>`:\n{}",
        found.join("\n")
    );
}

#[test]
fn lint_flags_a_chained_lookup_and_spares_the_idiom() {
    let path = Path::new("example.rs");
    let bad =
        "fn f() {\n    MetricsRegistry::global()\n        .counter(\"a.b\")\n        .incr();\n}\n";
    assert_eq!(violations(path, bad).len(), 1);
    let histogram = "fn f(m: &R) { m.histogram(&format!(\"x{}\", 1)).record_duration(d); }";
    assert_eq!(violations(path, histogram).len(), 1);
    let good = "fn f() {\n    static C: OnceLock<Arc<Counter>> = OnceLock::new();\n    \
                C.get_or_init(|| MetricsRegistry::global().counter(\"a.b\"))\n        .incr();\n}\n";
    assert!(violations(path, good).is_empty());
    let read_only = "fn f() -> u64 { MetricsRegistry::global().counter(\"a.b\").get() }";
    assert!(violations(path, read_only).is_empty());
    let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { g().counter(\"a\").incr(); }\n}\n";
    assert!(violations(path, test_only).is_empty());
}
