//! Doc-rot check: every repository path the top-level documents name
//! under `examples/`, `tests/` or `crates/` must exist.

use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const ROOTS: [&str; 3] = ["examples/", "tests/", "crates/"];

fn path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/')
}

/// Paths in `text` that start with one of [`ROOTS`] at a word boundary
/// (so `perfbench/tests/x.rs` is not read as `tests/x.rs`). A trailing
/// sentence period is dropped.
fn named_paths(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (i, _) in text.char_indices() {
        let rest = &text[i..];
        if !ROOTS.iter().any(|r| rest.starts_with(r)) {
            continue;
        }
        if text[..i].chars().next_back().is_some_and(path_char) {
            continue;
        }
        let end = rest.find(|c: char| !path_char(c)).unwrap_or(rest.len());
        out.push(rest[..end].trim_end_matches('.'));
    }
    out
}

#[test]
fn scanner_finds_rooted_paths_only() {
    let text = "see `examples/quicksort.rs`, crates/darray/tests/ and \
                perfbench/tests/oracle.rs or tests/doc_paths.rs.";
    assert_eq!(
        named_paths(text),
        ["examples/quicksort.rs", "crates/darray/tests/", "tests/doc_paths.rs"]
    );
}

#[test]
fn documented_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        for p in named_paths(&text) {
            checked += 1;
            if !root.join(p).exists() {
                missing.push(format!("{doc}: {p}"));
            }
        }
    }
    assert!(checked >= 10, "only {checked} paths found; is the scanner broken?");
    assert!(missing.is_empty(), "documents name paths that do not exist:\n{}", missing.join("\n"));
}
