//! `cachegraph-tidy`: a dependency-free, rustc-`tidy`-style static
//! analysis pass over the whole workspace.
//!
//! The paper's results hinge on address arithmetic and hand-decomposed
//! unsafe concurrency; graph workloads are notoriously sensitive to
//! subtle indexing bugs that never crash but silently skew miss counts.
//! This pass enforces, at `cargo test` time, the source-level invariants
//! the simulator's numbers depend on:
//!
//! * [`rules::safety_comments`] — every `unsafe` block/fn/impl carries a
//!   `// SAFETY:` (or `/// # Safety`) justification;
//! * [`rules::panic_policy`] — no `unwrap()` / `expect()` / `panic!` in
//!   library crates outside `#[cfg(test)]` code;
//! * [`rules::error_policy`] — no `std::process::exit` / `abort` outside
//!   binary entry points; library failures surface as errors so the
//!   supervised runner can record them;
//! * [`rules::cast_soundness`] — no bare truncating `as` casts in the
//!   cache simulator's address/set-index arithmetic;
//! * [`rules::kernel_purity`] — files opted in via a `// tidy: kernel`
//!   marker must not allocate or take locks;
//! * [`rules::doc_coverage`] — every top-level `pub` item in the facade
//!   crate (`src/`) carries a `///` doc comment;
//! * [`rules::dependency_policy`] — workspace manifests carry no
//!   duplicate direct deps, wildcard versions, or off-allowlist deps.
//!
//! Any rule can be waived at a specific site with a comment on the same
//! or the preceding line:
//!
//! ```text
//! // tidy: allow(cast-soundness) -- set index fits u32 by config validation
//! let set = (addr >> shift) as u32;
//! ```
//!
//! Two more kernel-file rules, `kernel-bounds` (no slice subscript
//! driven by a range counter where an `iter().zip()` chain would elide
//! the bounds check) and `obs-purity` (no reference to the
//! observability layer), are judged over the parsed AST by
//! `cachegraph-analyze`'s `rules` module, which reads the same marker and
//! waivers.
//!
//! Run it with `cargo run -p cachegraph-tidy`; the root integration test
//! `tests/tidy.rs` runs the same pass, plus the two AST rules, under
//! `cargo test`, so tier-1 CI fails on any unwaived violation.

pub mod config;
pub mod lexer;
pub mod rules;
pub mod walk;

use std::fmt;
use std::path::{Path, PathBuf};

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier, e.g. `safety-comments`.
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.rule, self.message)
    }
}

/// A source file prepared for linting.
pub struct SourceFile {
    /// Path relative to the workspace root.
    pub rel_path: PathBuf,
    /// Raw contents.
    pub raw: String,
    /// Lexer output (masked code + comments).
    pub lexed: lexer::Lexed,
    /// Which crate the file belongs to (directory name under `crates/`,
    /// or `"cachegraph"` for the root `src/`).
    pub crate_name: String,
    /// True for code under any `tests/`, `benches/` or `examples/`
    /// directory, or `src/bin/` — panic policy does not apply there.
    pub is_test_or_harness: bool,
}

impl SourceFile {
    /// Build a [`SourceFile`] from contents (the workspace walker calls
    /// this; fixture tests call it directly with synthetic paths).
    pub fn new(rel_path: PathBuf, raw: String) -> Self {
        let lexed = lexer::lex(&raw);
        let crate_name = crate_of(&rel_path);
        let is_test_or_harness = rel_path.components().any(|c| {
            matches!(c.as_os_str().to_str(), Some("tests" | "benches" | "examples" | "bin"))
        });
        Self { rel_path, raw, lexed, crate_name, is_test_or_harness }
    }

    /// Is there a `// tidy: allow(<rule>)` waiver for `line` (same line or
    /// the line directly above)?
    pub fn waived(&self, rule: &str, line: usize) -> bool {
        let needle = format!("tidy: allow({rule})");
        self.lexed
            .comments
            .iter()
            .any(|c| (c.line == line || c.line + 1 == line) && c.text.contains(&needle))
    }

    /// Line content (masked) for a 1-based line number.
    pub fn masked_line(&self, line: usize) -> &str {
        self.lexed.masked.lines().nth(line - 1).unwrap_or("")
    }
}

/// Crate name for a workspace-relative path.
fn crate_of(rel: &Path) -> String {
    let mut comps = rel.components().filter_map(|c| c.as_os_str().to_str());
    match comps.next() {
        Some("crates") => comps.next().unwrap_or("unknown").to_string(),
        _ => "cachegraph".to_string(),
    }
}

/// Run every rule over the workspace rooted at `root`.
pub fn run_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let sources = walk::collect_sources(root)?;
    for sf in &sources {
        diags.extend(rules::safety_comments::check(sf));
        diags.extend(rules::panic_policy::check(sf));
        diags.extend(rules::error_policy::check(sf));
        diags.extend(rules::cast_soundness::check(sf));
        diags.extend(rules::kernel_purity::check(sf));
        diags.extend(rules::doc_coverage::check(sf));
    }
    diags.extend(rules::dependency_policy::check_workspace(root)?);
    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(diags)
}

/// Locate the workspace root: walk up from `start` until a directory
/// containing a `Cargo.toml` with a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
