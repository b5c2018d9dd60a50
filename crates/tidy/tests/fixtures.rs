//! Self-tests for the lint engine: each rule runs against positive
//! (violating) and negative (clean) fixture snippets under `fixtures/`,
//! which the workspace walker deliberately skips.

use std::path::{Path, PathBuf};

use cachegraph_tidy::rules;
use cachegraph_tidy::{Diagnostic, SourceFile};

/// A fixture presented as library code of the `graph` crate (subject to
/// every source rule).
fn lib_file(src: &str) -> SourceFile {
    SourceFile::new(PathBuf::from("crates/graph/src/fixture.rs"), src.to_string())
}

/// A fixture presented as library code of the `cache-sim` crate (the only
/// crate the cast rule watches).
fn sim_file(src: &str) -> SourceFile {
    SourceFile::new(PathBuf::from("crates/cache-sim/src/fixture.rs"), src.to_string())
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---- safety-comments -------------------------------------------------

#[test]
fn safety_flags_uncommented_unsafe_block() {
    let sf = lib_file(include_str!("../fixtures/safety_pos_block.rs"));
    let diags = rules::safety_comments::check(&sf);
    assert_eq!(rules_of(&diags), ["safety-comments"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn safety_flags_uncommented_unsafe_impl() {
    let sf = lib_file(include_str!("../fixtures/safety_pos_impl.rs"));
    assert_eq!(rules::safety_comments::check(&sf).len(), 1);
}

#[test]
fn safety_accepts_comment_above() {
    let sf = lib_file(include_str!("../fixtures/safety_neg_comment.rs"));
    assert!(rules::safety_comments::check(&sf).is_empty());
}

#[test]
fn safety_ignores_unsafe_inside_string_literal() {
    let sf = lib_file(include_str!("../fixtures/safety_neg_string.rs"));
    assert!(rules::safety_comments::check(&sf).is_empty());
}

#[test]
fn safety_accepts_doc_safety_section() {
    let sf = lib_file(include_str!("../fixtures/safety_neg_doc.rs"));
    assert!(rules::safety_comments::check(&sf).is_empty());
}

#[test]
fn safety_honors_waiver() {
    let sf = lib_file(include_str!("../fixtures/safety_neg_waiver.rs"));
    assert!(rules::safety_comments::check(&sf).is_empty());
}

// ---- panic-policy ----------------------------------------------------

#[test]
fn panic_flags_unwrap_in_library_code() {
    let sf = lib_file(include_str!("../fixtures/panic_pos_unwrap.rs"));
    let diags = rules::panic_policy::check(&sf);
    assert_eq!(rules_of(&diags), ["panic-policy"]);
}

#[test]
fn panic_flags_panic_macro() {
    let sf = lib_file(include_str!("../fixtures/panic_pos_panic.rs"));
    assert_eq!(rules::panic_policy::check(&sf).len(), 1);
}

#[test]
fn panic_ignores_unwrap_under_cfg_test() {
    let sf = lib_file(include_str!("../fixtures/panic_neg_cfg_test.rs"));
    assert!(rules::panic_policy::check(&sf).is_empty());
}

#[test]
fn panic_honors_waiver() {
    let sf = lib_file(include_str!("../fixtures/panic_neg_waiver.rs"));
    assert!(rules::panic_policy::check(&sf).is_empty());
}

#[test]
fn panic_exempts_bench_crate_and_test_harness_paths() {
    let src = include_str!("../fixtures/panic_pos_unwrap.rs");
    let bench = SourceFile::new(PathBuf::from("crates/bench/src/fixture.rs"), src.to_string());
    assert!(rules::panic_policy::check(&bench).is_empty());
    let test = SourceFile::new(PathBuf::from("crates/graph/tests/fixture.rs"), src.to_string());
    assert!(rules::panic_policy::check(&test).is_empty());
}

// ---- error-policy ----------------------------------------------------

#[test]
fn error_policy_flags_process_exit() {
    let sf = lib_file(include_str!("../fixtures/error_pos_exit.rs"));
    let diags = rules::error_policy::check(&sf);
    assert_eq!(rules_of(&diags), ["error-policy"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn error_policy_flags_process_abort() {
    let sf = lib_file(include_str!("../fixtures/error_pos_abort.rs"));
    assert_eq!(rules::error_policy::check(&sf).len(), 1);
}

#[test]
fn error_policy_applies_to_bench_and_cli_library_code() {
    // Unlike panic-policy, the bench/cli *library* halves are not
    // exempt — only their binary entry points are.
    let src = include_str!("../fixtures/error_pos_exit.rs");
    let bench = SourceFile::new(PathBuf::from("crates/bench/src/fixture.rs"), src.to_string());
    assert_eq!(rules::error_policy::check(&bench).len(), 1);
    let cli = SourceFile::new(PathBuf::from("crates/cli/src/fixture.rs"), src.to_string());
    assert_eq!(rules::error_policy::check(&cli).len(), 1);
}

#[test]
fn error_policy_exempts_bin_entry_points() {
    let src = include_str!("../fixtures/error_pos_exit.rs");
    let bin = SourceFile::new(PathBuf::from("crates/cli/src/bin/fixture.rs"), src.to_string());
    assert!(rules::error_policy::check(&bin).is_empty());
    let main = SourceFile::new(PathBuf::from("crates/tidy/src/main.rs"), src.to_string());
    assert!(rules::error_policy::check(&main).is_empty());
}

#[test]
fn error_policy_honors_waiver() {
    let sf = lib_file(include_str!("../fixtures/error_neg_waiver.rs"));
    assert!(rules::error_policy::check(&sf).is_empty());
}

#[test]
fn error_policy_ignores_comments_and_error_returns() {
    let sf = lib_file(include_str!("../fixtures/error_neg_clean.rs"));
    assert!(rules::error_policy::check(&sf).is_empty());
}

// ---- cast-soundness --------------------------------------------------

#[test]
fn cast_flags_truncating_u32() {
    let sf = sim_file(include_str!("../fixtures/cast_pos_u32.rs"));
    let diags = rules::cast_soundness::check(&sf);
    assert_eq!(rules_of(&diags), ["cast-soundness"]);
}

#[test]
fn cast_flags_truncating_i8() {
    let sf = sim_file(include_str!("../fixtures/cast_pos_i8.rs"));
    assert_eq!(rules::cast_soundness::check(&sf).len(), 1);
}

#[test]
fn cast_accepts_try_from() {
    let sf = sim_file(include_str!("../fixtures/cast_neg_tryfrom.rs"));
    assert!(rules::cast_soundness::check(&sf).is_empty());
}

#[test]
fn cast_honors_waiver() {
    let sf = sim_file(include_str!("../fixtures/cast_neg_waiver.rs"));
    assert!(rules::cast_soundness::check(&sf).is_empty());
}

#[test]
fn cast_only_applies_to_configured_crates() {
    // The same truncation outside cache-sim is not this rule's business.
    let sf = lib_file(include_str!("../fixtures/cast_pos_u32.rs"));
    assert!(rules::cast_soundness::check(&sf).is_empty());
}

// ---- kernel-purity ---------------------------------------------------

#[test]
fn kernel_flags_allocation_in_marked_file() {
    let sf = lib_file(include_str!("../fixtures/kernel_pos_alloc.rs"));
    let diags = rules::kernel_purity::check(&sf);
    // `Vec::new` and `.push(` are two separate violations.
    assert_eq!(diags.len(), 2);
    assert!(diags.iter().all(|d| d.rule == "kernel-purity"));
}

#[test]
fn kernel_flags_lock_in_marked_file() {
    let sf = lib_file(include_str!("../fixtures/kernel_pos_lock.rs"));
    // `Mutex` in the signature and `.lock(` in the body.
    assert_eq!(rules::kernel_purity::check(&sf).len(), 2);
}

#[test]
fn kernel_accepts_pure_marked_file() {
    let sf = lib_file(include_str!("../fixtures/kernel_neg_clean.rs"));
    assert!(rules::kernel_purity::check(&sf).is_empty());
}

#[test]
fn kernel_ignores_unmarked_files() {
    let sf = lib_file(include_str!("../fixtures/kernel_neg_unmarked.rs"));
    assert!(rules::kernel_purity::check(&sf).is_empty());
}

#[test]
fn kernel_ignores_cfg_test_allocations() {
    let sf = lib_file(include_str!("../fixtures/kernel_neg_test_alloc.rs"));
    assert!(rules::kernel_purity::check(&sf).is_empty());
}

// ---- doc-coverage ----------------------------------------------------

/// A fixture presented as facade-crate code (`src/`, crate `cachegraph`
/// — the only scope the doc-coverage rule watches).
fn facade_file(src: &str) -> SourceFile {
    SourceFile::new(PathBuf::from("src/fixture.rs"), src.to_string())
}

#[test]
fn doc_flags_undocumented_pub_item_in_facade() {
    let sf = facade_file(include_str!("../fixtures/doc_pos_bare.rs"));
    let diags = rules::doc_coverage::check(&sf);
    assert_eq!(rules_of(&diags), ["doc-coverage"]);
    assert_eq!(diags[0].line, 1);
}

#[test]
fn doc_attribute_lines_do_not_count_as_docs() {
    let sf = facade_file(include_str!("../fixtures/doc_pos_attr.rs"));
    let diags = rules::doc_coverage::check(&sf);
    assert_eq!(rules_of(&diags), ["doc-coverage"]);
    assert_eq!(diags[0].line, 2, "the pub line is flagged, not the attribute");
}

#[test]
fn doc_accepts_doc_comment_directly_above() {
    let sf = facade_file(include_str!("../fixtures/doc_neg_doc.rs"));
    assert!(rules::doc_coverage::check(&sf).is_empty());
}

#[test]
fn doc_accepts_doc_comment_above_attributes() {
    let sf = facade_file(include_str!("../fixtures/doc_neg_attr.rs"));
    assert!(rules::doc_coverage::check(&sf).is_empty());
}

#[test]
fn doc_honors_waiver() {
    let sf = facade_file(include_str!("../fixtures/doc_neg_waiver.rs"));
    assert!(rules::doc_coverage::check(&sf).is_empty());
}

#[test]
fn doc_ignores_nested_items_and_other_crates() {
    let sf = facade_file(include_str!("../fixtures/doc_neg_nested.rs"));
    assert!(rules::doc_coverage::check(&sf).is_empty(), "indented items are not top-level");
    let other = lib_file(include_str!("../fixtures/doc_pos_bare.rs"));
    assert!(rules::doc_coverage::check(&other).is_empty(), "rule is facade-only");
}

// ---- dependency-policy -----------------------------------------------

#[test]
fn dependency_flags_wildcard_duplicate_and_off_allowlist() {
    let rel = Path::new("crates/fixture/Cargo.toml");
    let diags =
        rules::dependency_policy::check_manifest(rel, include_str!("../fixtures/dep_pos.toml"));
    // duplicate cachegraph-graph; serde wildcard + off-allowlist; left-pad
    // off-allowlist.
    assert_eq!(diags.len(), 4);
    let messages: String = diags.iter().map(|d| format!("{d}\n")).collect();
    assert!(messages.contains("duplicate dependency `cachegraph-graph`"), "{messages}");
    assert!(messages.contains("wildcard version for `serde`"), "{messages}");
    assert!(messages.contains("`left-pad` is not on the dependency allowlist"), "{messages}");
}

#[test]
fn dependency_accepts_clean_manifest() {
    let rel = Path::new("crates/fixture/Cargo.toml");
    let diags =
        rules::dependency_policy::check_manifest(rel, include_str!("../fixtures/dep_neg.toml"));
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- walker ----------------------------------------------------------

#[test]
fn walker_skips_fixture_directories() {
    let root = cachegraph_tidy::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let sources = cachegraph_tidy::walk::collect_sources(&root).expect("walk workspace");
    assert!(sources.iter().all(|sf| {
        sf.rel_path.components().all(|c| c.as_os_str() != "fixtures")
    }));
    // Sanity: the walker does see real code.
    assert!(sources.iter().any(|sf| sf.rel_path.ends_with("crates/fw/src/kernel.rs")));
}
