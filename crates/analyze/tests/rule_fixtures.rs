//! The `kernel-bounds` and `obs-purity` rules on tidy's fixture
//! snippets: positive (violating) and negative (clean) files under
//! `crates/tidy/fixtures/`, judged by the AST rules in
//! [`cachegraph_analyze::rules`].

use std::path::PathBuf;

use cachegraph_analyze::{parse_file, rules};
use cachegraph_tidy::{Diagnostic, SourceFile};

/// A fixture presented as library code of the `graph` crate.
fn lib_file(src: &str) -> SourceFile {
    SourceFile::new(PathBuf::from("crates/graph/src/fixture.rs"), src.to_string())
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

fn parsed(sf: &SourceFile) -> cachegraph_analyze::ast::File {
    parse_file(&sf.raw).unwrap_or_else(|e| panic!("fixture must stay in the subset grammar: {e}"))
}

fn kernel_bounds(sf: &SourceFile) -> Vec<Diagnostic> {
    rules::kernel_bounds(sf, &parsed(sf))
}

fn obs_purity(sf: &SourceFile) -> Vec<Diagnostic> {
    rules::obs_purity(sf, &parsed(sf))
}

// ---- kernel-bounds ---------------------------------------------------

#[test]
fn bounds_flags_direct_counter_index() {
    let sf = lib_file(include_str!("../../tidy/fixtures/bounds_pos_index.rs"));
    let diags = kernel_bounds(&sf);
    // `c[j]`, `a[j]` in the compare, `a[j]` in the store: one per line.
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "kernel-bounds"));
    assert_eq!(diags[0].line, 4);
}

#[test]
fn bounds_flags_offset_counter_index() {
    let sf = lib_file(include_str!("../../tidy/fixtures/bounds_pos_offset.rs"));
    let diags = kernel_bounds(&sf);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags[0].message.contains("c_row + j"), "{}", diags[0].message);
}

#[test]
fn bounds_accepts_zip_style_loop() {
    let sf = lib_file(include_str!("../../tidy/fixtures/bounds_neg_zip.rs"));
    assert!(kernel_bounds(&sf).is_empty());
}

#[test]
fn bounds_ignores_unmarked_files() {
    let sf = lib_file(include_str!("../../tidy/fixtures/bounds_neg_unmarked.rs"));
    assert!(kernel_bounds(&sf).is_empty());
}

#[test]
fn bounds_honors_waiver() {
    let sf = lib_file(include_str!("../../tidy/fixtures/bounds_neg_waiver.rs"));
    assert!(kernel_bounds(&sf).is_empty());
}

#[test]
fn bounds_skips_method_and_range_indices() {
    let sf = lib_file(include_str!("../../tidy/fixtures/bounds_neg_method.rs"));
    assert!(kernel_bounds(&sf).is_empty());
}

#[test]
fn bounds_ignores_cfg_test_loops() {
    let sf = lib_file(include_str!("../../tidy/fixtures/bounds_neg_cfg_test.rs"));
    assert!(kernel_bounds(&sf).is_empty());
}

// ---- obs-purity ------------------------------------------------------

#[test]
fn obs_flags_use_in_marked_file() {
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_pos_use.rs"));
    let diags = obs_purity(&sf);
    // The `use cachegraph_obs::...` import is the single code reference.
    assert_eq!(rules_of(&diags), ["obs-purity"]);
    assert_eq!(diags[0].line, 3);
}

#[test]
fn obs_flags_qualified_path_in_marked_file() {
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_pos_path.rs"));
    assert_eq!(obs_purity(&sf).len(), 1);
}

#[test]
fn obs_accepts_doc_mentions_in_marked_file() {
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_neg_clean.rs"));
    assert!(obs_purity(&sf).is_empty());
}

#[test]
fn obs_ignores_unmarked_files() {
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_neg_unmarked.rs"));
    assert!(obs_purity(&sf).is_empty());
}

#[test]
fn obs_ignores_cfg_test_references() {
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_neg_test_use.rs"));
    assert!(obs_purity(&sf).is_empty());
}

#[test]
fn obs_waiver_suppresses_report() {
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_neg_waiver.rs"));
    assert!(obs_purity(&sf).is_empty());
}

#[test]
fn obs_flags_registry_reference_inside_event_callback() {
    // A hook closure is still kernel code: reporting into
    // cachegraph_obs from inside it must be flagged.
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_pos_event_hook.rs"));
    let diags = obs_purity(&sf);
    assert_eq!(rules_of(&diags), ["obs-purity"]);
}

#[test]
fn obs_flags_registry_reference_inside_cancel_closure() {
    // A cancellation closure is still kernel code: polling a registry
    // counter from inside it must be flagged.
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_pos_cancel.rs"));
    let diags = obs_purity(&sf);
    assert_eq!(rules_of(&diags), ["obs-purity"]);
    assert_eq!(diags[0].line, 7, "the qualified path inside the function body");
}

#[test]
fn obs_accepts_generic_cancel_hook_pattern() {
    // The cancellation style the solvers' `_cancellable` variants use:
    // kernel code polls a plain `FnMut() -> bool` and never names
    // cachegraph_obs; the deadline lives with the caller.
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_neg_cancel.rs"));
    assert!(obs_purity(&sf).is_empty());
}

#[test]
fn obs_flags_trace_builder_reference_in_kernel() {
    // Request tracing is a serving-layer concern: a kernel that names
    // the cachegraph_obs trace builder to stamp its own segments must
    // be flagged.
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_pos_trace.rs"));
    let diags = obs_purity(&sf);
    assert_eq!(rules_of(&diags), ["obs-purity"]);
    assert_eq!(diags[0].line, 8, "the qualified path inside the function body");
}

#[test]
fn obs_accepts_generic_boundary_hook_for_tracing() {
    // The handoff style the serve layer's trace marks ride on: kernel
    // code reports phase boundaries through a plain FnMut and never
    // names cachegraph_obs, so the marked file stays clean.
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_neg_trace.rs"));
    assert!(obs_purity(&sf).is_empty());
}

#[test]
fn obs_accepts_generic_event_hook_pattern() {
    // The event-callback style the hierarchy's profiler hooks use:
    // kernel code emits plain enum events through a generic FnMut and
    // never references cachegraph_obs, so the marked file stays clean.
    let sf = lib_file(include_str!("../../tidy/fixtures/obs_neg_event_hook.rs"));
    assert!(obs_purity(&sf).is_empty());
}
