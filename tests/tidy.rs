//! Tier-1 gate: the whole workspace must pass the `cachegraph-tidy`
//! static-analysis rules (safety comments, panic policy, cast soundness,
//! kernel purity, dependency policy), and every kernel-marked file must
//! parse under `cachegraph-analyze`'s subset grammar and pass its AST
//! rules (`kernel-bounds`, `obs-purity`). Run the binaries for the same
//! report on the command line: `cargo run -p cachegraph-tidy` and
//! `cargo run -p cachegraph-analyze`.

use std::path::Path;

#[test]
fn workspace_is_tidy_clean() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = cachegraph_tidy::find_workspace_root(manifest_dir)
        .expect("workspace root above CARGO_MANIFEST_DIR");
    let mut diags = cachegraph_tidy::run_workspace(&root).expect("lint pass must not hit I/O errors");
    let sources = cachegraph_tidy::walk::collect_sources(&root).expect("workspace walks");
    let kernels = cachegraph_analyze::rules::lint_kernel_files(&sources);
    assert!(!kernels.is_empty(), "no kernel-marked files found");
    for kf in kernels {
        if let Err(e) = &kf.parsed {
            panic!("{}: kernel-marked file outside the subset grammar: {e}", kf.source.rel_path.display());
        }
        diags.extend(kf.diags);
    }
    assert!(
        diags.is_empty(),
        "cachegraph-tidy found {} violation(s):\n{}",
        diags.len(),
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}
