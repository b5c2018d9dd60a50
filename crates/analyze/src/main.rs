//! Static-analysis driver: `cargo run -p cachegraph-analyze`.
//!
//! Runs the full pre-execution pass over the workspace:
//!
//! 1. **Golden parse** — every kernel-marked file (`// tidy: kernel`)
//!    must parse under the subset grammar; drift fails loudly naming
//!    the unsupported construct and line.
//! 2. **AST lint rules** — `kernel-bounds` and `obs-purity` re-checked
//!    structurally over the parsed trees.
//! 3. **Footprint conformance** — the FWI kernel's statically inferred
//!    access footprint is instantiated over every task of every phase
//!    of an `(n, b)` plan sweep and proven `⊆` the plan's declared
//!    footprint, then per-phase disjointness is re-proven from the
//!    inferred footprints alone.
//! 4. **Mutation sensitivity** — a fixture kernel with a seeded
//!    off-by-one subscript must be *detected*, and a faithful fixture
//!    copy must pass, or the checker itself is broken.
//!
//! `--sweep` widens step 3 to the full `n <= 20`, `b <= 6` grid (120
//! configurations — what CI runs in release). Exit codes: 0 clean,
//! 1 violation (or an insensitive checker), 2 usage error.

use std::process::ExitCode;

use cachegraph_analyze::conform::{check_kernel_conformance, sweep_kernel_conformance};
use cachegraph_analyze::{rules, summarize_kernel_source};
use cachegraph_tidy::{find_workspace_root, walk};

/// Full-sweep ceiling (`--sweep`), matching `cachegraph-check`.
const SWEEP_N: usize = 20;
const SWEEP_B: usize = 6;
/// Default spot-sweep ceiling (fast enough for a debug run).
const SPOT_N: usize = 10;
const SPOT_B: usize = 4;

/// Fixture with the exact loop shape of the real FWI kernel.
const CLEAN_FIXTURE: &str = include_str!("../fixtures/clean_kernel.rs");
/// The same fixture with a seeded off-by-one in the written subscript.
const MUTATED_FIXTURE: &str = include_str!("../fixtures/mutated_kernel.rs");

struct Args {
    sweep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { sweep: false };
    for flag in std::env::args().skip(1) {
        match flag.as_str() {
            "--sweep" => args.sweep = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("cachegraph-analyze: {msg}");
            }
            eprintln!("usage: cachegraph-analyze [--sweep]");
            return ExitCode::from(2);
        }
    };
    let cwd = std::env::current_dir().unwrap_or_default();
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!("cachegraph-analyze: no workspace root found above {}", cwd.display());
        return ExitCode::from(2);
    };
    let sources = match walk::collect_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cachegraph-analyze: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let mut failed = false;

    // 1 + 2. Golden parse and AST rules over every kernel-marked file.
    let mut kernels = Vec::new();
    let marked = rules::lint_kernel_files(&sources);
    for kf in &marked {
        let sf = kf.source;
        let file = match &kf.parsed {
            Ok(f) => f,
            Err(e) => {
                failed = true;
                println!("parse: {}: FAILED: {e}", sf.rel_path.display());
                continue;
            }
        };
        println!("parse: {}: ok ({} fns)", sf.rel_path.display(), file.functions().len());
        for d in &kf.diags {
            failed = true;
            println!("rule: {d}");
        }
        if let Ok(summary) = summarize_kernel_source(&sf.raw) {
            kernels.push((sf.rel_path.clone(), summary));
        }
    }
    if marked.is_empty() {
        failed = true;
        println!("parse: no kernel-marked files found under {}", root.display());
    }

    // 3. Footprint inference + plan conformance sweep.
    match kernels.as_slice() {
        [(path, summary)] => {
            let (max_n, max_b) = if args.sweep { (SWEEP_N, SWEEP_B) } else { (SPOT_N, SPOT_B) };
            for note in &summary.notes {
                println!("infer: {}: note: {note}", path.display());
            }
            let sweep = sweep_kernel_conformance(summary, max_n, max_b);
            if sweep.errors.is_empty() {
                println!(
                    "conform: {}: {} access sites over {} configs ({} tasks): \
                     inferred within declared, phases disjoint",
                    path.display(),
                    summary.accesses.len(),
                    sweep.configs,
                    sweep.tasks,
                );
            } else {
                failed = true;
                println!(
                    "conform: {}: {} VIOLATIONS over {} configs",
                    path.display(),
                    sweep.errors.len(),
                    sweep.configs
                );
                for e in sweep.errors.iter().take(5) {
                    println!("  {e}");
                }
            }
        }
        [] => {
            failed = true;
            println!("conform: no `fwi_block` kernel found to analyze");
        }
        many => {
            failed = true;
            println!(
                "conform: {} kernel files define `fwi_block`; expected exactly one",
                many.len()
            );
        }
    }

    // 4. Sensitivity: the clean fixture must pass, the mutated one must
    //    be detected.
    match summarize_kernel_source(CLEAN_FIXTURE) {
        Ok(s) => {
            let report = check_kernel_conformance(&s, 8, 4);
            if let Some(e) = report.errors.first() {
                failed = true;
                println!("fixture: clean kernel reported as violating: {e}");
            } else {
                println!("fixture: clean kernel copy conforms on (n=8, b=4)");
            }
        }
        Err(e) => {
            failed = true;
            println!("fixture: clean kernel did not summarize: {e}");
        }
    }
    match summarize_kernel_source(MUTATED_FIXTURE) {
        Ok(s) => {
            let report = check_kernel_conformance(&s, 8, 4);
            if let Some(e) = report.errors.first() {
                println!("mutation: off-by-one subscript seeded: detected ({e})");
            } else {
                failed = true;
                println!("mutation: off-by-one subscript NOT detected — the checker is insensitive");
            }
        }
        Err(e) => {
            failed = true;
            println!("mutation: fixture did not summarize: {e}");
        }
    }

    if failed {
        println!("cachegraph-analyze: FAILED");
        ExitCode::FAILURE
    } else {
        println!("cachegraph-analyze: all checks passed");
        ExitCode::SUCCESS
    }
}
