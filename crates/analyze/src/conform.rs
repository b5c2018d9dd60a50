//! Plan conformance: prove the *inferred* kernel footprint is covered
//! by the *declared* plan footprint, for every task of every phase,
//! across an `(n, b)` sweep — then re-prove phase disjointness from the
//! inferred footprints alone.
//!
//! The chain of custody this closes: [`cachegraph_fw::plan::Planner`]
//! declares per-task footprints (`write_rows`/`read_rows`), the
//! `cachegraph-check` oracle proves those declared footprints disjoint,
//! and the dynamic recording test proves one execution stayed inside
//! them. What was missing is that the kernel *source* — under any
//! input, not just the executions we happened to record — stays inside
//! the declared ranges. [`check_kernel_conformance`] instantiates the
//! statically inferred access polynomials over each concrete task's
//! views and checks `inferred ⊆ declared`; because the inference
//! over-approximates (both `if` branches, no guard pruning), this
//! subset proves every real execution conforms. The inferred footprints
//! are then fed through the oracle's own set arithmetic
//! ([`cachegraph_plan::phase_overlaps`]), re-proving the driver's
//! disjointness claims with the plan's declarations out of the trusted
//! base entirely.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cachegraph_fw::plan::{Planner, TileTask};
use cachegraph_layout::BlockLayout;
use cachegraph_plan::phase_overlaps;

use crate::footprint::{summarize_fn, FnSummary};
use crate::parse::parse_file;

/// One conformance failure.
#[derive(Clone, Debug)]
pub struct ConformanceError {
    /// Logical matrix dimension (0 for shape errors independent of a
    /// configuration).
    pub n: usize,
    /// Tile size.
    pub b: usize,
    /// Block iteration.
    pub t: usize,
    /// `"phase1"` / `"phase2"` / `"phase3"`, or `"kernel"` for errors in
    /// the kernel summary itself.
    pub phase: &'static str,
    /// Index of the offending task within its phase, if applicable.
    pub task: Option<usize>,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} b={} t={} {}", self.n, self.b, self.t, self.phase)?;
        if let Some(i) = self.task {
            write!(f, " task {i}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

fn kernel_err(detail: String) -> ConformanceError {
    ConformanceError { n: 0, b: 0, t: 0, phase: "kernel", task: None, detail }
}

/// Parse kernel source and summarize its `fwi_block`.
///
/// A kernel file may define `fwi_block` more than once (the traced
/// trait default and a slice-based override); the analysis target is
/// the one that routes cell traffic through `self.read`/`self.write` —
/// i.e. the unique summary with access sites.
pub fn summarize_kernel_source(src: &str) -> Result<FnSummary, ConformanceError> {
    let file = parse_file(src).map_err(|e| kernel_err(format!("parse error: {e}")))?;
    let mut candidates: Vec<FnSummary> = file
        .functions()
        .into_iter()
        .filter(|f| f.name == "fwi_block" && !f.cfg_test)
        .map(summarize_fn)
        .filter(|s| !s.accesses.is_empty() || !s.unresolved.is_empty())
        .collect();
    match candidates.len() {
        0 => Err(kernel_err(
            "no `fwi_block` with `self.read`/`self.write` access sites found".to_string(),
        )),
        1 => Ok(candidates.remove(0)),
        k => Err(kernel_err(format!(
            "{k} `fwi_block` definitions with access sites; cannot pick the analysis target"
        ))),
    }
}

/// Outcome of one `(n, b)` conformance check.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// Tasks whose footprints were instantiated and checked.
    pub tasks: usize,
    /// Every failure found (empty = conformance proven).
    pub errors: Vec<ConformanceError>,
}

/// Outcome of a full sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// `(n, b)` configurations checked.
    pub configs: usize,
    /// Tasks checked across all configurations.
    pub tasks: usize,
    /// Every failure found (empty = conformance proven for the sweep).
    pub errors: Vec<ConformanceError>,
}

/// Symbol bindings for one concrete task: each `View` parameter's
/// `offset`/`stride` from the corresponding [`TileTask`] operand (in
/// declaration order: written tile, then the two read operands), and
/// the integer size parameter bound to the tile size.
fn task_syms(
    summary: &FnSummary,
    task: &TileTask,
    b: usize,
) -> Result<BTreeMap<String, i64>, String> {
    if summary.view_params.len() != 3 {
        return Err(format!(
            "expected 3 `View` parameters (a, b, c), found {:?}",
            summary.view_params
        ));
    }
    if summary.int_params.len() != 1 {
        return Err(format!(
            "expected 1 `usize` parameter (size), found {:?}",
            summary.int_params
        ));
    }
    let mut syms = BTreeMap::new();
    for (p, v) in summary.view_params.iter().zip([task.a, task.b, task.c]) {
        let off = i64::try_from(v.offset).map_err(|_| format!("view offset {} overflows", v.offset))?;
        let st = i64::try_from(v.stride).map_err(|_| format!("view stride {} overflows", v.stride))?;
        syms.insert(format!("{p}.offset"), off);
        syms.insert(format!("{p}.stride"), st);
    }
    for p in &summary.int_params {
        syms.insert(p.clone(), i64::try_from(b).map_err(|_| "tile size overflows".to_string())?);
    }
    Ok(syms)
}

/// Instantiate and check one task; returns the inferred `(reads,
/// writes)` for the phase-level disjointness re-proof.
#[allow(clippy::too_many_arguments)]
fn check_task(
    summary: &FnSummary,
    task: &TileTask,
    n: usize,
    b: usize,
    t: usize,
    phase: &'static str,
    idx: usize,
    errors: &mut Vec<ConformanceError>,
) -> (BTreeSet<usize>, BTreeSet<usize>) {
    let mut fail = |detail: String| {
        errors.push(ConformanceError { n, b, t, phase, task: Some(idx), detail });
    };
    let syms = match task_syms(summary, task, b) {
        Ok(s) => s,
        Err(e) => {
            fail(e);
            return Default::default();
        }
    };
    let (reads, writes) = match summary.instantiate(&syms) {
        Ok(fp) => fp,
        Err(e) => {
            fail(format!("line {}: {}", e.line, e.msg));
            return Default::default();
        }
    };
    let declared_w: BTreeSet<usize> = task.write_rows(b).flatten().collect();
    let declared_r: BTreeSet<usize> = task.read_rows(b).flatten().collect();
    if let Some(&cell) = writes.difference(&declared_w).next() {
        fail(format!(
            "kernel may write cell {cell}, outside the declared write footprint \
             (inferred {} writes, declared {})",
            writes.len(),
            declared_w.len()
        ));
    }
    if let Some(&cell) = reads.difference(&declared_r).next() {
        fail(format!(
            "kernel may read cell {cell}, outside the declared read footprint \
             (inferred {} reads, declared {})",
            reads.len(),
            declared_r.len()
        ));
    }
    (reads, writes)
}

/// Prove `inferred ⊆ declared` for every task of every phase of one
/// `(n, b)` tiling, and re-prove per-phase disjointness from the
/// inferred footprints. Stops after the first block iteration that
/// produces errors (one witness per configuration is enough).
pub fn check_kernel_conformance(summary: &FnSummary, n: usize, b: usize) -> ConformanceReport {
    let mut errors = Vec::new();
    if let Some((line, msg)) = summary.unresolved.first() {
        errors.push(kernel_err(format!("line {line}: unresolved access site: {msg}")));
        return ConformanceReport { tasks: 0, errors };
    }
    if summary.accesses.is_empty() {
        errors.push(kernel_err(
            "kernel summary has no access sites; conformance would be vacuous".to_string(),
        ));
        return ConformanceReport { tasks: 0, errors };
    }
    let layout = BlockLayout::new(n, b);
    let planner = Planner::new(&layout, n, b);
    let mut tasks_checked = 0;
    let mut buf = Vec::new();
    for t in 0..planner.real_tiles() {
        let diag = planner.phase1(t);
        check_task(summary, &diag, n, b, t, "phase1", 0, &mut errors);
        tasks_checked += 1;
        for phase in ["phase2", "phase3"] {
            if phase == "phase2" {
                planner.phase2(t, &mut buf);
            } else {
                planner.phase3(t, &mut buf);
            }
            let inferred: Vec<(BTreeSet<usize>, BTreeSet<usize>)> = buf
                .iter()
                .enumerate()
                .map(|(i, task)| check_task(summary, task, n, b, t, phase, i, &mut errors))
                .collect();
            tasks_checked += inferred.len();
            for o in phase_overlaps(&inferred) {
                errors.push(ConformanceError {
                    n,
                    b,
                    t,
                    phase,
                    task: Some(o.writer),
                    detail: format!(
                        "inferred footprints break disjointness: {} overlap between tasks {} \
                         and {} at cell {}",
                        o.kind, o.writer, o.other, o.unit
                    ),
                });
            }
        }
        if !errors.is_empty() {
            break;
        }
    }
    ConformanceReport { tasks: tasks_checked, errors }
}

/// [`check_kernel_conformance`] over every `(n, b)` with
/// `1 <= n <= max_n`, `1 <= b <= max_b` — the same grid as the
/// `cachegraph-check` footprint sweep.
pub fn sweep_kernel_conformance(summary: &FnSummary, max_n: usize, max_b: usize) -> SweepOutcome {
    let mut out = SweepOutcome { configs: 0, tasks: 0, errors: Vec::new() };
    for n in 1..=max_n {
        for b in 1..=max_b {
            out.configs += 1;
            let report = check_kernel_conformance(summary, n, b);
            out.tasks += report.tasks;
            out.errors.extend(report.errors);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNEL_SRC: &str = include_str!("../../fw/src/kernel.rs");

    #[test]
    fn real_kernel_summary_has_the_expected_shape() {
        let s = summarize_kernel_source(KERNEL_SRC).expect("kernel summarizes");
        assert_eq!(s.view_params, ["a", "b", "c"]);
        assert_eq!(s.int_params, ["size"]);
        assert!(s.unresolved.is_empty(), "{:?}", s.unresolved);
        // b[i][k], c[k][j], a[i][j] reads and the a[i][j] write.
        assert_eq!(s.accesses.len(), 4, "{:?}", s.accesses);
    }

    #[test]
    fn real_kernel_conforms_on_spot_checks() {
        let s = summarize_kernel_source(KERNEL_SRC).expect("kernel summarizes");
        for (n, b) in [(1, 1), (4, 2), (8, 4), (9, 3), (12, 4), (17, 5)] {
            let report = check_kernel_conformance(&s, n, b);
            assert!(
                report.errors.is_empty(),
                "n={n} b={b}: {}",
                report.errors[0]
            );
            assert!(report.tasks > 0);
        }
    }

    #[test]
    fn real_kernel_conforms_over_a_small_sweep() {
        let s = summarize_kernel_source(KERNEL_SRC).expect("kernel summarizes");
        let sweep = sweep_kernel_conformance(&s, 10, 4);
        assert_eq!(sweep.configs, 40);
        assert!(sweep.errors.is_empty(), "{}", sweep.errors[0]);
    }

    #[test]
    fn off_by_one_subscript_breaks_conformance() {
        // The same kernel with the written column shifted by one: the
        // last column of each row escapes the declared tile.
        let src = "\
            trait T {\n\
                fn read(&mut self, idx: usize) -> u32;\n\
                fn write(&mut self, idx: usize, v: u32);\n\
                fn fwi_block(&mut self, a: View, b: View, c: View, size: usize) {\n\
                    for k in 0..size {\n\
                        for i in 0..size {\n\
                            let v = self.read(b.at(i, k));\n\
                            for j in 0..size {\n\
                                self.write(a.at(i, j) + 1, v);\n\
                            }\n\
                        }\n\
                    }\n\
                }\n\
            }\n";
        let s = summarize_kernel_source(src).expect("summarizes");
        let report = check_kernel_conformance(&s, 8, 4);
        assert!(
            report.errors.iter().any(|e| e.detail.contains("outside the declared write")),
            "mutation must be detected: {:?}",
            report.errors
        );
    }

    #[test]
    fn summary_without_access_sites_is_rejected() {
        let src = "fn fwi_block(&mut self, a: View, b: View, c: View, size: usize) {}\n";
        assert!(summarize_kernel_source(src).is_err(), "vacuous kernel must be rejected");
    }
}
