//! `cachegraph-analyze`: AST-level static analysis for the kernel
//! sources — parse, infer footprints, prove plan conformance, all
//! before anything runs.
//!
//! The workspace already machine-checks the parallel driver's
//! disjointness claims twice: dynamically (`cachegraph-fw`'s recording
//! test) and against the *declared* plan footprints (the
//! `cachegraph-check` oracle over `TaskGraph::check_disjoint`). This
//! crate closes the remaining gap — that the kernel *source* matches
//! the declared footprints — without executing the kernel:
//!
//! * [`parse`] — a recursive-descent parser over the shared tokenizer
//!   ([`cachegraph_lex::token`]) for the Rust subset kernel files use,
//!   producing a real AST ([`ast`]) with line spans. Constructs outside
//!   the subset are hard errors naming the construct (golden-parse).
//! * [`affine`] — the symbolic domain: multivariate polynomials over
//!   loop induction variables and named symbols (`size`, `a.offset`,
//!   `a.stride`, …).
//! * [`footprint`] — abstract interpretation of a kernel function's
//!   loop nest: induction variables become intervals, subscripts are
//!   evaluated symbolically, and every `self.read(e)` / `self.write(e,
//!   v)` becomes an access site with its enclosing loop ranges.
//! * [`conform`] — instantiates the inferred accesses over the concrete
//!   task plans of [`cachegraph_fw::plan::Planner`] across an `(n, b)`
//!   sweep and proves inferred ⊆ declared per task, then feeds the
//!   inferred footprints through the oracle's set arithmetic
//!   ([`cachegraph_plan::phase_overlaps`]) to re-prove phase
//!   disjointness purely statically.
//! * [`rules`] — the `kernel-bounds` and `obs-purity` lint rules over
//!   the AST of every kernel-marked file ([`rules::lint_kernel_files`],
//!   shared with the root tier-1 test `tests/tidy.rs`).
//!
//! The driver binary (`cargo run -p cachegraph-analyze`) runs the full
//! pass including a seeded-mutation sensitivity check; see `src/main.rs`.

pub mod affine;
pub mod ast;
pub mod conform;
pub mod footprint;
pub mod parse;
pub mod rules;

pub use conform::{
    check_kernel_conformance, summarize_kernel_source, sweep_kernel_conformance, ConformanceError,
    ConformanceReport, SweepOutcome,
};
pub use footprint::{summarize_fn, Access, AccessKind, FnSummary};
pub use parse::{parse_file, ParseError};
