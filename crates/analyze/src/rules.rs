//! The kernel-file lint rules, judged over the parsed AST.
//!
//! Files opted in with a `// tidy: kernel` marker get two rules beyond
//! tidy's token-level ones:
//!
//! * `kernel-bounds` — no slice subscript whose index is simple
//!   additive arithmetic over a `for ... in <range>` counter, where an
//!   `iter().zip()` chain would elide the bounds check structurally.
//!   Method-call indices (`data[b.at(i, k)]`) and range subscripts
//!   address views and sub-slices, which the rule cannot judge.
//! * `obs-purity` — no reference to the observability layer
//!   (`cachegraph_obs`); instrumentation belongs in the drivers, which
//!   observe kernels from the outside through tile-granular hooks.
//!
//! Over the AST the judgement is structural: an index expression either
//! *is* simple additive arithmetic over a range counter or it is not.
//! Every kernel-marked file is inside the parsed subset — the
//! golden-parse test keeps it that way — and [`lint_kernel_files`] is
//! the one entry point the `cachegraph-analyze` binary and the root
//! tier-1 test `tests/tidy.rs` share. Waivers use tidy's syntax:
//! `// tidy: allow(<rule>) -- reason`.

use cachegraph_tidy::config::KERNEL_MARKER;
use cachegraph_tidy::{Diagnostic, SourceFile};

use crate::ast::{BinOp, Block, Expr, ExprKind, File, Pat, Stmt};
use crate::parse::{parse_file, ParseError};

/// Rule id of the bounds-check rule.
pub const KERNEL_BOUNDS: &str = "kernel-bounds";
/// Rule id of the observability-purity rule.
pub const OBS_PURITY: &str = "obs-purity";

/// One kernel-marked file after the golden parse and the AST rules.
pub struct KernelFile<'s> {
    /// The source file.
    pub source: &'s SourceFile,
    /// The parsed file, or the error naming the construct outside the
    /// subset grammar.
    pub parsed: Result<File, ParseError>,
    /// `kernel-bounds` and `obs-purity` diagnostics (none when the
    /// parse failed).
    pub diags: Vec<Diagnostic>,
}

/// Parse every kernel-marked file in `sources` and run both AST rules
/// on it.
pub fn lint_kernel_files(sources: &[SourceFile]) -> Vec<KernelFile<'_>> {
    sources
        .iter()
        .filter(|sf| is_kernel_marked(sf))
        .map(|sf| {
            let parsed = parse_file(&sf.raw);
            let mut diags = Vec::new();
            if let Ok(file) = &parsed {
                diags.extend(kernel_bounds(sf, file));
                diags.extend(obs_purity(sf, file));
            }
            KernelFile { source: sf, parsed, diags }
        })
        .collect()
}

/// Does the file opt in to the kernel rules (`// tidy: kernel`)?
pub fn is_kernel_marked(sf: &SourceFile) -> bool {
    sf.lexed
        .comments
        .iter()
        .any(|c| c.text.trim_start_matches(['/', '!', '*', ' ']).starts_with(KERNEL_MARKER))
}

/// Is this expression simple additive arithmetic (identifiers, integer
/// literals, `+ - *`)? Method calls, fields, ranges and nested indexing
/// disqualify it — those address views and sub-slices, which the rule
/// cannot judge.
fn simple_index(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Ident(_) | ExprKind::Int(_) => true,
        ExprKind::Binary { op: BinOp::Add | BinOp::Sub | BinOp::Mul, lhs, rhs } => {
            simple_index(lhs) && simple_index(rhs)
        }
        _ => false,
    }
}

/// The range counter (from `vars`) this expression mentions, if any.
fn mentioned_var<'v>(e: &Expr, vars: &'v [String]) -> Option<&'v String> {
    let mut found = None;
    e.walk(&mut |sub| {
        if found.is_none() {
            if let ExprKind::Ident(n) = &sub.kind {
                found = vars.iter().find(|v| *v == n);
            }
        }
    });
    found
}

/// Render a simple index expression back to source-ish text for the
/// diagnostic message.
fn render(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Ident(n) => n.clone(),
        ExprKind::Int(Some(v)) => v.to_string(),
        ExprKind::Int(None) => "<int>".to_string(),
        ExprKind::Binary { op, lhs, rhs } => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                _ => "*",
            };
            format!("{} {sym} {}", render(lhs), render(rhs))
        }
        _ => "…".to_string(),
    }
}

/// `kernel-bounds` over the AST: inside a `for <ident> in <range>` loop,
/// flag `recv[<simple additive index mentioning the counter>]`.
pub fn kernel_bounds(sf: &SourceFile, file: &File) -> Vec<Diagnostic> {
    if !is_kernel_marked(sf) {
        return Vec::new();
    }
    let mut diags = Vec::new();
    let mut flagged = std::collections::BTreeSet::new();
    for f in file.functions() {
        if f.cfg_test {
            continue;
        }
        let mut vars = Vec::new();
        walk_block(sf, &f.body, &mut vars, &mut flagged, &mut diags);
    }
    diags.sort_by_key(|d| d.line);
    diags
}

/// Walk a block tracking the active range counters; `vars` grows inside
/// `for <ident> in <range>` bodies and shrinks when a non-range loop
/// shadows a tracked name.
fn walk_block(
    sf: &SourceFile,
    b: &Block,
    vars: &mut Vec<String>,
    flagged: &mut std::collections::BTreeSet<usize>,
    diags: &mut Vec<Diagnostic>,
) {
    for s in &b.stmts {
        match s {
            Stmt::For { pat, iter, body, .. } => {
                check_expr(sf, iter, vars, flagged, diags);
                if let (Pat::Ident(v), ExprKind::Range { .. }) = (pat, &iter.kind) {
                    vars.push(v.clone());
                    walk_block(sf, body, vars, flagged, diags);
                    vars.pop();
                } else {
                    // A non-range loop whose binding shadows a tracked
                    // counter suspends that counter for the body.
                    let saved = vars.clone();
                    vars.retain(|v| !pat.idents().contains(&v.as_str()));
                    walk_block(sf, body, vars, flagged, diags);
                    *vars = saved;
                }
            }
            Stmt::While { cond, body, .. } => {
                check_expr(sf, cond, vars, flagged, diags);
                walk_block(sf, body, vars, flagged, diags);
            }
            Stmt::Loop { body, .. } => walk_block(sf, body, vars, flagged, diags),
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    check_expr(sf, e, vars, flagged, diags);
                }
            }
            Stmt::Semi(e) | Stmt::Expr(e) => check_expr(sf, e, vars, flagged, diags),
            Stmt::Return(Some(e), _) => check_expr(sf, e, vars, flagged, diags),
            Stmt::Return(None, _) | Stmt::BreakContinue(_) | Stmt::Item(_) => {}
        }
    }
}

/// Flag every offending `Index` inside `e` (at most one diagnostic per
/// source line). Recurses manually rather than
/// via [`Expr::walk`] so nested blocks — which may open or shadow range
/// loops of their own — thread the counter scope correctly.
fn check_expr(
    sf: &SourceFile,
    e: &Expr,
    vars: &mut Vec<String>,
    flagged: &mut std::collections::BTreeSet<usize>,
    diags: &mut Vec<Diagnostic>,
) {
    match &e.kind {
        ExprKind::Index { recv, index } => {
            check_expr(sf, recv, vars, flagged, diags);
            check_expr(sf, index, vars, flagged, diags);
            if matches!(index.kind, ExprKind::Range { .. }) {
                return; // sub-slice selection, not an element access
            }
            if !simple_index(index) {
                return;
            }
            let Some(var) = mentioned_var(index, vars) else { return };
            let line = index.line;
            if flagged.contains(&line) || sf.waived(KERNEL_BOUNDS, line) {
                return;
            }
            let message = format!(
                "indexed access `[{}]` driven by the range counter `{var}`; \
                 iterate the slices (`iter().zip()`) so the bounds check is \
                 structurally elided",
                render(index)
            );
            flagged.insert(line);
            diags.push(Diagnostic { path: sf.rel_path.clone(), line, rule: KERNEL_BOUNDS, message });
        }
        ExprKind::Block(b) => walk_block(sf, b, vars, flagged, diags),
        ExprKind::If { cond, then, els } => {
            check_expr(sf, cond, vars, flagged, diags);
            walk_block(sf, then, vars, flagged, diags);
            if let Some(b) = els {
                walk_block(sf, b, vars, flagged, diags);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            check_expr(sf, scrutinee, vars, flagged, diags);
            for a in arms {
                check_expr(sf, a, vars, flagged, diags);
            }
        }
        ExprKind::Unary(inner)
        | ExprKind::Ref(inner)
        | ExprKind::Cast(inner)
        | ExprKind::Closure(inner)
        | ExprKind::Try(inner) => check_expr(sf, inner, vars, flagged, diags),
        ExprKind::Binary { lhs, rhs, .. }
        | ExprKind::Assign { lhs, rhs }
        | ExprKind::CompoundAssign { lhs, rhs, .. } => {
            check_expr(sf, lhs, vars, flagged, diags);
            check_expr(sf, rhs, vars, flagged, diags);
        }
        ExprKind::Call { callee, args } => {
            check_expr(sf, callee, vars, flagged, diags);
            for a in args {
                check_expr(sf, a, vars, flagged, diags);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            check_expr(sf, recv, vars, flagged, diags);
            for a in args {
                check_expr(sf, a, vars, flagged, diags);
            }
        }
        ExprKind::Field { recv, .. } => check_expr(sf, recv, vars, flagged, diags),
        ExprKind::Range { lo, hi, .. } => {
            for side in [lo, hi].into_iter().flatten() {
                check_expr(sf, side, vars, flagged, diags);
            }
        }
        ExprKind::Tuple(es) | ExprKind::Array(es) => {
            for el in es {
                check_expr(sf, el, vars, flagged, diags);
            }
        }
        ExprKind::StructLit { fields, .. } => {
            for (_, el) in fields {
                check_expr(sf, el, vars, flagged, diags);
            }
        }
        ExprKind::Int(_)
        | ExprKind::Lit
        | ExprKind::Ident(_)
        | ExprKind::Path(_)
        | ExprKind::Macro { .. } => {}
    }
}

/// `obs-purity` over the AST: no `use cachegraph_obs::…` and no
/// `cachegraph_obs::…` path expression outside `#[cfg(test)]` code.
pub fn obs_purity(sf: &SourceFile, file: &File) -> Vec<Diagnostic> {
    if !is_kernel_marked(sf) {
        return Vec::new();
    }
    let mut diags = Vec::new();
    let mut push = |sf: &SourceFile, line: usize| {
        if !sf.waived(OBS_PURITY, line) {
            diags.push(Diagnostic {
                path: sf.rel_path.clone(),
                line,
                rule: OBS_PURITY,
                message: "kernel files must not reference `cachegraph_obs`; \
                          instrument the surrounding driver instead"
                    .to_string(),
            });
        }
    };
    for (segments, line, cfg_test) in file.uses() {
        if !cfg_test && segments.iter().any(|s| s == "cachegraph_obs") {
            push(sf, line);
        }
    }
    for f in file.functions() {
        if f.cfg_test {
            continue;
        }
        f.body.walk_exprs(&mut |e| {
            if let ExprKind::Path(segs) = &e.kind {
                if segs.iter().any(|s| s == "cachegraph_obs") {
                    push(sf, e.line);
                }
            }
        });
    }
    diags.sort_by_key(|d| d.line);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use std::path::PathBuf;

    fn sf(src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from("crates/x/src/lib.rs"), src.to_string())
    }

    #[test]
    fn bounds_flags_counter_subscripts() {
        let src = "// tidy: kernel\n\
                   fn relax(a: &mut [u32], n: usize, base: usize) {\n\
                   for j in 0..n {\n\
                   a[base + j] = 0;\n\
                   }\n\
                   }\n";
        let file = parse_file(src).expect("parses");
        let d = kernel_bounds(&sf(src), &file);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("base + j"), "{}", d[0].message);
    }

    #[test]
    fn bounds_skips_method_and_range_indices() {
        let src = "// tidy: kernel\n\
                   fn k(data: &mut [u32], b: View, size: usize) {\n\
                   for k in 0..size {\n\
                   let x = data[b.at(0, k)];\n\
                   let r = &data[k..k + size];\n\
                   let _ = (x, r);\n\
                   }\n\
                   }\n";
        let file = parse_file(src).expect("parses");
        assert!(kernel_bounds(&sf(src), &file).is_empty());
    }

    #[test]
    fn bounds_respects_shadowing_by_non_range_loops() {
        // The inner `j` iterates a slice, not a range; `a[j]` in the
        // inner body is not counter-driven.
        let src = "// tidy: kernel\n\
                   fn k(a: &mut [u32], xs: &[usize], n: usize) {\n\
                   for j in 0..n {\n\
                   for j in xs.iter().copied() {\n\
                   a[j] = 0;\n\
                   }\n\
                   }\n\
                   }\n";
        let file = parse_file(src).expect("parses");
        assert!(kernel_bounds(&sf(src), &file).is_empty(), "shadowed counter must not flag");
    }

    #[test]
    fn obs_flags_use_and_path_outside_tests() {
        let src = "// tidy: kernel\n\
                   use cachegraph_obs::Registry;\n\
                   fn k() { let _r = cachegraph_obs::Registry::disabled(); }\n\
                   #[cfg(test)]\n\
                   mod tests { use cachegraph_obs::Registry; fn t() { let _ = Registry::new(); } }\n";
        let file = parse_file(src).expect("parses");
        let d = obs_purity(&sf(src), &file);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].line, 2);
        assert_eq!(d[1].line, 3);
    }

    #[test]
    fn unmarked_files_are_exempt() {
        let src = "use cachegraph_obs::Registry;\n\
                   fn k(a: &mut [u32], n: usize) { for j in 0..n { a[j] = 0; } }\n";
        let file = parse_file(src).expect("parses");
        assert!(kernel_bounds(&sf(src), &file).is_empty());
        assert!(obs_purity(&sf(src), &file).is_empty());
    }
}
