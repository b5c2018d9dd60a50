//! Observed Floyd-Warshall entry points.
//!
//! The drivers in this crate expose `*_with` variants taking an
//! [`FwEvent`] hook; this module turns those events into
//! `cachegraph-obs` spans and counters. The FWI kernel itself
//! (`kernel.rs`, `// tidy: kernel`) stays instrumentation-free — the
//! `obs-purity` tidy rule enforces that — so hooks fire only between
//! kernel calls, at tile/base-case granularity.
//!
//! Span naming (see EXPERIMENTS.md): roots are `fw.<variant>`
//! (`fw.iterative`, `fw.tiled`, `fw.recursive`); the tiled variant opens
//! one `tile[t]` child per block iteration. Counters: `fw.kernel_calls`,
//! `fw.base_case_hits`.

use cachegraph_obs::{Registry, Span};

use crate::kernel::{SliceAccess, StridedView};
use crate::matrix::FwMatrix;
use crate::recursive::run_recursive_with;
use crate::tiled::run_tiled_with;

/// Driver events surfaced to instrumentation hooks. Every variant is
/// per-tile or coarser — never per-cell — so a hook costs at most one
/// call per kernel invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FwEvent {
    /// A tiled block iteration `t` begins.
    BlockStart(usize),
    /// One FWI kernel invocation over a tile.
    Kernel,
    /// The recursion bottomed out in a base-case kernel.
    BaseCase,
    /// The recursive decomposition entered a node at this depth (root
    /// call = 0, base cases deepest). Balanced with
    /// [`RecurseLeave`](Self::RecurseLeave) per non-skipped node, so a
    /// hook can maintain a depth-labeled scope stack (`depth[K]` spans
    /// in profiled FWR runs).
    RecurseEnter(usize),
    /// The matching exit for [`RecurseEnter`](Self::RecurseEnter) at
    /// the same depth.
    RecurseLeave(usize),
}

/// [`fw_iterative`](crate::fw_iterative) under a `fw.iterative` span.
pub fn fw_iterative_observed<L: StridedView>(m: &mut FwMatrix<L>, registry: &Registry) {
    let _root = registry.span("fw.iterative");
    registry.counter("fw.kernel_calls").incr();
    crate::fw_iterative(m);
}

/// [`fw_tiled`](crate::fw_tiled) reporting into `registry`: a `fw.tiled`
/// root span, one `tile[t]` child per block iteration, and the
/// `fw.kernel_calls` counter.
pub fn fw_tiled_observed<L: StridedView>(m: &mut FwMatrix<L>, b: usize, registry: &Registry) {
    let root = registry.span("fw.tiled");
    let kernel_calls = registry.counter("fw.kernel_calls");
    let layout = m.layout().clone();
    let n = m.n();
    let mut tile_span: Option<Span> = None;
    run_tiled_with(&layout, n, &mut SliceAccess(m.storage_mut()), b, &mut |ev| match ev {
        FwEvent::BlockStart(t) => tile_span = Some(root.child(&format!("tile[{t}]"))),
        FwEvent::Kernel => kernel_calls.incr(),
        FwEvent::BaseCase | FwEvent::RecurseEnter(_) | FwEvent::RecurseLeave(_) => {}
    });
}

/// [`fw_recursive`](crate::fw_recursive) reporting into `registry`: a
/// `fw.recursive` root span and the `fw.base_case_hits` /
/// `fw.kernel_calls` counters.
pub fn fw_recursive_observed<L: StridedView>(m: &mut FwMatrix<L>, base: usize, registry: &Registry) {
    let _root = registry.span("fw.recursive");
    let base_cases = registry.counter("fw.base_case_hits");
    let kernel_calls = registry.counter("fw.kernel_calls");
    let layout = m.layout().clone();
    let n = m.n();
    run_recursive_with(&layout, n, &mut SliceAccess(m.storage_mut()), base, &mut |ev| {
        if ev == FwEvent::BaseCase {
            base_cases.incr();
            kernel_calls.incr();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_iterative_slice;
    use cachegraph_graph::INF;
    use cachegraph_layout::{BlockLayout, ZMorton};
    use cachegraph_rng::StdRng;

    fn random_costs(n: usize, density: f64, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut costs = vec![INF; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    costs[i * n + j] = 0;
                } else if rng.gen_bool(density) {
                    costs[i * n + j] = rng.gen_range(1..100);
                }
            }
        }
        costs
    }

    #[test]
    fn observed_tiled_counts_kernels_and_spans() {
        let n = 16;
        let b = 4;
        let costs = random_costs(n, 0.3, 1);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);

        let reg = Registry::new();
        let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), &costs);
        fw_tiled_observed(&mut m, b, &reg);
        assert_eq!(m.to_row_major(), expect);

        let snap = reg.snapshot();
        // 4x4 tile grid: 16 kernel calls per block iteration, 4 iterations.
        let tiles = n / b;
        assert_eq!(snap.counters.get("fw.kernel_calls"), Some(&((tiles * tiles * tiles) as u64)));
        // One root + one tile[t] child per iteration.
        assert_eq!(snap.spans.len(), tiles + 1);
        let root = snap.spans.last().expect("root span");
        assert_eq!(root.path, "fw.tiled");
        assert_eq!(root.counters.get("fw.kernel_calls"), Some(&((tiles * tiles * tiles) as u64)));
        assert!(snap.spans[0].path.starts_with("fw.tiled/tile["));
    }

    #[test]
    fn observed_recursive_counts_base_cases() {
        let n = 16;
        let base = 4;
        let costs = random_costs(n, 0.3, 2);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);

        let reg = Registry::new();
        let mut m = FwMatrix::from_costs(ZMorton::new(n, base), &costs);
        fw_recursive_observed(&mut m, base, &reg);
        assert_eq!(m.to_row_major(), expect);

        let snap = reg.snapshot();
        // (n/base)^3 base-case kernels, none skipped (no padding here).
        let tiles = (n / base) as u64;
        assert_eq!(snap.counters.get("fw.base_case_hits"), Some(&(tiles * tiles * tiles)));
    }

    #[test]
    fn disabled_registry_changes_nothing() {
        let n = 12;
        let costs = random_costs(n, 0.35, 4);
        let mut plain = FwMatrix::from_costs(BlockLayout::new(n, 4), &costs);
        crate::fw_tiled(&mut plain, 4);
        let mut observed = FwMatrix::from_costs(BlockLayout::new(n, 4), &costs);
        fw_tiled_observed(&mut observed, 4, &Registry::disabled());
        assert_eq!(plain.to_row_major(), observed.to_row_major());
    }
}
