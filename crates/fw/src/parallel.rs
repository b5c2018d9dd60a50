//! Parallel tiled Floyd-Warshall — the parallelisation the paper's
//! conclusion sketches: "Since computation and data are already decomposed,
//! what need to be added are computation and data distribution [and]
//! synchronization".
//!
//! Within one block iteration `t` the tiled decomposition has three
//! phases with a barrier between them:
//!
//! 1. the diagonal tile `(t, t)` — inherently sequential;
//! 2. the rest of row `t` and column `t` — every tile independent, each
//!    reading only itself and the (now stable) diagonal tile;
//! 3. all remaining tiles — every tile independent, each reading only
//!    itself and its (now stable) row-`t` / column-`t` tiles.
//!
//! Tiles in phases 2 and 3 are written by exactly one task and read tiles
//! written only in earlier phases, so tasks are data-race free. Work is
//! distributed over `std::thread` scoped threads; the kernel runs over raw
//! pointers because disjoint mutable tile views of one allocation cannot
//! be expressed as safe slices.
//!
//! The task plan (which tile each task writes and reads, per phase) is
//! built by [`crate::plan::Planner`] — pure data shared with the dynamic
//! disjointness test below and with the `cachegraph-check` footprint
//! oracle and schedule explorer, which machine-check the phase
//! disjointness argument every `SAFETY:` comment here relies on.

use cachegraph_graph::{Weight, INF};
use cachegraph_obs::{Counter, Registry};

use crate::kernel::{StridedView, View};
use crate::matrix::FwMatrix;
use crate::plan::{Planner, TileTask};

/// Shared storage handle for the scoped worker threads. Soundness
/// argument: within each parallel phase, every task writes only its own A
/// tile (disjoint per task) and reads tiles no task writes in that phase.
#[derive(Clone, Copy)]
struct SharedStorage {
    ptr: *mut Weight,
    len: usize,
}

// SAFETY: the handle is a plain pointer+len pair with no interior state;
// all concurrent access goes through `read`/`write`, whose callers uphold
// the phase-disjointness argument above (each A tile written by exactly
// one task per phase, B/C tiles only read).
unsafe impl Sync for SharedStorage {}
// SAFETY: moving the handle to another thread transfers no aliasing
// obligations; soundness rests on the per-phase task disjointness, not on
// which thread holds the copy.
unsafe impl Send for SharedStorage {}

impl SharedStorage {
    /// # Safety
    /// `idx` must be in bounds and no other thread may be concurrently
    /// writing the cell at `idx`.
    #[inline(always)]
    unsafe fn read(&self, idx: usize) -> Weight {
        debug_assert!(idx < self.len);
        // SAFETY: in-bounds and no concurrent writer, per this method's
        // contract which the caller upholds.
        unsafe { *self.ptr.add(idx) }
    }

    /// # Safety
    /// `idx` must be in bounds and no other thread may be concurrently
    /// reading or writing the cell at `idx`.
    #[inline(always)]
    unsafe fn write(&self, idx: usize, v: Weight) {
        debug_assert!(idx < self.len);
        // SAFETY: in-bounds and exclusive access to this cell, per this
        // method's contract which the caller upholds.
        unsafe { *self.ptr.add(idx) = v }
    }
}

/// FWI over raw storage — same operation order as the trait default
/// [`crate::CellAccess::fwi_block`].
///
/// # Safety
/// The A view must not be concurrently accessed by any other thread, the
/// B/C views must not be concurrently written, and all three views must
/// lie within `data`'s allocation.
unsafe fn fwi_raw(data: SharedStorage, a: View, b: View, c: View, size: usize) {
    // SAFETY: every access below targets a cell of A (exclusively owned by
    // this task per the function contract) or reads a cell of B/C (stable
    // during this phase per the contract); `View::at` stays within the
    // caller-validated tile bounds, so indices are in range.
    unsafe {
        for k in 0..size {
            for i in 0..size {
                let bik = data.read(b.at(i, k));
                if bik == INF {
                    continue;
                }
                let c_row = c.at(k, 0);
                let a_row = a.at(i, 0);
                for j in 0..size {
                    let via = bik.saturating_add(data.read(c_row + j));
                    let idx = a_row + j;
                    if via < data.read(idx) {
                        data.write(idx, via);
                    }
                }
            }
        }
    }
}

/// Run `tasks` across `threads` scoped workers via the shared
/// [`cachegraph_plan::run_tasks`] executor — the same chunking the
/// `cachegraph-check` explorer models. Each finished task bumps
/// `kernel_calls` — a `cachegraph-obs` counter shared across the scoped
/// threads (a disabled handle reduces to a branch per task).
fn run_parallel(data: SharedStorage, tasks: &[TileTask], b: usize, threads: usize, kernel_calls: &Counter) {
    cachegraph_plan::run_tasks(tasks, threads, |t| {
        // SAFETY: each task's A tile is written by exactly one task in
        // this phase; B/C tiles are only read and are not any task's A
        // tile in this phase (proven by the footprint oracle); with one
        // worker the executor runs tasks inline, single-threaded.
        unsafe { fwi_raw(data, t.a, t.b, t.c, b) };
        kernel_calls.incr();
    });
}

/// The pre-runtime PR 5 phase loop, kept verbatim as the baseline the
/// `obs_overhead` TaskGraph-dispatch budget compares against. Not part
/// of the public API surface.
#[doc(hidden)]
fn run_parallel_handrolled(
    data: SharedStorage,
    tasks: &[TileTask],
    b: usize,
    threads: usize,
    kernel_calls: &Counter,
) {
    if tasks.is_empty() {
        return;
    }
    let threads = threads.min(tasks.len()).max(1);
    if threads == 1 {
        for t in tasks {
            // SAFETY: single-threaded here; views disjoint per task by
            // construction of the tiled decomposition.
            unsafe { fwi_raw(data, t.a, t.b, t.c, b) };
            kernel_calls.incr();
        }
        return;
    }
    let chunk = tasks.len().div_ceil(threads);
    std::thread::scope(|s| {
        for slice in tasks.chunks(chunk) {
            let kernel_calls = kernel_calls.clone();
            s.spawn(move || {
                for t in slice {
                    // SAFETY: each task's A tile is written by exactly one
                    // task in this phase; B/C tiles are only read and are
                    // not any task's A tile in this phase.
                    unsafe { fwi_raw(data, t.a, t.b, t.c, b) };
                    kernel_calls.incr();
                }
            });
        }
    });
}

/// [`fw_tiled_parallel`] driven by the hand-rolled PR 5 loop instead of
/// the shared TaskGraph executor. Exists solely so the dispatch-overhead
/// benchmark has a baseline; results are identical.
#[doc(hidden)]
pub fn fw_tiled_parallel_handrolled<L: StridedView>(m: &mut FwMatrix<L>, b: usize, threads: usize) {
    let registry = Registry::disabled();
    let kernel_calls = registry.counter("fw.kernel_calls");
    let n = m.n();
    assert!(threads >= 1, "need at least one thread");
    let layout = m.layout().clone();
    let planner = Planner::new(&layout, n, b);
    let storage = m.storage_mut();
    let data = SharedStorage { ptr: storage.as_mut_ptr(), len: storage.len() };

    let mut phase2 = Vec::new();
    let mut phase3 = Vec::new();
    for t in 0..planner.real_tiles() {
        let diag = planner.phase1(t);
        // SAFETY: no other thread is running.
        unsafe { fwi_raw(data, diag.a, diag.b, diag.c, b) };
        kernel_calls.incr();

        planner.phase2(t, &mut phase2);
        run_parallel_handrolled(data, &phase2, b, threads, &kernel_calls);

        planner.phase3(t, &mut phase3);
        run_parallel_handrolled(data, &phase3, b, threads, &kernel_calls);
    }
}

/// Parallel tiled Floyd-Warshall with tile size `b` on `threads` threads.
/// Produces the same result as [`crate::fw_tiled`].
pub fn fw_tiled_parallel<L: StridedView>(m: &mut FwMatrix<L>, b: usize, threads: usize) {
    fw_tiled_parallel_observed(m, b, threads, &Registry::disabled());
}

/// [`fw_tiled_parallel`] reporting into `registry`: a `fw.parallel` root
/// span with one `block[t]` child per block iteration, and a
/// `fw.kernel_calls` counter shared across the scoped worker threads.
/// With a disabled registry every instrumentation point is a branch, so
/// this *is* the implementation behind [`fw_tiled_parallel`].
pub fn fw_tiled_parallel_observed<L: StridedView>(
    m: &mut FwMatrix<L>,
    b: usize,
    threads: usize,
    registry: &Registry,
) {
    let root = registry.span("fw.parallel");
    let kernel_calls = registry.counter("fw.kernel_calls");
    let n = m.n();
    assert!(threads >= 1, "need at least one thread");
    let layout = m.layout().clone();
    // The planner re-checks the tiling preconditions (padded dimension a
    // multiple of b, layout exposes aligned bxb tiles).
    let planner = Planner::new(&layout, n, b);
    let storage = m.storage_mut();
    let data = SharedStorage { ptr: storage.as_mut_ptr(), len: storage.len() };

    let mut phase2 = Vec::new();
    let mut phase3 = Vec::new();
    for t in 0..planner.real_tiles() {
        let _block = registry.is_enabled().then(|| root.child(&format!("block[{t}]")));
        let diag = planner.phase1(t);
        // Phase 1: sequential diagonal tile.
        // SAFETY: no other thread is running.
        unsafe { fwi_raw(data, diag.a, diag.b, diag.c, b) };
        kernel_calls.incr();

        planner.phase2(t, &mut phase2);
        run_parallel(data, &phase2, b, threads, &kernel_calls);

        planner.phase3(t, &mut phase3);
        run_parallel(data, &phase3, b, threads, &kernel_calls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_iterative_slice;
    use cachegraph_layout::BlockLayout;
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
    fn parallel_matches_sequential_baseline() {
        for n in [8, 17, 32] {
            let costs = random_costs(n, 0.3, n as u64);
            let mut expect = costs.clone();
            fw_iterative_slice(&mut expect, n);
            for threads in [1, 2, 4] {
                let mut m = FwMatrix::from_costs(BlockLayout::new(n, 4), &costs);
                fw_tiled_parallel(&mut m, 4, threads);
                assert_eq!(m.to_row_major(), expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn single_tile_problem() {
        let costs = random_costs(4, 0.5, 9);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, 4);
        let mut m = FwMatrix::from_costs(BlockLayout::new(4, 4), &costs);
        fw_tiled_parallel(&mut m, 4, 4);
        assert_eq!(m.to_row_major(), expect);
    }

    /// The data-race-freedom claim the parallel phases rest on, checked
    /// dynamically against the *same* task plan the driver executes
    /// (`plan::Planner` — no inline re-derivation that could drift):
    /// within one phase, no two tasks write a common cell, no task reads
    /// a cell that another task of the same phase writes, and every
    /// recorded access stays inside the footprint the plan declares for
    /// it (what the `cachegraph-check` footprint oracle reasons about).
    /// The third leg — footprints *statically inferred* from the kernel
    /// source — is closed by the three-way differential test in
    /// `cachegraph-analyze`, which reuses the same [`RecordingAccess`].
    #[test]
    fn phase_tasks_access_disjoint_cells() {
        use crate::kernel::fwi_access;
        use crate::record::RecordingAccess;

        let n = 12;
        let b = 4;
        let layout = BlockLayout::new(n, b);
        let costs = random_costs(n, 0.4, 7);
        let mut m = FwMatrix::from_costs(layout, &costs);
        let planner = Planner::new(&layout, n, b);

        let check_phase = |phase: &str, t: usize, tasks: &[TileTask], data: &mut [u32]| {
            let mut records = Vec::new();
            for (i, task) in tasks.iter().enumerate() {
                let mut acc = RecordingAccess::new(data);
                fwi_access(&mut acc, task.a, task.b, task.c, b);
                // The declared footprints must cover every access the real
                // kernel performs — this is what makes the static oracle's
                // disjointness proof evidence about the executed code.
                let declared_w: std::collections::BTreeSet<usize> =
                    task.write_rows(b).flatten().collect();
                let declared_r: std::collections::BTreeSet<usize> =
                    task.read_rows(b).flatten().collect();
                assert!(
                    acc.writes.is_subset(&declared_w),
                    "{phase} t={t}: task {i} writes outside its declared footprint"
                );
                assert!(
                    acc.reads.is_subset(&declared_r),
                    "{phase} t={t}: task {i} reads outside its declared footprint"
                );
                records.push((acc.reads, acc.writes));
            }
            for (x, (_, wx)) in records.iter().enumerate() {
                for (y, (ry, wy)) in records.iter().enumerate() {
                    if x == y {
                        continue;
                    }
                    assert!(
                        wx.is_disjoint(wy),
                        "{phase} t={t}: tasks {x} and {y} write common cells"
                    );
                    assert!(
                        wx.is_disjoint(ry),
                        "{phase} t={t}: task {y} reads cells task {x} writes"
                    );
                }
            }
        };

        let mut phase2 = Vec::new();
        let mut phase3 = Vec::new();
        for t in 0..planner.real_tiles() {
            let diag = planner.phase1(t);
            let data = m.storage_mut();
            crate::kernel::fwi(data, diag.a, diag.b, diag.c, b);

            planner.phase2(t, &mut phase2);
            check_phase("phase2", t, &phase2, data);

            planner.phase3(t, &mut phase3);
            check_phase("phase3", t, &phase3, data);
        }

        // The recorded (sequential) run must still compute the right
        // answer, so the disjointness evidence covers the real kernel
        // inputs, not a degenerate matrix.
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);
        assert_eq!(m.to_row_major(), expect);
    }

    #[test]
    fn many_threads_more_than_tasks() {
        let costs = random_costs(8, 0.4, 2);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, 8);
        let mut m = FwMatrix::from_costs(BlockLayout::new(8, 4), &costs);
        fw_tiled_parallel(&mut m, 4, 64);
        assert_eq!(m.to_row_major(), expect);
    }
}
