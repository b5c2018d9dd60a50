//! Parallel tiled Floyd-Warshall — the parallelisation the paper's
//! conclusion sketches: "Since computation and data are already decomposed,
//! what need to be added are computation and data distribution \[and\]
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
//! written only in earlier phases. The driver states that with borrows:
//! once per phase it splits the matrix storage into its `b x b` tiles,
//! gives each task its A tile as `&mut [Weight]` and the tiles it reads
//! as `&[Weight]`, and runs the tasks on scoped threads. A plan in which
//! two tasks of one phase share a tile that either writes cannot be
//! split, so a phase race is a borrow error, not an `unsafe` argument.
//!
//! The task plan (which tile each task writes and reads, per phase) is
//! built by [`crate::plan::Planner`] — pure data shared with the dynamic
//! disjointness test below and with the `cachegraph-check` footprint
//! oracle.
//!
//! One phase loop ([`for_each_phase`]) and one split serve four runs,
//! which differ only in what a task runs and in the executor that runs a
//! phase: the timed driver (the slice kernel under
//! [`cachegraph_plan::run_tasks_mut`]), the hand-rolled dispatch baseline
//! (the same kernel under a private spawn loop), the simulated run
//! [`sim_tiled_parallel_profiled`](crate::instrumented::sim_tiled_parallel_profiled)
//! and the `cachegraph-check` model checker. The last two run each task's
//! trait-default kernel through [`TileBorrow::fwi_traced`], which reports
//! every cell it touches to a [`UnitSink`]: the simulation's sink drives a
//! worker's cache hierarchy, the checker's records the task's access
//! script.

use cachegraph_graph::Weight;
use cachegraph_layout::{BlockLayout, ZMorton};
use cachegraph_obs::{Counter, Registry};
use cachegraph_plan::{run_tasks_mut, worker_count, UnitSink};

use crate::kernel::{fwi_access, fwi_tiles, CellAccess, StridedView, View};
use crate::matrix::FwMatrix;
use crate::plan::{Planner, TileTask};

/// Layouts whose aligned `b x b` tiles are contiguous runs of `b * b`
/// cells, each starting at a multiple of `b * b`, so that the storage
/// splits into one borrow per tile: [`BlockLayout`] at its block size
/// and [`ZMorton`] at its base size. The split checks every tile it
/// hands out.
pub trait ContiguousTiles: StridedView {}

impl ContiguousTiles for BlockLayout {}

impl ContiguousTiles for ZMorton {}

/// The phases of one block iteration, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The diagonal tile.
    Diagonal,
    /// The rest of row `t` and column `t`.
    RowCol,
    /// Every remaining tile.
    Rest,
}

/// One task of a phase with its operands borrowed from the matrix
/// storage.
pub struct TileBorrow<'m> {
    /// Where the task's tiles sit in the storage.
    pub task: TileTask,
    /// The A tile, the one the task writes.
    pub a: &'m mut [Weight],
    /// The B tile, or `None` where B is A.
    pub b: Option<&'m [Weight]>,
    /// The C tile, or `None` where C is A.
    pub c: Option<&'m [Weight]>,
}

impl TileBorrow<'_> {
    /// Run the trait-default kernel (`CellAccess::fwi_block`, the paper's
    /// cell order) on the task's tiles, reporting the flat storage index
    /// of every cell it reads or writes to `sink`.
    pub fn fwi_traced(&mut self, b: usize, sink: &mut impl UnitSink) {
        let TileTask { a, b: vb, c } = self.task;
        fwi_access(&mut TracedTiles { task: self, sink }, a, vb, c, b);
    }
}

/// Accessor for [`TileBorrow::fwi_traced`]: cell values live in the
/// task's borrowed tiles, and every flat index goes to the sink.
struct TracedTiles<'t, 'm, S> {
    task: &'t mut TileBorrow<'m>,
    sink: &'t mut S,
}

impl<S: UnitSink> CellAccess for TracedTiles<'_, '_, S> {
    #[inline]
    fn read(&mut self, idx: usize) -> Weight {
        self.sink.read(idx as u64);
        let t = &*self.task;
        [(t.task.a, Some(&*t.a)), (t.task.b, t.b), (t.task.c, t.c)]
            .into_iter()
            .find_map(|(v, tile)| tile?.get(idx.checked_sub(v.offset)?).copied())
            .unwrap_or_else(|| unreachable!("the kernel reads only its task's tiles"))
    }

    #[inline]
    fn write(&mut self, idx: usize, v: Weight) {
        self.sink.write(idx as u64);
        self.task.a[idx - self.task.task.a.offset] = v;
    }
}

/// The phase loop of every parallel tiled run: for each block iteration
/// `t`, each phase's tasks from the [`Planner`], split into borrows of
/// `storage` and handed to `run` with `t` and the phase. `run` must
/// finish every task before it returns; that return is the barrier.
pub fn for_each_phase<L: ContiguousTiles>(
    layout: &L,
    n: usize,
    b: usize,
    storage: &mut [Weight],
    mut run: impl FnMut(usize, Phase, &mut [TileBorrow<'_>]),
) {
    let planner = Planner::new(layout, n, b);
    let mut plan = Vec::new();
    for t in 0..planner.real_tiles() {
        run(t, Phase::Diagonal, &mut split(storage, &[planner.phase1(t)], b));
        planner.phase2(t, &mut plan);
        run(t, Phase::RowCol, &mut split(storage, &plan, b));
        planner.phase3(t, &mut plan);
        run(t, Phase::Rest, &mut split(storage, &plan, b));
    }
}

/// A tile of the storage while one phase is split.
enum Slot<'m> {
    Free(&'m mut [Weight]),
    Read(&'m [Weight]),
    Written,
}

impl<'m> Slot<'m> {
    /// The tile, shared among the tasks that read it.
    fn read(&mut self) -> &'m [Weight] {
        let tile: &'m [Weight] = match std::mem::replace(self, Slot::Written) {
            Slot::Free(t) => t,
            Slot::Read(t) => t,
            Slot::Written => unreachable!("a phase reads a tile one of its tasks writes"),
        };
        *self = Slot::Read(tile);
        tile
    }

    /// The tile, owned by the one task that writes it.
    fn write(&mut self) -> &'m mut [Weight] {
        match std::mem::replace(self, Slot::Written) {
            Slot::Free(t) => t,
            Slot::Read(_) | Slot::Written => {
                unreachable!("a phase writes a tile twice, or a tile one of its tasks reads")
            }
        }
    }
}

/// Split `storage` into the borrows the tasks of one phase need: every
/// tile that some task reads is shared first, then each task takes its
/// A tile. The planner's phases write each tile at most once and never
/// a tile they read (the footprint oracle proves it over its sweep); a
/// plan that broke that cannot be split and stops here.
fn split<'m>(storage: &'m mut [Weight], tasks: &[TileTask], b: usize) -> Vec<TileBorrow<'m>> {
    let len = b * b;
    let tile = |v: View| {
        assert!(v.stride == b && v.offset.is_multiple_of(len), "tiles must be contiguous {b} x {b} runs");
        v.offset / len
    };
    let mut slots: Vec<Slot<'m>> = storage.chunks_exact_mut(len).map(Slot::Free).collect();
    for task in tasks {
        for v in [task.b, task.c] {
            if v != task.a {
                slots[tile(v)].read();
            }
        }
    }
    let mut borrows = Vec::with_capacity(tasks.len());
    for &task in tasks {
        let a = slots[tile(task.a)].write();
        let b = (task.b != task.a).then(|| slots[tile(task.b)].read());
        let c = (task.c != task.a).then(|| slots[tile(task.c)].read());
        borrows.push(TileBorrow { task, a, b, c });
    }
    borrows
}

/// A task of the timed runs: the slice kernel on its tiles.
fn run_kernel(task: &mut TileBorrow<'_>, b: usize, kernel_calls: &Counter) {
    fwi_tiles(task.a, task.b, task.c, b);
    kernel_calls.incr();
}

/// Parallel tiled Floyd-Warshall with tile size `b` on `threads` threads.
/// Produces the same result as [`crate::fw_tiled`].
pub fn fw_tiled_parallel<L: ContiguousTiles>(m: &mut FwMatrix<L>, b: usize, threads: usize) {
    fw_tiled_parallel_observed(m, b, threads, &Registry::disabled());
}

/// [`fw_tiled_parallel`] reporting into `registry`: a `fw.parallel` root
/// span with one `block[t]` child per block iteration, and a
/// `fw.kernel_calls` counter shared across the scoped worker threads.
/// With a disabled registry every instrumentation point is a branch, so
/// this *is* the implementation behind [`fw_tiled_parallel`].
pub fn fw_tiled_parallel_observed<L: ContiguousTiles>(
    m: &mut FwMatrix<L>,
    b: usize,
    threads: usize,
    registry: &Registry,
) {
    assert!(threads >= 1, "need at least one thread");
    let root = registry.span("fw.parallel");
    let kernel_calls = registry.counter("fw.kernel_calls");
    let layout = m.layout().clone();
    let n = m.n();
    let mut block = None;
    for_each_phase(&layout, n, b, m.storage_mut(), |t, phase, tasks| {
        if phase == Phase::Diagonal {
            // Close block `t - 1`'s span before opening block `t`'s.
            drop(block.take());
            block = registry.is_enabled().then(|| root.child(&format!("block[{t}]")));
        }
        run_tasks_mut(tasks, threads, |_, task| run_kernel(task, b, &kernel_calls));
    });
}

/// [`fw_tiled_parallel`] with each phase run by a hand-rolled spawn loop
/// instead of [`cachegraph_plan::run_tasks_mut`]: the same phase loop,
/// split, kernel and chunking, so the `obs_overhead` dispatch budget
/// compares the two executors on identical work. Results are identical.
/// Not part of the public API surface.
#[doc(hidden)]
pub fn fw_tiled_parallel_handrolled<L: ContiguousTiles>(m: &mut FwMatrix<L>, b: usize, threads: usize) {
    assert!(threads >= 1, "need at least one thread");
    let kernel_calls = Registry::disabled().counter("fw.kernel_calls");
    let layout = m.layout().clone();
    let n = m.n();
    for_each_phase(&layout, n, b, m.storage_mut(), |_, _, tasks| {
        if tasks.is_empty() {
            return;
        }
        let workers = worker_count(tasks.len(), threads);
        if workers == 1 {
            for task in tasks {
                run_kernel(task, b, &kernel_calls);
            }
            return;
        }
        let chunk = tasks.len().div_ceil(workers);
        std::thread::scope(|s| {
            for slice in tasks.chunks_mut(chunk) {
                let kernel_calls = kernel_calls.clone();
                s.spawn(move || {
                    for task in slice {
                        run_kernel(task, b, &kernel_calls);
                    }
                });
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_iterative_slice;
    use cachegraph_graph::INF;
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

    /// Merging phases 2 and 3 of one block iteration is a race: phase 3
    /// reads the row and column tiles phase 2 writes. Such a plan cannot
    /// be split into borrows.
    #[test]
    #[should_panic(expected = "a phase writes a tile twice, or a tile one of its tasks reads")]
    fn a_merged_phase_cannot_be_split() {
        let layout = BlockLayout::new(12, 4);
        let planner = Planner::new(&layout, 12, 4);
        let (mut merged, mut phase3) = (Vec::new(), Vec::new());
        planner.phase2(0, &mut merged);
        planner.phase3(0, &mut phase3);
        merged.extend(phase3);
        let mut storage = vec![0; 12 * 12];
        split(&mut storage, &merged, 4);
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
