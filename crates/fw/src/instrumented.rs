//! Cache-simulated Floyd-Warshall runs (Tables 1, 2, 3).
//!
//! Each function builds the distance matrix in the appropriate layout,
//! places it in a simulated address space, and replays the *identical*
//! algorithm drivers used for real timing through a traced accessor, so
//! the miss counts describe the measured tile order exactly. Inside a
//! leaf tile the traced accessor runs the trait-default kernel in the
//! paper's cell order; the timed slice kernel touches the same cells
//! and gives the same bits in an order of its own (it fuses `k` for
//! disjoint tiles). The computed distances are returned alongside the
//! statistics — every simulation also validates correctness.

use cachegraph_graph::{Weight, INF};
use cachegraph_layout::{BlockLayout, Layout, RowMajor, ZMorton};
use cachegraph_obs::Registry;
use cachegraph_sim::{
    AddressSpace, CacheProfile, HierarchyConfig, HierarchyStats, MemoryHierarchy, ProfilerOptions,
    ScopeGuard, ScopeHandle, TracedBuffer,
};

use crate::kernel::{fwi_access, CellAccess, StridedView, View};
use crate::observed::FwEvent;
use crate::plan::{Planner, TileTask};
use crate::recursive::{run_recursive, run_recursive_with};
use crate::tiled::{run_tiled, run_tiled_with};

/// Result of a simulated FW run.
#[derive(Clone, Debug)]
pub struct FwSimResult {
    /// Cache/TLB counters from the run.
    pub stats: HierarchyStats,
    /// The computed all-pairs distances, row-major over the logical `n`.
    pub dist: Vec<Weight>,
}

/// Result of a simulated FW run with span-scoped cache attribution.
#[derive(Clone, Debug)]
pub struct FwProfiledResult {
    /// Aggregate cache/TLB counters from the run.
    pub stats: HierarchyStats,
    /// The computed all-pairs distances, row-major over the logical `n`.
    pub dist: Vec<Weight>,
    /// Per-scope attribution of the same counters; in exact mode its
    /// [`sum_self`](CacheProfile::sum_self) equals `stats` exactly, in
    /// sampled mode it is the scaled estimate (see
    /// [`CacheProfile::exact`]).
    pub profile: CacheProfile,
}

/// Accessor that routes every cell access through the cache simulator.
struct TracedAccess<'h> {
    buf: TracedBuffer<Weight>,
    hier: &'h mut MemoryHierarchy,
}

impl CellAccess for TracedAccess<'_> {
    #[inline]
    fn read(&mut self, idx: usize) -> Weight {
        self.buf.read(self.hier, idx)
    }

    #[inline]
    fn write(&mut self, idx: usize, v: Weight) {
        self.buf.write(self.hier, idx, v)
    }
}

/// Build the padded storage for `layout` from a row-major cost matrix:
/// `INF` padding, zero diagonal (including padded vertices).
fn padded_storage<L: Layout>(layout: &L, costs: &[Weight]) -> Vec<Weight> {
    let n = layout.n();
    assert_eq!(costs.len(), n * n, "cost matrix must be n*n");
    let mut data = vec![INF; layout.storage_len()];
    for i in 0..n {
        for j in 0..n {
            data[layout.index(i, j)] = costs[i * n + j];
        }
    }
    for v in 0..layout.padded_n() {
        data[layout.index(v, v)] = 0;
    }
    data
}

/// Read the logical distances back out of layout-ordered storage.
fn extract_dist<L: Layout>(layout: &L, data: &[Weight]) -> Vec<Weight> {
    let n = layout.n();
    let mut out = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            out.push(data[layout.index(i, j)]);
        }
    }
    out
}

fn run_traced_with<L: Layout>(
    layout: &L,
    costs: &[Weight],
    config: HierarchyConfig,
    classify: bool,
    f: impl FnOnce(&mut TracedAccess<'_>),
) -> FwSimResult {
    let data = padded_storage(layout, costs);
    let mut hier = if classify {
        MemoryHierarchy::new_classifying(config)
    } else {
        MemoryHierarchy::new(config)
    };
    let mut space = AddressSpace::new();
    let buf = space.adopt(data);
    let mut acc = TracedAccess { buf, hier: &mut hier };
    f(&mut acc);
    let dist = extract_dist(layout, acc.buf.as_slice());
    FwSimResult { stats: hier.stats(), dist }
}

fn run_traced<L: Layout>(
    layout: &L,
    costs: &[Weight],
    config: HierarchyConfig,
    f: impl FnOnce(&mut TracedAccess<'_>),
) -> FwSimResult {
    run_traced_with(layout, costs, config, false, f)
}

/// Like [`run_traced_with`], but with a cache-attribution profiler
/// attached before the driver runs. `label` names the profile and the
/// root scope; `options` selects the recording mode (exact or sampled)
/// and the miss-rate timeline interval, streamed through `registry`'s
/// JSONL sink as it is sampled. The driver closure receives the
/// [`ScopeHandle`] so it can scope sub-phases (e.g. one scope per tile
/// iteration). Profiled runs always classify L1 misses — the span
/// tree's `dominant` column needs it.
fn run_traced_profiled<L: Layout>(
    layout: &L,
    costs: &[Weight],
    config: HierarchyConfig,
    label: &str,
    options: ProfilerOptions,
    registry: &Registry,
    f: impl FnOnce(&mut TracedAccess<'_>, &ScopeHandle),
) -> FwProfiledResult {
    let data = padded_storage(layout, costs);
    let mut hier = MemoryHierarchy::new_classifying(config);
    let scope = hier.attach_profiler_with(label, options, registry);
    let mut space = AddressSpace::new();
    let buf = space.adopt(data);
    let mut acc = TracedAccess { buf, hier: &mut hier };
    {
        let _root = scope.enter(label);
        f(&mut acc, &scope);
    }
    let dist = extract_dist(layout, acc.buf.as_slice());
    let stats = hier.stats();
    let profile = match hier.take_profile() {
        Some(p) => p,
        None => unreachable!("profiler attached above"),
    };
    FwProfiledResult { stats, dist, profile }
}

/// [`sim_iterative`] with attribution: all traffic lands in one
/// `fw.iterative` scope, and the timeline shows the miss-rate phases of
/// the `k` sweep.
pub fn sim_iterative_profiled(
    costs: &[Weight],
    n: usize,
    config: HierarchyConfig,
    options: ProfilerOptions,
    registry: &Registry,
) -> FwProfiledResult {
    let layout = RowMajor::new(n);
    run_traced_profiled(&layout, costs, config, "fw.iterative", options, registry, |acc, _| {
        let v = View { offset: 0, stride: n };
        crate::kernel::fwi_access(acc, v, v, v, n);
    })
}

/// [`sim_recursive_morton`] with per-recursion-depth attribution: the
/// balanced `RecurseEnter`/`RecurseLeave` events drive a scope stack
/// whose paths nest one `depth[d]` segment per level
/// (`fw.recursive.morton/depth[0]/depth[1]/...`), so the profile's
/// subtree totals read as "traffic at depth ≥ d" and the deepest span
/// carries the base-case kernel traffic.
pub fn sim_recursive_morton_profiled(
    costs: &[Weight],
    n: usize,
    base: usize,
    config: HierarchyConfig,
    options: ProfilerOptions,
    registry: &Registry,
) -> FwProfiledResult {
    let layout = ZMorton::new(n, base);
    run_traced_profiled(
        &layout,
        costs,
        config,
        "fw.recursive.morton",
        options,
        registry,
        |acc, scope| {
            let mut chain = vec!["fw.recursive.morton".to_string()];
            let mut guards: Vec<ScopeGuard> = Vec::new();
            run_recursive_with(&layout, n, acc, base, &mut |ev| match ev {
                FwEvent::RecurseEnter(d) => {
                    let parent = &chain[chain.len() - 1];
                    let path = format!("{parent}/depth[{d}]");
                    guards.push(scope.enter(&path));
                    chain.push(path);
                }
                FwEvent::RecurseLeave(_) => {
                    chain.pop();
                    guards.pop();
                }
                _ => {}
            });
        },
    )
}

/// [`sim_tiled_bdl_classified`] with tile-granular attribution: the
/// `FwEvent::BlockStart` hook moves the active scope to
/// `fw.tiled.bdl/tile[t]` for each block iteration `t`, so the profile
/// splits misses across the `b`-sweep without touching the kernel
/// (`obs-purity` stays intact — attribution rides the existing hook).
pub fn sim_tiled_bdl_profiled(
    costs: &[Weight],
    n: usize,
    b: usize,
    config: HierarchyConfig,
    options: ProfilerOptions,
    registry: &Registry,
) -> FwProfiledResult {
    let layout = BlockLayout::new(n, b);
    run_traced_profiled(&layout, costs, config, "fw.tiled.bdl", options, registry, |acc, scope| {
        run_tiled_scoped(&layout, n, acc, b, scope, "fw.tiled.bdl");
    })
}

/// Run the tiled driver with one attribution scope per block iteration.
/// Scope paths use the literal `root` label (a disabled registry's spans
/// have empty paths, so attribution never derives paths from spans).
fn run_tiled_scoped<L: StridedView>(
    layout: &L,
    n: usize,
    acc: &mut TracedAccess<'_>,
    b: usize,
    scope: &ScopeHandle,
    root: &str,
) {
    let mut tile_scope: Option<ScopeGuard> = None;
    run_tiled_with(layout, n, acc, b, &mut |ev| {
        if let FwEvent::BlockStart(t) = ev {
            // Guard drop order is free (each guard removes itself from
            // the scope stack), so plain Option replacement is correct.
            tile_scope = Some(scope.enter(&format!("{root}/tile[{t}]")));
        }
    });
}

/// Cells of the parallel simulation's shared distance matrix: real
/// updates go through the raw pointer (the same phase-disjointness
/// argument as `fw::parallel`'s `SharedStorage`), while each worker
/// separately feeds its accesses to a private simulated hierarchy.
#[derive(Clone, Copy)]
struct SharedCells {
    ptr: *mut Weight,
    len: usize,
}

// SAFETY: the handle is a plain pointer+len pair with no interior state;
// all concurrent access goes through `read`/`write`, whose callers uphold
// the per-phase task disjointness (each A tile written by exactly one
// task per phase, B/C tiles only read).
unsafe impl Sync for SharedCells {}
// SAFETY: moving the handle to another thread transfers no aliasing
// obligations; soundness rests on the per-phase task disjointness, not on
// which thread holds the copy.
unsafe impl Send for SharedCells {}

impl SharedCells {
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

/// Base simulated address of the parallel run's shared matrix. Every
/// worker maps cell `idx` to the same address — private caches over one
/// shared array — and the page-aligned base keeps tile alignment
/// identical to the sequential sims.
const PARALLEL_SIM_BASE: u64 = 0x1000_0000;

/// Accessor for one parallel worker: cell values live in the shared
/// storage, cache behavior is simulated on the worker's private
/// hierarchy.
struct SharedSimAccess<'h> {
    cells: SharedCells,
    hier: &'h mut MemoryHierarchy,
}

impl<'h> SharedSimAccess<'h> {
    /// # Safety
    /// For this accessor's lifetime, no other thread may write any cell
    /// it reads nor touch any cell it writes (the planner's per-phase
    /// task disjointness).
    unsafe fn new(cells: SharedCells, hier: &'h mut MemoryHierarchy) -> Self {
        Self { cells, hier }
    }
}

impl CellAccess for SharedSimAccess<'_> {
    #[inline]
    fn read(&mut self, idx: usize) -> Weight {
        let size = std::mem::size_of::<Weight>();
        self.hier.read(PARALLEL_SIM_BASE + (idx * size) as u64, size);
        // SAFETY: disjointness upheld by the constructor's contract.
        unsafe { self.cells.read(idx) }
    }

    #[inline]
    fn write(&mut self, idx: usize, v: Weight) {
        let size = std::mem::size_of::<Weight>();
        self.hier.write(PARALLEL_SIM_BASE + (idx * size) as u64, size);
        // SAFETY: disjointness upheld by the constructor's contract.
        unsafe { self.cells.write(idx, v) }
    }
}

/// Run one parallel phase of the profiled simulation: `tasks` split
/// contiguously across the workers (the same `div_ceil` chunking as
/// `fw::parallel`), each worker simulating its share on its private
/// hierarchy under a `{label}/thread[w]` scope nested in the `{label}`
/// root. `std::thread::scope` joins every worker before returning — the
/// inter-phase barrier.
fn run_parallel_profiled(
    cells: SharedCells,
    tasks: &[TileTask],
    b: usize,
    label: &str,
    workers: &mut [(MemoryHierarchy, ScopeHandle)],
) {
    if tasks.is_empty() {
        return;
    }
    let active = workers.len().min(tasks.len()).max(1);
    let chunk = tasks.len().div_ceil(active);
    std::thread::scope(|s| {
        for (w, (slice, worker)) in tasks.chunks(chunk).zip(workers.iter_mut()).enumerate() {
            s.spawn(move || {
                let (hier, scope) = worker;
                let _root = scope.enter(label);
                let _thread = scope.enter(&format!("{label}/thread[{w}]"));
                // SAFETY: each task's A tile is written by exactly one
                // task in this phase; B/C tiles are only read and are not
                // any task's A tile in this phase (the plan-level
                // disjointness machine-checked by `cachegraph-check`).
                let mut acc = unsafe { SharedSimAccess::new(cells, hier) };
                for task in slice {
                    fwi_access(&mut acc, task.a, task.b, task.c, b);
                }
            });
        }
    });
}

/// Parallel tiled Floyd-Warshall (the three-phase plan of
/// [`fw_tiled_parallel`](crate::parallel::fw_tiled_parallel)) simulated
/// with one private cache hierarchy **and one attribution profiler per
/// worker**, merged when the scoped threads join. The model is
/// private-cache SMP: every worker simulates the same shared address
/// range on its own hierarchy, so the merged counters are the sum of
/// per-core traffic. The merged profile keeps one `{label}/thread[w]`
/// span per worker plus a `{label}/diag` span for the sequential
/// diagonal phase (simulated on worker 0); in exact mode its `sum_self`
/// equals the merged aggregate exactly.
pub fn sim_tiled_parallel_profiled(
    costs: &[Weight],
    n: usize,
    b: usize,
    threads: usize,
    config: HierarchyConfig,
    options: ProfilerOptions,
    registry: &Registry,
) -> FwProfiledResult {
    assert!(threads >= 1, "need at least one thread");
    let label = "fw.tiled.parallel";
    let layout = BlockLayout::new(n, b);
    let mut data = padded_storage(&layout, costs);
    let planner = Planner::new(&layout, n, b);
    let mut workers: Vec<(MemoryHierarchy, ScopeHandle)> = (0..threads)
        .map(|_| {
            let mut h = MemoryHierarchy::new_classifying(config.clone());
            let scope = h.attach_profiler_with(label, options, registry);
            (h, scope)
        })
        .collect();
    let cells = SharedCells { ptr: data.as_mut_ptr(), len: data.len() };
    let mut phase2 = Vec::new();
    let mut phase3 = Vec::new();
    for t in 0..planner.real_tiles() {
        {
            // Phase 1: the sequential diagonal tile, simulated on
            // worker 0 under a dedicated scope.
            let (hier, scope) = &mut workers[0];
            let diag = planner.phase1(t);
            let _root = scope.enter(label);
            let _diag = scope.enter(&format!("{label}/diag"));
            // SAFETY: no other thread is running.
            let mut acc = unsafe { SharedSimAccess::new(cells, hier) };
            fwi_access(&mut acc, diag.a, diag.b, diag.c, b);
        }
        planner.phase2(t, &mut phase2);
        run_parallel_profiled(cells, &phase2, b, label, &mut workers);
        planner.phase3(t, &mut phase3);
        run_parallel_profiled(cells, &phase3, b, label, &mut workers);
    }
    let mut stats: Option<HierarchyStats> = None;
    let mut parts = Vec::with_capacity(workers.len());
    for (mut hier, _scope) in workers {
        let s = hier.stats();
        match &mut stats {
            Some(acc) => acc.merge_from(&s),
            None => stats = Some(s),
        }
        match hier.take_profile() {
            Some(p) => parts.push(p),
            None => unreachable!("profiler attached to every worker"),
        }
    }
    let profile = match CacheProfile::merge(parts) {
        Some(p) => p,
        None => unreachable!("at least one worker"),
    };
    let stats = match stats {
        Some(s) => s,
        None => unreachable!("at least one worker"),
    };
    let dist = extract_dist(&layout, &data);
    FwProfiledResult { stats, dist, profile }
}

/// [`sim_tiled_bdl`] with three-Cs classification of the L1 misses
/// (`stats.l1_classes`) — used to show BDL eliminating the interference
/// misses (§3.1.2.2).
pub fn sim_tiled_bdl_classified(
    costs: &[Weight],
    n: usize,
    b: usize,
    config: HierarchyConfig,
) -> FwSimResult {
    let layout = BlockLayout::new(n, b);
    run_traced_with(&layout, costs, config, true, |acc| run_tiled(&layout, n, acc, b))
}

/// [`sim_tiled_rowmajor`] with three-Cs classification of the L1 misses.
pub fn sim_tiled_rowmajor_classified(
    costs: &[Weight],
    n: usize,
    b: usize,
    config: HierarchyConfig,
) -> FwSimResult {
    assert!(n.is_multiple_of(b), "row-major tiling requires b | n");
    let layout = RowMajor::new(n);
    run_traced_with(&layout, costs, config, true, |acc| run_tiled(&layout, n, acc, b))
}

/// Simulate the iterative baseline (row-major, Fig. 1).
pub fn sim_iterative(costs: &[Weight], n: usize, config: HierarchyConfig) -> FwSimResult {
    let layout = RowMajor::new(n);
    run_traced(&layout, costs, config, |acc| {
        let v = View { offset: 0, stride: n };
        crate::kernel::fwi_access(acc, v, v, v, n);
    })
}

/// Simulate the recursive implementation on the Z-Morton layout with the
/// given base-case tile size.
pub fn sim_recursive_morton(
    costs: &[Weight],
    n: usize,
    base: usize,
    config: HierarchyConfig,
) -> FwSimResult {
    let layout = ZMorton::new(n, base);
    run_traced(&layout, costs, config, |acc| run_recursive(&layout, n, acc, base))
}

/// Simulate the tiled implementation on the Block Data Layout.
pub fn sim_tiled_bdl(costs: &[Weight], n: usize, b: usize, config: HierarchyConfig) -> FwSimResult {
    let layout = BlockLayout::new(n, b);
    run_traced(&layout, costs, config, |acc| run_tiled(&layout, n, acc, b))
}

/// Simulate the tiled implementation on a **row-major** layout (the
/// configuration of [43] that Table 2 compares against BDL). `b` must
/// divide `n`.
pub fn sim_tiled_rowmajor(
    costs: &[Weight],
    n: usize,
    b: usize,
    config: HierarchyConfig,
) -> FwSimResult {
    assert!(n.is_multiple_of(b), "row-major tiling requires b | n");
    let layout = RowMajor::new(n);
    run_traced(&layout, costs, config, |acc| run_tiled(&layout, n, acc, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_iterative_slice;
    use cachegraph_sim::profiles;
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
    fn all_simulated_variants_compute_correct_distances() {
        let n = 16;
        let costs = random_costs(n, 0.3, 3);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);
        let cfg = profiles::simplescalar;
        assert_eq!(sim_iterative(&costs, n, cfg()).dist, expect);
        assert_eq!(sim_recursive_morton(&costs, n, 4, cfg()).dist, expect);
        assert_eq!(sim_tiled_bdl(&costs, n, 4, cfg()).dist, expect);
        assert_eq!(sim_tiled_rowmajor(&costs, n, 4, cfg()).dist, expect);
    }

    #[test]
    fn blocked_variants_miss_less_than_baseline() {
        // A matrix big enough to spill a tiny test cache: use a small
        // custom hierarchy so the effect is visible at n = 64.
        use cachegraph_sim::{CacheConfig, HierarchyConfig};
        let tiny = || HierarchyConfig {
            name: "tiny".into(),
            levels: vec![CacheConfig::new("L1", 4 * 1024, 32, 4)],
            tlb: None,
        };
        let n = 64;
        let costs = random_costs(n, 0.4, 9);
        let base = sim_iterative(&costs, n, tiny());
        let rec = sim_recursive_morton(&costs, n, 16, tiny());
        let tiled = sim_tiled_bdl(&costs, n, 16, tiny());
        let m0 = base.stats.levels[0].misses;
        assert!(
            rec.stats.levels[0].misses < m0,
            "recursive should miss less: {} vs {}",
            rec.stats.levels[0].misses,
            m0
        );
        assert!(
            tiled.stats.levels[0].misses < m0,
            "tiled should miss less: {} vs {}",
            tiled.stats.levels[0].misses,
            m0
        );
    }

    #[test]
    fn bdl_reduces_conflict_misses_vs_rowmajor_tiling() {
        // §3.1.2.2: with the same tile size, the contiguous blocked layout
        // removes self/cross-interference misses that the strided
        // row-major tiles suffer.
        let n = 64;
        let b = 16;
        let costs = random_costs(n, 0.4, 4);
        use cachegraph_sim::{CacheConfig, HierarchyConfig};
        // A small direct-mapped L1 makes interference visible.
        let tiny = || HierarchyConfig {
            name: "dm".into(),
            levels: vec![CacheConfig::new("L1", 2 * 1024, 32, 1)],
            tlb: None,
        };
        let rw = sim_tiled_rowmajor_classified(&costs, n, b, tiny());
        let bd = sim_tiled_bdl_classified(&costs, n, b, tiny());
        assert_eq!(rw.dist, bd.dist);
        let rw_conflict = rw.stats.l1_classes.expect("classified").conflict;
        let bd_conflict = bd.stats.l1_classes.expect("classified").conflict;
        assert!(
            bd_conflict < rw_conflict,
            "BDL should reduce conflict misses: {bd_conflict} vs {rw_conflict}"
        );
    }

    /// Exact attribution with a miss-rate timeline every `interval` L1
    /// accesses — what the pre-sampling profiled entry points did.
    fn exact_tl(interval: u64) -> ProfilerOptions {
        ProfilerOptions { sample_period_log2: 0, timeline_interval: interval }
    }

    #[test]
    fn profiled_variants_compute_correct_distances() {
        let n = 16;
        let costs = random_costs(n, 0.3, 7);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);
        let cfg = profiles::simplescalar;
        let reg = Registry::disabled();
        assert_eq!(sim_iterative_profiled(&costs, n, cfg(), exact_tl(1024), &reg).dist, expect);
        assert_eq!(
            sim_recursive_morton_profiled(&costs, n, 4, cfg(), exact_tl(1024), &reg).dist,
            expect
        );
        assert_eq!(sim_tiled_bdl_profiled(&costs, n, 4, cfg(), exact_tl(1024), &reg).dist, expect);
        for threads in [1, 2, 4] {
            assert_eq!(
                sim_tiled_parallel_profiled(
                    &costs,
                    n,
                    4,
                    threads,
                    cfg(),
                    exact_tl(0),
                    &reg
                )
                .dist,
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn tiled_profile_self_stats_sum_to_aggregate_exactly() {
        let n = 32;
        let b = 8;
        let costs = random_costs(n, 0.3, 11);
        let reg = Registry::disabled();
        let r = sim_tiled_bdl_profiled(&costs, n, b, profiles::simplescalar(), exact_tl(512), &reg);

        // The attribution must account for every counter: summing the
        // per-scope self stats reproduces the aggregate field-for-field.
        assert_eq!(r.profile.sum_self(), r.stats);

        // The root scope's subtree total likewise covers the whole run.
        let root = r.profile.find("fw.tiled.bdl").expect("root scope present");
        assert_eq!(root.total_stats, r.stats);

        // One scope per block iteration rode the BlockStart hook.
        let tiles = n / b;
        let tile_spans = r
            .profile
            .spans
            .iter()
            .filter(|s| s.path.starts_with("fw.tiled.bdl/tile["))
            .count();
        assert_eq!(tile_spans, tiles);

        // Timeline deltas are complete: they sum to the aggregate L1 row.
        let l1 = &r.stats.levels[0];
        let t_acc: u64 = r.profile.timeline.iter().map(|s| s.accesses).sum();
        let t_miss: u64 = r.profile.timeline.iter().map(|s| s.l1_misses).sum();
        assert_eq!(t_acc, l1.accesses);
        assert_eq!(t_miss, l1.misses);
    }

    #[test]
    fn profiled_run_matches_unprofiled_counters() {
        // Attribution observes the simulation; it must not perturb it.
        let n = 24;
        let costs = random_costs(n, 0.35, 13);
        let plain = sim_tiled_bdl_classified(&costs, n, 8, profiles::simplescalar());
        let prof = sim_tiled_bdl_profiled(
            &costs,
            n,
            8,
            profiles::simplescalar(),
            exact_tl(4096),
            &Registry::disabled(),
        );
        assert_eq!(plain.stats, prof.stats);
        assert_eq!(plain.dist, prof.dist);
    }

    #[test]
    fn sampled_profiled_run_does_not_perturb_the_simulation() {
        // Sampling changes what the profiler records, never what the
        // hierarchy simulates: aggregate counters and distances stay
        // bit-identical, and the sampled estimate stays within one
        // period of each true L1 counter.
        let n = 24;
        let costs = random_costs(n, 0.35, 17);
        let plain = sim_tiled_bdl_classified(&costs, n, 8, profiles::simplescalar());
        let opts = ProfilerOptions { sample_period_log2: 4, timeline_interval: 0 };
        let prof = sim_tiled_bdl_profiled(
            &costs,
            n,
            8,
            profiles::simplescalar(),
            opts,
            &Registry::disabled(),
        );
        assert_eq!(plain.stats, prof.stats);
        assert_eq!(plain.dist, prof.dist);
        assert!(!prof.profile.exact);
        assert_eq!(prof.profile.sample_period, 16);
        let est = prof.profile.sum_self();
        let l1 = &prof.stats.levels[0];
        assert!(
            est.levels[0].accesses.abs_diff(l1.accesses) < 16,
            "estimate {} vs true {}",
            est.levels[0].accesses,
            l1.accesses
        );
    }

    #[test]
    fn recursive_profile_attributes_misses_by_depth() {
        let n = 16;
        let base = 4; // 4x4 tile grid -> recursion depths 0, 1, 2
        let costs = random_costs(n, 0.3, 19);
        let r = sim_recursive_morton_profiled(
            &costs,
            n,
            base,
            profiles::simplescalar(),
            exact_tl(0),
            &Registry::disabled(),
        );
        assert_eq!(r.profile.sum_self(), r.stats);
        let d0 = "fw.recursive.morton/depth[0]";
        let d1 = "fw.recursive.morton/depth[0]/depth[1]";
        let d2 = "fw.recursive.morton/depth[0]/depth[1]/depth[2]";
        // Every depth shows up; subtree totals read "traffic at depth >= d".
        assert_eq!(r.profile.find(d0).expect("depth 0").total_stats, r.stats);
        assert_eq!(r.profile.find(d1).expect("depth 1").total_stats, r.stats);
        // All data traffic happens in the base-case kernels, i.e. at the
        // deepest level.
        let deepest = r.profile.find(d2).expect("depth 2");
        assert_eq!(deepest.self_stats.levels[0].accesses, r.stats.levels[0].accesses);
    }

    #[test]
    fn parallel_profiled_merge_is_exact_and_correct() {
        let n = 32;
        let b = 8;
        let costs = random_costs(n, 0.3, 23);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);
        for threads in [1, 2, 4] {
            let r = sim_tiled_parallel_profiled(
                &costs,
                n,
                b,
                threads,
                profiles::simplescalar(),
                ProfilerOptions::exact(),
                &Registry::disabled(),
            );
            assert_eq!(r.dist, expect, "threads={threads}");
            // The acceptance invariant: the merged profile's sum of
            // per-scope self stats equals the merged run aggregate
            // exactly in exact mode, for every thread count.
            assert!(r.profile.exact);
            assert_eq!(r.profile.sum_self(), r.stats, "threads={threads}");
            // The root span's subtree covers the whole run, and the
            // per-thread + diag structure is present.
            let root = r.profile.find("fw.tiled.parallel").expect("root span");
            assert_eq!(root.total_stats, r.stats);
            assert!(r.profile.find("fw.tiled.parallel/diag").is_some());
            assert!(r.profile.find("fw.tiled.parallel/thread[0]").is_some());
            let thread_spans = r
                .profile
                .spans
                .iter()
                .filter(|s| s.path.starts_with("fw.tiled.parallel/thread["))
                .count();
            assert!(
                thread_spans <= threads && thread_spans >= 1,
                "threads={threads}: {thread_spans} thread spans"
            );
        }
    }

    #[test]
    fn parallel_profiled_matches_sequential_tiled_traffic() {
        // One worker's parallel simulation visits the same tiles as the
        // sequential tiled driver (phases reorder the t-iteration but
        // not its reads/writes), so total L1 accesses must agree.
        let n = 16;
        let b = 4;
        let costs = random_costs(n, 0.4, 29);
        let seq = sim_tiled_bdl_classified(&costs, n, b, profiles::simplescalar());
        let par = sim_tiled_parallel_profiled(
            &costs,
            n,
            b,
            1,
            profiles::simplescalar(),
            ProfilerOptions::exact(),
            &Registry::disabled(),
        );
        assert_eq!(par.stats.levels[0].accesses, seq.stats.levels[0].accesses);
        assert_eq!(par.dist, seq.dist);
    }

    #[test]
    fn accesses_scale_with_n_cubed() {
        let n = 16;
        let costs = random_costs(n, 1.0, 1);
        let r = sim_iterative(&costs, n, profiles::simplescalar());
        // Dense graph: ~3 accesses per (k, i, j) step plus row reads.
        let accesses = r.stats.levels[0].accesses;
        let n3 = (n * n * n) as u64;
        assert!(accesses >= n3, "expected at least n^3 accesses, got {accesses}");
        assert!(accesses <= 4 * n3, "unexpectedly many accesses: {accesses}");
    }
}
