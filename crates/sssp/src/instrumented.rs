//! Cache-simulated Dijkstra and Prim (Tables 6 and 7).
//!
//! The paper's simulations count *all* data accesses of the program, so
//! the instrumented runs trace every load/store of:
//!
//! * the graph representation (CSR offsets + arcs, or list heads + arena
//!   nodes — the experimental variable);
//! * the distance/key and predecessor arrays;
//! * the binary heap (slot array and position map).
//!
//! Only loop counters and scalars live outside the simulated address
//! space, mirroring register-allocated locals.

use cachegraph_graph::{AdjacencyArray, AdjacencyList, VertexId, Weight, INF};
use cachegraph_obs::Registry;
use cachegraph_sim::{
    AddressSpace, CacheProfile, HierarchyConfig, HierarchyStats, MemoryHierarchy, ProfilerOptions,
    TracedBuffer,
};

use crate::NO_VERTEX;

/// Result of one simulated run.
#[derive(Clone, Debug)]
pub struct SsspSimResult {
    /// Cache/TLB counters.
    pub stats: HierarchyStats,
    /// Final key per vertex: shortest distance (Dijkstra) or connecting
    /// edge weight (Prim); `INF` when unreached.
    pub keys: Vec<Weight>,
    /// Sum of extracted finite keys (for Prim this is the MST weight).
    pub total: u64,
    /// Span-scoped cache attribution (`init` vs `main_loop`), present
    /// only on the `*_profiled` entry points.
    pub profile: Option<CacheProfile>,
}

/// Which algorithm the shared driver runs; they differ only in the key
/// a neighbour is updated with (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Update with `dist(u) + w(u, v)`.
    Dijkstra,
    /// Update with `w(u, v)`.
    Prim,
}

const ABSENT: u32 = u32::MAX;
const CONSUMED: u32 = u32::MAX - 1;

/// An indexed binary heap whose storage lives in the simulated address
/// space. Mirrors `cachegraph_pq::IndexedBinaryHeap` operation-for-
/// operation so the traced access pattern is the real heap's pattern.
struct TracedHeap {
    /// `(key, item)` pairs in heap order.
    slots: TracedBuffer<(Weight, VertexId)>,
    pos: TracedBuffer<u32>,
    len: usize,
}

impl TracedHeap {
    fn new(space: &mut AddressSpace, capacity: usize) -> Self {
        let slots = space.alloc_traced::<(Weight, VertexId)>(capacity);
        let mut pos = space.alloc_traced::<u32>(capacity);
        pos.as_mut_slice().fill(ABSENT);
        Self { slots, pos, len: 0 }
    }

    fn insert(&mut self, h: &mut MemoryHierarchy, item: VertexId, key: Weight) {
        debug_assert_eq!(self.pos.as_slice()[item as usize], ABSENT);
        let i = self.len;
        self.len += 1;
        self.slots.write(h, i, (key, item));
        self.pos.write(h, item as usize, i as u32);
        self.sift_up(h, i);
    }

    fn extract_min(&mut self, h: &mut MemoryHierarchy) -> Option<(VertexId, Weight)> {
        if self.len == 0 {
            return None;
        }
        let (key, item) = self.slots.read(h, 0);
        self.pos.write(h, item as usize, CONSUMED);
        self.len -= 1;
        if self.len > 0 {
            let last = self.slots.read(h, self.len);
            self.slots.write(h, 0, last);
            self.pos.write(h, last.1 as usize, 0);
            self.sift_down(h, 0);
        }
        Some((item, key))
    }

    fn decrease_key(&mut self, h: &mut MemoryHierarchy, item: VertexId, new_key: Weight) -> bool {
        let p = self.pos.read(h, item as usize);
        if p == ABSENT || p == CONSUMED {
            return false;
        }
        let i = p as usize;
        let (key, _) = self.slots.read(h, i);
        if key <= new_key {
            return false;
        }
        self.slots.write(h, i, (new_key, item));
        self.sift_up(h, i);
        true
    }

    fn sift_up(&mut self, h: &mut MemoryHierarchy, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.slots.read(h, parent);
            let iv = self.slots.read(h, i);
            if pv.0 <= iv.0 {
                break;
            }
            self.slots.write(h, i, pv);
            self.slots.write(h, parent, iv);
            self.pos.write(h, pv.1 as usize, i as u32);
            self.pos.write(h, iv.1 as usize, parent as u32);
            i = parent;
        }
    }

    fn sift_down(&mut self, h: &mut MemoryHierarchy, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            if l >= self.len {
                break;
            }
            let r = l + 1;
            let lv = self.slots.read(h, l);
            let child = if r < self.len {
                let rv = self.slots.read(h, r);
                if rv.0 < lv.0 { r } else { l }
            } else {
                l
            };
            let cv = self.slots.read(h, child);
            let iv = self.slots.read(h, i);
            if iv.0 <= cv.0 {
                break;
            }
            self.slots.write(h, i, cv);
            self.slots.write(h, child, iv);
            self.pos.write(h, cv.1 as usize, i as u32);
            self.pos.write(h, iv.1 as usize, child as u32);
            i = child;
        }
    }
}

/// Traced neighbour iteration, abstracting the two representations.
trait TracedGraph {
    fn num_vertices(&self) -> usize;
    /// Visit `(neighbour, weight)` pairs of `u`, tracing every access.
    fn for_neighbors(
        &self,
        h: &mut MemoryHierarchy,
        u: VertexId,
        f: &mut dyn FnMut(&mut MemoryHierarchy, VertexId, Weight),
    );
}

/// CSR in simulated memory: one offsets array, one packed arc array.
struct TracedArray {
    offsets: TracedBuffer<u32>,
    arcs: TracedBuffer<(u32, u32)>,
}

impl TracedArray {
    fn build(space: &mut AddressSpace, g: &AdjacencyArray) -> Self {
        let offsets = space.adopt(g.offsets().to_vec());
        let arcs = space.adopt(g.arcs().iter().map(|a| (a.to, a.weight)).collect());
        Self { offsets, arcs }
    }
}

impl TracedGraph for TracedArray {
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn for_neighbors(
        &self,
        h: &mut MemoryHierarchy,
        u: VertexId,
        f: &mut dyn FnMut(&mut MemoryHierarchy, VertexId, Weight),
    ) {
        let lo = self.offsets.read(h, u as usize) as usize;
        let hi = self.offsets.read(h, u as usize + 1) as usize;
        for i in lo..hi {
            let (to, w) = self.arcs.read(h, i);
            f(h, to, w);
        }
    }
}

/// Arena linked list in simulated memory: heads plus 12-byte nodes laid
/// out in *insertion* order — the pointer-chasing baseline.
struct TracedList {
    heads: TracedBuffer<u32>,
    /// `(to, weight, next)` — same footprint as `ListNode`.
    nodes: TracedBuffer<(u32, u32, u32)>,
}

impl TracedList {
    fn build(space: &mut AddressSpace, g: &AdjacencyList) -> Self {
        let heads = space.adopt(g.heads().to_vec());
        let nodes = space.adopt(g.nodes().iter().map(|n| (n.to, n.weight, n.next)).collect());
        Self { heads, nodes }
    }
}

impl TracedGraph for TracedList {
    fn num_vertices(&self) -> usize {
        self.heads.len()
    }

    fn for_neighbors(
        &self,
        h: &mut MemoryHierarchy,
        u: VertexId,
        f: &mut dyn FnMut(&mut MemoryHierarchy, VertexId, Weight),
    ) {
        let mut cur = self.heads.read(h, u as usize);
        while cur != cachegraph_graph::NIL {
            let (to, w, next) = self.nodes.read(h, cur as usize);
            f(h, to, w);
            cur = next;
        }
    }
}

/// Observability wiring for one simulated run: the registry spans and
/// counters report into, the root span/scope name, and — when the
/// attribution profiler should attach — its [`ProfilerOptions`]
/// (the timeline interval).
struct RunObs<'a> {
    registry: &'a Registry,
    span_name: &'a str,
    profiler: Option<ProfilerOptions>,
}

/// The shared Dijkstra/Prim driver over a traced graph. Reports into
/// `registry` under a root span named `span_name` (e.g. `dijkstra.array`)
/// with `init` / `main_loop` children and the `sssp.relaxations` /
/// `sssp.decrease_keys` / `sssp.extract_mins` counters; a disabled
/// registry reduces every instrumentation point to a branch.
fn sim_run<G: TracedGraph>(
    space: &mut AddressSpace,
    g: &G,
    source: VertexId,
    algo: Algo,
    config: HierarchyConfig,
    obs: RunObs<'_>,
) -> SsspSimResult {
    let RunObs { registry, span_name, profiler } = obs;
    let root = registry.span(span_name);
    let relaxations = registry.counter("sssp.relaxations");
    let decrease_keys = registry.counter("sssp.decrease_keys");
    let extract_mins = registry.counter("sssp.extract_mins");
    let n = g.num_vertices();
    let mut hier = MemoryHierarchy::new(config);
    // Attribution scopes mirror the span tree exactly (literal paths:
    // a disabled registry's spans carry empty paths).
    let scope = profiler.map(|opts| hier.attach_profiler_with(span_name, opts, registry));
    let _root_scope = scope.as_ref().map(|s| s.enter(span_name));
    let h = &mut hier;
    let mut keys = space.alloc_traced::<Weight>(n);
    keys.as_mut_slice().fill(INF);
    let mut pred = space.alloc_traced::<u32>(n);
    pred.as_mut_slice().fill(NO_VERTEX);
    let mut q = TracedHeap::new(space, n);
    {
        let _init = root.child("init");
        let _init_scope = scope.as_ref().map(|s| s.enter(&format!("{span_name}/init")));
        for v in 0..n as VertexId {
            q.insert(h, v, if v == source { 0 } else { INF });
        }
        keys.write(h, source as usize, 0);
    }
    let _main = root.child("main_loop");
    let _main_scope = scope.as_ref().map(|s| s.enter(&format!("{span_name}/main_loop")));
    let mut total = 0u64;
    while let Some((u, ku)) = q.extract_min(h) {
        extract_mins.incr();
        if ku == INF {
            break;
        }
        total += ku as u64;
        keys.write(h, u as usize, ku);
        g.for_neighbors(h, u, &mut |h, v, w| {
            relaxations.incr();
            let nk = match algo {
                Algo::Dijkstra => ku.saturating_add(w),
                Algo::Prim => w,
            };
            if q.decrease_key(h, v, nk) {
                decrease_keys.incr();
                pred.write(h, v as usize, u);
                keys.write(h, v as usize, nk);
            }
        });
    }
    drop(_main_scope);
    let stats = hier.stats();
    let profile = hier.take_profile();
    SsspSimResult { stats, keys: keys.into_inner(), total, profile }
}

/// Simulated Dijkstra over the adjacency array (CSR).
pub fn sim_dijkstra_adj_array(
    g: &AdjacencyArray,
    source: VertexId,
    config: HierarchyConfig,
) -> SsspSimResult {
    sim_dijkstra_adj_array_observed(g, source, config, &Registry::disabled())
}

/// [`sim_dijkstra_adj_array`] reporting spans and counters into `registry`.
pub fn sim_dijkstra_adj_array_observed(
    g: &AdjacencyArray,
    source: VertexId,
    config: HierarchyConfig,
    registry: &Registry,
) -> SsspSimResult {
    let mut space = AddressSpace::new();
    let tg = TracedArray::build(&mut space, g);
    sim_run(&mut space, &tg, source, Algo::Dijkstra, config, RunObs { registry, span_name: "dijkstra.array", profiler: None })
}

/// [`sim_dijkstra_adj_array_observed`] with span-scoped cache
/// attribution under the given [`ProfilerOptions`] (the miss-rate
/// timeline interval); the result's `profile` splits the counters
/// between the heap-building `init` scope and the `main_loop`
/// relaxation scope.
pub fn sim_dijkstra_adj_array_profiled(
    g: &AdjacencyArray,
    source: VertexId,
    config: HierarchyConfig,
    options: ProfilerOptions,
    registry: &Registry,
) -> SsspSimResult {
    let mut space = AddressSpace::new();
    let tg = TracedArray::build(&mut space, g);
    sim_run(&mut space, &tg, source, Algo::Dijkstra, config, RunObs { registry, span_name: "dijkstra.array", profiler: Some(options) })
}

/// Simulated Dijkstra over the arena adjacency list.
pub fn sim_dijkstra_adj_list(
    g: &AdjacencyList,
    source: VertexId,
    config: HierarchyConfig,
) -> SsspSimResult {
    sim_dijkstra_adj_list_observed(g, source, config, &Registry::disabled())
}

/// [`sim_dijkstra_adj_list`] reporting spans and counters into `registry`.
pub fn sim_dijkstra_adj_list_observed(
    g: &AdjacencyList,
    source: VertexId,
    config: HierarchyConfig,
    registry: &Registry,
) -> SsspSimResult {
    let mut space = AddressSpace::new();
    let tg = TracedList::build(&mut space, g);
    sim_run(&mut space, &tg, source, Algo::Dijkstra, config, RunObs { registry, span_name: "dijkstra.list", profiler: None })
}

/// [`sim_dijkstra_adj_list_observed`] with span-scoped cache attribution
/// and a miss-rate timeline (see [`sim_dijkstra_adj_array_profiled`]).
pub fn sim_dijkstra_adj_list_profiled(
    g: &AdjacencyList,
    source: VertexId,
    config: HierarchyConfig,
    options: ProfilerOptions,
    registry: &Registry,
) -> SsspSimResult {
    let mut space = AddressSpace::new();
    let tg = TracedList::build(&mut space, g);
    sim_run(&mut space, &tg, source, Algo::Dijkstra, config, RunObs { registry, span_name: "dijkstra.list", profiler: Some(options) })
}

/// Simulated Prim over the adjacency array (CSR).
pub fn sim_prim_adj_array(
    g: &AdjacencyArray,
    root: VertexId,
    config: HierarchyConfig,
) -> SsspSimResult {
    let mut space = AddressSpace::new();
    let tg = TracedArray::build(&mut space, g);
    let obs = RunObs { registry: &Registry::disabled(), span_name: "prim.array", profiler: None };
    sim_run(&mut space, &tg, root, Algo::Prim, config, obs)
}

/// Simulated Prim over the arena adjacency list.
pub fn sim_prim_adj_list(
    g: &AdjacencyList,
    root: VertexId,
    config: HierarchyConfig,
) -> SsspSimResult {
    let mut space = AddressSpace::new();
    let tg = TracedList::build(&mut space, g);
    let obs = RunObs { registry: &Registry::disabled(), span_name: "prim.list", profiler: None };
    sim_run(&mut space, &tg, root, Algo::Prim, config, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra_binary_heap, prim_binary_heap};
    use cachegraph_graph::generators;
    use cachegraph_sim::profiles;

    #[test]
    fn simulated_dijkstra_computes_real_distances() {
        let b = generators::random_directed(80, 0.15, 50, 11);
        let arr = b.build_array();
        let expect = dijkstra_binary_heap(&arr, 0).dist;
        let sim_a = sim_dijkstra_adj_array(&arr, 0, profiles::simplescalar());
        let sim_l = sim_dijkstra_adj_list(&b.build_list(), 0, profiles::simplescalar());
        assert_eq!(sim_a.keys, expect);
        assert_eq!(sim_l.keys, expect);
    }

    #[test]
    fn simulated_prim_matches_real_mst_weight() {
        let mut b = generators::random_undirected(60, 0.2, 30, 5);
        generators::connect(&mut b, 30, 5);
        let arr = b.build_array();
        let expect = prim_binary_heap(&arr, 0).total_weight;
        let sim_a = sim_prim_adj_array(&arr, 0, profiles::simplescalar());
        let sim_l = sim_prim_adj_list(&b.build_list(), 0, profiles::simplescalar());
        assert_eq!(sim_a.total, expect);
        assert_eq!(sim_l.total, expect);
    }

    #[test]
    fn observed_run_counts_relaxations_and_spans() {
        let b = generators::random_directed(120, 0.1, 50, 7);
        let arr = b.build_array();
        let reg = cachegraph_obs::Registry::new();
        let observed = sim_dijkstra_adj_array_observed(&arr, 0, profiles::simplescalar(), &reg);
        let plain = sim_dijkstra_adj_array(&arr, 0, profiles::simplescalar());
        assert_eq!(observed.keys, plain.keys, "instrumentation must not change results");

        let snap = reg.snapshot();
        let relaxations = *snap.counters.get("sssp.relaxations").expect("relaxations");
        let decreases = *snap.counters.get("sssp.decrease_keys").expect("decrease_keys");
        let extracts = *snap.counters.get("sssp.extract_mins").expect("extract_mins");
        assert!(relaxations > 0);
        assert!(decreases <= relaxations, "{decreases} decrease-keys of {relaxations} relaxations");
        assert!(extracts as usize <= b.num_vertices());
        // Spans: init and main_loop children finish before the root.
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["dijkstra.array/init", "dijkstra.array/main_loop", "dijkstra.array"]);
        // The main loop owns all the relaxation work.
        assert_eq!(snap.spans[1].counters.get("sssp.relaxations"), Some(&relaxations));
    }

    #[test]
    fn profiled_run_attributes_init_and_main_loop_exactly() {
        let b = generators::random_directed(200, 0.08, 50, 21);
        let arr = b.build_array();
        let reg = cachegraph_obs::Registry::disabled();
        let prof = sim_dijkstra_adj_array_profiled(
            &arr,
            0,
            profiles::simplescalar(),
            ProfilerOptions { timeline_interval: 1024 },
            &reg,
        );
        let plain = sim_dijkstra_adj_array(&arr, 0, profiles::simplescalar());
        assert_eq!(prof.keys, plain.keys, "attribution must not change results");
        assert_eq!(prof.stats, plain.stats, "attribution must not perturb the simulation");
        assert!(plain.profile.is_none(), "unprofiled runs carry no profile");

        let profile = prof.profile.expect("profiled run has a profile");
        assert_eq!(profile.sum_self(), prof.stats);
        let paths: Vec<&str> = profile.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            ["dijkstra.array", "dijkstra.array/init", "dijkstra.array/main_loop"]
        );
        // Heap setup is a tiny fraction of the relaxation work.
        let init = profile.find("dijkstra.array/init").expect("init scope");
        let main = profile.find("dijkstra.array/main_loop").expect("main scope");
        assert!(init.self_stats.levels[0].accesses < main.self_stats.levels[0].accesses);
        // The root's subtree total covers the whole run.
        let root = profile.find("dijkstra.array").expect("root scope");
        assert_eq!(root.total_stats, prof.stats);
    }

    #[test]
    fn adjacency_array_misses_less_than_list() {
        // The headline effect of §3.2: same graph, same algorithm, same
        // heap — only the representation changes.
        let b = generators::random_directed(2000, 0.05, 50, 42);
        let arr_r = sim_dijkstra_adj_array(&b.build_array(), 0, profiles::simplescalar());
        let list_r = sim_dijkstra_adj_list(&b.build_list(), 0, profiles::simplescalar());
        assert_eq!(arr_r.keys, list_r.keys, "must compute identical results");
        let arr_misses = arr_r.stats.levels[1].misses;
        let list_misses = list_r.stats.levels[1].misses;
        assert!(
            arr_misses < list_misses,
            "adjacency array should miss less in L2: {arr_misses} vs {list_misses}"
        );
    }
}
