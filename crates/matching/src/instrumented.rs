//! Cache-simulated matching runs (Table 8).
//!
//! Both phases of both implementations run entirely on traced storage:
//! CSR offsets and targets, the mate array, and the BFS machinery (queue,
//! parent array, visit stamps). The partitioned variant allocates each
//! sub-problem's structures in the same simulated address space, so the
//! working-set contraction the paper relies on is exactly what the
//! simulator sees.

use cachegraph_graph::{AdjacencyArray, Edge, VertexId};
use cachegraph_obs::{Counter, Registry};
use cachegraph_sim::{
    AddressSpace, CacheProfile, HierarchyConfig, HierarchyStats, MemoryHierarchy, ProfilerOptions,
    TracedBuffer,
};

use crate::partitioned::PartitionScheme;
use crate::FREE;

/// Result of one simulated matching run.
#[derive(Clone, Debug)]
pub struct MatchSimResult {
    /// Cache/TLB counters.
    pub stats: HierarchyStats,
    /// Size of the matching found (always maximum — validated in tests).
    pub size: usize,
    /// Span-scoped cache attribution (`local[k]` sub-problems vs the
    /// `global` clean-up pass), present only on `*_profiled` runs.
    pub profile: Option<CacheProfile>,
}

/// CSR arrays for one (sub-)problem, in simulated memory.
struct TracedCsr {
    offsets: TracedBuffer<u32>,
    targets: TracedBuffer<u32>,
}

impl TracedCsr {
    fn build(space: &mut AddressSpace, n: usize, n_left: usize, edges: &[Edge]) -> Self {
        // Build untraced (construction is O(E) against the algorithm's
        // O(N·E); the paper measures the matching computation itself).
        let mut degree = vec![0u32; n + 1];
        for e in edges {
            degree[e.from as usize + 1] += 1;
        }
        for v in 0..n {
            degree[v + 1] += degree[v];
        }
        let mut cursor = degree.clone();
        let mut targets = vec![0u32; edges.len()];
        for e in edges {
            let c = &mut cursor[e.from as usize];
            targets[*c as usize] = e.to;
            *c += 1;
        }
        let _ = n_left;
        Self { offsets: space.adopt(degree), targets: space.adopt(targets) }
    }
}

/// The traced augmenting-path matcher, mirroring the faithful baseline
/// `crate::find_matching` operation-for-operation: one whole-graph BFS
/// (from all free left vertices) per augmentation, visit marks cleared
/// before every search — the `O(N·E)` behaviour the paper measures.
struct TracedMatcher {
    mate: TracedBuffer<u32>,
    parent: TracedBuffer<u32>,
    visited: TracedBuffer<u8>,
    queue: TracedBuffer<u32>,
    size: usize,
}

impl TracedMatcher {
    fn new(space: &mut AddressSpace, n: usize, initial_mate: Vec<u32>, size: usize) -> Self {
        assert_eq!(initial_mate.len(), n);
        Self {
            mate: space.adopt(initial_mate),
            parent: space.alloc_traced(n),
            visited: space.alloc_traced(n),
            queue: space.alloc_traced(n),
            size,
        }
    }

    /// Run to a maximum matching. `searches` counts BFS phases (one per
    /// loop iteration, including the final failed one); `aug_paths`
    /// counts successful augmentations. Disabled counters cost a branch.
    fn run(
        &mut self,
        h: &mut MemoryHierarchy,
        g: &TracedCsr,
        n_left: usize,
        searches: &Counter,
        aug_paths: &Counter,
    ) {
        let n = self.mate.len();
        loop {
            searches.incr();
            // Clear marks and seed the BFS with every free left vertex.
            for v in 0..n {
                self.visited.write(h, v, 0);
            }
            let mut len = 0usize;
            for u in 0..n_left {
                if self.mate.read(h, u) == FREE {
                    self.visited.write(h, u, 1);
                    self.queue.write(h, len, u as VertexId);
                    len += 1;
                }
            }
            let mut head = 0usize;
            let mut endpoint = None;
            'search: while head < len {
                let u = self.queue.read(h, head);
                head += 1;
                let lo = g.offsets.read(h, u as usize) as usize;
                let hi = g.offsets.read(h, u as usize + 1) as usize;
                for i in lo..hi {
                    let r = g.targets.read(h, i);
                    if self.visited.read(h, r as usize) != 0 {
                        continue;
                    }
                    self.visited.write(h, r as usize, 1);
                    self.parent.write(h, r as usize, u);
                    let rm = self.mate.read(h, r as usize);
                    if rm == FREE {
                        endpoint = Some(r);
                        break 'search;
                    }
                    if self.visited.read(h, rm as usize) == 0 {
                        self.visited.write(h, rm as usize, 1);
                        self.queue.write(h, len, rm);
                        len += 1;
                    }
                }
            }
            let Some(mut right) = endpoint else {
                return; // maximum reached
            };
            loop {
                let left = self.parent.read(h, right as usize);
                let next_right = self.mate.read(h, left as usize);
                self.mate.write(h, right as usize, left);
                self.mate.write(h, left as usize, right);
                if next_right == FREE {
                    break;
                }
                right = next_right;
            }
            self.size += 1;
            aug_paths.incr();
        }
    }
}

/// Simulate the baseline `FindMatching(G, ∅)` on the full graph.
pub fn sim_find_matching(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    config: HierarchyConfig,
) -> MatchSimResult {
    sim_find_matching_inner(n, n_left, edges, config, &Registry::disabled(), None)
}

/// [`sim_find_matching`] reporting into `registry` — a
/// `matching.baseline` span plus the `matching.searches` /
/// `matching.augmenting_paths` counters — with span-scoped cache
/// attribution under the given [`ProfilerOptions`] (recording mode and
/// miss-rate timeline interval).
pub fn sim_find_matching_profiled(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    config: HierarchyConfig,
    options: ProfilerOptions,
    registry: &Registry,
) -> MatchSimResult {
    sim_find_matching_inner(n, n_left, edges, config, registry, Some(options))
}

fn sim_find_matching_inner(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    config: HierarchyConfig,
    registry: &Registry,
    profiler: Option<ProfilerOptions>,
) -> MatchSimResult {
    let _root = registry.span("matching.baseline");
    let searches = registry.counter("matching.searches");
    let aug_paths = registry.counter("matching.augmenting_paths");
    let mut hier = MemoryHierarchy::new(config);
    let scope =
        profiler.map(|opts| hier.attach_profiler_with("matching.baseline", opts, registry));
    let _root_scope = scope.as_ref().map(|s| s.enter("matching.baseline"));
    let mut space = AddressSpace::new();
    let csr = TracedCsr::build(&mut space, n, n_left, edges);
    let mut matcher = TracedMatcher::new(&mut space, n, vec![FREE; n], 0);
    matcher.run(&mut hier, &csr, n_left, &searches, &aug_paths);
    let stats = hier.stats();
    let profile = hier.take_profile();
    MatchSimResult { stats, size: matcher.size, profile }
}

/// Simulate `CacheFriendlyFindMatching` (Fig. 9) under the given scheme.
pub fn sim_find_matching_partitioned(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    scheme: PartitionScheme,
    config: HierarchyConfig,
) -> MatchSimResult {
    sim_find_matching_partitioned_inner(n, n_left, edges, scheme, config, &Registry::disabled(), None)
}

/// [`sim_find_matching_partitioned`] reporting into `registry` — a
/// `matching.partitioned` root span with one `local[k]` child per
/// sub-problem and a `global` child for the clean-up pass, plus the
/// `matching.searches` / `matching.augmenting_paths` counters — with
/// span-scoped cache attribution: the profile splits the counters
/// across one `matching.partitioned/local[k]` scope per sub-problem and
/// a `matching.partitioned/global` scope for the clean-up pass.
pub fn sim_find_matching_partitioned_profiled(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    scheme: PartitionScheme,
    config: HierarchyConfig,
    options: ProfilerOptions,
    registry: &Registry,
) -> MatchSimResult {
    sim_find_matching_partitioned_inner(n, n_left, edges, scheme, config, registry, Some(options))
}

fn sim_find_matching_partitioned_inner(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    scheme: PartitionScheme,
    config: HierarchyConfig,
    registry: &Registry,
    profiler: Option<ProfilerOptions>,
) -> MatchSimResult {
    let root = registry.span("matching.partitioned");
    let searches = registry.counter("matching.searches");
    let aug_paths = registry.counter("matching.augmenting_paths");
    // The native drivers' vertex-to-part assignment, as untraced set-up;
    // the traced CSRs below keep both arcs.
    let (part, p) =
        super::partitioned::assign_parts(&AdjacencyArray::from_edges(n, edges), n_left, scheme);
    let mut hier = MemoryHierarchy::new(config);
    let scope =
        profiler.map(|opts| hier.attach_profiler_with("matching.partitioned", opts, registry));
    let _root_scope = scope.as_ref().map(|s| s.enter("matching.partitioned"));
    let mut space = AddressSpace::new();

    // Local vertex numbering, left-first per part.
    let mut local_id = vec![FREE; n];
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); p];
    let mut left_count = vec![0usize; p];
    for v in 0..n_left {
        let k = part[v] as usize;
        local_id[v] = left_count[k] as u32;
        left_count[k] += 1;
        members[k].push(v as VertexId);
    }
    for v in n_left..n {
        let k = part[v] as usize;
        local_id[v] = members[k].len() as u32;
        members[k].push(v as VertexId);
    }
    let mut local_edges: Vec<Vec<Edge>> = vec![Vec::new(); p];
    for e in edges {
        if (e.from as usize) >= n_left {
            continue;
        }
        let (kf, kt) = (part[e.from as usize] as usize, part[e.to as usize] as usize);
        if kf == kt {
            let l = local_id[e.from as usize];
            let r = local_id[e.to as usize];
            local_edges[kf].push(Edge::new(l, r, 1));
            local_edges[kf].push(Edge::new(r, l, 1));
        }
    }

    // Phase 1: traced local matchings.
    let mut union = vec![FREE; n];
    let mut union_size = 0usize;
    for k in 0..p {
        let n_local = members[k].len();
        if n_local == 0 || local_edges[k].is_empty() {
            continue;
        }
        let _local = registry.is_enabled().then(|| root.child(&format!("local[{k}]")));
        let _local_scope =
            scope.as_ref().map(|s| s.enter(&format!("matching.partitioned/local[{k}]")));
        let csr = TracedCsr::build(&mut space, n_local, left_count[k], &local_edges[k]);
        let mut matcher = TracedMatcher::new(&mut space, n_local, vec![FREE; n_local], 0);
        matcher.run(&mut hier, &csr, left_count[k], &searches, &aug_paths);
        let mate = matcher.mate.into_inner();
        for (lv, &gv) in members[k].iter().enumerate() {
            if mate[lv] != FREE {
                union[gv as usize] = members[k][mate[lv] as usize];
            }
        }
        union_size += matcher.size;
    }

    // Phase 2: traced global pass from the union.
    let _global = registry.is_enabled().then(|| root.child("global"));
    let _global_scope = scope.as_ref().map(|s| s.enter("matching.partitioned/global"));
    let csr = TracedCsr::build(&mut space, n, n_left, edges);
    let mut matcher = TracedMatcher::new(&mut space, n, union, union_size);
    matcher.run(&mut hier, &csr, n_left, &searches, &aug_paths);
    drop(_global_scope);
    let stats = hier.stats();
    let profile = hier.take_profile();
    MatchSimResult { stats, size: matcher.size, profile }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_karp;
    use cachegraph_graph::generators;
    use cachegraph_sim::profiles;

    #[test]
    fn simulated_runs_find_maximum_matchings() {
        let b = generators::random_bipartite(64, 0.12, 3);
        let g = AdjacencyArray::from_edges(64, b.edges());
        let oracle = hopcroft_karp(&g, 32).size;
        let base = sim_find_matching(64, 32, b.edges(), profiles::simplescalar());
        let opt = sim_find_matching_partitioned(
            64,
            32,
            b.edges(),
            PartitionScheme::Contiguous(4),
            profiles::simplescalar(),
        );
        assert_eq!(base.size, oracle);
        assert_eq!(opt.size, oracle);
    }

    #[test]
    fn observed_run_counts_augmenting_paths() {
        let b = generators::random_bipartite(64, 0.12, 3);
        let reg = cachegraph_obs::Registry::new();
        let opts = ProfilerOptions::exact();
        let r = sim_find_matching_profiled(64, 32, b.edges(), profiles::simplescalar(), opts, &reg);
        let snap = reg.snapshot();
        // One successful augmentation per matched edge, plus the final
        // failed search ending the loop.
        assert_eq!(snap.counters.get("matching.augmenting_paths"), Some(&(r.size as u64)));
        assert_eq!(snap.counters.get("matching.searches"), Some(&(r.size as u64 + 1)));
        assert_eq!(snap.spans.last().map(|s| s.path.as_str()), Some("matching.baseline"));

        let reg2 = cachegraph_obs::Registry::new();
        let r2 = sim_find_matching_partitioned_profiled(
            64,
            32,
            b.edges(),
            PartitionScheme::Contiguous(4),
            profiles::simplescalar(),
            opts,
            &reg2,
        );
        assert_eq!(r2.size, r.size);
        let snap2 = reg2.snapshot();
        assert_eq!(
            snap2.counters.get("matching.augmenting_paths"),
            Some(&(r2.size as u64)),
            "local + global augmentations must sum to the matching size"
        );
        let paths: Vec<&str> = snap2.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.iter().any(|p| p.starts_with("matching.partitioned/local[")));
        assert!(paths.contains(&"matching.partitioned/global"));
        assert_eq!(paths.last(), Some(&"matching.partitioned"));
    }

    #[test]
    fn profiled_partitioned_attributes_local_and_global_phases() {
        let b = generators::random_bipartite(64, 0.12, 3);
        let reg = cachegraph_obs::Registry::disabled();
        let prof = sim_find_matching_partitioned_profiled(
            64,
            32,
            b.edges(),
            PartitionScheme::Contiguous(4),
            profiles::simplescalar(),
            ProfilerOptions { sample_period_log2: 0, timeline_interval: 1024 },
            &reg,
        );
        let plain = sim_find_matching_partitioned(
            64,
            32,
            b.edges(),
            PartitionScheme::Contiguous(4),
            profiles::simplescalar(),
        );
        assert_eq!(prof.size, plain.size, "attribution must not change results");
        assert_eq!(prof.stats, plain.stats, "attribution must not perturb the simulation");
        assert!(plain.profile.is_none());

        let profile = prof.profile.expect("profiled run has a profile");
        assert_eq!(profile.sum_self(), prof.stats);
        let paths: Vec<&str> = profile.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.iter().any(|p| p.starts_with("matching.partitioned/local[")));
        assert!(paths.contains(&"matching.partitioned/global"));
        let root = profile.find("matching.partitioned").expect("root scope");
        assert_eq!(root.total_stats, prof.stats);
    }

    #[test]
    fn partitioned_reduces_work_and_misses_on_dense_instances() {
        // Dense enough that local matchings are near-maximum (§4.4: the
        // technique's good case; sparse graphs leave more global work).
        // The whole problem spills the simulated caches; each sub-problem
        // mostly fits.
        let n = 2048;
        let b = generators::random_bipartite(n, 0.2, 7);
        let cfg = profiles::simplescalar;
        let base = sim_find_matching(n, n / 2, b.edges(), cfg());
        let opt = sim_find_matching_partitioned(
            n,
            n / 2,
            b.edges(),
            PartitionScheme::Contiguous(8),
            cfg(),
        );
        assert_eq!(base.size, opt.size);
        let base_l1 = &base.stats.levels[0];
        let opt_l1 = &opt.stats.levels[0];
        assert!(
            opt_l1.accesses < base_l1.accesses,
            "partitioned run should do less work: {} vs {} accesses",
            opt_l1.accesses,
            base_l1.accesses
        );
        assert!(
            opt_l1.misses < base_l1.misses,
            "partitioned run should miss less: {} vs {}",
            opt_l1.misses,
            base_l1.misses
        );
    }
}
