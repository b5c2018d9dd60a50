//! Cache-simulated matching runs (Table 8).
//!
//! Both implementations execute the shipped code: the Fig. 8 loop of
//! [`find_matching`](crate::find_matching), and for Fig. 9 the carve
//! ([`build_local_parts`]) and merge ([`merge_local`]) of
//! [`find_matching_partitioned`](crate::find_matching_partitioned). The
//! round reports each access as an (array, index) pair to a sink that
//! replays it against a [`MemoryHierarchy`], with one page-aligned
//! buffer per array and (sub-)problem in one simulated address space,
//! so the working-set contraction the paper relies on is exactly what
//! the simulator sees.

use cachegraph_graph::{AdjacencyArray, Edge, Graph};
use cachegraph_obs::Registry;
use cachegraph_sim::{
    AddressSpace, CacheProfile, HierarchyConfig, HierarchyStats, MemoryHierarchy, ProfilerOptions,
};

use crate::augmenting::{fig8, Matching, RoundArray, RoundSink};
use crate::partitioned::{build_local_parts, merge_local, PartitionScheme};

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

/// Replays a Fig. 8 round's accesses against the hierarchy: one buffer
/// per [`RoundArray`], allocated in declaration order. An arc is a
/// 4-byte target (the matcher reads no weight) and a visit mark one
/// byte; every other element is 4 bytes.
struct SimSink<'h> {
    hier: &'h mut MemoryHierarchy,
    base: [u64; 6],
}

impl<'h> SimSink<'h> {
    /// Place the arrays of a problem on `n` vertices with room for
    /// `arcs` arcs.
    fn new(hier: &'h mut MemoryHierarchy, space: &mut AddressSpace, n: usize, arcs: usize) -> Self {
        let lens = [n + 1, arcs, n, n, n, n];
        let base = std::array::from_fn(|a| space.alloc(((lens[a] * ELEM_BYTES[a]) as u64).max(1)));
        Self { hier, base }
    }

    fn addr(&self, array: RoundArray, index: usize) -> (u64, usize) {
        let bytes = ELEM_BYTES[array as usize];
        (self.base[array as usize] + (index * bytes) as u64, bytes)
    }
}

/// Simulated element size per [`RoundArray`], in declaration order.
const ELEM_BYTES: [usize; 6] = [4, 4, 4, 4, 1, 4];

impl RoundSink for SimSink<'_> {
    fn read(&mut self, array: RoundArray, index: usize) {
        let (addr, bytes) = self.addr(array, index);
        self.hier.read(addr, bytes);
    }

    fn write(&mut self, array: RoundArray, index: usize) {
        let (addr, bytes) = self.addr(array, index);
        self.hier.write(addr, bytes);
    }
}

/// Simulate the baseline `FindMatching(G, ∅)` on the full graph.
pub fn sim_find_matching(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    config: HierarchyConfig,
) -> MatchSimResult {
    simulate(n, n_left, edges, None, config, &Registry::disabled(), None)
}

/// [`sim_find_matching`] reporting into `registry` — a
/// `matching.baseline` span plus the `matching.searches` /
/// `matching.augmenting_paths` counters — with span-scoped cache
/// attribution under the given [`ProfilerOptions`] (the miss-rate
/// timeline interval).
pub fn sim_find_matching_profiled(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    config: HierarchyConfig,
    options: ProfilerOptions,
    registry: &Registry,
) -> MatchSimResult {
    simulate(n, n_left, edges, None, config, registry, Some(options))
}

/// Simulate `CacheFriendlyFindMatching` (Fig. 9) under the given scheme.
pub fn sim_find_matching_partitioned(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    scheme: PartitionScheme,
    config: HierarchyConfig,
) -> MatchSimResult {
    simulate(n, n_left, edges, Some(scheme), config, &Registry::disabled(), None)
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
    simulate(n, n_left, edges, Some(scheme), config, registry, Some(options))
}

/// The run behind all four entries: the baseline when `scheme` is
/// `None`, Fig. 9 under `scheme` otherwise. `matching.searches` counts
/// Fig. 8's polls, one per round with the final failed one included;
/// `matching.augmenting_paths` counts the rounds that grew the matching.
fn simulate(
    n: usize,
    n_left: usize,
    edges: &[Edge],
    scheme: Option<PartitionScheme>,
    config: HierarchyConfig,
    registry: &Registry,
    profiler: Option<ProfilerOptions>,
) -> MatchSimResult {
    let name = if scheme.is_some() { "matching.partitioned" } else { "matching.baseline" };
    let root = registry.span(name);
    let searches = registry.counter("matching.searches");
    let aug_paths = registry.counter("matching.augmenting_paths");
    // The shipped CSR and carve, as untraced set-up.
    let g = AdjacencyArray::from_edges(n, edges);
    let parts = scheme.map_or_else(Vec::new, |s| build_local_parts(&g, n_left, s).0);
    let mut hier = MemoryHierarchy::new(config);
    let scope = profiler.map(|opts| hier.attach_profiler_with(name, opts, registry));
    let _root_scope = scope.as_ref().map(|s| s.enter(name));
    let mut space = AddressSpace::new();
    let mut run = |g: &AdjacencyArray, n_left: usize, arc_room: usize, initial: Matching| {
        let from = initial.size;
        let mut sink = SimSink::new(&mut hier, &mut space, g.num_vertices(), arc_room);
        let mut poll = || {
            searches.incr();
            false
        };
        let m = fig8(g, n_left, initial, &mut sink, &mut poll).unwrap_or_else(|c| c.partial);
        aug_paths.add((m.size - from) as u64);
        m
    };

    // Fig. 9's local phase. A part's arc buffer has room for both arcs
    // of each internal edge, as the paper's sub-graphs hold; the shipped
    // part keeps the left arcs, which come first.
    let mut union = Matching::empty(n);
    for (k, part) in parts.iter().enumerate().filter(|(_, part)| !part.is_trivial()) {
        let _local = registry.is_enabled().then(|| root.child(&format!("local[{k}]")));
        let _local_scope = scope.as_ref().map(|s| s.enter(&format!("{name}/local[{k}]")));
        let empty = Matching::empty(part.members.len());
        let local = run(&part.graph, part.left_count, 2 * part.graph.num_edges(), empty);
        merge_local(part, &local, &mut union);
    }

    // The whole-graph pass: the baseline itself, or Fig. 9's clean-up
    // from the union of the local matchings.
    let _global = (scheme.is_some() && registry.is_enabled()).then(|| root.child("global"));
    let _global_scope = scheme.and(scope.as_ref()).map(|s| s.enter(&format!("{name}/global")));
    let m = run(&g, n_left, g.num_edges(), union);
    drop(_global_scope);
    let stats = hier.stats();
    let profile = hier.take_profile();
    MatchSimResult { stats, size: m.size, profile }
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
            ProfilerOptions { timeline_interval: 1024 },
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
