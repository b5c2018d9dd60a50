//! Bipartite maximum matching with cache-friendly sub-problem
//! decomposition (paper §3.3).
//!
//! The baseline is the augmenting-path algorithm (Fig. 8): repeatedly BFS
//! from a free left vertex for an alternating path to a free right vertex,
//! flip it, until no augmenting path exists — `O(N·E)`.
//!
//! The paper's optimization (Fig. 9, [`find_matching_partitioned`]) first
//! splits the graph into sub-graphs sized to fit in cache, solves each
//! locally (high temporal locality, `O(N + E)` traffic), unions the local
//! matchings, and only then runs the global algorithm *starting from* that
//! union — in the best case the local phase already found a maximum
//! matching and the global phase only verifies it.
//!
//! [`partition::two_way_partition`] is the paper's linear-time two-way
//! edge partitioner (§3.3: 4 arbitrary vertex groups, pair them to
//! maximise internal edges). [`hopcroft_karp`] is an independent
//! `O(E·√V)` oracle; [`verify::minimum_vertex_cover`] produces a König
//! certificate that a matching is maximum. [`maxflow`] is the
//! Ford-Fulkerson extension named in the paper's conclusion.
//!
//! Convention: a bipartite graph on `n` vertices has its left side
//! `0..n_left` and right side `n_left..n`. The solvers, the partitioner
//! and the König check read only left → right arcs, so the graph may
//! hold both arcs of every edge (as
//! [`cachegraph_graph::generators::random_bipartite`] builds) or only
//! the left ones (as
//! [`cachegraph_graph::generators::random_bipartite_left`] streams);
//! both give the same matching, `mate` array included.
//!
//! ```
//! use cachegraph_matching::{find_matching_partitioned, verify, PartitionScheme};
//! use cachegraph_graph::generators;
//!
//! let n = 64;
//! let g = generators::random_bipartite_left(n, 0.2, 7);
//! let (m, stats) = find_matching_partitioned(&g, n / 2, PartitionScheme::Contiguous(4));
//! verify::assert_maximum(&g, n / 2, &m); // König certificate
//! assert!(stats.local_matched <= m.size);
//! ```

mod augmenting;
mod hopcroft_karp;
pub mod instrumented;
pub mod maxflow;
pub mod parallel;
pub mod partition;
mod partitioned;
pub mod verify;

pub use augmenting::{
    find_matching, find_matching_cancellable, find_matching_fast, find_matching_recorded,
    MatchCancelled, Matching,
};
pub use hopcroft_karp::hopcroft_karp;
pub use parallel::{
    find_matching_partitioned_parallel, find_matching_partitioned_parallel_cancellable,
    MatchingPartPlan,
};
pub use partitioned::{
    build_local_parts, find_matching_partitioned, LocalPart, PartitionScheme, PartitionedStats,
};

/// Sentinel for "unmatched".
pub const FREE: u32 = u32::MAX;
