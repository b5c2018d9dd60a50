//! Single-source shortest paths, minimum spanning trees, and traversals
//! over cache-friendly graph representations (paper §3.2 and §5).
//!
//! [`dijkstra`] and [`prim`] are generic over both the graph representation
//! (`cachegraph-graph`) and the priority queue (`cachegraph-pq`), so the
//! paper's comparisons — adjacency list vs adjacency array, binary heap vs
//! Fibonacci heap — are single-variable experiments over identical inputs.
//!
//! The conclusion's extension algorithms are here too: [`bellman_ford`]
//! (same streaming access pattern, same representation win), [`bfs`] /
//! [`dfs_preorder`] traversals, [`connected_components`], and [`scc`] (Tarjan).
//! [`kruskal`] serves as an independent MST oracle for testing Prim.
//!
//! [`instrumented`] replays Dijkstra and Prim — graph, distance array,
//! *and* heap — through the `cachegraph-sim` hierarchy for Tables 6 and 7.
//!
//! # Example
//!
//! ```
//! use cachegraph_graph::generators;
//! use cachegraph_sssp::dijkstra_binary_heap;
//!
//! let g = generators::random_directed(64, 0.2, 100, 7).build_array();
//! let sp = dijkstra_binary_heap(&g, 0);
//! assert_eq!(sp.dist[0], 0);
//! ```

mod bellman_ford;
mod cancel;
pub mod delta;
mod dense_dijkstra;
mod dijkstra;
pub mod instrumented;
mod kruskal;
mod lazy_dijkstra;
mod prim;
mod traversal;

pub use bellman_ford::bellman_ford;
pub use cancel::{
    dijkstra_cancellable, dijkstra_to, distance_to, Cancelled, CANCEL_CHECK_INTERVAL,
};
pub use delta::{
    delta_stepping, delta_stepping_parallel, delta_stepping_parallel_cancellable, DeltaPhasePlan,
    Proposal,
};
pub use dense_dijkstra::dijkstra_dense;
pub use dijkstra::{apsp_dijkstra, dijkstra, dijkstra_binary_heap, SsspResult};
pub use lazy_dijkstra::{dijkstra_lazy, dijkstra_lazy_sequence};
pub use kruskal::{kruskal, UnionFind};
pub use prim::{prim, prim_binary_heap, MstResult};
pub use traversal::{bfs, connected_components, dfs_preorder, scc, BfsResult};

/// Sentinel for "no predecessor / not in tree".
pub const NO_VERTEX: u32 = u32::MAX;
