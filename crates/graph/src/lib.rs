//! Graph representations and workload generators (paper §3.2, §4).
//!
//! The paper's single-source algorithms (Dijkstra, Prim) and the matching
//! algorithm stream through the graph representation exactly once per run,
//! so the representation's memory behaviour dominates. Three representations
//! are provided:
//!
//! * [`AdjacencyMatrix`] — dense `n x n` weights, `O(N²)` space, perfectly
//!   contiguous;
//! * [`AdjacencyList`] — the classic pointer-based baseline. Nodes live in
//!   an arena in *allocation order* (i.e. the order edges were inserted),
//!   so traversing one vertex's list strides across the arena, reproducing
//!   the cache pollution of 2002-era `malloc`'d list nodes;
//! * [`AdjacencyArray`] — the paper's cache-friendly representation (§3.2):
//!   per-vertex arrays of `(neighbour, weight)` packed contiguously
//!   (a CSR structure), `O(N + E)` space, streaming access.
//!
//! [`EdgeListBuilder`] builds any representation from an edge list, and
//! [`generators`] produces the random, bipartite, and adversarial workloads
//! used in the experiments.

mod adj_array;
mod adj_list;
mod adj_matrix;
mod builder;
pub mod generators;
pub mod io;
mod traits;

pub use adj_array::{AdjacencyArray, Arc};
pub use adj_list::{AdjacencyList, ListNode, NIL};
pub use adj_matrix::AdjacencyMatrix;
pub use builder::EdgeListBuilder;
pub use traits::{Graph, VertexId, Weight, INF};

/// A weighted directed edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source vertex.
    pub from: VertexId,
    /// Target vertex.
    pub to: VertexId,
    /// Edge weight.
    pub weight: Weight,
}

impl Edge {
    /// Convenience constructor.
    pub fn new(from: VertexId, to: VertexId, weight: Weight) -> Self {
        Self { from, to, weight }
    }
}
