//! Floyd-Warshall all-pairs shortest paths, optimized for cache (paper §3.1).
//!
//! Implementations:
//!
//! * [`fw_iterative`] — the paper's baseline: the classic triple loop over a
//!   row-major matrix (Fig. 1);
//! * [`fw_tiled`] — the tiled implementation (Fig. 4): `B x B` tiles
//!   processed diagonal-tile first, then its row and column, then the
//!   remainder, per block iteration. Correct by the special case
//!   `k−1 ≤ k′ ≤ k+B−1` of Claim 1;
//! * [`fw_recursive`] — the cache-oblivious recursive implementation
//!   (Fig. 3, FWR): eight recursive calls per level, the last four in
//!   reverse order of the first four, with a tunable base-case size at
//!   which the FWI triple loop takes over;
//! * [`parallel::fw_tiled_parallel`] — the parallelisation sketched in the
//!   paper's conclusion, built on the tiled decomposition: each phase's
//!   tiles are split into borrows and run on scoped threads through the
//!   same slice kernel as the serial variants;
//! * [`instrumented`] — the same algorithms replayed through the
//!   `cachegraph-sim` hierarchy for miss-count experiments (Tables 1–3).
//!
//! All variants work on a [`FwMatrix`]: a padded square matrix of `u32`
//! weights in a pluggable layout
//! ([`RowMajor`](cachegraph_layout::RowMajor),
//! [`BlockLayout`](cachegraph_layout::BlockLayout) /
//! [`ZMorton`](cachegraph_layout::ZMorton) from `cachegraph-layout`).
//! `INF` marks "no path"; arithmetic saturates, keeping the min-plus
//! semiring closed.
//!
//! # Quick example
//!
//! ```
//! use cachegraph_fw::{fw_recursive, FwMatrix, INF};
//! use cachegraph_layout::ZMorton;
//!
//! // 0 -> 1 (3), 1 -> 2 (4), 0 -> 2 (10): the two-hop path wins.
//! let costs = vec![
//!     0, 3, 10,
//!     INF, 0, 4,
//!     INF, INF, 0,
//! ];
//! let mut m = FwMatrix::from_costs(ZMorton::new(3, 2), &costs);
//! fw_recursive(&mut m, 2);
//! assert_eq!(m.dist(0, 2), 7);
//! ```

mod auto;
pub mod closure;
mod copy_tiled;
pub mod instrumented;
mod iterative;
mod kernel;
mod matrix;
pub mod observed;
pub mod parallel;
mod paths;
pub mod plan;
pub mod record;
mod recursive;
mod tiled;

pub use auto::{solve_apsp, solve_apsp_with_cache, DEFAULT_L1_ASSOC, DEFAULT_L1_BYTES};
pub use closure::{transitive_closure, transitive_closure_of, BitMatrix};
pub use copy_tiled::fw_tiled_copy;
pub use cachegraph_graph::{Weight, INF};
pub use iterative::{fw_iterative, fw_iterative_slice};
pub use kernel::{fwi, fwi_access, fwi_instance, CellAccess, SliceAccess, StridedView, View};
pub use matrix::FwMatrix;
pub use paths::{extract_path, fw_iterative_with_paths, PathMatrix, NO_PRED};
pub use record::RecordingAccess;
pub use observed::{fw_iterative_observed, fw_recursive_observed, fw_tiled_observed, FwEvent};
pub use recursive::{fw_recursive, run_recursive, run_recursive_with};
pub use tiled::{fw_tiled, run_tiled, run_tiled_with};

/// Saturating min-plus "add" for weights: `INF + x = INF`.
#[inline(always)]
pub fn add_w(a: Weight, b: Weight) -> Weight {
    a.saturating_add(b)
}
