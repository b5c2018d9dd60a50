//! The per-phase task plan behind the parallel tiled driver.
//!
//! One block iteration `t` of the tiled decomposition (Fig. 4) splits
//! into three phases with a barrier between them: the diagonal tile
//! `(t, t)`, then the rest of row `t` and column `t`, then every
//! remaining tile. This module builds that plan as *pure data* — for each
//! task, which tile is written ([`TileTask::a`]) and which are read
//! ([`TileTask::b`] / [`TileTask::c`]), with the footprints exposed as
//! explicit flat cell ranges — so the parallel driver
//! ([`crate::parallel`]), the dynamic disjointness test, and the
//! `cachegraph-check` model checker all consume the *same* task
//! construction and cannot drift apart. The driver splits the storage
//! into tile borrows by exactly these tasks, which works because within
//! a phase write footprints are pairwise disjoint and no task reads
//! another task's write footprint.

use std::ops::Range;

use cachegraph_plan::{TaskFootprint, TaskGraph};

use crate::kernel::{StridedView, View};

/// One unit of tiled FW work: update tile `a` in place using tiles `b`
/// and `c` (`FWI(A, B, C)`, Fig. 2). Views are flat-index descriptors
/// into the matrix storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileTask {
    /// The written (and read — FWI is a read-modify-write) tile.
    pub a: View,
    /// First read-only operand (`b[i][k]`).
    pub b: View,
    /// Second read-only operand (`c[k][j]`).
    pub c: View,
}

impl TileTask {
    /// The write footprint: every storage cell this task may write — the
    /// rows of the `A` tile, as flat `start..end` cell ranges.
    pub fn write_rows(&self, b: usize) -> impl Iterator<Item = Range<usize>> {
        view_rows(self.a, b)
    }

    /// The read footprint: every storage cell this task may read — the
    /// rows of the `A` (read-modify-write), `B`, and `C` tiles. Ranges
    /// may repeat when operands alias (e.g. the diagonal task).
    pub fn read_rows(&self, b: usize) -> impl Iterator<Item = Range<usize>> {
        view_rows(self.a, b).chain(view_rows(self.b, b)).chain(view_rows(self.c, b))
    }

    /// Both footprints as sets of flat cell indices.
    fn footprint(&self, b: usize) -> TaskFootprint {
        TaskFootprint {
            reads: self.read_rows(b).flatten().map(|cell| cell as u64).collect(),
            writes: self.write_rows(b).flatten().map(|cell| cell as u64).collect(),
        }
    }
}

/// Rows of a `b x b` tile view as flat cell ranges.
pub fn view_rows(v: View, b: usize) -> impl Iterator<Item = Range<usize>> {
    (0..b).map(move |i| {
        let start = v.at(i, 0);
        start..start + b
    })
}

/// Builds the per-phase task plans for one `(layout, n, b)` tiling.
///
/// The parallel driver routes all its task construction through this
/// type; the disjointness test and the `cachegraph-check` footprint
/// oracle build their plans with the very same calls.
pub struct Planner<'l, L: StridedView> {
    layout: &'l L,
    b: usize,
    real_tiles: usize,
}

impl<'l, L: StridedView> Planner<'l, L> {
    /// Plan the tiling of the `n x n` logical matrix with tile size `b`.
    ///
    /// Same preconditions as the tiled drivers (checked): the layout's
    /// padded dimension must be a multiple of `b`, and the layout must
    /// expose aligned `b x b` tiles as strided views.
    pub fn new(layout: &'l L, n: usize, b: usize) -> Self {
        let p = layout.padded_n();
        assert!(b >= 1 && p.is_multiple_of(b), "padded size {p} must be a multiple of the tile size {b}");
        // Every layout in this crate that can express tile (0, 0) as a
        // strided view can express all aligned in-range tiles, so one
        // check up front validates the whole decomposition.
        assert!(
            layout.view(0, 0, b).is_some(),
            "layout must expose aligned {b}x{b} tiles (tile size must match the layout's block size)"
        );
        Self { layout, b, real_tiles: n.div_ceil(b) }
    }

    /// Tile size.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Number of tile rows/cols containing at least one real vertex;
    /// all-padding tiles are skipped (the efficient padding handling of
    /// §4.1).
    pub fn real_tiles(&self) -> usize {
        self.real_tiles
    }

    /// View of tile `(ti, tj)`, in tile coordinates.
    pub fn tile(&self, ti: usize, tj: usize) -> View {
        let v = self.layout.view(ti * self.b, tj * self.b, self.b);
        // tidy: allow(panic-policy) -- tiling validated by the assert in `new`
        v.expect("layout must expose aligned bxb tiles as strided views")
    }

    /// The phase-1 task of block iteration `t`: the diagonal tile,
    /// fully self-dependent (`FWI(D, D, D)`) — inherently sequential.
    pub fn phase1(&self, t: usize) -> TileTask {
        let d = self.tile(t, t);
        TileTask { a: d, b: d, c: d }
    }

    /// Phase-2 tasks of block iteration `t` into `out`: the rest of row
    /// `t` (reading the now-stable diagonal as B) and the rest of column
    /// `t` (reading the diagonal as C). Every task writes a distinct
    /// tile and reads only itself and the diagonal.
    pub fn phase2(&self, t: usize, out: &mut Vec<TileTask>) {
        out.clear();
        let diag = self.tile(t, t);
        for j in 0..self.real_tiles {
            if j != t {
                let a = self.tile(t, j);
                out.push(TileTask { a, b: diag, c: a });
            }
        }
        for i in 0..self.real_tiles {
            if i != t {
                let a = self.tile(i, t);
                out.push(TileTask { a, b: a, c: diag });
            }
        }
    }

    /// The declared footprints of block iteration `t`, one phase per
    /// barrier (`phase1` to `phase3`), in flat cell indices: what the
    /// `cachegraph-check` oracle proves disjoint.
    pub fn task_graph(&self, t: usize) -> TaskGraph {
        let mut graph = TaskGraph::new("fw");
        graph.push_phase("phase1", vec![self.phase1(t).footprint(self.b)]);
        let mut tasks = Vec::new();
        self.phase2(t, &mut tasks);
        graph.push_phase("phase2", tasks.iter().map(|task| task.footprint(self.b)).collect());
        self.phase3(t, &mut tasks);
        graph.push_phase("phase3", tasks.iter().map(|task| task.footprint(self.b)).collect());
        graph
    }

    /// Phase-3 tasks of block iteration `t` into `out`: every remaining
    /// tile, reading its (now stable) column-`t` tile as B and row-`t`
    /// tile as C. Every task writes a distinct tile and reads only
    /// itself and phase-2 output tiles.
    pub fn phase3(&self, t: usize, out: &mut Vec<TileTask>) {
        out.clear();
        for i in 0..self.real_tiles {
            if i == t {
                continue;
            }
            let bt = self.tile(i, t);
            for j in 0..self.real_tiles {
                if j == t {
                    continue;
                }
                out.push(TileTask { a: self.tile(i, j), b: bt, c: self.tile(t, j) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegraph_layout::BlockLayout;
    use std::collections::BTreeSet;

    fn cells(rows: impl Iterator<Item = Range<usize>>) -> BTreeSet<usize> {
        rows.flatten().collect()
    }

    #[test]
    fn task_counts_match_the_tiling() {
        let layout = BlockLayout::new(12, 4);
        let planner = Planner::new(&layout, 12, 4);
        assert_eq!(planner.real_tiles(), 3);
        let mut v = Vec::new();
        for t in 0..3 {
            planner.phase2(t, &mut v);
            assert_eq!(v.len(), 4, "2*(real_tiles-1) row/col tasks");
            planner.phase3(t, &mut v);
            assert_eq!(v.len(), 4, "(real_tiles-1)^2 remainder tasks");
        }
    }

    #[test]
    fn footprints_cover_exactly_the_tiles() {
        let layout = BlockLayout::new(8, 4);
        let planner = Planner::new(&layout, 8, 4);
        let mut v = Vec::new();
        planner.phase2(0, &mut v);
        let task = v[0]; // tile (0, 1), reading the diagonal
        let w = cells(task.write_rows(4));
        assert_eq!(w.len(), 16, "write footprint is one full tile");
        let r = cells(task.read_rows(4));
        assert_eq!(r.len(), 32, "reads its own tile plus the diagonal");
        assert!(w.is_subset(&r), "FWI reads every cell it may write");
    }

    #[test]
    fn all_padding_tiles_are_skipped() {
        // n = 5, b = 4 pads to 8: tile row/col 1 exists but only tile
        // (1, 1) cells beyond index 4 are padding; real_tiles counts
        // both, while n = 4, b = 4 has exactly one.
        let layout = BlockLayout::new(5, 4);
        assert_eq!(Planner::new(&layout, 5, 4).real_tiles(), 2);
        let layout = BlockLayout::new(4, 4);
        let planner = Planner::new(&layout, 4, 4);
        assert_eq!(planner.real_tiles(), 1);
        let mut v = Vec::new();
        planner.phase2(0, &mut v);
        assert!(v.is_empty(), "single-tile problems have no parallel work");
    }
}
