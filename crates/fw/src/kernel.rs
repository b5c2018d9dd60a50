//! The FWI kernel (Fig. 2) over strided views, and the view abstraction.
//!
//! Every FW variant bottoms out in the same triple loop
//! `a[i][j] = min(a[i][j], b[i][k] + c[k][j])`. The three arguments may be
//! the same region, overlapping regions, or disjoint regions of one
//! storage slice, so the kernel addresses them as `(offset, row-stride)`
//! descriptors into a single `&mut [Weight]` — in-place semantics exactly
//! like the paper's C code, with no aliasing gymnastics.
//!
//! The trait default [`CellAccess::fwi_block`] is that loop cell by cell;
//! the cache simulator replays it and `cachegraph-analyze` proves its
//! footprint. [`SliceAccess`], which every timed run uses, overrides it
//! with a slice kernel that gives the same bits faster: it dispatches on
//! each call to an AVX2 instance when the CPU has AVX2
//! ([`fwi_instance`]), and runs a call whose A tile is disjoint from B
//! and C with every `k` fused into register-resident rows of A. The same
//! kernel also runs over tiles borrowed apart ([`fwi_tiles`]), which is
//! how the parallel tiled driver hands each task its operands.

// tidy: kernel
use cachegraph_graph::{Weight, INF};
use cachegraph_layout::{BlockLayout, Layout, RowMajor, ZMorton};

/// A square sub-matrix described as base offset + row stride into a flat
/// storage slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct View {
    /// Flat index of element `(0, 0)` of the view.
    pub offset: usize,
    /// Distance between consecutive rows.
    pub stride: usize,
}

impl View {
    /// Flat index of `(i, j)` within this view.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> usize {
        self.offset + i * self.stride + j
    }
}

/// Layouts whose aligned `size x size` sub-matrices can be addressed as a
/// strided view. This is what lets one recursive/tiled code path run over
/// row-major, BDL, and Z-Morton storage.
pub trait StridedView: Layout {
    /// View of the `size x size` sub-matrix whose top-left corner is
    /// `(r0, c0)` (padded coordinates), or `None` if this layout cannot
    /// express that region with a single stride.
    fn view(&self, r0: usize, c0: usize, size: usize) -> Option<View>;
}

impl StridedView for RowMajor {
    fn view(&self, r0: usize, c0: usize, size: usize) -> Option<View> {
        if r0 + size <= self.padded_n() && c0 + size <= self.padded_n() {
            Some(View { offset: self.index(r0, c0), stride: self.padded_n() })
        } else {
            None
        }
    }
}

impl StridedView for BlockLayout {
    fn view(&self, r0: usize, c0: usize, size: usize) -> Option<View> {
        let b = self.block();
        // A single block, tile-aligned: contiguous with stride b.
        if size == b && r0.is_multiple_of(b) && c0.is_multiple_of(b) && r0 + size <= self.padded_n() && c0 + size <= self.padded_n() {
            Some(View { offset: self.block_start(r0 / b, c0 / b), stride: b })
        } else {
            None
        }
    }
}

impl StridedView for ZMorton {
    fn view(&self, r0: usize, c0: usize, size: usize) -> Option<View> {
        let b = self.base();
        // A single leaf tile, tile-aligned: contiguous with stride b.
        if size == b && r0.is_multiple_of(b) && c0.is_multiple_of(b) && r0 + size <= self.padded_n() && c0 + size <= self.padded_n() {
            Some(View { offset: self.index(r0, c0), stride: b })
        } else {
            None
        }
    }
}

/// Storage access abstraction: the same FWI/tiled/recursive drivers run
/// over a plain slice (for real timing) or a traced buffer that replays
/// each access against the cache simulator (for the miss-count tables).
pub trait CellAccess {
    /// Read the cell at flat index `idx`.
    fn read(&mut self, idx: usize) -> Weight;

    /// Write the cell at flat index `idx`.
    fn write(&mut self, idx: usize, v: Weight);

    /// FWI(A, B, C) over `size x size` views. The default implementation
    /// goes cell-by-cell through `read`/`write` (what the traced accessor
    /// wants); [`SliceAccess`] overrides it with a vectorised slice
    /// kernel — bit-identical results, in the same operation order except
    /// where reordering provably cannot change a bit.
    fn fwi_block(&mut self, a: View, b: View, c: View, size: usize) {
        for k in 0..size {
            for i in 0..size {
                let bik = self.read(b.at(i, k));
                if bik == INF {
                    continue; // min-plus identity: nothing in this row changes
                }
                let c_row = c.at(k, 0);
                let a_row = a.at(i, 0);
                for j in 0..size {
                    // Saturating add keeps INF absorbing: INF can never win
                    // the min, so no INF test is needed on c.
                    let via = bik.saturating_add(self.read(c_row + j));
                    let cell = self.read(a_row + j);
                    if via < cell {
                        self.write(a_row + j, via);
                    }
                }
            }
        }
    }
}

/// Direct slice access — zero-cost after monomorphisation.
pub struct SliceAccess<'a>(pub &'a mut [Weight]);

impl CellAccess for SliceAccess<'_> {
    #[inline(always)]
    fn read(&mut self, idx: usize) -> Weight {
        self.0[idx]
    }

    #[inline(always)]
    fn write(&mut self, idx: usize, v: Weight) {
        self.0[idx] = v;
    }

    fn fwi_block(&mut self, a: View, b: View, c: View, size: usize) {
        fwi_slice(InSlice { data: &mut *self.0, a, b, c }, size);
    }
}

/// Which instance of the slice kernel [`SliceAccess`] runs on this CPU:
/// `"avx2"` when the CPU reports AVX2 at run time, else `"baseline"`
/// (the build's own target features). Both give bit-identical results;
/// only their speed differs.
pub fn fwi_instance() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "baseline"
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_detected() -> bool {
    false
}

/// FWI(A, B, C) over borrowed `size x size` tiles, each a contiguous
/// row-major run of `size * size` weights. `b` and `c` are tiles apart
/// from A, or `None` where that operand is A itself. These are the
/// shapes of the parallel tiled driver's phases: the diagonal tile (both
/// `None`), a row-`t` tile (`c` is A), a column-`t` tile (`b` is A) and
/// a remaining tile (all apart). The result has the same bits as
/// [`fwi`] over the same cells: tiles all apart run fused, the others
/// `k`-outer, in the same instance [`fwi_instance`] names.
pub fn fwi_tiles(a: &mut [Weight], b: Option<&[Weight]>, c: Option<&[Weight]>, size: usize) {
    let len = size * size;
    assert!(
        a.len() == len && b.is_none_or(|t| t.len() == len) && c.is_none_or(|t| t.len() == len),
        "every tile must hold {size} x {size} weights"
    );
    fwi_slice(InTiles { a, b, c, size }, size);
}

/// The slice kernel, dispatched on every call: the AVX2 instance when the
/// CPU has AVX2, else the baseline instance.
fn fwi_slice<O: Operands>(ops: O, size: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_detected() {
            // SAFETY: the only requirement for calling a
            // `#[target_feature(enable = "avx2")]` function is that the
            // CPU supports AVX2, which `avx2_detected` has just checked
            // at run time.
            unsafe { fwi_slice_avx2(ops, size) };
            return;
        }
    }
    fwi_slice_baseline(ops, size);
}

/// [`Operands::fwi`] compiled for the build's baseline target features.
fn fwi_slice_baseline<O: Operands>(ops: O, size: usize) {
    ops.fwi(size);
}

/// [`Operands::fwi`] compiled with AVX2 enabled, which gives LLVM packed
/// unsigned 32-bit `min` (baseline x86-64 has none).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fwi_slice_avx2<O: Operands>(ops: O, size: usize) {
    ops.fwi(size);
}

/// The operands of one slice-kernel call: three views into one storage
/// slice ([`InSlice`]) or borrowed tiles ([`InTiles`]). The fused and
/// `k`-outer loops are written once against the three accessors; each
/// kind of operand is one instantiation of them.
///
/// [`Operands::fwi`] runs FWI in the trait default's operation order or
/// in one that provably gives the same bits:
///
/// * A shares no cell with B or C: B and C stay constant for the whole
///   call, so `a[i][j] = min(a[i][j], min_k(b[i][k] + c[k][j]))` gives
///   the same bits in any `k` order, and the fused path folds every `k`
///   into registers;
/// * B and C are each either A itself or disjoint from it: `k`-outer.
///   During step `k`, `b[i][k]` and row `k` of C do not change (a write
///   to them would be `x = min(x, x + w)`), so the step may copy that
///   row out and sweep A in any order;
/// * any other overlap (views only): the trait default's cell-by-cell
///   loop.
trait Operands: Sized {
    /// `b[i][k]`.
    fn b_at(&self, i: usize, k: usize) -> Weight;

    /// Columns `j0..j0 + w` of row `k` of C.
    fn c_run(&self, k: usize, j0: usize, w: usize) -> &[Weight];

    /// Columns `j0..j0 + w` of row `i` of A.
    fn a_run(&mut self, i: usize, j0: usize, w: usize) -> &mut [Weight];

    /// FWI over these operands, through the loop their overlap allows.
    fn fwi(self, size: usize);
}

/// Operands as three views into one storage slice.
struct InSlice<'d> {
    data: &'d mut [Weight],
    a: View,
    b: View,
    c: View,
}

impl Operands for InSlice<'_> {
    #[inline(always)]
    fn b_at(&self, i: usize, k: usize) -> Weight {
        self.data[self.b.at(i, k)]
    }

    #[inline(always)]
    fn c_run(&self, k: usize, j0: usize, w: usize) -> &[Weight] {
        let start = self.c.at(k, j0);
        &self.data[start..start + w]
    }

    #[inline(always)]
    fn a_run(&mut self, i: usize, j0: usize, w: usize) -> &mut [Weight] {
        let start = self.a.at(i, j0);
        &mut self.data[start..start + w]
    }

    #[inline(always)]
    fn fwi(mut self, size: usize) {
        let (a, b, c) = (self.a, self.b, self.c);
        let b_apart = views_disjoint(a, b, size);
        let c_apart = views_disjoint(a, c, size);
        if b_apart && c_apart {
            fwi_fused(&mut self, size);
        } else if (b_apart || b == a) && (c_apart || c == a) {
            fwi_k_outer(&mut self, size);
        } else {
            CellByCell(self.data).fwi_block(a, b, c, size);
        }
    }
}

/// Operands as borrowed `size x size` tiles: B and C are tiles apart
/// from A, or A itself where `None`.
struct InTiles<'t> {
    a: &'t mut [Weight],
    b: Option<&'t [Weight]>,
    c: Option<&'t [Weight]>,
    size: usize,
}

impl Operands for InTiles<'_> {
    #[inline(always)]
    fn b_at(&self, i: usize, k: usize) -> Weight {
        self.b.unwrap_or(self.a)[i * self.size + k]
    }

    #[inline(always)]
    fn c_run(&self, k: usize, j0: usize, w: usize) -> &[Weight] {
        let start = k * self.size + j0;
        &self.c.unwrap_or(self.a)[start..start + w]
    }

    #[inline(always)]
    fn a_run(&mut self, i: usize, j0: usize, w: usize) -> &mut [Weight] {
        let start = i * self.size + j0;
        &mut self.a[start..start + w]
    }

    /// Tiles borrowed apart are apart or A itself by construction, so
    /// they need no overlap test.
    #[inline(always)]
    fn fwi(mut self, size: usize) {
        if self.b.is_some() && self.c.is_some() {
            fwi_fused(&mut self, size);
        } else {
            fwi_k_outer(&mut self, size);
        }
    }
}

/// Do the `size x size` views `x` and `y` share no cell? Exact for views
/// of equal stride (every view of one layout); views of unequal stride
/// count as disjoint only when their address ranges are.
fn views_disjoint(x: View, y: View, size: usize) -> bool {
    if size == 0 {
        return true;
    }
    let x_end = x.offset + (size - 1) * x.stride + size;
    let y_end = y.offset + (size - 1) * y.stride + size;
    if x_end <= y.offset || y_end <= x.offset {
        return true;
    }
    let s = x.stride;
    if s != y.stride || s < size {
        return false;
    }
    // Cell (i, j) of one view is cell (i', j') of the other iff
    // (i - i') * s + (j - j') = d. With |j - j'| < size <= s, only the
    // row distances d / s and d / s + 1 can solve that.
    let d = x.offset.abs_diff(y.offset);
    let (rows, r) = (d / s, d % s);
    let same_rows = rows < size && r < size;
    let next_row = rows + 1 < size && s - r < size;
    !(same_rows || next_row)
}

/// Columns of a row the kernels handle as one run: 32 weights are four
/// AVX2 registers.
const LANES: usize = 32;

/// The fused kernel for A disjoint from B and C: rows of A two at a
/// time, each row loaded once, every `k` folded into it, stored once.
#[inline(always)]
fn fwi_fused<O: Operands>(ops: &mut O, size: usize) {
    let mut i = 0;
    while i + 2 <= size {
        fused_rows::<2, O>(ops, size, i);
        i += 2;
    }
    if i < size {
        fused_rows::<1, O>(ops, size, i);
    }
}

/// Rows `i..i + R` of A in runs of [`LANES`] columns; a full run has a
/// compile-time width, so its accumulators stay in registers.
#[inline(always)]
fn fused_rows<const R: usize, O: Operands>(ops: &mut O, size: usize, i: usize) {
    let mut j0 = 0;
    while j0 + LANES <= size {
        fused_run::<R, O>(ops, size, i, j0, LANES);
        j0 += LANES;
    }
    if j0 < size {
        fused_run::<R, O>(ops, size, i, j0, size - j0);
    }
}

/// Columns `j0..j0 + w` of rows `i..i + R` of A, relaxed through every
/// `k` in registers.
#[inline(always)]
fn fused_run<const R: usize, O: Operands>(ops: &mut O, size: usize, i: usize, j0: usize, w: usize) {
    let mut acc = [[0; LANES]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row[..w].copy_from_slice(ops.a_run(i + r, j0, w));
    }
    for k in 0..size {
        let c_run = ops.c_run(k, j0, w);
        for (r, row) in acc.iter_mut().enumerate() {
            relax(&mut row[..w], c_run, ops.b_at(i + r, k));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        ops.a_run(i + r, j0, w).copy_from_slice(&row[..w]);
    }
}

/// The `k`-outer kernel for B and C that are A or disjoint from it. Each
/// step copies its run of C's row `k` into a local buffer first: LLVM
/// then sees that the relaxed row of A cannot alias it and vectorises
/// without a run-time overlap check, which it would hoist over all of A
/// and so send every A = C call to scalar code.
#[inline(always)]
fn fwi_k_outer<O: Operands>(ops: &mut O, size: usize) {
    for k in 0..size {
        let mut j0 = 0;
        while j0 < size {
            let w = LANES.min(size - j0);
            let mut c_run = [0; LANES];
            c_run[..w].copy_from_slice(ops.c_run(k, j0, w));
            for i in 0..size {
                let bik = ops.b_at(i, k);
                if bik != INF {
                    relax(ops.a_run(i, j0, w), &c_run[..w], bik);
                }
            }
            j0 += w;
        }
    }
}

/// `a[j] = min(a[j], bik + c[j])`, saturating at `INF`, over one run.
/// `min(c, INF - bik) + bik` is that saturating sum: it never overflows,
/// and it is `INF` exactly when `bik + c >= INF`. The store is
/// unconditional, so the loop needs no masked store.
#[inline(always)]
fn relax(a_run: &mut [Weight], c_run: &[Weight], bik: Weight) {
    let cap = INF - bik;
    for (av, &cv) in a_run.iter_mut().zip(c_run) {
        *av = (*av).min(cv.min(cap) + bik);
    }
}

/// Plain slice access that keeps the trait default's cell-by-cell
/// `fwi_block`: the slice kernel's path for views that overlap other
/// than as the same view.
struct CellByCell<'a>(&'a mut [Weight]);

impl CellAccess for CellByCell<'_> {
    #[inline(always)]
    fn read(&mut self, idx: usize) -> Weight {
        self.0[idx]
    }

    #[inline(always)]
    fn write(&mut self, idx: usize, v: Weight) {
        self.0[idx] = v;
    }
}

/// FWI(A, B, C) of Fig. 2 over `size x size` views through any accessor:
/// `a[i][j] = min(a[i][j], b[i][k] + c[k][j])` for `k, i, j` in `0..size`.
///
/// Views may alias each other in any combination (the clarified A=B, A=C,
/// A=B=C cases of Appendix A fall out of operating in place on the shared
/// storage).
pub fn fwi_access<A: CellAccess>(acc: &mut A, a: View, b: View, c: View, size: usize) {
    acc.fwi_block(a, b, c, size);
}

/// [`fwi_access`] over a plain slice.
pub fn fwi(data: &mut [Weight], a: View, b: View, c: View, size: usize) {
    fwi_access(&mut SliceAccess(data), a, b, c, size);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_views_everywhere() {
        let l = RowMajor::new(8);
        let v = l.view(2, 4, 4).expect("row-major always strided");
        assert_eq!(v.offset, 2 * 8 + 4);
        assert_eq!(v.stride, 8);
        assert!(l.view(6, 6, 4).is_none(), "out of range");
    }

    #[test]
    fn bdl_views_only_aligned_blocks() {
        let l = BlockLayout::new(8, 4);
        let v = l.view(4, 0, 4).expect("aligned block");
        assert_eq!(v.stride, 4);
        assert_eq!(v.offset, l.block_start(1, 0));
        assert!(l.view(2, 0, 4).is_none(), "unaligned");
        assert!(l.view(0, 0, 8).is_none(), "multi-block");
    }

    #[test]
    fn morton_views_only_leaf_tiles() {
        let l = ZMorton::new(8, 4);
        let v = l.view(4, 4, 4).expect("leaf tile");
        assert_eq!(v.stride, 4);
        assert!(l.view(0, 0, 8).is_none());
    }

    #[test]
    fn fwi_disjoint_matches_min_plus_product() {
        // With A != B != C and A initialized to INF, FWI computes the
        // min-plus product A = B (*) C.
        let b = [0u32, 2, 7, 0]; // 2x2
        let c = [1u32, 3, 5, 0];
        let mut data = vec![INF; 12];
        data[4..8].copy_from_slice(&b);
        data[8..12].copy_from_slice(&c);
        let va = View { offset: 0, stride: 2 };
        let vb = View { offset: 4, stride: 2 };
        let vc = View { offset: 8, stride: 2 };
        fwi(&mut data, va, vb, vc, 2);
        // a[0][0] = min(b00+c00, b01+c10) = min(1, 7) = 1
        // a[0][1] = min(b00+c01, b01+c11) = min(3, 2) = 2
        // a[1][0] = min(b10+c00, b11+c10) = min(8, 5) = 5
        // a[1][1] = min(b10+c01, b11+c11) = min(10, 0) = 0
        assert_eq!(&data[0..4], &[1, 2, 5, 0]);
    }

    #[test]
    fn fwi_all_aliased_is_floyd_warshall() {
        // 3-cycle 0 -> 1 -> 2 -> 0 with weights 1, 2, 4.
        let mut data = vec![
            0,
            1,
            INF,
            INF,
            0,
            2,
            4,
            INF,
            0,
        ];
        let v = View { offset: 0, stride: 3 };
        fwi(&mut data, v, v, v, 3);
        assert_eq!(data, vec![0, 1, 3, 6, 0, 2, 4, 5, 0]);
    }

    #[test]
    fn fwi_handles_inf_without_overflow() {
        let mut data = vec![0, INF, INF, 0];
        let v = View { offset: 0, stride: 2 };
        fwi(&mut data, v, v, v, 2);
        assert_eq!(data, vec![0, INF, INF, 0]);
    }

    /// Weights the differential test mixes in: the min-plus identity,
    /// `INF`, and the values at the edge of saturation.
    const EDGE_WEIGHTS: [Weight; 5] = [0, INF, INF - 1, INF / 2, INF / 2 + 1];

    /// The textbook FWI triple loop, in place, in the paper's `k, i, j`
    /// order: the definition every instance must match bit for bit.
    fn textbook(data: &mut [Weight], a: View, b: View, c: View, size: usize) {
        for k in 0..size {
            for i in 0..size {
                for j in 0..size {
                    let via = data[b.at(i, k)].saturating_add(data[c.at(k, j)]);
                    if via < data[a.at(i, j)] {
                        data[a.at(i, j)] = via;
                    }
                }
            }
        }
    }

    /// Run the AVX2 instance; `false` when this CPU cannot.
    fn run_avx2<O: Operands>(ops: O, size: usize) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_detected() {
                // SAFETY: `avx2_detected` has just reported that this CPU
                // supports AVX2, the only requirement of the call.
                unsafe { fwi_slice_avx2(ops, size) };
                return true;
            }
        }
        false
    }

    /// The operands of [`fwi_tiles`] for a shape whose views are whole
    /// tiles: `data` split into `size x size` tiles, A borrowed mutably,
    /// B and C as the tiles apart from it or `None` where they are A.
    /// `None` for shapes whose views are not whole tiles.
    #[allow(clippy::type_complexity)] // the three operands of `fwi_tiles`
    fn tiles_of(
        data: &mut [Weight],
        a: View,
        b: View,
        c: View,
        size: usize,
    ) -> Option<(&mut [Weight], Option<&[Weight]>, Option<&[Weight]>)> {
        let len = size * size;
        if [a, b, c].iter().any(|v| v.stride != size || v.offset % len != 0) {
            return None;
        }
        let mut a_tile = None;
        let mut apart = Vec::new();
        for (t, tile) in data.chunks_exact_mut(len).enumerate() {
            if t * len == a.offset {
                a_tile = Some(tile);
            } else {
                apart.push((t * len, &*tile));
            }
        }
        let operand = |v: View| {
            (v != a).then(|| apart.iter().find(|t| t.0 == v.offset).expect("tile in storage").1)
        };
        Some((a_tile.expect("A tile in storage"), operand(b), operand(c)))
    }

    /// Storage length and `(A, B, C)` views for one aliasing shape of
    /// `size x size` views. Tiles are contiguous `size x size` blocks;
    /// the strided shapes are tiles of a row-major `2 size x 2 size`
    /// matrix, whose rows interleave.
    fn shape(name: &str, size: usize) -> (usize, View, View, View) {
        let tile = |t: usize| View { offset: t * size * size, stride: size };
        let m = 2 * size;
        let rm = |r: usize, c: usize| View { offset: r * size * m + c * size, stride: m };
        match name {
            "A=B=C" => (size * size, tile(0), tile(0), tile(0)),
            "A=B,C" => (2 * size * size, tile(1), tile(1), tile(0)),
            "A=C,B" => (2 * size * size, tile(0), tile(1), tile(0)),
            "B=C,A" => (2 * size * size, tile(1), tile(0), tile(0)),
            "disjoint" => (3 * size * size, tile(1), tile(2), tile(0)),
            "strided disjoint" => (m * m, rm(0, 1), rm(0, 0), rm(1, 1)),
            "strided A=B" => (m * m, rm(1, 0), rm(1, 0), rm(0, 0)),
            "strided A=C" => (m * m, rm(0, 1), rm(1, 1), rm(0, 1)),
            // A is C moved down one row: rows identical or apart, but
            // neither the same view nor disjoint.
            "shifted" => ((size + 1) * m, View { offset: m, stride: m }, rm(0, 1), rm(0, 0)),
            _ => unreachable!("unknown shape {name}"),
        }
    }

    const SHAPES: [&str; 9] = [
        "A=B=C",
        "A=B,C",
        "A=C,B",
        "B=C,A",
        "disjoint",
        "strided disjoint",
        "strided A=B",
        "strided A=C",
        "shifted",
    ];

    #[test]
    fn every_instance_matches_the_textbook_loop_bit_for_bit() {
        let mut avx2_ran = false;
        let mut cases = 0;
        let mut tile_cases = 0;
        for (si, &size) in [1usize, 2, 7, 31, 32, 33, 64, 65].iter().enumerate() {
            for (hi, &name) in SHAPES.iter().enumerate() {
                for rep in 0..4u64 {
                    let seed = 0xf3_0000 + (si as u64) * 0x100 + (hi as u64) * 0x10 + rep;
                    let mut rng = cachegraph_rng::StdRng::seed_from_u64(seed);
                    let (len, a, b, c) = shape(name, size);
                    let data: Vec<Weight> = (0..len)
                        .map(|_| match rng.gen_range(0u32..4) {
                            0 => EDGE_WEIGHTS[rng.gen_range(0usize..5)],
                            1 => rng.next_u64() as Weight,
                            _ => rng.gen_range(0u32..1000),
                        })
                        .collect();
                    let mut want = data.clone();
                    textbook(&mut want, a, b, c, size);
                    let check = |got: &[Weight], instance: &str| {
                        let diff = got.iter().zip(&want).position(|(g, w)| g != w);
                        assert!(
                            diff.is_none(),
                            "seed={seed:#x} size={size} shape={name}: {instance} differs \
                             from the textbook loop first at cell {diff:?}"
                        );
                    };
                    let mut got = data.clone();
                    fwi_slice_baseline(InSlice { data: &mut got, a, b, c }, size);
                    check(&got, "baseline instance");
                    let mut got = data.clone();
                    if run_avx2(InSlice { data: &mut got, a, b, c }, size) {
                        check(&got, "avx2 instance");
                        avx2_ran = true;
                    }
                    let mut got = data.clone();
                    fwi(&mut got, a, b, c, size);
                    check(&got, "fwi");
                    cases += 1;
                    // The same cells as borrowed tiles, where the views
                    // are whole tiles.
                    for instance in ["baseline instance on tiles", "avx2 instance on tiles", "fwi_tiles"] {
                        let mut got = data.clone();
                        let ran = match tiles_of(&mut got, a, b, c, size) {
                            None => break,
                            Some((ta, tb, tc)) => match instance {
                                "baseline instance on tiles" => {
                                    fwi_slice_baseline(InTiles { a: ta, b: tb, c: tc, size }, size);
                                    true
                                }
                                "avx2 instance on tiles" => {
                                    run_avx2(InTiles { a: ta, b: tb, c: tc, size }, size)
                                }
                                _ => {
                                    fwi_tiles(ta, tb, tc, size);
                                    true
                                }
                            },
                        };
                        if ran {
                            check(&got, instance);
                            tile_cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 8 * SHAPES.len() * 4);
        // Five shapes are whole tiles: A=B=C, A=B,C, A=C,B, B=C,A and
        // disjoint; the baseline instance and `fwi_tiles` always run.
        let tile_instances = if avx2_ran { 3 } else { 2 };
        assert_eq!(tile_cases, 8 * 5 * 4 * tile_instances);
        if !avx2_ran {
            eprintln!("fwi differential: this CPU lacks AVX2, so the avx2 instance was not run");
        }
    }

    #[test]
    fn views_disjoint_is_exact_for_equal_strides() {
        let mut rng = cachegraph_rng::StdRng::seed_from_u64(0xd15_0107);
        let cells = |v: View, size: usize| -> std::collections::BTreeSet<usize> {
            (0..size * size).map(|x| v.at(x / size, x % size)).collect()
        };
        for case in 0..2000 {
            let size = rng.gen_range(1usize..6);
            let sx = size + rng.gen_range(0usize..4);
            let sy = if rng.gen_bool(0.8) { sx } else { size + rng.gen_range(0usize..4) };
            let x = View { offset: rng.gen_range(0usize..40), stride: sx };
            let y = View { offset: rng.gen_range(0usize..40), stride: sy };
            let apart = cells(x, size).is_disjoint(&cells(y, size));
            let claimed = views_disjoint(x, y, size);
            if sx == sy {
                assert_eq!(claimed, apart, "case {case}: {x:?} {y:?} size {size}");
            } else {
                assert!(!claimed || apart, "case {case}: {x:?} {y:?} size {size} claimed disjoint");
            }
        }
    }

    #[test]
    fn instance_name_follows_the_detection() {
        let want = if avx2_detected() { "avx2" } else { "baseline" };
        assert_eq!(fwi_instance(), want);
    }
}
