//! Tiled Floyd-Warshall with the copy optimization of Lam, Rothberg &
//! Wolf [20] (cited in the paper's §2/§3.1): when the data must stay in
//! the usual row-major layout (e.g. it is shared with other code), each
//! tile is copied into a contiguous scratch buffer before the kernel runs
//! and the result is copied back. This buys the Block Data Layout's
//! conflict-freedom at the cost of `O(B²)` copy work per kernel call —
//! the classic alternative the BDL makes unnecessary, included so the
//! trade can be measured (`repro layouts` / the `fw_bench` group).

use cachegraph_graph::Weight;
use cachegraph_layout::{Layout, RowMajor};

use crate::kernel::{fwi, View};
use crate::matrix::FwMatrix;

/// Identifies which of the three scratch buffers a tile operand uses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Operand {
    A,
    B,
    C,
}

/// Scratch tiles plus copy helpers.
struct Scratch {
    b: usize,
    /// Three contiguous `b x b` buffers, one per operand, in one
    /// allocation: A at 0, B at `b²`, C at `2b²`.
    data: Vec<Weight>,
}

impl Scratch {
    fn new(b: usize) -> Self {
        Self { b, data: vec![0; 3 * b * b] }
    }

    fn offset(&self, op: Operand) -> usize {
        match op {
            Operand::A => 0,
            Operand::B => self.b * self.b,
            Operand::C => 2 * self.b * self.b,
        }
    }

    fn view(&self, op: Operand) -> View {
        View { offset: self.offset(op), stride: self.b }
    }

    /// Copy a tile from the matrix into scratch slot `op`.
    fn copy_in(&mut self, src: &[Weight], tile: View, op: Operand) {
        let off = self.offset(op);
        for i in 0..self.b {
            let s = tile.at(i, 0);
            self.data[off + i * self.b..off + (i + 1) * self.b]
                .copy_from_slice(&src[s..s + self.b]);
        }
    }

    /// Copy scratch slot `op` back into the matrix tile.
    fn copy_out(&self, dst: &mut [Weight], tile: View, op: Operand) {
        let off = self.offset(op);
        for i in 0..self.b {
            let d = tile.at(i, 0);
            dst[d..d + self.b].copy_from_slice(&self.data[off + i * self.b..off + (i + 1) * self.b]);
        }
    }
}

/// Run FWI on scratch copies of the three tiles, preserving aliasing:
/// operands that refer to the same tile share one scratch slot, so the
/// in-place update semantics of the aliased kernel are kept.
fn fwi_copied(data: &mut [Weight], scratch: &mut Scratch, a: View, bt: View, ct: View, b: usize) {
    scratch.copy_in(data, a, Operand::A);
    let b_op = if bt == a {
        Operand::A
    } else {
        scratch.copy_in(data, bt, Operand::B);
        Operand::B
    };
    let c_op = if ct == a {
        Operand::A
    } else if ct == bt {
        b_op
    } else {
        scratch.copy_in(data, ct, Operand::C);
        Operand::C
    };
    let (va, vb, vc) = (scratch.view(Operand::A), scratch.view(b_op), scratch.view(c_op));
    fwi(&mut scratch.data, va, vb, vc, b);
    scratch.copy_out(data, a, Operand::A);
}

/// Tiled Floyd-Warshall over a **row-major** matrix with per-tile
/// copy-in/copy-out. Same phase structure and result as
/// [`fw_tiled`](crate::fw_tiled).
pub fn fw_tiled_copy(m: &mut FwMatrix<RowMajor>, b: usize) {
    let p = m.padded_n();
    let n = m.n();
    assert!(b >= 1 && p.is_multiple_of(b), "matrix size {p} must be a multiple of the tile size {b}");
    let real_tiles = n.div_ceil(b);
    let layout = *m.layout();
    // Row-major exposes every in-range region as a strided view, so the
    // view can be built directly with no fallible lookup.
    let view = |ti: usize, tj: usize| View { offset: layout.index(ti * b, tj * b), stride: p };
    let mut scratch = Scratch::new(b);
    let data = m.storage_mut();
    for t in 0..real_tiles {
        let diag = view(t, t);
        fwi_copied(data, &mut scratch, diag, diag, diag, b);
        for j in 0..real_tiles {
            if j != t {
                let a = view(t, j);
                fwi_copied(data, &mut scratch, a, diag, a, b);
            }
        }
        for i in 0..real_tiles {
            if i != t {
                let a = view(i, t);
                fwi_copied(data, &mut scratch, a, a, diag, b);
            }
        }
        for i in 0..real_tiles {
            if i == t {
                continue;
            }
            let bt = view(i, t);
            for j in 0..real_tiles {
                if j == t {
                    continue;
                }
                fwi_copied(data, &mut scratch, view(i, j), bt, view(t, j), b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_iterative_slice;
    use cachegraph_graph::INF;
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
    fn matches_baseline() {
        for n in [8usize, 16, 24, 32] {
            let costs = random_costs(n, 0.3, n as u64);
            let mut expect = costs.clone();
            fw_iterative_slice(&mut expect, n);
            for b in [2usize, 4, 8] {
                if n % b != 0 {
                    continue;
                }
                let mut m = FwMatrix::from_costs(RowMajor::new(n), &costs);
                fw_tiled_copy(&mut m, b);
                assert_eq!(m.to_row_major(), expect, "n={n} b={b}");
            }
        }
    }

    #[test]
    fn aliased_operands_share_scratch() {
        // The diagonal call (A = B = C) must behave exactly like the
        // in-place kernel, including intermediate-value reuse.
        let n = 8;
        let costs = random_costs(n, 0.6, 9);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);
        let mut m = FwMatrix::from_costs(RowMajor::new(n), &costs);
        fw_tiled_copy(&mut m, n); // single tile: one fully-aliased call
        assert_eq!(m.to_row_major(), expect);
    }

    #[test]
    fn single_element_tiles() {
        let n = 4;
        let costs = random_costs(n, 0.5, 3);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);
        let mut m = FwMatrix::from_costs(RowMajor::new(n), &costs);
        fw_tiled_copy(&mut m, 1);
        assert_eq!(m.to_row_major(), expect);
    }
}
