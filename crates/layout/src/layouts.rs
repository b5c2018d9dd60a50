//! The three layouts: row-major, Block Data Layout, Z-Morton.

// tidy: kernel

/// Maps logical matrix coordinates to flat storage indices.
///
/// A layout may *pad* the logical `n x n` matrix to a larger
/// `padded_n x padded_n` storage shape (the tiled implementation needs `n`
/// to be a multiple of the tile size; the recursive one needs it to be a
/// tile size times a power of two — §4.1 discusses exactly this padding).
pub trait Layout: Clone + Send + Sync {
    /// Logical matrix dimension.
    fn n(&self) -> usize;

    /// Padded (storage) dimension, `>= n()`.
    fn padded_n(&self) -> usize;

    /// Number of storage elements (`padded_n()²`).
    fn storage_len(&self) -> usize {
        self.padded_n() * self.padded_n()
    }

    /// Flat index of logical element `(i, j)`; `i, j < padded_n()`.
    fn index(&self, i: usize, j: usize) -> usize;

    /// Length of the runs a row is stored in: for every `i` and every
    /// `j` that is a multiple of `run_len()`, the cells `(i, j)` up to
    /// `(i, j + run_len() - 1)` (clipped at `padded_n()`) sit at
    /// consecutive indices from `index(i, j)`. At least 1.
    fn run_len(&self) -> usize;
}

/// The usual row-major layout, no padding. This is the baseline layout in
/// every experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowMajor {
    n: usize,
}

impl RowMajor {
    /// Row-major layout for an `n x n` matrix.
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl Layout for RowMajor {
    fn n(&self) -> usize {
        self.n
    }

    fn padded_n(&self) -> usize {
        self.n
    }

    #[inline(always)]
    fn index(&self, i: usize, j: usize) -> usize {
        i * self.n + j
    }

    fn run_len(&self) -> usize {
        self.n.max(1)
    }
}

/// Block Data Layout (Fig. 6): the matrix is padded to a multiple of the
/// block size `b`; each `b x b` block is stored contiguously (row-major
/// inside the block), and blocks are laid out row-major.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockLayout {
    n: usize,
    b: usize,
    /// Blocks per side.
    nb: usize,
}

impl BlockLayout {
    /// BDL for an `n x n` matrix with `b x b` blocks. `n` is padded up to
    /// the next multiple of `b`.
    pub fn new(n: usize, b: usize) -> Self {
        assert!(b >= 1, "block size must be at least 1");
        let nb = n.div_ceil(b).max(1);
        Self { n, b, nb }
    }

    /// Block size.
    pub fn block(&self) -> usize {
        self.b
    }

    /// Blocks per side.
    pub fn blocks_per_side(&self) -> usize {
        self.nb
    }

    /// Flat index of the first element of block `(bi, bj)`.
    #[inline(always)]
    pub fn block_start(&self, bi: usize, bj: usize) -> usize {
        (bi * self.nb + bj) * self.b * self.b
    }
}

impl Layout for BlockLayout {
    fn n(&self) -> usize {
        self.n
    }

    fn padded_n(&self) -> usize {
        self.nb * self.b
    }

    #[inline(always)]
    fn index(&self, i: usize, j: usize) -> usize {
        let (bi, ii) = (i / self.b, i % self.b);
        let (bj, jj) = (j / self.b, j % self.b);
        self.block_start(bi, bj) + ii * self.b + jj
    }

    fn run_len(&self) -> usize {
        self.b
    }
}

/// Spread the low 32 bits of `x` so bit `t` lands at position `2t`.
#[inline(always)]
fn spread_bits(x: u64) -> u64 {
    let mut x = x & 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Z-Morton order of block coordinates `(bi, bj)`: quadrants recurse in
/// NW, NE, SW, SE order, i.e. the row bit is the more significant bit of
/// each interleaved pair.
#[inline(always)]
pub(crate) fn morton_of(bi: usize, bj: usize) -> usize {
    ((spread_bits(bi as u64) << 1) | spread_bits(bj as u64)) as usize
}

/// Z-Morton layout (Fig. 5): the matrix is padded to `base * 2^k`; the grid
/// of `base x base` tiles is ordered by Morton (Z) order and each tile is
/// stored row-major. With `base == 1` this is the fully recursive ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZMorton {
    n: usize,
    base: usize,
    /// Tiles per side; always a power of two.
    nt: usize,
}

impl ZMorton {
    /// Morton layout for an `n x n` matrix with `base x base` row-major
    /// leaf tiles. `n` is padded to `base * next_power_of_two(ceil(n/base))`.
    pub fn new(n: usize, base: usize) -> Self {
        assert!(base >= 1, "base tile must be at least 1");
        let nt = n.div_ceil(base).max(1).next_power_of_two();
        Self { n, base, nt }
    }

    /// Leaf tile size.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Leaf tiles per side (a power of two).
    pub fn tiles_per_side(&self) -> usize {
        self.nt
    }
}

impl Layout for ZMorton {
    fn n(&self) -> usize {
        self.n
    }

    fn padded_n(&self) -> usize {
        self.nt * self.base
    }

    #[inline(always)]
    fn index(&self, i: usize, j: usize) -> usize {
        let (ti, ii) = (i / self.base, i % self.base);
        let (tj, jj) = (j / self.base, j % self.base);
        morton_of(ti, tj) * self.base * self.base + ii * self.base + jj
    }

    fn run_len(&self) -> usize {
        self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_bijection<L: Layout>(l: &L) {
        let p = l.padded_n();
        let mut seen = HashSet::new();
        for i in 0..p {
            for j in 0..p {
                let idx = l.index(i, j);
                assert!(idx < l.storage_len(), "index out of range at ({i},{j})");
                assert!(seen.insert(idx), "duplicate index at ({i},{j})");
            }
        }
        assert_eq!(seen.len(), l.storage_len());
    }

    #[test]
    fn row_major_bijection() {
        is_bijection(&RowMajor::new(7));
    }

    #[test]
    fn block_layout_bijection_exact_fit() {
        is_bijection(&BlockLayout::new(8, 4));
    }

    #[test]
    fn block_layout_bijection_with_padding() {
        let l = BlockLayout::new(10, 4);
        assert_eq!(l.padded_n(), 12);
        is_bijection(&l);
    }

    #[test]
    fn morton_bijection_pow2() {
        is_bijection(&ZMorton::new(8, 2));
    }

    #[test]
    fn morton_bijection_padded() {
        let l = ZMorton::new(10, 4);
        assert_eq!(l.padded_n(), 16); // 4 * next_pow2(3)
        is_bijection(&l);
    }

    #[test]
    fn row_major_is_identity_order() {
        let l = RowMajor::new(3);
        assert_eq!(l.index(0, 0), 0);
        assert_eq!(l.index(1, 0), 3);
        assert_eq!(l.index(2, 2), 8);
    }

    #[test]
    fn bdl_blocks_are_contiguous() {
        let l = BlockLayout::new(4, 2);
        // Block (0,0) occupies indices 0..4.
        let mut idx: Vec<usize> =
            [(0, 0), (0, 1), (1, 0), (1, 1)].iter().map(|&(i, j)| l.index(i, j)).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
        // Within a block the order is row-major.
        assert_eq!(l.index(0, 0), 0);
        assert_eq!(l.index(0, 1), 1);
        assert_eq!(l.index(1, 0), 2);
    }

    #[test]
    fn morton_quadrant_order_is_nw_ne_sw_se() {
        // 2x2 tiles of size 1: NW=0, NE=1, SW=2, SE=3 (Fig. 5).
        let l = ZMorton::new(2, 1);
        assert_eq!(l.index(0, 0), 0);
        assert_eq!(l.index(0, 1), 1);
        assert_eq!(l.index(1, 0), 2);
        assert_eq!(l.index(1, 1), 3);
    }

    #[test]
    fn morton_recursive_order_4x4() {
        // Classic 4x4 Z-order with unit tiles.
        let l = ZMorton::new(4, 1);
        let expected = [
            [0, 1, 4, 5],
            [2, 3, 6, 7],
            [8, 9, 12, 13],
            [10, 11, 14, 15],
        ];
        for (i, row) in expected.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                assert_eq!(l.index(i, j), want, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn morton_leaf_tiles_row_major() {
        let l = ZMorton::new(4, 2);
        // Tile (0,0) is indices 0..4 in row-major order.
        assert_eq!(l.index(0, 0), 0);
        assert_eq!(l.index(0, 1), 1);
        assert_eq!(l.index(1, 0), 2);
        assert_eq!(l.index(1, 1), 3);
        // Tile (0,1) = Morton 1 starts at 4.
        assert_eq!(l.index(0, 2), 4);
        // Tile (1,0) = Morton 2 starts at 8.
        assert_eq!(l.index(2, 0), 8);
    }

    #[test]
    fn spread_bits_examples() {
        assert_eq!(spread_bits(0b11), 0b101);
        assert_eq!(spread_bits(0b101), 0b10001);
        assert_eq!(morton_of(1, 1), 3);
        assert_eq!(morton_of(1, 0), 2);
        assert_eq!(morton_of(0, 1), 1);
        assert_eq!(morton_of(2, 3), 0b1101);
    }

    #[test]
    fn n_1_degenerate_cases() {
        is_bijection(&RowMajor::new(1));
        is_bijection(&BlockLayout::new(1, 4));
        is_bijection(&ZMorton::new(1, 4));
    }
}
