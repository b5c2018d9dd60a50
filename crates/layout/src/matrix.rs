//! A matrix coupling storage with a [`Layout`].

use crate::layouts::Layout;

/// An `n x n` matrix stored according to layout `L`.
///
/// Logical indices run over `0..n()`; the padding region (if the layout
/// pads) is reachable through [`get_padded`](Matrix::get_padded) /
/// [`set_padded`](Matrix::set_padded) and is initialised to the fill value
/// given at construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matrix<T, L: Layout> {
    layout: L,
    data: Vec<T>,
}

impl<T: Copy, L: Layout> Matrix<T, L> {
    /// A matrix with every element (padding included) set to `fill`.
    pub fn filled(layout: L, fill: T) -> Self {
        let len = layout.storage_len();
        Self { layout, data: vec![fill; len] }
    }

    /// Build from a row-major slice of the logical `n x n` data; padding is
    /// set to `pad_fill`. Copies each row one storage run
    /// ([`Layout::run_len`]) at a time.
    pub fn from_row_major(layout: L, row_major: &[T], pad_fill: T) -> Self {
        let n = layout.n();
        assert_eq!(row_major.len(), n * n, "row-major data must be n*n");
        let mut m = Self::filled(layout, pad_fill);
        let run = m.layout.run_len();
        for (i, row) in row_major.chunks_exact(n.max(1)).enumerate() {
            for (r, src) in row.chunks(run).enumerate() {
                let start = m.layout.index(i, r * run);
                m.data[start..start + src.len()].copy_from_slice(src);
            }
        }
        m
    }

    /// Logical dimension.
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// Padded (storage) dimension.
    pub fn padded_n(&self) -> usize {
        self.layout.padded_n()
    }

    /// The layout.
    pub fn layout(&self) -> &L {
        &self.layout
    }

    /// Read logical element `(i, j)`; `i, j < n()`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.layout.n() && j < self.layout.n());
        self.data[self.layout.index(i, j)]
    }

    /// Write logical element `(i, j)`; `i, j < n()`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.layout.n() && j < self.layout.n());
        let idx = self.layout.index(i, j);
        self.data[idx] = v;
    }

    /// Read element `(i, j)` of the padded matrix; `i, j < padded_n()`.
    #[inline(always)]
    pub fn get_padded(&self, i: usize, j: usize) -> T {
        self.data[self.layout.index(i, j)]
    }

    /// Write element `(i, j)` of the padded matrix; `i, j < padded_n()`.
    #[inline(always)]
    pub fn set_padded(&mut self, i: usize, j: usize, v: T) {
        let idx = self.layout.index(i, j);
        self.data[idx] = v;
    }

    /// Copy the logical contents out in row-major order, one storage run
    /// ([`Layout::run_len`]) at a time.
    pub fn to_row_major(&self) -> Vec<T> {
        let n = self.layout.n();
        let run = self.layout.run_len();
        let mut out = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in (0..n).step_by(run) {
                let start = self.layout.index(i, j);
                out.extend_from_slice(&self.data[start..start + run.min(n - j)]);
            }
        }
        out
    }

    /// Raw storage (layout order). Exposed for the compute kernels, which
    /// index it through the layout for speed.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage (layout order).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use crate::layouts::{BlockLayout, RowMajor, ZMorton};

    use super::*;

    #[test]
    fn roundtrip_row_major() {
        let data: Vec<u32> = (0..16).collect();
        let m = Matrix::from_row_major(RowMajor::new(4), &data, 0);
        assert_eq!(m.to_row_major(), data);
    }

    #[test]
    fn roundtrip_bdl_with_padding() {
        let data: Vec<u32> = (0..25).collect();
        let m = Matrix::from_row_major(BlockLayout::new(5, 4), &data, 99);
        assert_eq!(m.padded_n(), 8);
        assert_eq!(m.to_row_major(), data);
        // Padding cells keep the fill value.
        assert_eq!(m.get_padded(7, 7), 99);
        assert_eq!(m.get_padded(0, 5), 99);
    }

    #[test]
    fn roundtrip_morton() {
        let data: Vec<u32> = (0..36).collect();
        let m = Matrix::from_row_major(ZMorton::new(6, 2), &data, 0);
        assert_eq!(m.padded_n(), 8);
        assert_eq!(m.to_row_major(), data);
    }

    #[test]
    fn set_get() {
        let mut m = Matrix::filled(BlockLayout::new(6, 2), 0u32);
        m.set(5, 3, 77);
        assert_eq!(m.get(5, 3), 77);
        assert_eq!(m.get(3, 5), 0);
    }

    #[test]
    #[should_panic(expected = "n*n")]
    fn from_row_major_wrong_len() {
        Matrix::from_row_major(RowMajor::new(3), &[1u32, 2, 3], 0);
    }
}
