//! Randomized property tests for the layout crate: every layout must be a
//! bijection onto the storage range, and matrices must round-trip through
//! any layout. Cases are drawn from a seeded PRNG so runs are
//! deterministic and reproducible offline.

use cachegraph_layout::{BlockLayout, Layout, Matrix, RowMajor, ZMorton};
use cachegraph_rng::StdRng;
use std::collections::HashSet;

fn assert_bijection<L: Layout>(l: &L) {
    let p = l.padded_n();
    let mut seen = HashSet::with_capacity(p * p);
    for i in 0..p {
        for j in 0..p {
            let idx = l.index(i, j);
            assert!(idx < l.storage_len());
            assert!(seen.insert(idx), "collision at ({i}, {j})");
        }
    }
}

#[test]
fn block_layout_bijective() {
    let mut rng = StdRng::seed_from_u64(0xb1b1);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..48);
        let b = rng.gen_range(1usize..12);
        assert_bijection(&BlockLayout::new(n, b));
    }
}

#[test]
fn morton_bijective() {
    let mut rng = StdRng::seed_from_u64(0x3035);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..48);
        let base = rng.gen_range(1usize..12);
        assert_bijection(&ZMorton::new(n, base));
    }
}

#[test]
fn row_major_bijective() {
    for n in 1usize..48 {
        assert_bijection(&RowMajor::new(n));
    }
}

#[test]
fn matrix_roundtrip_bdl() {
    let mut rng = StdRng::seed_from_u64(0xbd1);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..24);
        let b = rng.gen_range(1usize..9);
        let seed = rng.next_u64();
        let data: Vec<u32> =
            (0..n * n).map(|i| (seed.wrapping_mul(i as u64 + 1) >> 13) as u32).collect();
        let m = Matrix::from_row_major(BlockLayout::new(n, b), &data, u32::MAX);
        assert_eq!(m.to_row_major(), data);
    }
}

#[test]
fn matrix_roundtrip_morton() {
    let mut rng = StdRng::seed_from_u64(0x2015);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..24);
        let base = rng.gen_range(1usize..9);
        let seed = rng.next_u64();
        let data: Vec<u32> =
            (0..n * n).map(|i| (seed.wrapping_mul(i as u64 + 7) >> 11) as u32).collect();
        let m = Matrix::from_row_major(ZMorton::new(n, base), &data, u32::MAX);
        assert_eq!(m.to_row_major(), data);
    }
}

#[test]
fn layouts_agree_on_logical_contents() {
    let mut rng = StdRng::seed_from_u64(0xa9e5);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..20);
        let seed = rng.next_u64();
        let data: Vec<u32> = (0..n * n).map(|i| (seed ^ (i as u64 * 0x9e37_79b9)) as u32).collect();
        let rm = Matrix::from_row_major(RowMajor::new(n), &data, 0);
        let bd = Matrix::from_row_major(BlockLayout::new(n, 3), &data, 0);
        let zm = Matrix::from_row_major(ZMorton::new(n, 2), &data, 0);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(rm.get(i, j), bd.get(i, j));
                assert_eq!(rm.get(i, j), zm.get(i, j));
            }
        }
    }
}

/// The run-copy conversions must build exactly the storage that writing
/// each cell through `index` builds, padding included, and read back the
/// logical contents, on every layout (ragged padding and unit tiles too).
fn assert_run_copy_matches_cells<L: Layout>(layout: L, data: &[u32], tag: &str) {
    let n = layout.n();
    let mut cells = Matrix::filled(layout.clone(), u32::MAX);
    for i in 0..n {
        for j in 0..n {
            cells.set(i, j, data[i * n + j]);
        }
    }
    let runs = Matrix::from_row_major(layout, data, u32::MAX);
    assert_eq!(runs.as_slice(), cells.as_slice(), "{tag}: storage differs");
    assert_eq!(runs.to_row_major(), data, "{tag}: round trip differs");
}

#[test]
fn run_copy_conversions_match_cell_writes() {
    let mut rng = StdRng::seed_from_u64(0x4c0b);
    for case in 0..96 {
        let n = rng.gen_range(1usize..40);
        let b = if case % 8 == 0 { 1 } else { rng.gen_range(1usize..12) };
        let data: Vec<u32> = (0..n * n).map(|_| rng.next_u64() as u32).collect();
        let tag = |l: &str| format!("seed=0x4c0b case={case} {l} n={n} b={b}");
        assert_run_copy_matches_cells(RowMajor::new(n), &data, &tag("RowMajor"));
        assert_run_copy_matches_cells(BlockLayout::new(n, b), &data, &tag("BlockLayout"));
        assert_run_copy_matches_cells(ZMorton::new(n, b), &data, &tag("ZMorton"));
    }
}
