//! Parallel tiled boolean closure — the driver deferred from the
//! parallel-FW PR, now expressed on the shared TaskGraph runtime.
//!
//! The serial tiled driver ([`transitive_closure_tiled`](crate::transitive_closure_tiled)) has the Fig. 4
//! band structure: close the diagonal row-band against itself, then
//! propagate the closed band into every other row. Phase 2 is
//! embarrassingly parallel *per row*: row `i`'s updates read only row `i`
//! itself and the band rows `lo..hi`, which no phase-2 task writes. The
//! serial loop nests `k` outside and `i` inside, but rows never interact
//! in phase 2, so the per-row projection — for ascending `k`, OR band
//! row `k` into row `i` whenever bit `(i, k)` is (by then) set — computes
//! bit-identical words in any row order. That loop-order argument is what
//! `cachegraph-check`'s closure driver model-checks.
//!
//! Execution is safe Rust end to end: the closed band rows are
//! snapshotted (they are stable for the whole phase), the outside rows
//! are carved into disjoint `&mut` word slices, and
//! [`cachegraph_plan::run_tasks_mut`] distributes contiguous row chunks
//! over scoped workers — the same chunking the schedule explorer
//! enumerates.
//!
//! Footprint domain: *row words*. Unit `i * words_per_row + j` is word
//! `j` of row `i`; a task's write footprint is the words of its rows, its
//! read footprint adds the band-row words.

use std::collections::BTreeSet;
use std::ops::Range;

use cachegraph_plan::{run_tasks_mut, NoSink, TaskFootprint, TaskGraph, UnitSink};

use crate::closure::BitMatrix;

/// The computation was abandoned at a band or row-chunk boundary. The
/// partial closure is dropped, never returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FwCancelled;

impl std::fmt::Display for FwCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tiled closure cancelled at a band or row-chunk boundary")
    }
}

impl std::error::Error for FwCancelled {}

/// The task plan for one band iteration of the parallel closure driver.
#[derive(Clone, Debug)]
pub struct ClosureBandPlan {
    /// First row of the band.
    pub lo: usize,
    /// One past the last row of the band.
    pub hi: usize,
    /// Rows outside the band, ascending — the phase-2 work items.
    pub out_rows: Vec<usize>,
    /// Index ranges into `out_rows`, one per phase-2 task (contiguous
    /// chunks, `threads.min(rows).max(1)` of them).
    pub chunks: Vec<Range<usize>>,
}

/// Build the plan for `band` of a `bands = n.div_ceil(b)` decomposition.
pub fn closure_band_plan(n: usize, b: usize, band: usize, threads: usize) -> ClosureBandPlan {
    assert!(b >= 1, "band height must be at least 1");
    assert!(threads >= 1, "need at least one thread");
    let lo = band * b;
    let hi = (lo + b).min(n);
    assert!(lo < n, "band {band} out of range for n={n}");
    let out_rows: Vec<usize> = (0..lo).chain(hi..n).collect();
    let mut chunks = Vec::new();
    if !out_rows.is_empty() {
        let workers = threads.min(out_rows.len()).max(1);
        let chunk = out_rows.len().div_ceil(workers);
        let mut start = 0;
        while start < out_rows.len() {
            let end = (start + chunk).min(out_rows.len());
            chunks.push(start..end);
            start = end;
        }
    }
    ClosureBandPlan { lo, hi, out_rows, chunks }
}

impl ClosureBandPlan {
    /// Unit range of row `i`'s words.
    fn row_units(i: usize, w: usize) -> Range<u64> {
        (i * w) as u64..((i + 1) * w) as u64
    }

    /// Declared footprint of phase-2 task `t` (word units): writes = the
    /// words of its rows; reads = those plus the band-row words.
    pub fn task_footprint(&self, t: usize, words_per_row: usize) -> TaskFootprint {
        let mut reads: BTreeSet<u64> = BTreeSet::new();
        let mut writes: BTreeSet<u64> = BTreeSet::new();
        for &i in &self.out_rows[self.chunks[t].clone()] {
            reads.extend(Self::row_units(i, words_per_row));
            writes.extend(Self::row_units(i, words_per_row));
        }
        for k in self.lo..self.hi {
            reads.extend(Self::row_units(k, words_per_row));
        }
        TaskFootprint { reads, writes }
    }

    /// The full two-phase [`TaskGraph`] of this band iteration: the
    /// serial band self-closure (one task reading and writing the band
    /// words) and the parallel propagation phase.
    pub fn task_graph(&self, words_per_row: usize) -> TaskGraph {
        let mut g = TaskGraph::new("closure");
        let mut band_units: BTreeSet<u64> = BTreeSet::new();
        for k in self.lo..self.hi {
            band_units.extend(Self::row_units(k, words_per_row));
        }
        g.push_phase(
            "band",
            vec![TaskFootprint { reads: band_units.clone(), writes: band_units }],
        );
        let tasks = (0..self.chunks.len())
            .map(|t| self.task_footprint(t, words_per_row))
            .collect();
        g.push_phase("propagate", tasks);
        g
    }
}

/// Phase 1 of a band iteration: close the band against itself — the
/// serial tiled driver's statements, with every word access reported to
/// the sink (unit = `row * words_per_row + word`). With [`NoSink`] this
/// is exactly the un-instrumented loop.
pub fn close_band<S: UnitSink>(reach: &mut BitMatrix, lo: usize, hi: usize, sink: &mut S) {
    let w = reach.words_per_row();
    for k in lo..hi {
        for i in lo..hi {
            if i == k {
                continue;
            }
            sink.read((i * w + k / 64) as u64);
            if reach.get(i, k) {
                for j in 0..w {
                    sink.read((k * w + j) as u64);
                    sink.read((i * w + j) as u64);
                    sink.write((i * w + j) as u64);
                }
                reach.or_row_into(k, i);
            }
        }
    }
}

/// Propagate the closed band (`band_rows`, a snapshot of rows
/// `lo..hi`) into outside row `i`, ascending `k` — the per-row
/// projection of the serial phase-2 loop, with word accesses reported
/// to the sink.
pub fn propagate_row<S: UnitSink>(
    row: &mut [u64],
    i: usize,
    band_rows: &[u64],
    lo: usize,
    hi: usize,
    w: usize,
    sink: &mut S,
) {
    for k in lo..hi {
        sink.read((i * w + k / 64) as u64);
        if row[k / 64] >> (k % 64) & 1 == 1 {
            let src = &band_rows[(k - lo) * w..(k - lo + 1) * w];
            for (j, (d, &s)) in row.iter_mut().zip(src).enumerate() {
                sink.read((k * w + j) as u64);
                sink.read((i * w + j) as u64);
                sink.write((i * w + j) as u64);
                *d |= s;
            }
        }
    }
}

/// [`transitive_closure_tiled`](crate::transitive_closure_tiled) on
/// `threads` scoped workers; bit-identical result.
pub fn transitive_closure_tiled_parallel(reach: BitMatrix, b: usize, threads: usize) -> BitMatrix {
    match transitive_closure_tiled_parallel_cancellable(reach, b, threads, &|| false) {
        Ok(m) => m,
        // tidy: allow(panic-policy) — the never-cancelling hook makes Err unreachable.
        Err(FwCancelled) => unreachable!("closure cancelled without a cancel hook"),
    }
}

/// [`transitive_closure_tiled_parallel`] with deadline propagation:
/// `cancel` is polled on the coordinator at every band boundary and by
/// every worker before each row chunk. On `Err` the matrix is dropped —
/// a partially propagated closure is not an answer.
pub fn transitive_closure_tiled_parallel_cancellable(
    mut reach: BitMatrix,
    b: usize,
    threads: usize,
    cancel: &(impl Fn() -> bool + Sync),
) -> Result<BitMatrix, FwCancelled> {
    assert!(b >= 1, "band height must be at least 1");
    assert!(threads >= 1, "need at least one thread");
    let n = reach.n();
    let w = reach.words_per_row();
    if n == 0 {
        return Ok(reach);
    }
    let bands = n.div_ceil(b);
    let cancelled = std::sync::atomic::AtomicBool::new(false);
    for band in 0..bands {
        if cancel() {
            return Err(FwCancelled);
        }
        let plan = closure_band_plan(n, b, band, threads);
        // Phase 1: serial band self-closure — same statements as the
        // serial tiled driver.
        close_band(&mut reach, plan.lo, plan.hi, &mut NoSink);
        // Phase 2: snapshot the closed band (stable for the phase), carve
        // the outside rows into disjoint &mut word slices, and propagate
        // per chunk. `run_tasks_mut` with threads >= tasks runs one task
        // per worker — the schedule space the explorer models.
        let band_rows: Vec<u64> = reach.bits()[plan.lo * w..plan.hi * w].to_vec();
        let bits = reach.bits_mut();
        let (pre, rest) = bits.split_at_mut(plan.lo * w);
        let (_band, post) = rest.split_at_mut((plan.hi - plan.lo) * w);
        let mut rows: Vec<&mut [u64]> = pre.chunks_mut(w).chain(post.chunks_mut(w)).collect();
        let mut tasks: Vec<Vec<&mut [u64]>> = Vec::with_capacity(plan.chunks.len());
        for range in plan.chunks.iter().rev() {
            tasks.push(rows.split_off(range.start));
        }
        tasks.reverse();
        run_tasks_mut(&mut tasks, threads, |t, chunk| {
            if cancel() {
                cancelled.store(true, std::sync::atomic::Ordering::Relaxed);
                return;
            }
            let row_ids = &plan.out_rows[plan.chunks[t].clone()];
            for (row, &i) in chunk.iter_mut().zip(row_ids) {
                propagate_row(row, i, &band_rows, plan.lo, plan.hi, w, &mut NoSink);
            }
        });
        if cancelled.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(FwCancelled);
        }
    }
    Ok(reach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::{transitive_closure_of, transitive_closure_tiled};
    use cachegraph_graph::generators;

    #[test]
    fn parallel_matches_serial_tiled_bit_identically() {
        for seed in 0..4 {
            let g = generators::random_directed(70, 0.04, 1, 300 + seed).build_array();
            let base = transitive_closure_of(&g);
            for b in [1usize, 7, 16, 64, 100] {
                for threads in [1, 2, 4] {
                    let serial = transitive_closure_tiled(BitMatrix::from_graph(&g), b);
                    let par = transitive_closure_tiled_parallel(
                        BitMatrix::from_graph(&g),
                        b,
                        threads,
                    );
                    assert_eq!(par, serial, "seed {seed} b {b} threads {threads}");
                    assert_eq!(par, base, "seed {seed} b {b} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn tiny_and_degenerate_sizes() {
        for n in [1usize, 2, 63, 64, 65] {
            let g = generators::random_directed(n, 0.2, 1, n as u64).build_array();
            let base = transitive_closure_of(&g);
            for b in [1usize, 3, 64] {
                let par =
                    transitive_closure_tiled_parallel(BitMatrix::from_graph(&g), b, 4);
                assert_eq!(par, base, "n {n} b {b}");
            }
        }
    }

    #[test]
    fn plan_footprints_are_disjoint() {
        for (n, b, threads) in [(10usize, 3usize, 2usize), (65, 16, 4), (7, 7, 3), (12, 4, 12)] {
            let w = n.div_ceil(64);
            let bands = n.div_ceil(b);
            for band in 0..bands {
                let plan = closure_band_plan(n, b, band, threads);
                let g = plan.task_graph(w);
                let v = g.check_disjoint();
                assert!(v.is_empty(), "n={n} b={b} band={band}: {}", v[0]);
            }
        }
    }

    #[test]
    fn cancellation_returns_err_and_all_workers_poll() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let g = generators::random_directed(200, 0.05, 1, 11).build_array();
        let seen = Mutex::new(HashSet::new());
        let threads = 4;
        let r = transitive_closure_tiled_parallel_cancellable(
            BitMatrix::from_graph(&g),
            16,
            threads,
            &|| {
                let mut ids = match seen.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                ids.insert(std::thread::current().id());
                ids.len() > threads // cancel once every worker has polled
            },
        );
        assert_eq!(r, Err(FwCancelled));
        let ids = match seen.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        assert!(ids.len() > threads, "coordinator + {threads} workers must all poll");
        assert!(FwCancelled.to_string().contains("row-chunk boundary"));
    }
}
