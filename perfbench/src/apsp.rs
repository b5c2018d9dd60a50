//! apsp-batch: an in-process loop of `fw::solve_apsp` over a few seeded
//! dense cost matrices at n = 512. Each matrix is 1 MiB: larger than
//! L1d and within the private L2, so the FW kernel and the Z-Morton
//! conversions do all the work and the run medians agree. At n = 1024
//! the matrix spills into the L3 shared with neighbours.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cachegraph_fw::{
    fw_iterative_slice, fw_recursive, solve_apsp, FwMatrix, Weight, DEFAULT_L1_ASSOC,
    DEFAULT_L1_BYTES,
};
use cachegraph_layout::{select_block_size, ZMorton};
use cachegraph_rng::StdRng;

use crate::report::{RunReport, Tally};
use crate::spans::Recorder;
use crate::{host, stats};

/// Vertices per matrix.
pub const N: usize = 512;
/// Distinct seeded inputs the loop cycles through.
const MATRICES: usize = 4;
const MAX_WEIGHT: Weight = 1_000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// The seeded dense cost matrices (every off-diagonal edge present).
pub fn matrices(seed: u64) -> Vec<Vec<Weight>> {
    (0..MATRICES as u64)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ (k + 1));
            (0..N * N)
                .map(|i| {
                    if i / N == i % N {
                        0
                    } else {
                        rng.gen_range(1..=MAX_WEIGHT)
                    }
                })
                .collect()
        })
        .collect()
}

/// FNV-1a over the distance words: lets every operation's output be
/// checked after the timed window without keeping it.
fn digest(d: &[Weight]) -> u64 {
    d.iter().fold(0xCBF2_9CE4_8422_2325, |h, &w| {
        (h ^ u64::from(w)).wrapping_mul(0x100_0000_01B3)
    })
}

/// `solve_apsp`, called layer by layer inside spans: the same block
/// size, the same Z-Morton conversion in, recursive FW, conversion out.
fn solve_traced(costs: &[Weight], rec: &mut Recorder, request: u64) -> Vec<Weight> {
    let root = rec.open("apsp.op", None, request);
    let block = select_block_size(
        DEFAULT_L1_BYTES,
        DEFAULT_L1_ASSOC,
        std::mem::size_of::<Weight>(),
    )
    .estimate
    .min(N.next_power_of_two());
    let mut m = rec.time("layout.morton_in", Some(root), request, || {
        FwMatrix::from_costs(ZMorton::new(N, block), costs)
    });
    rec.time("fw.recursive", Some(root), request, || {
        fw_recursive(&mut m, block)
    });
    let d = rec.time("layout.morton_out", Some(root), request, || {
        m.to_row_major()
    });
    rec.close(root);
    d
}

/// Solved outputs, as `(matrix index, digest)` per operation.
struct Solves {
    tally: Tally,
    outputs: Vec<(usize, u64)>,
    wall_s: f64,
}

/// Solve the matrices in turn for at least `length` and at least
/// `min_ops` operations, traced through `rec` when one is given.
fn solve_loop(
    mats: &[Vec<Weight>],
    length: Duration,
    min_ops: usize,
    mut rec: Option<&mut Recorder>,
) -> Solves {
    let start = Instant::now();
    let mut s = Solves {
        tally: Tally::default(),
        outputs: Vec::new(),
        wall_s: 0.0,
    };
    let mut i = 0;
    while start.elapsed() < length || i < min_ops {
        let k = i % mats.len();
        let t = Instant::now();
        let d = match rec.as_deref_mut() {
            Some(rec) => solve_traced(&mats[k], rec, i as u64),
            None => solve_apsp(black_box(&mats[k]), N),
        };
        s.tally.ok(t.elapsed().as_secs_f64() * 1e3);
        s.outputs.push((k, digest(&d)));
        i += 1;
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s
}

/// The answer to each distinct input, from the iterative triple loop.
fn oracle(mats: &[Vec<Weight>]) -> Vec<u64> {
    mats.iter()
        .map(|m| {
            let mut d = m.clone();
            fw_iterative_slice(&mut d, N);
            digest(&d)
        })
        .collect()
}

/// Check every operation's output against its input's answer. Returns
/// the number of wrong outputs.
fn check(expected: &[u64], outputs: &[(usize, u64)]) -> u64 {
    let wrong = outputs.iter().filter(|&&(k, h)| expected[k] != h).count() as u64;
    if wrong > 0 {
        eprintln!("perfbench: {wrong} APSP outputs differ from fw_iterative_slice");
    }
    wrong
}

/// An untraced run: median of [`SETUP_REPEATS`] set-ups (generate the
/// inputs, solve one to warm up), then the loop for `seconds` in
/// [`host::sliced`] slices.
pub fn run(seed: u64, seconds: u64) -> Result<RunReport, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut mats = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        mats = matrices(seed);
        black_box(solve_apsp(&mats[0], N));
        setups.push(t.elapsed().as_secs_f64());
    }
    let pid = std::process::id();
    let (mut tally, mut outputs, mut wall_s) = (Tally::default(), Vec::new(), 0.0);
    let (cpu_ms, steal) = host::sliced(seconds, pid, |len| {
        let s = solve_loop(&mats, len, 0, None);
        tally.merge(s.tally);
        outputs.extend(s.outputs);
        wall_s += s.wall_s;
    })
    .map_err(|e| e.to_string())?;
    let rss = host::peak_rss_mib(pid).map_err(|e| e.to_string())?;

    tally.wrong += check(&oracle(&mats), &outputs);
    let ops = tally.ok_ms.len() as f64;
    let mut r = RunReport::from_tally(&tally);
    r.set("setup_s", stats::median_of(&setups, "setup_s")?);
    r.set("p50_ms", stats::median_of(&tally.ok_ms, "apsp-batch")?);
    r.set("tail_ms", stats::tail(&tally.ok_ms, 90, "apsp-batch")?);
    r.set("ops_per_s", ops / wall_s);
    r.set("cpu_ms_per_op", cpu_ms / ops);
    r.set("peak_rss_mb", rss);
    println!("{:<12} host: steal {steal:.4} of CPU", "apsp-batch");
    Ok(r)
}

/// The APSP part of a traced run: one solve loop of `block_len` per
/// entry of `blocks`, traced where the entry is true, each traced block
/// at least `min_traced` solves. Returns the checked tally, the traced
/// p50 and the untraced p50 (`None` without an untraced block).
pub fn traced(
    seed: u64,
    blocks: &[bool],
    block_len: Duration,
    min_traced: usize,
    rec: &mut Recorder,
) -> Result<(Tally, f64, Option<f64>), String> {
    let mats = matrices(seed);
    black_box(solve_apsp(&mats[0], N));
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut outputs = Vec::new();
    for &t in blocks {
        let s = if t {
            solve_loop(&mats, block_len, min_traced, Some(&mut *rec))
        } else {
            solve_loop(&mats, block_len, 0, None)
        };
        outputs.extend(s.outputs);
        if t {
            traced.merge(s.tally)
        } else {
            plain.merge(s.tally)
        }
    }
    let untraced_p50 = stats::median(&plain.ok_ms);
    let traced_p50 = stats::median_of(&traced.ok_ms, "traced solves")?;
    plain.merge(traced);
    plain.wrong += check(&oracle(&mats), &outputs);
    Ok((plain, traced_p50, untraced_p50))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_matrices() {
        let a = matrices(11);
        assert_eq!(a, matrices(11));
        assert_ne!(a, matrices(12));
        assert_eq!(a.len(), MATRICES);
        assert!(a
            .iter()
            .all(|m| m.len() == N * N && (0..N).all(|v| m[v * N + v] == 0)));
        assert!(a.iter().all(|m| m.iter().all(|&w| w <= MAX_WEIGHT)));
    }

    #[test]
    fn traced_solve_matches_solve_apsp_and_wrong_outputs_count() {
        let mats = matrices(5);
        let mut rec = Recorder::new(Instant::now());
        let traced = solve_traced(&mats[1], &mut rec, 0);
        assert_eq!(traced, solve_apsp(&mats[1], N));
        for name in [
            "apsp.op",
            "layout.morton_in",
            "fw.recursive",
            "layout.morton_out",
        ] {
            assert_eq!(rec.durations_ms(name).len(), 1, "{name}");
        }
        let good = digest(&traced);
        assert_eq!(check(&oracle(&mats[1..2]), &[(0, good), (0, good ^ 1)]), 1);
    }
}
