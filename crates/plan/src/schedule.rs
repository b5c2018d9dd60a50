//! The generic schedule-exploration engine.
//!
//! A checker re-executes one barrier-delimited phase of a parallel driver
//! over a cloneable state `S` (typically a [`ShadowMem`](crate::shadow))
//! under a deterministic scheduler. Workers and their step sequences
//! mirror the runtime's chunking exactly ([`worker_steps`] matches
//! [`run_tasks`](crate::runtime::run_tasks)); a schedule is a sequence of
//! worker ids, and the scheduler runs the next step of the named worker
//! at each position.
//!
//! Per phase the engine enumerates **every** interleaving when their
//! number is within [`ScheduleOptions::exhaustive_bound`], otherwise it
//! samples seeded-random schedules (`cachegraph-rng`), and checks two
//! things on each: the driver-supplied step function reports no race, and
//! the end-of-phase state equals the canonical (sequential) outcome under
//! the driver-supplied comparator. Any failure is reported with the exact
//! worker sequence, so it replays byte-for-byte.
//!
//! What a *step* is belongs to the driver's checker: one outer-`k` kernel
//! iteration for tiled FW, one frontier vertex for a delta-stepping
//! gather task, one augmentation round for matching. Steps only need to
//! be coarse enough that interleaving below them cannot change what the
//! race bookkeeping sees — true for any shadow that records
//! reader/writer *sets* per unit and phase.

use cachegraph_rng::StdRng;

use crate::shadow::Race;

/// Knobs for per-phase schedule exploration.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleOptions {
    /// Enumerate every interleaving of a phase when their count is at
    /// most this; otherwise fall back to seeded-random sampling.
    pub exhaustive_bound: u64,
    /// Sampled schedules per phase in random mode.
    pub samples: usize,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        Self { exhaustive_bound: 20_000, samples: 48 }
    }
}

/// Outcome of exploring one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseOutcome {
    /// Schedules executed (the canonical run is excluded).
    pub schedules: u64,
    /// False when the phase fell back to sampling.
    pub sampled: bool,
    /// First race observed, with the worker sequence that exhibited it
    /// (the canonical sequence if the race is schedule-independent).
    pub race: Option<(Vec<u16>, Race)>,
    /// First schedule whose end state diverged from the canonical one,
    /// with the diverging unit index reported by the comparator.
    pub mismatch: Option<(Vec<u16>, usize)>,
}

impl PhaseOutcome {
    /// No races and no schedule-dependent results.
    pub fn is_clean(&self) -> bool {
        self.race.is_none() && self.mismatch.is_none()
    }
}

/// Build per-worker step sequences for a phase, mirroring the runtime's
/// chunking: `threads.min(tasks).max(1)` workers, contiguous chunks of
/// `len.div_ceil(workers)` tasks, task `ti` contributing `task_steps[ti]`
/// steps in order. Each step is `(task_index, step_within_task)`.
pub fn worker_steps(task_steps: &[usize], threads: usize) -> Vec<Vec<(usize, usize)>> {
    if task_steps.is_empty() {
        return Vec::new();
    }
    let threads = threads.min(task_steps.len()).max(1);
    let chunk = task_steps.len().div_ceil(threads);
    let mut workers = Vec::new();
    for (w, slice) in task_steps.chunks(chunk).enumerate() {
        let mut steps = Vec::new();
        for (off, &count) in slice.iter().enumerate() {
            let ti = w * chunk + off;
            for k in 0..count {
                steps.push((ti, k));
            }
        }
        workers.push(steps);
    }
    workers
}

/// Execute one schedule from the phase-start state. `step` runs one step
/// of a task against the state and reports the first race it observed;
/// the engine keeps the first race across the whole schedule.
pub fn run_schedule<S: Clone>(
    start: &S,
    workers: &[Vec<(usize, usize)>],
    schedule: &[u16],
    step: &mut impl FnMut(&mut S, usize, usize) -> Option<Race>,
) -> (S, Option<Race>) {
    let mut state = start.clone();
    let mut pos = vec![0usize; workers.len()];
    let mut first = None;
    for &w in schedule {
        let wi = w as usize;
        let (ti, k) = workers[wi][pos[wi]];
        pos[wi] += 1;
        let race = step(&mut state, ti, k);
        if first.is_none() {
            first = race;
        }
    }
    (state, first)
}

/// Number of distinct interleavings of step sequences with the given
/// lengths — the multinomial `(Σc)! / Πc!` — computed as a product of
/// binomials, saturating at `cap + 1` (so `result > cap` means "over").
pub fn interleaving_count(counts: &[usize], cap: u128) -> u128 {
    let mut result: u128 = 1;
    let mut total: u128 = 0;
    for &c in counts {
        let k = c as u128;
        total += k;
        // result *= C(total, k), incrementally (each prefix is integral).
        for i in 1..=k {
            result = result.saturating_mul(total - k + i) / i;
            if result > cap {
                return cap + 1;
            }
        }
    }
    result
}

/// Visit every distinct interleaving of workers with the given remaining
/// step counts, depth-first in worker-id order.
pub fn for_each_interleaving(
    counts: &mut [usize],
    prefix: &mut Vec<u16>,
    visit: &mut impl FnMut(&[u16]),
) {
    let mut exhausted = true;
    for w in 0..counts.len() {
        if counts[w] > 0 {
            exhausted = false;
            counts[w] -= 1;
            prefix.push(w as u16);
            for_each_interleaving(counts, prefix, visit);
            prefix.pop();
            counts[w] += 1;
        }
    }
    if exhausted {
        visit(prefix);
    }
}

/// Draw one uniformly-random schedule over the remaining step counts.
pub fn sample_schedule(counts: &[usize], rng: &mut StdRng) -> Vec<u16> {
    let mut remaining = counts.to_vec();
    let total: usize = remaining.iter().sum();
    let mut schedule = Vec::with_capacity(total);
    for _ in 0..total {
        let live: Vec<usize> =
            (0..remaining.len()).filter(|&w| remaining[w] > 0).collect();
        let w = live[rng.gen_range(0..live.len())];
        remaining[w] -= 1;
        schedule.push(w as u16);
    }
    schedule
}

/// Explore one phase: run the canonical (workers-in-order) schedule
/// first, then enumerate or sample alternatives, comparing each end state
/// to the canonical one with `diff` (which returns a witness unit index
/// when the states differ). Returns the canonical end state — what the
/// barriered driver computes — and the phase outcome. At most one race
/// and one mismatch are recorded; races found on the canonical schedule
/// are schedule-independent (e.g. a merged barrier-omission phase).
///
/// The caller is responsible for the phase barrier on `start` (e.g.
/// [`ShadowMem::begin_phase`](crate::shadow::ShadowMem::begin_phase))
/// before calling.
pub fn explore_phase<S: Clone>(
    start: &S,
    workers: &[Vec<(usize, usize)>],
    opts: &ScheduleOptions,
    rng: &mut StdRng,
    step: &mut impl FnMut(&mut S, usize, usize) -> Option<Race>,
    diff: &mut impl FnMut(&S, &S) -> Option<usize>,
) -> (S, PhaseOutcome) {
    let counts: Vec<usize> = workers.iter().map(Vec::len).collect();
    let mut outcome = PhaseOutcome::default();
    if counts.iter().sum::<usize>() == 0 {
        return (start.clone(), outcome);
    }

    let serial: Vec<u16> = workers
        .iter()
        .enumerate()
        .flat_map(|(w, steps)| std::iter::repeat_n(w as u16, steps.len()))
        .collect();
    let (canonical, canonical_race) = run_schedule(start, workers, &serial, step);
    if let Some(race) = canonical_race {
        outcome.race = Some((serial.clone(), race));
    }

    let mut run_one = |schedule: &[u16], outcome: &mut PhaseOutcome| {
        let (end, race) = run_schedule(start, workers, schedule, step);
        outcome.schedules += 1;
        if let Some(race) = race {
            if outcome.race.is_none() {
                outcome.race = Some((schedule.to_vec(), race));
            }
            return;
        }
        if outcome.mismatch.is_none() {
            if let Some(unit) = diff(&end, &canonical) {
                outcome.mismatch = Some((schedule.to_vec(), unit));
            }
        }
    };

    let total = interleaving_count(&counts, u128::from(opts.exhaustive_bound));
    if total <= u128::from(opts.exhaustive_bound) {
        let mut remaining = counts.clone();
        let mut prefix = Vec::new();
        for_each_interleaving(&mut remaining, &mut prefix, &mut |schedule| {
            run_one(schedule, &mut outcome);
        });
    } else {
        outcome.sampled = true;
        for _ in 0..opts.samples {
            let schedule = sample_schedule(&counts, rng);
            run_one(&schedule, &mut outcome);
        }
    }
    (canonical, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::{RaceKind, ShadowMem};

    #[test]
    fn interleaving_counts_are_multinomials() {
        assert_eq!(interleaving_count(&[4, 4], 1_000_000), 70); // C(8,4)
        assert_eq!(interleaving_count(&[1, 1, 1], 1_000_000), 6); // 3!
        assert_eq!(interleaving_count(&[5], 1_000_000), 1);
        assert_eq!(interleaving_count(&[], 1_000_000), 1);
        // Saturates just above the cap instead of overflowing.
        assert_eq!(interleaving_count(&[40, 40, 40], 100), 101);
    }

    #[test]
    fn enumeration_visits_each_interleaving_once() {
        let mut seen = std::collections::BTreeSet::new();
        let mut count = 0u64;
        let mut prefix = Vec::new();
        for_each_interleaving(&mut [2, 2], &mut prefix, &mut |s| {
            count += 1;
            assert!(seen.insert(s.to_vec()), "duplicate schedule {s:?}");
        });
        assert_eq!(count, 6); // C(4,2)
    }

    #[test]
    fn sampled_schedules_are_valid_permutations() {
        let mut rng = StdRng::seed_from_u64(7);
        let counts = [3usize, 2, 4];
        for _ in 0..20 {
            let s = sample_schedule(&counts, &mut rng);
            assert_eq!(s.len(), 9);
            for (w, &c) in counts.iter().enumerate() {
                assert_eq!(s.iter().filter(|&&x| x as usize == w).count(), c);
            }
        }
    }

    #[test]
    fn worker_steps_mirror_runtime_chunking() {
        // 5 tasks over 2 threads: chunks of 3 and 2, steps in task order.
        let w = worker_steps(&[1, 2, 1, 1, 1], 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0], vec![(0, 0), (1, 0), (1, 1), (2, 0)]);
        assert_eq!(w[1], vec![(3, 0), (4, 0)]);
        // More threads than tasks: one task per worker.
        let w = worker_steps(&[2, 2], 8);
        assert_eq!(w.len(), 2);
        // No tasks: no workers.
        assert!(worker_steps(&[], 4).is_empty());
    }

    /// Disjoint increments: every schedule must agree and race-free.
    #[test]
    fn disjoint_tasks_explore_clean() {
        let shadow = ShadowMem::new(vec![0u32; 4]);
        let workers = worker_steps(&[2, 2], 2);
        let mut rng = StdRng::seed_from_u64(1);
        let (end, outcome) = explore_phase(
            &shadow,
            &workers,
            &ScheduleOptions::default(),
            &mut rng,
            &mut |s, ti, k| {
                let idx = ti * 2 + k;
                let (v, r1) = s.read(idx, ti as u16);
                let r2 = s.write(idx, ti as u16, v + 1);
                r1.or(r2)
            },
            &mut |a, b| a.values().iter().zip(b.values()).position(|(x, y)| x != y),
        );
        assert!(outcome.is_clean(), "{outcome:?}");
        assert!(!outcome.sampled);
        assert_eq!(outcome.schedules, 6); // C(4,2)
        assert_eq!(end.values(), &[1, 1, 1, 1]);
    }

    /// Two tasks writing one unit: raced on every schedule, including
    /// the canonical one.
    #[test]
    fn conflicting_tasks_are_flagged_on_the_canonical_schedule() {
        let shadow = ShadowMem::new(vec![0u32]);
        let workers = worker_steps(&[1, 1], 2);
        let mut rng = StdRng::seed_from_u64(2);
        let (_, outcome) = explore_phase(
            &shadow,
            &workers,
            &ScheduleOptions::default(),
            &mut rng,
            &mut |s, ti, _| s.write(0, ti as u16, ti as u32),
            &mut |a, b| a.values().iter().zip(b.values()).position(|(x, y)| x != y),
        );
        let (schedule, race) = outcome.race.expect("must race");
        assert_eq!(schedule, vec![0, 1], "flagged on the canonical schedule");
        assert_eq!(race.kind, RaceKind::WriteWrite);
    }

    /// Empty phase: no schedules, clean.
    #[test]
    fn empty_phase_is_a_no_op() {
        let shadow = ShadowMem::new(vec![7u32]);
        let mut rng = StdRng::seed_from_u64(3);
        let (end, outcome) = explore_phase(
            &shadow,
            &[],
            &ScheduleOptions::default(),
            &mut rng,
            &mut |_s: &mut ShadowMem<u32>, _, _| None,
            &mut |_, _| None,
        );
        assert!(outcome.is_clean());
        assert_eq!(outcome.schedules, 0);
        assert_eq!(end.values(), &[7]);
    }
}
