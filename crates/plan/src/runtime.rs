//! The scoped-thread task executor every parallel driver shares.
//!
//! One phase = one call: tasks are split into `threads.min(len).max(1)`
//! contiguous chunks of `len.div_ceil(workers)` tasks, one scoped thread
//! per chunk, and the call returns only when every worker has joined —
//! that join *is* the phase barrier the checkers model. The chunking here
//! and [`schedule::worker_steps`](crate::schedule::worker_steps) are the
//! same arithmetic on purpose: the schedule space the explorer enumerates
//! is exactly the schedule space this executor can produce.
//!
//! Two entry points cover the drivers' borrow shapes:
//!
//! * [`run_tasks`] — workers share `&[T]` and a `Fn(&T)` body; state is
//!   reached through the body's captures. No driver uses it; perfbench
//!   times empty phases through it (`plan.dispatch_us`).
//! * [`run_tasks_mut`] — each task *owns* its payload (`&mut T`), which
//!   carries disjoint mutable borrows carved out beforehand
//!   (`split_at_mut`, `chunks_exact_mut`, per-task output vectors); the
//!   body never needs `unsafe`. Tiled FW, delta-stepping and matching
//!   use this.
//!
//! With one worker both entry points degenerate to an inline loop on the
//! calling thread — no spawn, and bit-identical to the parallel path by
//! the same disjointness argument the checkers prove.

/// Workers a phase of `tasks` tasks runs on: `threads.min(tasks).max(1)`.
pub fn worker_count(tasks: usize, threads: usize) -> usize {
    threads.min(tasks).max(1)
}

/// Run `tasks` across scoped workers; `run` is invoked once per task,
/// in chunk order within each worker.
pub fn run_tasks<T: Sync, F: Fn(&T) + Sync>(tasks: &[T], threads: usize, run: F) {
    if tasks.is_empty() {
        return;
    }
    let workers = worker_count(tasks.len(), threads);
    if workers == 1 {
        for t in tasks {
            run(t);
        }
        return;
    }
    let chunk = tasks.len().div_ceil(workers);
    std::thread::scope(|s| {
        for slice in tasks.chunks(chunk) {
            let run = &run;
            s.spawn(move || {
                for t in slice {
                    run(t);
                }
            });
        }
    });
}

/// Run `tasks` across scoped workers with each task exclusively owning
/// its payload; `run` is invoked as `run(task_index, &mut task)`, in
/// chunk order within each worker.
pub fn run_tasks_mut<T: Send, F: Fn(usize, &mut T) + Sync>(
    tasks: &mut [T],
    threads: usize,
    run: F,
) {
    if tasks.is_empty() {
        return;
    }
    let workers = worker_count(tasks.len(), threads);
    if workers == 1 {
        for (i, t) in tasks.iter_mut().enumerate() {
            run(i, t);
        }
        return;
    }
    let chunk = tasks.len().div_ceil(workers);
    std::thread::scope(|s| {
        for (w, slice) in tasks.chunks_mut(chunk).enumerate() {
            let run = &run;
            s.spawn(move || {
                for (off, t) in slice.iter_mut().enumerate() {
                    run(w * chunk + off, t);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn worker_counts() {
        assert_eq!(worker_count(10, 4), 4);
        assert_eq!(worker_count(2, 4), 2);
        assert_eq!(worker_count(0, 4), 1);
        assert_eq!(worker_count(10, 0), 1);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for threads in [1, 2, 3, 7, 64] {
            let tasks: Vec<usize> = (0..13).collect();
            let hits: Vec<AtomicUsize> = (0..13).map(|_| AtomicUsize::new(0)).collect();
            run_tasks(&tasks, threads, |&t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            for (t, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {t} threads {threads}");
            }
        }
    }

    #[test]
    fn mut_tasks_see_their_own_payload_and_index() {
        for threads in [1, 2, 5, 16] {
            let mut tasks: Vec<(usize, usize)> = (0..9).map(|i| (i, 0)).collect();
            run_tasks_mut(&mut tasks, threads, |i, t| {
                assert_eq!(i, t.0, "index matches payload position");
                t.1 = i * 10;
            });
            for (i, t) in tasks.iter().enumerate() {
                assert_eq!(t.1, i * 10, "threads {threads}");
            }
        }
    }

    #[test]
    fn empty_task_lists_are_a_no_op() {
        run_tasks::<usize, _>(&[], 4, |_| unreachable!("no tasks"));
        run_tasks_mut::<usize, _>(&mut [], 4, |_, _| unreachable!("no tasks"));
    }
}
