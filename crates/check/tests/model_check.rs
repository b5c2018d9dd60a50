//! Tier-1 model-checking pass for parallel tiled FW on the shared
//! script-replay engine: the footprint oracle sweep, an exhaustive
//! schedule exploration of a small configuration, random-mode coverage
//! of wider configurations, the drift guard, and the barrier-omission
//! mutation that proves the checker actually detects races.

use cachegraph_check::{check_fw, check_fw_mutation, sweep_footprints, ExploreOptions, FwConfig};

#[test]
fn oracle_sweep_is_clean() {
    let (configs, violations) = sweep_footprints(20, 6);
    assert_eq!(configs, 120);
    assert!(violations.is_empty(), "footprint overlap: {}", violations[0]);
}

#[test]
fn exhaustive_exploration_of_a_small_config() {
    // One step is one recorded access, so n = 8, b = 4 (142 schedules
    // when a step was one `k` iteration) now overflows the 20,000 bound.
    // n = 3, b = 1, 2 threads: every tile is one cell and a task runs
    // 3 accesses (read B; read C, read A, and no write, since no path
    // improves) or 1 when B is INF. Seed 0x5eed draws
    //   d = [ 0  ∞  ∞ ]
    //       [38  0  ∞ ]
    //       [36  ∞  0 ]
    // which FW leaves unchanged. Per block `t`: the diagonal phase runs
    // on one worker (1 schedule); phases 2 and 3 have 4 tasks each, two
    // per worker, and C(s0 + s1, s0) interleavings for worker step
    // counts s0, s1:
    //   t = 0: phase 2 rows 3+3, columns (B = d(1,0), d(2,0)) 3+3: C(12, 6) = 924;
    //          phase 3 (B = d(i,0), both finite) 6 and 6:         C(12, 6) = 924;
    //   t = 1: phase 2 rows 6, columns (d(0,1), d(2,1) = ∞) 2:    C(8, 2) = 28;
    //          phase 3 (B = d(i,1) = ∞) 2 and 2:                  C(4, 2) = 6;
    //   t = 2: the same as t = 1:                                 28 + 6.
    // Total 3 + 924 + 924 + 28 + 6 + 28 + 6 = 1,919.
    let cfg = FwConfig { n: 3, b: 1, threads: 2, seed: 0x5eed };
    let report = check_fw(&cfg, &ExploreOptions::default());
    assert!(report.exhaustive, "interleaving count must be within the bound");
    assert_eq!(report.schedules, 1919, "expected every interleaving exactly once");
    assert!(report.is_clean(), "violation on {cfg}: {report:?}");
}

#[test]
fn random_mode_covers_wider_configs() {
    for (n, b, threads) in [(16, 4, 4), (12, 3, 3), (20, 5, 2)] {
        let cfg = FwConfig { n, b, threads, seed: 0xace0 + n as u64 };
        let report = check_fw(&cfg, &ExploreOptions::default());
        assert!(!report.exhaustive, "{cfg} should overflow the bound into sampling");
        assert!(report.schedules > 0);
        assert!(report.is_clean(), "violation on {cfg}: {report:?}");
    }
}

#[test]
fn more_threads_than_tasks_is_explored_cleanly() {
    // threads > per-phase task count: run_tasks_mut clamps the worker
    // count, and so must the replay.
    let cfg = FwConfig { n: 8, b: 4, threads: 16, seed: 0xbeef };
    let report = check_fw(&cfg, &ExploreOptions::default());
    assert!(report.is_clean(), "violation on {cfg}: {report:?}");
}

#[test]
fn single_thread_replay_matches_sequential() {
    // One worker per phase — the drift guard: the recorded run through
    // the driver's split must reproduce fw_tiled and fw_tiled_parallel
    // bit for bit.
    for (n, b) in [(4, 4), (8, 4), (9, 3), (13, 4)] {
        let cfg = FwConfig { n, b, threads: 1, seed: 0xd21f7 + n as u64 };
        let report = check_fw(&cfg, &ExploreOptions::default());
        assert!(report.final_matches_reference, "n={n} b={b}: drift");
        assert!(report.is_clean(), "n={n} b={b}: {report:?}");
        assert!(report.exhaustive);
    }
}

#[test]
fn barrier_omission_is_detected_as_a_race() {
    let report = check_fw_mutation(2, 0x5eed, &ExploreOptions::default());
    assert!(
        !report.races.is_empty(),
        "merging phases 2+3 removes the barrier; the checker must see the race"
    );
    let v = &report.races[0];
    assert_eq!(v.phase, "block 0 merged");
    assert!(v.detail.contains("read of concurrently written cell"), "{v}");
    assert!(!v.schedule.is_empty(), "violation must carry a replayable schedule");
    // The same seed replays the same violation.
    let again = check_fw_mutation(2, 0x5eed, &ExploreOptions::default());
    assert_eq!(again.races[0].schedule, v.schedule);
    assert_eq!(again.races[0].detail, v.detail);
    // The recorded run itself is the barriered driver's, so the final
    // state stays correct even though the merged schedules race.
    assert!(report.final_matches_reference);
}

#[test]
fn mutation_is_detected_at_higher_thread_counts_too() {
    for threads in [3, 4] {
        let report = check_fw_mutation(threads, 0x7ace, &ExploreOptions::default());
        assert!(!report.races.is_empty(), "threads {threads}: mutation must be detected");
    }
}
