//! Tier-1 pass for the TaskGraph driver checkers: every parallel driver
//! built on `cachegraph-plan` (delta-stepping SSSP, partitioned
//! matching) must survive the full
//! oracle + script-replay pipeline cleanly on a sweep of seeds, and its
//! seeded barrier-omission mutation must be DETECTED.

use cachegraph_check::{
    check_delta, check_delta_mutation, check_matching, check_matching_mutation, DeltaConfig,
    ExploreOptions, MatchingConfig,
};

#[test]
fn delta_sweep_is_clean() {
    for seed in [0x5eed, 0xace0, 0xbeef] {
        for threads in [2, 4] {
            let cfg = DeltaConfig {
                n: 12,
                density: 0.15,
                max_weight: 16,
                delta: 5,
                threads,
                seed,
            };
            let report = check_delta(&cfg, &ExploreOptions::default());
            assert!(report.is_clean(), "{cfg}: {report:?}");
            assert!(report.schedules > 0, "{cfg}: no schedules explored");
        }
    }
}

#[test]
fn matching_sweep_is_clean() {
    for seed in [0x5eed, 0xace0, 0xbeef] {
        for threads in [2, 4] {
            let cfg = MatchingConfig { n: 16, density: 0.15, parts: 4, threads, seed };
            let report = check_matching(&cfg, &ExploreOptions::default());
            assert!(report.is_clean(), "{cfg}: {report:?}");
            assert!(report.schedules > 0, "{cfg}: no schedules explored");
        }
    }
}

#[test]
fn every_driver_mutation_is_detected() {
    let opts = ExploreOptions::default();
    for seed in [0x5eed, 0xace0] {
        let delta = check_delta_mutation(2, seed, &opts);
        assert!(!delta.races.is_empty(), "seed {seed:#x}: delta mutation undetected");
        let matching = check_matching_mutation(2, seed, &opts);
        assert!(!matching.races.is_empty(), "seed {seed:#x}: matching mutation undetected");
    }
}

#[test]
fn mutation_races_are_flagged_on_the_canonical_schedule() {
    // Barrier omission is schedule-independent: the canonical (serial)
    // replay itself must already expose the cross-phase conflict, so
    // detection does not depend on sampling luck.
    let opts = ExploreOptions::default();
    for report in [
        check_delta_mutation(4, 0x5eed, &opts),
        check_matching_mutation(4, 0x5eed, &opts),
    ] {
        let race = &report.races[0];
        assert!(
            race.detail.contains("read of concurrently written cell"),
            "{}: unexpected race kind: {race}",
            report.solver
        );
    }
}
