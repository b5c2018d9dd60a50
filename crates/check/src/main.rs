//! Model-checking driver: `cargo run -p cachegraph-check`.
//!
//! Runs the full tier-1 pass:
//!
//! 1. the FW footprint oracle sweep over every `(n, b)` up to a
//!    ceiling;
//! 2. oracle + script replay for each TaskGraph driver over a matrix
//!    of configurations (exhaustive where the interleaving count
//!    allows, seeded-random otherwise): parallel tiled FW,
//!    delta-stepping SSSP and parallel partitioned matching;
//! 3. one seeded barrier-omission mutation per driver, asserting the
//!    checker *detects* the race (sensitivity check).
//!
//! Any violation prints the offending schedule and the seed to replay it
//! (`cargo run -p cachegraph-check -- --seed <seed>`). Exit codes:
//! 0 clean, 1 violation (or an insensitive checker), 2 usage error.

use std::process::ExitCode;

use cachegraph_check::{
    check_delta, check_delta_mutation, check_fw, check_fw_mutation, check_matching,
    check_matching_mutation, sweep_footprints, DeltaConfig, DriverReport, ExploreOptions,
    FwConfig, MatchingConfig,
};

/// Sweep ceiling for the footprint oracle.
const SWEEP_N: usize = 20;
const SWEEP_B: usize = 6;

/// FW exploration matrix: `(n, b, threads)`.
const EXPLORE: &[(usize, usize, usize)] =
    &[(8, 4, 2), (8, 4, 4), (12, 4, 2), (9, 3, 3), (16, 4, 3), (20, 5, 4)];

struct Args {
    seed: u64,
    samples: usize,
    bound: u64,
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seed: 0x5eed, samples: 48, bound: 20_000 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<u64, String> {
            it.next()
                .as_deref()
                .and_then(parse_u64)
                .ok_or_else(|| format!("{name} needs an integer argument"))
        };
        match flag.as_str() {
            "--seed" => args.seed = take("--seed")?,
            "--samples" => args.samples = take("--samples")? as usize,
            "--bound" => args.bound = take("--bound")?,
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Print one driver checker's result; set `failed` on any violation.
fn print_driver(label: &str, report: &DriverReport, failed: &mut bool) {
    let mode = if report.exhaustive { "exhaustive" } else { "sampled" };
    if report.is_clean() {
        println!("driver: {label}: {} schedules ({mode}), clean", report.schedules);
    } else {
        *failed = true;
        println!("driver: {label}: {} schedules ({mode}), VIOLATIONS", report.schedules);
        for v in &report.footprint_violations {
            println!("  oracle: {v}");
        }
        for v in &report.races {
            println!("  race: {v}");
        }
        for v in &report.mismatches {
            println!("  mismatch: {v}");
        }
        if !report.final_matches_reference {
            println!("  final state diverges from the serial reference");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("cachegraph-check: {msg}");
            }
            eprintln!("usage: cachegraph-check [--seed N] [--samples N] [--bound N]");
            return ExitCode::from(2);
        }
    };
    let opts = ExploreOptions {
        exhaustive_bound: args.bound,
        samples: args.samples,
        merge_phases: false,
    };
    let mut failed = false;

    // 1. FW footprint oracle sweep.
    let (configs, violations) = sweep_footprints(SWEEP_N, SWEEP_B);
    if violations.is_empty() {
        println!("oracle: {configs} (n, b) configs swept, all phase footprints disjoint");
    } else {
        failed = true;
        for v in &violations {
            println!("oracle: VIOLATION {v}");
        }
    }

    // 2. TaskGraph driver checkers: oracle + script replay per driver.
    for &(n, b, threads) in EXPLORE {
        let cfg = FwConfig { n, b, threads, seed: args.seed };
        print_driver(&cfg.to_string(), &check_fw(&cfg, &opts), &mut failed);
    }
    for &(n, threads) in &[(12usize, 2usize), (12, 4), (16, 3)] {
        let cfg = DeltaConfig { n, density: 0.12, max_weight: 20, delta: 6, threads, seed: args.seed };
        print_driver(&cfg.to_string(), &check_delta(&cfg, &opts), &mut failed);
    }
    for &(n, parts, threads) in &[(16usize, 4usize, 2usize), (16, 4, 4), (24, 4, 3)] {
        let cfg = MatchingConfig { n, density: 0.15, parts, threads, seed: args.seed };
        print_driver(&cfg.to_string(), &check_matching(&cfg, &opts), &mut failed);
    }

    // 3. Seeded barrier-omission mutations per driver: each must be
    // detected on its guaranteed-conflict fixture.
    let mutations: [(&str, DriverReport); 3] = [
        ("fw", check_fw_mutation(2, args.seed, &opts)),
        ("delta", check_delta_mutation(2, args.seed, &opts)),
        ("matching", check_matching_mutation(2, args.seed, &opts)),
    ];
    for (name, report) in &mutations {
        if let Some(v) = report.races.first() {
            println!("mutation: {name} phase barrier removed: detected ({})", v.detail);
        } else {
            failed = true;
            println!("mutation: {name}: race NOT detected — the checker is insensitive");
        }
    }

    if failed {
        println!("cachegraph-check: FAILED (replay with --seed {:#x})", args.seed);
        ExitCode::FAILURE
    } else {
        println!("cachegraph-check: all checks passed");
        ExitCode::SUCCESS
    }
}
