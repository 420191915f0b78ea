//! CI quick gate for the interleaving explorer.
//!
//! Runs a fixed seed set in both scheduler modes, printing each run's
//! fingerprint (schedule trace + canonical history) to stdout so CI can
//! diff two invocations byte-for-byte. Then proves the checker has teeth:
//! with commit validation weakened, and separately with reclamation
//! ignoring open snapshots, at least one seed must produce a violation.
//! Exits non-zero on any clean-run violation or if either weakened set
//! passes.

use uc_check::explorer::{run_one, sched_seed, RunConfig};
use uc_cloudstore::sched::SchedMode;

fn main() {
    let base = sched_seed(0xC0FFEE);
    let modes = [
        ("random_walk", SchedMode::RandomWalk),
        ("pct", SchedMode::Pct { depth: 3 }),
    ];
    let mut failed = false;

    for offset in 0..4u64 {
        let seed = base.wrapping_add(offset);
        for (mode_name, mode) in modes {
            let out = run_one(&RunConfig::new(seed, mode));
            println!("=== seed={seed} mode={mode_name} ===");
            print!("{}", out.fingerprint());
            if !out.violations.is_empty() {
                failed = true;
                eprintln!("VIOLATIONS at seed={seed} mode={mode_name}:");
                for v in &out.violations {
                    eprintln!("  {v}");
                }
            }
        }
    }

    // Adversarial telemetry pass: audit flushes and flight-recorder
    // freezes landed between the clients' commits by the scheduler. The
    // fingerprints join the CI byte-diff — a freeze or flush whose timing
    // leaks into the canonical history shows up here — and the verdicts
    // must stay clean.
    for offset in 0..2u64 {
        let seed = base.wrapping_add(offset);
        for (mode_name, mode) in modes {
            let mut cfg = RunConfig::new(seed, mode);
            cfg.flush_clients = 1;
            cfg.freeze_clients = 1;
            let out = run_one(&cfg);
            println!("=== seed={seed} mode={mode_name} flush=1 freeze=1 ===");
            print!("{}", out.fingerprint());
            if !out.violations.is_empty() {
                failed = true;
                eprintln!("VIOLATIONS at seed={seed} mode={mode_name} (adversarial telemetry):");
                for v in &out.violations {
                    eprintln!("  {v}");
                }
            }
        }
    }

    // Adversarial reclamation pass: a reader holds a database snapshot
    // across yields while the clients commit, and every commit reclaims
    // below the horizon. Its re-reads must equal its first read.
    for offset in 0..2u64 {
        let seed = base.wrapping_add(offset);
        for (mode_name, mode) in modes {
            let mut cfg = RunConfig::new(seed, mode);
            cfg.snapshot_clients = 1;
            let out = run_one(&cfg);
            println!("=== seed={seed} mode={mode_name} snapshot=1 ===");
            print!("{}", out.fingerprint());
            if !out.violations.is_empty() {
                failed = true;
                eprintln!("VIOLATIONS at seed={seed} mode={mode_name} (adversarial reclamation):");
                for v in &out.violations {
                    eprintln!("  {v}");
                }
            }
        }
    }

    // Teeth: weakened commit validation, and reclamation that ignores open
    // snapshots, must each be caught on some seed.
    let caught = |weaken: fn(&mut RunConfig)| {
        (0..8u64).any(|offset| {
            let mut cfg = RunConfig::new(base.wrapping_add(offset), SchedMode::RandomWalk);
            weaken(&mut cfg);
            !run_one(&cfg).violations.is_empty()
        })
    };
    if !caught(|cfg| cfg.weaken_commit = true) {
        eprintln!("checker has no teeth: weakened commit validation went undetected");
        failed = true;
    }
    if !caught(|cfg| {
        cfg.weaken_gc = true;
        cfg.snapshot_clients = 1;
    }) {
        eprintln!("checker has no teeth: reclamation ignoring open snapshots went undetected");
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    eprintln!("check_quick: all clean runs passed; both weakened runs detected");
}
