//! End-to-end benchmark of the governed-read, cold-metadata and write
//! paths, with per-layer attribution. See README.md.
//!
//! ```text
//! uc-benchmark run --workload W --seed N --seconds S --trace 0|1   one run; the result is the last line
//! uc-benchmark all [--seed N] [--seconds S]                         every workload: window, then traced replay
//! uc-benchmark repeat --sets K [--seed N] [--seconds S]             K sets, spread against the bounds
//! ```
//! Every command takes `--clients C` (default: 2, or 1 on a one-core host).

mod bench;
mod client;
mod gen;
mod hist;
mod metrics;
mod run;
mod stats;
mod trace;
mod world;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::{json, Value as Json};

use gen::{Sizes, Workload};
use metrics::{END_TO_END, PER_LAYER};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    clients: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        sets: 5,
        clients: default_clients(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?.clamp(1, 60),
            "--trace" => out.trace = number()? != 0,
            "--sets" => out.sets = number()?.max(1) as usize,
            "--clients" => out.clients = (number()? as usize).clamp(1, world::MAX_CLIENTS),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

/// Closed-loop clients: two, or one on a one-core host.
fn default_clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(world::MAX_CLIENTS)
}

/// Where traces go: `out/` inside this package.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn print_json(value: &Json) -> Result<(), String> {
    println!(
        "{}",
        serde_json::to_string(value).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Two stdout lines: everything this run measured, by metric name, then
/// the result line — `correct`, `attempted`, `failed` and the end-to-end
/// metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
fn cmd_run(args: &Args, started: Instant) -> Result<(), String> {
    let w = args.workload.ok_or("run needs --workload")?;
    // Entity ids, STS secrets and token nonces come from this stream; with
    // it pinned, a run's inputs *and* the program's identities repeat.
    uc_cloudstore::seed::reseed(args.seed);
    let outcome = bench::run(
        w,
        &Sizes::full(w, args.seconds),
        args.seed,
        args.clients,
        args.trace,
        &out_dir(),
        started,
    );
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    print_json(&json!({"measured": outcome.values.measured_json()}))?;
    print_json(&json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.values.to_json(defs),
    }))
}

/// What one child run printed: every metric it measured by name, and its
/// result line.
struct Child {
    measured: Json,
    result: Json,
}

impl Child {
    fn correct(&self) -> bool {
        self.result["correct"].as_bool() == Some(true)
    }

    fn measured(&self, name: &str) -> Option<f64> {
        self.measured[name]["value"].as_f64()
    }
}

/// Run one workload in a child process (so `peak_rss_mb` and every cache
/// start clean) and parse what it printed.
fn child_run(w: Workload, seed: u64, args: &Args, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--clients", &args.clients.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} run exited with {}", w.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let mut line = || -> Result<Json, String> {
        let text = lines.next().ok_or("child printed too little")?;
        serde_json::from_str(text).map_err(|e| format!("bad line from child: {e}"))
    };
    let result = line()?;
    let measured = line()?["measured"].clone();
    Ok(Child { measured, result })
}

/// One traced child per workload: it runs the untraced window (the
/// end-to-end metrics and the window's counts), then the traced replay.
fn cmd_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for w in Workload::ALL {
        let child = child_run(w, args.seed, args, true)?;
        all_correct &= child.correct();
        println!(
            "== {} seed {} on {} client(s): attempted {} failed {} correct {}",
            w.name(),
            args.seed,
            args.clients,
            child.result["attempted"].as_u64().unwrap_or(0),
            child.result["failed"].as_u64().unwrap_or(0),
            child.correct()
        );
        for (title, defs) in [("end to end", END_TO_END), ("per layer", PER_LAYER)] {
            println!(" {title}");
            for d in defs {
                match child.measured(d.name) {
                    Some(value) => println!(
                        "  {:<34} {value:>16.4} {:<6} ({} is better)",
                        d.name,
                        d.unit,
                        d.better.as_str()
                    ),
                    None => println!("  {:<34} {:>16} (layer not called)", d.name, "-"),
                }
            }
        }
    }
    Ok(all_correct)
}

/// K full sets, set k with seed N + k as the driver varies it; per
/// workload × gated metric the min / median / max and the spread. The
/// spread is the interquartile distance from four sets up, the range below
/// that. Fails when a spread leaves the metric's bound or a run is wrong.
fn cmd_repeat(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut record = Vec::new();
    for w in Workload::ALL {
        let mut runs = Vec::with_capacity(args.sets);
        for k in 0..args.sets {
            let child = child_run(w, args.seed + k as u64, args, false)?;
            ok &= child.correct();
            runs.push(child);
        }
        println!(
            "== {} · {} sets · seeds {}..{} · {} client(s)",
            w.name(),
            args.sets,
            args.seed,
            args.seed + args.sets as u64 - 1,
            args.clients
        );
        println!(
            "  {:<14} {:>14} {:>14} {:>14} {:>12} {:>12}",
            "metric", "min", "median", "max", "spread", "allowed"
        );
        let mut metrics = Vec::new();
        for d in metrics::gated() {
            let mut v: Vec<f64> = runs
                .iter()
                .map(|r| r.measured(d.name).unwrap_or(0.0))
                .collect();
            v.sort_by(f64::total_cmp);
            let (min, max, med) = (
                v[0],
                v[v.len() - 1],
                stats::median(v.clone()).unwrap_or(0.0),
            );
            let (q1, q3) = if v.len() >= 4 {
                stats::quartiles(&v)
            } else {
                (min, max)
            };
            let (spread, allowed) = (q3 - q1, d.allowed(med));
            let within = spread <= allowed;
            ok &= within;
            println!(
                "  {:<14} {min:>14.4} {med:>14.4} {max:>14.4} {spread:>12.4} {allowed:>12.4}{}",
                d.name,
                if within { "" } else { "  OUT OF BOUND" }
            );
            metrics.push((
                d.name.to_string(),
                json!({"min": min, "median": med, "max": max, "spread": spread, "allowed": allowed, "unit": d.unit}),
            ));
        }
        record.push((w.name().to_string(), Json::Object(metrics)));
    }
    print_json(&json!({
        "sets": args.sets,
        "seed": args.seed,
        "seconds": args.seconds,
        "clients": args.clients,
        "workloads": Json::Object(record),
    }))?;
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: uc-benchmark run|all|repeat [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--sets K] [--clients C]");
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args, started).map(|()| true),
        "all" => cmd_all(&args),
        "repeat" => cmd_repeat(&args),
        other => Err(format!("unknown command '{other}'")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
