//! End-to-end benchmark of the GMDF debugger pipeline.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload firehose|recovery --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one seeded workload against the public `DebugServer` /
//! `SessionHandle` / `WireServer` / `WireClient` API, checks every
//! output, and prints a table followed by one JSON result line. With
//! `--trace 0` the line carries the end-to-end metrics; with `--trace 1`
//! the workload runs once untraced and once traced, then a
//! single-threaded decomposition splits one session's pipeline across
//! the crates, and the line carries the per-layer metrics (tracing
//! overhead included). Spans are written to
//! `.perfbench/spans-<workload>-seed<N>.csv`.
//!
//! Working data lives under `.perfbench/` in the working directory and
//! each run's registry directories are removed when it ends.

mod decompose;
mod firehose;
mod harness;
mod inputs;
mod recovery;
mod report;
mod spans;
mod stats;

use harness::{Collected, RunCfg};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;

type Workload = fn(&RunCfg, &mut Recorder) -> Result<Collected, String>;

/// The workloads, each with the reason it exists.
const WORKLOADS: [(&str, Workload, &str); 2] = [
    (
        "firehose",
        firehose::run,
        "closed loop over two chatty durable sessions, one stepped back under load: the per-entry \
         path from decode to client, and seeks sharing the pump worker",
    ),
    (
        "recovery",
        recovery::run,
        "write, restart and resume four chatty durable sessions, probing the idle history: \
         journal replay, checkpoint restore, store reads, appends to reopened stores",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Removes a run's working directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn print_table(metrics: &[report::Metric]) {
    for (name, value, unit, n) in metrics {
        println!("{name:<34} {value:>14.4} {unit:<9} n={n}");
    }
}

fn run(
    args: &Args,
    workload: Workload,
    dir: &Path,
) -> Result<(bool, u64, u64, Vec<report::Metric>), String> {
    let cfg = |sub: &str| RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        dir: dir.join(sub),
    };
    let base = workload(&cfg("base"), &mut Recorder::new(false, Instant::now()))?;
    for failure in &base.failures {
        eprintln!("check failed: {failure}");
    }
    if !args.trace {
        let metrics = report::end_to_end(&base);
        return Ok((base.failed == 0, base.attempted, base.failed, metrics));
    }
    let mut rec = Recorder::new(true, Instant::now());
    let mut traced = workload(&cfg("traced"), &mut rec)?;
    for failure in &traced.failures {
        eprintln!("check failed (traced pass): {failure}");
    }
    let identity = traced
        .identity
        .take()
        .ok_or("workload kept no session to decompose")?;
    let d = decompose::decompose(&identity, &dir.join("decompose"))?;
    let mut attempted = base.attempted + traced.attempted;
    let mut failed = base.failed + traced.failed;
    for (ok, what) in &d.checks {
        attempted += 1;
        if !ok {
            failed += 1;
            eprintln!("check failed: {what}");
        }
    }
    let spans = rec.len() + d.rec.len();
    let metrics = report::per_layer(&base, &traced, &d, spans);
    let out =
        Path::new(".perfbench").join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
    rec.absorb(d.rec);
    rec.write_csv(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok((failed == 0, attempted, failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    let Some(&(_, workload, why)) = WORKLOADS.iter().find(|(n, _, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _, _)| *n).collect();
        eprintln!("unknown workload {:?}; one of {names:?}", args.workload);
        std::process::exit(2);
    };
    let dir = Path::new(".perfbench").join(format!("run-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let run_dir = RunDir(dir);
    println!(
        "workload {} (seed {}, {} s, trace {}): {why}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match run(&args, workload, &run_dir.0) {
        Ok((correct, attempted, failed, metrics)) => {
            drop(run_dir);
            print_table(&metrics);
            println!(
                "{}",
                report::json_line(correct, attempted, failed, &metrics)
            );
        }
        Err(e) => {
            drop(run_dir);
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    }
}
