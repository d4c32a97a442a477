//! The repository's benchmark: six workloads measured end to end, and
//! layer by layer from outside the program. See `README.md` beside
//! `Cargo.toml` for the workload table and how to read the output.
//!
//! `--workload W --trace 0|1` runs one workload in this process and
//! prints the result object as the last line of stdout. Without
//! `--trace` the binary runs each selected workload in child processes
//! (untraced, then traced), because a workload owns process-wide state:
//! the global runner, and the peak resident set it is judged by.

mod catalog;
mod compare;
mod harness;
mod http;
mod layered;
mod report;
mod span;
mod specs;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{fresh_dir, Ctx, Outcome};
use workloads::{control_plane, paper_sweep, replay, serve};

const USAGE: &str = "\
usage: run.sh [--workload <name>]... [--seed N] [--seconds S] [--runs N]
              [--trace 0|1] [--smoke] [--out <file>]
       run.sh --compare <reference.json> <candidate.json>

  --workload  one of paper_sweep, control_plane, replay_long_epochs,
              replay_short_epochs, serve_cold_isolated, serve_warm
              (default: all six)
  --seed      seed the inputs are generated from (default 1)
  --seconds   length of each timed section (default 10)
  --runs      untraced runs per workload, seeds N, N+1, ... (default 1)
  --trace     run one workload in-process: 0 untraced (end-to-end
              metrics), 1 traced (per-layer metrics and a span file)
  --smoke     quick scale, one pass, every check, no bounds
  --out       write every value of every run as JSON
  --compare   apply the regression bounds to two --out files";

#[derive(Debug, Default)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    runs: usize,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        runs: 1,
        ..Args::default()
    };
    let mut raw = raw.into_iter();
    while let Some(flag) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !catalog::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workloads.push(name);
            }
            "--seed" => args.seed = number(&value("a number")?)?,
            "--seconds" => {
                args.seconds = number(&value("a number")?)?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be within (0, 60]".into());
                }
            }
            "--runs" => args.runs = number::<usize>(&value("a number")?)?.max(1),
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file")?.into()),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace runs exactly one --workload".into());
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{text:?} is not a valid number"))
}

/// The benchmark's own directory: where `run.sh` says it is, or where
/// the crate was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("BENCH_DIR").map_or_else(|| env!("CARGO_MANIFEST_DIR").into(), PathBuf::from)
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "paper_sweep" => paper_sweep::run(ctx),
        "control_plane" => control_plane::run(ctx),
        "replay_long_epochs" => replay::run(replay::Epochs::Long, ctx),
        "replay_short_epochs" => replay::run(replay::Epochs::Short, ctx),
        "serve_cold_isolated" => serve::run(serve::Cache::Cold, ctx),
        "serve_warm" => serve::run(serve::Cache::Warm, ctx),
        other => unreachable!("{other} passed argument validation"),
    }
}

/// Runs one workload in this process and prints its result object.
fn run_one(args: &Args, traced: bool) -> ExitCode {
    let workload = args.workloads[0].as_str();
    let exe = std::env::current_exe().expect("path of the running benchmark");
    // `run.sh` builds the program into the directory this binary is in.
    let worker_bin = exe.with_file_name("bgpsim");
    if !worker_bin.is_file() {
        eprintln!(
            "{} is missing: build it with `cargo build --release --bin bgpsim` (run.sh does)",
            worker_bin.display()
        );
        return ExitCode::FAILURE;
    }
    let out_dir = bench_dir().join("out");
    let work_dir = fresh_dir(&out_dir.join(format!("tmp-{}", std::process::id())));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced,
        smoke: args.smoke,
        work_dir: work_dir.clone(),
        out_dir,
        worker_bin,
    };
    report::print_env();
    let mut outcome = run_workload(workload, &ctx);
    let _ = std::fs::remove_dir_all(&work_dir);

    report::check_counts(workload, &ctx, &mut outcome);
    if let Some(spans) = &outcome.spans {
        let path = ctx.out_dir.join(format!("trace-{workload}.jsonl"));
        match spans.write_jsonl(&path, workload) {
            Ok(()) => eprintln!(
                "{} spans written to {}",
                spans.as_slice().len(),
                path.display()
            ),
            Err(e) => outcome.check(false, || format!("cannot write {}: {e}", path.display())),
        }
    }
    let result = report::result_object(workload, traced, &mut outcome);
    println!("{result}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // A stray BGPSIM_CACHE_DIR would turn the second sweep into 805
    // cache hits; no policy variable may leak into a measurement.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BGPSIM_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((reference, candidate)) = &args.compare {
        return report::compare_files(reference, candidate);
    }
    match args.trace {
        Some(traced) => run_one(&args, traced),
        None => report::run_all(&args),
    }
}
