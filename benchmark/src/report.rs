//! Output: metric lines, the result object, the `--out` file, and the
//! comparison of two such files.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use serde::value::field;
use serde::Value;

use crate::catalog::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::compare::{judge, worsening, Verdict};
use crate::harness::{Ctx, Outcome};
use crate::stats::{median, spread};
use crate::Args;

const COUNTS: &str = include_str!("../golden/counts.json");

/// The build profile, as the crate's manifest states it.
const PROFILE: &str = "release lto=thin codegen-units=1";

/// Facts about the host and build; `run.sh` supplies what only a shell
/// can ask for.
fn env_facts() -> Vec<(&'static str, String)> {
    let from_env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc", from_env("BENCH_RUSTC")),
        ("commit", from_env("BENCH_COMMIT")),
        ("profile", PROFILE.to_string()),
    ]
}

pub fn print_env() {
    for (name, value) in env_facts() {
        println!("# {name}: {value}");
    }
}

/// Checks the run's exact statistics against `golden/counts.json`,
/// which records them for the paper sweep and for seed 1 of the seeded
/// workloads. Other seeds have no golden entry; their passes are still
/// checked against each other inside the workload. An untraced run
/// counts fewer things than a traced one; each is checked on what it
/// counted.
pub fn check_counts(workload: &str, ctx: &Ctx, outcome: &mut Outcome) {
    let scale = if ctx.smoke { "smoke" } else { "paper" };
    let key = if workload == "paper_sweep" {
        format!("{workload}/{scale}")
    } else {
        format!("{workload}/{scale}/seed{}", ctx.seed)
    };
    let golden: Value = serde_json::from_str(COUNTS).expect("golden/counts.json parses");
    let expected = field(&golden, &key).ok();
    for (name, value) in std::mem::take(&mut outcome.counts) {
        println!("# count {key} {name} {value}");
        let Some(want) = expected.and_then(|e| field(e, name).ok()) else {
            continue;
        };
        outcome.check(want.as_u64() == Some(value), || {
            format!("{key}: {name} is {value}, golden says {want:?}")
        });
    }
}

/// Prints every metric as `workload metric value unit` and returns the
/// result object: the end-to-end metrics of an untraced run, every
/// per-layer metric (0 where the workload has no such layer) of a
/// traced one.
pub fn result_object(workload: &str, traced: bool, outcome: &mut Outcome) -> String {
    let table: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for m in table {
        let measured = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|x| x.1);
        let value = match measured {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                outcome.check(false, || format!("{} is {v}", m.name));
                0.0
            }
            None if traced => 0.0,
            None => {
                outcome.check(false, || format!("{} was not measured", m.name));
                0.0
            }
        };
        println!("{workload} {} {value} {}", m.name, m.unit);
        metrics.push((
            m.name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]),
        ));
    }
    let unlisted: Vec<&str> = outcome
        .metrics
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == *name))
        .collect();
    outcome.check(unlisted.is_empty(), || {
        format!("measured but not in the catalogue: {unlisted:?}")
    });
    let object = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::UInt(outcome.attempted.max(1))),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&object).expect("finite metrics serialize")
}

/// One child run, as parsed from its stdout.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    counts: Vec<(String, u64)>,
}

fn run_child(args: &Args, workload: &str, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut counts = Vec::new();
    let mut last = "";
    for line in stdout.lines() {
        if let Some(count) = line.strip_prefix("# count ") {
            let parts: Vec<&str> = count.split(' ').collect();
            if let [_, name, value] = parts[..] {
                counts.push((name.to_string(), value.parse().unwrap_or(0)));
            }
        } else if !line.starts_with('#') && !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let v: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload} printed no result object ({}): {e}",
            output.status
        )
    })?;
    let metrics = field(&v, "metrics")
        .ok()
        .and_then(Value::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), field(m, "value").ok()?.as_f64()?)))
        .collect();
    let uint = |name| field(&v, name).ok().and_then(Value::as_u64).unwrap_or(0);
    Ok(ChildRun {
        correct: field(&v, "correct").ok().and_then(Value::as_bool) == Some(true)
            && output.status.success(),
        attempted: uint("attempted"),
        failed: uint("failed"),
        metrics,
        counts,
    })
}

/// Runs the selected workloads in child processes — `--runs` untraced
/// runs on consecutive seeds, then one traced run — and writes `--out`.
pub fn run_all(args: &Args) -> ExitCode {
    print_env();
    let selected: Vec<&str> = if args.workloads.is_empty() {
        WORKLOADS.to_vec()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    let mut rows: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut counts: Vec<(String, String, u64)> = Vec::new();
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in selected {
        let plan = (0..args.runs as u64)
            .map(|r| (args.seed + r, false))
            .chain([(args.seed, true)]);
        for (seed, traced) in plan {
            let run = match run_child(args, workload, seed, traced) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    all_correct = false;
                    continue;
                }
            };
            all_correct &= run.correct;
            for (metric, value) in run.metrics {
                match rows.iter_mut().find(|r| r.0 == workload && r.1 == metric) {
                    Some(row) => row.2.push(value),
                    None => rows.push((workload.into(), metric, vec![value])),
                }
            }
            if seed == args.seed {
                for (name, value) in run.counts {
                    if !counts.iter().any(|c| c.0 == workload && c.1 == name) {
                        counts.push((workload.into(), name, value));
                    }
                }
            }
            runs.push(Value::Object(vec![
                ("workload".into(), Value::Str(workload.into())),
                ("seed".into(), Value::UInt(seed)),
                ("trace".into(), Value::UInt(u64::from(traced))),
                ("correct".into(), Value::Bool(run.correct)),
                ("attempted".into(), Value::UInt(run.attempted)),
                ("failed".into(), Value::UInt(run.failed)),
            ]));
        }
    }
    if let Some(path) = &args.out {
        let text = out_file(args, &rows, &counts, runs);
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        println!("# every run correct");
        ExitCode::SUCCESS
    } else {
        println!("# at least one run FAILED its checks");
        ExitCode::FAILURE
    }
}

fn out_file(
    args: &Args,
    rows: &[(String, String, Vec<f64>)],
    counts: &[(String, String, u64)],
    runs: Vec<Value>,
) -> String {
    let text = |s: &str| Value::Str(s.to_string());
    let env = env_facts()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::Str(v)))
        .collect();
    let rows = rows
        .iter()
        .map(|(workload, metric, values)| {
            let kind = if catalog::end_to_end(metric).is_some() {
                "end_to_end"
            } else {
                "per_layer"
            };
            Value::Object(vec![
                ("workload".into(), text(workload)),
                ("metric".into(), text(metric)),
                ("unit".into(), text(catalog::unit_of(metric))),
                ("kind".into(), text(kind)),
                ("median".into(), Value::Float(median(values))),
                (
                    "values".into(),
                    Value::Array(values.iter().map(|&v| Value::Float(v)).collect()),
                ),
            ])
        })
        .collect();
    let counts = counts
        .iter()
        .map(|(workload, name, value)| {
            Value::Object(vec![
                ("workload".into(), text(workload)),
                ("name".into(), text(name)),
                ("value".into(), Value::UInt(*value)),
            ])
        })
        .collect();
    let object = Value::Object(vec![
        ("env".into(), Value::Object(env)),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("rows".into(), Value::Array(rows)),
        ("counts".into(), Value::Array(counts)),
        ("runs".into(), Value::Array(runs)),
    ]);
    serde_json::to_string_pretty(&object).expect("finite metrics serialize")
}

/// The end-to-end rows and the exact counts of an `--out` file.
struct RunSet {
    rows: Vec<(String, String, Vec<f64>)>,
    counts: Vec<(String, String, u64)>,
}

fn read_set(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |name| {
        field(&v, name)
            .ok()
            .and_then(Value::as_array)
            .unwrap_or(&[])
    };
    let word = |row: &Value, name| {
        field(row, name)
            .ok()
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let rows = list("rows")
        .iter()
        .filter(|row| word(row, "kind") == "end_to_end")
        .map(|row| {
            let values = field(row, "values")
                .ok()
                .and_then(Value::as_array)
                .unwrap_or(&[]);
            (
                word(row, "workload"),
                word(row, "metric"),
                values.iter().filter_map(Value::as_f64).collect(),
            )
        })
        .collect();
    let counts = list("counts")
        .iter()
        .map(|c| {
            let value = field(c, "value").ok().and_then(Value::as_u64).unwrap_or(0);
            (word(c, "workload"), word(c, "name"), value)
        })
        .collect();
    Ok(RunSet { rows, counts })
}

/// `--compare`: one verdict per (metric, workload) row, and the exact
/// counts, which must be identical.
pub fn compare_files(reference: &Path, candidate: &Path) -> ExitCode {
    let (a, b) = match (read_set(reference), read_set(candidate)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<22} {:<15} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "reference", "candidate", "worsened", "spread", "bound"
    );
    let mut worse = 0;
    for (workload, metric, reference) in &a.rows {
        let Some(m) = catalog::end_to_end(metric) else {
            continue;
        };
        let Some((_, _, candidate)) = b.rows.iter().find(|r| r.0 == *workload && r.1 == *metric)
        else {
            println!("{workload:<22} {metric:<15} missing from the candidate");
            worse += 1;
            continue;
        };
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        let verdict = judge(reference, candidate, m.better, bound);
        worse += usize::from(verdict == Verdict::Worse);
        println!(
            "{workload:<22} {metric:<15} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>5.0}%  {}",
            median(reference),
            median(candidate),
            100.0 * worsening(reference, candidate, m.better),
            100.0 * spread(reference).max(spread(candidate)),
            100.0 * bound,
            verdict.as_str()
        );
    }
    let mut differing = 0;
    for (workload, name, value) in &a.counts {
        let other = b.counts.iter().find(|c| c.0 == *workload && c.1 == *name);
        if other.map(|c| c.2) != Some(*value) {
            println!(
                "count {workload} {name}: {value} vs {:?}",
                other.map(|c| c.2)
            );
            differing += 1;
        }
    }
    println!(
        "{} exact counts compared, {differing} differ; {worse} rows worse",
        a.counts.len()
    );
    if worse == 0 && differing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
