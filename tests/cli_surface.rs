//! The `bgpsim` binary's argument surface, driven as a process, and the
//! hand-rolled parsers of outside input behind it: the arguments of
//! `bgpsim` and the figure binaries, the daemon's job bodies and the
//! `BGPSIM_FAILPOINT` grammar.

use std::process::Command;

use bgpsim::cli::{parse_args, parse_recover_args, parse_serve_args};
use bgpsim::experiments::binopts::BinOptions;
use bgpsim::experiments::jobspec::{JobSpec, MAX_SEEDS_PER_JOB};
use bgpsim::runner::RunnerConfig;
use bgpsim::trace::failpoint::{FailpointSet, SITES};
use proptest::prelude::*;

/// Runs `bgpsim` with `args` and returns its exit code, stdout and
/// stderr.
fn bgpsim(args: &[&str]) -> (Option<i32>, Vec<u8>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_bgpsim"))
        .args(args)
        .output()
        .expect("spawn bgpsim");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code(), output.stdout, stderr)
}

#[test]
fn retired_engine_flag_is_an_unknown_option() {
    // The flag that selected the second engine and the subcommand that
    // saved and forked warm-ups, until each was removed; the flag is
    // spelled in halves so a tree-wide search for the name stays empty.
    let retired: [&[&str]; 2] = [
        &[concat!("--sh", "ards"), "4"],
        &["checkpoint", "save", "warm.ckpt"],
    ];
    for args in retired {
        let (code, stdout, stderr) = bgpsim(args);
        assert_eq!(code, Some(2));
        assert!(stdout.is_empty());
        assert!(
            stderr.contains("unknown option") && stderr.contains(args[0]),
            "{stderr}"
        );
    }
}

#[test]
fn ignored_flag_combinations_exit_2_before_running() {
    // A runner flag on the human report, which runs in-process, and the
    // timeline on the JSON path, which prints none: each used to be
    // dropped without a word. A worker count would change nothing for
    // the JSON path's one job or for the daemon, which runs one job per
    // executor thread, so neither takes `--jobs`. An undersized
    // topology is refused before its generator can panic.
    let cases: [(&[&str], &str); 6] = [
        (&["--cache-dir", "c"], "--cache-dir needs --json"),
        (&["--isolate", "--cache-dir", "c"], "--isolate needs --json"),
        (&["--json", "--trace"], "--trace conflicts with --json"),
        (&["--json", "--jobs", "2"], r#"unknown option "--jobs""#),
        (&["serve", "--jobs", "2"], r#"unknown option "--jobs""#),
        (&["--topology", "bclique:1"], r#""bclique:1" is too small"#),
    ];
    for (args, message) in cases {
        let (code, stdout, stderr) = bgpsim(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?}");
        assert!(stderr.contains(message), "{stderr}");
    }
}

// Each parser's vocabulary: its flags plus a value or two it accepts.
const CLI: &str = "--topology --event --mrai --no-jitter --enhancement --seed --json --trace \
    --trace-out --jobs --cache-dir --isolate --no-isolate --help clique:5 bclique:1 tdown";
const SERVE: &str = "--addr --exec-workers --jobs --cache-dir --journal --trace-out \
    --max-queued-runs --max-jobs-per-client --event-budget --isolate --no-isolate -h 127.0.0.1:0";
const RECOVER: &str = "--journal --cache-dir --help j.jsonl";
const BIN: &str = "quick paper full --trace --bench --jobs --cache-dir out.json";
/// Numbers at the edges of every numeric flag: zero, `u64::MAX` and
/// one past it, negative, and not numbers at all.
const NUMBERS: &str = "0 1 3 18446744073709551615 18446744073709551616 -1 1e3 0x10 two";
const JUNK: [&str; 7] = ["", "-", "--", "--jobs=2", "ü", " --json", "worker"];

/// The `i`th (wrapping) whitespace-separated word of `words`.
fn word(words: &str, i: usize) -> String {
    let words: Vec<&str> = words.split_whitespace().collect();
    words[i % words.len()].to_string()
}

/// Maps drawn `(kind, index)` pairs to tokens: mostly words of the
/// parser's vocabulary, then numbers, then junk.
fn tokens(vocabulary: &str, raw: &[(u32, usize)]) -> Vec<String> {
    raw.iter()
        .map(|&(kind, i)| match kind {
            0..=4 => word(vocabulary, i),
            5..=7 => word(NUMBERS, i),
            _ => JUNK[i % JUNK.len()].to_string(),
        })
        .collect()
}

/// JobSpec's fields (one of them unknown), and `|`-separated values of
/// every shape they take or refuse.
const JOB_FIELDS: &str = "v topology event mrai_secs jitter enhancement seeds flap fork bogus";
const JOB_VALUES: &str = concat!(
    r#"null|true|0|1|2|-1|1.5|18446744073709551616|"tdown"|"tlong"|"flap"|"ghost"|"x"|"#,
    r#"[]|[7, 8]|[0, -1]|{}|{"tails": ["tdown", "tlong"]}|{"tails": []}|"#,
    r#"{"period_secs": 5, "count": 3}|{"count": -1}"#,
);

/// A JobSpec body from drawn `(field, kind, value, size)` entries: a
/// topology with a size below 200, a seed list up to one entry past
/// the limit, or any other value; cut short when `cut` says so.
fn job_body(fields: &[(usize, u32, usize, usize)], cut: usize) -> String {
    let entries: Vec<String> = fields
        .iter()
        .map(|&(name, kind, value, size)| {
            let family = word("clique bclique internet mesh", value);
            let (field, value) = match kind {
                0 => ("topology", format!(r#""{family}:{size}""#)),
                1 => ("topology", format!(r#""{family}:{size}:{value}""#)),
                // `{:?}` of a `Vec<usize>` is a JSON array.
                2 => {
                    let seeds: Vec<usize> = (0..(2 * size).min(MAX_SEEDS_PER_JOB + 1)).collect();
                    ("seeds", format!("{seeds:?}"))
                }
                _ => {
                    let values: Vec<&str> = JOB_VALUES.split('|').collect();
                    ("", values[value % values.len()].to_string())
                }
            };
            // Topologies and seed lists mostly go where they belong.
            let field = match field {
                "" => word(JOB_FIELDS, name),
                _ if name.is_multiple_of(4) => word(JOB_FIELDS, name / 4),
                field => field.to_string(),
            };
            format!(r#""{field}": {value}"#)
        })
        .collect();
    let body = format!("{{{}}}", entries.join(", "));
    match body.char_indices().nth(cut / 3) {
        Some((at, _)) if cut.is_multiple_of(3) => body[..at].to_string(),
        _ => body,
    }
}

/// Every instrumented site and some near misses.
const FAILPOINT_SITES: &str = "cache_write journal_append journal_fsync worker_spawn worker_run \
    worker worker_runs Journal_append journal_fsync: -";

/// A `BGPSIM_FAILPOINT` value of drawn `(site, action, suffix, n)`
/// specs, with `@N` counts drawn from [`NUMBERS`] and `#substr`
/// filters.
fn failpoint_value(raw: &[(usize, usize, u32, usize)]) -> String {
    let specs: Vec<String> = raw
        .iter()
        .map(|&(site, action, suffix, n)| {
            let action = word("err torn abort ERR boom :", action);
            let mut spec = format!("{}:{action}", word(FAILPOINT_SITES, site));
            if suffix & 1 == 1 {
                spec += &format!("@{}", word(NUMBERS, n));
            }
            if suffix & 2 == 2 {
                spec += &format!("#{}", word("seed=3 # @2 clique", n));
            }
            spec
        })
        .collect();
    specs.join(",")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No argument list makes a parser panic, and whatever one accepts
    /// is usable: a worker count is at least 1, a topology builds, and
    /// `bgpsim` never accepts a flag its chosen output path would
    /// ignore.
    #[test]
    fn argument_parsers_never_panic(
        raw in proptest::collection::vec((0u32..10, 0usize..64), 0..12),
    ) {
        if let Ok(opts) = parse_args(tokens(CLI, &raw)) {
            // `--trace-out` works on both paths; every other runner
            // flag needs `--json`.
            let runner_flags = opts.runner.clone().trace("") != RunnerConfig::new().trace("");
            prop_assert!(opts.json || !runner_flags);
            prop_assert!(!(opts.json && opts.trace));
            opts.topology.build();
        }
        if let Ok(opts) = parse_serve_args(tokens(SERVE, &raw)) {
            prop_assert!(opts.exec_workers >= 1 && opts.max_queued_runs >= 1);
        }
        let _ = parse_recover_args(tokens(RECOVER, &raw));
        if let Ok(opts) = BinOptions::parse(tokens(BIN, &raw)) {
            // Setting the worker count to 0 changes the config unless
            // the parser already accepted a 0.
            prop_assert_ne!(opts.runner.clone().jobs(0), opts.runner);
        }
    }

    /// No body makes the daemon's JobSpec parser panic, and whatever it
    /// accepts can be queued: a bounded, nonempty run list and a
    /// topology that builds.
    #[test]
    fn job_spec_parser_never_panics(
        fields in proptest::collection::vec((0usize..64, 0u32..10, 0usize..64, 0usize..200), 0..8),
        cut in 0usize..1024,
    ) {
        let body = job_body(&fields, cut);
        if let Ok(spec) = JobSpec::parse(&body) {
            prop_assert!((1..=MAX_SEEDS_PER_JOB).contains(&spec.run_count()), "{body}");
            prop_assert_eq!(spec.scenarios().len(), spec.run_count());
            spec.topology.build();
        }
    }

    /// No `BGPSIM_FAILPOINT` value makes its parser panic, and an
    /// accepted set only ever fires at a known site.
    #[test]
    fn failpoint_parser_never_panics(
        raw in proptest::collection::vec((0usize..64, 0usize..64, 0u32..4, 0usize..64), 0..5),
    ) {
        let value = failpoint_value(&raw);
        if let Ok(set) = FailpointSet::parse(&value) {
            for site in FAILPOINT_SITES.split_whitespace() {
                if set.eval(site, "seed=3 clique #@2").is_some() {
                    prop_assert!(SITES.contains(&site), "{value}: fired at {site:?}");
                }
            }
        }
    }
}
