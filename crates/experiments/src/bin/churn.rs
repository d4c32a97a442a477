//! Churn sweep: flap the `T_long` link of a B-Clique and measure how
//! convergence and looping respond to the flap period. Usage:
//!
//! ```text
//! churn [quick|paper] [--flap-period <s>] [--flaps <n>] [--flap-jitter <f>]
//!       [--loss <p>] [--seeds <n>] [--trace <file.jsonl>]
//!       [--bench <file.json>] [--jobs <n>] [--cache-dir <dir>]
//! ```
//!
//! `--flap-period` may be given multiple times to sweep an explicit
//! period list (default: the scale's range). The sweep output is
//! deterministic for a fixed configuration, regardless of `--jobs`.

use bgpsim_experiments::binopts::{dispatch_worker, BinOptions, USAGE};
use bgpsim_experiments::churn::{self, ChurnOptions};

const CHURN_USAGE: &str = "usage: churn [quick|paper] [--flap-period <s>]... [--flaps <n>] \
     [--flap-jitter <f>] [--loss <p>] [--seeds <n>] plus the common flags below";

fn fail(err: &str) -> ! {
    eprintln!("{err}");
    eprintln!("{CHURN_USAGE}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Splits the churn-specific flags out of the argument list, leaving
/// the rest for [`BinOptions::parse`].
fn parse_churn_flags(args: Vec<String>) -> (ChurnOptions, Vec<String>) {
    let mut options = ChurnOptions::default();
    let mut periods: Vec<u64> = Vec::new();
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => v,
            None => fail(&format!("{flag} needs a value")),
        };
        match arg.as_str() {
            "--flap-period" => {
                let v = value("--flap-period");
                match v.parse::<u64>() {
                    Ok(secs) if secs > 0 => periods.push(secs),
                    _ => fail(&format!(
                        "--flap-period needs a positive integer, got {v:?}"
                    )),
                }
            }
            "--flaps" => {
                let v = value("--flaps");
                match v.parse::<u32>() {
                    Ok(n) if n > 0 => options.count = n,
                    _ => fail(&format!("--flaps needs a positive integer, got {v:?}")),
                }
            }
            "--flap-jitter" => {
                let v = value("--flap-jitter");
                match v.parse::<f64>() {
                    Ok(j) if (0.0..=0.5).contains(&j) => options.jitter = j,
                    _ => fail(&format!(
                        "--flap-jitter needs a value in [0, 0.5], got {v:?}"
                    )),
                }
            }
            "--loss" => {
                let v = value("--loss");
                match v.parse::<f64>() {
                    Ok(p) if (0.0..=1.0).contains(&p) => options.loss = p,
                    _ => fail(&format!("--loss needs a probability in [0, 1], got {v:?}")),
                }
            }
            "--seeds" => {
                let v = value("--seeds");
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => options.seeds = Some((1..=n).collect()),
                    _ => fail(&format!("--seeds needs a positive integer, got {v:?}")),
                }
            }
            _ => rest.push(arg),
        }
    }
    if !periods.is_empty() {
        options.periods = Some(periods);
    }
    (options, rest)
}

fn main() {
    dispatch_worker();
    let (churn_opts, rest) = parse_churn_flags(std::env::args().skip(1).collect());
    let opts = match BinOptions::parse(rest) {
        Ok(opts) => opts,
        Err(err) => fail(&err),
    };
    let scale = opts.scale();
    opts.init_runner();
    eprintln!("running churn sweep at {scale:?} scale…");
    let sweep = churn::run(scale, &churn_opts);
    println!("{}", sweep.render());
    opts.finish();
}
