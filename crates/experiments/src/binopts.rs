//! Shared command-line handling for the figure binaries.
//!
//! Every figure binary accepts the same surface:
//!
//! ```text
//! figN [quick|paper] [--trace <file.jsonl>] [--bench <file.json>]
//!      [--jobs <n>] [--cache-dir <dir>]
//! ```
//!
//! The runner flags parse into a flags-only [`RunnerConfig`], which
//! [`BinOptions::init_runner`] merges over [`RunnerConfig::from_env`],
//! so flags win over env and env wins over defaults. The scale falls
//! back to `BGPSIM_SCALE` and then to paper scale.

use std::path::PathBuf;

use bgpsim_runner::{init_global, Runner, RunnerConfig};

use crate::figures::Scale;

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BinOptions {
    /// Sweep scale (positional `quick|paper`, else `BGPSIM_SCALE`,
    /// else paper).
    pub scale: Option<Scale>,
    /// `--bench <path>`: write the aggregated counter baseline after
    /// the sweep.
    pub bench: Option<PathBuf>,
    /// The runner flags alone: `--trace <path>` (JSONL trace events of
    /// every executed run), `--jobs <n>` and `--cache-dir <dir>`.
    pub runner: RunnerConfig,
}

/// The usage string appended to parse errors.
pub const USAGE: &str = "usage: [quick|paper] [--trace <file.jsonl>] [--bench <file.json>] \
     [--jobs <n>] [--cache-dir <dir>]";

/// Answers the supervisor's `<exe> worker` re-exec: when the first
/// argument is `worker`, runs [`worker::run`](crate::worker::run) and
/// exits instead of returning. Every binary that can enable isolation
/// (`--isolate`, `BGPSIM_ISOLATE=1`) calls this before parsing its own
/// arguments; [`BinOptions::from_cli`] does it for the figure binaries.
pub fn dispatch_worker() {
    if std::env::args().nth(1).as_deref() == Some("worker") {
        crate::worker::run();
        std::process::exit(0);
    }
}

impl BinOptions {
    /// Parses an argument list (without the program name).
    pub fn parse<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = BinOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
            match arg.as_str() {
                "--trace" => opts.runner = opts.runner.trace(value("--trace")?),
                "--bench" => opts.bench = Some(PathBuf::from(value("--bench")?)),
                "--cache-dir" => opts.runner = opts.runner.cache_dir(value("--cache-dir")?),
                "--jobs" => {
                    let v = value("--jobs")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--jobs needs a positive integer, got {v:?}"))?;
                    if n == 0 {
                        return Err("--jobs needs a positive integer, got 0".into());
                    }
                    opts.runner = opts.runner.jobs(n);
                }
                other => match Scale::parse(other) {
                    Some(scale) if opts.scale.is_none() => opts.scale = Some(scale),
                    Some(_) => return Err(format!("scale given twice ({other:?})")),
                    None => return Err(format!("unrecognized argument {other:?}")),
                },
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments; on error prints the problem plus
    /// [`USAGE`] to stderr and exits with status 2. A leading `worker`
    /// argument never returns (see [`dispatch_worker`]).
    pub fn from_cli() -> Self {
        dispatch_worker();
        match BinOptions::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(err) => {
                eprintln!("{err}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The effective sweep scale: positional argument, else
    /// `BGPSIM_SCALE`, else paper scale.
    pub fn scale(&self) -> Scale {
        self.scale.unwrap_or_else(|| {
            std::env::var("BGPSIM_SCALE")
                .ok()
                .and_then(|v| Scale::parse(&v))
                .unwrap_or(Scale::Paper)
        })
    }

    /// Installs the process-wide runner from env + flags and returns
    /// it. Exits with status 1 if the configuration cannot be applied
    /// (unwritable cache dir, trace sink already installed, …).
    pub fn init_runner(&self) -> &'static Runner {
        match init_global(RunnerConfig::from_env().merge(self.runner.clone())) {
            Ok(runner) => runner,
            Err(err) => {
                eprintln!("runner setup failed: {err}");
                std::process::exit(1);
            }
        }
    }

    /// End-of-run bookkeeping: render runner stats to stderr, flush
    /// the trace sink, and write the `--bench` baseline if requested.
    /// Exits with status 1 if the baseline cannot be written.
    pub fn finish(&self) {
        let runner = bgpsim_runner::global();
        eprintln!("{}", runner.render_stats());
        bgpsim_trace::flush_global();
        if let Some(path) = &self.bench {
            match runner.write_bench(path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(err) => {
                    eprintln!("bench baseline write failed: {err}");
                    std::process::exit(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_empty() {
        let opts = BinOptions::parse(strs(&[])).unwrap();
        assert_eq!(opts, BinOptions::default());
    }

    #[test]
    fn parses_everything() {
        let opts = BinOptions::parse(strs(&[
            "quick",
            "--trace",
            "t.jsonl",
            "--bench",
            "b.json",
            "--jobs",
            "4",
            "--cache-dir",
            "/tmp/c",
        ]))
        .unwrap();
        assert_eq!(opts.scale, Some(Scale::Quick));
        assert_eq!(opts.bench.as_deref(), Some(std::path::Path::new("b.json")));
        assert_eq!(
            opts.runner,
            RunnerConfig::new()
                .trace("t.jsonl")
                .jobs(4)
                .cache_dir("/tmp/c")
        );
    }

    #[test]
    fn flag_order_does_not_matter() {
        let a = BinOptions::parse(strs(&["--jobs", "2", "paper"])).unwrap();
        let b = BinOptions::parse(strs(&["paper", "--jobs", "2"])).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.scale, Some(Scale::Paper));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(BinOptions::parse(strs(&["--trace"])).is_err());
        assert!(BinOptions::parse(strs(&["--jobs", "zero"])).is_err());
        assert!(BinOptions::parse(strs(&["--jobs", "0"])).is_err());
        assert!(BinOptions::parse(strs(&["quick", "paper"])).is_err());
        assert!(BinOptions::parse(strs(&["--frobnicate"])).is_err());
    }
}
