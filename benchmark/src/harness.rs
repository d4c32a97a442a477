//! What every workload shares: its inputs, its result, the pass loop
//! and the repeated set-up.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::span::Spans;
use crate::stats::median;

/// Inputs of one run of one workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed the workload derives its inputs from.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// `true` for the traced run that yields the per-layer metrics.
    pub traced: bool,
    /// Quick scale, one pass: same code paths and checks, small inputs.
    pub smoke: bool,
    /// Scratch directory of this process, inside the checkout.
    pub work_dir: PathBuf,
    /// Where span files go.
    pub out_dir: PathBuf,
    /// The `bgpsim` binary whose `worker` subcommand isolated jobs run.
    pub worker_bin: PathBuf,
}

impl Ctx {
    /// How many times set-up is repeated for its median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// Measured metrics, by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Simulated statistics that must repeat exactly.
    pub counts: Vec<(&'static str, u64)>,
    /// Spans of a traced run.
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Records one attempted operation or check; a failed one is
    /// explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Records `n` operations that all succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((name, value));
    }
}

/// Runs `setup` the configured number of times and returns the last
/// product with the median duration in seconds. Earlier products are
/// dropped outside the timed interval.
pub fn repeated_setup<T>(ctx: &Ctx, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut product = None;
    for rep in 0..ctx.setup_reps() {
        drop(product.take());
        let started = Instant::now();
        product = Some(setup(rep));
        secs.push(started.elapsed().as_secs_f64());
    }
    (product.expect("at least one set-up"), median(&secs))
}

/// Repeats fixed-size passes until the timed section has lasted
/// `ctx.seconds` (one pass in smoke mode) and returns each pass's wall
/// time. The work per pass never changes; only the pass count does.
pub fn timed_passes(ctx: &Ctx, mut pass: impl FnMut(usize)) -> Vec<Duration> {
    let section = Instant::now();
    let mut walls = Vec::new();
    loop {
        let started = Instant::now();
        pass(walls.len());
        walls.push(started.elapsed());
        if ctx.smoke || section.elapsed().as_secs_f64() >= ctx.seconds {
            let shown: Vec<String> = secs(&walls).iter().map(|w| format!("{w:.4}")).collect();
            eprintln!("pass walls (s): {}", shown.join(" "));
            return walls;
        }
    }
}

/// The timed section of a traced run: each pass runs once plain and
/// once traced (`pass(true)`). Returns the plain and the traced walls
/// in seconds.
pub fn paired_passes(ctx: &Ctx, mut pass: impl FnMut(bool)) -> (Vec<f64>, Vec<f64>) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    timed_passes(ctx, |_| {
        for (is_traced, walls) in [(false, &mut plain), (true, &mut traced)] {
            let started = Instant::now();
            pass(is_traced);
            walls.push(started.elapsed().as_secs_f64());
        }
    });
    (plain, traced)
}

/// What recording spans cost: median traced wall ÷ median plain − 1.
pub fn trace_overhead_share(plain: &[f64], traced: &[f64]) -> f64 {
    ratio(median(traced), median(plain)) - 1.0
}

pub fn secs(walls: &[Duration]) -> Vec<f64> {
    walls.iter().map(Duration::as_secs_f64).collect()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    bgpsim_trace::peak_rss_kb() as f64 / 1024.0
}

/// Creates an empty directory, replacing whatever was there.
pub fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("create scratch directory");
    path.to_path_buf()
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
