//! `paper_sweep`: Figures 4–9 at paper scale through the global runner,
//! the unit the repository exists to produce.

use std::time::Instant;

use bgpsim_experiments::figures::{fig4, fig5, fig6, fig7, fig8, fig9, render_claims};
use bgpsim_experiments::{Scale, ScenarioSpec};
use bgpsim_metrics::PaperMetrics;
use bgpsim_runner::{ProgressMode, Runner, RunnerConfig};

use super::{report_layers, report_replay, SimCounts};
use crate::harness::{peak_rss_mb, ratio, repeated_setup, secs, timed_passes, Ctx, Outcome};
use crate::layered;
use crate::span::{Ledger, Spans};
use crate::specs::{
    duplicate_share, figure_specs, journal_fingerprints, match_multisets, multiset,
};
use crate::stats::median;

const GOLDEN_PAPER: &str = include_str!("../../golden/all_figures_paper.stdout");
const GOLDEN_QUICK: &str = include_str!("../../golden/all_figures_quick.stdout");

/// What one pass of the six figures printed.
struct SweepOutput {
    stdout: String,
    claims: usize,
    claims_failed: usize,
}

/// One pass: the body of the `all_figures` binary, with its stdout
/// collected instead of printed.
fn sweep(scale: Scale, spans: &mut Spans) -> SweepOutput {
    let mut out = SweepOutput {
        stdout: String::new(),
        claims: 0,
        claims_failed: 0,
    };
    macro_rules! figure {
        ($m:ident) => {{
            let fig = spans.time("runner.run_jobs", || $m::run(scale));
            let (rendered, claims) = spans.time("experiments.render", || {
                let claims = fig.claims();
                (
                    format!("{}\n{}\n", fig.render(), render_claims(&claims)),
                    claims,
                )
            });
            out.stdout.push_str(&rendered);
            out.claims += claims.len();
            out.claims_failed += claims.iter().filter(|c| !c.pass).count();
        }};
    }
    figure!(fig4);
    figure!(fig5);
    figure!(fig6);
    figure!(fig7);
    figure!(fig8);
    figure!(fig9);
    out
}

fn check_output(outcome: &mut Outcome, got: &SweepOutput, golden: &str, what: &str) {
    outcome.check(got.stdout == golden, || {
        format!("{what}: stdout differs from the golden file")
    });
    let golden_claims = golden.lines().filter(|l| l.starts_with("[PASS]")).count();
    outcome.check(
        got.claims == golden_claims && got.claims_failed == 0,
        || {
            format!(
                "{what}: {} of {} claim checks failed (golden has {golden_claims})",
                got.claims_failed, got.claims
            )
        },
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    let scale = if ctx.smoke {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let golden = if ctx.smoke {
        GOLDEN_QUICK
    } else {
        GOLDEN_PAPER
    };
    let mut outcome = Outcome::default();

    // The figure modules submit to the process-wide runner: one worker,
    // no cache, no progress. Only the traced run journals, to prove the
    // rebuilt scenario list against what the figures really ran.
    let journal = ctx.work_dir.join("journal.jsonl");
    let mut config = RunnerConfig::new().jobs(1).progress(ProgressMode::Never);
    if ctx.traced {
        config = config.journal(&journal);
    }
    let runner = bgpsim_runner::init_global(config).expect("global runner is unset at start-up");

    let mut idle = Spans::disabled();
    let ((specs, fingerprints, warm), setup_s) = repeated_setup(ctx, |_| {
        let specs = figure_specs(scale);
        let fingerprints = multiset(specs.iter().map(ScenarioSpec::fingerprint));
        // A quick-scale sweep warms the process and checks the whole
        // path before anything is timed.
        let warm = sweep(Scale::Quick, &mut idle);
        (specs, fingerprints, warm)
    });
    check_output(&mut outcome, &warm, GOLDEN_QUICK, "warm-up sweep");
    outcome.metric("setup_s", setup_s);
    outcome.count("runner.jobs", specs.len() as u64);
    outcome.count("runner.distinct_fingerprints", fingerprints.len() as u64);

    if ctx.traced {
        traced(&mut outcome, scale, golden, &specs, &fingerprints, &journal);
        return outcome;
    }

    let before = runner.stats();
    let mut passes = Vec::new();
    let walls = timed_passes(ctx, |_| passes.push(sweep(scale, &mut idle)));
    let after = runner.stats();
    for pass in &passes {
        check_output(&mut outcome, pass, golden, "timed sweep");
    }
    let n = walls.len() as u64;
    outcome.check(
        after.executed - before.executed == n * specs.len() as u64,
        || {
            format!(
                "{} passes executed {} jobs, expected {} each",
                n,
                after.executed - before.executed,
                specs.len()
            )
        },
    );
    // Cumulative runner counters divide evenly over identical passes.
    outcome.count(
        "sim.events",
        (after.counters.events - before.counters.events) / n,
    );
    outcome.count(
        "dataplane.packets",
        (after.counters.replay_packets - before.counters.replay_packets) / n,
    );
    let wall = median(&secs(&walls));
    outcome.metric("work_per_s", specs.len() as f64 / wall);
    outcome.metric("latency_ms_p50", wall * 1e3);
    outcome.metric("peak_rss_mb", peak_rss_mb());
    outcome
}

/// The traced run: a journaled pass of the real figures, then every
/// scenario once through the one-call path and once layer by layer,
/// then the same jobs on explicit runners with one and two workers.
fn traced(
    outcome: &mut Outcome,
    scale: Scale,
    golden: &str,
    specs: &[ScenarioSpec],
    fingerprints: &std::collections::BTreeMap<String, usize>,
    journal: &std::path::Path,
) {
    let mut spans = Spans::new();
    let journal_start = std::fs::metadata(journal).map_or(0, |m| m.len()) as usize;

    let root = spans.enter("figures");
    let real = sweep(scale, &mut spans);
    spans.exit(root);
    check_output(outcome, &real, golden, "journaled sweep");
    outcome.metric(
        "experiments.render_ns",
        Ledger::of(spans.as_slice(), "figures").ns("experiments.render") as f64,
    );

    let text = std::fs::read_to_string(journal).unwrap_or_default();
    let verdict = journal_fingerprints(&text[journal_start.min(text.len())..])
        .and_then(|fps| match_multisets(fingerprints, &multiset(fps)));
    outcome.check(verdict.is_ok(), || {
        format!(
            "rebuilt scenario list does not match the journal: {}",
            verdict.unwrap_err()
        )
    });
    outcome.metric("runner.duplicate_run_share", duplicate_share(fingerprints));

    let mut sim = SimCounts::default();
    let mut replay = bgpsim_dataplane::ReplayStats::default();
    let mut loops = 0u64;
    let mut direct_metrics: Vec<PaperMetrics> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        spans.set_run(i as u32);
        let oracle = spans.time("oracle.scenario_run", || spec.run());

        let root = spans.enter("scenario");
        // What `into_job` computes per run before anything executes.
        spans.time("experiments.fingerprint", || {
            std::hint::black_box((spec.fingerprint(), spec.to_canonical_json().ok()));
        });
        let record = layered::simulate(&mut spans, spec, oracle.destination, oracle.failure);
        let measured = layered::measure(&mut spans, &record, oracle.destination, spec.seed);
        spans.exit(root);

        outcome.check(
            record == oracle.record && measured.equals(&oracle.measurement),
            || format!("layered execution of run {i} differs from ScenarioSpec::run"),
        );
        sim.add(&record);
        replay.merge(&measured.replay);
        loops += measured.census.len() as u64;
        direct_metrics.push(oracle.measurement.metrics);
    }
    let ledger = Ledger::of(spans.as_slice(), "scenario");
    let direct_ns = Ledger::of(spans.as_slice(), "oracle.scenario_run").wall_ns as f64;
    report_layers(outcome, &ledger, "scenario", 1.0);
    sim.report(outcome, ledger.ns("sim.run") as f64);
    report_replay(
        outcome,
        &replay,
        loops,
        ledger.ns("dataplane.replay") as f64,
    );
    outcome.metric(
        "bench.trace_overhead_share",
        ratio(ledger.wall_ns as f64, direct_ns) - 1.0,
    );

    let mut batch_wall = |workers: usize| {
        let jobs = specs.iter().cloned().map(ScenarioSpec::into_job).collect();
        let started = Instant::now();
        let metrics = spans.time("runner.run_jobs", || Runner::new(workers).run_jobs(jobs));
        let wall = started.elapsed();
        outcome.check(metrics.as_ref().is_ok_and(|m| *m == direct_metrics), || {
            format!("run_jobs on {workers} workers differs from the direct runs")
        });
        wall.as_nanos() as f64
    };
    let serial_ns = batch_wall(1);
    let pair_ns = batch_wall(2);
    outcome.metric(
        "runner.overhead_ns_per_job",
        (serial_ns - direct_ns) / specs.len() as f64,
    );
    outcome.metric(
        "runner.parallel_efficiency",
        ratio(serial_ns, 2.0 * pair_ns),
    );
    outcome.metric("bench.passes", 5.0);
    outcome.spans = Some(spans);
}
