//! `control_plane`: `ConvergenceExperiment::run()` alone over the large
//! cells of the sweep. No packet is replayed, so a queue or decision
//! gain shows here and a replay gain must not.

use std::sync::Arc;
use std::time::Instant;

use bgpsim_core::Enhancements;
use bgpsim_experiments::figures::common::{config_with_mrai, Cell};
use bgpsim_experiments::{EventKind, ScenarioSpec, TopologySpec};
use bgpsim_netsim::queue::EventQueue;
use bgpsim_netsim::time::SimTime;
use bgpsim_sim::FailureEvent;
use bgpsim_topology::NodeId;
use bgpsim_trace::{JsonlSink, TraceHandle};

use super::{report_layers, SimCounts};
use crate::harness::{
    paired_passes, peak_rss_mb, ratio, repeated_setup, secs, timed_passes, trace_overhead_share,
    Ctx, Outcome,
};
use crate::layered;
use crate::span::{Ledger, Spans};
use crate::stats::median;

/// Seeds per cell and variant in one pass.
const SEEDS_PER_CELL: u64 = 2;

fn cells(smoke: bool) -> Vec<(TopologySpec, EventKind)> {
    let internet = |n| TopologySpec::InternetLike { n, topo_seed: 0 };
    if smoke {
        return vec![
            (TopologySpec::Clique(8), EventKind::TDown),
            (TopologySpec::BClique(4), EventKind::TLong),
            (internet(29), EventKind::TDown),
            (internet(29), EventKind::TLong),
        ];
    }
    vec![
        (TopologySpec::Clique(20), EventKind::TDown),
        (TopologySpec::Clique(25), EventKind::TDown),
        (TopologySpec::Clique(30), EventKind::TDown),
        (TopologySpec::BClique(13), EventKind::TLong),
        (TopologySpec::BClique(15), EventKind::TLong),
        (internet(75), EventKind::TDown),
        (internet(75), EventKind::TLong),
        (internet(110), EventKind::TDown),
        (internet(110), EventKind::TLong),
    ]
}

/// One run of the pass: the scenario, and the destination and failure
/// its spec resolves to.
struct Prepared {
    spec: ScenarioSpec,
    destination: NodeId,
    failure: FailureEvent,
}

/// Resolves every `(cell, variant, seed)` of the pass. Destination and
/// failure depend on topology, event and seed only, so one full
/// `ScenarioSpec::run` of the plain-BGP variant per `(cell, seed)`
/// yields them for all five variants, and serves as the oracle for the
/// benchmark's own construction of the experiment.
fn prepare(ctx: &Ctx, outcome: &mut Outcome) -> Vec<Prepared> {
    let mut idle = Spans::disabled();
    let mut prepared = Vec::new();
    for (topology, event) in cells(ctx.smoke) {
        for seed in ctx.seed..ctx.seed + SEEDS_PER_CELL {
            let cell = |enh| Cell {
                x: 0.0,
                spec: topology.clone(),
                event,
                config: config_with_mrai(30, enh),
            };
            let plain = cell(Enhancements::standard()).scenario(seed);
            let oracle = plain.run();
            let record = layered::simulate(&mut idle, &plain, oracle.destination, oracle.failure);
            outcome.check(record == oracle.record, || {
                format!(
                    "{} {} seed {seed}: rebuilt experiment differs from ScenarioSpec::run",
                    topology.label(),
                    event.label()
                )
            });
            prepared.extend(Enhancements::paper_variants().map(|enh| Prepared {
                spec: cell(enh).scenario(seed),
                destination: oracle.destination,
                failure: oracle.failure,
            }));
        }
    }
    prepared
}

/// One pass: every prepared run, topology build included. Returns the
/// simulated statistics.
fn pass(prepared: &[Prepared], spans: &mut Spans, tracer: Option<&TraceHandle>) -> SimCounts {
    let mut counts = SimCounts::default();
    for (i, run) in prepared.iter().enumerate() {
        spans.set_run(i as u32);
        let root = spans.enter("scenario");
        let mut experiment = layered::experiment(spans, &run.spec, run.destination, run.failure);
        if let Some(tracer) = tracer {
            experiment = experiment.with_tracer(tracer.clone());
        }
        let record = spans.time("sim.run", || experiment.run());
        spans.exit(root);
        counts.add(&std::hint::black_box(record));
    }
    counts
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let (prepared, setup_s) = repeated_setup(ctx, |_| prepare(ctx, &mut outcome));
    outcome.metric("setup_s", setup_s);
    if ctx.traced {
        traced(ctx, &mut outcome, &prepared);
        return outcome;
    }

    let mut per_pass = Vec::new();
    let walls = timed_passes(ctx, |_| {
        per_pass.push(pass(&prepared, &mut Spans::disabled(), None));
    });
    check_passes_agree(&mut outcome, &per_pass, prepared.len());
    per_pass[0].report_counts(&mut outcome);
    // The operation timed is one pass over the cell set: single runs
    // differ too much by cell for their median to be steady.
    let wall = median(&secs(&walls));
    outcome.metric("work_per_s", per_pass[0].events as f64 / wall);
    outcome.metric("latency_ms_p50", wall * 1e3);
    outcome.metric("peak_rss_mb", peak_rss_mb());
    outcome
}

fn check_passes_agree(outcome: &mut Outcome, per_pass: &[SimCounts], runs: usize) {
    outcome.check(per_pass.iter().all(|c| *c == per_pass[0]), || {
        "simulated statistics differ between passes of the same inputs".into()
    });
    outcome.passed((per_pass.len() * runs) as u64);
}

/// The traced run alternates untraced and traced passes, then times
/// one pass writing the program's own JSONL trace and drives the event
/// queue alone.
fn traced(ctx: &Ctx, outcome: &mut Outcome, prepared: &[Prepared]) {
    let mut spans = Spans::new();
    let mut per_pass = Vec::new();
    let (plain_walls, traced_walls) = paired_passes(ctx, |traced| {
        let mut off = Spans::disabled();
        let recorder = if traced { &mut spans } else { &mut off };
        per_pass.push(pass(prepared, recorder, None));
    });
    check_passes_agree(outcome, &per_pass, prepared.len());

    let ledger = Ledger::of(spans.as_slice(), "scenario");
    let passes = traced_walls.len() as f64;
    report_layers(outcome, &ledger, "scenario", passes);
    per_pass[0].report(outcome, ledger.ns("sim.run") as f64 / passes);
    outcome.metric(
        "bench.trace_overhead_share",
        trace_overhead_share(&plain_walls, &traced_walls),
    );
    outcome.metric("bench.passes", 2.0 * passes);

    // The program's own tracing, switched on: one pass streaming every
    // simulator event to a JSONL file against the median plain pass.
    let path = ctx.work_dir.join("sim-trace.jsonl");
    let sink = JsonlSink::create(&path).expect("create trace file in the scratch directory");
    let tracer = TraceHandle::new(Arc::new(sink));
    let started = Instant::now();
    let counts = pass(prepared, &mut Spans::disabled(), Some(&tracer));
    tracer.flush();
    let jsonl_wall = started.elapsed().as_secs_f64();
    drop(tracer);
    outcome.check(counts == per_pass[0], || {
        "tracing to JSONL changed the simulated statistics".into()
    });
    outcome.metric(
        "trace.jsonl_overhead_share",
        ratio(jsonl_wall, median(&plain_walls)) - 1.0,
    );
    let _ = std::fs::remove_file(&path);

    outcome.metric(
        "netsim.queue_ns_per_op",
        queue_ns_per_op(per_pass[0].max_queue_depth.max(16) as usize),
    );
    outcome.spans = Some(spans);
}

/// Drives the public `EventQueue` alone: keeps `depth` events pending
/// (the largest run's high-water mark) and per step schedules two,
/// cancels one and pops one, like MRAI timers being re-armed between
/// deliveries. Returns ns per queue operation.
fn queue_ns_per_op(depth: usize) -> f64 {
    const STEPS: usize = 200_000;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut now = 0u64;
    for i in 0..depth {
        queue.schedule(SimTime::from_nanos(now + next() % 30_000_000_000), i as u32);
    }
    let started = Instant::now();
    for i in 0..STEPS {
        queue.schedule(SimTime::from_nanos(now + next() % 30_000_000_000), i as u32);
        let doomed = queue.schedule(SimTime::from_nanos(now + next() % 30_000_000_000), i as u32);
        queue.cancel(doomed);
        if let Some((time, _, payload)) = queue.pop() {
            now = time.as_nanos();
            std::hint::black_box(payload);
        }
    }
    started.elapsed().as_nanos() as f64 / (4 * STEPS) as f64
}
