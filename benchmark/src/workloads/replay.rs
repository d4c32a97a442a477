//! `replay_long_epochs` and `replay_short_epochs`: `measure_run` on
//! records simulated in set-up. The same layer used two ways: long
//! epochs let the memo answer most packets, short epochs force walks
//! that cross FIB changes.
//!
//! The records are the sweep's own (scenario seed 1), so their epoch
//! structure is what the workload names promise on every run. The
//! workload seed draws the traffic: the phases of the packet sources
//! replayed against them. How long the Internet-110 `T_down` replay
//! takes moves by a tenth with those phases (they decide how many
//! packets meet a loop and walk all 128 hops), so a pass replays four
//! fleets per record, not one.

use std::time::Instant;

use bgpsim_core::Enhancements;
use bgpsim_dataplane::ReplayStats;
use bgpsim_experiments::figures::common::config_with_mrai;
use bgpsim_experiments::{EventKind, ScenarioSpec, TopologySpec};
use bgpsim_metrics::{measure_run, RunMeasurement};
use bgpsim_netsim::time::SimDuration;
use bgpsim_sim::{FlapProfile, RunRecord};
use bgpsim_topology::NodeId;

use super::{replay_counts, report_layers, report_replay};
use crate::harness::{
    paired_passes, peak_rss_mb, repeated_setup, secs, timed_passes, trace_overhead_share, Ctx,
    Outcome,
};
use crate::layered;
use crate::span::{Ledger, Spans};
use crate::stats::median;

/// Which of the two replay workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Epochs {
    Long,
    Short,
}

/// The seed of every recorded scenario, the first of the paper's five.
const SCENARIO_SEED: u64 = 1;

/// Packet fleets replayed against each record in one pass.
const FLEETS: u64 = 4;

/// Times the fleets are cycled through in one pass, sized so a pass
/// lasts about half a second on the builder's host.
fn cycles(epochs: Epochs, smoke: bool) -> u64 {
    match (smoke, epochs) {
        (true, _) => 1,
        (false, Epochs::Long) => 1,
        (false, Epochs::Short) => 25,
    }
}

/// The scenarios to record, each with the number of times a round
/// measures it: the cheap long-epoch records are repeated so the
/// Internet-110 walk does not drown them.
fn scenarios(epochs: Epochs, smoke: bool) -> Vec<(ScenarioSpec, usize)> {
    let internet = |n| TopologySpec::InternetLike {
        n,
        topo_seed: SCENARIO_SEED,
    };
    let plain = |topology, event, mrai| {
        ScenarioSpec::new(topology, event)
            .with_config(config_with_mrai(mrai, Enhancements::standard()))
            .with_seed(SCENARIO_SEED)
    };
    // A dense flap train under a 5 s MRAI: the link toggles every
    // second, so FIB changes keep arriving while packets are in flight.
    let flap = |topology| {
        plain(topology, EventKind::Flap, 5).with_flap(FlapProfile {
            period: SimDuration::from_secs(2),
            count: 20,
            jitter: 0.1,
            loss: 0.0,
        })
    };
    match (epochs, smoke) {
        (Epochs::Long, false) => vec![
            (plain(TopologySpec::Clique(15), EventKind::TDown, 60), 4),
            (plain(TopologySpec::BClique(15), EventKind::TLong, 30), 4),
            (plain(internet(110), EventKind::TDown, 30), 1),
        ],
        (Epochs::Short, false) => vec![
            (plain(TopologySpec::Clique(15), EventKind::TDown, 5), 1),
            (flap(TopologySpec::Clique(10)), 1),
            (flap(TopologySpec::BClique(8)), 1),
            (plain(internet(110), EventKind::TLong, 5), 1),
        ],
        (Epochs::Long, true) => vec![
            (plain(TopologySpec::Clique(6), EventKind::TDown, 60), 1),
            (plain(internet(29), EventKind::TDown, 30), 1),
        ],
        (Epochs::Short, true) => vec![
            (plain(TopologySpec::Clique(6), EventKind::TDown, 5), 1),
            (flap(TopologySpec::BClique(4)), 1),
        ],
    }
}

/// One simulated run, ready to be measured again and again.
struct Recorded {
    label: String,
    record: RunRecord,
    destination: NodeId,
    /// Times a round measures this record.
    weight: usize,
    /// What `measure_run` yields for each fleet of the pass.
    expected: Vec<RunMeasurement>,
}

/// The traffic seed of the `fleet`-th fleet of a run.
fn traffic_seed(ctx: &Ctx, fleet: u64) -> u64 {
    ctx.seed * FLEETS + fleet
}

/// Simulates every scenario once, measures it once per fleet, and
/// checks the batched replay against the per-packet oracle on the
/// first fleet.
fn prepare(epochs: Epochs, ctx: &Ctx, describe: bool, outcome: &mut Outcome) -> Vec<Recorded> {
    scenarios(epochs, ctx.smoke)
        .into_iter()
        .map(|(spec, weight)| {
            let label = format!("{} {}", spec.topology.label(), spec.event.label());
            let result = spec.run();
            let (record, destination) = (result.record, result.destination);
            let expected: Vec<RunMeasurement> = (0..FLEETS)
                .map(|f| {
                    measure_run(
                        &record,
                        destination,
                        layered::prefix(),
                        traffic_seed(ctx, f),
                    )
                })
                .collect();
            outcome.check(
                layered::replay_matches_oracle(&record, destination, traffic_seed(ctx, 0)),
                || format!("{label}: walk_indexed_batch fates differ from walk_all"),
            );
            if describe {
                let replay = expected[0].replay;
                eprintln!(
                    "{label}: {} packets over {} epochs ({:.0} per epoch), memo hit {:.0} %",
                    replay.packets,
                    replay.epochs,
                    replay.packets as f64 / replay.epochs.max(1) as f64,
                    100.0 * replay.hit_rate()
                );
            }
            Recorded {
                label,
                record,
                destination,
                weight,
                expected,
            }
        })
        .collect()
}

/// One pass: `cycles` times over the fleets, one round per fleet, each
/// round measuring every record `weight` times. Untraced passes call
/// `measure_run`; traced passes issue its body call by call. Appends
/// each round's duration in ms.
fn pass(
    records: &[Recorded],
    ctx: &Ctx,
    cycles: u64,
    mut spans: Option<&mut Spans>,
    round_ms: &mut Vec<f64>,
    outcome: &mut Outcome,
) -> (ReplayStats, u64) {
    let mut replay = ReplayStats::default();
    let mut loops = 0;
    let mut run = 0;
    for fleet in (0..cycles).flat_map(|_| 0..FLEETS) {
        let seed = traffic_seed(ctx, fleet);
        let started = Instant::now();
        for r in records
            .iter()
            .flat_map(|r| std::iter::repeat_n(r, r.weight))
        {
            let expected = &r.expected[fleet as usize];
            let (same, stats, census_len) = match spans.as_deref_mut() {
                None => {
                    let m = measure_run(&r.record, r.destination, layered::prefix(), seed);
                    let same = m.metrics == expected.metrics
                        && m.replay == expected.replay
                        && m.census == expected.census;
                    (same, m.replay, m.census.len())
                }
                Some(spans) => {
                    spans.set_run(run);
                    let root = spans.enter("measure");
                    let m = layered::measure(spans, &r.record, r.destination, seed);
                    spans.exit(root);
                    (m.equals(expected), m.replay, m.census.len())
                }
            };
            outcome.check(same, || {
                format!(
                    "{}: measurement differs from the one taken in set-up",
                    r.label
                )
            });
            replay.merge(&stats);
            loops += census_len as u64;
            run += 1;
        }
        round_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    (replay, loops)
}

pub fn run(epochs: Epochs, ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let (records, setup_s) =
        repeated_setup(ctx, |rep| prepare(epochs, ctx, rep == 0, &mut outcome));
    outcome.metric("setup_s", setup_s);
    let cycles = cycles(epochs, ctx.smoke);
    let mut round_ms = Vec::new();

    if !ctx.traced {
        let mut per_pass = Vec::new();
        let walls = timed_passes(ctx, |_| {
            per_pass.push(pass(
                &records,
                ctx,
                cycles,
                None,
                &mut round_ms,
                &mut outcome,
            ));
        });
        let (replay, loops) = per_pass[0];
        replay_counts(&mut outcome, &replay, loops);
        outcome.metric("work_per_s", replay.packets as f64 / median(&secs(&walls)));
        // The operation timed is one round: every record against one
        // fleet, as often as its weight says.
        outcome.metric("latency_ms_p50", median(&round_ms));
        outcome.metric("peak_rss_mb", peak_rss_mb());
        return outcome;
    }

    let mut spans = Spans::new();
    let mut last = (ReplayStats::default(), 0);
    let (plain_walls, traced_walls) = paired_passes(ctx, |traced| {
        let recorder = traced.then_some(&mut spans);
        last = pass(&records, ctx, cycles, recorder, &mut round_ms, &mut outcome);
    });
    let passes = traced_walls.len() as f64;
    let ledger = Ledger::of(spans.as_slice(), "measure");
    report_layers(&mut outcome, &ledger, "measure", passes);
    report_replay(
        &mut outcome,
        &last.0,
        last.1,
        ledger.ns("dataplane.replay") as f64 / passes,
    );
    outcome.metric(
        "bench.trace_overhead_share",
        trace_overhead_share(&plain_walls, &traced_walls),
    );
    outcome.metric("bench.passes", 2.0 * passes);
    outcome.spans = Some(spans);
    outcome
}
