//! Hot-path criterion group: the three intra-run bottlenecks attacked
//! by the hot-path overhaul (DESIGN.md §11) plus the end-to-end run CI
//! gates on.
//!
//! * AS-path ops — `Arc`-interned clone fan-out, membership-filter
//!   `contains`, single-allocation `prepend`;
//! * loop census — incremental dirty-set scan vs the retained full
//!   walk on the same recorded FIB history;
//! * event-queue churn — MRAI-style schedule/cancel/reschedule load
//!   that exercises lazy-cancel reclamation and heap compaction;
//! * `hotpath/clique8_tdown_end_to_end` — a full convergence run; the
//!   CI bench-smoke job fails if this regresses >25% against the
//!   committed `BENCH_hotpath.json` baseline.
//!
//! The `replay` group benchmarks the measurement pipeline's epoch-
//! indexed batched packet replay against the naive per-packet oracle
//! (index build, batched vs naive walk over the paper's traffic fleet,
//! and the end-to-end `measure_run`, on clique-8 and on the loop-heavy
//! Internet-110 `T_down` record whose packets outlive its FIB epochs);
//! CI gates every row at >25% regression against the committed
//! `BENCH_hotpath.json` baseline.
//!
//! Set `BGPSIM_BENCH_JSON=<file>` to emit the machine-readable report.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use bgpsim_core::prelude::*;
use bgpsim_dataplane::prelude::*;
use bgpsim_experiments::{EventKind, Scenario, TopologySpec};
use bgpsim_metrics::prelude::*;
use bgpsim_netsim::prelude::*;
use bgpsim_netsim::queue::EventQueue;
use bgpsim_sim::prelude::*;
use bgpsim_topology::{generators, NodeId};

/// A converged clique-8 `T_down` run record: the census benches replay
/// its FIB history, the end-to-end bench re-runs the experiment.
fn clique8_tdown() -> ConvergenceExperiment {
    ConvergenceExperiment::new(
        generators::clique(8),
        NodeId::new(0),
        FailureEvent::WithdrawPrefix {
            origin: NodeId::new(0),
            prefix: Prefix::new(0),
        },
    )
    .with_seed(1)
}

fn bench_aspath_ops(c: &mut Criterion) {
    // A 16-hop path: the long end of what clique sweeps explore.
    let path = AsPath::from_ids(0..16);
    c.bench_function("hotpath/aspath_clone_fanout_30", |b| {
        b.iter(|| {
            // UPDATE fan-out to 30 peers: one refcount bump each.
            let mut clones = Vec::with_capacity(30);
            for _ in 0..30 {
                clones.push(black_box(&path).clone());
            }
            black_box(clones.len())
        })
    });
    c.bench_function("hotpath/aspath_contains_filter_miss", |b| {
        // Poison-reverse probe for a node not on the path: the
        // membership filter answers without scanning the slice.
        b.iter(|| black_box(black_box(&path).contains(NodeId::new(999))))
    });
    c.bench_function("hotpath/aspath_contains_hit", |b| {
        b.iter(|| black_box(black_box(&path).contains(NodeId::new(15))))
    });
    c.bench_function("hotpath/aspath_prepend", |b| {
        b.iter(|| black_box(black_box(&path).prepend(NodeId::new(99))))
    });
}

fn bench_census(c: &mut Criterion) {
    let record = clique8_tdown().run();
    let prefix = Prefix::new(0);
    c.bench_function("hotpath/census_incremental_clique8", |b| {
        b.iter(|| black_box(loop_census(black_box(&record.fib), prefix)))
    });
    c.bench_function("hotpath/census_full_walk_clique8", |b| {
        b.iter(|| black_box(loop_census_full(black_box(&record.fib), prefix)))
    });
}

fn bench_queue_churn(c: &mut Criterion) {
    c.bench_function("hotpath/queue_mrai_churn_4k", |b| {
        b.iter(|| {
            // MRAI-style load: every scheduled expiry is superseded
            // (cancel + reschedule) before a batch of pops drains the
            // survivors — stale keys pile up and compaction must keep
            // the heap bounded.
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut pending = Vec::with_capacity(64);
            let mut popped = 0u64;
            for round in 0..64u64 {
                for slot in 0..64u64 {
                    let at = SimTime::from_nanos(round * 1_000 + slot * 7);
                    pending.push(q.schedule(at, slot as u32));
                }
                for id in pending.drain(..) {
                    q.cancel(id);
                    let at = SimTime::from_nanos(round * 1_000 + 500);
                    q.schedule(at, 0);
                }
                for _ in 0..32 {
                    if q.pop().is_some() {
                        popped += 1;
                    }
                }
            }
            while q.pop().is_some() {
                popped += 1;
            }
            black_box(popped)
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    c.bench_function("hotpath/clique8_tdown_end_to_end", |b| {
        b.iter_batched(
            clique8_tdown,
            |exp| black_box(exp.run().sends.len()),
            BatchSize::SmallInput,
        )
    });
}

fn bench_replay(c: &mut Criterion) {
    let record = clique8_tdown().run();
    let prefix = Prefix::new(0);
    let destination = NodeId::new(0);
    let link_delay = SimDuration::from_millis(2);
    // The exact fleet `measure_run` replays: paper sources over the
    // record's replay window, traffic fork tag 0xDA7A, seed 1.
    let mut rng = SimRng::new(1).fork(0xDA7A);
    let sources = paper_sources(record.node_count, destination, &mut rng);
    let (start, end) = record.replay_window();
    let packets = generate_packets(&sources, prefix, DEFAULT_TTL, start, end);
    assert!(!packets.is_empty(), "bench fleet must be nonempty");

    c.bench_function("replay/epoch_index_build_clique8", |b| {
        b.iter(|| black_box(black_box(&record.fib).epoch_index(prefix)))
    });
    c.bench_function("replay/walk_naive_clique8", |b| {
        b.iter(|| {
            black_box(walk_all(
                black_box(&record.fib),
                black_box(&packets),
                link_delay,
            ))
        })
    });
    c.bench_function("replay/walk_batched_clique8", |b| {
        let index = record.fib.epoch_index(prefix);
        b.iter(|| {
            black_box(walk_indexed_batch(
                black_box(&index),
                black_box(&packets),
                link_delay,
            ))
        })
    });
    c.bench_function("replay/measure_run_clique8", |b| {
        b.iter(|| {
            black_box(measure_run(
                black_box(&record),
                destination,
                prefix,
                black_box(1),
            ))
        })
    });

    // TTL-exhausted packets spin for 256 ms here, longer than the
    // ~190 ms between FIB changes: the walks the clique-8 rows do not
    // have, the ones that cross epoch boundaries inside a loop.
    let internet = Scenario::new(
        TopologySpec::InternetLike {
            n: 110,
            topo_seed: 1,
        },
        EventKind::TDown,
    )
    .with_seed(1)
    .run();
    c.bench_function("replay/measure_run_internet110_tdown", |b| {
        b.iter(|| {
            black_box(measure_run(
                black_box(&internet.record),
                internet.destination,
                prefix,
                black_box(1),
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_aspath_ops,
    bench_census,
    bench_queue_churn,
    bench_end_to_end
);
criterion_group!(replay, bench_replay);
criterion_main!(benches, replay);
