//! Cross-validation of the data planes: the post-hoc replay engine
//! (`bgpsim-dataplane`) must produce byte-identical packet fates to the
//! live, event-driven forwarder inside the simulation loop
//! (`bgpsim-sim`), and the epoch-indexed batched replay must in turn be
//! byte-identical to the naive per-packet walk. This justifies the
//! replay design used by all experiments and the batched fast path used
//! by the measurement pipeline.

use bgpsim::dataplane::epoch::DENSE_CELL_CAP;
use bgpsim::dataplane::replay::Hop;
use bgpsim::experiments::figures::common::config_with_mrai;
use bgpsim::netsim::rng::SimRng;
use bgpsim::netsim::time::SimDuration;
use bgpsim::prelude::*;
use proptest::prelude::*;

fn equivalence_case(graph: Graph, dest: NodeId, failure: FailureEvent, seed: u64) {
    let prefix = Prefix::new(0);
    let mut net = SimNetwork::new(&graph, BgpConfig::default(), SimParams::default(), seed);
    net.originate(dest, prefix);
    assert_eq!(net.run_to_quiescence(50_000_000), RunOutcome::Quiescent);

    // Schedule the failure and build the packet fleet for a fixed
    // window starting at the failure instant.
    let fail_at = net.now() + SimDuration::from_secs(1);
    net.schedule_failure(SimDuration::from_secs(1), failure);
    let mut rng = SimRng::new(seed).fork(0xBEEF);
    let sources = paper_sources(graph.node_count(), dest, &mut rng);
    let window_end = fail_at + SimDuration::from_secs(90);
    let packets = generate_packets(&sources, prefix, DEFAULT_TTL, fail_at, window_end);
    assert!(!packets.is_empty());
    for p in &packets {
        net.inject_packet(*p);
    }
    assert_eq!(net.run_to_quiescence(100_000_000), RunOutcome::Quiescent);
    let record = net.into_record();

    // Live fates, in packet-id order.
    let mut live = record.live_fates.clone();
    live.sort_by_key(|&(id, _)| id);
    assert_eq!(live.len(), packets.len(), "every packet gets a fate");

    // Replay the same packets against the recorded FIB history.
    let replayed = walk_all(&record.fib, &packets, SimDuration::from_millis(2));

    let mut mismatches = 0;
    for (pkt, (live_fate, replay_fate)) in packets
        .iter()
        .zip(live.iter().map(|&(_, f)| f).zip(replayed.iter().copied()))
    {
        if live_fate != replay_fate {
            mismatches += 1;
            eprintln!(
                "packet {} from {} at {}: live {:?} vs replay {:?}",
                pkt.id, pkt.src, pkt.sent_at, live_fate, replay_fate
            );
        }
    }
    assert_eq!(mismatches, 0, "replay must match the live data plane");

    // The epoch-indexed batched replay must agree record-for-record
    // with the naive oracle (and hence with the live data plane), and
    // account for every packet exactly once.
    let (batched, stats) = walk_indexed_batch(
        &record.fib.epoch_index(prefix),
        &packets,
        SimDuration::from_millis(2),
    );
    assert_eq!(batched, replayed, "batched replay must match the oracle");
    assert_eq!(stats.packets, packets.len() as u64);
    assert_eq!(stats.walks + stats.memo_hits, stats.packets);
}

#[test]
fn replay_matches_live_on_clique_tdown() {
    let g = generators::clique(8);
    equivalence_case(
        g,
        NodeId::new(0),
        FailureEvent::WithdrawPrefix {
            origin: NodeId::new(0),
            prefix: Prefix::new(0),
        },
        11,
    );
}

#[test]
fn replay_matches_live_on_bclique_tlong() {
    let (g, layout) = generators::bclique(5);
    equivalence_case(
        g,
        layout.destination,
        FailureEvent::LinkDown {
            a: layout.destination,
            b: layout.core_gateway,
        },
        12,
    );
}

#[test]
fn replay_matches_live_on_internet_tdown() {
    let g = generators::internet_like(29, 5);
    let dest = *bgpsim::topology::algo::lowest_degree_nodes(&g)
        .first()
        .expect("nonempty");
    equivalence_case(
        g,
        dest,
        FailureEvent::WithdrawPrefix {
            origin: dest,
            prefix: Prefix::new(0),
        },
        13,
    );
}

#[test]
fn replay_matches_live_with_node_failure() {
    let g = generators::clique(6);
    equivalence_case(
        g,
        NodeId::new(0),
        FailureEvent::NodeDown {
            node: NodeId::new(0),
        },
        14,
    );
}

/// A converged network forwards every packet to the destination with
/// no TTL exhaustions — in both data planes.
#[test]
fn converged_network_delivers_everything() {
    let g = generators::internet_like(48, 9);
    let dest = NodeId::new(0);
    let prefix = Prefix::new(0);
    let mut net = SimNetwork::new(&g, BgpConfig::default(), SimParams::default(), 9);
    net.originate(dest, prefix);
    net.run_to_quiescence(50_000_000);
    let start = net.now() + SimDuration::from_secs(1);
    let mut rng = SimRng::new(9).fork(1);
    let sources = paper_sources(g.node_count(), dest, &mut rng);
    let packets = generate_packets(
        &sources,
        prefix,
        DEFAULT_TTL,
        start,
        start + SimDuration::from_secs(5),
    );
    for p in &packets {
        net.inject_packet(*p);
    }
    net.run_to_quiescence(50_000_000);
    let record = net.into_record();
    assert!(record.live_fates.iter().all(|(_, f)| f.is_delivered()));
    let replayed = walk_all(&record.fib, &packets, SimDuration::from_millis(2));
    assert!(replayed.iter().all(|f| f.is_delivered()));
}

/// Three 45 s flaps of the B-Clique-4 `T_long` link.
fn flap_train_scenario() -> Scenario {
    Scenario::new(TopologySpec::BClique(4), EventKind::Flap)
        .with_flap(FlapProfile {
            period: SimDuration::from_secs(45),
            count: 3,
            jitter: 0.0,
            loss: 0.0,
        })
        .with_seed(21)
}

/// The batched replay stays an exact oracle match on a flap-train run
/// (`bgpsim-faults`): the link down/up train packs many FIB epochs into
/// the replay window, stressing epoch-crossing walks and memo
/// invalidation far harder than a single failure does.
#[test]
fn batched_matches_naive_on_flap_train() {
    let result = flap_train_scenario().run();
    let record = &result.record;
    assert!(record.faults_injected >= 6, "flap train fired");
    let prefix = Prefix::new(0);
    let mut rng = SimRng::new(21).fork(0xF1A9);
    let sources = paper_sources(record.node_count, result.destination, &mut rng);
    let (start, end) = record.replay_window();
    let packets = generate_packets(&sources, prefix, DEFAULT_TTL, start, end);
    assert!(!packets.is_empty());
    let delay = SimDuration::from_millis(2);
    let naive = walk_all(&record.fib, &packets, delay);
    let (batched, stats) = walk_indexed_batch(&record.fib.epoch_index(prefix), &packets, delay);
    assert_eq!(batched, naive);
    assert!(
        stats.epochs > 4,
        "a flap train must produce many FIB epochs, got {}",
        stats.epochs
    );
}

/// `measure_run` (which routes through the fleet replay and never
/// materializes a packet) produces the same metrics as recomputing them
/// with the naive per-packet walk, and the same replay counters as the
/// per-packet batched entry point — on every topology family × both
/// failure events, one flap train, and the two regimes the benchmark's
/// replay workloads are built from: long FIB epochs (Clique-15
/// `T_down` at MRAI 60 s) and dense trail breaks (Internet-110 `T_long`
/// at MRAI 5 s).
#[test]
fn measure_run_agrees_with_naive_oracle() {
    let mut scenarios = Vec::new();
    for topology in [
        TopologySpec::Clique(8),
        TopologySpec::BClique(5),
        TopologySpec::InternetLike {
            n: 29,
            topo_seed: 5,
        },
    ] {
        for event in [EventKind::TDown, EventKind::TLong] {
            scenarios.push(Scenario::new(topology.clone(), event).with_seed(1));
        }
    }
    scenarios.push(flap_train_scenario());
    let internet = TopologySpec::InternetLike {
        n: 110,
        topo_seed: 1,
    };
    for (topology, event, mrai) in [
        (TopologySpec::Clique(15), EventKind::TDown, 60),
        (internet, EventKind::TLong, 5),
    ] {
        let config = config_with_mrai(mrai, Enhancements::standard());
        scenarios.push(
            Scenario::new(topology, event)
                .with_config(config)
                .with_seed(1),
        );
    }
    let prefix = Prefix::new(0);
    let delay = SimDuration::from_millis(2);
    for scenario in &scenarios {
        let label = format!("{:?} {:?}", scenario.topology, scenario.event);
        let result = scenario.run();
        let record = &result.record;
        // Reproduce the pipeline's fleet exactly (same fork tag, window).
        let mut rng = SimRng::new(scenario.seed).fork(0xDA7A);
        let sources = paper_sources(record.node_count, result.destination, &mut rng);
        let (start, end) = record.replay_window();
        let packets = generate_packets(&sources, prefix, DEFAULT_TTL, start, end);
        assert!(!packets.is_empty(), "{label}");
        let fates = walk_all(&record.fib, &packets, delay);
        let oracle = compute_metrics(record, &packets, &fates);
        assert_eq!(result.measurement.metrics, oracle, "{label}");
        let (batched, stats) = walk_indexed_batch(&record.fib.epoch_index(prefix), &packets, delay);
        assert_eq!(batched, fates, "{label}");
        assert_eq!(result.measurement.replay, stats, "{label}");
        assert_eq!(stats.packets, packets.len() as u64, "{label}");
        assert!(stats.trail_hits <= stats.walks, "{label}");
        if scenario.event == EventKind::TDown {
            // `T_down` loops, and a looping packet outlives a FIB
            // epoch: the trajectory memo must be at work here.
            assert!(stats.trail_hits * 2 > stats.walks, "{label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The trajectory memo in the regime it exists for: a random
    /// next-hop map over a few nodes is mostly forwarding cycles, a
    /// packet spins in one for up to 128 hops × 2 ms, and nodes change
    /// their entry every few hundred ms at most. So flights cross
    /// several FIB changes, some on their trajectory and some not.
    /// Per packet the fates are the naive walk's, the fleet tally is
    /// the tally of those fates, and both faces count the same — on
    /// both table layouts, with a short TTL or the default one, with
    /// and without link delay.
    #[test]
    fn trajectory_memo_matches_naive_on_random_loop_histories(
        initial in proptest::collection::vec(0u32..10, 10..11),
        changes in proptest::collection::vec(
            (0u32..10, 1u64..300, proptest::option::of(0u32..10)), 0..40),
        fleet in proptest::collection::vec(
            proptest::option::of((40u64..200, 0u64..200)), 10..11),
        nodes in 3u32..10,
        short_ttl in proptest::option::of(0u32..40),
        delay_ms in 0u64..4,
        sparse in 0u32..2,
    ) {
        let prefix = Prefix::new(0);
        let entry = |node: u32, hop: u32| match hop % nodes {
            next if next == node => FibEntry::Local,
            next => FibEntry::Via(NodeId::new(next)),
        };
        let mut fib = NetworkFib::new(nodes as usize);
        for node in 0..nodes {
            let hop = initial[node as usize];
            fib.record(NodeId::new(node), prefix, SimTime::ZERO, Some(entry(node, hop)));
        }
        // Per-node clocks: each history in time order, any interleaving.
        let mut clock = vec![0u64; nodes as usize];
        for (node, dt, hop) in changes {
            let node = node % nodes;
            clock[node as usize] += dt;
            fib.record(
                NodeId::new(node),
                prefix,
                SimTime::from_millis(clock[node as usize]),
                hop.map(|hop| entry(node, hop)),
            );
        }
        let sources: Vec<CbrSource> = (0..nodes)
            .zip(&fleet)
            .filter_map(|(node, cbr)| {
                cbr.map(|(interval, phase)| CbrSource::new(
                    NodeId::new(node),
                    SimDuration::from_millis(interval),
                    SimDuration::from_millis(phase % interval),
                ))
            })
            .collect();
        let ttl = short_ttl.unwrap_or(DEFAULT_TTL);
        let delay = SimDuration::from_millis(delay_ms);
        let (start, end) = (SimTime::ZERO, SimTime::from_millis(1500));
        let packets = generate_packets(&sources, prefix, ttl, start, end);
        let naive = walk_all(&fib, &packets, delay);
        let cap = if sparse == 0 { DENSE_CELL_CAP } else { 0 };
        let index = EpochIndex::build_with_cap(&fib, prefix, cap);
        let (fates, stats) = walk_indexed_batch(&index, &packets, delay);
        prop_assert_eq!(&fates, &naive);
        let (tally, fleet_stats) = replay_fleet(&index, &sources, ttl, start, end, delay);
        prop_assert_eq!(tally, FateTally::from_fates(&naive));
        prop_assert_eq!(fleet_stats, stats);
        prop_assert_eq!(stats.memo_hits + stats.walks, packets.len() as u64);
        prop_assert!(stats.trail_hits <= stats.walks);
    }
}

/// The lookups of a walk that forgets its visits at every boundary it
/// crosses: in each epoch, hop by hop until it meets a node it visited
/// in that epoch, then whole turns up to the epoch's end or the TTL's,
/// and the fewer-than-a-turn remainder hop by hop. `trace` is the
/// walk's hop-by-hop trajectory.
fn redetecting_lookups(trace: &[Hop], index: &EpochIndex) -> u64 {
    let last = trace.len() - 1;
    let mut lookups = 0;
    let mut s = 0;
    while s < trace.len() {
        let epoch = index.epoch_of(trace[s].at);
        let run = trace[s..]
            .iter()
            .take_while(|hop| index.epoch_of(hop.at) == epoch)
            .count();
        // The first lookup at a node the epoch saw before, and the turn.
        let repeat = (1..run).find_map(|k| {
            let node = trace[s + k].node;
            let i = trace[s..s + k].iter().position(|hop| hop.node == node)?;
            Some((k, k - i))
        });
        lookups += match repeat {
            None => run,
            Some((k, cycle)) => run - (run - k).min(last - s - k) / cycle * cycle,
        } as u64;
        s += run;
    }
    lookups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A standing forwarding cycle at the paper's time scale (TTL 128,
    /// 2 ms links) while the nodes off it change their entries every
    /// few ms: a packet on the cycle spins through dozens of FIB
    /// changes, none of which concerns it. The fleet's tally is the
    /// naive walk's; each packet, walked alone, accounts for every
    /// lookup of its naive walk; and the walks make fewer lookups than
    /// walks that re-detect the cycle behind every boundary would.
    #[test]
    fn cycle_skip_outlives_changes_off_the_cycle(
        cycle in 2u32..5,
        off in 1u32..8,
        initial in proptest::collection::vec(0u32..12, 8..9),
        changes in proptest::collection::vec(
            (0u32..8, 1u64..6, proptest::option::of(0u32..12)), 100..300),
        fleet in proptest::collection::vec((40u64..200, 0u64..200), 12..13),
    ) {
        let prefix = Prefix::new(0);
        let nodes = cycle + off;
        let entry = |node: u32, hop: u32| match hop % nodes {
            next if next == node => FibEntry::Local,
            next => FibEntry::Via(NodeId::new(next)),
        };
        let mut fib = NetworkFib::new(nodes as usize);
        for node in 0..nodes {
            let next = match node < cycle {
                true => FibEntry::Via(NodeId::new((node + 1) % cycle)),
                false => entry(node, initial[(node - cycle) as usize]),
            };
            fib.record(NodeId::new(node), prefix, SimTime::ZERO, Some(next));
        }
        let mut clock = SimTime::ZERO;
        for (node, dt, hop) in changes {
            let node = cycle + node % off;
            clock += SimDuration::from_millis(dt);
            fib.record(NodeId::new(node), prefix, clock, hop.map(|hop| entry(node, hop)));
        }
        let sources: Vec<CbrSource> = (0..nodes)
            .zip(&fleet)
            .map(|(node, &(interval, phase))| CbrSource::new(
                NodeId::new(node),
                SimDuration::from_millis(interval),
                SimDuration::from_millis(phase % interval),
            ))
            .collect();
        let delay = SimDuration::from_millis(2);
        let (start, end) = (SimTime::ZERO, SimTime::from_millis(600));
        let packets = generate_packets(&sources, prefix, DEFAULT_TTL, start, end);
        let index = EpochIndex::build(&fib, prefix);
        let (tally, _) = replay_fleet(&index, &sources, DEFAULT_TTL, start, end, delay);
        prop_assert_eq!(tally, FateTally::from_fates(&walk_all(&fib, &packets, delay)));
        let (mut hops, mut redetecting) = (0, 0);
        for packet in &packets {
            let mut trace = Vec::new();
            let fate = walk_packet_traced(&fib, packet, delay, Some(&mut trace));
            let (fates, stats) = walk_indexed_batch(&index, std::slice::from_ref(packet), delay);
            prop_assert_eq!(fates[0], fate);
            prop_assert_eq!(stats.hops + stats.hops_skipped, trace.len() as u64);
            hops += stats.hops;
            redetecting += redetecting_lookups(&trace, &index);
        }
        prop_assert!(hops < redetecting, "{hops} lookups, {redetecting} re-detecting");
    }
}

/// The walk time of a delivered packet equals hops × link delay.
#[test]
fn replay_timing_is_exact() {
    let g = generators::chain(5);
    let prefix = Prefix::new(0);
    let mut net = SimNetwork::new(&g, BgpConfig::default(), SimParams::default(), 3);
    net.originate(NodeId::new(0), prefix);
    net.run_to_quiescence(10_000_000);
    let record = net.into_record();
    let sent_at = record.quiescent_at + SimDuration::from_secs(1);
    let pkt = Packet {
        id: 0,
        src: NodeId::new(4),
        prefix,
        ttl: DEFAULT_TTL,
        sent_at,
    };
    match walk_packet(&record.fib, &pkt, SimDuration::from_millis(2)) {
        PacketFate::Delivered { at, hops } => {
            assert_eq!(hops, 4);
            assert_eq!(at, sent_at + SimDuration::from_millis(8));
        }
        other => panic!("expected delivery, got {other:?}"),
    }
}
