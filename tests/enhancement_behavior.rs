//! End-to-end behavioral checks of the four convergence enhancements
//! (paper §5), run through the full simulation stack rather than on a
//! single router.

use bgpsim::prelude::*;

fn run_variant(
    spec: TopologySpec,
    event: EventKind,
    enh: Enhancements,
    seed: u64,
) -> ScenarioResult {
    ScenarioSpec::new(spec, event)
        .with_config(BgpConfig::default().with_enhancements(enh))
        .with_seed(seed)
        .run()
}

/// Assertion converges near-instantly on clique T_down: every node is
/// adjacent to the origin, so the origin's withdrawal invalidates all
/// backups at once (paper §5).
#[test]
fn assertion_gives_immediate_clique_convergence() {
    let bgp = run_variant(
        TopologySpec::Clique(10),
        EventKind::TDown,
        Enhancements::standard(),
        1,
    );
    let assertion = run_variant(
        TopologySpec::Clique(10),
        EventKind::TDown,
        Enhancements::assertion(),
        1,
    );
    let c_bgp = bgp.measurement.metrics.convergence_secs();
    let c_assert = assertion.measurement.metrics.convergence_secs();
    assert!(
        c_assert < 3.0,
        "assertion clique convergence should be ~one processing round, got {c_assert:.1}s"
    );
    assert!(c_bgp > 30.0, "standard BGP explores paths for minutes");
    assert_eq!(
        assertion.measurement.metrics.ttl_exhaustions, 0,
        "assertion should eliminate clique T_down loops entirely"
    );
}

/// Ghost Flushing trades loops for no-route drops: it cuts TTL
/// exhaustions dramatically but drops more packets route-less, because
/// failure news travels faster than new reachability (paper §5's
/// criticism of Ghost Flushing).
#[test]
fn ghost_flushing_trades_loops_for_no_route_drops() {
    let spec = TopologySpec::InternetLike {
        n: 48,
        topo_seed: 2,
    };
    let bgp = run_variant(spec.clone(), EventKind::TDown, Enhancements::standard(), 2);
    let ghost = run_variant(spec, EventKind::TDown, Enhancements::ghost_flushing(), 2);
    let m_bgp = &bgp.measurement.metrics;
    let m_ghost = &ghost.measurement.metrics;
    assert!(
        (m_ghost.ttl_exhaustions as f64) < 0.2 * m_bgp.ttl_exhaustions as f64,
        "ghost flushing must cut loops ≥80%: {} vs {}",
        m_ghost.ttl_exhaustions,
        m_bgp.ttl_exhaustions
    );
    let frac = |m: &PaperMetrics| m.no_route as f64 / m.packets_total.max(1) as f64;
    assert!(
        frac(m_ghost) > frac(m_bgp),
        "ghost flushing drops more packets route-less ({:.2} vs {:.2})",
        frac(m_ghost),
        frac(m_bgp)
    );
}

/// Ghost Flushing speeds up T_down convergence (paper: consistently
/// reduces convergence time on internet-like graphs).
#[test]
fn ghost_flushing_speeds_convergence() {
    let spec = TopologySpec::InternetLike {
        n: 48,
        topo_seed: 3,
    };
    let bgp = run_variant(spec.clone(), EventKind::TDown, Enhancements::standard(), 3);
    let ghost = run_variant(spec, EventKind::TDown, Enhancements::ghost_flushing(), 3);
    assert!(
        ghost.measurement.metrics.convergence_secs()
            < 0.5 * bgp.measurement.metrics.convergence_secs()
    );
}

/// SSLD sends more withdrawals and fewer announcements than standard
/// BGP (each suppressed poison-reverse announcement becomes an
/// immediate withdrawal).
#[test]
fn ssld_shifts_announcements_to_withdrawals() {
    let bgp = run_variant(
        TopologySpec::Clique(8),
        EventKind::TDown,
        Enhancements::standard(),
        4,
    );
    let ssld = run_variant(
        TopologySpec::Clique(8),
        EventKind::TDown,
        Enhancements::ssld(),
        4,
    );
    let b = bgp.record.total_stats();
    let s = ssld.record.total_stats();
    assert!(s.ssld_conversions > 0, "SSLD must fire on clique T_down");
    assert!(
        s.announcements_sent < b.announcements_sent,
        "SSLD suppresses poison-reverse announcements ({} vs {})",
        s.announcements_sent,
        b.announcements_sent
    );
}

/// WRATE reduces the number of messages (withdrawals are batched into
/// MRAI rounds) on clique T_down.
#[test]
fn wrate_rate_limits_withdrawals() {
    let bgp = run_variant(
        TopologySpec::Clique(8),
        EventKind::TDown,
        Enhancements::standard(),
        5,
    );
    let wrate = run_variant(
        TopologySpec::Clique(8),
        EventKind::TDown,
        Enhancements::wrate(),
        5,
    );
    assert!(
        wrate.record.total_stats().withdrawals_sent <= bgp.record.total_stats().withdrawals_sent,
        "WRATE must not send more withdrawals than standard BGP"
    );
}

/// Ghost-flush counters only tick when Ghost Flushing is enabled, and
/// assertion counters only with Assertion — the enhancements do not
/// leak into each other.
#[test]
fn enhancement_counters_are_isolated() {
    for enh in Enhancements::paper_variants() {
        let r = run_variant(TopologySpec::Clique(6), EventKind::TDown, enh, 6);
        let t = r.record.total_stats();
        if !enh.ghost_flushing {
            assert_eq!(t.ghost_flushes, 0, "{}", enh.label());
        }
        if !enh.assertion {
            assert_eq!(t.assertion_removals, 0, "{}", enh.label());
        }
        if !enh.ssld {
            assert_eq!(t.ssld_conversions, 0, "{}", enh.label());
        }
    }
}

/// All variants converge to the same final routing state — the
/// enhancements change the transient, not the fixed point.
#[test]
fn all_variants_reach_the_same_fixed_point() {
    let (g, layout) = generators::bclique(5);
    let mut g2 = g.clone();
    g2.remove_edge(layout.destination, layout.core_gateway);
    let oracle = algo::shortest_path_next_hops(&g2, layout.destination);
    for enh in Enhancements::paper_variants() {
        let r = run_variant(TopologySpec::BClique(5), EventKind::TLong, enh, 7);
        for v in g2.nodes() {
            if v == layout.destination {
                continue;
            }
            let got = r
                .record
                .fib
                .current(v, Prefix::new(0))
                .and_then(|e| e.via());
            assert_eq!(
                got,
                oracle[v.index()],
                "{}: wrong fixed point at {v}",
                enh.label()
            );
        }
    }
}
