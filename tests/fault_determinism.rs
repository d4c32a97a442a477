//! Randomized invariants of the fault-injection layer.
//!
//! The fault layer must be a *conservative extension* of the clean
//! failure harness: expressing the paper's single failure as a
//! one-event `FaultPlan` reproduces the plain run record-for-record,
//! and any `(seed, plan)` pair — jitter and message loss included — is
//! exactly reproducible.

use bgpsim::netsim::rng::SimRng;
use bgpsim::netsim::time::SimDuration;
use bgpsim::prelude::*;
use proptest::prelude::*;

/// A connected random graph (retry over seeds until connected).
fn connected_gnp(n: usize, p: f64, seed: u64) -> Graph {
    for attempt in 0..50 {
        let g = generators::random_gnp(n, p, &mut SimRng::new(seed + attempt * 1000));
        if algo::is_connected(&g) {
            return g;
        }
    }
    generators::ring(n.max(3))
}

/// Asserts that two runs took the same control-plane trajectory and
/// measured the same paper metrics.
macro_rules! assert_same_run {
    ($a:expr, $b:expr) => {{
        prop_assert_eq!(&$a.record.sends, &$b.record.sends);
        prop_assert_eq!($a.record.failure_at, $b.record.failure_at);
        prop_assert_eq!($a.record.quiescent_at, $b.record.quiescent_at);
        prop_assert_eq!(&$a.record.path_changes, &$b.record.path_changes);
        prop_assert_eq!($a.record.events_dispatched, $b.record.events_dispatched);
        prop_assert_eq!($a.record.max_queue_depth, $b.record.max_queue_depth);
        prop_assert_eq!(&$a.measurement.metrics, &$b.measurement.metrics);
        prop_assert_eq!(&$a.measurement.census, &$b.measurement.census);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A plan holding only `withdraw(0, dest, prefix)` is the plain
    /// `T_down` run, record-for-record — the fault path adds no hidden
    /// RNG draws and fires from the same anchor beat.
    #[test]
    fn fault_withdraw_reproduces_plain_tdown(
        n in 4usize..10,
        p in 0.4f64..0.9,
        seed in 0u64..200,
        mrai in 1u64..15,
    ) {
        let g = connected_gnp(n, p, seed);
        let dest = NodeId::new((seed % n as u64) as u32);
        let base = ScenarioSpec::new(
            TopologySpec::Custom { graph: g, destination: dest },
            EventKind::TDown,
        )
        .with_config(BgpConfig::default().with_mrai(SimDuration::from_secs(mrai)))
        .with_seed(seed);
        let plain = base.clone().run();
        let planned = base
            .with_faults(FaultPlan::new().withdraw(SimDuration::ZERO, dest, Prefix::new(0)))
            .run();
        assert_same_run!(plain, planned);
        prop_assert_eq!(plain.record.faults_injected, 0);
        prop_assert_eq!(planned.record.faults_injected, 1);
        prop_assert_eq!(planned.record.messages_lost, 0, "no loss model installed");
    }

    /// A plan holding only `link_down(0, a, b)` on the `T_long` link is
    /// the plain `T_long` run, record-for-record.
    #[test]
    fn fault_link_down_reproduces_plain_tlong(
        n in 3usize..7,
        seed in 0u64..200,
        mrai in 1u64..15,
    ) {
        let base = ScenarioSpec::new(TopologySpec::BClique(n), EventKind::TLong)
            .with_config(BgpConfig::default().with_mrai(SimDuration::from_secs(mrai)))
            .with_seed(seed);
        let plain = base.clone().run();
        let planned = base
            .with_faults(FaultPlan::new().link_down(
                SimDuration::ZERO,
                NodeId::new(0),
                NodeId::new(n as u32),
            ))
            .run();
        assert_same_run!(plain, planned);
        prop_assert_eq!(planned.record.faults_injected, 1);
    }

    /// Any `(seed, plan)` pair — flap train with jitter plus message
    /// loss — reproduces exactly on a second run, churn included.
    #[test]
    fn same_seed_same_plan_reproduces_exactly(
        n in 3usize..7,
        seed in 0u64..200,
        period in 2u64..30,
        count in 1u32..4,
        jitter_steps in 0u8..5,
        loss_steps in 0u8..6,
    ) {
        let scenario = ScenarioSpec::new(TopologySpec::BClique(n), EventKind::Flap)
            .with_flap(FlapProfile {
                period: SimDuration::from_secs(period),
                count,
                jitter: f64::from(jitter_steps) * 0.1,
                loss: f64::from(loss_steps) * 0.15,
            })
            .with_seed(seed);
        let a = scenario.clone().run();
        let b = scenario.run();
        assert_same_run!(a, b);
        prop_assert_eq!(a.record.faults_injected, b.record.faults_injected);
        prop_assert_eq!(a.record.session_resets, b.record.session_resets);
        prop_assert_eq!(a.record.messages_lost, b.record.messages_lost);
        prop_assert_eq!(
            a.record.faults_injected,
            2 * u64::from(count),
            "every cycle fires one down and one up"
        );
    }
}
