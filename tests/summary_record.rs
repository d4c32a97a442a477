//! The summary record is the full record minus its logs.
//!
//! Jobs run under the `()` recorder, which keeps no send or
//! route-change log; every metric must therefore read only the summary
//! both recorders fill. Over random connected graphs, every failure
//! class the sweeps run and the five protocol variants, the summary
//! record equals the full one with `sends` and `path_changes` emptied,
//! and measuring either gives the same result.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn summary_record_is_the_full_record_minus_its_logs(
        n in 3usize..13,
        p in 0.3f64..0.9,
        seed in 0u64..1000,
        event in 0u8..3,
        variant in 0usize..5,
        mrai in 1u64..31,
    ) {
        let g = connected_gnp(n, p, seed);
        let dest = NodeId::new((seed % n as u64) as u32);
        let peer = g.neighbors(dest).next().expect("a connected graph has no isolated node");
        let prefix = Prefix::new(0);
        let config = BgpConfig::default()
            .with_mrai(SimDuration::from_secs(mrai))
            .with_enhancements(Enhancements::paper_variants()[variant]);
        let failure = match event {
            0 => FailureEvent::WithdrawPrefix { origin: dest, prefix },
            _ => FailureEvent::LinkDown { a: dest, b: peer },
        };
        let mut experiment = ConvergenceExperiment::new(g, dest, failure)
            .with_config(config)
            .with_seed(seed);
        if event == 2 {
            experiment = experiment.with_faults(FaultPlan::new().flap(
                FlapTrain::new(dest, peer)
                    .with_period(SimDuration::from_secs(mrai * 2))
                    .with_count(2),
            ));
        }
        let budget = RunBudget::unlimited();
        let full = experiment.run_budgeted::<FullLog>(&budget).expect("converges");
        let summary = experiment.run_budgeted::<()>(&budget).expect("converges");
        prop_assert!(!full.sends.is_empty());
        prop_assert!(summary.sends.is_empty() && summary.path_changes.is_empty());
        let fail = full.failure_at.expect("a failure fired");
        let scanned = full.sends.iter().filter(|s| s.at >= fail).count() as u64;
        prop_assert_eq!(full.sends_after_failure, scanned);
        prop_assert_eq!(full.last_send, full.sends.last().map(|s| s.at));
        let logless = RunRecord {
            sends: Vec::new(),
            path_changes: Vec::new(),
            ..full.clone()
        };
        prop_assert_eq!(&summary, &logless);
        prop_assert_eq!(
            measure_run(&summary, dest, prefix, seed),
            measure_run(&full, dest, prefix, seed)
        );
    }
}
