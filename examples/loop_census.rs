//! Per-loop statistics — the paper's §6 "next step" ("measure the
//! statistics of individual loops such as the loop size and duration")
//! implemented over an Internet-like `T_down` run.
//!
//! Run with: `cargo run --release --example loop_census [n] [seed]`

use bgpsim::prelude::*;
use std::collections::BTreeMap;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(75);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);

    let result = ScenarioSpec::new(
        TopologySpec::InternetLike { n, topo_seed: seed },
        EventKind::TDown,
    )
    .with_seed(seed)
    .run();

    let census = &result.measurement.census;
    let summary = &result.measurement.census_summary;
    println!(
        "T_down on internet-{n} (seed {seed}): {} loop episodes over {:.1}s of convergence\n",
        census.len(),
        result.measurement.metrics.convergence_secs()
    );

    // Size histogram.
    let mut by_size: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for rec in census {
        by_size
            .entry(rec.size())
            .or_default()
            .push(rec.duration().map_or(f64::NAN, |d| d.as_secs_f64()));
    }
    println!(
        "{:>6} {:>8} {:>14} {:>14}",
        "size", "count", "mean_life_s", "max_life_s"
    );
    for (size, durations) in &by_size {
        let resolved: Vec<f64> = durations
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .collect();
        let mean = if resolved.is_empty() {
            0.0
        } else {
            resolved.iter().sum::<f64>() / resolved.len() as f64
        };
        let max = resolved.iter().copied().fold(0.0, f64::max);
        println!(
            "{:>6} {:>8} {:>14.2} {:>14.2}",
            size,
            durations.len(),
            mean,
            max
        );
    }

    println!(
        "\n2-node loops: {:.0}% of all episodes (Hengartner et al. measured \
         \"more than half\" in a real backbone)",
        summary.two_node_fraction * 100.0
    );
    println!(
        "longest-lived loop: {:.1}s — the paper's worst-case bound for an \
         m-node loop is (m-1) x MRAI = (m-1) x 30s",
        summary.max_duration.as_secs_f64()
    );
}
