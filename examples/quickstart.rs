//! Quickstart: reproduce the paper's headline phenomenon.
//!
//! BGP carries full AS paths ("path-based poison reverse"), yet a
//! simple destination withdrawal in a 15-node clique sends the
//! majority of in-flight packets around transient forwarding loops
//! for minutes.
//!
//! Run with: `cargo run --release --example quickstart`

use bgpsim::prelude::*;

fn main() {
    // The paper's standard setup: full-mesh topology, destination at
    // node 0, MRAI 30 s with SSFNet jitter, 10 pkt/s per source.
    let result = ScenarioSpec::new(TopologySpec::Clique(15), EventKind::TDown)
        .with_seed(2004)
        .run();

    let m = &result.measurement.metrics;
    println!(
        "T_down on a 15-node clique (destination {}):",
        result.destination
    );
    println!(
        "  convergence time        : {:>8.1} s",
        m.convergence_secs()
    );
    println!("  overall looping duration: {:>8.1} s", m.looping_secs());
    println!("  TTL exhaustions         : {:>8}", m.ttl_exhaustions);
    println!(
        "  packets during converg. : {:>8}",
        m.packets_during_convergence
    );
    println!("  looping ratio           : {:>8.2}", m.looping_ratio);
    println!(
        "  BGP messages sent       : {:>8}",
        m.messages_after_failure
    );

    let census = &result.measurement.census_summary;
    println!("\nloop census (the paper's proposed future work):");
    println!("  distinct loop episodes  : {:>8}", census.count);
    println!(
        "  loop sizes              : {} – {} nodes",
        census.min_size, census.max_size
    );
    println!(
        "  2-node loop share       : {:>8.2}",
        census.two_node_fraction
    );
    println!(
        "  mean loop lifetime      : {:>8.1} s",
        census.mean_duration.as_secs_f64()
    );

    assert!(m.looping_ratio > 0.5, "the majority of packets should loop");
    println!("\npath-vector routing does NOT prevent transient loops — QED.");
}
