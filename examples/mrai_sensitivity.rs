//! The MRAI timer is the dominant factor in transient loop duration
//! (paper §3.2 and Observation 1): convergence time, looping duration
//! and TTL exhaustions all scale linearly with the MRAI value, while
//! the looping ratio stays flat. This example sweeps MRAI and fits
//! lines.
//!
//! Run with: `cargo run --release --example mrai_sensitivity`

use bgpsim::netsim::time::SimDuration;
use bgpsim::prelude::*;
use bgpsim_experiments::linear_fit;

fn main() {
    let mrai_values = [5u64, 10, 15, 20, 25, 30, 40, 50, 60];
    let seeds = [1u64, 2, 3];
    println!(
        "T_down on a 10-node clique, MRAI sweep (mean of {} seeds)\n",
        seeds.len()
    );
    println!(
        "{:>7} {:>12} {:>12} {:>14} {:>10}",
        "mrai_s", "conv_s", "looping_s", "exhaustions", "ratio"
    );

    let mut xs = Vec::new();
    let mut conv_ys = Vec::new();
    let mut loop_ys = Vec::new();
    let mut exh_ys = Vec::new();
    for &mrai in &mrai_values {
        let mut conv = 0.0;
        let mut lop = 0.0;
        let mut exh = 0.0;
        let mut ratio = 0.0;
        for &seed in &seeds {
            let cfg = BgpConfig::default().with_mrai(SimDuration::from_secs(mrai));
            let m = ScenarioSpec::new(TopologySpec::Clique(10), EventKind::TDown)
                .with_config(cfg)
                .with_seed(seed)
                .run()
                .measurement
                .metrics;
            conv += m.convergence_secs();
            lop += m.looping_secs();
            exh += m.ttl_exhaustions as f64;
            ratio += m.looping_ratio;
        }
        let n = seeds.len() as f64;
        println!(
            "{:>7} {:>12.1} {:>12.1} {:>14.0} {:>10.2}",
            mrai,
            conv / n,
            lop / n,
            exh / n,
            ratio / n
        );
        xs.push(mrai as f64);
        conv_ys.push(conv / n);
        loop_ys.push(lop / n);
        exh_ys.push(exh / n);
    }

    println!("\nlinear fits (y = a*x + b):");
    for (label, ys) in [
        ("convergence time", &conv_ys),
        ("looping duration", &loop_ys),
        ("TTL exhaustions ", &exh_ys),
    ] {
        let fit = linear_fit(&xs, ys).expect("enough points");
        println!(
            "  {label}: slope {:>8.2}, intercept {:>8.1}, r = {:.4}",
            fit.slope, fit.intercept, fit.r
        );
        assert!(
            fit.r > 0.95,
            "{label} should be linear in MRAI (Observation 1/2)"
        );
    }
    println!("\nall three scale linearly with MRAI — Observations 1 and 2 hold.");
}
