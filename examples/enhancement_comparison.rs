//! Side-by-side comparison of the paper's four convergence
//! enhancements (§5) against standard BGP on one topology — the
//! paper's "first comparative simulation study" in a single command.
//!
//! Run with:
//! `cargo run --release --example enhancement_comparison [clique|bclique|internet]`

use bgpsim::prelude::*;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "internet".into());
    let (spec, event) = match which.as_str() {
        "clique" => (TopologySpec::Clique(15), EventKind::TDown),
        "bclique" => (TopologySpec::BClique(10), EventKind::TLong),
        "internet" => (
            TopologySpec::InternetLike {
                n: 48,
                topo_seed: 1,
            },
            EventKind::TDown,
        ),
        other => {
            eprintln!("unknown topology {other:?}; use clique, bclique or internet");
            std::process::exit(2);
        }
    };
    println!(
        "comparing protocol variants on {} under {}  (seeds 1–3)\n",
        spec.label(),
        event.label()
    );
    println!(
        "{:<11} {:>12} {:>12} {:>14} {:>12} {:>10}",
        "variant", "conv_s", "looping_s", "ttl_exhausted", "ratio", "messages"
    );

    let mut baseline_exh = None;
    for enh in Enhancements::paper_variants() {
        let seeds = [1u64, 2, 3];
        let mut conv = 0.0;
        let mut lop = 0.0;
        let mut exh = 0.0;
        let mut ratio = 0.0;
        let mut msgs = 0.0;
        for &seed in &seeds {
            let result = ScenarioSpec::new(spec.clone(), event)
                .with_config(BgpConfig::default().with_enhancements(enh))
                .with_seed(seed)
                .run();
            let m = result.measurement.metrics;
            conv += m.convergence_secs();
            lop += m.looping_secs();
            exh += m.ttl_exhaustions as f64;
            ratio += m.looping_ratio;
            msgs += m.messages_after_failure as f64;
        }
        let n = seeds.len() as f64;
        let (conv, lop, exh, ratio, msgs) = (conv / n, lop / n, exh / n, ratio / n, msgs / n);
        let norm = match baseline_exh {
            None => {
                baseline_exh = Some(exh);
                "1.00×".to_string()
            }
            Some(base) if base > 0.0 => format!("{:.2}×", exh / base),
            Some(_) => "-".to_string(),
        };
        println!(
            "{:<11} {:>12.1} {:>12.1} {:>8.0} {:>5} {:>12.3} {:>10.0}",
            enh.label(),
            conv,
            lop,
            exh,
            norm,
            ratio,
            msgs
        );
    }
    println!(
        "\npaper's Observation 3: Assertion and Ghost Flushing are effective;\n\
         SSLD is modest; WRATE is the least effective (and harmful on the\n\
         paper's Internet-derived graphs)."
    );
}
