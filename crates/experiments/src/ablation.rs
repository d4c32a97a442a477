//! Ablation studies of the design choices the paper's results rest on.
//!
//! Three ablations, each isolating one modelling ingredient:
//!
//! * **MRAI jitter** ([`jitter_ablation`]) — SSFNet draws each MRAI
//!   interval from `[0.75 M, M]`; without jitter the clique's update
//!   rounds synchronize into lock-step waves.
//! * **Message processing delay** ([`processing_delay_ablation`]) —
//!   the paper sets processing two orders of magnitude above the link
//!   delay and notes (§5 fn. 5) that Ghost Flushing's advantage erodes
//!   on large cliques *because* flushing withdrawals clog the serial
//!   processors. Shrinking the processing delay restores Ghost
//!   Flushing's full advantage.
//! * **Routing policy** ([`policy_ablation`]) — replacing the paper's
//!   shortest-path policy with Gao–Rexford export filtering removes
//!   most alternative-path knowledge, collapsing `T_down` path
//!   exploration (and with it, looping) on hierarchical topologies.
//!
//! The `supplement` binary ([`crate::figures::supplement`]) runs all
//! three and gates each finding with claim checks.

use bgpsim_core::policy::GaoRexford;
use bgpsim_core::{BgpConfig, Enhancements, Jitter, Prefix};
use bgpsim_metrics::{measure_run, PaperMetrics};
use bgpsim_netsim::time::SimDuration;
use bgpsim_sim::{FailureEvent, SimNetwork, SimParams};
use bgpsim_topology::generators::internet_like_tiered;
use bgpsim_topology::relationships::derive_relationships;
use bgpsim_topology::{algo, NodeId};

use crate::scenario::{EventKind, ScenarioSpec, TopologySpec};

/// One ablation comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The configuration being compared.
    pub label: String,
    /// Mean convergence time (s).
    pub convergence_secs: f64,
    /// Mean TTL exhaustions.
    pub ttl_exhaustions: f64,
    /// Mean messages after the failure.
    pub messages: f64,
}

impl AblationRow {
    fn from_metrics(label: impl Into<String>, ms: &[PaperMetrics]) -> Self {
        let n = ms.len() as f64;
        AblationRow {
            label: label.into(),
            convergence_secs: ms.iter().map(|m| m.convergence_secs()).sum::<f64>() / n,
            ttl_exhaustions: ms.iter().map(|m| m.ttl_exhaustions as f64).sum::<f64>() / n,
            messages: ms
                .iter()
                .map(|m| m.messages_after_failure as f64)
                .sum::<f64>()
                / n,
        }
    }
}

/// Renders ablation rows as an aligned table.
pub fn render_rows(title: &str, rows: &[AblationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("## {title}\n");
    let _ = writeln!(
        out,
        "{:<34} {:>12} {:>14} {:>10}",
        "configuration", "conv_s", "exhaustions", "messages"
    );
    let _ = writeln!(out, "{}", "-".repeat(74));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>12.1} {:>14.0} {:>10.0}",
            r.label, r.convergence_secs, r.ttl_exhaustions, r.messages
        );
    }
    out
}

/// Runs a batch of scenarios through the global runner (parallel,
/// cached) and returns the metrics in submission order.
fn run_scenarios(scenarios: Vec<ScenarioSpec>) -> Vec<PaperMetrics> {
    bgpsim_runner::global()
        .run_jobs(scenarios.into_iter().map(ScenarioSpec::into_job).collect())
        .expect("ablation job failed")
}

/// MRAI jitter on vs off, clique `T_down`. Both configurations run as
/// one batch.
pub fn jitter_ablation(clique_n: usize, seeds: &[u64]) -> Vec<AblationRow> {
    assert!(!seeds.is_empty(), "ablation needs at least one seed");
    let configs = [
        ("jitter [0.75M, M] (SSFNet)", Jitter::SSFNET),
        ("no jitter", Jitter::NONE),
    ];
    let scenarios: Vec<ScenarioSpec> = configs
        .iter()
        .flat_map(|&(_, jitter)| {
            let cfg = BgpConfig::default().with_jitter(jitter);
            seeds.iter().map(move |&seed| {
                ScenarioSpec::new(TopologySpec::Clique(clique_n), EventKind::TDown)
                    .with_config(cfg)
                    .with_seed(seed)
            })
        })
        .collect();
    let ms = run_scenarios(scenarios);
    configs
        .iter()
        .zip(ms.chunks(seeds.len()))
        .map(|(&(label, _), chunk)| AblationRow::from_metrics(label, chunk))
        .collect()
}

/// Ghost Flushing vs standard BGP under the paper's heavy processing
/// delay and under a near-zero one, on a clique large enough for the
/// §5 footnote-5 effect.
pub fn processing_delay_ablation(clique_n: usize, seeds: &[u64]) -> Vec<AblationRow> {
    assert!(!seeds.is_empty(), "ablation needs at least one seed");
    let heavy = SimParams::default(); // U[0.1 s, 0.5 s]
    let light = SimParams {
        proc_delay_lo: SimDuration::from_millis(1),
        proc_delay_hi: SimDuration::from_millis(5),
        ..SimParams::default()
    };
    let mut combos = Vec::new();
    for (p_label, params) in [
        ("heavy proc U[0.1,0.5]s", heavy),
        ("light proc U[1,5]ms", light),
    ] {
        for (e_label, enh) in [
            ("BGP", Enhancements::standard()),
            ("GhostFlush", Enhancements::ghost_flushing()),
        ] {
            combos.push((format!("{e_label:<11} {p_label}"), params, enh));
        }
    }
    // The whole combos × seeds grid is one runner batch; `params` is
    // part of the scenario (and its cache fingerprint).
    let scenarios: Vec<ScenarioSpec> = combos
        .iter()
        .flat_map(|&(_, params, enh)| {
            seeds.iter().map(move |&seed| {
                let mut scenario =
                    ScenarioSpec::new(TopologySpec::Clique(clique_n), EventKind::TDown)
                        .with_config(BgpConfig::default().with_enhancements(enh))
                        .with_seed(seed);
                scenario.params = params;
                scenario
            })
        })
        .collect();
    let ms = run_scenarios(scenarios);
    combos
        .iter()
        .zip(ms.chunks(seeds.len()))
        .map(|((label, _, _), chunk)| AblationRow::from_metrics(label.clone(), chunk))
        .collect()
}

/// Shortest-path (the paper's policy) vs Gao–Rexford on the same
/// Internet-like graphs, `T_down`.
pub fn policy_ablation(n: usize, seeds: &[u64]) -> Vec<AblationRow> {
    assert!(!seeds.is_empty(), "ablation needs at least one seed");
    fn run_policy<P: bgpsim_core::decision::RoutePolicy>(
        mut net: SimNetwork<P>,
        dest: NodeId,
        prefix: Prefix,
        seed: u64,
    ) -> PaperMetrics {
        net.originate(dest, prefix);
        net.run_to_quiescence(200_000_000);
        net.schedule_failure(
            SimDuration::from_secs(1),
            FailureEvent::WithdrawPrefix {
                origin: dest,
                prefix,
            },
        );
        net.run_to_quiescence(200_000_000);
        let record = net.into_record();
        measure_run(&record, dest, prefix, seed).metrics
    }

    // These runs do not go through `ScenarioSpec`, so they carry hand-made
    // fingerprints (deterministic in `(n, seed, policy)`), making them
    // just as cacheable as the figure sweeps.
    let mut jobs = Vec::new();
    for &seed in seeds {
        let (graph, tiers) = internet_like_tiered(n, seed);
        let rels = derive_relationships(&graph, &tiers);
        let dest = *algo::lowest_degree_nodes(&graph)
            .first()
            .expect("nonempty graph");
        let prefix = Prefix::new(0);

        let shortest_graph = graph.clone();
        jobs.push(bgpsim_runner::Job::new(
            format!("policy shortest internet-{n} seed {seed}"),
            Some(format!("ablation/policy/v1|shortest|n={n}|seed={seed}")),
            move |_| {
                Ok(run_policy(
                    SimNetwork::new(
                        &shortest_graph,
                        BgpConfig::default(),
                        SimParams::default(),
                        seed,
                    ),
                    dest,
                    prefix,
                    seed,
                )
                .into())
            },
        ));
        jobs.push(bgpsim_runner::Job::new(
            format!("policy gao-rexford internet-{n} seed {seed}"),
            Some(format!("ablation/policy/v1|gao-rexford|n={n}|seed={seed}")),
            move |_| {
                let net = SimNetwork::with_policies(
                    &graph,
                    BgpConfig::default(),
                    SimParams::default(),
                    seed,
                    move |node: NodeId| GaoRexford::for_node(node, &rels),
                );
                Ok(run_policy(net, dest, prefix, seed).into())
            },
        ));
    }
    let ms = bgpsim_runner::global()
        .run_jobs(jobs)
        .expect("policy-ablation job failed");
    let shortest: Vec<PaperMetrics> = ms.iter().copied().step_by(2).collect();
    let gao: Vec<PaperMetrics> = ms.iter().copied().skip(1).step_by(2).collect();
    vec![
        AblationRow::from_metrics("shortest-path (paper)", &shortest),
        AblationRow::from_metrics("Gao-Rexford policy", &gao),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_rows_have_both_configs() {
        let rows = jitter_ablation(5, &[1]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.convergence_secs > 0.0));
    }

    #[test]
    fn render_is_aligned() {
        let rows = vec![AblationRow {
            label: "x".into(),
            convergence_secs: 1.0,
            ttl_exhaustions: 2.0,
            messages: 3.0,
        }];
        let s = render_rows("demo", &rows);
        assert!(s.contains("demo"));
        assert!(s.contains("conv_s"));
    }
}
