//! Churn sweep: convergence behavior under repeated link flapping.
//!
//! The paper studies single, clean failure events (`T_down`, `T_long`).
//! This sweep drives the same measurement pipeline through the fault
//! layer instead: the `T_long` link of a B-Clique *flaps* — a seeded
//! down/up train with optional jitter and per-message loss — and the
//! sweep reports how convergence time and looping duration respond as
//! the flap period grows, alongside the churn the fault layer injected.
//!
//! All `(period, seed)` runs go to the global [`bgpsim-runner`]
//! executor as one batch, so the sweep is parallel, cached, and
//! bit-identical for any worker count.

use bgpsim_metrics::ChurnSummary;
use bgpsim_netsim::time::SimDuration;
use bgpsim_sim::FlapProfile;

use crate::chart::render_columns;
use crate::figures::Scale;
use crate::scenario::{EventKind, Scenario, TopologySpec};
use crate::sweep::{aggregate, AggregatedPoint};

/// Knobs of the churn sweep, layered on the scale's defaults by the
/// `churn` binary flags.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOptions {
    /// Flap periods (seconds) to sweep; `None` uses the scale's range.
    pub periods: Option<Vec<u64>>,
    /// Down/up cycles per run.
    pub count: u32,
    /// Jitter fraction in `[0, 0.5]` applied to each flap edge.
    pub jitter: f64,
    /// Per-message loss probability on the flapping link.
    pub loss: f64,
    /// Seeds to run; `None` uses the scale's seed set.
    pub seeds: Option<Vec<u64>>,
}

impl Default for ChurnOptions {
    fn default() -> Self {
        ChurnOptions {
            periods: None,
            count: 3,
            jitter: 0.0,
            loss: 0.0,
            seeds: None,
        }
    }
}

/// The flap periods (seconds) swept at a scale.
pub fn default_periods(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => vec![4, 8, 16],
        Scale::Paper => vec![2, 4, 8, 16, 32, 64],
    }
}

/// One row of the churn sweep: the aggregated paper metrics at a flap
/// period, plus the churn injected into the first seed's run (the
/// plan is identical across seeds; only jittered edges and loss draws
/// vary per seed).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPoint {
    /// Aggregated paper metrics; `x` is the flap period in seconds.
    pub point: AggregatedPoint,
    /// Churn counters of the first seed's run.
    pub churn: ChurnSummary,
}

/// The churn sweep's results.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSweep {
    /// One row per flap period.
    pub rows: Vec<ChurnPoint>,
    /// The B-Clique size parameter used.
    pub bclique_n: usize,
    /// The resolved sweep knobs.
    pub options: ChurnOptions,
}

/// The scenario for one `(period, seed)` cell.
fn cell_scenario(n: usize, period: u64, opts: &ChurnOptions, seed: u64) -> Scenario {
    Scenario::new(TopologySpec::BClique(n), EventKind::Flap)
        .with_flap(FlapProfile {
            period: SimDuration::from_secs(period),
            count: opts.count,
            jitter: opts.jitter,
            loss: opts.loss,
        })
        .with_seed(seed)
}

/// Runs the churn sweep at the given scale.
pub fn run(scale: Scale, options: &ChurnOptions) -> ChurnSweep {
    let periods = options
        .periods
        .clone()
        .unwrap_or_else(|| default_periods(scale));
    let seeds = options.seeds.clone().unwrap_or_else(|| scale.seeds());
    assert!(!seeds.is_empty(), "churn sweep needs at least one seed");
    let bclique_n = scale.fixed_bclique();
    let jobs = periods
        .iter()
        .flat_map(|&period| {
            seeds
                .iter()
                .map(move |&seed| cell_scenario(bclique_n, period, options, seed).into_job())
        })
        .collect();
    let flat = bgpsim_runner::global()
        .run_jobs(jobs)
        .expect("churn sweep job failed");
    // The cached runner path only carries paper metrics, so the churn
    // counters come from one deterministic local replay per period.
    let rows = flat
        .chunks(seeds.len())
        .zip(&periods)
        .map(|(metrics, &period)| {
            let churn = cell_scenario(bclique_n, period, options, seeds[0])
                .run()
                .measurement
                .churn;
            ChurnPoint {
                point: aggregate(period as f64, metrics).expect("at least one seed per cell"),
                churn,
            }
        })
        .collect();
    ChurnSweep {
        rows,
        bclique_n,
        options: ChurnOptions {
            periods: Some(periods),
            seeds: Some(seeds),
            ..options.clone()
        },
    }
}

impl ChurnSweep {
    /// Renders the sweep as a deterministic text table.
    pub fn render(&self) -> String {
        let points: Vec<AggregatedPoint> = self.rows.iter().map(|r| r.point).collect();
        let cols: &[crate::chart::Column<'_>] = &[
            ("convergence_s", &|p: &AggregatedPoint| p.convergence_secs),
            ("looping_s", &|p: &AggregatedPoint| p.looping_secs),
            ("ttl_exhaust", &|p: &AggregatedPoint| p.ttl_exhaustions),
            ("messages", &|p: &AggregatedPoint| p.messages),
        ];
        let mut out = render_columns(
            &format!(
                "Churn: Flap on B-Clique-{} T_long link — {} cycles, jitter {}, loss {}",
                self.bclique_n, self.options.count, self.options.jitter, self.options.loss,
            ),
            "period_s",
            &points,
            cols,
            1,
        );
        out.push('\n');
        out.push_str("## Injected churn (first seed)\n");
        out.push_str(&format!(
            "{:>10} {:>14} {:>14} {:>14}\n",
            "period_s", "faults", "resets", "msgs_lost"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:>10} {:>14} {:>14} {:>14}\n",
                row.point.x,
                row.churn.faults_injected,
                row.churn.session_resets,
                row.churn.messages_lost
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_runs_and_reports_churn() {
        let options = ChurnOptions {
            periods: Some(vec![30]),
            count: 2,
            seeds: Some(vec![1]),
            ..Default::default()
        };
        let sweep = run(Scale::Quick, &options);
        assert_eq!(sweep.rows.len(), 1);
        let row = &sweep.rows[0];
        assert_eq!(row.churn.faults_injected, 4, "2 cycles = 2 downs + 2 ups");
        assert_eq!(row.churn.session_resets, 0);
        assert!(row.point.convergence_secs > 0.0);
        let text = sweep.render();
        assert!(text.contains("Injected churn"), "{text}");
    }

    #[test]
    fn sweep_is_deterministic() {
        let options = ChurnOptions {
            periods: Some(vec![20]),
            count: 2,
            jitter: 0.2,
            loss: 0.3,
            seeds: Some(vec![1, 2]),
        };
        let a = run(Scale::Quick, &options);
        let b = run(Scale::Quick, &options);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }
}
