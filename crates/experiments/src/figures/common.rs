//! Shared sweep runners for the figure modules.
//!
//! All sweeps are expressed as batches of [`Cell`]s: the full
//! `cells × seeds` job list is handed to the global
//! [`bgpsim-runner`](bgpsim_runner) executor in one call, so the runs
//! execute in parallel (and hit the run cache) while the results come
//! back in canonical `(cell, seed)` order — aggregation is therefore
//! bit-identical no matter how many workers ran.

use bgpsim_core::{BgpConfig, Enhancements};
use bgpsim_metrics::PaperMetrics;
use bgpsim_netsim::time::SimDuration;

use crate::scenario::{EventKind, ScenarioSpec, TopologySpec};
use crate::sweep::{aggregate, AggregatedPoint, Series};

/// One sweep cell: the x-coordinate of an aggregated point plus the
/// `(topology, event, config)` triple that produces it (run once per
/// seed).
#[derive(Debug, Clone)]
pub struct Cell {
    /// The x-axis value the cell aggregates to (size, MRAI seconds, …).
    pub x: f64,
    /// The topology family and size.
    pub spec: TopologySpec,
    /// `T_down` or `T_long`.
    pub event: EventKind,
    /// Protocol configuration.
    pub config: BgpConfig,
}

impl Cell {
    /// The scenario of this cell at one seed. For Internet-like
    /// topologies the topology seed follows the run seed, so the
    /// topology (and with it the destination and failed link) varies
    /// per repetition, as in the paper's runs over "different
    /// destination ASes and failed links".
    pub fn scenario(&self, seed: u64) -> ScenarioSpec {
        let spec = match &self.spec {
            TopologySpec::InternetLike { n, .. } => TopologySpec::InternetLike {
                n: *n,
                topo_seed: seed,
            },
            other => other.clone(),
        };
        ScenarioSpec::new(spec, self.event)
            .with_config(self.config)
            .with_seed(seed)
    }
}

/// Runs every `(cell, seed)` pair as **one batch** on the global
/// runner and returns the per-cell metrics (`result[i][j]` = cell `i`,
/// seed `j`). This is the single point where experiment sweeps meet
/// the execution subsystem.
pub fn run_cells(cells: &[Cell], seeds: &[u64]) -> Vec<Vec<PaperMetrics>> {
    if seeds.is_empty() {
        return vec![Vec::new(); cells.len()];
    }
    let jobs = cells
        .iter()
        .flat_map(|cell| seeds.iter().map(|&seed| cell.scenario(seed).into_job()))
        .collect();
    let flat = bgpsim_runner::global()
        .run_jobs(jobs)
        .expect("sweep job failed");
    flat.chunks(seeds.len())
        .map(<[PaperMetrics]>::to_vec)
        .collect()
}

/// Aggregates each cell of a batch into one point at its `x`.
pub fn sweep_points(cells: &[Cell], seeds: &[u64]) -> Vec<AggregatedPoint> {
    run_cells(cells, seeds)
        .iter()
        .zip(cells)
        .map(|(metrics, cell)| {
            aggregate(cell.x, metrics).expect("at least one seed per sweep cell")
        })
        .collect()
}

/// Runs one `(topology, event, config)` cell once per seed and returns
/// the per-run metrics (a single-cell [`run_cells`] batch).
pub fn run_cell(
    spec: &TopologySpec,
    event: EventKind,
    config: BgpConfig,
    seeds: &[u64],
) -> Vec<PaperMetrics> {
    run_cells(
        &[Cell {
            x: 0.0,
            spec: spec.clone(),
            event,
            config,
        }],
        seeds,
    )
    .pop()
    .expect("one result row per cell")
}

/// The paper's baseline config with a given MRAI (seconds).
pub fn config_with_mrai(mrai_secs: u64, enh: Enhancements) -> BgpConfig {
    BgpConfig::default()
        .with_mrai(SimDuration::from_secs(mrai_secs))
        .with_enhancements(enh)
}

/// Sweeps `sizes` for one topology family, producing one aggregated
/// point per size. All `sizes × seeds` runs go out as one batch.
pub fn size_sweep<F>(
    sizes: &[usize],
    make_spec: F,
    event: EventKind,
    config: BgpConfig,
    seeds: &[u64],
) -> Vec<AggregatedPoint>
where
    F: Fn(usize) -> TopologySpec,
{
    let cells: Vec<Cell> = sizes
        .iter()
        .map(|&n| Cell {
            x: n as f64,
            spec: make_spec(n),
            event,
            config,
        })
        .collect();
    sweep_points(&cells, seeds)
}

/// Sweeps MRAI values for one fixed topology. All `values × seeds`
/// runs go out as one batch.
pub fn mrai_sweep(
    mrai_values: &[u64],
    spec: &TopologySpec,
    event: EventKind,
    enh: Enhancements,
    seeds: &[u64],
) -> Vec<AggregatedPoint> {
    let cells: Vec<Cell> = mrai_values
        .iter()
        .map(|&m| Cell {
            x: m as f64,
            spec: spec.clone(),
            event,
            config: config_with_mrai(m, enh),
        })
        .collect();
    sweep_points(&cells, seeds)
}

/// Runs the five §5 protocol variants over `sizes`, returning one
/// Series per variant (points carry all metrics). The whole
/// `variants × sizes × seeds` cube goes out as one batch.
pub fn variant_size_sweep<F>(
    sizes: &[usize],
    make_spec: F,
    event: EventKind,
    mrai_secs: u64,
    seeds: &[u64],
) -> Vec<Series>
where
    F: Fn(usize) -> TopologySpec,
{
    let variants = Enhancements::paper_variants();
    let make_spec = &make_spec;
    let cells: Vec<Cell> = variants
        .iter()
        .flat_map(|&enh| {
            sizes.iter().map(move |&n| Cell {
                x: n as f64,
                spec: make_spec(n),
                event,
                config: config_with_mrai(mrai_secs, enh),
            })
        })
        .collect();
    let points = sweep_points(&cells, seeds);
    variants
        .iter()
        .enumerate()
        .map(|(i, enh)| {
            let mut s = Series::new(enh.label());
            s.points = points[i * sizes.len()..(i + 1) * sizes.len()].to_vec();
            s
        })
        .collect()
}

/// Normalizes a metric of each variant series against the "BGP"
/// baseline series at equal x, as in the paper's Figures 8(a)/9(a):
/// returns `(variant label, Vec<(x, variant/baseline)>)` rows.
/// Points where the baseline is zero are skipped.
pub fn normalize_to_baseline<F>(series: &[Series], metric: F) -> Vec<(String, Vec<(f64, f64)>)>
where
    F: Fn(&AggregatedPoint) -> f64,
{
    let baseline = series
        .iter()
        .find(|s| s.label == "BGP")
        .expect("baseline BGP series present");
    series
        .iter()
        .map(|s| {
            let rows: Vec<(f64, f64)> = s
                .points
                .iter()
                .filter_map(|p| {
                    let base = baseline.at(p.x).map(&metric)?;
                    if base == 0.0 {
                        None
                    } else {
                        Some((p.x, metric(p) / base))
                    }
                })
                .collect();
            (s.label.clone(), rows)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cell_is_deterministic_per_seed() {
        let spec = TopologySpec::Clique(4);
        let cfg = config_with_mrai(5, Enhancements::standard());
        let a = run_cell(&spec, EventKind::TDown, cfg, &[3]);
        let b = run_cell(&spec, EventKind::TDown, cfg, &[3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn internet_cells_vary_topology_with_seed() {
        let spec = TopologySpec::InternetLike {
            n: 29,
            topo_seed: 0,
        };
        let cfg = config_with_mrai(5, Enhancements::standard());
        let ms = run_cell(&spec, EventKind::TDown, cfg, &[1, 2]);
        assert_eq!(ms.len(), 2);
        // Different topologies essentially never produce identical
        // message counts.
        assert_ne!(ms[0].messages_after_failure, ms[1].messages_after_failure);
    }

    #[test]
    fn size_sweep_produces_one_point_per_size() {
        let pts = size_sweep(
            &[3, 4],
            TopologySpec::Clique,
            EventKind::TDown,
            config_with_mrai(5, Enhancements::standard()),
            &[1],
        );
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].x, 3.0);
        assert_eq!(pts[1].x, 4.0);
    }

    #[test]
    fn normalize_to_baseline_divides() {
        use crate::sweep::AggregatedPoint;
        let mk = |label: &str, v: f64| {
            let mut s = Series::new(label);
            s.points = vec![AggregatedPoint {
                x: 5.0,
                runs: 1,
                convergence_secs: v,
                looping_secs: v,
                ttl_exhaustions: v,
                packets_during_convergence: 1.0,
                looping_ratio: 0.0,
                messages: 0.0,
            }];
            s
        };
        let series = vec![mk("BGP", 100.0), mk("SSLD", 80.0)];
        let norm = normalize_to_baseline(&series, |p| p.ttl_exhaustions);
        assert_eq!(norm[0].1[0].1, 1.0);
        assert_eq!(norm[1].1[0].1, 0.8);
    }

    #[test]
    #[should_panic(expected = "baseline BGP series present")]
    fn normalize_requires_baseline() {
        let series = vec![Series::new("SSLD")];
        let _ = normalize_to_baseline(&series, |p| p.x);
    }
}
