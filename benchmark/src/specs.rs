//! The scenario list of the paper sweep, rebuilt from the public
//! scale accessors, and the check that proves it is the list the
//! figure modules really run.

use std::collections::{BTreeMap, BTreeSet};

use bgpsim_core::Enhancements;
use bgpsim_experiments::figures::common::{config_with_mrai, Cell};
use bgpsim_experiments::{EventKind, Scale, ScenarioSpec, TopologySpec};

fn internet(n: usize) -> TopologySpec {
    TopologySpec::InternetLike { n, topo_seed: 0 }
}

fn size_cells(
    sizes: &[usize],
    make: fn(usize) -> TopologySpec,
    event: EventKind,
    enh: Enhancements,
) -> Vec<Cell> {
    sizes
        .iter()
        .map(|&n| Cell {
            x: n as f64,
            spec: make(n),
            event,
            config: config_with_mrai(30, enh),
        })
        .collect()
}

fn mrai_cells(mrai: &[u64], spec: TopologySpec, event: EventKind) -> Vec<Cell> {
    mrai.iter()
        .map(|&m| Cell {
            x: m as f64,
            spec: spec.clone(),
            event,
            config: config_with_mrai(m, Enhancements::standard()),
        })
        .collect()
}

fn variant_cells(sizes: &[usize], make: fn(usize) -> TopologySpec, event: EventKind) -> Vec<Cell> {
    Enhancements::paper_variants()
        .into_iter()
        .flat_map(|enh| size_cells(sizes, make, event, enh))
        .collect()
}

/// Every sweep cell of Figures 4–9 at `scale`, in the order the figure
/// modules submit them.
pub fn figure_cells(scale: Scale) -> Vec<Cell> {
    let standard = Enhancements::standard();
    let cliques = scale.clique_sizes();
    let bcliques = scale.bclique_sizes();
    let internets = scale.internet_sizes();
    let mrai = scale.mrai_values();
    let size_figure = || {
        let mut cells = size_cells(&cliques, TopologySpec::Clique, EventKind::TDown, standard);
        cells.extend(size_cells(
            &bcliques,
            TopologySpec::BClique,
            EventKind::TLong,
            standard,
        ));
        cells.extend(size_cells(&internets, internet, EventKind::TDown, standard));
        cells
    };
    let mrai_figure = || {
        let mut cells = mrai_cells(
            &mrai,
            TopologySpec::Clique(scale.fixed_clique()),
            EventKind::TDown,
        );
        cells.extend(mrai_cells(
            &mrai,
            TopologySpec::BClique(scale.fixed_bclique()),
            EventKind::TLong,
        ));
        cells
    };
    let mut cells = size_figure(); // Figure 4
    cells.extend(mrai_figure()); // Figure 5
    cells.extend(size_figure()); // Figure 6
    cells.extend(mrai_figure()); // Figure 7
    cells.extend(variant_cells(
        &cliques,
        TopologySpec::Clique,
        EventKind::TDown,
    )); // Figure 8
    cells.extend(variant_cells(&internets, internet, EventKind::TDown));
    cells.extend(variant_cells(
        &bcliques,
        TopologySpec::BClique,
        EventKind::TLong,
    )); // Figure 9
    cells.extend(variant_cells(&internets, internet, EventKind::TLong));
    cells
}

/// The sweep's runs: every cell at every seed of the scale.
pub fn figure_specs(scale: Scale) -> Vec<ScenarioSpec> {
    let seeds = scale.seeds();
    figure_cells(scale)
        .iter()
        .flat_map(|cell| seeds.iter().map(|&seed| cell.scenario(seed)))
        .collect()
}

/// How often each fingerprint occurs.
pub fn multiset<I: IntoIterator<Item = String>>(fingerprints: I) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for fp in fingerprints {
        *counts.entry(fp).or_insert(0) += 1;
    }
    counts
}

/// The share of runs that repeat a scenario another run already covers.
pub fn duplicate_share(counts: &BTreeMap<String, usize>) -> f64 {
    let total: usize = counts.values().sum();
    if total == 0 {
        return 0.0;
    }
    1.0 - counts.len() as f64 / total as f64
}

/// Compares two fingerprint multisets; on mismatch names the first few
/// fingerprints whose counts differ.
pub fn match_multisets(
    ours: &BTreeMap<String, usize>,
    theirs: &BTreeMap<String, usize>,
) -> Result<(), String> {
    let keys: BTreeSet<&String> = ours.keys().chain(theirs.keys()).collect();
    let count = |set: &BTreeMap<String, usize>, key| set.get(key).copied().unwrap_or(0);
    let diffs: Vec<(&String, usize, usize)> = keys
        .into_iter()
        .map(|key| (key, count(ours, key), count(theirs, key)))
        .filter(|(_, a, b)| a != b)
        .collect();
    if diffs.is_empty() {
        return Ok(());
    }
    let shown: Vec<String> = diffs
        .iter()
        .take(3)
        .map(|(k, a, b)| format!("{k}: rebuilt {a}, journal {b}"))
        .collect();
    Err(format!(
        "{} fingerprints differ; {}",
        diffs.len(),
        shown.join("; ")
    ))
}

/// The fingerprints of the `job_done` lines of a runner journal.
pub fn journal_fingerprints(journal: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for line in journal.lines().filter(|l| !l.trim().is_empty()) {
        let v: serde::Value =
            serde_json::from_str(line).map_err(|e| format!("bad journal line: {e}"))?;
        let event = serde::value::field(&v, "event")
            .ok()
            .and_then(|e| e.as_str());
        if event != Some("job_done") {
            continue;
        }
        let fp = serde::value::field(&v, "fingerprint")
            .ok()
            .and_then(|f| f.as_str())
            .ok_or("job_done line without a fingerprint")?;
        out.push(fp.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_805_runs_over_555_scenarios() {
        let specs = figure_specs(Scale::Paper);
        assert_eq!(specs.len(), 805);
        let counts = multiset(specs.iter().map(ScenarioSpec::fingerprint));
        assert_eq!(counts.len(), 555);
        assert!((duplicate_share(&counts) - (1.0 - 555.0 / 805.0)).abs() < 1e-12);
    }

    #[test]
    fn multisets_match_regardless_of_order_and_report_differences() {
        let a = multiset(["x", "y", "x"].map(String::from));
        let b = multiset(["y", "x", "x"].map(String::from));
        assert_eq!(match_multisets(&a, &b), Ok(()));
        let c = multiset(["x", "y", "z"].map(String::from));
        let err = match_multisets(&a, &c).unwrap_err();
        assert!(err.starts_with("2 fingerprints differ"), "{err}");
        assert!(err.contains("x: rebuilt 2, journal 1"), "{err}");
        assert_eq!(duplicate_share(&multiset(Vec::new())), 0.0);
    }

    #[test]
    fn journal_reader_keeps_only_completions() {
        let journal = concat!(
            "{\"event\":\"job_started\",\"label\":\"a\",\"fingerprint\":\"f1\"}\n",
            "{\"event\":\"job_done\",\"label\":\"a\",\"fingerprint\":\"f1\",\"cached\":false}\n",
            "\n",
            "{\"event\":\"job_done\",\"label\":\"b\",\"fingerprint\":\"f2\",\"cached\":true}\n",
        );
        assert_eq!(journal_fingerprints(journal).unwrap(), vec!["f1", "f2"]);
        assert!(journal_fingerprints("{not json").is_err());
    }
}
