//! **Supplementary experiments** (not paper figures): the MRAI
//! (in)sensitivity of the enhancements, and the three ablations the
//! reproduction rests on.
//!
//! The paper's analysis (§3.2, §5) implies a sharp corollary it never
//! plots: standard BGP's looping scales with the MRAI timer because
//! loop-resolving *announcements* are MRAI-delayed — but Ghost
//! Flushing resolves loops with *withdrawals*, which are never
//! delayed, and Assertion prevents the loops outright. So under those
//! two enhancements, looping should be nearly **flat in MRAI** while
//! standard BGP grows linearly. This module measures exactly that.
//!
//! The ablations ([`crate::ablation`]) each remove one modelling
//! ingredient: MRAI jitter, the paper's heavy processing delay (§5
//! footnote 5), and policy-free shortest-path routing.

use crate::ablation::{
    jitter_ablation, policy_ablation, processing_delay_ablation, render_rows, AblationRow,
};
use crate::figures::common::mrai_sweep;
use crate::figures::{ClaimCheck, Scale};
use crate::scenario::{EventKind, TopologySpec};
use crate::sweep::{linear_fit, Series};
use bgpsim_core::Enhancements;

/// The supplementary sweeps: looping duration vs MRAI per variant, and
/// the ablation rows.
#[derive(Debug, Clone)]
pub struct Supplement {
    /// One series per protocol variant over the MRAI sweep.
    pub variants: Vec<Series>,
    /// The clique size of the MRAI sweep and the jitter ablation.
    pub clique_n: usize,
    /// MRAI jitter on, then off.
    pub jitter: Vec<AblationRow>,
    /// The clique size of the processing-delay ablation.
    pub proc_clique_n: usize,
    /// BGP and Ghost Flushing under heavy, then light, processing delay.
    pub processing: Vec<AblationRow>,
    /// The Internet-like graph size of the policy ablation.
    pub internet_n: usize,
    /// Shortest-path, then Gao–Rexford.
    pub policy: Vec<AblationRow>,
}

/// Runs the supplementary sweeps at the given scale.
pub fn run(scale: Scale) -> Supplement {
    let seeds = scale.seeds();
    let mrai = scale.mrai_values();
    let clique_n = scale.fixed_clique();
    let (proc_clique_n, internet_n) = match scale {
        Scale::Quick => (10, 29),
        Scale::Paper => (20, 48),
    };
    let variants = Enhancements::paper_variants()
        .iter()
        .map(|&enh| {
            let mut s = Series::new(enh.label());
            s.points = mrai_sweep(
                &mrai,
                &TopologySpec::Clique(clique_n),
                EventKind::TDown,
                enh,
                &seeds,
            );
            s
        })
        .collect();
    Supplement {
        variants,
        clique_n,
        jitter: jitter_ablation(clique_n, &seeds),
        proc_clique_n,
        processing: processing_delay_ablation(proc_clique_n, &seeds),
        internet_n,
        policy: policy_ablation(internet_n, &seeds),
    }
}

impl Supplement {
    /// Renders the looping-duration table (one column per variant),
    /// then one table per ablation.
    pub fn render(&self) -> String {
        let mut out = crate::chart::render_table(
            &format!(
                "Supplement: T_down Clique-{} — looping duration (s) vs MRAI, per variant",
                self.clique_n
            ),
            "mrai_s",
            &self.variants,
            |p| p.looping_secs,
            1,
        );
        for (title, rows) in [
            (
                format!("MRAI jitter ablation (clique-{} T_down)", self.clique_n),
                &self.jitter,
            ),
            (
                format!(
                    "Processing-delay ablation (clique-{} T_down) — paper §5 footnote 5",
                    self.proc_clique_n
                ),
                &self.processing,
            ),
            (
                format!(
                    "Routing-policy ablation (internet-{} T_down)",
                    self.internet_n
                ),
                &self.policy,
            ),
        ] {
            out.push('\n');
            out.push_str(&render_rows(&title, rows));
        }
        out
    }

    /// Renders the MRAI sweep data as CSV.
    pub fn csv(&self) -> String {
        crate::artifact::series_csv("supplement-mrai", &self.variants)
    }

    /// The MRAI slope (seconds of looping per second of MRAI) of one
    /// variant, with its correlation coefficient.
    pub fn slope_of(&self, label: &str) -> Option<(f64, f64)> {
        let s = self.variants.iter().find(|s| s.label == label)?;
        let xs: Vec<f64> = s.points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = s.points.iter().map(|p| p.looping_secs).collect();
        linear_fit(&xs, &ys).map(|f| (f.slope, f.r))
    }

    /// Checks the corollary — BGP's looping grows steeply with MRAI;
    /// Ghost Flushing's and Assertion's stay nearly flat — and each
    /// ablation's finding.
    pub fn claims(&self) -> Vec<ClaimCheck> {
        let mut checks = Vec::new();
        if let Some((bgp_slope, bgp_r)) = self.slope_of("BGP") {
            checks.push(ClaimCheck {
                claim: "standard BGP looping duration grows linearly with MRAI \
                        (Observation 1)"
                    .into(),
                measured: format!("slope {bgp_slope:.2} s/s, r = {bgp_r:.3}"),
                pass: bgp_slope > 1.0 && bgp_r > 0.95,
            });
            for variant in ["GhostFlush", "Assertion"] {
                if let Some((slope, _)) = self.slope_of(variant) {
                    checks.push(ClaimCheck {
                        claim: format!(
                            "{variant} looping is (nearly) MRAI-invariant — its \
                             loop resolution does not ride on MRAI-delayed \
                             announcements"
                        ),
                        measured: format!("slope {slope:.3} s/s vs BGP {bgp_slope:.2} s/s"),
                        pass: slope.abs() < 0.15 * bgp_slope,
                    });
                }
            }
        }
        if let [jittered, unjittered] = self.jitter.as_slice() {
            checks.push(ClaimCheck {
                claim: "without MRAI jitter the update rounds synchronize and the \
                        clique converges more slowly"
                    .into(),
                measured: format!(
                    "{:.1} s unjittered vs {:.1} s jittered",
                    unjittered.convergence_secs, jittered.convergence_secs
                ),
                pass: jittered.convergence_secs > 0.0
                    && unjittered.convergence_secs > jittered.convergence_secs,
            });
        }
        if let [bgp_heavy, gf_heavy, bgp_light, gf_light] = self.processing.as_slice() {
            checks.push(ClaimCheck {
                claim: "under the paper's heavy processing delay Ghost Flushing still \
                        removes most TTL exhaustions"
                    .into(),
                measured: format!(
                    "{:.0} vs BGP {:.0} exhaustions",
                    gf_heavy.ttl_exhaustions, bgp_heavy.ttl_exhaustions
                ),
                pass: gf_heavy.ttl_exhaustions < 0.3 * bgp_heavy.ttl_exhaustions,
            });
            checks.push(ClaimCheck {
                claim: "with light processing delay Ghost Flushing converges in a \
                        fraction of BGP's time: its clique slowdown is queueing at \
                        the serial processors (§5 footnote 5)"
                    .into(),
                measured: format!(
                    "{:.1} s vs BGP {:.1} s",
                    gf_light.convergence_secs, bgp_light.convergence_secs
                ),
                pass: gf_light.convergence_secs < 0.3 * bgp_light.convergence_secs,
            });
        }
        if let [shortest, gao] = self.policy.as_slice() {
            checks.push(ClaimCheck {
                claim: "Gao–Rexford export filtering collapses T_down path exploration".into(),
                measured: format!(
                    "{:.1} s vs shortest-path {:.1} s",
                    gao.convergence_secs, shortest.convergence_secs
                ),
                pass: gao.convergence_secs < 0.3 * shortest.convergence_secs,
            });
            checks.push(ClaimCheck {
                claim: "Gao–Rexford loops no more than shortest-path routing".into(),
                measured: format!(
                    "{:.0} vs shortest-path {:.0} exhaustions",
                    gao.ttl_exhaustions, shortest.ttl_exhaustions
                ),
                pass: gao.ttl_exhaustions <= shortest.ttl_exhaustions,
            });
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_every_claim_passes() {
        let sup = run(Scale::Quick);
        assert_eq!(sup.variants.len(), 5);
        let text = sup.render();
        assert!(text.contains("Supplement"));
        assert!(text.contains("Routing-policy ablation"));
        assert!(sup.csv().contains("supplement-mrai-BGP"));
        let claims = sup.claims();
        assert_eq!(
            claims.len(),
            8,
            "three MRAI claims and five ablation claims"
        );
        for check in claims {
            assert!(check.pass, "{}", check.render());
        }
    }
}
