//! Reproduction of every evaluation figure in the paper (Figures 4–9).
//!
//! Each `figN` module runs the corresponding sweep and returns the
//! series the paper plots, renders them as terminal tables/charts, and
//! checks the paper's qualitative claims against the measured data.
//! Figures 1–3 of the paper are illustrations and carry no data.
//!
//! Sweeps run at one of two [`Scale`]s: `Quick` for CI-friendly smoke
//! reproduction (minutes of simulated time), `Paper` for the full
//! parameter ranges of the original evaluation.

pub mod common;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod supplement;

/// Sweep scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes and seed counts; preserves every qualitative
    /// shape. What CI and the tests run.
    Quick,
    /// The paper's parameter ranges (clique 5–30, B-Clique 5–15,
    /// Internet 29–110 nodes, MRAI 5–60 s).
    Paper,
}

impl Scale {
    /// Parses "quick"/"paper" (case-insensitive); `None` otherwise.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Seeds averaged per cell.
    pub fn seeds(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![1, 2],
            Scale::Paper => vec![1, 2, 3, 4, 5],
        }
    }

    /// Clique sizes for the size sweeps.
    pub fn clique_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![4, 6, 8, 10],
            Scale::Paper => vec![5, 10, 15, 20, 25, 30],
        }
    }

    /// B-Clique size parameters (the graph has `2n` nodes).
    pub fn bclique_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![3, 4, 5],
            Scale::Paper => vec![5, 8, 10, 13, 15],
        }
    }

    /// Internet-like sizes (the paper's 29/48/75/110).
    pub fn internet_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![29, 48],
            Scale::Paper => vec![29, 48, 75, 110],
        }
    }

    /// MRAI values (seconds) for the MRAI sweeps.
    pub fn mrai_values(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![5, 15, 30],
            Scale::Paper => vec![5, 10, 15, 20, 25, 30, 40, 50, 60],
        }
    }

    /// The fixed clique size used in MRAI sweeps.
    pub fn fixed_clique(self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Paper => 15,
        }
    }

    /// The fixed B-Clique size used in MRAI sweeps.
    pub fn fixed_bclique(self) -> usize {
        match self {
            Scale::Quick => 5,
            Scale::Paper => 10,
        }
    }
}

/// The result of checking one of the paper's qualitative claims
/// against measured data.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimCheck {
    /// The paper's claim, paraphrased.
    pub claim: String,
    /// What we measured.
    pub measured: String,
    /// Whether the measurement supports the claim.
    pub pass: bool,
}

impl ClaimCheck {
    /// Renders as a one-line verdict.
    pub fn render(&self) -> String {
        format!(
            "[{}] {} — measured: {}",
            if self.pass { "PASS" } else { "FAIL" },
            self.claim,
            self.measured
        )
    }
}

/// Renders a claim list with a heading.
pub fn render_claims(claims: &[ClaimCheck]) -> String {
    let mut out = String::from("## Paper-claim checks\n");
    for c in claims {
        out.push_str(&c.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn scales_have_sensible_ranges() {
        for scale in [Scale::Quick, Scale::Paper] {
            assert!(!scale.seeds().is_empty());
            assert!(scale.clique_sizes().windows(2).all(|w| w[0] < w[1]));
            assert!(scale.mrai_values().windows(2).all(|w| w[0] < w[1]));
            assert!(scale.fixed_clique() >= 4);
        }
        assert!(Scale::Paper.clique_sizes().contains(&30));
        assert!(Scale::Paper.internet_sizes().contains(&110));
    }

    #[test]
    fn claim_render() {
        let c = ClaimCheck {
            claim: "looping tracks convergence".into(),
            measured: "gap 3.2s".into(),
            pass: true,
        };
        assert!(c.render().starts_with("[PASS]"));
        let all = render_claims(&[c]);
        assert!(all.contains("Paper-claim checks"));
    }
}
