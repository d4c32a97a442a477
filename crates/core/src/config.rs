//! Protocol configuration.
//!
//! Defaults follow the simulation settings of the ICDCS'04 study
//! (§4.1–§4.2): MRAI of 30 s with SSFNet-style jitter, per-message
//! processing delay uniform in `[0.1 s, 0.5 s]`, and a 2 ms link delay.

use bgpsim_netsim::time::SimDuration;

/// Multiplicative jitter applied to each MRAI interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Lower bound as a fraction of the base interval.
    pub lo: f64,
    /// Upper bound as a fraction of the base interval.
    pub hi: f64,
}

impl Jitter {
    /// No jitter: every interval is exactly the base value.
    pub const NONE: Jitter = Jitter { lo: 1.0, hi: 1.0 };

    /// SSFNet's default: uniform in `[0.75 · M, M]`.
    pub const SSFNET: Jitter = Jitter { lo: 0.75, hi: 1.0 };

    /// Validates the jitter bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not `0 <= lo <= hi` and finite.
    pub fn validate(&self) {
        assert!(
            self.lo.is_finite() && self.hi.is_finite() && self.lo >= 0.0 && self.lo <= self.hi,
            "invalid jitter bounds [{}, {}]",
            self.lo,
            self.hi
        );
    }
}

/// Which convergence enhancements are active.
///
/// The four mechanisms compared in §5 of the paper. They compose freely
/// in the implementation; the paper (and our experiments) evaluate them
/// one at a time against standard BGP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Enhancements {
    /// Sender-side loop detection (Labovitz et al.): replace an
    /// announcement the receiver would discard (its own id is in the
    /// path) with an immediate withdrawal.
    pub ssld: bool,
    /// Withdrawal rate limiting: the MRAI timer also applies to
    /// withdrawals (adopted by the post-RFC1771 specification drafts).
    pub wrate: bool,
    /// The Assertion approach (Pei et al.): cross-check stored backup
    /// paths against each incoming update and drop obsolete ones.
    pub assertion: bool,
    /// Ghost Flushing (Bremler-Barr et al.): when the best path worsens
    /// and MRAI blocks the announcement, send an immediate withdrawal to
    /// flush the stale route.
    pub ghost_flushing: bool,
}

impl Enhancements {
    /// Standard BGP: everything off.
    pub fn standard() -> Self {
        Enhancements::default()
    }

    /// Only SSLD enabled.
    pub fn ssld() -> Self {
        Enhancements {
            ssld: true,
            ..Default::default()
        }
    }

    /// Only WRATE enabled.
    pub fn wrate() -> Self {
        Enhancements {
            wrate: true,
            ..Default::default()
        }
    }

    /// Only Assertion enabled.
    pub fn assertion() -> Self {
        Enhancements {
            assertion: true,
            ..Default::default()
        }
    }

    /// Only Ghost Flushing enabled.
    pub fn ghost_flushing() -> Self {
        Enhancements {
            ghost_flushing: true,
            ..Default::default()
        }
    }

    /// A short label for reports ("BGP", "SSLD", …).
    pub fn label(&self) -> &'static str {
        match (self.ssld, self.wrate, self.assertion, self.ghost_flushing) {
            (false, false, false, false) => "BGP",
            (true, false, false, false) => "SSLD",
            (false, true, false, false) => "WRATE",
            (false, false, true, false) => "Assertion",
            (false, false, false, true) => "GhostFlush",
            _ => "Combined",
        }
    }

    /// The five variants compared in the paper's §5, standard BGP first.
    pub fn paper_variants() -> [Enhancements; 5] {
        [
            Enhancements::standard(),
            Enhancements::ssld(),
            Enhancements::wrate(),
            Enhancements::assertion(),
            Enhancements::ghost_flushing(),
        ]
    }
}

/// Full per-router protocol configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BgpConfig {
    /// The Minimum Route Advertisement Interval base value (default
    /// 30 s), applied per `(peer, prefix)`.
    pub mrai: SimDuration,
    /// Jitter applied to each MRAI interval.
    pub mrai_jitter: Jitter,
    /// Active convergence enhancements.
    pub enhancements: Enhancements,
}

impl Default for BgpConfig {
    fn default() -> Self {
        BgpConfig {
            mrai: SimDuration::from_secs(30),
            mrai_jitter: Jitter::SSFNET,
            enhancements: Enhancements::standard(),
        }
    }
}

impl BgpConfig {
    /// The paper's baseline configuration.
    pub fn paper_default() -> Self {
        BgpConfig::default()
    }

    /// Returns a copy with a different MRAI value.
    pub fn with_mrai(mut self, mrai: SimDuration) -> Self {
        self.mrai = mrai;
        self
    }

    /// Returns a copy with different jitter.
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.mrai_jitter = jitter;
        self
    }

    /// Returns a copy with the given enhancements.
    pub fn with_enhancements(mut self, enh: Enhancements) -> Self {
        self.enhancements = enh;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the jitter bounds are invalid.
    pub fn validate(&self) {
        self.mrai_jitter.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = BgpConfig::paper_default();
        assert_eq!(c.mrai, SimDuration::from_secs(30));
        assert_eq!(c.mrai_jitter, Jitter::SSFNET);
        assert_eq!(c.enhancements, Enhancements::standard());
        c.validate();
    }

    #[test]
    fn builder_style_updates() {
        let c = BgpConfig::default()
            .with_mrai(SimDuration::from_secs(5))
            .with_jitter(Jitter::NONE)
            .with_enhancements(Enhancements::ssld());
        assert_eq!(c.mrai, SimDuration::from_secs(5));
        assert_eq!(c.mrai_jitter, Jitter::NONE);
        assert!(c.enhancements.ssld);
    }

    #[test]
    fn labels() {
        assert_eq!(Enhancements::standard().label(), "BGP");
        assert_eq!(Enhancements::ssld().label(), "SSLD");
        assert_eq!(Enhancements::wrate().label(), "WRATE");
        assert_eq!(Enhancements::assertion().label(), "Assertion");
        assert_eq!(Enhancements::ghost_flushing().label(), "GhostFlush");
        let combined = Enhancements {
            ssld: true,
            wrate: true,
            ..Default::default()
        };
        assert_eq!(combined.label(), "Combined");
    }

    #[test]
    fn paper_variants_are_distinct() {
        let vs = Enhancements::paper_variants();
        for (i, a) in vs.iter().enumerate() {
            for b in &vs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid jitter")]
    fn bad_jitter_rejected() {
        Jitter { lo: 1.5, hi: 1.0 }.validate();
    }
}
