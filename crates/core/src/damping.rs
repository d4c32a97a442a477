//! Route flap damping (RFC 2439) — an extension beyond the paper.
//!
//! The MRAI timer the paper studies is BGP's *rate limiter*; route
//! flap damping is its *stability filter*: each flap of a route adds a
//! penalty that decays exponentially, and a route whose penalty
//! crosses the suppress threshold is ignored by the decision process
//! until the penalty decays below the reuse threshold.
//!
//! Damping interacts with transient looping in the opposite way from
//! MRAI: it removes *unstable* paths from consideration entirely
//! (fewer stale candidates), at the price of reachability during the
//! suppression window.

use std::collections::BTreeMap;

use bgpsim_netsim::time::{SimDuration, SimTime};
use bgpsim_topology::NodeId;

use crate::prefix::Prefix;

/// Damping parameters, defaulting to the classic Cisco values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DampingConfig {
    /// Penalty added per withdrawal flap (default 1000).
    pub withdrawal_penalty: f64,
    /// Penalty added when an announcement changes attributes, i.e. the
    /// advertised path differs from the previous one (default 500).
    pub attribute_change_penalty: f64,
    /// Suppress the route when the penalty exceeds this (default 2000).
    pub suppress_threshold: f64,
    /// Reuse the route when the penalty decays below this (default 750).
    pub reuse_threshold: f64,
    /// Exponential decay half-life (default 15 minutes).
    pub half_life: SimDuration,
    /// Penalty ceiling (default 16 000), bounding the maximum
    /// suppression time.
    pub max_penalty: f64,
}

impl Default for DampingConfig {
    fn default() -> Self {
        DampingConfig {
            withdrawal_penalty: 1000.0,
            attribute_change_penalty: 500.0,
            suppress_threshold: 2000.0,
            reuse_threshold: 750.0,
            half_life: SimDuration::from_secs(15 * 60),
            max_penalty: 16_000.0,
        }
    }
}

impl DampingConfig {
    /// Validates the thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are not `0 < reuse < suppress <= max`
    /// or the half-life is zero.
    pub fn validate(&self) {
        assert!(
            self.reuse_threshold > 0.0
                && self.reuse_threshold < self.suppress_threshold
                && self.suppress_threshold <= self.max_penalty,
            "damping thresholds must satisfy 0 < reuse < suppress <= max"
        );
        assert!(!self.half_life.is_zero(), "half-life must be positive");
    }
}

/// The kind of flap observed for a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlapKind {
    /// The route was withdrawn.
    Withdrawal,
    /// The route was re-announced with a different path.
    AttributeChange,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    penalty: f64,
    updated_at: SimTime,
    suppressed: bool,
}

/// The raw damping state of one `(peer, prefix)` route, as exported by
/// [`DampingTable::export_entries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DampingEntryState {
    /// Undecayed penalty as of `updated_at`.
    pub penalty: f64,
    /// The instant the penalty was last updated.
    pub updated_at: SimTime,
    /// Whether the route is currently suppressed.
    pub suppressed: bool,
}

/// Per-`(peer, prefix)` flap-damping state for one router.
///
/// # Examples
///
/// ```
/// use bgpsim_core::damping::{DampingConfig, DampingTable, FlapKind};
/// use bgpsim_core::Prefix;
/// use bgpsim_netsim::time::SimTime;
/// use bgpsim_topology::NodeId;
///
/// let mut table = DampingTable::new(DampingConfig::default());
/// let (peer, prefix) = (NodeId::new(1), Prefix::new(0));
/// let t = SimTime::ZERO;
/// table.record_flap(peer, prefix, FlapKind::Withdrawal, t);
/// assert!(!table.is_suppressed(peer, prefix, t)); // 1000 < 2000
/// table.record_flap(peer, prefix, FlapKind::Withdrawal, t);
/// assert!(table.is_suppressed(peer, prefix, t)); // 2000 reached
/// ```
#[derive(Debug, Clone)]
pub struct DampingTable {
    config: DampingConfig,
    entries: BTreeMap<(NodeId, Prefix), Entry>,
}

impl DampingTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: DampingConfig) -> Self {
        config.validate();
        DampingTable {
            config,
            entries: BTreeMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DampingConfig {
        &self.config
    }

    /// The decayed penalty of `(peer, prefix)` at `now`.
    pub fn penalty(&self, peer: NodeId, prefix: Prefix, now: SimTime) -> f64 {
        match self.entries.get(&(peer, prefix)) {
            Some(e) => decay(e.penalty, e.updated_at, now, self.config.half_life),
            None => 0.0,
        }
    }

    /// Records a flap and returns `true` if the route just became
    /// suppressed.
    pub fn record_flap(
        &mut self,
        peer: NodeId,
        prefix: Prefix,
        kind: FlapKind,
        now: SimTime,
    ) -> bool {
        let add = match kind {
            FlapKind::Withdrawal => self.config.withdrawal_penalty,
            FlapKind::AttributeChange => self.config.attribute_change_penalty,
        };
        let entry = self.entries.entry((peer, prefix)).or_insert(Entry {
            penalty: 0.0,
            updated_at: now,
            suppressed: false,
        });
        let current = decay(entry.penalty, entry.updated_at, now, self.config.half_life);
        entry.penalty = (current + add).min(self.config.max_penalty);
        entry.updated_at = now;
        let was = entry.suppressed;
        if entry.penalty >= self.config.suppress_threshold {
            entry.suppressed = true;
        }
        entry.suppressed && !was
    }

    /// Whether `(peer, prefix)` is currently suppressed. Reading at a
    /// later time accounts for decay (a suppressed route whose penalty
    /// has fallen below the reuse threshold is reusable).
    pub fn is_suppressed(&self, peer: NodeId, prefix: Prefix, now: SimTime) -> bool {
        match self.entries.get(&(peer, prefix)) {
            Some(e) if e.suppressed => {
                decay(e.penalty, e.updated_at, now, self.config.half_life)
                    >= self.config.reuse_threshold
            }
            _ => false,
        }
    }

    /// Clears the suppressed flag if the penalty has decayed below the
    /// reuse threshold; returns `true` if the route became reusable.
    pub fn try_reuse(&mut self, peer: NodeId, prefix: Prefix, now: SimTime) -> bool {
        let config = self.config;
        if let Some(e) = self.entries.get_mut(&(peer, prefix)) {
            if e.suppressed
                && decay(e.penalty, e.updated_at, now, config.half_life) < config.reuse_threshold
            {
                e.suppressed = false;
                return true;
            }
        }
        false
    }

    /// The time at which a currently suppressed route decays to its
    /// reuse threshold, or `None` if it is not suppressed.
    pub fn reuse_time(&self, peer: NodeId, prefix: Prefix) -> Option<SimTime> {
        let e = self.entries.get(&(peer, prefix))?;
        if !e.suppressed {
            return None;
        }
        if e.penalty < self.config.reuse_threshold {
            return Some(e.updated_at);
        }
        let ratio = e.penalty / self.config.reuse_threshold;
        let dt = self.config.half_life.as_secs_f64() * ratio.log2();
        Some(e.updated_at + SimDuration::from_secs_f64(dt))
    }

    /// Drops all state for `peer` (session reset clears damping).
    pub fn clear_peer(&mut self, peer: NodeId) {
        self.entries.retain(|&(p, _), _| p != peer);
    }

    /// Exports the per-route state in ascending key order.
    pub fn export_entries(&self) -> Vec<((NodeId, Prefix), DampingEntryState)> {
        self.entries
            .iter()
            .map(|(&k, e)| {
                (
                    k,
                    DampingEntryState {
                        penalty: e.penalty,
                        updated_at: e.updated_at,
                        suppressed: e.suppressed,
                    },
                )
            })
            .collect()
    }
}

fn decay(penalty: f64, since: SimTime, now: SimTime, half_life: SimDuration) -> f64 {
    let dt = now.saturating_duration_since(since).as_secs_f64();
    penalty * 0.5f64.powf(dt / half_life.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> (NodeId, Prefix) {
        (NodeId::new(1), Prefix::new(0))
    }

    fn table() -> DampingTable {
        DampingTable::new(DampingConfig::default())
    }

    #[test]
    fn penalty_accumulates_and_decays() {
        let mut t = table();
        let (p, d) = key();
        t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO);
        assert_eq!(t.penalty(p, d, SimTime::ZERO), 1000.0);
        // One half-life later: 500.
        let later = SimTime::from_secs(15 * 60);
        assert!((t.penalty(p, d, later) - 500.0).abs() < 1e-6);
        // Two half-lives: 250.
        let later2 = SimTime::from_secs(30 * 60);
        assert!((t.penalty(p, d, later2) - 250.0).abs() < 1e-6);
    }

    #[test]
    fn suppression_at_threshold() {
        let mut t = table();
        let (p, d) = key();
        assert!(!t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO));
        let newly = t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO);
        assert!(newly, "second withdrawal crosses 2000");
        assert!(t.is_suppressed(p, d, SimTime::ZERO));
        // Recording more flaps doesn't report "newly suppressed" again.
        assert!(!t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO));
    }

    #[test]
    fn attribute_changes_penalize_less() {
        let mut t = table();
        let (p, d) = key();
        for _ in 0..3 {
            t.record_flap(p, d, FlapKind::AttributeChange, SimTime::ZERO);
        }
        assert_eq!(t.penalty(p, d, SimTime::ZERO), 1500.0);
        assert!(!t.is_suppressed(p, d, SimTime::ZERO));
    }

    #[test]
    fn penalty_is_capped() {
        let mut t = table();
        let (p, d) = key();
        for _ in 0..100 {
            t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO);
        }
        assert_eq!(t.penalty(p, d, SimTime::ZERO), 16_000.0);
    }

    #[test]
    fn reuse_after_decay() {
        let mut t = table();
        let (p, d) = key();
        t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO);
        t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO);
        assert!(t.is_suppressed(p, d, SimTime::ZERO));
        let reuse_at = t.reuse_time(p, d).expect("suppressed");
        // 2000 → 750 takes h * log2(2000/750) ≈ 1.415 half-lives.
        let expected = 15.0 * 60.0 * (2000.0f64 / 750.0).log2();
        assert!((reuse_at.as_secs_f64() - expected).abs() < 1.0);
        // Just before: still suppressed; just after: reusable.
        let before = reuse_at - SimDuration::from_secs(10);
        let after = reuse_at + SimDuration::from_secs(10);
        assert!(t.is_suppressed(p, d, before));
        assert!(!t.is_suppressed(p, d, after));
        assert!(!t.try_reuse(p, d, before));
        assert!(t.try_reuse(p, d, after));
        assert!(!t.is_suppressed(p, d, after));
    }

    #[test]
    fn unsuppressed_routes_have_no_reuse_time() {
        let mut t = table();
        let (p, d) = key();
        assert_eq!(t.reuse_time(p, d), None);
        t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO);
        assert_eq!(t.reuse_time(p, d), None);
    }

    #[test]
    fn clear_peer_wipes_state() {
        let mut t = table();
        let (p, d) = key();
        t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO);
        t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO);
        t.clear_peer(p);
        assert!(!t.is_suppressed(p, d, SimTime::ZERO));
        assert_eq!(t.penalty(p, d, SimTime::ZERO), 0.0);
    }

    #[test]
    fn flaps_spread_in_time_decay_between() {
        let mut t = table();
        let (p, d) = key();
        t.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO);
        // A withdrawal one half-life later: 500 + 1000 = 1500 < 2000.
        let later = SimTime::from_secs(15 * 60);
        t.record_flap(p, d, FlapKind::Withdrawal, later);
        assert!(!t.is_suppressed(p, d, later));
        assert!((t.penalty(p, d, later) - 1500.0).abs() < 1e-6);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Whatever flap sequence arrives, the invariants hold:
            /// penalty stays within [0, max]; a suppressed route reads
            /// penalty ≥ reuse threshold at that instant; and with no
            /// flaps the penalty only decays.
            #[test]
            fn damping_invariants(
                flaps in proptest::collection::vec((0u64..3600, any::<bool>()), 1..60)
            ) {
                let mut table = DampingTable::new(DampingConfig::default());
                let (p, d) = (NodeId::new(1), Prefix::new(0));
                let mut times: Vec<(u64, bool)> = flaps;
                times.sort_by_key(|&(t, _)| t);
                let mut prev_penalty_at: Option<(SimTime, f64)> = None;
                for (secs, withdrawal) in times {
                    let now = SimTime::from_secs(secs);
                    // Between flaps, penalty only decays.
                    if let Some((t0, p0)) = prev_penalty_at {
                        if now >= t0 {
                            prop_assert!(table.penalty(p, d, now) <= p0 + 1e-9);
                        }
                    }
                    let kind = if withdrawal {
                        FlapKind::Withdrawal
                    } else {
                        FlapKind::AttributeChange
                    };
                    table.record_flap(p, d, kind, now);
                    let pen = table.penalty(p, d, now);
                    prop_assert!(pen >= 0.0);
                    prop_assert!(pen <= DampingConfig::default().max_penalty + 1e-9);
                    if table.is_suppressed(p, d, now) {
                        prop_assert!(
                            pen >= DampingConfig::default().reuse_threshold - 1e-9
                        );
                    }
                    prev_penalty_at = Some((now, pen));
                }
                // Far enough in the future, everything is reusable.
                let far = SimTime::from_secs(1_000_000);
                prop_assert!(table.penalty(p, d, far) < 1.0);
                prop_assert!(!table.is_suppressed(p, d, far));
            }

            /// The analytic reuse time agrees with is_suppressed: just
            /// before it the route is suppressed, just after it is not.
            #[test]
            fn reuse_time_is_the_boundary(extra_flaps in 1usize..8) {
                let mut table = DampingTable::new(DampingConfig::default());
                let (p, d) = (NodeId::new(1), Prefix::new(0));
                for _ in 0..(1 + extra_flaps) {
                    table.record_flap(p, d, FlapKind::Withdrawal, SimTime::ZERO);
                }
                prop_assume!(table.is_suppressed(p, d, SimTime::ZERO));
                let reuse = table.reuse_time(p, d).expect("suppressed");
                let eps = SimDuration::from_secs(5);
                prop_assert!(table.is_suppressed(p, d, reuse - eps));
                prop_assert!(!table.is_suppressed(p, d, reuse + eps));
            }
        }
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn invalid_config_rejected() {
        let _ = DampingTable::new(DampingConfig {
            reuse_threshold: 5000.0,
            ..DampingConfig::default()
        });
    }
}
