//! The fault-plan DSL and its deterministic expansion.

use std::fmt::Write as _;

use bgpsim_core::Prefix;
use bgpsim_netsim::rng::SimRng;
use bgpsim_netsim::time::SimDuration;
use bgpsim_topology::NodeId;

use crate::error::FaultError;

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Both directions of the link `[a, b]` go down.
    LinkDown { a: NodeId, b: NodeId },
    /// Both directions of the link `[a, b]` come back up.
    LinkUp { a: NodeId, b: NodeId },
    /// The BGP session between `a` and `b` is torn down and immediately
    /// re-established; the underlying link stays up.
    SessionReset { a: NodeId, b: NodeId },
    /// `origin` withdraws `prefix` (the paper's `T_down` trigger).
    Withdraw { origin: NodeId, prefix: Prefix },
}

impl FaultKind {
    /// Short label used in fingerprints and trace events.
    fn describe(&self, out: &mut String) {
        match *self {
            FaultKind::LinkDown { a, b } => {
                let _ = write!(out, "down:{}-{}", a.as_u32(), b.as_u32());
            }
            FaultKind::LinkUp { a, b } => {
                let _ = write!(out, "up:{}-{}", a.as_u32(), b.as_u32());
            }
            FaultKind::SessionReset { a, b } => {
                let _ = write!(out, "reset:{}-{}", a.as_u32(), b.as_u32());
            }
            FaultKind::Withdraw { origin, prefix } => {
                let _ = write!(out, "withdraw:{}:{}", origin.as_u32(), prefix.as_u32());
            }
        }
    }
}

/// One scheduled fault: `kind` fires at offset `at` from the plan's
/// anchor time (the simulator chooses the anchor when installing the
/// plan, mirroring the clean-failure harness beat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Offset from the plan anchor.
    pub at: SimDuration,
    /// What fires.
    pub kind: FaultKind,
}

/// A periodic down/up train on one link.
///
/// Cycle `i` takes the link down at `start + i * period` (plus jitter)
/// and brings it back up half a period later (plus jitter), so the
/// link spends roughly half of each period down. Jitter is a fraction
/// of the period, drawn per edge from a child generator forked off the
/// run seed and this train's identity — adding a second train never
/// shifts the first one's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapTrain {
    /// One endpoint of the flapping link.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Offset of the first down event from the plan anchor.
    pub start: SimDuration,
    /// Full down+up cycle length.
    pub period: SimDuration,
    /// Number of down/up cycles.
    pub count: u32,
    /// Jitter fraction in `[0, 0.5]`; each edge shifts later by up to
    /// `jitter * period`. Zero means no random draws at all.
    pub jitter: f64,
}

impl FlapTrain {
    /// A train with the default profile (see [`FlapProfile`]) on the
    /// given link.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        FlapProfile::default().train(a, b)
    }

    /// Sets the offset of the first down event.
    pub fn starting_at(mut self, start: SimDuration) -> Self {
        self.start = start;
        self
    }

    /// Sets the cycle period.
    pub fn with_period(mut self, period: SimDuration) -> Self {
        self.period = period;
        self
    }

    /// Sets the number of cycles.
    pub fn with_count(mut self, count: u32) -> Self {
        self.count = count;
        self
    }

    /// Sets the jitter fraction.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Expands this train into down/up events, drawing jitter from
    /// `rng` (two draws per cycle when jitter is non-zero, none
    /// otherwise).
    fn expand_into(&self, rng: &mut SimRng, out: &mut Vec<FaultEvent>) {
        let half = self.period / 2;
        let max_shift = self.period.mul_f64(self.jitter);
        for i in 0..u64::from(self.count) {
            let mut down_at = self.start + self.period * i;
            let mut up_at = down_at + half;
            if !max_shift.is_zero() {
                down_at += rng.uniform_duration(SimDuration::ZERO, max_shift);
                up_at += rng.uniform_duration(SimDuration::ZERO, max_shift);
            }
            out.push(FaultEvent {
                at: down_at,
                kind: FaultKind::LinkDown {
                    a: self.a,
                    b: self.b,
                },
            });
            out.push(FaultEvent {
                at: up_at.max(down_at),
                kind: FaultKind::LinkUp {
                    a: self.a,
                    b: self.b,
                },
            });
        }
    }
}

/// Independent per-message loss on one directed link pair.
///
/// The probability applies to both directions of `[a, b]`; each
/// direction draws from its own child generator so delivery decisions
/// on one direction never shift the other's sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLoss {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Per-message drop probability in `[0, 1]`.
    pub probability: f64,
}

/// Flap parameterization of a scenario: how the failure link should
/// flap in an [`EventKind::Flap`]-style experiment.
///
/// This is the coarse knob exposed by sweep binaries; it compiles into
/// a full [`FaultPlan`] for a concrete link via [`FlapProfile::plan_for`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapProfile {
    /// Full down+up cycle length.
    pub period: SimDuration,
    /// Number of down/up cycles.
    pub count: u32,
    /// Jitter fraction in `[0, 0.5]`.
    pub jitter: f64,
    /// Per-message loss probability applied to the flapping link.
    pub loss: f64,
}

impl Default for FlapProfile {
    fn default() -> Self {
        FlapProfile {
            period: SimDuration::from_secs(10),
            count: 3,
            jitter: 0.0,
            loss: 0.0,
        }
    }
}

impl FlapProfile {
    /// Builds a flap train with this profile on the given link,
    /// starting at the plan anchor.
    pub fn train(&self, a: NodeId, b: NodeId) -> FlapTrain {
        FlapTrain {
            a,
            b,
            start: SimDuration::ZERO,
            period: self.period,
            count: self.count,
            jitter: self.jitter,
        }
    }

    /// Compiles this profile into a plan flapping the link `[a, b]`.
    pub fn plan_for(&self, a: NodeId, b: NodeId) -> FaultPlan {
        let mut plan = FaultPlan::new().flap(self.train(a, b));
        if self.loss > 0.0 {
            plan = plan.loss(a, b, self.loss);
        }
        plan
    }

    /// Stable fragment for scenario fingerprints.
    pub fn fingerprint(&self) -> String {
        format!(
            "period={}|count={}|jitter={:x}|loss={:x}",
            self.period.as_nanos(),
            self.count,
            self.jitter.to_bits(),
            self.loss.to_bits()
        )
    }
}

/// A declarative description of the churn a run should experience.
///
/// A plan is pure data: it holds explicitly scheduled events, flap
/// trains (expanded with seeded jitter at install time), and per-link
/// loss probabilities. Offsets are relative to an anchor the simulator
/// picks when installing the plan, so the same plan applies to any
/// scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Explicitly scheduled faults (offsets from the anchor).
    pub events: Vec<FaultEvent>,
    /// Flap trains to expand.
    pub flaps: Vec<FlapTrain>,
    /// Per-link message-loss entries.
    pub loss: Vec<LinkLoss>,
}

impl FaultPlan {
    /// An empty plan (invalid until something is added).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an explicit event.
    pub fn event(mut self, at: SimDuration, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Adds a link-down event.
    pub fn link_down(self, at: SimDuration, a: NodeId, b: NodeId) -> Self {
        self.event(at, FaultKind::LinkDown { a, b })
    }

    /// Adds a link-up event.
    pub fn link_up(self, at: SimDuration, a: NodeId, b: NodeId) -> Self {
        self.event(at, FaultKind::LinkUp { a, b })
    }

    /// Adds a session-reset event.
    pub fn session_reset(self, at: SimDuration, a: NodeId, b: NodeId) -> Self {
        self.event(at, FaultKind::SessionReset { a, b })
    }

    /// Adds a prefix-withdrawal event.
    pub fn withdraw(self, at: SimDuration, origin: NodeId, prefix: Prefix) -> Self {
        self.event(at, FaultKind::Withdraw { origin, prefix })
    }

    /// Adds a flap train.
    pub fn flap(mut self, train: FlapTrain) -> Self {
        self.flaps.push(train);
        self
    }

    /// Adds a per-link loss entry.
    pub fn loss(mut self, a: NodeId, b: NodeId, probability: f64) -> Self {
        self.loss.push(LinkLoss { a, b, probability });
        self
    }

    /// Checks the plan for structural problems.
    ///
    /// Offsets need no range check here — they are relative, so "in
    /// the past" only becomes meaningful against the anchor at install
    /// time (see [`FaultError::EventInPast`]).
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.events.is_empty() && self.flaps.is_empty() && self.loss.is_empty() {
            return Err(FaultError::EmptyPlan);
        }
        for ev in &self.events {
            if let FaultKind::LinkDown { a, b }
            | FaultKind::LinkUp { a, b }
            | FaultKind::SessionReset { a, b } = ev.kind
            {
                if a == b {
                    return Err(FaultError::SelfLoop { node: a });
                }
            }
        }
        for train in &self.flaps {
            if train.a == train.b {
                return Err(FaultError::SelfLoop { node: train.a });
            }
            if train.period.is_zero() {
                return Err(FaultError::ZeroPeriod {
                    a: train.a,
                    b: train.b,
                });
            }
            if train.count == 0 {
                return Err(FaultError::ZeroCount {
                    a: train.a,
                    b: train.b,
                });
            }
            if !train.jitter.is_finite() || !(0.0..=0.5).contains(&train.jitter) {
                return Err(FaultError::InvalidJitter {
                    a: train.a,
                    b: train.b,
                    jitter: train.jitter,
                });
            }
        }
        for l in &self.loss {
            if l.a == l.b {
                return Err(FaultError::SelfLoop { node: l.a });
            }
            if !l.probability.is_finite() || !(0.0..=1.0).contains(&l.probability) {
                return Err(FaultError::InvalidProbability {
                    a: l.a,
                    b: l.b,
                    probability: l.probability,
                });
            }
        }
        Ok(())
    }

    /// Expands the plan into a flat, time-sorted event list under the
    /// given run seed.
    ///
    /// Each flap train draws jitter from its own child generator
    /// (forked off `seed` and the train's link + index), so trains are
    /// independent and the expansion is a pure function of
    /// `(seed, plan)`. The sort is stable: same-offset events keep
    /// plan order.
    pub fn expand(&self, seed: u64) -> Vec<FaultEvent> {
        let root = SimRng::new(seed);
        let mut out = self.events.clone();
        for (k, train) in self.flaps.iter().enumerate() {
            let mut rng = root.fork(flap_stream(k as u64, train.a, train.b));
            train.expand_into(&mut rng, &mut out);
        }
        out.sort_by_key(|ev| ev.at);
        out
    }

    /// Stable textual identity for cache fingerprints.
    ///
    /// Floats are rendered via `to_bits` so the fragment is exact, and
    /// every component is versioned under the leading `faults/v1` tag.
    pub fn fingerprint(&self) -> String {
        let mut s = String::from("faults/v1|ev=");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}@", ev.at.as_nanos());
            ev.kind.describe(&mut s);
        }
        s.push_str("|flap=");
        for (i, t) in self.flaps.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}-{}:s{}:p{}:c{}:j{:x}",
                t.a.as_u32(),
                t.b.as_u32(),
                t.start.as_nanos(),
                t.period.as_nanos(),
                t.count,
                t.jitter.to_bits()
            );
        }
        s.push_str("|loss=");
        for (i, l) in self.loss.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}-{}:{:x}",
                l.a.as_u32(),
                l.b.as_u32(),
                l.probability.to_bits()
            );
        }
        s
    }

    /// Derives the per-direction loss stream tag for the directed link
    /// `from -> to`; the simulator forks the run RNG with this tag so
    /// loss draws on one link never shift any other random sequence.
    pub fn loss_stream(from: NodeId, to: NodeId) -> u64 {
        0x1055_0000_0000_0000u64
            ^ (u64::from(from.as_u32()) << 32)
            ^ u64::from(to.as_u32()).rotate_left(17)
    }
}

/// Stream tag for flap train `k` on link `[a, b]`.
fn flap_stream(k: u64, a: NodeId, b: NodeId) -> u64 {
    0xF1A9_0000_0000_0000u64 ^ (k << 40) ^ (u64::from(a.as_u32()) << 20) ^ u64::from(b.as_u32())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_plan_is_invalid() {
        assert_eq!(FaultPlan::new().validate(), Err(FaultError::EmptyPlan));
    }

    #[test]
    fn self_loop_is_rejected() {
        let plan = FaultPlan::new().link_down(SimDuration::ZERO, n(3), n(3));
        assert_eq!(plan.validate(), Err(FaultError::SelfLoop { node: n(3) }));
    }

    #[test]
    fn bad_probability_is_rejected() {
        let plan = FaultPlan::new().loss(n(0), n(1), 1.5);
        assert!(matches!(
            plan.validate(),
            Err(FaultError::InvalidProbability { .. })
        ));
        let nan = FaultPlan::new().loss(n(0), n(1), f64::NAN);
        assert!(matches!(
            nan.validate(),
            Err(FaultError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn bad_flap_trains_are_rejected() {
        let zero_period =
            FaultPlan::new().flap(FlapTrain::new(n(0), n(1)).with_period(SimDuration::ZERO));
        assert!(matches!(
            zero_period.validate(),
            Err(FaultError::ZeroPeriod { .. })
        ));
        let zero_count = FaultPlan::new().flap(FlapTrain::new(n(0), n(1)).with_count(0));
        assert!(matches!(
            zero_count.validate(),
            Err(FaultError::ZeroCount { .. })
        ));
        let wild_jitter = FaultPlan::new().flap(FlapTrain::new(n(0), n(1)).with_jitter(0.9));
        assert!(matches!(
            wild_jitter.validate(),
            Err(FaultError::InvalidJitter { .. })
        ));
    }

    #[test]
    fn expansion_is_deterministic_and_sorted() {
        let plan = FaultPlan::new()
            .flap(
                FlapTrain::new(n(0), n(1))
                    .with_period(SimDuration::from_secs(4))
                    .with_count(3)
                    .with_jitter(0.25),
            )
            .flap(
                FlapTrain::new(n(2), n(3))
                    .with_period(SimDuration::from_secs(6))
                    .with_count(2)
                    .with_jitter(0.25),
            )
            .session_reset(SimDuration::from_secs(1), n(4), n(5));
        plan.validate().unwrap();
        let a = plan.expand(99);
        let b = plan.expand(99);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        // 3 + 2 cycles of down+up, plus the explicit reset.
        assert_eq!(a.len(), 11);
        // A different seed moves the jittered edges.
        assert_ne!(a, plan.expand(100));
    }

    #[test]
    fn zero_jitter_expansion_is_seed_independent() {
        let plan = FaultPlan::new().flap(
            FlapTrain::new(n(0), n(1))
                .with_period(SimDuration::from_secs(2))
                .with_count(2),
        );
        assert_eq!(plan.expand(1), plan.expand(2));
        let ev = plan.expand(1);
        assert_eq!(ev[0].at, SimDuration::ZERO);
        assert_eq!(ev[1].at, SimDuration::from_secs(1));
        assert_eq!(ev[2].at, SimDuration::from_secs(2));
        assert_eq!(ev[3].at, SimDuration::from_secs(3));
    }

    #[test]
    fn sibling_trains_do_not_perturb_each_other() {
        let solo = FaultPlan::new().flap(
            FlapTrain::new(n(0), n(1))
                .with_period(SimDuration::from_secs(4))
                .with_jitter(0.25),
        );
        let paired = solo.clone().flap(
            FlapTrain::new(n(2), n(3))
                .with_period(SimDuration::from_secs(4))
                .with_jitter(0.25),
        );
        let solo_events = solo.expand(7);
        let paired_first: Vec<_> = paired
            .expand(7)
            .into_iter()
            .filter(|ev| {
                matches!(
                    ev.kind,
                    FaultKind::LinkDown { a, .. } | FaultKind::LinkUp { a, .. } if a == n(0)
                )
            })
            .collect();
        assert_eq!(solo_events, paired_first);
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_plans() {
        let plan = FaultPlan::new()
            .link_down(SimDuration::from_secs(1), n(0), n(5))
            .loss(n(0), n(5), 0.125);
        assert_eq!(plan.fingerprint(), plan.clone().fingerprint());
        let other = FaultPlan::new()
            .link_down(SimDuration::from_secs(1), n(0), n(5))
            .loss(n(0), n(5), 0.25);
        assert_ne!(plan.fingerprint(), other.fingerprint());
    }

    #[test]
    fn flap_profile_compiles_to_plan() {
        let profile = FlapProfile {
            period: SimDuration::from_secs(2),
            count: 4,
            jitter: 0.1,
            loss: 0.05,
        };
        let plan = profile.plan_for(n(1), n(2));
        plan.validate().unwrap();
        assert_eq!(plan.flaps.len(), 1);
        assert_eq!(plan.loss.len(), 1);
        assert_eq!(plan.expand(3).len(), 8);
        let lossless = FlapProfile::default().plan_for(n(1), n(2));
        assert!(lossless.loss.is_empty());
    }
}
