//! Differential test of [`Router`] against a reference router.
//!
//! The reference keeps the textbook tables — an Adj-RIB-In per prefix,
//! a Loc-RIB, an Adj-RIB-Out and an MRAI table keyed by
//! `(peer, prefix)`, all ordered maps — and reruns the public
//! [`select_best`] over the whole Adj-RIB-In on every decision.
//! It shares no table code with the router's peer slots and has no
//! shortcut, so agreement on every output, counter and snapshot over
//! random input sequences pins the slot table and the
//! single-entry-changed decision shortcut to the protocol they replace.

use std::collections::{BTreeMap, BTreeSet};

use bgpsim_core::decision::select_best;
use bgpsim_core::prelude::*;
use bgpsim_core::rib::RibIn;
use bgpsim_netsim::rng::SimRng;
use bgpsim_netsim::time::{SimDuration, SimTime};
use bgpsim_topology::NodeId;
use proptest::prelude::*;

type Key = (NodeId, Prefix);

/// The reference: `Router`'s contract in the plainest data structures.
struct Reference {
    id: NodeId,
    peers: BTreeSet<NodeId>,
    config: BgpConfig,
    ribs: BTreeMap<Prefix, RibIn>,
    originated: BTreeSet<Prefix>,
    loc: BTreeMap<Prefix, LocRoute>,
    adj_out: BTreeMap<Key, AsPath>,
    mrai: BTreeMap<Key, SimTime>,
    stats: RouterStats,
}

impl Reference {
    fn new(id: NodeId, peers: impl IntoIterator<Item = NodeId>, config: BgpConfig) -> Self {
        Reference {
            id,
            peers: peers.into_iter().collect(),
            config,
            ribs: BTreeMap::new(),
            originated: BTreeSet::new(),
            loc: BTreeMap::new(),
            adj_out: BTreeMap::new(),
            mrai: BTreeMap::new(),
            stats: RouterStats::default(),
        }
    }

    fn set_originated(
        &mut self,
        prefix: Prefix,
        on: bool,
        now: SimTime,
        rng: &mut SimRng,
    ) -> RouterOutput {
        if on {
            self.originated.insert(prefix);
        } else {
            self.originated.remove(&prefix);
        }
        let mut out = RouterOutput::empty();
        self.decide(prefix, now, rng, &mut out);
        out
    }

    fn handle_message(
        &mut self,
        from: NodeId,
        msg: &BgpMessage,
        now: SimTime,
        rng: &mut SimRng,
    ) -> RouterOutput {
        let mut out = RouterOutput::empty();
        if !self.peers.contains(&from) {
            return out;
        }
        self.stats.messages_received += 1;
        let prefix = msg.prefix();
        let rib = self.ribs.entry(prefix).or_default();
        let assertion = self.config.enhancements.assertion;
        let purged = match msg {
            BgpMessage::Announce { path, .. } => {
                rib.insert(from, path.clone());
                rib.remove_where(|peer, stored| {
                    assertion
                        && peer != from
                        && stored
                            .suffix_from(from)
                            .is_some_and(|suffix| suffix != path.as_slice())
                })
            }
            BgpMessage::Withdraw { .. } => {
                rib.remove(from);
                rib.remove_where(|peer, stored| assertion && peer != from && stored.contains(from))
            }
        };
        self.stats.assertion_removals += purged.len() as u64;
        self.decide(prefix, now, rng, &mut out);
        out
    }

    fn on_mrai_expire(
        &mut self,
        peer: NodeId,
        prefix: Prefix,
        now: SimTime,
        rng: &mut SimRng,
    ) -> RouterOutput {
        let mut out = RouterOutput::empty();
        let superseded = self.mrai.get(&(peer, prefix)).is_some_and(|&at| at > now);
        if superseded || !self.peers.contains(&peer) {
            return out;
        }
        self.mrai.remove(&(peer, prefix));
        self.sync(peer, prefix, now, rng, &mut out);
        out
    }

    fn on_peer_down(&mut self, peer: NodeId, now: SimTime, rng: &mut SimRng) -> RouterOutput {
        let mut out = RouterOutput::empty();
        if !self.peers.remove(&peer) {
            return out;
        }
        self.mrai.retain(|&(p, _), _| p != peer);
        self.adj_out.retain(|&(p, _), _| p != peer);
        let learned: Vec<Prefix> = self.ribs.keys().copied().collect();
        for prefix in learned {
            self.ribs.get_mut(&prefix).unwrap().remove(peer);
            self.decide(prefix, now, rng, &mut out);
        }
        out
    }

    fn on_peer_up(&mut self, peer: NodeId, now: SimTime, rng: &mut SimRng) -> RouterOutput {
        let mut out = RouterOutput::empty();
        if !self.peers.insert(peer) {
            return out;
        }
        let routed: Vec<Prefix> = self.loc.keys().copied().collect();
        for prefix in routed {
            self.sync(peer, prefix, now, rng, &mut out);
        }
        out
    }

    fn reset_peer(&mut self, peer: NodeId, now: SimTime, rng: &mut SimRng) -> RouterOutput {
        if !self.peers.contains(&peer) {
            return RouterOutput::empty();
        }
        let mut out = self.on_peer_down(peer, now, rng);
        out.merge(self.on_peer_up(peer, now, rng));
        out
    }

    /// The decision process: always the full scan.
    fn decide(&mut self, prefix: Prefix, now: SimTime, rng: &mut SimRng, out: &mut RouterOutput) {
        self.stats.decisions_run += 1;
        let new = if self.originated.contains(&prefix) {
            Some(LocRoute {
                fib: FibEntry::Local,
                path: AsPath::origin_only(self.id),
            })
        } else {
            self.ribs.get(&prefix).and_then(|rib| {
                let best = select_best(rib, self.id, &ShortestPath)?;
                Some(LocRoute {
                    fib: FibEntry::Via(best.next_hop),
                    path: best.path,
                })
            })
        };
        if new.as_ref() == self.loc.get(&prefix) {
            return;
        }
        self.stats.route_changes += 1;
        out.fib_changes
            .push((prefix, new.as_ref().map(|route| route.fib)));
        match new {
            Some(route) => self.loc.insert(prefix, route),
            None => self.loc.remove(&prefix),
        };
        for peer in self.peers.clone() {
            self.sync(peer, prefix, now, rng, out);
        }
    }

    fn sync(
        &mut self,
        peer: NodeId,
        prefix: Prefix,
        now: SimTime,
        rng: &mut SimRng,
        out: &mut RouterOutput,
    ) {
        let enh = self.config.enhancements;
        let key = (peer, prefix);
        let mut desired = self.loc.get(&prefix).map(|route| route.path.clone());
        let via_ssld = enh.ssld && desired.as_ref().is_some_and(|path| path.contains(peer));
        if via_ssld {
            desired = None;
        }
        let advertised = self.adj_out.get(&key).cloned();
        let running = self.mrai.get(&key).is_some_and(|&at| now < at);
        if desired == advertised {
            return;
        }
        let withdraw = |this: &mut Self, out: &mut RouterOutput| {
            this.adj_out.remove(&key);
            out.sends.push((peer, BgpMessage::withdraw(prefix)));
            this.stats.withdrawals_sent += 1;
        };
        match desired {
            None => {
                if enh.wrate && running {
                    return;
                }
                withdraw(self, out);
                self.stats.ssld_conversions += u64::from(via_ssld);
                if enh.wrate {
                    self.start_mrai(key, now, rng, out);
                }
            }
            Some(path) if running => {
                let worse = advertised.is_some_and(|old| path.len() > old.len());
                if enh.ghost_flushing && worse {
                    withdraw(self, out);
                    self.stats.ghost_flushes += 1;
                }
            }
            Some(path) => {
                self.adj_out.insert(key, path.clone());
                out.sends.push((peer, BgpMessage::announce(prefix, path)));
                self.stats.announcements_sent += 1;
                self.start_mrai(key, now, rng, out);
            }
        }
    }

    fn start_mrai(&mut self, key: Key, now: SimTime, rng: &mut SimRng, out: &mut RouterOutput) {
        if self.config.mrai.is_zero() {
            return;
        }
        let j = self.config.mrai_jitter;
        let at = now + rng.jittered(self.config.mrai, j.lo, j.hi);
        self.mrai.insert(key, at);
        out.timers.push(MraiTimerRequest {
            peer: key.0,
            prefix: key.1,
            at,
        });
    }

    fn snapshot(&self) -> RouterState {
        RouterState {
            id: self.id,
            peers: self.peers.iter().copied().collect(),
            config: self.config,
            ribs: self
                .ribs
                .iter()
                .map(|(&prefix, rib)| {
                    let entries = rib.iter().map(|(peer, path)| (peer, path.clone()));
                    (prefix, entries.collect())
                })
                .collect(),
            originated: self.originated.iter().copied().collect(),
            loc: self.loc.iter().map(|(&p, r)| (p, r.clone())).collect(),
            adj_out: self.adj_out.iter().map(|(&k, p)| (k, p.clone())).collect(),
            mrai: self.mrai.iter().map(|(&k, &at)| (k, at)).collect(),
            stats: self.stats,
        }
    }
}

const SELF: u32 = 0;

/// The paper's five protocol variants.
fn config(variant: usize) -> BgpConfig {
    BgpConfig::default().with_enhancements(Enhancements::paper_variants()[variant])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One step is `((kind, peer, prefix), path tail, seconds elapsed)`.
    /// Peers come from 1..=6 with 1..=4 up at the start, so messages
    /// and expiries for sessions that are down are part of the mix;
    /// path tails draw from 0..8, which includes this router (poison
    /// reverse) and its peers (Assertion, SSLD).
    #[test]
    fn router_agrees_with_the_reference(
        variant in 0usize..5,
        seed in any::<u64>(),
        steps in proptest::collection::vec(
            ((0u8..15, 1u32..7, 0u32..2), proptest::collection::vec(0u32..8, 0..5), 0u64..20),
            1..80,
        ),
    ) {
        let id = NodeId::new(SELF);
        let peers = || (1..=4).map(NodeId::new);
        let mut router = Router::new(id, peers(), config(variant));
        let mut reference = Reference::new(id, peers(), config(variant));
        let (mut rng_a, mut rng_b) = (SimRng::new(seed), SimRng::new(seed));
        let mut now = SimTime::ZERO;
        for ((kind, peer, prefix), tail, elapsed) in steps {
            now += SimDuration::from_secs(elapsed);
            let (peer, prefix) = (NodeId::new(peer), Prefix::new(prefix));
            let announce = || {
                let mut ids = vec![peer.as_u32()];
                for hop in &tail {
                    if !ids.contains(hop) {
                        ids.push(*hop);
                    }
                }
                ids.push(100);
                BgpMessage::announce(prefix, AsPath::from_ids(ids))
            };
            let withdraw = BgpMessage::withdraw(prefix);
            let (a, b) = match kind {
                0..=5 => (
                    router.handle_message(peer, &announce(), now, &mut rng_a),
                    reference.handle_message(peer, &announce(), now, &mut rng_b),
                ),
                6 | 7 => (
                    router.handle_message(peer, &withdraw, now, &mut rng_a),
                    reference.handle_message(peer, &withdraw, now, &mut rng_b),
                ),
                8 | 9 => (
                    router.on_mrai_expire(peer, prefix, now, &mut rng_a),
                    reference.on_mrai_expire(peer, prefix, now, &mut rng_b),
                ),
                10 => (
                    router.on_peer_down(peer, now, &mut rng_a),
                    reference.on_peer_down(peer, now, &mut rng_b),
                ),
                11 => (
                    router.on_peer_up(peer, now, &mut rng_a),
                    reference.on_peer_up(peer, now, &mut rng_b),
                ),
                12 => (
                    router.reset_peer(peer, now, &mut rng_a),
                    reference.reset_peer(peer, now, &mut rng_b),
                ),
                13 => (
                    router.originate(prefix, now, &mut rng_a),
                    reference.set_originated(prefix, true, now, &mut rng_b),
                ),
                _ => (
                    router.withdraw_origin(prefix, now, &mut rng_a),
                    reference.set_originated(prefix, false, now, &mut rng_b),
                ),
            };
            prop_assert_eq!(&a, &b, "output of step kind {}", kind);
            prop_assert_eq!(router.stats(), reference.stats);
            prop_assert_eq!(router.snapshot(), reference.snapshot(), "state after step kind {}", kind);
        }
    }
}
