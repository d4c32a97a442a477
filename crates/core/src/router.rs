//! The BGP router state machine.
//!
//! [`Router`] implements the path-vector protocol of the ICDCS'04 study:
//! per-peer Adj-RIB-In, the decision process with path-based poison
//! reverse, per-`(peer, prefix)` MRAI timers (announcements only, per
//! RFC 1771), explicit withdrawals, and the four convergence
//! enhancements (SSLD, WRATE, Assertion, Ghost Flushing) as
//! configuration flags.
//!
//! The router is **simulator-agnostic**: each entry point takes the
//! current time and returns a [`RouterOutput`] describing messages to
//! send and timers to schedule. The host (crate `bgpsim-sim`) applies
//! link delays, models the serialized message-processing queue, and
//! calls back on timer expiry.

use bgpsim_netsim::rng::SimRng;
use bgpsim_netsim::time::SimTime;
use bgpsim_topology::NodeId;

use crate::aspath::AsPath;
use crate::config::BgpConfig;
use crate::decision::{most_preferred, RoutePolicy, ShortestPath};
use crate::message::BgpMessage;
use crate::output::{FibEntry, LocRoute, MraiTimerRequest, RouterOutput};
use crate::prefix::Prefix;

/// Everything a router holds about one `(prefix, peer)` pair. A
/// prefix's slots are aligned with the router's sorted `peers` vector,
/// so one binary search on `peers` per input locates all three tables.
#[derive(Debug, Clone, Default)]
struct PeerSlot {
    /// Adj-RIB-In: the peer's latest advertisement, and whether it
    /// contains this router (path-based poison reverse, decided once at
    /// insert instead of on every decision that scans the entry).
    rib_in: Option<(AsPath, bool)>,
    /// Adj-RIB-Out: the last advertisement sent; `None` = nothing
    /// advertised (the peer believes we have no route).
    adj_out: Option<AsPath>,
    /// Pending MRAI expiry, kept until the expiry callback clears it.
    /// The interval spaces consecutive announcements (with WRATE, also
    /// withdrawals) of one prefix to one peer, and is the study's
    /// dominant factor in loop duration (§3.2).
    mrai: Option<SimTime>,
}

impl PeerSlot {
    /// The stored path, if the decision process may use it.
    fn candidate(&self) -> Option<&AsPath> {
        match &self.rib_in {
            Some((path, false)) => Some(path),
            _ => None,
        }
    }

    /// Whether the MRAI timer is running at `now` (strictly before its
    /// expiry instant).
    fn mrai_running(&self, now: SimTime) -> bool {
        self.mrai.is_some_and(|at| now < at)
    }
}

/// One prefix's protocol state: flags, the selection, and a
/// [`PeerSlot`] per active peer.
#[derive(Debug)]
struct PrefixTable {
    prefix: Prefix,
    originated: bool,
    /// Set by the first message received for the prefix. Session events
    /// re-decide exactly the prefixes with this flag, so it is exported
    /// (as a possibly empty `ribs` row) and restored.
    learned: bool,
    /// Current selection.
    loc: Option<LocRoute>,
    slots: Vec<PeerSlot>,
}

impl PrefixTable {
    /// Assertion purge: drops every Adj-RIB-In entry other than slot
    /// `keep` whose path is `obsolete`; returns how many.
    fn purge(&mut self, keep: usize, obsolete: impl Fn(&AsPath) -> bool) -> u64 {
        let mut removed = 0;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if i != keep && slot.rib_in.as_ref().is_some_and(|(path, _)| obsolete(path)) {
                slot.rib_in = None;
                removed += 1;
            }
        }
        removed
    }
}

/// Counters describing a router's protocol activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Announcements sent.
    pub announcements_sent: u64,
    /// Withdrawals sent (including SSLD conversions and ghost flushes).
    pub withdrawals_sent: u64,
    /// Messages processed.
    pub messages_received: u64,
    /// Announcements converted to withdrawals by SSLD.
    pub ssld_conversions: u64,
    /// Immediate withdrawals emitted by Ghost Flushing.
    pub ghost_flushes: u64,
    /// Adj-RIB-In entries purged by the Assertion check.
    pub assertion_removals: u64,
    /// Decision-process runs that changed the selected route.
    pub route_changes: u64,
    /// Decision-process runs, whether or not the selection changed.
    pub decisions_run: u64,
}

impl RouterStats {
    /// Total messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.announcements_sent + self.withdrawals_sent
    }
}

/// A read-only export of a [`Router`]'s full state: every protocol
/// table as a sorted vector of plain data, so two routers (or one
/// router before and after an input) can be compared with `==`.
///
/// The route policy is not included — it is stateless configuration
/// (e.g. `ShortestPath`).
#[derive(Debug, Clone, PartialEq)]
pub struct RouterState {
    /// This router's node id.
    pub id: NodeId,
    /// Active peers, ascending.
    pub peers: Vec<NodeId>,
    /// The protocol configuration.
    pub config: BgpConfig,
    /// Per-prefix Adj-RIB-In contents. Empty tables are included: their
    /// presence decides which prefixes later session events re-decide.
    pub ribs: Vec<(Prefix, Vec<(NodeId, AsPath)>)>,
    /// Locally originated prefixes.
    pub originated: Vec<Prefix>,
    /// Current selection per prefix.
    pub loc: Vec<(Prefix, LocRoute)>,
    /// Last advertisement sent per `(peer, prefix)`.
    pub adj_out: Vec<((NodeId, Prefix), AsPath)>,
    /// Pending MRAI expiry per `(peer, prefix)`.
    pub mrai: Vec<((NodeId, Prefix), SimTime)>,
    /// Activity counters.
    pub stats: RouterStats,
}

/// A BGP speaker for one AS.
///
/// # Examples
///
/// Reproducing the 2-node loop setup of the paper's Figure 1: node 4
/// withdraws, and node 5 — still holding node 6's stale path — switches
/// to it.
///
/// ```
/// use bgpsim_core::prelude::*;
/// use bgpsim_netsim::rng::SimRng;
/// use bgpsim_netsim::time::SimTime;
/// use bgpsim_topology::NodeId;
///
/// let cfg = BgpConfig::default();
/// let mut rng = SimRng::new(1);
/// let n = NodeId::new;
/// let mut r5 = Router::new(n(5), [n(4), n(6)], cfg);
/// let p = Prefix::new(0);
/// let t = SimTime::ZERO;
///
/// // Node 5 learns the direct path from 4 and the longer one via 6.
/// r5.handle_message(n(4), &BgpMessage::announce(p, AsPath::from_ids([4, 0])), t, &mut rng);
/// r5.handle_message(n(6), &BgpMessage::announce(p, AsPath::from_ids([6, 4, 0])), t, &mut rng);
/// assert_eq!(r5.best(p).unwrap().path, AsPath::from_ids([5, 4, 0]));
///
/// // Link [4 0] fails: node 4 withdraws. Node 5 falls back to the
/// // (now obsolete) path through 6 — the seed of the transient loop.
/// let out = r5.handle_message(n(4), &BgpMessage::withdraw(p), SimTime::from_secs(1), &mut rng);
/// assert_eq!(r5.best(p).unwrap().path, AsPath::from_ids([5, 6, 4, 0]));
/// assert!(!out.fib_changes.is_empty());
/// ```
#[derive(Debug)]
pub struct Router<P: RoutePolicy = ShortestPath> {
    id: NodeId,
    /// Active peers, sorted ascending; a peer's position is its slot
    /// index in every [`PrefixTable`].
    peers: Vec<NodeId>,
    config: BgpConfig,
    policy: P,
    /// Per-prefix state, sorted by prefix.
    tables: Vec<PrefixTable>,
    stats: RouterStats,
}

impl<P: RoutePolicy> Router<P> {
    /// Creates a router with an explicit policy.
    pub fn with_policy<I>(id: NodeId, peers: I, config: BgpConfig, policy: P) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        config.validate();
        let mut peers: Vec<NodeId> = peers.into_iter().collect();
        peers.sort_unstable();
        peers.dedup();
        assert!(!peers.contains(&id), "router {id} cannot peer with itself");
        Router {
            id,
            peers,
            config,
            policy,
            tables: Vec::new(),
            stats: RouterStats::default(),
        }
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The currently active peers.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers.iter().copied()
    }

    /// The protocol configuration.
    pub fn config(&self) -> &BgpConfig {
        &self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// `peer`'s slot index, if it is an active peer.
    fn slot_of(&self, peer: NodeId) -> Option<usize> {
        self.peers.binary_search(&peer).ok()
    }

    /// Where `prefix`'s table is (`Ok`) or would be inserted (`Err`).
    fn find_table(&self, prefix: Prefix) -> Result<usize, usize> {
        self.tables.binary_search_by_key(&prefix, |t| t.prefix)
    }

    /// Index of `prefix`'s table, created empty on first use. An empty
    /// table is unobservable: it is exported nowhere and no session
    /// event visits it.
    fn table_index(&mut self, prefix: Prefix) -> usize {
        self.find_table(prefix).unwrap_or_else(|t| {
            let table = PrefixTable {
                prefix,
                originated: false,
                learned: false,
                loc: None,
                slots: vec![PeerSlot::default(); self.peers.len()],
            };
            self.tables.insert(t, table);
            t
        })
    }

    fn slot(&self, peer: NodeId, prefix: Prefix) -> Option<&PeerSlot> {
        Some(&self.tables[self.find_table(prefix).ok()?].slots[self.slot_of(peer)?])
    }

    /// The currently selected route for `prefix`, if any.
    pub fn best(&self, prefix: Prefix) -> Option<&LocRoute> {
        self.tables[self.find_table(prefix).ok()?].loc.as_ref()
    }

    /// The latest advertisement received from `peer` for `prefix`
    /// (the Adj-RIB-In entry), usable or not.
    pub fn learned_from(&self, peer: NodeId, prefix: Prefix) -> Option<&AsPath> {
        self.slot(peer, prefix)?
            .rib_in
            .as_ref()
            .map(|(path, _)| path)
    }

    /// The last advertisement sent to `peer` for `prefix`.
    pub fn advertised_to(&self, peer: NodeId, prefix: Prefix) -> Option<&AsPath> {
        self.slot(peer, prefix)?.adj_out.as_ref()
    }

    /// Starts originating `prefix`: install a local route and advertise
    /// to all peers.
    pub fn originate(&mut self, prefix: Prefix, now: SimTime, rng: &mut SimRng) -> RouterOutput {
        self.set_originated(prefix, true, now, rng)
    }

    /// Stops originating `prefix` — the `T_down` trigger: the
    /// destination becomes unreachable and the origin sends
    /// withdrawals.
    pub fn withdraw_origin(
        &mut self,
        prefix: Prefix,
        now: SimTime,
        rng: &mut SimRng,
    ) -> RouterOutput {
        self.set_originated(prefix, false, now, rng)
    }

    fn set_originated(
        &mut self,
        prefix: Prefix,
        originated: bool,
        now: SimTime,
        rng: &mut SimRng,
    ) -> RouterOutput {
        let t = self.table_index(prefix);
        self.tables[t].originated = originated;
        let mut out = RouterOutput::empty();
        self.run_decision(t, None, now, rng, &mut out);
        out
    }

    /// Processes a BGP message from `from` (already delayed and
    /// serialized by the host). Messages from unknown or inactive peers
    /// are ignored.
    pub fn handle_message(
        &mut self,
        from: NodeId,
        msg: &BgpMessage,
        now: SimTime,
        rng: &mut SimRng,
    ) -> RouterOutput {
        let Some(slot) = self.slot_of(from) else {
            return RouterOutput::empty();
        };
        self.stats.messages_received += 1;
        let prefix = msg.prefix();
        let t = self.table_index(prefix);
        let table = &mut self.tables[t];
        table.learned = true;
        let assertion = self.config.enhancements.assertion;
        let mut purged = 0;
        match msg {
            BgpMessage::Announce { path, .. } => {
                table.slots[slot].rib_in = Some((path.clone(), path.contains(self.id)));
                if assertion {
                    // Assertion check (Pei et al.): any stored backup
                    // path that routes *through* `from` but disagrees
                    // with what `from` just announced is obsolete.
                    purged = table.purge(slot, |stored| {
                        stored
                            .suffix_from(from)
                            .is_some_and(|suffix| suffix != path.as_slice())
                    });
                }
            }
            BgpMessage::Withdraw { .. } => {
                table.slots[slot].rib_in = None;
                if assertion {
                    // `from` has no route at all now; every stored path
                    // through it is obsolete.
                    purged = table.purge(slot, |stored| stored.contains(from));
                }
            }
        }
        self.stats.assertion_removals += purged;
        let mut out = RouterOutput::empty();
        // A purge changed other slots too, which needs the full scan.
        let only_changed = (purged == 0).then_some(slot);
        self.run_decision(t, only_changed, now, rng, &mut out);
        out
    }

    /// MRAI expiry callback for `(peer, prefix)`. The host must invoke
    /// this exactly at the instant given in the corresponding
    /// [`MraiTimerRequest`]. An expiry for a peer whose session is gone
    /// (its timers went with it) or for a prefix never seen is ignored.
    pub fn on_mrai_expire(
        &mut self,
        peer: NodeId,
        prefix: Prefix,
        now: SimTime,
        rng: &mut SimRng,
    ) -> RouterOutput {
        let mut out = RouterOutput::empty();
        let (Some(i), Ok(t)) = (self.slot_of(peer), self.find_table(prefix)) else {
            return out;
        };
        let slot = &mut self.tables[t].slots[i];
        // A restarted timer supersedes this expiry.
        if slot.mrai_running(now) {
            return out;
        }
        slot.mrai = None;
        self.sync_peers(t, i..i + 1, now, rng, &mut out);
        out
    }

    /// Handles loss of the session to `peer` (link failure): drop
    /// everything held for it and rerun the decision process for every
    /// prefix a message was ever received for.
    pub fn on_peer_down(&mut self, peer: NodeId, now: SimTime, rng: &mut SimRng) -> RouterOutput {
        let mut out = RouterOutput::empty();
        let Some(i) = self.slot_of(peer) else {
            return out;
        };
        self.peers.remove(i);
        for table in &mut self.tables {
            table.slots.remove(i);
        }
        for t in 0..self.tables.len() {
            if self.tables[t].learned {
                self.run_decision(t, None, now, rng, &mut out);
            }
        }
        out
    }

    /// Tears the session to `peer` down and immediately re-establishes
    /// it (a BGP session reset: the transport link stays up).
    ///
    /// The down half flushes the peer's routes and reruns the decision
    /// process; the up half re-advertises the post-reset Loc-RIB, as a
    /// real session restart would. Returns the merged output of both
    /// halves. A reset for an unknown peer is a no-op — unlike
    /// [`Router::on_peer_up`], it does not create a session.
    pub fn reset_peer(&mut self, peer: NodeId, now: SimTime, rng: &mut SimRng) -> RouterOutput {
        if self.slot_of(peer).is_none() {
            return RouterOutput::empty();
        }
        let mut out = self.on_peer_down(peer, now, rng);
        out.merge(self.on_peer_up(peer, now, rng));
        out
    }

    /// Handles a new (or restored) session to `peer`: advertise all
    /// current routes to it.
    pub fn on_peer_up(&mut self, peer: NodeId, now: SimTime, rng: &mut SimRng) -> RouterOutput {
        assert!(peer != self.id, "router {peer} cannot peer with itself");
        let mut out = RouterOutput::empty();
        let Err(i) = self.peers.binary_search(&peer) else {
            return out;
        };
        self.peers.insert(i, peer);
        for table in &mut self.tables {
            table.slots.insert(i, PeerSlot::default());
        }
        for t in 0..self.tables.len() {
            if self.tables[t].loc.is_some() {
                self.sync_peers(t, i..i + 1, now, rng, &mut out);
            }
        }
        out
    }

    /// The decision process over table `t`'s Adj-RIB-In: the most
    /// preferred entry that does not contain this router (poison
    /// reverse) and passes the import filter. This full scan is the
    /// general path and the reference the [`challenge`](Self::challenge)
    /// shortcut is checked against.
    fn select(&self, t: usize) -> Option<(NodeId, &AsPath)> {
        let candidates = self.peers.iter().zip(&self.tables[t].slots);
        most_preferred(
            &self.policy,
            candidates
                .filter_map(|(&peer, slot)| Some((peer, slot.candidate()?)))
                .filter(|&(peer, path)| self.policy.accepts(peer, path)),
        )
    }

    /// The decision process when only slot `changed`'s Adj-RIB-In entry
    /// differs from what the held selection was chosen over: every
    /// other entry already lost to the held one, so the changed entry
    /// alone challenges it. Returns whether it takes the selection, or
    /// `None` when that is not what decides — the changed slot *is* the
    /// held selection — and the caller must rescan.
    fn challenge(&self, t: usize, changed: usize) -> Option<bool> {
        let table = &self.tables[t];
        let entry = |i: usize| {
            let peer = self.peers[i];
            let path = table.slots[i].candidate()?;
            self.policy.accepts(peer, path).then_some((peer, path))
        };
        let challenger = entry(changed);
        let Some(route) = &table.loc else {
            return Some(challenger.is_some());
        };
        let via = route.fib.via()?;
        if via == self.peers[changed] {
            return None;
        }
        let Some(challenger) = challenger else {
            return Some(false);
        };
        let held = self.slot_of(via)?;
        Some(match self.policy.compare(challenger, entry(held)?) {
            std::cmp::Ordering::Less => true,
            // The scan keeps the earlier slot on a tie, so must this.
            std::cmp::Ordering::Equal => changed < held,
            std::cmp::Ordering::Greater => false,
        })
    }

    /// Runs the decision process for table `t`; on change, updates the
    /// FIB and synchronizes every peer. `only_changed` names the one
    /// slot whose Adj-RIB-In entry changed since the last run, when the
    /// caller knows that nothing else did.
    fn run_decision(
        &mut self,
        t: usize,
        only_changed: Option<usize>,
        now: SimTime,
        rng: &mut SimRng,
        out: &mut RouterOutput,
    ) {
        self.stats.decisions_run += 1;
        let table = &self.tables[t];
        let cur = table.loc.as_ref();
        // Whether `best`, with this router prepended, is the route held
        // (`cur.path` head is always `self.id`, so comparing the rest
        // is exact and materializes nothing).
        let is_held = |best: Option<(NodeId, &AsPath)>| match (best, cur) {
            (None, None) => true,
            (Some((peer, path)), Some(l)) => {
                l.fib == FibEntry::Via(peer) && l.path.as_slice()[1..] == *path.as_slice()
            }
            _ => false,
        };
        let new: Option<LocRoute> = if table.originated {
            // A local route's path is always `(self)`, so matching FIB
            // entries imply an unchanged selection.
            if cur.is_some_and(|l| l.fib == FibEntry::Local) {
                return;
            }
            Some(LocRoute {
                fib: FibEntry::Local,
                path: AsPath::origin_only(self.id),
            })
        } else {
            let verdict = only_changed.and_then(|slot| Some((slot, self.challenge(t, slot)?)));
            let best = match verdict {
                Some((_, false)) => {
                    debug_assert!(is_held(self.select(t)), "shortcut kept a loser");
                    return;
                }
                Some((slot, true)) => table.slots[slot]
                    .candidate()
                    .map(|path| (self.peers[slot], path)),
                None => self.select(t),
            };
            debug_assert_eq!(best, self.select(t), "shortcut != full scan");
            if is_held(best) {
                return;
            }
            best.map(|(peer, path)| LocRoute {
                fib: FibEntry::Via(peer),
                path: path.prepend(self.id),
            })
        };
        self.stats.route_changes += 1;
        out.fib_changes
            .push((table.prefix, new.as_ref().map(|route| route.fib)));
        self.tables[t].loc = new;
        out.sends.reserve(self.peers.len());
        self.sync_peers(t, 0..self.peers.len(), now, rng, out);
    }

    /// Brings the view the peers in slots `range` have of table `t`'s
    /// prefix in line with the current selection, respecting MRAI and
    /// the configured enhancements. Paths are cloned only when a
    /// message actually goes out.
    fn sync_peers(
        &mut self,
        t: usize,
        range: std::ops::Range<usize>,
        now: SimTime,
        rng: &mut SimRng,
        out: &mut RouterOutput,
    ) {
        let enh = self.config.enhancements;
        let table = &mut self.tables[t];
        let prefix = table.prefix;
        for i in range {
            let peer = self.peers[i];
            let slot = &mut table.slots[i];
            let mut desired: Option<&AsPath> = table
                .loc
                .as_ref()
                .filter(|r| self.policy.export_allowed(r.fib.via(), peer))
                .map(|r| &r.path);
            // SSLD: the receiver would discard a path containing itself,
            // so send the (MRAI-exempt) withdrawal instead of the
            // (MRAI-gated) poison-reverse announcement.
            let via_ssld = enh.ssld && desired.is_some_and(|path| path.contains(peer));
            if via_ssld {
                desired = None;
            }
            let timer_running = slot.mrai_running(now);
            // Starts the MRAI timer after a send (a zero MRAI never does).
            let mut start_mrai = |slot: &mut PeerSlot, out: &mut RouterOutput| {
                if self.config.mrai.is_zero() {
                    return;
                }
                let j = self.config.mrai_jitter;
                let at = now + rng.jittered(self.config.mrai, j.lo, j.hi);
                slot.mrai = Some(at);
                out.timers.push(MraiTimerRequest { peer, prefix, at });
            };
            match desired {
                // The peer already believes what it should.
                None if slot.adj_out.is_none() => {}
                Some(path) if slot.adj_out.as_ref() == Some(path) => {}
                // WRATE holds the withdrawal until the timer fires;
                // `on_mrai_expire` re-syncs from current state.
                None if enh.wrate && timer_running => {}
                None => {
                    slot.adj_out = None;
                    out.sends.push((peer, BgpMessage::withdraw(prefix)));
                    self.stats.withdrawals_sent += 1;
                    self.stats.ssld_conversions += u64::from(via_ssld);
                    if enh.wrate {
                        start_mrai(slot, out);
                    }
                }
                // The announcement waits for the timer; expiry re-syncs.
                Some(path) if timer_running => {
                    // Ghost Flushing: the route got worse and the
                    // announcement is stuck behind MRAI — flush the
                    // peer's stale knowledge with an immediate
                    // withdrawal.
                    let worse = |old: &AsPath| path.len() > old.len();
                    if enh.ghost_flushing && slot.adj_out.as_ref().is_some_and(worse) {
                        slot.adj_out = None;
                        out.sends.push((peer, BgpMessage::withdraw(prefix)));
                        self.stats.withdrawals_sent += 1;
                        self.stats.ghost_flushes += 1;
                    }
                }
                Some(path) => {
                    slot.adj_out = Some(path.clone());
                    out.sends
                        .push((peer, BgpMessage::announce(prefix, path.clone())));
                    self.stats.announcements_sent += 1;
                    start_mrai(slot, out);
                }
            }
        }
    }

    /// `((peer, prefix), value)` for every slot `field` yields a value
    /// for, in ascending key order — the exported form of the per-slot
    /// tables.
    fn export_slots<T>(
        &self,
        field: impl Fn(&PeerSlot) -> Option<T>,
    ) -> Vec<((NodeId, Prefix), T)> {
        let mut rows = Vec::new();
        for (i, &peer) in self.peers.iter().enumerate() {
            for table in &self.tables {
                rows.extend(field(&table.slots[i]).map(|v| ((peer, table.prefix), v)));
            }
        }
        rows
    }

    /// Exports the full router state (see [`RouterState`]).
    pub fn snapshot(&self) -> RouterState {
        let learned = self.tables.iter().filter(|t| t.learned);
        RouterState {
            id: self.id,
            peers: self.peers.clone(),
            config: self.config,
            ribs: learned
                .map(|table| {
                    let entries = self.peers.iter().zip(&table.slots);
                    let entries = entries
                        .filter_map(|(&peer, slot)| Some((peer, slot.rib_in.as_ref()?.0.clone())));
                    (table.prefix, entries.collect())
                })
                .collect(),
            originated: self
                .tables
                .iter()
                .filter(|t| t.originated)
                .map(|t| t.prefix)
                .collect(),
            loc: self
                .tables
                .iter()
                .filter_map(|t| Some((t.prefix, t.loc.clone()?)))
                .collect(),
            adj_out: self.export_slots(|slot| slot.adj_out.clone()),
            mrai: self.export_slots(|slot| slot.mrai),
            stats: self.stats,
        }
    }
}

impl Router<ShortestPath> {
    /// Creates a router with the paper's shortest-path policy.
    pub fn new<I>(id: NodeId, peers: I, config: BgpConfig) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        Router::with_policy(id, peers, config, ShortestPath)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Enhancements, Jitter};
    use bgpsim_netsim::time::SimDuration;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn p() -> Prefix {
        Prefix::new(0)
    }

    /// Deterministic config: no jitter, 30 s MRAI.
    fn cfg() -> BgpConfig {
        BgpConfig::default().with_jitter(Jitter::NONE)
    }

    fn cfg_enh(enh: Enhancements) -> BgpConfig {
        cfg().with_enhancements(enh)
    }

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    fn announce(path: &[u32]) -> BgpMessage {
        BgpMessage::announce(p(), AsPath::from_ids(path.iter().copied()))
    }

    #[test]
    fn origin_advertises_to_all_peers() {
        let mut r = Router::new(n(0), [n(1), n(2)], cfg());
        let out = r.originate(p(), SimTime::ZERO, &mut rng());
        assert_eq!(out.sends.len(), 2);
        for (_, msg) in &out.sends {
            assert_eq!(msg.path(), Some(&AsPath::from_ids([0])));
        }
        assert_eq!(out.fib_changes, vec![(p(), Some(FibEntry::Local))]);
        assert_eq!(out.timers.len(), 2, "MRAI timers start on announce");
        assert_eq!(r.best(p()).unwrap().fib, FibEntry::Local);
    }

    #[test]
    fn learns_and_propagates_best_path() {
        let mut r = Router::new(n(5), [n(4), n(6)], cfg());
        let mut rg = rng();
        let out = r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        assert_eq!(r.best(p()).unwrap().path, AsPath::from_ids([5, 4, 0]));
        assert_eq!(r.best(p()).unwrap().fib, FibEntry::Via(n(4)));
        // Advertises (5 4 0) to both peers — including back to 4
        // (path-based poison reverse information).
        assert_eq!(out.sends.len(), 2);
        let to_4 = out.sends.iter().find(|(to, _)| *to == n(4)).unwrap();
        assert_eq!(to_4.1.path(), Some(&AsPath::from_ids([5, 4, 0])));
    }

    #[test]
    fn poison_reverse_discards_looped_paths() {
        let mut r = Router::new(n(4), [n(5), n(6)], cfg());
        let mut rg = rng();
        r.handle_message(n(6), &announce(&[6, 4, 0]), SimTime::ZERO, &mut rg);
        assert_eq!(r.best(p()), None, "path containing self is unusable");
    }

    #[test]
    fn withdrawal_falls_back_to_stale_path() {
        // The Figure 1 transition: this is how the 2-node loop seeds.
        let mut r = Router::new(n(5), [n(4), n(6)], cfg());
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(n(6), &announce(&[6, 4, 0]), SimTime::ZERO, &mut rg);
        let out = r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(1),
            &mut rg,
        );
        let best = r.best(p()).unwrap();
        assert_eq!(best.path, AsPath::from_ids([5, 6, 4, 0]));
        assert_eq!(best.fib, FibEntry::Via(n(6)));
        assert_eq!(out.fib_changes, vec![(p(), Some(FibEntry::Via(n(6))))]);
    }

    #[test]
    fn no_route_sends_withdrawals_immediately_despite_mrai() {
        let mut r = Router::new(n(5), [n(4)], cfg());
        let mut rg = rng();
        // Learn and advertise: MRAI timer now running toward peer 4.
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        // Withdrawal arrives 1 s later — our own withdrawal to peers
        // must go out immediately (RFC 1771: MRAI gates announcements
        // only).
        let out = r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(1),
            &mut rg,
        );
        assert_eq!(out.sends.len(), 1);
        assert!(out.sends[0].1.is_withdraw());
    }

    #[test]
    fn mrai_delays_second_announcement() {
        let mut r = Router::new(n(5), [n(4), n(6)], cfg());
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 9, 0]), SimTime::ZERO, &mut rg);
        // One second later node 6 offers a *shorter* path (6 0):
        // decision changes, but the announcement to each peer is gated
        // by the running MRAI timers.
        let out = r.handle_message(n(6), &announce(&[6, 0]), SimTime::from_secs(1), &mut rg);
        assert_eq!(
            r.best(p()).unwrap().path,
            AsPath::from_ids([5, 6, 0]),
            "decision itself is immediate"
        );
        assert!(
            out.sends.is_empty(),
            "announcements must wait for MRAI expiry"
        );
        // At expiry the pending change goes out.
        let out = r.on_mrai_expire(n(4), p(), SimTime::from_secs(30), &mut rg);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].1.path(), Some(&AsPath::from_ids([5, 6, 0])));
        assert_eq!(out.timers.len(), 1, "timer restarts after send");
    }

    #[test]
    fn mrai_expiry_with_no_change_is_silent() {
        let mut r = Router::new(n(5), [n(4)], cfg());
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        let out = r.on_mrai_expire(n(4), p(), SimTime::from_secs(30), &mut rg);
        assert!(out.is_empty());
    }

    #[test]
    fn stale_mrai_expiry_is_ignored_after_restart() {
        let mut r = Router::new(n(5), [n(4), n(6)], cfg());
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 9, 0]), SimTime::ZERO, &mut rg);
        // Change arrives during the first interval…
        r.handle_message(n(6), &announce(&[6, 0]), SimTime::from_secs(1), &mut rg);
        // …expiry at t=30 sends and restarts the timer to t=60.
        let out = r.on_mrai_expire(n(4), p(), SimTime::from_secs(30), &mut rg);
        assert_eq!(out.sends.len(), 1);
        // A stale duplicate expiry callback (e.g. the host delivered an
        // old event) must be a no-op while the new timer runs.
        let out2 = r.on_mrai_expire(n(4), p(), SimTime::from_secs(31), &mut rg);
        assert!(out2.is_empty());
    }

    #[test]
    fn no_resend_of_identical_route() {
        let mut r = Router::new(n(5), [n(4)], cfg());
        let mut rg = rng();
        let out1 = r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        assert_eq!(out1.sends.len(), 1);
        // The same announcement again: nothing changes, nothing sent.
        let out2 = r.handle_message(n(4), &announce(&[4, 0]), SimTime::from_secs(40), &mut rg);
        assert!(out2.sends.is_empty());
        assert!(out2.fib_changes.is_empty());
    }

    #[test]
    fn peer_down_drops_routes_and_finds_alternative() {
        let mut r = Router::new(n(6), [n(3), n(5)], cfg());
        let mut rg = rng();
        r.handle_message(n(5), &announce(&[5, 4, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(n(3), &announce(&[3, 2, 1, 0]), SimTime::ZERO, &mut rg);
        assert_eq!(r.best(p()).unwrap().fib, FibEntry::Via(n(5)));
        let out = r.on_peer_down(n(5), SimTime::from_secs(1), &mut rg);
        assert_eq!(r.best(p()).unwrap().fib, FibEntry::Via(n(3)));
        assert_eq!(r.best(p()).unwrap().path, AsPath::from_ids([6, 3, 2, 1, 0]));
        assert!(out.fib_changes.contains(&(p(), Some(FibEntry::Via(n(3))))));
        // No message goes to the dead peer.
        assert!(out.sends.iter().all(|(to, _)| *to != n(5)));
    }

    #[test]
    fn peer_down_twice_is_noop() {
        let mut r = Router::new(n(6), [n(5)], cfg());
        let mut rg = rng();
        r.handle_message(n(5), &announce(&[5, 0]), SimTime::ZERO, &mut rg);
        let _ = r.on_peer_down(n(5), SimTime::from_secs(1), &mut rg);
        let out = r.on_peer_down(n(5), SimTime::from_secs(2), &mut rg);
        assert!(out.is_empty());
    }

    #[test]
    fn messages_from_unknown_peers_ignored() {
        let mut r = Router::new(n(6), [n(5)], cfg());
        let mut rg = rng();
        let out = r.handle_message(n(9), &announce(&[9, 0]), SimTime::ZERO, &mut rg);
        assert!(out.is_empty());
        assert_eq!(r.best(p()), None);
    }

    #[test]
    fn message_and_expiry_for_a_closed_session_are_ignored() {
        let mut r = Router::new(n(5), [n(4), n(6)], cfg());
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        r.on_peer_down(n(6), SimTime::from_secs(1), &mut rg);
        let before = r.snapshot();
        // The MRAI timer started toward 6 at t=0 still fires, and a
        // message 6 sent before the session closed still arrives.
        let out = r.on_mrai_expire(n(6), p(), SimTime::from_secs(30), &mut rg);
        assert!(out.is_empty());
        let out = r.handle_message(n(6), &announce(&[6, 0]), SimTime::from_secs(30), &mut rg);
        assert!(out.is_empty());
        // Neither does an expiry for a node that never was a peer.
        let out = r.on_mrai_expire(n(9), p(), SimTime::from_secs(30), &mut rg);
        assert!(out.is_empty());
        assert_eq!(r.snapshot(), before, "ignored inputs leave no trace");
    }

    #[test]
    fn peer_down_forgets_what_was_advertised_even_with_an_empty_rib() {
        // An origin whose peers never announce back (SSLD suppresses
        // every path through it) has no Adj-RIB-In for its own prefix;
        // a session that closes and reopens must be re-advertised to
        // all the same.
        let mut r = Router::new(n(0), [n(1)], cfg_enh(Enhancements::ssld()));
        let mut rg = rng();
        r.originate(p(), SimTime::ZERO, &mut rg);
        assert!(r.advertised_to(n(1), p()).is_some());
        r.on_peer_down(n(1), SimTime::from_secs(40), &mut rg);
        let out = r.on_peer_up(n(1), SimTime::from_secs(50), &mut rg);
        assert_eq!(out.sends.len(), 1, "the reopened session learns the route");
        assert_eq!(out.sends[0].1.path(), Some(&AsPath::from_ids([0])));
    }

    #[test]
    fn reset_peer_flushes_then_readvertises() {
        let mut r = Router::new(n(6), [n(3), n(5)], cfg());
        let mut rg = rng();
        r.handle_message(n(5), &announce(&[5, 4, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(n(3), &announce(&[3, 2, 1, 0]), SimTime::ZERO, &mut rg);
        assert_eq!(r.best(p()).unwrap().fib, FibEntry::Via(n(5)));
        let out = r.reset_peer(n(5), SimTime::from_secs(1), &mut rg);
        // The down half discarded 5's route; the best is now via 3.
        assert_eq!(r.best(p()).unwrap().fib, FibEntry::Via(n(3)));
        assert!(out.fib_changes.contains(&(p(), Some(FibEntry::Via(n(3))))));
        // The up half re-established the session and re-advertised the
        // post-reset Loc-RIB to the reset peer.
        assert!(r.peers().any(|q| q == n(5)));
        let to_5 = out.sends.iter().find(|(to, _)| *to == n(5)).unwrap();
        assert_eq!(to_5.1.path(), Some(&AsPath::from_ids([6, 3, 2, 1, 0])));
    }

    #[test]
    fn reset_unknown_peer_is_noop() {
        let mut r = Router::new(n(6), [n(5)], cfg());
        let mut rg = rng();
        r.handle_message(n(5), &announce(&[5, 0]), SimTime::ZERO, &mut rg);
        let out = r.reset_peer(n(9), SimTime::from_secs(1), &mut rg);
        assert!(out.is_empty());
        assert!(!r.peers().any(|q| q == n(9)), "reset must not create peers");
    }

    #[test]
    fn peer_up_advertises_current_routes() {
        let mut r = Router::new(n(5), [n(4)], cfg());
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        let out = r.on_peer_up(n(7), SimTime::from_secs(1), &mut rg);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, n(7));
        assert_eq!(out.sends[0].1.path(), Some(&AsPath::from_ids([5, 4, 0])));
    }

    #[test]
    fn withdraw_origin_floods_withdrawals() {
        let mut r = Router::new(n(0), [n(1), n(2), n(3)], cfg());
        let mut rg = rng();
        r.originate(p(), SimTime::ZERO, &mut rg);
        let out = r.withdraw_origin(p(), SimTime::from_secs(100), &mut rg);
        assert_eq!(out.sends.len(), 3);
        assert!(out.sends.iter().all(|(_, m)| m.is_withdraw()));
        assert_eq!(out.fib_changes, vec![(p(), None)]);
        assert_eq!(r.best(p()), None);
    }

    // ---------- Enhancement: SSLD ----------

    #[test]
    fn ssld_converts_looped_announcement_to_withdrawal() {
        // Figure 1(b) with SSLD: node 5's new path (5 6 4 0) contains
        // node 6, so instead of announcing it to 6, node 5 sends an
        // immediate withdrawal.
        let mut r = Router::new(n(5), [n(4), n(6)], cfg_enh(Enhancements::ssld()));
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(n(6), &announce(&[6, 4, 0]), SimTime::ZERO, &mut rg);
        let out = r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(1),
            &mut rg,
        );
        // New best is (5 6 4 0); to node 6 that becomes a withdrawal.
        let to_6: Vec<_> = out.sends.iter().filter(|(to, _)| *to == n(6)).collect();
        assert_eq!(to_6.len(), 1);
        assert!(to_6[0].1.is_withdraw());
        assert_eq!(r.stats().ssld_conversions, 1);
        // Nothing was ever advertised to node 4 (the very first route
        // (5 4 0) already contained node 4, so SSLD suppressed it), so
        // no withdrawal is owed to node 4 either.
        let to_4: Vec<_> = out.sends.iter().filter(|(to, _)| *to == n(4)).collect();
        assert!(to_4.is_empty());
    }

    #[test]
    fn ssld_withdrawal_bypasses_running_mrai() {
        let mut r = Router::new(n(5), [n(4), n(6)], cfg_enh(Enhancements::ssld()));
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(n(6), &announce(&[6, 4, 0]), SimTime::ZERO, &mut rg);
        // MRAI timers to both peers are running (started at t=0).
        // Withdrawal from 4 at t=1: SSLD withdrawal to 6 must go NOW.
        let out = r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(1),
            &mut rg,
        );
        assert!(out
            .sends
            .iter()
            .any(|(to, m)| *to == n(6) && m.is_withdraw()));
    }

    #[test]
    fn ssld_suppresses_when_nothing_advertised() {
        let mut r = Router::new(n(5), [n(6)], cfg_enh(Enhancements::ssld()));
        let mut rg = rng();
        // First route learned already contains peer 6: nothing was ever
        // advertised to 6, so SSLD sends nothing at all.
        let out = r.handle_message(n(6), &announce(&[6, 4, 0]), SimTime::ZERO, &mut rg);
        assert!(out.sends.is_empty());
    }

    // ---------- Enhancement: WRATE ----------

    #[test]
    fn wrate_delays_withdrawal_until_expiry() {
        let mut r = Router::new(n(5), [n(4), n(6)], cfg_enh(Enhancements::wrate()));
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        // Lose the route at t=1 while the MRAI timer (started at t=0)
        // still runs: under WRATE the withdrawal is held back.
        let out = r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(1),
            &mut rg,
        );
        assert!(out.sends.is_empty(), "WRATE gates withdrawals too");
        // Expiry releases it.
        let out = r.on_mrai_expire(n(6), p(), SimTime::from_secs(30), &mut rg);
        assert_eq!(out.sends.len(), 1);
        assert!(out.sends[0].1.is_withdraw());
        assert_eq!(out.timers.len(), 1, "WRATE restarts the timer on withdraw");
    }

    #[test]
    fn wrate_sends_withdrawal_when_timer_idle() {
        let mut r = Router::new(n(5), [n(4)], cfg_enh(Enhancements::wrate()));
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        // After the timer has long expired, a withdrawal flows freely.
        let out = r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(60),
            &mut rg,
        );
        assert_eq!(out.sends.len(), 1);
        assert!(out.sends[0].1.is_withdraw());
    }

    // ---------- Enhancement: Assertion ----------

    #[test]
    fn assertion_purges_paths_through_withdrawing_peer() {
        // Paper §5: "when node 5 receives a withdrawal message from
        // node 4, it will also remove the backup path (5 6 4 0) since
        // the path goes through node 4."
        let mut r = Router::new(n(5), [n(4), n(6)], cfg_enh(Enhancements::assertion()));
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(n(6), &announce(&[6, 4, 0]), SimTime::ZERO, &mut rg);
        let out = r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(1),
            &mut rg,
        );
        assert_eq!(r.best(p()), None, "obsolete backup must not be used");
        assert_eq!(r.stats().assertion_removals, 1);
        // And we tell everyone we have no route.
        assert!(out.sends.iter().any(|(_, m)| m.is_withdraw()));
    }

    #[test]
    fn assertion_purges_disagreeing_backups_on_announce() {
        let mut r = Router::new(n(5), [n(4), n(6)], cfg_enh(Enhancements::assertion()));
        let mut rg = rng();
        r.handle_message(n(6), &announce(&[6, 4, 0]), SimTime::ZERO, &mut rg);
        // Node 4 announces a *different* path than the (4 0) subpath
        // stored inside 6's route: 6's route is obsolete.
        r.handle_message(n(4), &announce(&[4, 7, 0]), SimTime::from_secs(1), &mut rg);
        assert_eq!(r.learned_from(n(6), p()), None);
        assert_eq!(r.stats().assertion_removals, 1);
        assert_eq!(r.best(p()).unwrap().path, AsPath::from_ids([5, 4, 7, 0]));
    }

    #[test]
    fn assertion_keeps_agreeing_backups() {
        let mut r = Router::new(n(5), [n(4), n(6)], cfg_enh(Enhancements::assertion()));
        let mut rg = rng();
        r.handle_message(n(6), &announce(&[6, 4, 0]), SimTime::ZERO, &mut rg);
        // Node 4 announces exactly the subpath that 6's route embeds:
        // consistent, keep it.
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::from_secs(1), &mut rg);
        assert!(r.learned_from(n(6), p()).is_some());
        assert_eq!(r.stats().assertion_removals, 0);
    }

    #[test]
    fn assertion_ignores_paths_not_through_peer() {
        let mut r = Router::new(n(5), [n(3), n(4)], cfg_enh(Enhancements::assertion()));
        let mut rg = rng();
        r.handle_message(n(3), &announce(&[3, 2, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(1),
            &mut rg,
        );
        assert!(r.learned_from(n(3), p()).is_some());
        assert_eq!(r.stats().assertion_removals, 0);
    }

    // ---------- Enhancement: Ghost Flushing ----------

    #[test]
    fn ghost_flushing_withdraws_when_path_worsens_under_mrai() {
        let mut r = Router::new(n(5), [n(4), n(6)], cfg_enh(Enhancements::ghost_flushing()));
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(n(6), &announce(&[6, 9, 8, 0]), SimTime::ZERO, &mut rg);
        // Lose the short path at t=1: the new best (5 6 9 8 0) is
        // longer than the advertised (5 4 0) and MRAI is running —
        // ghost-flush both peers with immediate withdrawals.
        let out = r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(1),
            &mut rg,
        );
        let withdrawals: Vec<_> = out.sends.iter().filter(|(_, m)| m.is_withdraw()).collect();
        assert_eq!(withdrawals.len(), 2);
        assert_eq!(r.stats().ghost_flushes, 2);
        // The better-path announcement still waits for the timer; at
        // expiry it goes out (adj-out was flushed to "nothing").
        let out = r.on_mrai_expire(n(6), p(), SimTime::from_secs(30), &mut rg);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(
            out.sends[0].1.path(),
            Some(&AsPath::from_ids([5, 6, 9, 8, 0]))
        );
    }

    #[test]
    fn ghost_flushing_silent_when_path_improves() {
        let mut r = Router::new(n(5), [n(4), n(6)], cfg_enh(Enhancements::ghost_flushing()));
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 9, 0]), SimTime::ZERO, &mut rg);
        // A better (shorter) path arrives during MRAI: no flushing —
        // the stale-but-valid longer route at the peers is harmless.
        let out = r.handle_message(n(6), &announce(&[6, 0]), SimTime::from_secs(1), &mut rg);
        assert!(out.sends.is_empty());
        assert_eq!(r.stats().ghost_flushes, 0);
    }

    #[test]
    fn ghost_flushing_flushes_once_per_degradation() {
        let mut r = Router::new(
            n(5),
            [n(4), n(6), n(7)],
            cfg_enh(Enhancements::ghost_flushing()),
        );
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(n(6), &announce(&[6, 9, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(n(7), &announce(&[7, 9, 8, 0]), SimTime::ZERO, &mut rg);
        let before = r.stats().withdrawals_sent;
        r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(1),
            &mut rg,
        );
        let flushed = r.stats().withdrawals_sent - before;
        assert_eq!(flushed, 3, "one flush per peer");
        // Degrading again (6 withdraws, fall to path via 7): adj-out is
        // already flushed, so no second flush for the same peers.
        let before = r.stats().ghost_flushes;
        r.handle_message(
            n(6),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(2),
            &mut rg,
        );
        assert_eq!(r.stats().ghost_flushes, before);
    }

    // ---------- misc ----------

    #[test]
    fn zero_mrai_never_starts_timers() {
        let mut r = Router::new(n(5), [n(4)], cfg().with_mrai(SimDuration::ZERO));
        let mut rg = rng();
        let out = r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        assert_eq!(out.sends.len(), 1);
        assert!(out.timers.is_empty());
        // Immediate subsequent change also flows immediately.
        let out = r.handle_message(
            n(4),
            &announce(&[4, 9, 0]),
            SimTime::from_millis(1),
            &mut rg,
        );
        assert_eq!(out.sends.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot peer with itself")]
    fn self_peering_rejected() {
        let _ = Router::new(n(1), [n(1)], cfg());
    }

    #[test]
    fn stats_accumulate() {
        let mut r = Router::new(n(5), [n(4)], cfg());
        let mut rg = rng();
        r.handle_message(n(4), &announce(&[4, 0]), SimTime::ZERO, &mut rg);
        r.handle_message(
            n(4),
            &BgpMessage::withdraw(p()),
            SimTime::from_secs(1),
            &mut rg,
        );
        let s = r.stats();
        assert_eq!(s.messages_received, 2);
        assert_eq!(s.announcements_sent, 1);
        assert_eq!(s.withdrawals_sent, 1);
        assert_eq!(s.messages_sent(), 2);
        assert_eq!(s.route_changes, 2);
    }
}
