//! The assembled network simulation.
//!
//! [`SimNetwork`] owns one BGP [`Router`] per AS, a pair of directed
//! [`Link`]s per topology edge, and a serial message [`Processor`] per
//! node, and drives them all from a single deterministic event loop
//! over one [`EventQueue`].
//! Every forwarding-table change is recorded into a time-indexed
//! [`NetworkFib`] so the data plane can be replayed exactly (see
//! `bgpsim-dataplane`); live event-driven packets are also supported
//! for cross-validation. What is kept of each send and route change
//! beyond the record's summary is up to the network's [`Recorder`].

use bgpsim_core::decision::{RoutePolicy, ShortestPath};
use bgpsim_core::{BgpConfig, FibEntry, Prefix, Router, RouterOutput};
use bgpsim_dataplane::{NetworkFib, Packet, PacketFate};
use bgpsim_faults::{FaultError, FaultKind, FaultPlan};
use bgpsim_netsim::link::Link;
use bgpsim_netsim::process::Processor;
use bgpsim_netsim::queue::{EventId, EventQueue};
use bgpsim_netsim::rng::SimRng;
use bgpsim_netsim::time::{SimDuration, SimTime};
use bgpsim_topology::{Graph, NodeId};
use bgpsim_trace::{TraceEvent, TraceHandle};

use crate::event::NetEvent;
use crate::failure::{FailureEvent, FailureHalf, HalfAction};
use crate::params::SimParams;
use crate::record::{FullLog, Recorder, RunRecord, UpdateSend};

/// Stream tag for per-node RNG lanes, disjoint from the fault-plan
/// stream tags (`0x1055…`, `0xF1A9…`, …). Lane `i` draws from
/// `fork(LANE_STREAM_TAG | i)` of the run seed, so a node's draws are
/// a pure function of `(seed, node)` — independent of how events from
/// different nodes interleave.
const LANE_STREAM_TAG: u64 = 0x7A9E_0000_0000_0000;

/// Bits reserved for the per-lane counter inside an event order key:
/// `order = lane << ORDER_CTR_BITS | counter`. 2^40 events per lane
/// and 2^24 lanes comfortably exceed any run the budget allows.
const ORDER_CTR_BITS: u32 = 40;

/// One node's record of its latest scheduled MRAI expiry event for a
/// `(peer, prefix)` pair.
#[derive(Debug, Clone, Copy)]
struct MraiSlot {
    peer: NodeId,
    prefix: Prefix,
    event: EventId,
    at: SimTime,
}

/// Why [`SimNetwork::run_to_quiescence`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All events drained; the network is quiescent.
    Quiescent,
    /// The event budget was exhausted first (likely a protocol
    /// divergence or a budget set too low).
    BudgetExhausted,
}

/// A complete network simulation: topology + routers + links +
/// processors + event loop, keeping its send and route-change logs with
/// the recorder `R` (the [`FullLog`] unless chosen otherwise).
///
/// # Examples
///
/// Two ASes, one prefix:
///
/// ```
/// use bgpsim_sim::prelude::*;
/// use bgpsim_core::{BgpConfig, Prefix};
/// use bgpsim_topology::{Graph, NodeId};
///
/// let g = Graph::from_edges([(0, 1)]);
/// let mut net = SimNetwork::new(&g, BgpConfig::default(), SimParams::default(), 42);
/// net.originate(NodeId::new(0), Prefix::new(0));
/// assert_eq!(net.run_to_quiescence(1_000_000), RunOutcome::Quiescent);
/// let rec = net.into_record();
/// assert!(rec.fib.current(NodeId::new(1), Prefix::new(0)).is_some());
/// ```
#[derive(Debug)]
pub struct SimNetwork<P: RoutePolicy = ShortestPath, R: Recorder = FullLog> {
    /// Pending events; only [`Self::enqueue`] adds to it and only
    /// [`Self::run_while`] pops it.
    queue: EventQueue<NetEvent>,
    /// The simulation clock: the time of the event being dispatched,
    /// or of the last one (or a `run_for` horizon) between dispatches.
    now: SimTime,
    /// High-water mark of the queue's live events, reported as
    /// [`RunRecord::max_queue_depth`].
    max_pending: u64,
    routers: Vec<Router<P>>,
    /// Directed links as per-source adjacency lists sorted by target id.
    /// Nodes have few neighbors, so a binary search beats hashing or a
    /// global ordered map on the per-send lookup.
    links: Vec<Vec<(NodeId, Link)>>,
    processors: Vec<Processor>,
    /// Root RNG: never drawn from directly, only forked for per-link
    /// loss streams (forks are pure functions of the seed, so they are
    /// position-independent).
    rng_root: SimRng,
    /// Per-node RNG lanes (`fork(LANE_STREAM_TAG | node)`): every draw
    /// a node's router or processor makes comes from its own lane, so
    /// the draw sequence each node sees is independent of global event
    /// interleaving.
    rng_lanes: Vec<SimRng>,
    /// Per-lane order counters (one per node plus the harness lane at
    /// index `node_count`); see [`Self::next_order`].
    lane_ctrs: Vec<u64>,
    /// The lane charged for events scheduled right now: the node whose
    /// dispatch is executing, or the harness lane between dispatches.
    sched_lane: u32,
    params: SimParams,
    fib: NetworkFib,
    recorder: R,
    /// The instant of the latest send, and how many sends were made at
    /// it: what seeds `sends_after_failure` when the failure lands at
    /// an instant that already saw sends.
    last_send: Option<SimTime>,
    sends_at_last: u64,
    sends_after_failure: u64,
    live_fates: Vec<(u64, PacketFate)>,
    failure_at: Option<SimTime>,
    events_dispatched: u64,
    faults_injected: u64,
    session_resets: u64,
    seed: u64,
    tracer: TraceHandle,
    /// Latest scheduled MRAI expiry event per (node, peer, prefix),
    /// kept as a per-node slot list scanned linearly (a node holds at
    /// most degree × prefix-count slots, so a scan beats hashing on
    /// this per-timer path). When a restarted timer supersedes a
    /// pending expiry at the same instant (the sync-vs-expiry race),
    /// the superseded event is cancelled instead of dispatched as a
    /// guaranteed no-op — see [`Self::schedule_mrai`]. Slots for
    /// already-delivered events are harmless: cancelling a delivered id
    /// is a no-op.
    mrai_pending: Vec<Vec<MraiSlot>>,
}

impl SimNetwork<ShortestPath> {
    /// Builds a simulation over `graph` with uniform router `config`,
    /// physical `params`, a deterministic `seed`, and the paper's
    /// shortest-path policy at every node, keeping the full logs.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or parameters are invalid.
    pub fn new(graph: &Graph, config: BgpConfig, params: SimParams, seed: u64) -> Self {
        SimNetwork::with_recorder(graph, config, params, seed)
    }
}

impl<R: Recorder> SimNetwork<ShortestPath, R> {
    /// [`new`](SimNetwork::new) with the recorder `R`: the same run,
    /// keeping only what `R` keeps of its sends and route changes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or parameters are invalid.
    pub fn with_recorder(graph: &Graph, config: BgpConfig, params: SimParams, seed: u64) -> Self {
        SimNetwork::build(graph, config, params, seed, |_| ShortestPath)
    }
}

impl<P: RoutePolicy> SimNetwork<P> {
    /// Builds a simulation with a per-node routing policy — e.g.
    /// [`GaoRexford`](bgpsim_core::policy::GaoRexford) built from a
    /// relationship map.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or parameters are invalid.
    pub fn with_policies<F>(
        graph: &Graph,
        config: BgpConfig,
        params: SimParams,
        seed: u64,
        policy_for: F,
    ) -> Self
    where
        F: FnMut(NodeId) -> P,
    {
        SimNetwork::build(graph, config, params, seed, policy_for)
    }

    /// BGP message sends recorded so far.
    pub fn sends(&self) -> &[UpdateSend] {
        &self.recorder.sends
    }
}

impl<P: RoutePolicy, R: Recorder> SimNetwork<P, R> {
    fn build<F>(
        graph: &Graph,
        config: BgpConfig,
        params: SimParams,
        seed: u64,
        mut policy_for: F,
    ) -> Self
    where
        F: FnMut(NodeId) -> P,
    {
        config.validate();
        params.validate();
        let n = graph.node_count();
        let routers: Vec<Router<P>> = graph
            .nodes()
            .map(|id| Router::with_policy(id, graph.neighbors(id), config, policy_for(id)))
            .collect();
        let mut links: Vec<Vec<(NodeId, Link)>> = vec![Vec::new(); n];
        for e in graph.edges() {
            links[e.lo().index()].push((e.hi(), Link::new(params.link_delay)));
            links[e.hi().index()].push((e.lo(), Link::new(params.link_delay)));
        }
        for adj in &mut links {
            adj.sort_by_key(|&(to, _)| to);
        }
        let rng_root = SimRng::new(seed);
        let rng_lanes = (0..n)
            .map(|i| rng_root.fork(LANE_STREAM_TAG | i as u64))
            .collect();
        SimNetwork {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            max_pending: 0,
            routers,
            links,
            processors: vec![Processor::new(); n],
            rng_root,
            rng_lanes,
            lane_ctrs: vec![0; n + 1],
            sched_lane: n as u32,
            params,
            fib: NetworkFib::new(n),
            recorder: R::default(),
            last_send: None,
            sends_at_last: 0,
            sends_after_failure: 0,
            live_fates: Vec::new(),
            failure_at: None,
            events_dispatched: 0,
            faults_injected: 0,
            session_resets: 0,
            seed,
            tracer: TraceHandle::global(),
            mrai_pending: vec![Vec::new(); n],
        }
    }

    /// Replaces the trace handle (defaults to [`TraceHandle::global`]).
    ///
    /// Tracing is strictly observational: the simulation's behavior,
    /// RNG stream and recorded outputs are identical whether or not a
    /// sink is attached.
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.tracer = tracer;
        self
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.routers.len()
    }

    /// Read access to a router.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn router(&self, id: NodeId) -> &Router<P> {
        &self.routers[id.index()]
    }

    /// Read access to the recorded FIB history so far.
    pub fn fib(&self) -> &NetworkFib {
        &self.fib
    }

    /// When the (first) failure was injected, if any.
    pub fn failure_at(&self) -> Option<SimTime> {
        self.failure_at
    }

    /// The lane index used for events scheduled by harness code (as
    /// opposed to events scheduled from inside a node's dispatch).
    fn harness_lane(&self) -> u32 {
        self.routers.len() as u32
    }

    /// Assigns the next order key on the current lane. A node's events
    /// pop in `(time, order)` order, so each lane's counter is a pure
    /// function of that node's own history.
    fn next_order(&mut self) -> u64 {
        let lane = self.sched_lane;
        let ctr = self.lane_ctrs[lane as usize];
        self.lane_ctrs[lane as usize] = ctr + 1;
        debug_assert!(ctr < 1 << ORDER_CTR_BITS, "lane counter overflow");
        (u64::from(lane) << ORDER_CTR_BITS) | ctr
    }

    /// What every way of scheduling shares: refuse the past, then
    /// queue the event and raise the queue's high-water mark.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the clock: scheduling into the
    /// past would violate causality.
    #[inline]
    fn enqueue(
        &mut self,
        at: SimTime,
        schedule: impl FnOnce(&mut EventQueue<NetEvent>) -> EventId,
    ) -> EventId {
        if at < self.now {
            past_event(at, self.now);
        }
        let id = schedule(&mut self.queue);
        self.max_pending = self.max_pending.max(self.queue.len() as u64);
        id
    }

    /// Schedules `ev` at `at` under the current lane's next order key.
    fn schedule_event(&mut self, at: SimTime, ev: NetEvent) -> EventId {
        let order = self.next_order();
        self.enqueue(at, |queue| queue.schedule_ordered(at, order, ev))
    }

    /// [`schedule_event`](Self::schedule_event) on one of the queue's
    /// FIFO lanes: lane `i` carries node `i`'s `MessageProcessed`
    /// events (its serial processor completes in admission order), lane
    /// `node_count` every `MessageArrival` (the link delay is one
    /// constant, so arrivals keep send order). The event's key and
    /// therefore its place in the run are the same as without a lane.
    fn schedule_fifo(&mut self, lane: usize, at: SimTime, ev: NetEvent) {
        let order = self.next_order();
        self.enqueue(at, |queue| queue.schedule_lane(lane, at, order, ev));
    }

    /// Makes `origin` start originating `prefix` at the current time.
    pub fn originate(&mut self, origin: NodeId, prefix: Prefix) {
        self.sched_lane = self.harness_lane();
        let now = self.now;
        let out = self.routers[origin.index()].originate(
            prefix,
            now,
            &mut self.rng_lanes[origin.index()],
        );
        self.apply_output(origin, out, now);
    }

    /// Splits `failure` into per-node halves using the routers'
    /// current peer lists (relevant only for `NodeDown`).
    fn split_failure(&self, failure: FailureEvent) -> Vec<FailureHalf> {
        failure.halves(|node| self.routers[node.index()].peers().collect())
    }

    /// Schedules `failure` to fire `delay` after the current time.
    pub fn schedule_failure(&mut self, delay: SimDuration, failure: FailureEvent) {
        let at = self.now + delay;
        self.schedule_failure_at(at, failure);
    }

    /// Schedules `failure` to fire at the absolute time `at`. The
    /// failure is split into per-node halves *now* (so the halves get
    /// consecutive order keys and stay adjacent in the global event
    /// order); they all fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_failure_at(&mut self, at: SimTime, failure: FailureEvent) {
        self.sched_lane = self.harness_lane();
        for half in self.split_failure(failure) {
            self.schedule_event(at, NetEvent::Failure(half));
        }
    }

    /// Injects `failure` at the current time.
    pub fn inject_failure(&mut self, failure: FailureEvent) {
        let now = self.now;
        for half in self.split_failure(failure) {
            // Mirror dispatch: each half acts under its own node's
            // lane, exactly as if it had been scheduled and popped.
            self.sched_lane = half.node().as_u32();
            self.apply_half(half, now, false);
        }
        self.sched_lane = self.harness_lane();
    }

    /// Total events dispatched so far (monotone over the run).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Installs a [`FaultPlan`]: validates it, installs per-link loss
    /// models, expands flap trains under the run seed, and schedules
    /// every resulting fault relative to the `anchor` time.
    ///
    /// Determinism: loss models draw from child generators forked off
    /// the run seed per directed link, and the expansion itself is a
    /// pure function of `(seed, plan)` — nothing here perturbs the main
    /// RNG stream, so a plan-free run stays byte-identical to pre-fault
    /// behavior.
    pub fn apply_fault_plan(
        &mut self,
        plan: &FaultPlan,
        anchor: SimTime,
    ) -> Result<(), FaultError> {
        plan.validate()?;
        // Reject unknown links before touching any state.
        for l in &plan.loss {
            if self.link_mut(l.a, l.b).is_none() || self.link_mut(l.b, l.a).is_none() {
                return Err(FaultError::UnknownLink { a: l.a, b: l.b });
            }
        }
        let events = plan.expand(self.seed);
        for ev in &events {
            if let FaultKind::LinkDown { a, b }
            | FaultKind::LinkUp { a, b }
            | FaultKind::SessionReset { a, b } = ev.kind
            {
                if self.link_mut(a, b).is_none() {
                    return Err(FaultError::UnknownLink { a, b });
                }
            }
            if anchor + ev.at < self.now {
                return Err(FaultError::EventInPast {
                    at: anchor + ev.at,
                    now: self.now,
                });
            }
        }
        for l in &plan.loss {
            if l.probability <= 0.0 {
                // Lossless entries install nothing, so they can never
                // draw and never perturb byte-identity.
                continue;
            }
            for (x, y) in [(l.a, l.b), (l.b, l.a)] {
                let rng = self.rng_root.fork(FaultPlan::loss_stream(x, y));
                self.link_mut(x, y)
                    .expect("loss link checked above")
                    .set_loss(l.probability, rng);
            }
        }
        self.sched_lane = self.harness_lane();
        for ev in events {
            let failure = match ev.kind {
                FaultKind::LinkDown { a, b } => FailureEvent::LinkDown { a, b },
                FaultKind::LinkUp { a, b } => FailureEvent::LinkUp { a, b },
                FaultKind::SessionReset { a, b } => FailureEvent::SessionReset { a, b },
                FaultKind::Withdraw { origin, prefix } => {
                    FailureEvent::WithdrawPrefix { origin, prefix }
                }
            };
            // Every event time was checked against the clock above, so
            // the panicking schedule path is unreachable-in-error here.
            for half in self.split_failure(failure) {
                self.schedule_event(anchor + ev.at, NetEvent::Fault(half));
            }
        }
        Ok(())
    }

    /// Injects a live, event-driven data packet (for cross-validating
    /// the replay data plane).
    ///
    /// # Panics
    ///
    /// Panics if the packet's send time is in the past.
    pub fn inject_packet(&mut self, packet: Packet) {
        self.sched_lane = self.harness_lane();
        self.schedule_event(
            packet.sent_at,
            NetEvent::PacketHop {
                id: packet.id,
                node: packet.src,
                prefix: packet.prefix,
                ttl: packet.ttl,
                hops: 0,
            },
        );
    }

    /// Dispatches one popped event and does the per-dispatch
    /// bookkeeping.
    fn step(&mut self, now: SimTime, ev: NetEvent) {
        self.events_dispatched += 1;
        self.sched_lane = ev.node().as_u32();
        self.trace_dispatch(&ev, now);
        self.dispatch(ev, now);
    }

    /// Runs the event loop until no events remain, or until `budget`
    /// events have been dispatched and more are pending. A run that
    /// drains with its last allowed event is quiescent, not over
    /// budget; a budget of zero dispatches nothing.
    pub fn run_to_quiescence(&mut self, budget: u64) -> RunOutcome {
        self.run_while(budget, |queue| !queue.is_empty())
    }

    /// Runs the event loop for `duration` of simulated time (or until
    /// `budget` events, counted as in
    /// [`run_to_quiescence`](Self::run_to_quiescence)), leaving later
    /// events pending. Once every event up to the horizon has run, the
    /// clock ends exactly on it — use this to observe transient state
    /// (e.g. a forwarding loop still live behind a pending MRAI expiry)
    /// that `run_to_quiescence` would fast-forward through.
    pub fn run_for(&mut self, duration: SimDuration, budget: u64) -> RunOutcome {
        let horizon = self.now + duration;
        let outcome = self.run_while(budget, |queue| {
            queue.peek_time().is_some_and(|t| t <= horizon)
        });
        if outcome == RunOutcome::Quiescent {
            self.now = horizon;
        }
        outcome
    }

    /// The event loop: pops events (advancing the clock) while `due`
    /// says the next one should run, testing the budget before each.
    fn run_while(
        &mut self,
        budget: u64,
        mut due: impl FnMut(&mut EventQueue<NetEvent>) -> bool,
    ) -> RunOutcome {
        let mut remaining = budget;
        while due(&mut self.queue) {
            if remaining == 0 {
                return RunOutcome::BudgetExhausted;
            }
            remaining -= 1;
            let (now, _, ev) = self.queue.pop().expect("a due event is pending");
            debug_assert!(now >= self.now, "event queue returned a past event");
            self.now = now;
            self.step(now, ev);
        }
        RunOutcome::Quiescent
    }

    /// Consumes the simulation and returns the recorded observations.
    pub fn into_record(self) -> RunRecord {
        let messages_lost = self
            .links
            .iter()
            .flatten()
            .map(|(_, link)| link.stats().lost)
            .sum();
        let mut record = RunRecord {
            node_count: self.routers.len(),
            failure_at: self.failure_at,
            quiescent_at: self.now,
            last_send: self.last_send,
            sends_after_failure: self.sends_after_failure,
            sends: Vec::new(),
            path_changes: Vec::new(),
            fib: self.fib,
            live_fates: self.live_fates,
            router_stats: self.routers.iter().map(|r| r.stats()).collect(),
            events_dispatched: self.events_dispatched,
            max_queue_depth: self.max_pending,
            faults_injected: self.faults_injected,
            session_resets: self.session_resets,
            messages_lost,
        };
        self.recorder.finish(&mut record);
        record
    }

    #[inline]
    fn trace_dispatch(&self, ev: &NetEvent, now: SimTime) {
        self.tracer.emit(|| TraceEvent::EventDispatch {
            seed: self.seed,
            t: now.as_nanos(),
            class: ev.class(),
            queue_depth: self.queue.len() as u64,
        });
    }

    fn dispatch(&mut self, ev: NetEvent, now: SimTime) {
        match ev {
            NetEvent::MessageArrival { to, from, msg } => {
                let service = self.rng_lanes[to.index()]
                    .uniform_duration(self.params.proc_delay_lo, self.params.proc_delay_hi);
                let done = self.processors[to.index()].admit(now, service);
                self.schedule_fifo(
                    to.index(),
                    done,
                    NetEvent::MessageProcessed { to, from, msg },
                );
            }
            NetEvent::MessageProcessed { to, from, msg } => {
                self.tracer.emit(|| TraceEvent::UpdateRx {
                    seed: self.seed,
                    t: now.as_nanos(),
                    node: to.as_u32(),
                    from: from.as_u32(),
                    withdraw: msg.is_withdraw(),
                });
                let out = self.routers[to.index()].handle_message(
                    from,
                    &msg,
                    now,
                    &mut self.rng_lanes[to.index()],
                );
                self.apply_output(to, out, now);
            }
            NetEvent::MraiExpiry { node, peer, prefix } => {
                self.tracer.emit(|| TraceEvent::MraiFired {
                    seed: self.seed,
                    t: now.as_nanos(),
                    node: node.as_u32(),
                    peer: peer.as_u32(),
                });
                let out = self.routers[node.index()].on_mrai_expire(
                    peer,
                    prefix,
                    now,
                    &mut self.rng_lanes[node.index()],
                );
                self.apply_output(node, out, now);
            }
            NetEvent::Failure(half) => self.apply_half(half, now, false),
            NetEvent::Fault(half) => self.apply_half(half, now, true),
            NetEvent::PacketHop {
                id,
                node,
                prefix,
                ttl,
                hops,
            } => self.packet_hop(id, node, prefix, ttl, hops, now),
        }
    }

    /// Applies one failure half. The primary half (the one carrying
    /// `origin_event`) does the per-failure bookkeeping — counters and
    /// `fault_injected` / `session_reset` trace lines — exactly once
    /// per injected failure; every half stamps `failure_at`, so the
    /// stamp lands at the failure instant regardless of which half of
    /// it runs first. Sends already made at that instant (by events
    /// dispatched before the failure) count as sent after it.
    fn apply_half(&mut self, half: FailureHalf, now: SimTime, from_plan: bool) {
        if self.failure_at.is_none() {
            self.failure_at = Some(now);
            if self.last_send == Some(now) {
                self.sends_after_failure = self.sends_at_last;
            }
        }
        if let Some(origin) = half.origin_event {
            if from_plan {
                self.faults_injected += 1;
                self.tracer.emit(|| TraceEvent::FaultInjected {
                    seed: self.seed,
                    t: now.as_nanos(),
                    fault: origin.describe(),
                });
            }
            if let FailureEvent::SessionReset { a, b } = origin {
                self.session_resets += 1;
                self.tracer.emit(|| TraceEvent::SessionReset {
                    seed: self.seed,
                    t: now.as_nanos(),
                    a: a.as_u32(),
                    b: b.as_u32(),
                });
            }
        }
        match half.action {
            HalfAction::Withdraw { origin, prefix } => {
                let out = self.routers[origin.index()].withdraw_origin(
                    prefix,
                    now,
                    &mut self.rng_lanes[origin.index()],
                );
                self.apply_output(origin, out, now);
            }
            HalfAction::PeerDown { node, peer } => {
                if node == peer {
                    // Degenerate bookkeeping half for an isolated
                    // NodeDown: nothing to fail.
                    return;
                }
                if let Some(link) = self.link_mut(node, peer) {
                    link.fail();
                }
                let out = self.routers[node.index()].on_peer_down(
                    peer,
                    now,
                    &mut self.rng_lanes[node.index()],
                );
                self.apply_output(node, out, now);
            }
            HalfAction::PeerUp { node, peer } => {
                if let Some(link) = self.link_mut(node, peer) {
                    link.restore();
                }
                let out = self.routers[node.index()].on_peer_up(
                    peer,
                    now,
                    &mut self.rng_lanes[node.index()],
                );
                self.apply_output(node, out, now);
            }
            HalfAction::ResetPeer { node, peer } => {
                // The link stays up, so in-flight messages still
                // arrive (and are then judged by the post-reset RIBs).
                let out = self.routers[node.index()].reset_peer(
                    peer,
                    now,
                    &mut self.rng_lanes[node.index()],
                );
                self.apply_output(node, out, now);
            }
        }
    }

    /// The directed link `from -> to`, if the edge exists.
    fn link_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut Link> {
        let adj = &mut self.links[from.index()];
        match adj.binary_search_by_key(&to, |&(n, _)| n) {
            Ok(i) => Some(&mut adj[i].1),
            Err(_) => None,
        }
    }

    fn apply_output(&mut self, node: NodeId, out: RouterOutput, now: SimTime) {
        for (prefix, entry) in out.fib_changes {
            self.fib.record(node, prefix, now, entry);
            let path = self.routers[node.index()].best(prefix).map(|r| &r.path);
            self.tracer.emit(|| TraceEvent::RibChange {
                seed: self.seed,
                t: now.as_nanos(),
                node: node.as_u32(),
                path: path.map(|p| p.ids().collect()).unwrap_or_default(),
            });
            self.recorder.path_change(now, node, prefix, path);
        }
        let sent = out.sends.len() as u64;
        if sent > 0 {
            if self.last_send == Some(now) {
                self.sends_at_last += sent;
            } else {
                self.last_send = Some(now);
                self.sends_at_last = sent;
            }
            if self.failure_at.is_some() {
                self.sends_after_failure += sent;
            }
        }
        for (to, msg) in out.sends {
            self.tracer.emit(|| TraceEvent::UpdateTx {
                seed: self.seed,
                t: now.as_nanos(),
                node: node.as_u32(),
                to: to.as_u32(),
                withdraw: msg.is_withdraw(),
                path_len: msg.path().map_or(0, |p| p.len() as u64),
            });
            self.recorder.send(now, node, to, &msg);
            let link = self
                .link_mut(node, to)
                .unwrap_or_else(|| panic!("no link {node} -> {to}"));
            if let Some(arrival) = link.transmit(now) {
                self.schedule_fifo(
                    self.routers.len(),
                    arrival,
                    NetEvent::MessageArrival {
                        to,
                        from: node,
                        msg,
                    },
                );
            }
        }
        for timer in out.timers {
            self.schedule_mrai(node, timer.peer, timer.prefix, timer.at, now);
        }
    }

    /// Schedules an MRAI expiry event, reusing the per-(node, peer,
    /// prefix) slot.
    ///
    /// A router only requests a timer when none is running, so a still
    /// pending event in the slot can mean just two things: it already
    /// fired (cancel is then a no-op), or it is the sync-vs-expiry race
    /// — the peer was synced at exactly the old expiry instant, before
    /// the expiry event was dispatched. In the race the old event is due
    /// *now* and the router's restarted timer guarantees its dispatch
    /// would hit the "restarted timer supersedes" guard and do nothing,
    /// so cancelling it cannot change the run; it only spares the
    /// no-op dispatch and the queue slot. Superseded events with a
    /// *future* due time (possible after a peer-down cleared the MRAI
    /// table) are left alone: their eventual dispatch is not provably
    /// inert, and dispatching them is what the router expects.
    fn schedule_mrai(
        &mut self,
        node: NodeId,
        peer: NodeId,
        prefix: Prefix,
        at: SimTime,
        now: SimTime,
    ) {
        // Cancel before scheduling so the queue's max-depth statistic
        // never counts the superseded and the fresh event at once.
        let idx = self.mrai_pending[node.index()]
            .iter()
            .position(|s| s.peer == peer && s.prefix == prefix);
        if let Some(i) = idx {
            let slot = self.mrai_pending[node.index()][i];
            if slot.at <= now {
                self.queue.cancel(slot.event);
            }
        }
        let event = self.schedule_event(at, NetEvent::MraiExpiry { node, peer, prefix });
        let slots = &mut self.mrai_pending[node.index()];
        match idx {
            Some(i) => {
                slots[i].event = event;
                slots[i].at = at;
            }
            None => slots.push(MraiSlot {
                peer,
                prefix,
                event,
                at,
            }),
        }
    }

    fn packet_hop(
        &mut self,
        id: u64,
        node: NodeId,
        prefix: Prefix,
        ttl: u32,
        hops: u32,
        now: SimTime,
    ) {
        match self.fib.current(node, prefix) {
            Some(FibEntry::Local) => {
                self.live_fates
                    .push((id, PacketFate::Delivered { at: now, hops }));
            }
            None => {
                self.live_fates
                    .push((id, PacketFate::NoRoute { at: now, node }));
            }
            Some(FibEntry::Via(next)) => {
                if ttl == 0 {
                    self.live_fates
                        .push((id, PacketFate::TtlExhausted { at: now, node }));
                    return;
                }
                self.schedule_event(
                    now + self.params.link_delay,
                    NetEvent::PacketHop {
                        id,
                        node: next,
                        prefix,
                        ttl: ttl - 1,
                        hops: hops + 1,
                    },
                );
            }
        }
    }
}

/// The panic of [`SimNetwork::enqueue`], out of line so the schedule
/// path stays small.
#[cold]
#[inline(never)]
fn past_event(at: SimTime, now: SimTime) -> ! {
    panic!("cannot schedule into the past: {at} < now {now}")
}

/// Convenience message types re-exported for host code.
pub use bgpsim_core::BgpMessage as Message;

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_core::Jitter;
    use bgpsim_topology::generators;

    fn cfg() -> BgpConfig {
        BgpConfig::default().with_jitter(Jitter::NONE)
    }

    fn p() -> Prefix {
        Prefix::new(0)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn line_converges_to_shortest_paths() {
        let g = generators::chain(4);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 1);
        net.originate(n(0), p());
        assert_eq!(net.run_to_quiescence(1_000_000), RunOutcome::Quiescent);
        let rec = net.into_record();
        assert_eq!(rec.fib.current(n(0), p()), Some(FibEntry::Local));
        assert_eq!(rec.fib.current(n(1), p()), Some(FibEntry::Via(n(0))));
        assert_eq!(rec.fib.current(n(2), p()), Some(FibEntry::Via(n(1))));
        assert_eq!(rec.fib.current(n(3), p()), Some(FibEntry::Via(n(2))));
    }

    #[test]
    fn clique_initial_convergence_points_at_origin() {
        let g = generators::clique(6);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 3);
        net.originate(n(0), p());
        assert_eq!(net.run_to_quiescence(10_000_000), RunOutcome::Quiescent);
        let rec = net.into_record();
        for i in 1..6 {
            assert_eq!(
                rec.fib.current(n(i), p()),
                Some(FibEntry::Via(n(0))),
                "node {i} must use the direct path"
            );
        }
    }

    #[test]
    fn converged_routes_match_bfs_oracle() {
        // After quiescence, every node's next hop must match the
        // BFS shortest-path oracle with smaller-id tie-breaks.
        let g = generators::internet_like(29, 7);
        let dest = n(28);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 7);
        net.originate(dest, p());
        assert_eq!(net.run_to_quiescence(50_000_000), RunOutcome::Quiescent);
        let rec = net.into_record();
        let oracle = bgpsim_topology::algo::shortest_path_next_hops(&g, dest);
        for v in g.nodes() {
            if v == dest {
                assert_eq!(rec.fib.current(v, p()), Some(FibEntry::Local));
                continue;
            }
            let got = rec.fib.current(v, p()).and_then(|e| e.via());
            assert_eq!(got, oracle[v.index()], "next hop mismatch at {v}");
        }
    }

    #[test]
    fn tdown_withdrawal_reaches_everyone() {
        let g = generators::clique(5);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 5);
        net.originate(n(0), p());
        net.run_to_quiescence(10_000_000);
        net.inject_failure(FailureEvent::WithdrawPrefix {
            origin: n(0),
            prefix: p(),
        });
        assert_eq!(net.run_to_quiescence(10_000_000), RunOutcome::Quiescent);
        let rec = net.into_record();
        assert!(rec.failure_at.is_some());
        for i in 0..5 {
            assert_eq!(
                rec.fib.current(n(i), p()),
                None,
                "node {i} must end with no route after T_down"
            );
        }
        assert!(
            rec.convergence_time().is_some(),
            "withdrawal must trigger sends"
        );
    }

    #[test]
    fn tlong_reroutes_over_backup() {
        let (g, layout) = generators::bclique(4);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 9);
        net.originate(layout.destination, p());
        net.run_to_quiescence(10_000_000);
        net.inject_failure(FailureEvent::LinkDown {
            a: layout.destination,
            b: layout.core_gateway,
        });
        assert_eq!(net.run_to_quiescence(50_000_000), RunOutcome::Quiescent);
        let rec = net.into_record();
        // Everyone still has a route; the core gateway now goes through
        // the clique toward the chain.
        for v in g.nodes() {
            if v == layout.destination {
                continue;
            }
            assert!(
                rec.fib.current(v, p()).is_some(),
                "node {v} lost the destination after T_long"
            );
        }
        // Final state matches BFS on the post-failure graph.
        let mut g2 = g;
        g2.remove_edge(layout.destination, layout.core_gateway);
        let oracle = bgpsim_topology::algo::shortest_path_next_hops(&g2, layout.destination);
        for v in g2.nodes() {
            if v == layout.destination {
                continue;
            }
            let got = rec.fib.current(v, p()).and_then(|e| e.via());
            assert_eq!(got, oracle[v.index()], "next hop mismatch at {v}");
        }
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let g = generators::clique(5);
            let mut net = SimNetwork::new(&g, BgpConfig::default(), SimParams::default(), seed);
            net.originate(n(0), p());
            net.run_to_quiescence(10_000_000);
            net.inject_failure(FailureEvent::WithdrawPrefix {
                origin: n(0),
                prefix: p(),
            });
            net.run_to_quiescence(10_000_000);
            let rec = net.into_record();
            (rec.sends, rec.quiescent_at)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn sends_at_the_failure_instant_count_as_sent_after_it() {
        // Origination at t = 0 announces to every peer; a withdrawal
        // injected at that same instant must count those announcements
        // too, exactly as a scan of the log for sends at or after the
        // failure does.
        let g = generators::clique(4);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 3);
        net.originate(n(0), p());
        let announced = net.sends().len();
        assert!(announced > 0, "origination sends at t = 0");
        net.inject_failure(FailureEvent::WithdrawPrefix {
            origin: n(0),
            prefix: p(),
        });
        assert_eq!(net.run_to_quiescence(10_000_000), RunOutcome::Quiescent);
        let rec = net.into_record();
        assert_eq!(rec.failure_at, Some(SimTime::ZERO));
        let scanned = rec.sends.iter().filter(|s| s.at >= SimTime::ZERO).count();
        assert_eq!(scanned, rec.sends.len());
        assert!(scanned > announced, "the withdrawal sent more");
        assert_eq!(rec.sends_after_failure, scanned as u64);
        assert_eq!(rec.last_send, rec.sends.last().map(|s| s.at));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let g = generators::clique(8);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 2);
        net.originate(n(0), p());
        assert_eq!(net.run_to_quiescence(3), RunOutcome::BudgetExhausted);
    }

    #[test]
    fn budget_counts_dispatches_exactly() {
        // n events need a budget of n, not n + 1; a budget of zero
        // dispatches nothing and is exhausted only if work is pending.
        let build = || {
            let g = generators::clique(4);
            let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 2);
            net.originate(n(0), p());
            net
        };
        let mut whole = build();
        assert_eq!(whole.run_to_quiescence(u64::MAX), RunOutcome::Quiescent);
        let events = whole.events_dispatched();
        assert!(events > 2);
        assert_eq!(whole.run_to_quiescence(0), RunOutcome::Quiescent);
        let horizon = SimDuration::from_secs(1_000);
        for (budget, outcome) in [
            (0, RunOutcome::BudgetExhausted),
            (events - 1, RunOutcome::BudgetExhausted),
            (events, RunOutcome::Quiescent),
            (events + 1, RunOutcome::Quiescent),
        ] {
            let mut net = build();
            assert_eq!(net.run_to_quiescence(budget), outcome, "budget {budget}");
            assert_eq!(net.events_dispatched(), budget.min(events));
            let mut net = build();
            assert_eq!(
                net.run_for(horizon, budget),
                outcome,
                "run_for, budget {budget}"
            );
            assert_eq!(net.events_dispatched(), budget.min(events));
        }
    }

    #[test]
    fn live_packets_are_delivered_on_converged_network() {
        let g = generators::chain(3);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 4);
        net.originate(n(0), p());
        net.run_to_quiescence(1_000_000);
        let t = net.now() + SimDuration::from_secs(1);
        net.inject_packet(Packet {
            id: 77,
            src: n(2),
            prefix: p(),
            ttl: 128,
            sent_at: t,
        });
        net.run_to_quiescence(1_000_000);
        let rec = net.into_record();
        assert_eq!(rec.live_fates.len(), 1);
        assert_eq!(rec.live_fates[0].0, 77);
        assert!(rec.live_fates[0].1.is_delivered());
    }

    #[test]
    fn run_for_bounds_time_and_preserves_later_events() {
        let g = generators::clique(5);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 8);
        net.originate(n(0), p());
        // One second of simulated time: the clock lands exactly on the
        // horizon; MRAI timers (≈30 s out) remain pending.
        assert_eq!(
            net.run_for(SimDuration::from_secs(1), 10_000_000),
            RunOutcome::Quiescent
        );
        assert_eq!(net.now(), SimTime::from_secs(1));
        let sends_so_far = net.sends().len();
        assert!(sends_so_far > 0, "initial flooding happened");
        // Draining afterwards completes convergence without losing the
        // pending timers.
        assert_eq!(net.run_to_quiescence(10_000_000), RunOutcome::Quiescent);
        for i in 1..5 {
            assert_eq!(net.fib().current(n(i), p()), Some(FibEntry::Via(n(0))));
        }
    }

    #[test]
    fn run_for_lands_on_its_horizon_and_resumes_from_it() {
        let g = generators::chain(3);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 4);
        net.originate(n(0), p());
        net.run_to_quiescence(1_000_000);
        let start = net.now();
        let secs = SimDuration::from_secs;
        for (id, sent) in [(1, 1), (2, 4)] {
            net.inject_packet(Packet {
                id,
                src: n(2),
                prefix: p(),
                ttl: 128,
                sent_at: start + secs(sent),
            });
        }
        let delivered = |net: &SimNetwork| net.live_fates.iter().map(|f| f.0).collect::<Vec<_>>();
        assert_eq!(net.run_for(secs(2), 1_000), RunOutcome::Quiescent);
        assert_eq!(net.now(), start + secs(2), "the clock lands on the horizon");
        assert_eq!(delivered(&net), vec![1]);
        assert_eq!(
            net.queue.peek_time(),
            Some(start + secs(4)),
            "the later packet stays pending"
        );
        // The second slice starts at the first horizon. Its own horizon
        // is the instant packet 2 leaves node 2: that hop runs, the next
        // one (a link delay later) waits.
        assert_eq!(net.run_for(secs(2), 1_000), RunOutcome::Quiescent);
        assert_eq!(net.now(), start + secs(4));
        assert_eq!(delivered(&net), vec![1]);
        assert_eq!(
            net.queue.peek_time(),
            Some(start + secs(4) + SimParams::default().link_delay)
        );
        assert_eq!(net.run_for(secs(2), 1_000), RunOutcome::Quiescent);
        assert_eq!(net.now(), start + secs(6));
        assert_eq!(delivered(&net), vec![1, 2]);
        assert!(net.queue.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_a_failure_into_the_past_panics() {
        let g = generators::chain(3);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 1);
        net.originate(n(0), p());
        net.run_to_quiescence(1_000_000);
        assert!(net.now() > SimTime::ZERO);
        net.schedule_failure_at(SimTime::ZERO, FailureEvent::LinkDown { a: n(0), b: n(1) });
    }

    #[test]
    fn run_for_matches_full_run_prefix() {
        // Chopping a run into run_for slices yields the identical send
        // log as one run_to_quiescence (determinism across pacing).
        let run_sliced = || {
            let g = generators::clique(5);
            let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 9);
            net.originate(n(0), p());
            for _ in 0..50 {
                net.run_for(SimDuration::from_secs(2), 10_000_000);
            }
            net.run_to_quiescence(10_000_000);
            net.into_record().sends
        };
        let run_whole = || {
            let g = generators::clique(5);
            let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 9);
            net.originate(n(0), p());
            net.run_to_quiescence(10_000_000);
            net.into_record().sends
        };
        assert_eq!(run_sliced(), run_whole());
    }

    #[test]
    fn session_reset_flushes_and_reconverges() {
        let g = generators::clique(4);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 13);
        net.originate(n(0), p());
        net.run_to_quiescence(10_000_000);
        net.inject_failure(FailureEvent::SessionReset { a: n(0), b: n(1) });
        assert_eq!(net.run_to_quiescence(10_000_000), RunOutcome::Quiescent);
        let rec = net.into_record();
        assert_eq!(rec.session_resets, 1);
        // The reset is transient: the final routes are as before.
        for i in 1..4 {
            assert_eq!(rec.fib.current(n(i), p()), Some(FibEntry::Via(n(0))));
        }
    }

    #[test]
    fn fault_plan_unknown_link_is_rejected() {
        let g = generators::chain(3);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 1);
        let plan = bgpsim_faults::FaultPlan::new().link_down(SimDuration::ZERO, n(0), n(2));
        let err = net.apply_fault_plan(&plan, net.now()).unwrap_err();
        assert_eq!(
            err,
            bgpsim_faults::FaultError::UnknownLink { a: n(0), b: n(2) }
        );
    }

    #[test]
    fn fault_plan_into_past_is_typed_error_not_panic() {
        let g = generators::chain(3);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 1);
        net.originate(n(0), p());
        net.run_to_quiescence(1_000_000);
        let now = net.now();
        assert!(now > SimTime::ZERO);
        let plan = bgpsim_faults::FaultPlan::new().link_down(SimDuration::ZERO, n(0), n(1));
        let err = net.apply_fault_plan(&plan, SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            bgpsim_faults::FaultError::EventInPast {
                at: SimTime::ZERO,
                now
            }
        );
        // The rejected plan scheduled nothing.
        assert_eq!(net.run_to_quiescence(1_000_000), RunOutcome::Quiescent);
        let rec = net.into_record();
        assert_eq!(rec.faults_injected, 0);
    }

    #[test]
    fn lossy_link_drops_are_counted_and_deterministic() {
        let run = |seed: u64| {
            let g = generators::clique(5);
            let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), seed);
            let plan = bgpsim_faults::FaultPlan::new()
                .loss(n(0), n(1), 0.5)
                .session_reset(SimDuration::from_secs(1), n(0), n(1));
            net.apply_fault_plan(&plan, net.now()).unwrap();
            net.originate(n(0), p());
            net.run_to_quiescence(10_000_000);
            net.into_record()
        };
        let a = run(21);
        let b = run(21);
        assert_eq!(a.sends, b.sends);
        assert_eq!(a.messages_lost, b.messages_lost);
        assert!(a.messages_lost > 0, "p=0.5 on a busy link must drop some");
        assert_eq!(a.faults_injected, 1);
        assert_eq!(a.session_resets, 1);
    }

    #[test]
    fn node_down_isolates_destination() {
        let g = generators::clique(4);
        let mut net = SimNetwork::new(&g, cfg(), SimParams::default(), 6);
        net.originate(n(0), p());
        net.run_to_quiescence(10_000_000);
        net.inject_failure(FailureEvent::NodeDown { node: n(0) });
        assert_eq!(net.run_to_quiescence(10_000_000), RunOutcome::Quiescent);
        let rec = net.into_record();
        for i in 1..4 {
            assert_eq!(rec.fib.current(n(i), p()), None, "node {i}");
        }
    }
}
