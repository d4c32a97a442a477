//! Structured run observability for the bgpsim workspace.
//!
//! The simulator's paper claims are *temporal* — loop onset and offset
//! times, convergence endpoints, MRAI proportionality — but until this
//! crate the only visible output of a run was its final aggregated
//! metrics. `bgpsim-trace` adds a structured event stream and per-run
//! counters without perturbing the hot path:
//!
//! * [`TraceSink`] is the output abstraction. [`NullSink`] discards
//!   everything and is the default; [`JsonlSink`] writes one JSON
//!   object per line through a buffered writer; [`MemorySink`] collects
//!   events in memory for tests.
//! * [`TraceHandle`] is what instrumented code holds. Its
//!   [`TraceHandle::emit`] takes a *closure* so that when tracing is
//!   disabled no event is even constructed — the enabled check is one
//!   inlined boolean test, and determinism plus stdout stay
//!   bit-identical to an untraced build.
//! * [`TraceEvent`] is the closed set of event shapes. Every event
//!   serializes to a *flat* JSON object whose first keys are `kind`,
//!   `seed` and `t` (simulation time in nanoseconds), so downstream
//!   tooling can validate and filter lines without schema knowledge.
//! * [`RunCounters`] aggregates one run's hot-path totals (events,
//!   updates, decisions, loops, queue depth, wall-clock); the runner
//!   merges them into its JSONL journal and the `--bench` JSON file.
//!
//! # Global sink
//!
//! Binaries install a process-wide sink once (e.g. from a `--trace`
//! flag) via [`install`] / [`install_jsonl`]; library code picks it up
//! with [`TraceHandle::global`]. When nothing is installed the global
//! handle is disabled and every `emit` compiles down to a predictable
//! untaken branch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod failpoint;

use serde::Value;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// One structured observation from inside a run.
///
/// Events are flat and self-describing: serialization produces a JSON
/// object whose `kind` field names the variant (snake_case) and whose
/// `seed` / `t` fields attribute it to a run and a simulation instant
/// (nanoseconds). Node identifiers are raw `u32` indices so this crate
/// stays a leaf dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The engine dispatched one scheduled event.
    EventDispatch {
        /// The run's RNG seed (attributes the line under parallel workers).
        seed: u64,
        /// Simulation time, nanoseconds.
        t: u64,
        /// Event class, e.g. `"message_arrival"` or `"mrai_expiry"`.
        class: &'static str,
        /// Events still pending in the queue after the pop.
        queue_depth: u64,
    },
    /// A router finished processing a received BGP update.
    UpdateRx {
        /// The run's RNG seed.
        seed: u64,
        /// Simulation time, nanoseconds.
        t: u64,
        /// The receiving router.
        node: u32,
        /// The sending peer.
        from: u32,
        /// `true` for withdrawals.
        withdraw: bool,
    },
    /// A router put a BGP update on the wire.
    UpdateTx {
        /// The run's RNG seed.
        seed: u64,
        /// Simulation time, nanoseconds.
        t: u64,
        /// The sending router.
        node: u32,
        /// The receiving peer.
        to: u32,
        /// `true` for withdrawals.
        withdraw: bool,
        /// Length of the announced AS path (0 for withdrawals).
        path_len: u64,
    },
    /// A router's best route changed (RIB churn).
    RibChange {
        /// The run's RNG seed.
        seed: u64,
        /// Simulation time, nanoseconds.
        t: u64,
        /// The router whose selection changed.
        node: u32,
        /// The newly selected AS path, head first; empty = route lost.
        path: Vec<u32>,
    },
    /// An MRAI timer fired and released pending updates.
    MraiFired {
        /// The run's RNG seed.
        seed: u64,
        /// Simulation time, nanoseconds.
        t: u64,
        /// The router whose timer fired.
        node: u32,
        /// The peer session the timer governs.
        peer: u32,
    },
    /// A forwarding loop appeared in the data plane.
    LoopOnset {
        /// The run's RNG seed.
        seed: u64,
        /// Simulation time of formation, nanoseconds.
        t: u64,
        /// The looping ASes, canonical order (smallest id first).
        nodes: Vec<u32>,
    },
    /// A previously observed forwarding loop dissolved.
    LoopOffset {
        /// The run's RNG seed.
        seed: u64,
        /// Simulation time of resolution, nanoseconds.
        t: u64,
        /// The looping ASes, canonical order (smallest id first).
        nodes: Vec<u32>,
        /// Loop lifetime, nanoseconds.
        duration: u64,
    },
    /// End-of-run counter totals.
    RunSummary {
        /// The run's RNG seed.
        seed: u64,
        /// Simulation time of quiescence, nanoseconds.
        t: u64,
        /// Aggregated hot-path counters for the run.
        counters: RunCounters,
    },
    /// Measurement-phase summary: how the packet replay performed
    /// relative to the simulation it measured.
    MeasureSummary {
        /// The run's RNG seed.
        seed: u64,
        /// Simulation time the measurement covers up to (end of
        /// convergence), nanoseconds; zero when no failure fired.
        t: u64,
        /// Wall-clock spent in the control-plane simulation, ns
        /// (rendered as fractional `sim_ms`).
        sim_ns: u64,
        /// Wall-clock spent in the measurement pipeline, ns (rendered
        /// as fractional `measure_ms`).
        measure_ns: u64,
        /// Packets replayed.
        packets: u64,
        /// Packets accounted for without a walk of their own.
        memo_hits: u64,
        /// Walks actually executed (`packets - memo_hits`).
        walks: u64,
        /// FIB epoch boundaries the replay index covered.
        epochs: u64,
        /// Walks answered from their source's trail, in full or up to
        /// the FIB change that broke it (a subset of `walks`).
        trail_hits: u64,
        /// Table lookups the executed walks made.
        hops: u64,
        /// Table lookups they were spared by following the trail or
        /// skipping along an untouched forwarding cycle.
        hops_skipped: u64,
    },
    /// A planned fault fired inside the simulator.
    FaultInjected {
        /// The run's RNG seed.
        seed: u64,
        /// Simulation time of injection, nanoseconds.
        t: u64,
        /// Human-readable fault description (e.g. "link [AS0 AS5] fails").
        fault: String,
    },
    /// A BGP session was torn down and immediately re-established.
    SessionReset {
        /// The run's RNG seed.
        seed: u64,
        /// Simulation time of the reset, nanoseconds.
        t: u64,
        /// One session endpoint.
        a: u32,
        /// The other session endpoint.
        b: u32,
    },
    /// The run cache moved a corrupt entry into quarantine.
    ///
    /// Emitted by infrastructure rather than a simulation run, so it
    /// carries no meaningful seed or time (both serialize as zero to
    /// keep every JSONL line uniformly shaped).
    CacheQuarantine {
        /// Quarantined file path.
        path: String,
        /// Why the entry was rejected.
        detail: String,
    },
    /// The quarantine directory exceeded its size cap and the oldest
    /// parked entry was evicted (infrastructure event; seed/t
    /// serialize as zero).
    QuarantineEvict {
        /// The evicted file path.
        path: String,
        /// Bytes freed by the eviction.
        bytes: u64,
    },
    /// One HTTP request handled by the experiment service.
    ///
    /// Infrastructure event (no meaningful seed or simulation time;
    /// both serialize as zero). `runs` counts the scenario runs the
    /// request admitted into the executor — zero for reads, the
    /// submitted job's run count for an accepted `POST /v1/jobs` — so a
    /// validator can reconcile `run_summary` lines against accepted
    /// work.
    ServeRequest {
        /// Client identity (API key, or `"anonymous"`).
        client: String,
        /// HTTP method.
        method: String,
        /// Request path.
        path: String,
        /// Response status code.
        status: u16,
        /// Wall-clock handling time, microseconds.
        wall_us: u64,
        /// Runs (scenario × seed) admitted by this request.
        runs: u64,
    },
    /// The experiment service refused a submission at admission
    /// control (infrastructure event; seed/t serialize as zero).
    AdmissionReject {
        /// Client identity (API key, or `"anonymous"`).
        client: String,
        /// Why admission was refused (e.g. `"queue_full"`,
        /// `"concurrency_quota"`, `"event_budget_quota"`,
        /// `"draining"`, `"circuit_open"`).
        reason: String,
    },
    /// A process-isolated worker died without producing a result
    /// (panic, abort, OOM kill, signal, or a resource limit enforced
    /// from outside). Infrastructure event; seed/t serialize as zero.
    WorkerCrash {
        /// The crashed job's label.
        label: String,
        /// The job's fingerprint, or `""` for uncacheable jobs.
        fingerprint: String,
        /// What killed the worker (exit status, signal, limit).
        detail: String,
        /// Which attempt crashed (1-based).
        attempt: u64,
        /// `true` when this crash exhausted the retry budget and the
        /// fingerprint was quarantined as poisoned.
        poisoned: bool,
    },
    /// The supervisor is about to retry a crashed job in a fresh
    /// worker. Infrastructure event; seed/t serialize as zero.
    JobRetry {
        /// The retried job's label.
        label: String,
        /// The job's fingerprint, or `""` for uncacheable jobs.
        fingerprint: String,
        /// The attempt about to start (1-based; at least 2).
        attempt: u64,
        /// Backoff slept before this attempt, milliseconds.
        backoff_ms: u64,
    },
    /// A write-ahead journal replay completed (`bgpsim recover`, or
    /// the automatic pass on serve startup). Infrastructure event;
    /// seed/t serialize as zero.
    RecoveryReplay {
        /// The journal that was replayed.
        journal: String,
        /// Journal lines scanned (including unparseable tails).
        lines: u64,
        /// Distinct jobs with a `job_started` intent record.
        started: u64,
        /// Distinct jobs whose `job_done` commit record was found.
        completed: u64,
        /// Jobs interrupted mid-execution (started, never committed).
        interrupted: u64,
        /// Interrupted jobs whose result was nevertheless found
        /// committed in the run cache (crash after store, before the
        /// journal commit record).
        recovered: u64,
        /// Stale atomic-write temp files swept from the cache dir.
        tmp_swept: u64,
    },
    /// A deterministic infrastructure failpoint fired
    /// (`BGPSIM_FAILPOINT`). Infrastructure event; seed/t serialize
    /// as zero.
    FailpointHit {
        /// The instrumented site, e.g. `"cache_write"`.
        site: String,
        /// The injected action: `"err"`, `"torn"`, or `"abort"`.
        action: String,
        /// How many times this failpoint has matched so far (1-based).
        hit: u64,
    },
    /// The serve crash-rate circuit breaker changed state.
    /// Infrastructure event; seed/t serialize as zero.
    CircuitBreaker {
        /// The new state: `"open"`, `"half_open"`, or `"closed"`.
        state: String,
        /// Consecutive worker crashes observed at the transition.
        crashes: u64,
    },
}

impl TraceEvent {
    /// The event's `kind` discriminator as it appears in JSONL output.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::EventDispatch { .. } => "event_dispatch",
            TraceEvent::UpdateRx { .. } => "update_rx",
            TraceEvent::UpdateTx { .. } => "update_tx",
            TraceEvent::RibChange { .. } => "rib_change",
            TraceEvent::MraiFired { .. } => "mrai_fired",
            TraceEvent::LoopOnset { .. } => "loop_onset",
            TraceEvent::LoopOffset { .. } => "loop_offset",
            TraceEvent::RunSummary { .. } => "run_summary",
            TraceEvent::MeasureSummary { .. } => "measure_summary",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::SessionReset { .. } => "session_reset",
            TraceEvent::CacheQuarantine { .. } => "cache_quarantine",
            TraceEvent::QuarantineEvict { .. } => "quarantine_evict",
            TraceEvent::ServeRequest { .. } => "serve_request",
            TraceEvent::AdmissionReject { .. } => "admission_reject",
            TraceEvent::WorkerCrash { .. } => "worker_crash",
            TraceEvent::JobRetry { .. } => "job_retry",
            TraceEvent::RecoveryReplay { .. } => "recovery_replay",
            TraceEvent::FailpointHit { .. } => "failpoint_hit",
            TraceEvent::CircuitBreaker { .. } => "circuit_breaker",
        }
    }

    /// The run seed the event is attributed to.
    pub fn seed(&self) -> u64 {
        match *self {
            TraceEvent::EventDispatch { seed, .. }
            | TraceEvent::UpdateRx { seed, .. }
            | TraceEvent::UpdateTx { seed, .. }
            | TraceEvent::RibChange { seed, .. }
            | TraceEvent::MraiFired { seed, .. }
            | TraceEvent::LoopOnset { seed, .. }
            | TraceEvent::LoopOffset { seed, .. }
            | TraceEvent::RunSummary { seed, .. }
            | TraceEvent::MeasureSummary { seed, .. }
            | TraceEvent::FaultInjected { seed, .. }
            | TraceEvent::SessionReset { seed, .. } => seed,
            TraceEvent::CacheQuarantine { .. }
            | TraceEvent::QuarantineEvict { .. }
            | TraceEvent::ServeRequest { .. }
            | TraceEvent::AdmissionReject { .. }
            | TraceEvent::WorkerCrash { .. }
            | TraceEvent::JobRetry { .. }
            | TraceEvent::RecoveryReplay { .. }
            | TraceEvent::FailpointHit { .. }
            | TraceEvent::CircuitBreaker { .. } => 0,
        }
    }
}

fn ids_value(nodes: &[u32]) -> Value {
    Value::Array(nodes.iter().map(|&n| Value::UInt(u64::from(n))).collect())
}

// Manual impl: the vendored derive emits externally tagged enums, but
// the JSONL contract wants flat objects with a leading `kind` key.
impl serde::Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            vec![("kind".into(), Value::Str(self.kind().into()))];
        let mut put = |name: &str, v: Value| fields.push((name.into(), v));
        match self {
            TraceEvent::EventDispatch {
                seed,
                t,
                class,
                queue_depth,
            } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                put("class", Value::Str((*class).into()));
                put("queue_depth", Value::UInt(*queue_depth));
            }
            TraceEvent::UpdateRx {
                seed,
                t,
                node,
                from,
                withdraw,
            } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                put("node", Value::UInt(u64::from(*node)));
                put("from", Value::UInt(u64::from(*from)));
                put("withdraw", Value::Bool(*withdraw));
            }
            TraceEvent::UpdateTx {
                seed,
                t,
                node,
                to,
                withdraw,
                path_len,
            } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                put("node", Value::UInt(u64::from(*node)));
                put("to", Value::UInt(u64::from(*to)));
                put("withdraw", Value::Bool(*withdraw));
                put("path_len", Value::UInt(*path_len));
            }
            TraceEvent::RibChange {
                seed,
                t,
                node,
                path,
            } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                put("node", Value::UInt(u64::from(*node)));
                put("path", ids_value(path));
            }
            TraceEvent::MraiFired {
                seed,
                t,
                node,
                peer,
            } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                put("node", Value::UInt(u64::from(*node)));
                put("peer", Value::UInt(u64::from(*peer)));
            }
            TraceEvent::LoopOnset { seed, t, nodes } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                put("nodes", ids_value(nodes));
                put("size", Value::UInt(nodes.len() as u64));
            }
            TraceEvent::LoopOffset {
                seed,
                t,
                nodes,
                duration,
            } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                put("nodes", ids_value(nodes));
                put("size", Value::UInt(nodes.len() as u64));
                put("duration", Value::UInt(*duration));
            }
            TraceEvent::RunSummary { seed, t, counters } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                if let Value::Object(pairs) = serde::Serialize::to_value(counters) {
                    for (k, v) in pairs {
                        fields.push((k, v));
                    }
                }
            }
            TraceEvent::MeasureSummary {
                seed,
                t,
                sim_ns,
                measure_ns,
                packets,
                memo_hits,
                walks,
                epochs,
                trail_hits,
                hops,
                hops_skipped,
            } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                put("sim_ms", Value::Float(ns_to_ms(*sim_ns)));
                put("measure_ms", Value::Float(ns_to_ms(*measure_ns)));
                put("packets", Value::UInt(*packets));
                put("memo_hits", Value::UInt(*memo_hits));
                put("walks", Value::UInt(*walks));
                put("epochs", Value::UInt(*epochs));
                put("trail_hits", Value::UInt(*trail_hits));
                put("hops", Value::UInt(*hops));
                put("hops_skipped", Value::UInt(*hops_skipped));
            }
            TraceEvent::FaultInjected { seed, t, fault } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                put("fault", Value::Str(fault.clone()));
            }
            TraceEvent::SessionReset { seed, t, a, b } => {
                put("seed", Value::UInt(*seed));
                put("t", Value::UInt(*t));
                put("a", Value::UInt(u64::from(*a)));
                put("b", Value::UInt(u64::from(*b)));
            }
            TraceEvent::CacheQuarantine { path, detail } => {
                // Uniform line shape: every trace line has numeric
                // seed/t, even infrastructure events.
                put("seed", Value::UInt(0));
                put("t", Value::UInt(0));
                put("path", Value::Str(path.clone()));
                put("detail", Value::Str(detail.clone()));
            }
            TraceEvent::ServeRequest {
                client,
                method,
                path,
                status,
                wall_us,
                runs,
            } => {
                put("seed", Value::UInt(0));
                put("t", Value::UInt(0));
                put("client", Value::Str(client.clone()));
                put("method", Value::Str(method.clone()));
                put("path", Value::Str(path.clone()));
                put("status", Value::UInt(u64::from(*status)));
                put("wall_us", Value::UInt(*wall_us));
                put("runs", Value::UInt(*runs));
            }
            TraceEvent::AdmissionReject { client, reason } => {
                put("seed", Value::UInt(0));
                put("t", Value::UInt(0));
                put("client", Value::Str(client.clone()));
                put("reason", Value::Str(reason.clone()));
            }
            TraceEvent::QuarantineEvict { path, bytes } => {
                put("seed", Value::UInt(0));
                put("t", Value::UInt(0));
                put("path", Value::Str(path.clone()));
                put("bytes", Value::UInt(*bytes));
            }
            TraceEvent::WorkerCrash {
                label,
                fingerprint,
                detail,
                attempt,
                poisoned,
            } => {
                put("seed", Value::UInt(0));
                put("t", Value::UInt(0));
                put("label", Value::Str(label.clone()));
                put("fingerprint", Value::Str(fingerprint.clone()));
                put("detail", Value::Str(detail.clone()));
                put("attempt", Value::UInt(*attempt));
                put("poisoned", Value::Bool(*poisoned));
            }
            TraceEvent::JobRetry {
                label,
                fingerprint,
                attempt,
                backoff_ms,
            } => {
                put("seed", Value::UInt(0));
                put("t", Value::UInt(0));
                put("label", Value::Str(label.clone()));
                put("fingerprint", Value::Str(fingerprint.clone()));
                put("attempt", Value::UInt(*attempt));
                put("backoff_ms", Value::UInt(*backoff_ms));
            }
            TraceEvent::RecoveryReplay {
                journal,
                lines,
                started,
                completed,
                interrupted,
                recovered,
                tmp_swept,
            } => {
                put("seed", Value::UInt(0));
                put("t", Value::UInt(0));
                put("journal", Value::Str(journal.clone()));
                put("lines", Value::UInt(*lines));
                put("started", Value::UInt(*started));
                put("completed", Value::UInt(*completed));
                put("interrupted", Value::UInt(*interrupted));
                put("recovered", Value::UInt(*recovered));
                put("tmp_swept", Value::UInt(*tmp_swept));
            }
            TraceEvent::FailpointHit { site, action, hit } => {
                put("seed", Value::UInt(0));
                put("t", Value::UInt(0));
                put("site", Value::Str(site.clone()));
                put("action", Value::Str(action.clone()));
                put("hit", Value::UInt(*hit));
            }
            TraceEvent::CircuitBreaker { state, crashes } => {
                put("seed", Value::UInt(0));
                put("t", Value::UInt(0));
                put("state", Value::Str(state.clone()));
                put("crashes", Value::UInt(*crashes));
            }
        }
        Value::Object(fields)
    }
}

/// Aggregated hot-path totals for one run.
///
/// All fields are integers so the type stays `Eq` (the runner folds it
/// into its `Eq` statistics). The two phase timers are kept and summed
/// in nanoseconds — a paper-scale measure phase is ~2 ms and a
/// quick-scale job far less, so per-job milliseconds sum to noise — and
/// serialize as `sim_ns`/`measure_ns` plus fractional `sim_ms`/
/// `measure_ms` derived from them (ignored when reading back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Deserialize)]
pub struct RunCounters {
    /// Scheduled events dispatched by the engine.
    pub events: u64,
    /// BGP announcements put on the wire.
    pub updates_sent: u64,
    /// BGP withdrawals put on the wire.
    pub withdrawals_sent: u64,
    /// Route-decision processes executed.
    pub decisions: u64,
    /// Forwarding loops observed (onsets).
    pub loops: u64,
    /// High-water mark of the event-queue depth.
    pub max_queue_depth: u64,
    /// Host wall-clock time spent in the run, milliseconds.
    pub wall_ms: u64,
    /// Wall-clock spent in the control-plane simulation, nanoseconds.
    pub sim_ns: u64,
    /// Wall-clock spent in the measurement pipeline, nanoseconds.
    pub measure_ns: u64,
    /// Packets replayed by the measurement pipeline.
    pub replay_packets: u64,
    /// Replayed packets whose fate came from the batched-replay memo.
    pub replay_memo_hits: u64,
    /// Peak resident-set size of the process at the time the counters
    /// were taken, in KiB (`VmHWM` on Linux, 0 elsewhere). Process-wide
    /// and monotone, so later runs in the same process report values at
    /// least as large as earlier ones.
    pub peak_rss_kb: u64,
}

impl RunCounters {
    /// Folds another run's counters into an aggregate: sums every
    /// field except `max_queue_depth` and `peak_rss_kb`, which take the
    /// maximum (they are high-water marks, not volumes).
    pub fn merge(&mut self, other: &RunCounters) {
        self.events += other.events;
        self.updates_sent += other.updates_sent;
        self.withdrawals_sent += other.withdrawals_sent;
        self.decisions += other.decisions;
        self.loops += other.loops;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.wall_ms += other.wall_ms;
        self.sim_ns += other.sim_ns;
        self.measure_ns += other.measure_ns;
        self.replay_packets += other.replay_packets;
        self.replay_memo_hits += other.replay_memo_hits;
        self.peak_rss_kb = self.peak_rss_kb.max(other.peak_rss_kb);
    }
}

impl serde::Serialize for RunCounters {
    fn to_value(&self) -> Value {
        let uint = |name: &str, v: u64| (name.to_string(), Value::UInt(v));
        let ms = |name: &str, ns: u64| (name.to_string(), Value::Float(ns_to_ms(ns)));
        Value::Object(vec![
            uint("events", self.events),
            uint("updates_sent", self.updates_sent),
            uint("withdrawals_sent", self.withdrawals_sent),
            uint("decisions", self.decisions),
            uint("loops", self.loops),
            uint("max_queue_depth", self.max_queue_depth),
            uint("wall_ms", self.wall_ms),
            ms("sim_ms", self.sim_ns),
            ms("measure_ms", self.measure_ns),
            uint("sim_ns", self.sim_ns),
            uint("measure_ns", self.measure_ns),
            uint("replay_packets", self.replay_packets),
            uint("replay_memo_hits", self.replay_memo_hits),
            uint("peak_rss_kb", self.peak_rss_kb),
        ])
    }
}

/// Nanoseconds as fractional milliseconds, for rendering.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident-set size of the current process in KiB.
///
/// Reads `VmHWM` from `/proc/self/status` on Linux and returns 0 on
/// platforms (or sandboxes) where that file is unavailable or
/// unparsable. The value is a process-lifetime high-water mark, so it
/// never decreases between calls.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
                    if let Ok(kb) = digits.parse::<u64>() {
                        return kb;
                    }
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Destination for trace events.
///
/// Implementations must be cheap to call and thread-safe: the runner
/// executes jobs on a worker pool and every worker shares one sink.
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn emit(&self, event: &TraceEvent);

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}

    /// Whether the sink actually records anything. [`TraceHandle`]
    /// caches this so disabled tracing costs one predictable branch.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// A sink that discards every event. The default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: &TraceEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// A sink that appends one JSON object per event to a buffered file.
///
/// Lines are written under a mutex, so events from concurrent runs
/// interleave at line granularity — each line's `seed` field attributes
/// it to its run. I/O errors after creation are swallowed (tracing is
/// observability, not ground truth); call [`JsonlSink::flush`] (or drop
/// the sink) to push buffered lines out.
pub struct JsonlSink {
    inner: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            inner: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, event: &TraceEvent) {
        if let Ok(line) = serde_json::to_string(event) {
            let mut w = self.inner.lock().expect("trace writer poisoned");
            let _ = writeln!(w, "{line}");
        }
    }

    fn flush(&self) {
        let _ = self.inner.lock().expect("trace writer poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A sink that collects events in memory, for tests and inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// Creates an empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy of everything recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// A cloneable handle instrumented code holds on the hot path.
///
/// The handle caches the sink's enabled flag; [`TraceHandle::emit`]
/// takes a closure and only runs it when enabled, so a disabled handle
/// never constructs an event. Simulation behavior must be identical
/// either way — tracing observes, it never steers.
#[derive(Clone)]
pub struct TraceHandle {
    sink: Arc<dyn TraceSink>,
    enabled: bool,
}

impl TraceHandle {
    /// A handle that drops everything.
    pub fn disabled() -> Self {
        TraceHandle {
            sink: Arc::new(NullSink),
            enabled: false,
        }
    }

    /// Wraps an explicit sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        let enabled = sink.is_enabled();
        TraceHandle { sink, enabled }
    }

    /// A handle over the process-wide sink installed with [`install`],
    /// or a disabled handle if none is installed.
    pub fn global() -> Self {
        match global_sink().get() {
            Some(sink) => TraceHandle::new(Arc::clone(sink)),
            None => TraceHandle::disabled(),
        }
    }

    /// Whether events are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emits the event built by `f`, constructing it only when enabled.
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&self, f: F) {
        if self.enabled {
            self.sink.emit(&f());
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.sink.flush();
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::disabled()
    }
}

fn global_sink() -> &'static OnceLock<Arc<dyn TraceSink>> {
    static GLOBAL: OnceLock<Arc<dyn TraceSink>> = OnceLock::new();
    &GLOBAL
}

/// Installs the process-wide sink. Returns `false` (and leaves the
/// existing sink in place) if one was already installed.
///
/// Handles created by [`TraceHandle::global`] *before* installation
/// stay disabled; binaries should install their sink before
/// constructing simulations.
pub fn install(sink: Arc<dyn TraceSink>) -> bool {
    global_sink().set(sink).is_ok()
}

/// Creates a [`JsonlSink`] at `path` and installs it globally.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be created, or an error of
/// kind [`std::io::ErrorKind::AlreadyExists`] if a global sink was
/// installed earlier.
pub fn install_jsonl<P: AsRef<Path>>(path: P) -> std::io::Result<()> {
    let sink = JsonlSink::create(path)?;
    if install(Arc::new(sink)) {
        Ok(())
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            "a global trace sink is already installed",
        ))
    }
}

/// Flushes the global sink, if one is installed.
pub fn flush_global() {
    if let Some(sink) = global_sink().get() {
        sink.flush();
    }
}

/// A raw parsed JSON value, for validating emitted trace lines.
///
/// The vendored `serde` stub's [`Value`] does not implement
/// `Deserialize` itself; this newtype bridges the gap so tools can do
/// `serde_json::from_str::<RawEvent>(line)` and inspect the object.
#[derive(Debug, Clone)]
pub struct RawEvent(pub Value);

impl serde::Deserialize for RawEvent {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(RawEvent(v.clone()))
    }
}

impl RawEvent {
    /// Looks up a top-level key, if the line is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match &self.0 {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The line's `kind` string, if present.
    pub fn kind(&self) -> Option<&str> {
        self.get("kind").and_then(|v| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_loop_onset() -> TraceEvent {
        TraceEvent::LoopOnset {
            seed: 7,
            t: 1_500_000_000,
            nodes: vec![5, 6],
        }
    }

    #[test]
    fn events_serialize_flat_with_kind_first() {
        let line = serde_json::to_string(&sample_loop_onset()).unwrap();
        assert!(
            line.starts_with("{\"kind\":\"loop_onset\""),
            "kind must lead the object: {line}"
        );
        assert!(line.contains("\"seed\":7"));
        assert!(line.contains("\"t\":1500000000"));
        assert!(line.contains("\"nodes\":[5,6]"));
        assert!(line.contains("\"size\":2"));
    }

    #[test]
    fn every_variant_kind_round_trips_through_json() {
        let events = vec![
            TraceEvent::EventDispatch {
                seed: 1,
                t: 2,
                class: "message_arrival",
                queue_depth: 3,
            },
            TraceEvent::UpdateRx {
                seed: 1,
                t: 2,
                node: 3,
                from: 4,
                withdraw: true,
            },
            TraceEvent::UpdateTx {
                seed: 1,
                t: 2,
                node: 3,
                to: 4,
                withdraw: false,
                path_len: 5,
            },
            TraceEvent::RibChange {
                seed: 1,
                t: 2,
                node: 3,
                path: vec![3, 0],
            },
            TraceEvent::MraiFired {
                seed: 1,
                t: 2,
                node: 3,
                peer: 4,
            },
            sample_loop_onset(),
            TraceEvent::LoopOffset {
                seed: 1,
                t: 9,
                nodes: vec![1, 2],
                duration: 7,
            },
            TraceEvent::RunSummary {
                seed: 1,
                t: 2,
                counters: RunCounters {
                    events: 10,
                    ..Default::default()
                },
            },
            TraceEvent::MeasureSummary {
                seed: 1,
                t: 2,
                sim_ns: 3_000_000,
                measure_ns: 4_500_000,
                packets: 100,
                memo_hits: 90,
                walks: 10,
                epochs: 7,
                trail_hits: 4,
                hops: 25,
                hops_skipped: 120,
            },
            TraceEvent::FaultInjected {
                seed: 1,
                t: 2,
                fault: "link [AS0 AS5] fails".into(),
            },
            TraceEvent::SessionReset {
                seed: 1,
                t: 2,
                a: 0,
                b: 5,
            },
            TraceEvent::CacheQuarantine {
                path: "/tmp/cache/deadbeef.json".into(),
                detail: "parse error".into(),
            },
            TraceEvent::ServeRequest {
                client: "anonymous".into(),
                method: "POST".into(),
                path: "/v1/jobs".into(),
                status: 201,
                wall_us: 4200,
                runs: 3,
            },
            TraceEvent::AdmissionReject {
                client: "loadtest-7".into(),
                reason: "queue_full".into(),
            },
            TraceEvent::QuarantineEvict {
                path: "/tmp/cache/quarantine/deadbeef.json".into(),
                bytes: 512,
            },
            TraceEvent::WorkerCrash {
                label: "clique 5 seed 3".into(),
                fingerprint: "scenario/v1|topo=clique5".into(),
                detail: "signal 6".into(),
                attempt: 2,
                poisoned: false,
            },
            TraceEvent::JobRetry {
                label: "clique 5 seed 3".into(),
                fingerprint: "scenario/v1|topo=clique5".into(),
                attempt: 2,
                backoff_ms: 100,
            },
            TraceEvent::RecoveryReplay {
                journal: "/tmp/journal.jsonl".into(),
                lines: 12,
                started: 5,
                completed: 4,
                interrupted: 1,
                recovered: 1,
                tmp_swept: 0,
            },
            TraceEvent::FailpointHit {
                site: "cache_write".into(),
                action: "torn".into(),
                hit: 1,
            },
            TraceEvent::CircuitBreaker {
                state: "open".into(),
                crashes: 5,
            },
        ];
        for ev in events {
            let line = serde_json::to_string(&ev).unwrap();
            let raw: RawEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(raw.kind(), Some(ev.kind()), "line: {line}");
            assert_eq!(raw.get("seed").and_then(|v| v.as_u64()), Some(ev.seed()));
            assert!(raw.get("t").is_some(), "every event carries t: {line}");
        }
    }

    #[test]
    fn run_summary_inlines_counters() {
        let ev = TraceEvent::RunSummary {
            seed: 3,
            t: 4,
            counters: RunCounters {
                events: 11,
                updates_sent: 5,
                withdrawals_sent: 1,
                decisions: 9,
                loops: 2,
                max_queue_depth: 6,
                wall_ms: 12,
                sim_ns: 8_250_000,
                measure_ns: 4_000_000,
                replay_packets: 40,
                replay_memo_hits: 30,
                peak_rss_kb: 2048,
            },
        };
        let raw: RawEvent = serde_json::from_str(&serde_json::to_string(&ev).unwrap()).unwrap();
        assert_eq!(raw.get("events").and_then(|v| v.as_u64()), Some(11));
        assert_eq!(raw.get("loops").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(raw.get("max_queue_depth").and_then(|v| v.as_u64()), Some(6));
        assert_eq!(
            raw.get("replay_memo_hits").and_then(|v| v.as_u64()),
            Some(30)
        );
        // The phase timers travel in ns; ms is derived when rendering.
        assert_eq!(raw.get("sim_ns").and_then(|v| v.as_u64()), Some(8_250_000));
        assert_eq!(raw.get("sim_ms").and_then(|v| v.as_f64()), Some(8.25));
        assert_eq!(raw.get("measure_ms").and_then(|v| v.as_f64()), Some(4.0));
    }

    #[test]
    fn peak_rss_probe_is_sane() {
        let rss = peak_rss_kb();
        if cfg!(target_os = "linux") {
            // Any live process has touched at least a page; /proc may
            // be masked in exotic sandboxes, where 0 is the contract.
            assert!(rss == 0 || rss >= 64, "implausible VmHWM: {rss} KiB");
        } else {
            assert_eq!(rss, 0);
        }
    }

    #[test]
    fn counters_round_trip_and_merge() {
        let a = RunCounters {
            events: 1,
            updates_sent: 2,
            withdrawals_sent: 3,
            decisions: 4,
            loops: 5,
            max_queue_depth: 6,
            wall_ms: 7,
            sim_ns: 5_400_000,
            measure_ns: 2_700_000,
            replay_packets: 8,
            replay_memo_hits: 3,
            peak_rss_kb: 1024,
        };
        let json = serde_json::to_string(&a).unwrap();
        let back: RunCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);

        let mut total = RunCounters {
            max_queue_depth: 9,
            ..Default::default()
        };
        total.merge(&a);
        assert_eq!(total.events, 1);
        assert_eq!(total.wall_ms, 7);
        assert_eq!(total.sim_ns, 5_400_000);
        // Sub-millisecond jobs add up instead of truncating to zero.
        let mut sum = RunCounters::default();
        for _ in 0..170 {
            sum.merge(&RunCounters {
                sim_ns: 400_000,
                ..Default::default()
            });
        }
        assert_eq!(ns_to_ms(sum.sim_ns), 68.0);
        assert_eq!(total.replay_packets, 8);
        assert_eq!(total.replay_memo_hits, 3);
        assert_eq!(total.max_queue_depth, 9, "merge keeps the maximum depth");
        assert_eq!(total.peak_rss_kb, 1024, "merge keeps the maximum RSS");
        total.merge(&RunCounters {
            max_queue_depth: 20,
            ..Default::default()
        });
        assert_eq!(total.max_queue_depth, 20);
    }

    #[test]
    fn disabled_handle_never_builds_the_event() {
        let handle = TraceHandle::disabled();
        assert!(!handle.is_enabled());
        let mut built = false;
        handle.emit(|| {
            built = true;
            sample_loop_onset()
        });
        assert!(!built, "disabled emit must not run the closure");
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = Arc::new(MemorySink::new());
        let handle = TraceHandle::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
        assert!(handle.is_enabled());
        handle.emit(sample_loop_onset);
        handle.emit(|| TraceEvent::MraiFired {
            seed: 7,
            t: 8,
            node: 1,
            peer: 2,
        });
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "loop_onset");
        assert_eq!(events[1].kind(), "mrai_fired");
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!(
            "bgpsim-trace-test-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.emit(&sample_loop_onset());
            sink.emit(&TraceEvent::LoopOffset {
                seed: 7,
                t: 3_000_000_000,
                nodes: vec![5, 6],
                duration: 1_500_000_000,
            });
        } // drop flushes
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let raw: RawEvent = serde_json::from_str(line).unwrap();
            assert!(raw.kind().is_some());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn null_sink_handle_reports_disabled() {
        let handle = TraceHandle::new(Arc::new(NullSink));
        assert!(!handle.is_enabled());
    }
}
