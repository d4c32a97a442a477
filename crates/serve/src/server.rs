//! The daemon: accept loop, connection handling, executor workers, and
//! graceful drain.
//!
//! Threading model — three kinds of threads over one shared state:
//!
//! * the **accept loop** takes connections off the listener and spawns
//!   a handler thread per connection (at most `MAX_CONNECTIONS`, 64;
//!   overflow is answered 503 and closed);
//! * **connection handlers** parse requests, admit submissions, and
//!   serve responses — submissions only *enqueue* work;
//! * **executor workers** (a fixed pool) pull individual scenario runs
//!   off the pending queue and push them through the shared
//!   [`Runner`], so every run goes through the one process-wide run
//!   cache, journal, and stats, and concurrent clients warm each
//!   other.
//!
//! There is no signal handling (the workspace has no libc binding);
//! graceful drain is API-driven instead: `POST /v1/drain` (or
//! [`Server::drain`] in-process) stops admission, lets queued and
//! in-flight runs finish, and flushes the journal and trace sinks.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bgpsim_experiments::jobspec::JobSpec;
use bgpsim_experiments::scenario::ScenarioSpec;
use bgpsim_metrics::MetricsRow;
use bgpsim_runner::{Error as RunnerError, Runner};
use bgpsim_trace::{TraceEvent, TraceHandle};
use serde::value::Value;

use crate::http::{read_request, write_response, ChunkedBody, ParseError, Request};
use crate::jobs::{JobEntry, JobRegistry, JobStatus};

/// Concurrent-connection cap; a connection over it is answered 503.
const MAX_CONNECTIONS: usize = 64;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8355` (`:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Executor worker threads draining the run queue.
    pub exec_workers: usize,
    /// Cap on queued (admitted, not yet started) runs; a submission
    /// that would overflow it is refused with 429 + `Retry-After`.
    pub max_queued_runs: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8355".into(),
            exec_workers: 2,
            max_queued_runs: 1024,
        }
    }
}

/// One admitted scenario run waiting for an executor worker.
struct QueuedRun {
    entry: Arc<JobEntry>,
    index: usize,
    scenario: ScenarioSpec,
    /// Node count of the topology, precomputed at admission so result
    /// lines need no graph rebuild.
    nodes: f64,
}

struct Shared {
    runner: Arc<Runner>,
    registry: JobRegistry,
    /// Admitted runs no executor has picked up yet; its length is the
    /// queue depth that `max_queued_runs` caps.
    queue: Mutex<VecDeque<QueuedRun>>,
    queue_cond: Condvar,
    max_queued_runs: usize,
    /// Set (under the queue lock) once a drain begins: every later
    /// submission is refused.
    draining: AtomicBool,
    stop: AtomicBool,
    conns: Arc<AtomicUsize>,
    jobs_submitted: AtomicU64,
    requests: AtomicU64,
}

impl Shared {
    /// Stops admission. The flag flips under the queue lock, so a
    /// submission is either refused or already registered by the time
    /// this returns, and a drain that waits for idle waits for it too.
    fn start_drain(&self) {
        let _queue = self.queue.lock().expect("queue lock");
        self.draining.store(true, Ordering::SeqCst);
    }
}

/// One of the daemon's [`MAX_CONNECTIONS`] slots, moved into the
/// connection's handler thread. Dropping it gives the slot back,
/// whether the handler returned, panicked, or never ran because its
/// thread could not be spawned.
struct ConnSlot(Arc<AtomicUsize>);

impl ConnSlot {
    /// Takes a slot, or `None` when all of them are in use.
    fn claim(conns: &Arc<AtomicUsize>) -> Option<ConnSlot> {
        let slot = ConnSlot(Arc::clone(conns));
        (conns.fetch_add(1, Ordering::SeqCst) < MAX_CONNECTIONS).then_some(slot)
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon. Dropping it without [`shutdown`](Self::shutdown)
/// leaves the threads running (the binary's mode of operation);
/// tests call `shutdown` explicitly.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, spawns the accept loop and the executor
    /// pool, and returns the running server.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unusable.
    pub fn start(config: ServeConfig, runner: Arc<Runner>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            runner,
            registry: JobRegistry::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            max_queued_runs: config.max_queued_runs,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            conns: Arc::default(),
            jobs_submitted: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });

        let workers = (0..config.exec_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bgpsim-serve-exec-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("spawn executor worker")
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("bgpsim-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept loop");

        Ok(Server {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// `true` once a drain has been requested (via `POST /v1/drain` or
    /// [`drain`](Self::drain)).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Stops admission and blocks until every admitted run has
    /// finished, then flushes the journal and the trace sink. New
    /// submissions are refused with 503 from the moment this is
    /// called; status/results/stats requests keep working.
    pub fn drain(&self) {
        self.shared.start_drain();
        // Runs still queued once every job is terminal belong to
        // cancelled or failed jobs; the executors discard them at pickup.
        self.shared.registry.wait_idle();
        self.shared.runner.flush_journal();
        bgpsim_trace::flush_global();
    }

    /// Drains, then stops the accept loop and the executor pool and
    /// joins them. Connection handler threads finish with their
    /// clients.
    pub fn shutdown(mut self) {
        self.drain();
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection, and the
        // workers via the queue condvar.
        let _ = TcpStream::connect(self.local_addr);
        self.shared.queue_cond.notify_all();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let Some(slot) = ConnSlot::claim(&shared.conns) else {
            let _ = write_response(
                &mut stream,
                503,
                &[],
                "{\"error\":\"too many connections\"}",
                false,
            );
            continue;
        };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("bgpsim-serve-conn".into())
            .spawn(move || {
                let _slot = slot;
                handle_connection(&shared, stream);
            });
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // Idle keep-alive connections die after a quiet period so handler
    // threads cannot accumulate forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    // Every response and chunk is one complete write; nothing is gained
    // by letting Nagle hold one back for the previous one's ACK.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => break,
            Err(Ok(parse_error)) => {
                emit_parse_reject(shared, &parse_error);
                let body = error_body(&parse_error.reason());
                let _ = write_response(&mut writer, parse_error.status(), &[], &body, false);
                break;
            }
            Err(Err(_)) => break,
        };
        let keep_alive = request.keep_alive() && !shared.stop.load(Ordering::SeqCst);
        let started = Instant::now();
        shared.requests.fetch_add(1, Ordering::Relaxed);
        match route(shared, &request) {
            Routed::Plain {
                status,
                body,
                retry_after,
                runs,
            } => {
                let headers: &[(&str, &str)] = if retry_after {
                    &[("retry-after", "1")]
                } else {
                    &[]
                };
                emit_request_trace(&request, status, started, runs);
                if write_response(&mut writer, status, headers, &body, keep_alive).is_err() {
                    break;
                }
            }
            Routed::ResultStream(entry) => {
                emit_request_trace(&request, 200, started, 0);
                if stream_results(&mut writer, &entry, keep_alive).is_err() {
                    break;
                }
            }
        }
        if !keep_alive {
            break;
        }
    }
}

/// How a routed request is answered.
enum Routed {
    Plain {
        status: u16,
        body: String,
        retry_after: bool,
        /// Runs admitted by this request (for `serve_request`
        /// trace reconciliation).
        runs: u64,
    },
    ResultStream(Arc<JobEntry>),
}

impl Routed {
    fn plain(status: u16, body: String) -> Routed {
        Routed::Plain {
            status,
            body,
            retry_after: false,
            runs: 0,
        }
    }
}

fn route(shared: &Arc<Shared>, request: &Request) -> Routed {
    let path = request.path.as_str();
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/v1/healthz") => Routed::plain(200, healthz_body(shared)),
        ("GET", "/v1/stats") => Routed::plain(200, stats_body(shared)),
        ("POST", "/v1/jobs") => submit_job(shared, request),
        ("POST", "/v1/drain") => {
            shared.start_drain();
            Routed::plain(202, "{\"draining\":true}".into())
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                return route_job(shared, request, rest);
            }
            Routed::plain(404, error_body("no such endpoint"))
        }
    }
}

fn route_job(shared: &Arc<Shared>, request: &Request, rest: &str) -> Routed {
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Routed::plain(404, error_body("no such job"));
    };
    let Some(entry) = shared.registry.get(id) else {
        return Routed::plain(404, error_body("no such job"));
    };
    match (request.method.as_str(), tail) {
        ("GET", None) => Routed::plain(200, status_body(&entry)),
        ("DELETE", None) => {
            let cancelled = entry.cancel();
            Routed::plain(200, format!("{{\"id\":{id},\"cancelled\":{cancelled}}}"))
        }
        ("GET", Some("results")) => Routed::ResultStream(entry),
        _ => Routed::plain(405, error_body("method not allowed")),
    }
}

fn submit_job(shared: &Arc<Shared>, request: &Request) -> Routed {
    let client = request.client();
    let body = String::from_utf8_lossy(&request.body);
    let spec = match JobSpec::parse(&body) {
        Ok(spec) => spec,
        Err(err) => return Routed::plain(400, error_body(&err)),
    };
    let runs = spec.run_count();
    let nodes = spec.topology.build().0.node_count() as f64;
    let mut queue = shared.queue.lock().expect("queue lock");
    let refusal = if shared.draining.load(Ordering::SeqCst) {
        Some((503, "draining"))
    } else if queue.len() + runs > shared.max_queued_runs {
        Some((429, "queue_full"))
    } else {
        None
    };
    if let Some((status, reason)) = refusal {
        drop(queue);
        TraceHandle::global().emit(|| TraceEvent::AdmissionReject {
            client: client.to_string(),
            reason: reason.into(),
        });
        return Routed::Plain {
            status,
            body: error_body(reason),
            retry_after: status == 429,
            runs: 0,
        };
    }
    let entry = shared
        .registry
        .create(client, spec.label(), runs, spec.version);
    for (index, scenario) in spec.scenarios().into_iter().enumerate() {
        queue.push_back(QueuedRun {
            entry: Arc::clone(&entry),
            index,
            scenario,
            nodes,
        });
    }
    drop(queue);
    shared.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    shared.queue_cond.notify_all();
    Routed::Plain {
        status: 201,
        body: format!(
            "{{\"id\":{},\"runs\":{},\"label\":{}}}",
            entry.id,
            runs,
            json_string(&entry.label)
        ),
        retry_after: false,
        runs: runs as u64,
    }
}

/// The result line of one completed run: a pure function of the
/// scenario (label, topology, seed, metrics) — deliberately free of
/// execution details like cache state or timing, so identical
/// submissions stream byte-identical results no matter which client
/// warmed the cache.
fn result_line(run: &QueuedRun, metrics: &bgpsim_metrics::PaperMetrics) -> String {
    let row = MetricsRow::from_metrics(
        "serve",
        run.scenario.topology.label(),
        run.scenario.config.enhancements.label(),
        run.nodes,
        run.scenario.seed,
        metrics,
    );
    serde_json::to_string(&row).expect("metrics row serializes")
}

fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let run = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(run) = queue.pop_front() {
                    break run;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = shared
                    .queue_cond
                    .wait_timeout(queue, Duration::from_millis(200))
                    .expect("queue lock");
                queue = guard;
            }
        };
        if run.entry.handle.is_cancelled() {
            // The job was cancelled while this run sat in the queue;
            // its terminal state is already set.
            continue;
        }
        run.entry.mark_running();
        let job = run.scenario.clone().into_job();
        match shared.runner.run_job(job, &run.entry.handle) {
            Ok(done) => {
                let events = done.counters.map_or(0, |c| c.events);
                let line = result_line(&run, &done.metrics);
                run.entry.complete_run(run.index, line, done.cached, events);
            }
            Err(RunnerError::Cancelled { .. }) => run.entry.finish_with(JobStatus::Cancelled),
            Err(err) => {
                // One failed run fails the job; cancel its siblings so
                // queued runs are discarded at pickup.
                run.entry.handle.cancel();
                run.entry.finish_with(JobStatus::Failed(err.to_string()));
            }
        }
    }
}

fn stream_results(
    writer: &mut TcpStream,
    entry: &Arc<JobEntry>,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut body = ChunkedBody::start(writer, 200, "application/x-ndjson", keep_alive)?;
    let mut from = 0usize;
    loop {
        let (lines, status) = entry.wait_results(from, Duration::from_millis(200));
        for line in &lines {
            body.write_chunk(format!("{line}\n").as_bytes())?;
        }
        from += lines.len();
        if status.is_terminal() && lines.is_empty() {
            break;
        }
    }
    body.finish()
}

fn emit_request_trace(request: &Request, status: u16, started: Instant, runs: u64) {
    TraceHandle::global().emit(|| TraceEvent::ServeRequest {
        client: request.client().to_string(),
        method: request.method.clone(),
        path: request.path.clone(),
        status,
        wall_us: started.elapsed().as_micros() as u64,
        runs,
    });
}

fn emit_parse_reject(_shared: &Arc<Shared>, error: &ParseError) {
    TraceHandle::global().emit(|| TraceEvent::ServeRequest {
        client: "unknown".into(),
        method: "?".into(),
        path: "?".into(),
        status: error.status(),
        wall_us: 0,
        runs: 0,
    });
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&Value::Str(s.to_string())).expect("string serializes")
}

fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}", json_string(message))
}

fn healthz_body(shared: &Arc<Shared>) -> String {
    format!(
        "{{\"ok\":true,\"draining\":{}}}",
        shared.draining.load(Ordering::SeqCst)
    )
}

fn status_body(entry: &Arc<JobEntry>) -> String {
    let snap = entry.snapshot();
    let mut body = format!(
        "{{\"id\":{},\"spec_version\":{},\"status\":{},\"label\":{},\"client\":{},\"runs\":{},\"done\":{},\"cached\":{},\"events_charged\":{}",
        snap.id,
        snap.spec_version,
        json_string(snap.status.name()),
        json_string(&snap.label),
        json_string(&snap.client),
        snap.total_runs,
        snap.done_runs,
        snap.cached_runs,
        snap.events_charged,
    );
    if let JobStatus::Failed(reason) = &snap.status {
        body.push_str(&format!(",\"reason\":{}", json_string(reason)));
    }
    body.push('}');
    body
}

fn stats_body(shared: &Arc<Shared>) -> String {
    let runner = shared.runner.stats();
    format!(
        "{{\"jobs_submitted\":{},\"jobs_active\":{},\"queue_depth\":{},\"draining\":{},\"requests\":{},\
         \"peak_rss_kb\":{},\
         \"runner\":{{\"jobs\":{},\"cache_hits\":{},\"executed\":{},\"hit_rate_percent\":{:.3},\
         \"sim_ms\":{:.3},\"measure_ms\":{:.3},\
         \"worker_crashes\":{},\"worker_retries\":{},\"jobs_poisoned\":{}}}}}",
        shared.jobs_submitted.load(Ordering::Relaxed),
        shared.registry.active_count(),
        shared.queue.lock().expect("queue lock").len(),
        shared.draining.load(Ordering::SeqCst),
        shared.requests.load(Ordering::Relaxed),
        bgpsim_trace::peak_rss_kb(),
        runner.jobs,
        runner.cache_hits,
        runner.executed,
        runner.hit_rate_percent(),
        bgpsim_trace::ns_to_ms(runner.counters.sim_ns),
        bgpsim_trace::ns_to_ms(runner.counters.measure_ns),
        runner.worker_crashes,
        runner.worker_retries,
        runner.jobs_poisoned,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_slots_are_capped_and_given_back() {
        let conns = Arc::default();
        let slots: Vec<ConnSlot> = (0..MAX_CONNECTIONS)
            .map(|_| ConnSlot::claim(&conns).expect("a free slot"))
            .collect();
        assert!(ConnSlot::claim(&conns).is_none(), "every slot is taken");
        assert_eq!(conns.load(Ordering::SeqCst), MAX_CONNECTIONS);
        drop(slots);
        assert_eq!(conns.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_handler_that_never_runs_gives_its_slot_back() {
        // What a failed thread spawn does with the handler closure:
        // drops it without calling it.
        let conns = Arc::default();
        let slot = ConnSlot::claim(&conns).expect("a free slot");
        let handler = move || {
            let _slot = slot;
        };
        assert_eq!(conns.load(Ordering::SeqCst), 1);
        drop(handler);
        assert_eq!(conns.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_panicking_handler_gives_its_slot_back() {
        let conns = Arc::default();
        let slot = ConnSlot::claim(&conns).expect("a free slot");
        let unwound = std::panic::catch_unwind(move || {
            let _slot = slot;
            panic!("handler panicked");
        });
        assert!(unwound.is_err());
        assert_eq!(conns.load(Ordering::SeqCst), 0);
    }
}
