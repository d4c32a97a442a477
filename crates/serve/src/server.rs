//! The daemon: accept loop, connection handling, executor workers, and
//! graceful drain.
//!
//! Threading model — three kinds of threads over one shared state:
//!
//! * the **accept loop** takes connections off the listener and spawns
//!   a handler thread per connection (bounded by a connection cap;
//!   overflow is answered 503 and closed);
//! * **connection handlers** parse requests, run admission, and serve
//!   responses — submissions only *enqueue* work;
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

use crate::admission::{Admission, AdmissionLimits, CircuitBreaker};
use crate::http::{read_request, write_response, ChunkedBody, ParseError, Request};
use crate::jobs::{JobEntry, JobRegistry, JobStatus};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8355` (`:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Executor worker threads draining the run queue.
    pub exec_workers: usize,
    /// Admission limits (queue depth, per-client quotas).
    pub limits: AdmissionLimits,
    /// Concurrent-connection cap; overflow is answered 503.
    pub max_connections: usize,
    /// Consecutive worker crashes before the circuit breaker opens and
    /// submissions are shed with 503 `circuit_open` (0 disables).
    pub breaker_threshold: u32,
    /// How long an open breaker sheds load before admitting a probe.
    pub breaker_cooldown: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8355".into(),
            exec_workers: 2,
            limits: AdmissionLimits::default(),
            max_connections: 64,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(5),
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
    admission: Admission,
    breaker: CircuitBreaker,
    queue: Mutex<VecDeque<QueuedRun>>,
    queue_cond: Condvar,
    stop: AtomicBool,
    conns: AtomicUsize,
    max_conns: usize,
    jobs_submitted: AtomicU64,
    requests: AtomicU64,
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
            admission: Admission::new(config.limits.clone()),
            breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            stop: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            max_conns: config.max_connections.max(1),
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
        self.shared.admission.is_draining()
    }

    /// Stops admission and blocks until every admitted run has
    /// finished, then flushes the journal and the trace sink. New
    /// submissions are refused with 503 from the moment this is
    /// called; status/results/stats requests keep working.
    pub fn drain(&self) {
        self.shared.admission.start_drain();
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
        let Ok(stream) = stream else { continue };
        if shared.conns.load(Ordering::SeqCst) >= shared.max_conns {
            let mut stream = stream;
            let _ = write_response(
                &mut stream,
                503,
                &[],
                "{\"error\":\"too many connections\"}",
                false,
            );
            continue;
        }
        shared.conns.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("bgpsim-serve-conn".into())
            .spawn(move || {
                handle_connection(&shared, stream);
                shared.conns.fetch_sub(1, Ordering::SeqCst);
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
        /// Scenario runs admitted by this request (for `serve_request`
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
            shared.admission.start_drain();
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
            if cancelled {
                release_job(shared, &entry);
            }
            Routed::plain(200, format!("{{\"id\":{id},\"cancelled\":{cancelled}}}"))
        }
        ("GET", Some("results")) => Routed::ResultStream(entry),
        _ => Routed::plain(405, error_body("method not allowed")),
    }
}

fn submit_job(shared: &Arc<Shared>, request: &Request) -> Routed {
    let client = request.client().to_string();
    let body = String::from_utf8_lossy(&request.body);
    let spec = match JobSpec::parse(&body) {
        Ok(spec) => spec,
        Err(err) => return Routed::plain(400, error_body(&err)),
    };
    let runs = spec.run_count();
    // The breaker gates before quota accounting: a shed submission
    // must not consume queue capacity it will never use.
    if let Err(reason) = shared.breaker.allow() {
        TraceHandle::global().emit(|| TraceEvent::AdmissionReject {
            client: client.clone(),
            reason: reason.name().into(),
        });
        return Routed::Plain {
            status: reason.status(),
            body: error_body(reason.name()),
            retry_after: true,
            runs: 0,
        };
    }
    if let Err(reason) = shared.admission.admit(&client, runs) {
        TraceHandle::global().emit(|| TraceEvent::AdmissionReject {
            client: client.clone(),
            reason: reason.name().into(),
        });
        return Routed::Plain {
            status: reason.status(),
            body: error_body(reason.name()),
            retry_after: reason.status() == 429,
            runs: 0,
        };
    }
    let entry = shared
        .registry
        .create(&client, spec.label(), runs, spec.version);
    shared.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    let nodes = spec.topology.build().0.node_count() as f64;
    {
        let mut queue = shared.queue.lock().expect("queue lock");
        for (index, scenario) in spec.scenarios().into_iter().enumerate() {
            queue.push_back(QueuedRun {
                entry: Arc::clone(&entry),
                index,
                scenario,
                nodes,
            });
        }
    }
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
        shared.admission.run_started();
        if run.entry.handle.is_cancelled() {
            // The job was cancelled while this run sat in the queue;
            // its terminal state is already set.
            continue;
        }
        run.entry.mark_running();
        let job = run.scenario.clone().into_job();
        match shared.runner.run_job(job, &run.entry.handle) {
            Ok(done) => {
                shared.breaker.record_success();
                let events = done.counters.map_or(0, |c| c.events);
                shared.admission.charge_events(&run.entry.client, events);
                let line = result_line(&run, &done.metrics);
                run.entry.complete_run(run.index, line, done.cached, events);
                if run.entry.snapshot().status.is_terminal() {
                    release_job(shared, &run.entry);
                }
            }
            Err(RunnerError::Cancelled { .. }) => {
                run.entry.finish_with(JobStatus::Cancelled);
                release_job(shared, &run.entry);
            }
            Err(err) => {
                // Crashed execution vehicles feed the circuit breaker;
                // other failures (timeouts, cache errors) mean the
                // machinery itself ran the job to a verdict, which
                // counts as healthy and closes a probing breaker.
                match &err {
                    RunnerError::WorkerCrash { .. } | RunnerError::WorkerPanic { .. } => {
                        shared.breaker.record_crash();
                    }
                    _ => shared.breaker.record_success(),
                }
                // One failed run fails the job; cancel its siblings so
                // queued runs are discarded at pickup.
                run.entry.handle.cancel();
                run.entry.finish_with(JobStatus::Failed(err.to_string()));
                release_job(shared, &run.entry);
            }
        }
    }
}

/// Frees the client's active-job slot exactly once per job.
fn release_job(shared: &Arc<Shared>, entry: &Arc<JobEntry>) {
    if entry.take_release() {
        shared.admission.job_finished(&entry.client);
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
        "{{\"ok\":true,\"draining\":{},\"degraded\":{},\"breaker\":{}}}",
        shared.admission.is_draining(),
        !shared.breaker.is_closed(),
        json_string(shared.breaker.state_name()),
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
    let clients: Vec<String> = shared
        .admission
        .client_stats()
        .into_iter()
        .map(|(client, stats)| {
            format!(
                "{{\"client\":{},\"active_jobs\":{},\"admitted_jobs\":{},\"events_charged\":{},\"rejected\":{}}}",
                json_string(&client),
                stats.active_jobs,
                stats.admitted_jobs,
                stats.events_charged,
                stats.rejected,
            )
        })
        .collect();
    format!(
        "{{\"jobs_submitted\":{},\"jobs_active\":{},\"queue_depth\":{},\"draining\":{},\"requests\":{},\
         \"peak_rss_kb\":{},\
         \"runner\":{{\"jobs\":{},\"cache_hits\":{},\"executed\":{},\"hit_rate_percent\":{:.3},\
         \"sim_ms\":{:.3},\"measure_ms\":{:.3},\
         \"worker_crashes\":{},\"worker_retries\":{},\"jobs_poisoned\":{}}},\
         \"breaker\":{{\"state\":{},\"crashes\":{},\"trips\":{}}},\
         \"clients\":[{}]}}",
        shared.jobs_submitted.load(Ordering::Relaxed),
        shared.registry.active_count(),
        shared.admission.queue_depth(),
        shared.admission.is_draining(),
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
        json_string(shared.breaker.state_name()),
        shared.breaker.crashes(),
        shared.breaker.trips(),
        clients.join(","),
    )
}
