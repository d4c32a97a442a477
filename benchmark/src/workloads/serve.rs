//! `serve_cold_isolated` and `serve_warm`: the daemon in this process,
//! two closed-loop clients over loopback. Cold, every job is a cache
//! miss run in a supervised `bgpsim worker` child; warm, every job is
//! a cache hit and nothing is simulated.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bgpsim_experiments::jobspec::JobSpec;
use bgpsim_metrics::{MetricsRow, PaperMetrics};
use bgpsim_runner::{IsolationConfig, JobHandle, RunCache, Runner, RunnerStats};
use bgpsim_serve::{ServeConfig, Server};

use crate::harness::{
    fresh_dir, paired_passes, peak_rss_mb, repeated_setup, secs, timed_passes,
    trace_overhead_share, Ctx, Outcome,
};
use crate::http::{self, Conn};
use crate::span::{Ledger, Spans};
use crate::stats::{median, percentile};

/// Which of the two service workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Cold,
    Warm,
}

const CLIENTS: usize = 2;
/// The fixed set the warm workload resubmits.
const WARM_SPECS: usize = 64;

/// Jobs each client submits in one pass.
fn jobs_per_client(cache: Cache, smoke: bool) -> usize {
    match (smoke, cache) {
        (true, _) => 8,
        (false, Cache::Cold) => 24,
        (false, Cache::Warm) => 8 * WARM_SPECS,
    }
}

/// A one-seed Clique-8 submission; `n` picks the event and, with the
/// workload seed, a scenario seed no other `n` shares.
fn job_body(ctx: &Ctx, n: u64) -> String {
    let event = if n.is_multiple_of(2) {
        "tdown"
    } else {
        "tlong"
    };
    let seed = ctx.seed * 1_000_000 + n;
    format!("{{\"topology\":\"clique:8\",\"event\":\"{event}\",\"seeds\":[{seed}]}}")
}

/// The result stream the daemon must produce for `body`, computed in
/// this process without the daemon.
fn expected_stream(body: &str) -> (String, PaperMetrics) {
    let spec = JobSpec::parse(body).expect("benchmark job bodies are valid");
    let nodes = spec.topology.build().0.node_count() as f64;
    let scenario = spec.scenarios().remove(0);
    let metrics = scenario.run().measurement.metrics;
    let row = MetricsRow::from_metrics(
        "serve",
        scenario.topology.label(),
        scenario.config.enhancements.label(),
        nodes,
        scenario.seed,
        &metrics,
    );
    let line = serde_json::to_string(&row).expect("metrics row serializes");
    (format!("{line}\n"), metrics)
}

fn isolation(ctx: &Ctx) -> IsolationConfig {
    IsolationConfig {
        worker_cmd: Some(vec![
            ctx.worker_bin.to_string_lossy().into_owned(),
            "worker".into(),
        ]),
        ..IsolationConfig::default()
    }
}

/// The daemon as `bgpsim serve --cache-dir … --journal …` configures
/// it: isolation on, two executor threads, cache and journal on disk.
struct Daemon {
    server: Option<Server>,
    runner: Arc<Runner>,
    addr: SocketAddr,
}

impl Drop for Daemon {
    /// A dropped `Server` leaves its threads running; drain and join
    /// them so no daemon outlives its workload.
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Daemon {
    fn start(ctx: &Ctx, dir: &Path) -> Daemon {
        let runner = Runner::new(CLIENTS)
            .with_cache_dir(dir.join("cache"))
            .expect("create cache directory")
            .try_with_journal_path(&dir.join("journal.jsonl"))
            .expect("open journal")
            .with_isolation(true)
            .with_isolation_config(isolation(ctx));
        let runner = Arc::new(runner);
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            exec_workers: CLIENTS,
            ..ServeConfig::default()
        };
        let server = Server::start(config, Arc::clone(&runner)).expect("bind a loopback port");
        let addr = server.local_addr();
        Daemon {
            server: Some(server),
            runner,
            addr,
        }
    }
}

/// Client-side timings of one job, in ms from the start of the submit.
#[derive(Debug, Clone, Copy)]
struct JobTiming {
    admit_ms: f64,
    first_byte_ms: f64,
    latency_ms: f64,
}

/// What the clients of one workload run observed.
#[derive(Debug, Default)]
struct Observed {
    timings: Vec<JobTiming>,
    rejected_429: u64,
    status_5xx: u64,
    errors: Vec<String>,
}

impl Observed {
    fn absorb(&mut self, other: Observed) {
        self.timings.extend(other.timings);
        self.rejected_429 += other.rejected_429;
        self.status_5xx += other.status_5xx;
        self.errors.extend(other.errors);
    }

    fn note_status(&mut self, status: u16) {
        self.rejected_429 += u64::from(status == 429);
        self.status_5xx += u64::from(status >= 500);
    }
}

/// Submits one job and streams its results to the last line.
fn run_job(
    addr: SocketAddr,
    body: &str,
    spans: &mut Spans,
    seen: &mut Observed,
) -> Option<Vec<u8>> {
    let root = spans.enter("job");
    let started = Instant::now();
    let outcome = (|| {
        let admitted =
            http::request(addr, "POST", "/v1/jobs", body).map_err(|e| format!("submit: {e}"))?;
        let admitted_at = Instant::now();
        spans.record("serve.admit", started, admitted_at);
        seen.note_status(admitted.status);
        if admitted.status != 201 {
            return Err(format!("submit answered {}", admitted.status));
        }
        let text = String::from_utf8_lossy(&admitted.body);
        let id: u64 = text
            .split("\"id\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|id| id.trim().parse().ok())
            .ok_or_else(|| format!("submit reply without an id: {text}"))?;
        let results = http::request(addr, "GET", &format!("/v1/jobs/{id}/results"), "")
            .map_err(|e| format!("results: {e}"))?;
        let done = Instant::now();
        spans.record("serve.first_byte_wait", admitted_at, results.first_byte);
        spans.record("serve.stream", results.first_byte, done);
        seen.note_status(results.status);
        if results.status != 200 {
            return Err(format!("results answered {}", results.status));
        }
        let ms = |t: Instant| t.duration_since(started).as_secs_f64() * 1e3;
        seen.timings.push(JobTiming {
            admit_ms: ms(admitted_at),
            first_byte_ms: ms(results.first_byte),
            latency_ms: ms(done),
        });
        Ok(results.body)
    })();
    spans.exit(root);
    match outcome {
        Ok(stream) => Some(stream),
        Err(e) => {
            seen.errors.push(e);
            None
        }
    }
}

/// The jobs of one workload: what to submit as the `n`-th job of the
/// run and which stream must come back.
struct Jobs<'a> {
    ctx: &'a Ctx,
    cache: Cache,
    /// Next never-used job number (cold).
    next: AtomicU64,
    /// Body and expected stream of the fixed set (warm).
    warm: Vec<(String, Vec<u8>)>,
}

impl Jobs<'_> {
    /// Runs one client's share of a pass.
    fn client_pass(&self, client: usize, addr: SocketAddr, spans: &mut Spans) -> Observed {
        let mut seen = Observed::default();
        for j in 0..jobs_per_client(self.cache, self.ctx.smoke) {
            match self.cache {
                Cache::Cold => {
                    let n = self.next.fetch_add(1, Ordering::Relaxed);
                    let body = job_body(self.ctx, n);
                    if let Some(stream) = run_job(addr, &body, spans, &mut seen) {
                        let seed = format!("\"seed\":{},", self.ctx.seed * 1_000_000 + n);
                        let text = String::from_utf8_lossy(&stream);
                        if text.lines().count() != 1 || !text.contains(&seed) {
                            seen.errors.push(format!("job {n} streamed {text:?}"));
                        }
                    }
                }
                Cache::Warm => {
                    // The two clients walk the set from opposite halves.
                    let (body, expected) =
                        &self.warm[(j + client * WARM_SPECS / CLIENTS) % self.warm.len()];
                    if let Some(stream) = run_job(addr, body, spans, &mut seen) {
                        if stream != *expected {
                            seen.errors.push(format!("warm stream differs for {body}"));
                        }
                    }
                }
            }
        }
        seen
    }

    /// One pass: every client runs its share, concurrently.
    fn pass(&self, addr: SocketAddr, spans: Option<&mut Spans>) -> Observed {
        let origin = Instant::now();
        let traced = spans.is_some();
        let results: Vec<(Observed, Spans)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        let mut own = if traced {
                            Spans::with_origin(origin)
                        } else {
                            Spans::disabled()
                        };
                        own.set_run(client as u32);
                        (self.client_pass(client, addr, &mut own), own)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut seen = Observed::default();
        let mut spans = spans;
        for (observed, own) in results {
            seen.absorb(observed);
            if let Some(spans) = spans.as_deref_mut() {
                spans.absorb(own);
            }
        }
        seen
    }
}

/// Everything set-up produces: a running daemon and, for the warm
/// workload, its cache filled.
struct Ready<'a> {
    daemon: Daemon,
    jobs: Jobs<'a>,
    sample: PaperMetrics,
}

fn setup<'a>(cache: Cache, ctx: &'a Ctx, rep: usize, outcome: &mut Outcome) -> Ready<'a> {
    let dir = fresh_dir(&ctx.work_dir.join(format!("daemon-{rep}")));
    let daemon = Daemon::start(ctx, &dir);
    let addr = daemon.addr;
    let health = http::request(addr, "GET", "/v1/healthz", "");
    outcome.check(health.is_ok_and(|r| r.status == 200), || {
        "daemon is not healthy after start".into()
    });

    let mut jobs = Jobs {
        ctx,
        cache,
        next: AtomicU64::new(0),
        warm: Vec::new(),
    };
    // The first job doubles as the oracle: the isolated daemon must
    // stream exactly the line this process computes without it.
    let body = job_body(ctx, jobs.next.fetch_add(1, Ordering::Relaxed));
    let (expected, sample) = expected_stream(&body);
    let mut seen = Observed::default();
    let streamed = run_job(addr, &body, &mut Spans::disabled(), &mut seen);
    outcome.check(streamed.as_deref() == Some(expected.as_bytes()), || {
        format!(
            "isolated daemon streamed {:?}, in-process run gives {expected:?} ({:?})",
            streamed.map(|s| String::from_utf8_lossy(&s).into_owned()),
            seen.errors
        )
    });

    if cache == Cache::Warm {
        // Fill the cache through the daemon itself, cold and isolated,
        // and keep each cold stream: warm streams must equal it.
        let mut seen = Observed::default();
        jobs.warm = (0..WARM_SPECS as u64)
            .map(|i| job_body(ctx, 1000 + i))
            .filter_map(|body| {
                let stream = run_job(addr, &body, &mut Spans::disabled(), &mut seen)?;
                Some((body, stream))
            })
            .collect();
        outcome.check(jobs.warm.len() == WARM_SPECS, || {
            format!(
                "cache pre-fill completed {} of {WARM_SPECS} jobs",
                jobs.warm.len()
            )
        });
    }
    Ready {
        daemon,
        jobs,
        sample,
    }
}

fn stats_delta(before: &RunnerStats, after: &RunnerStats) -> (u64, u64, u64, u64) {
    (
        after.executed - before.executed,
        after.cache_hits - before.cache_hits,
        after.worker_retries - before.worker_retries,
        after.worker_crashes - before.worker_crashes,
    )
}

pub fn run(cache: Cache, ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    // Each repetition starts a daemon of its own in a fresh directory;
    // the one before it is shut down outside the timed interval.
    let (ready, setup_s) = repeated_setup(ctx, |rep| setup(cache, ctx, rep, &mut outcome));
    let Ready {
        daemon,
        jobs,
        sample,
    } = ready;
    outcome.metric("setup_s", setup_s);

    let before = daemon.runner.stats();
    let mut seen = Observed::default();
    let mut spans = Spans::new();
    let (plain_walls, traced_walls) = if ctx.traced {
        paired_passes(ctx, |traced| {
            seen.absorb(jobs.pass(daemon.addr, traced.then_some(&mut spans)));
        })
    } else {
        let walls = timed_passes(ctx, |_| seen.absorb(jobs.pass(daemon.addr, None)));
        (secs(&walls), Vec::new())
    };
    let after = daemon.runner.stats();

    let per_pass = (CLIENTS * jobs_per_client(cache, ctx.smoke)) as u64;
    let submitted = per_pass * (plain_walls.len() + traced_walls.len()) as u64;
    for error in seen.errors.iter().take(5) {
        eprintln!("FAILED: {error}");
    }
    // A job that failed left exactly one error behind.
    outcome.attempted += submitted;
    outcome.failed += seen.errors.len() as u64;
    let (executed, hits, retries, crashes) = stats_delta(&before, &after);
    match cache {
        Cache::Cold => outcome.check(executed == submitted && hits == 0, || {
            format!("cold: {submitted} jobs but {executed} executed, {hits} cache hits")
        }),
        Cache::Warm => outcome.check(executed == 0 && hits == submitted, || {
            format!("warm: {submitted} jobs but {executed} executed, {hits} cache hits")
        }),
    }
    outcome.check(retries == 0 && crashes == 0, || {
        format!("{crashes} worker crashes, {retries} retries")
    });
    outcome.count("serve.jobs_per_pass", per_pass);

    let latencies: Vec<f64> = seen.timings.iter().map(|t| t.latency_ms).collect();
    if !ctx.traced {
        outcome.metric("work_per_s", per_pass as f64 / median(&plain_walls));
        outcome.metric("latency_ms_p50", median(&latencies));
        outcome.metric("peak_rss_mb", peak_rss_mb());
        return outcome;
    }

    let first_bytes: Vec<f64> = seen.timings.iter().map(|t| t.first_byte_ms).collect();
    let admits: Vec<f64> = seen.timings.iter().map(|t| t.admit_ms).collect();
    let p = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
    outcome.metric("serve.admit_ms_p50", p(&admits, 0.5));
    outcome.metric("serve.first_byte_ms_p50", p(&first_bytes, 0.5));
    outcome.metric("serve.first_byte_ms_p99", p(&first_bytes, 0.99));
    outcome.metric("serve.job_latency_ms_p99", p(&latencies, 0.99));
    outcome.metric("serve.latency_samples", latencies.len() as f64);
    outcome.metric("serve.rejected_429", seen.rejected_429 as f64);
    outcome.metric("serve.status_5xx", seen.status_5xx as f64);
    // Under isolation every executed job is one child, every retry one more.
    outcome.metric("runner.worker_spawns", (executed + retries) as f64);
    outcome.metric("runner.worker_retries", retries as f64);

    let ledger = Ledger::of(spans.as_slice(), "job");
    let traced_jobs = (per_pass as usize * traced_walls.len()) as f64;
    outcome.metric(
        "serve.admit_ns",
        ledger.ns("serve.admit") as f64 / traced_jobs,
    );
    outcome.metric(
        "serve.first_byte_wait_ns",
        ledger.ns("serve.first_byte_wait") as f64 / traced_jobs,
    );
    outcome.metric(
        "serve.stream_ns",
        ledger.ns("serve.stream") as f64 / traced_jobs,
    );
    outcome.metric("ledger.wall_ns", ledger.wall_ns as f64 / traced_jobs);
    outcome.metric(
        "ledger.unattributed_share",
        ledger.unattributed_share("job"),
    );
    outcome.metric(
        "bench.trace_overhead_share",
        trace_overhead_share(&plain_walls, &traced_walls),
    );
    outcome.metric(
        "bench.passes",
        (plain_walls.len() + traced_walls.len()) as f64,
    );

    layer_probes(ctx, &mut outcome, daemon.addr, &sample);
    outcome.spans = Some(spans);
    outcome
}

/// Single-layer measurements of the service path, taken while the
/// daemon is otherwise idle.
fn layer_probes(ctx: &Ctx, outcome: &mut Outcome, addr: SocketAddr, sample: &PaperMetrics) {
    let probes = if ctx.smoke { 20 } else { 200 };

    // The smallest request, on a connection per request as the clients
    // above make them, and on one kept open across requests.
    let mut kept = Conn::connect(addr).ok();
    let (mut roundtrips, mut kept_roundtrips) = (Vec::new(), Vec::new());
    for i in 0..probes {
        let started = Instant::now();
        let ok = http::request(addr, "GET", "/v1/healthz", "").is_ok_and(|r| r.status == 200);
        roundtrips.push(started.elapsed().as_secs_f64() * 1e3);
        outcome.check(ok, || "healthz probe failed".into());
        if i % 10 == 0 {
            let started = Instant::now();
            let ok = kept.as_mut().is_some_and(|c| {
                c.request("GET", "/v1/healthz", "")
                    .is_ok_and(|r| r.status == 200)
            });
            kept_roundtrips.push(started.elapsed().as_secs_f64() * 1e3);
            outcome.check(ok, || "keep-alive healthz probe failed".into());
        }
    }
    drop(kept);
    outcome.metric("serve.http_roundtrip_ms_p50", median(&roundtrips));
    outcome.metric("serve.keepalive_roundtrip_ms_p50", median(&kept_roundtrips));

    let stats = http::request(addr, "GET", "/v1/stats", "").ok();
    let stats: Option<serde::Value> =
        stats.and_then(|r| serde_json::from_str(&String::from_utf8_lossy(&r.body)).ok());
    let field = |v: &serde::Value, name: &str| serde::value::field(v, name).ok().cloned();
    let requests = stats.as_ref().and_then(|s| field(s, "requests"));
    let hit_rate = stats
        .as_ref()
        .and_then(|s| field(s, "runner"))
        .and_then(|r| field(&r, "hit_rate_percent"));
    outcome.check(requests.is_some() && hit_rate.is_some(), || {
        "/v1/stats lacks requests or runner.hit_rate_percent".into()
    });
    outcome.metric(
        "serve.requests",
        requests.and_then(|v| v.as_f64()).unwrap_or(0.0),
    );
    outcome.metric(
        "serve.cache_hit_ratio",
        hit_rate.and_then(|v| v.as_f64()).unwrap_or(0.0) / 100.0,
    );

    // The run cache alone, with its default durability.
    let cache = RunCache::new(fresh_dir(&ctx.work_dir.join("probe-cache"))).expect("probe cache");
    let keys: Vec<String> = (0..probes)
        .map(|i| format!("benchmark-probe/{i}"))
        .collect();
    let (mut stores, mut lookups) = (Vec::new(), Vec::new());
    for key in &keys {
        let started = Instant::now();
        let stored = cache.store(key, sample);
        stores.push(started.elapsed().as_nanos() as f64);
        outcome.check(stored.is_ok(), || format!("cache store failed: {stored:?}"));
    }
    for key in &keys {
        let started = Instant::now();
        let found = cache.lookup(key);
        lookups.push(started.elapsed().as_nanos() as f64);
        outcome.check(found.as_ref() == Some(sample), || {
            "cache lookup lost a stored entry".into()
        });
    }
    outcome.metric("runner.cache_store_ns", median(&stores));
    outcome.metric("runner.cache_lookup_ns", median(&lookups));

    // The same job isolated and in-process, on runners without a cache.
    let isolated = Runner::new(1)
        .with_isolation(true)
        .with_isolation_config(isolation(ctx));
    let in_process = Runner::new(1);
    let (mut isolated_ms, mut in_process_ms) = (Vec::new(), Vec::new());
    for i in 0..(probes / 10).max(5) as u64 {
        let spec = JobSpec::parse(&job_body(ctx, 500_000 + i)).expect("valid body");
        for (runner, samples) in [
            (&isolated, &mut isolated_ms),
            (&in_process, &mut in_process_ms),
        ] {
            let job = spec.scenarios().remove(0).into_job();
            let started = Instant::now();
            let done = runner.run_job(job, &JobHandle::new());
            samples.push(started.elapsed().as_secs_f64() * 1e3);
            outcome.check(done.is_ok(), || {
                format!("probe job failed: {:?}", done.err())
            });
        }
    }
    outcome.metric(
        "runner.isolate_overhead_ms_per_job",
        median(&isolated_ms) - median(&in_process_ms),
    );
}
