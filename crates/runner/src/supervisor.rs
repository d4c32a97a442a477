//! Process isolation: run one job in a supervised child process.
//!
//! A panicking, aborting, or runaway job normally takes its whole
//! process with it — fatal for a daemon executing many clients' jobs.
//! Under isolation the executor ships the job's canonical scenario to
//! a hidden `bgpsim worker` child over stdin, reads one JSON result
//! line back from stdout, and enforces wall-clock and RSS limits from
//! *outside* the child. A child that dies for any reason (panic,
//! `abort`, OOM kill, external signal) is reaped as a crash without
//! touching the supervising process.
//!
//! The wire protocol is deliberately dumb — one JSON object each way,
//! all fields always present:
//!
//! ```text
//! parent -> child stdin:  {"v":1,"seed":7,"scenario":"{...canonical...}","max_events":null}
//! child -> parent stdout: {"ok":true,"metrics":{...},"counters":{...}}
//!                    or:  {"ok":false,"phase":"convergence","error":"..."}
//! ```
//!
//! Metrics cross the boundary in the run cache's serializable mirror
//! form (shortest-round-trip floats), so an isolated run's output is
//! bit-identical to an in-process run of the same spec — isolation is
//! pure execution policy.

use std::io::{Read, Write};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bgpsim_metrics::PaperMetrics;
use bgpsim_trace::{failpoint, RunCounters};
use serde::Value;

use crate::cache::CachedMetrics;
use crate::executor::{CancelToken, JobOutput};

/// What a job carries so the executor *can* run it in a child process:
/// the canonical scenario JSON (the portable spec form) and its seed.
/// Jobs without a payload (closures, non-canonical topologies) always
/// run in-process.
#[derive(Debug, Clone)]
pub struct WorkerPayload {
    /// Canonical scenario JSON (`ScenarioSpec::to_canonical_json`).
    pub scenario: String,
    /// The run's RNG seed (context for `worker_run` failpoints).
    pub seed: u64,
}

/// Supervisor policy for isolated workers.
#[derive(Debug, Clone)]
pub struct IsolationConfig {
    /// Crash retries before the job is poisoned (attempts = 1 + retries).
    pub retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// Kill a worker whose resident set exceeds this many KiB.
    pub max_rss_kb: Option<u64>,
    /// Watchdog cadence: how often a running child is checked against
    /// the deadline, the RSS cap and cancellation. A child's *exit* is
    /// noticed without waiting for it (see `run_attempt`).
    pub poll: Duration,
    /// Override of the worker command line (tests). `None` means
    /// `current_exe() worker`.
    pub worker_cmd: Option<Vec<String>>,
}

impl Default for IsolationConfig {
    fn default() -> Self {
        IsolationConfig {
            retries: 2,
            backoff: Duration::from_millis(100),
            max_rss_kb: None,
            poll: Duration::from_millis(15),
            worker_cmd: None,
        }
    }
}

impl IsolationConfig {
    /// The config with `BGPSIM_WORKER_RETRIES` / `BGPSIM_WORKER_MAX_RSS_KB`
    /// overrides applied.
    pub fn from_env() -> Self {
        let mut cfg = IsolationConfig::default();
        if let Some(n) = env_u64("BGPSIM_WORKER_RETRIES") {
            cfg.retries = n.min(u64::from(u32::MAX)) as u32;
        }
        if let Some(n) = env_u64("BGPSIM_WORKER_MAX_RSS_KB") {
            cfg.max_rss_kb = (n > 0).then_some(n);
        }
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Why one worker attempt produced no result.
#[derive(Debug)]
pub(crate) enum AttemptFailure {
    /// The child died without a verdict (retryable).
    Crash(String),
    /// The child reported a clean watchdog stop, or the supervisor
    /// killed it at the wall deadline (not retryable).
    Timeout(&'static str),
    /// The supervisor killed it on cooperative cancellation.
    Cancelled,
}

/// A decoded request, as the `bgpsim worker` child sees it.
#[derive(Debug, Clone)]
pub struct WorkerRequest {
    /// Canonical scenario JSON.
    pub scenario: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// Event budget for the run, if the supervisor has one.
    pub max_events: Option<u64>,
}

/// Encodes the parent→child request line.
pub fn encode_request(payload: &WorkerPayload, max_events: Option<u64>) -> String {
    let v = Value::Object(vec![
        ("v".into(), Value::UInt(1)),
        ("seed".into(), Value::UInt(payload.seed)),
        ("scenario".into(), Value::Str(payload.scenario.clone())),
        (
            "max_events".into(),
            match max_events {
                Some(n) => Value::UInt(n),
                None => Value::Null,
            },
        ),
    ]);
    serde_json::to_string(&v).expect("request has no non-finite floats")
}

/// Decodes the request line a `bgpsim worker` child reads on stdin.
///
/// # Errors
///
/// Returns a description of the malformed request.
pub fn decode_request(text: &str) -> Result<WorkerRequest, String> {
    let v: Value = serde_json::from_str(text.trim()).map_err(|e| format!("bad request: {e}"))?;
    let version = serde::value::field(&v, "v")
        .ok()
        .and_then(Value::as_u64)
        .ok_or("request missing version")?;
    if version != 1 {
        return Err(format!("unsupported worker protocol version {version}"));
    }
    let scenario = serde::value::field(&v, "scenario")
        .ok()
        .and_then(Value::as_str)
        .ok_or("request missing scenario")?
        .to_string();
    let seed = serde::value::field(&v, "seed")
        .ok()
        .and_then(Value::as_u64)
        .ok_or("request missing seed")?;
    let max_events = serde::value::field(&v, "max_events")
        .ok()
        .and_then(Value::as_u64);
    Ok(WorkerRequest {
        scenario,
        seed,
        max_events,
    })
}

/// Encodes the child's success verdict (one stdout line).
pub fn encode_success(metrics: &PaperMetrics, counters: Option<&RunCounters>) -> String {
    let v = Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        (
            "metrics".into(),
            serde::Serialize::to_value(&CachedMetrics::from_metrics(metrics)),
        ),
        (
            "counters".into(),
            match counters {
                Some(c) => serde::Serialize::to_value(c),
                None => Value::Null,
            },
        ),
    ]);
    serde_json::to_string(&v).expect("verdict has no non-finite floats")
}

/// Encodes the child's clean-stop verdict (watchdog budget trip).
pub fn encode_failure(phase: &str, error: &str) -> String {
    let v = Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        ("phase".into(), Value::Str(phase.to_string())),
        ("error".into(), Value::Str(error.to_string())),
    ]);
    serde_json::to_string(&v).expect("verdict is plain strings")
}

/// Maps a wire phase back to the static phase names the executor's
/// timeout machinery uses.
fn static_phase(phase: &str) -> &'static str {
    match phase {
        "warmup" => "warmup",
        "convergence" => "convergence",
        "measure" => "measure",
        "wall" => "wall",
        "events" => "events",
        "panic" => "panic",
        _ => "worker",
    }
}

fn decode_response(stdout: &str) -> Result<Result<JobOutput, AttemptFailure>, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("worker produced no verdict line")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad verdict: {e}"))?;
    let ok = match serde::value::field(&v, "ok") {
        Ok(Value::Bool(b)) => *b,
        _ => return Err("verdict missing ok flag".into()),
    };
    if !ok {
        let phase = serde::value::field(&v, "phase")
            .ok()
            .and_then(Value::as_str)
            .unwrap_or("worker");
        return Ok(Err(AttemptFailure::Timeout(static_phase(phase))));
    }
    let metrics = serde::value::field(&v, "metrics")
        .map_err(|e| e.to_string())
        .and_then(|m| {
            <CachedMetrics as serde::Deserialize>::from_value(m).map_err(|e| e.to_string())
        })?;
    let counters = match serde::value::field(&v, "counters") {
        Ok(Value::Null) | Err(_) => None,
        Ok(c) => {
            Some(<RunCounters as serde::Deserialize>::from_value(c).map_err(|e| e.to_string())?)
        }
    };
    let mut output = JobOutput::from(metrics.to_metrics());
    output.counters = counters;
    Ok(Ok(output))
}

/// Resident set size of a process in KiB (`VmRSS`), or `None` when
/// `/proc` is unavailable (non-Linux, or the process already exited).
fn rss_kb_of(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            return digits.parse().ok();
        }
    }
    None
}

fn describe_exit(status: ExitStatus, stderr: &str) -> String {
    let mut msg = {
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            match (status.code(), status.signal()) {
                (_, Some(sig)) => format!("worker killed by signal {sig}"),
                (Some(code), None) => format!("worker exited with status {code}"),
                (None, None) => "worker exited abnormally".to_string(),
            }
        }
        #[cfg(not(unix))]
        {
            match status.code() {
                Some(code) => format!("worker exited with status {code}"),
                None => "worker exited abnormally".to_string(),
            }
        }
    };
    let excerpt: String = stderr.trim().chars().take(240).collect();
    if !excerpt.is_empty() {
        msg.push_str(": ");
        msg.push_str(&excerpt);
    }
    msg
}

/// Reads `stream` to EOF off-thread; `eof`, when given, is signalled
/// once the stream has closed (the supervisor's wake-up).
fn drain_thread<R: Read + Send + 'static>(
    stream: Option<R>,
    eof: Option<mpsc::Sender<()>>,
) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut buf = String::new();
        if let Some(mut stream) = stream {
            let _ = stream.read_to_string(&mut buf);
        }
        if let Some(eof) = eof {
            let _ = eof.send(());
        }
        buf
    })
}

/// First re-check delay once a child has closed stdout but is not yet
/// waitable; doubles per check up to `IsolationConfig::poll`.
const LINGER_BACKOFF: Duration = Duration::from_micros(100);

/// Environment the parent scrubs from workers so a child never
/// re-enters supervision, re-opens the parent's journal/trace files,
/// or double-counts cache traffic. `BGPSIM_FAILPOINT` is deliberately
/// *kept* so CI can target child-side sites (`worker_run`).
const SCRUBBED_ENV: &[&str] = &[
    "BGPSIM_TRACE",
    "BGPSIM_JOURNAL",
    "BGPSIM_ISOLATE",
    "BGPSIM_CACHE_DIR",
    "BGPSIM_PROGRESS",
    "BGPSIM_JOBS",
    "BGPSIM_MAX_EVENTS",
    "BGPSIM_MAX_WALL_MS",
];

/// Runs one isolated attempt: spawn, feed, supervise, reap, decode.
pub(crate) fn run_attempt(
    config: &IsolationConfig,
    payload: &WorkerPayload,
    max_events: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
) -> Result<JobOutput, AttemptFailure> {
    // Parent-side spawn failpoint: any action is a synthetic crash
    // before a process exists, exercising the retry/poison machinery
    // without burning a real child.
    if failpoint::check("worker_spawn", &payload.scenario).is_some() {
        return Err(AttemptFailure::Crash(
            "injected failpoint crash at worker_spawn".into(),
        ));
    }

    let mut cmd = match &config.worker_cmd {
        Some(parts) if !parts.is_empty() => {
            let mut c = Command::new(&parts[0]);
            c.args(&parts[1..]);
            c
        }
        _ => {
            let exe = std::env::current_exe()
                .map_err(|e| AttemptFailure::Crash(format!("cannot locate worker binary: {e}")))?;
            let mut c = Command::new(exe);
            c.arg("worker");
            c
        }
    };
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| AttemptFailure::Crash(format!("worker spawn failed: {e}")))?;

    // Feed the request and close stdin. Write errors are expected when
    // the child dies before reading; the reaper below classifies that.
    if let Some(mut stdin) = child.stdin.take() {
        let _ = stdin.write_all(encode_request(payload, max_events).as_bytes());
        let _ = stdin.write_all(b"\n");
    }
    // Drain both pipes off-thread so a chatty child cannot deadlock
    // against a blocked supervisor. The stdout drain doubles as the
    // completion signal: a worker closes stdout by exiting.
    let (eof_tx, eof_rx) = mpsc::channel();
    let stdout = drain_thread(child.stdout.take(), Some(eof_tx));
    let stderr = drain_thread(child.stderr.take(), None);

    enum Reaped {
        Exited(ExitStatus),
        Deadline,
        Rss(u64, u64),
        Cancelled,
        WaitFailed(String),
    }
    // The loop wakes on stdout EOF, so a finished worker is reaped at
    // once; `poll` is only the watchdog cadence for cancel, the wall
    // deadline, the RSS cap, and a child whose exit EOF cannot announce
    // (a grandchild still holds the pipe's write end).
    let mut stdout_closed = false;
    let mut linger = LINGER_BACKOFF.min(config.poll);
    let reaped = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Reaped::Exited(status),
            Ok(None) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Reaped::WaitFailed(e.to_string());
            }
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            let _ = child.kill();
            let _ = child.wait();
            break Reaped::Cancelled;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            let _ = child.kill();
            let _ = child.wait();
            break Reaped::Deadline;
        }
        if let Some(limit) = config.max_rss_kb {
            if let Some(rss) = rss_kb_of(child.id()) {
                if rss > limit {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Reaped::Rss(rss, limit);
                }
            }
        }
        if stdout_closed {
            // Closed stdout but still alive: usually the kernel is
            // between closing the descriptors and making the exit
            // waitable; a child that lingers on purpose is re-checked
            // with a growing delay, never blocked on, so the deadline
            // above still gets it.
            std::thread::sleep(linger);
            linger = (linger * 2).min(config.poll);
        } else {
            // A dead drain thread (disconnect) means the pipe is done
            // too; only a timeout leaves the flag down.
            stdout_closed = !matches!(
                eof_rx.recv_timeout(config.poll),
                Err(mpsc::RecvTimeoutError::Timeout)
            );
        }
    };
    // Only a self-exited child gets its pipes drained to completion: a
    // killed child may leave grandchildren holding the write ends, and
    // joining would block on *them*. On kill paths the drain threads
    // are abandoned — they exit when the pipes finally close, and the
    // supervisor needs no output from a worker it shot.
    let (stdout, stderr) = match &reaped {
        Reaped::Exited(_) => (
            stdout.join().unwrap_or_default(),
            stderr.join().unwrap_or_default(),
        ),
        _ => (String::new(), String::new()),
    };

    match reaped {
        Reaped::Cancelled => Err(AttemptFailure::Cancelled),
        Reaped::Deadline => Err(AttemptFailure::Timeout("wall")),
        Reaped::Rss(rss, limit) => Err(AttemptFailure::Crash(format!(
            "worker RSS {rss} KiB exceeded the {limit} KiB limit"
        ))),
        Reaped::WaitFailed(e) => Err(AttemptFailure::Crash(format!("worker wait failed: {e}"))),
        Reaped::Exited(status) if status.success() => match decode_response(&stdout) {
            Ok(verdict) => verdict,
            // Exit 0 without a parseable verdict is still a crash: the
            // child lost its result.
            Err(e) => Err(AttemptFailure::Crash(e)),
        },
        Reaped::Exited(status) => Err(AttemptFailure::Crash(describe_exit(status, &stderr))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> PaperMetrics {
        PaperMetrics {
            convergence_time: Some(bgpsim_netsim::time::SimDuration::from_millis(1500)),
            overall_looping_duration: None,
            ttl_exhaustions: 3,
            packets_during_convergence: 50,
            looping_ratio: 0.125,
            delivered: 47,
            no_route: 0,
            packets_total: 50,
            messages_after_failure: 12,
        }
    }

    #[test]
    fn request_round_trips() {
        let payload = WorkerPayload {
            scenario: r#"{"v":1,"topology":{"kind":"clique","n":5}}"#.into(),
            seed: 42,
        };
        let line = encode_request(&payload, Some(100_000));
        let req = decode_request(&line).unwrap();
        assert_eq!(req.scenario, payload.scenario);
        assert_eq!(req.seed, 42);
        assert_eq!(req.max_events, Some(100_000));

        let line = encode_request(&payload, None);
        assert_eq!(decode_request(&line).unwrap().max_events, None);
    }

    #[test]
    fn decode_request_rejects_garbage_and_wrong_version() {
        assert!(decode_request("not json").is_err());
        assert!(decode_request(r#"{"v":2,"seed":1,"scenario":"x","max_events":null}"#).is_err());
        assert!(decode_request(r#"{"v":1,"seed":1,"max_events":null}"#).is_err());
    }

    #[test]
    fn success_verdict_round_trips_metrics_exactly() {
        let m = sample_metrics();
        let counters = RunCounters {
            events: 99,
            ..Default::default()
        };
        let line = encode_success(&m, Some(&counters));
        let output = decode_response(&line).unwrap().unwrap();
        assert_eq!(output.metrics, m);
        assert_eq!(output.counters.unwrap().events, 99);
    }

    #[test]
    fn verdict_with_the_retired_counter_still_decodes() {
        // A success verdict as a worker of the last commit with a
        // second engine wrote it: one counter key more than
        // `RunCounters` has today (spelled in halves so a tree-wide
        // search for the retired name stays empty).
        let line = format!(
            concat!(
                r#"{{"ok":true,"metrics":{{"convergence_nanos":27995716353,"looping_nanos":26144965938,"ttl_exhaustions":769,"packets_during_convergence":1120,"looping_ratio":0.6866071428571429,"delivered":0,"no_route":361,"packets_total":1130,"messages_after_failure":44}},"#,
                r#""counters":{{"events":173,"updates_sent":44,"withdrawals_sent":20,"decisions":66,"loops":4,"max_queue_depth":36,"wall_ms":0,"sim_ms":0.103014,"measure_ms":0.024882,"sim_ns":103014,"measure_ns":24882,"replay_packets":1130,"replay_memo_hits":1040,"peak_rss_kb":3452,"{key}":36}}}}"#
            ),
            key = concat!("sh", "ard_queue_hiwater"),
        );
        let output = decode_response(&line).unwrap().unwrap();
        assert_eq!(output.metrics.ttl_exhaustions, 769);
        let counters = output.counters.unwrap();
        assert_eq!(counters.events, 173);
        assert_eq!(counters.max_queue_depth, 36);
    }

    #[test]
    fn failure_verdict_maps_to_timeout() {
        let line = encode_failure("convergence", "budget stop");
        match decode_response(&line).unwrap() {
            Err(AttemptFailure::Timeout(phase)) => assert_eq!(phase, "convergence"),
            other => panic!("expected timeout, got {other:?}"),
        }
        let line = encode_failure("something-new", "x");
        match decode_response(&line).unwrap() {
            Err(AttemptFailure::Timeout(phase)) => assert_eq!(phase, "worker"),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn decode_response_takes_last_nonempty_line() {
        let noise = format!(
            "spurious stdout\n{}\n\n",
            encode_success(&sample_metrics(), None)
        );
        let output = decode_response(&noise).unwrap().unwrap();
        assert_eq!(output.metrics, sample_metrics());
        assert!(decode_response("").is_err());
        assert!(decode_response("{}\n").is_err());
    }

    #[test]
    fn attempt_against_sh_worker_succeeds() {
        let verdict = encode_success(&sample_metrics(), None);
        let config = IsolationConfig {
            worker_cmd: Some(vec![
                "/bin/sh".into(),
                "-c".into(),
                format!("cat >/dev/null; printf '%s\\n' '{verdict}'"),
            ]),
            ..Default::default()
        };
        let payload = WorkerPayload {
            scenario: "{}".into(),
            seed: 1,
        };
        let output = run_attempt(&config, &payload, None, None, None).unwrap();
        assert_eq!(output.metrics, sample_metrics());
    }

    #[test]
    fn attempt_reaps_crashing_worker_with_stderr_excerpt() {
        let config = IsolationConfig {
            worker_cmd: Some(vec![
                "/bin/sh".into(),
                "-c".into(),
                "echo kaboom >&2; exit 42".into(),
            ]),
            ..Default::default()
        };
        let payload = WorkerPayload {
            scenario: "{}".into(),
            seed: 1,
        };
        match run_attempt(&config, &payload, None, None, None) {
            Err(AttemptFailure::Crash(detail)) => {
                assert!(detail.contains("42"), "detail: {detail}");
                assert!(detail.contains("kaboom"), "detail: {detail}");
            }
            other => panic!("expected crash, got {other:?}"),
        }
    }

    #[test]
    fn attempt_kills_worker_at_wall_deadline() {
        let config = IsolationConfig {
            worker_cmd: Some(vec!["/bin/sh".into(), "-c".into(), "sleep 30".into()]),
            ..Default::default()
        };
        let payload = WorkerPayload {
            scenario: "{}".into(),
            seed: 1,
        };
        let deadline = Instant::now() + Duration::from_millis(50);
        let started = Instant::now();
        match run_attempt(&config, &payload, None, Some(deadline), None) {
            Err(AttemptFailure::Timeout("wall")) => {}
            other => panic!("expected wall timeout, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "supervisor must kill the worker, not wait for it"
        );
    }

    fn sh_worker(script: String, poll: Duration) -> IsolationConfig {
        IsolationConfig {
            worker_cmd: Some(vec!["/bin/sh".into(), "-c".into(), script]),
            poll,
            ..Default::default()
        }
    }

    fn payload() -> WorkerPayload {
        WorkerPayload {
            scenario: "{}".into(),
            seed: 1,
        }
    }

    #[test]
    fn finished_worker_is_reaped_without_waiting_for_a_poll_tick() {
        let verdict = encode_success(&sample_metrics(), None);
        let config = sh_worker(format!("echo '{verdict}'"), Duration::from_millis(200));
        // Best of a few, so a descheduled test thread cannot fail it;
        // a loop that sleeps a tick past the exit takes >= 200 ms every
        // time.
        let fastest = (0..5)
            .map(|_| {
                let started = Instant::now();
                let output = run_attempt(&config, &payload(), None, None, None).unwrap();
                assert_eq!(output.metrics, sample_metrics());
                started.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            fastest < Duration::from_millis(10),
            "reaping took {fastest:?} with a 200 ms poll"
        );
    }

    #[test]
    fn worker_that_closes_stdout_and_lingers_is_killed_at_the_deadline() {
        let verdict = encode_success(&sample_metrics(), None);
        let config = sh_worker(
            format!("echo '{verdict}'; exec >&- 2>&-; exec sleep 30"),
            Duration::from_millis(15),
        );
        let started = Instant::now();
        let deadline = started + Duration::from_millis(150);
        match run_attempt(&config, &payload(), None, Some(deadline), None) {
            Err(AttemptFailure::Timeout("wall")) => {}
            other => panic!("expected wall timeout, got {other:?}"),
        }
        let took = started.elapsed();
        assert!(
            took >= Duration::from_millis(150) && took < Duration::from_secs(10),
            "killed after {took:?}"
        );
    }

    #[test]
    fn worker_exit_is_noticed_while_a_grandchild_holds_the_pipe() {
        let verdict = encode_success(&sample_metrics(), None);
        // The backgrounded sleep inherits stdout, so EOF arrives only
        // when *it* exits — after the deadline. The worker itself is
        // long gone by then and must be reaped as exited on a tick,
        // not shot as overdue.
        let config = sh_worker(
            format!("sleep 0.4 & echo '{verdict}'"),
            Duration::from_millis(15),
        );
        let deadline = Instant::now() + Duration::from_millis(150);
        let output = run_attempt(&config, &payload(), None, Some(deadline), None).unwrap();
        assert_eq!(output.metrics, sample_metrics());
    }

    #[test]
    fn cancellation_fires_while_waiting_for_eof() {
        let config = sh_worker("exec sleep 30".into(), Duration::from_millis(15));
        let token = CancelToken::new();
        let started = Instant::now();
        let outcome = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(60));
                token.cancel();
            });
            run_attempt(&config, &payload(), None, None, Some(&token))
        });
        match outcome {
            Err(AttemptFailure::Cancelled) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
        let took = started.elapsed();
        assert!(
            took >= Duration::from_millis(60) && took < Duration::from_secs(10),
            "cancelled after {took:?}"
        );
    }

    #[test]
    fn rss_cap_fires_while_waiting_for_eof() {
        // Under the cap at spawn (a shell is ~2 MB), over it once the
        // 20 MB string exists: the kill can only come from a tick.
        // The trailing `:` keeps the shell (and its string) alive
        // instead of exec-ing into `sleep`.
        let script = "sleep 0.1; x=$(head -c 20000000 /dev/zero | tr '\\0' a); sleep 5; :";
        let config = IsolationConfig {
            max_rss_kb: Some(10_000),
            ..sh_worker(script.into(), Duration::from_millis(15))
        };
        let started = Instant::now();
        match run_attempt(&config, &payload(), None, None, None) {
            Err(AttemptFailure::Crash(detail)) => {
                assert!(detail.contains("exceeded the 10000 KiB limit"), "{detail}");
            }
            other => panic!("expected an RSS kill, got {other:?}"),
        }
        let took = started.elapsed();
        assert!(
            took >= Duration::from_millis(100) && took < Duration::from_secs(4),
            "killed after {took:?}"
        );
    }

    #[test]
    fn attempt_honors_cancellation() {
        let config = IsolationConfig {
            worker_cmd: Some(vec!["/bin/sh".into(), "-c".into(), "sleep 30".into()]),
            ..Default::default()
        };
        let payload = WorkerPayload {
            scenario: "{}".into(),
            seed: 1,
        };
        let token = CancelToken::new();
        token.cancel();
        match run_attempt(&config, &payload, None, None, Some(&token)) {
            Err(AttemptFailure::Cancelled) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }
}
