//! Crash-tolerance end-to-end tests driving the real `bgpsim` binary:
//! a SIGKILL mid-run leaves a recoverable journal and a byte-identical
//! rerun; a crashing isolated worker fails only its own job; the
//! daemon survives worker crashes and degrades through its circuit
//! breaker instead of dying.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_bgpsim");

/// A unique scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpsim-crash-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A `bgpsim` invocation wired to the scratch dir's cache and journal,
/// with a scrubbed crash-tolerance environment.
fn bgpsim(dir: &Path) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.env_remove("BGPSIM_FAILPOINT")
        .env_remove("BGPSIM_ISOLATE")
        .env_remove("BGPSIM_TRACE")
        .env_remove("BGPSIM_JOBS")
        .env("BGPSIM_JOURNAL", dir.join("journal.jsonl"))
        .env("BGPSIM_CACHE_DIR", dir.join("cache"));
    cmd
}

#[test]
fn sigkill_mid_run_recovers_and_reruns_byte_identically() {
    let dir = scratch("kill9");
    let journal = dir.join("journal.jsonl");
    let args = ["--topology", "clique:45", "--event", "tdown", "--json"];

    // Start a run big enough to outlive the poll below, then SIGKILL
    // it as soon as its fsynced job_started intent appears.
    let mut child = bgpsim(&dir)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn run");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "no job_started intent appeared");
        let intent_logged = std::fs::read_to_string(&journal)
            .map(|t| t.contains("\"event\":\"job_started\""))
            .unwrap_or(false);
        if intent_logged {
            break;
        }
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "run finished before the kill; pick a bigger scenario"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap killed child");

    // Recovery reports the dangling intent and exits 1.
    let recovered = bgpsim(&dir).arg("recover").output().expect("recover");
    let report = String::from_utf8_lossy(&recovered.stdout).to_string();
    assert_eq!(recovered.status.code(), Some(1), "{report}");
    assert!(report.contains("1 interrupted"), "{report}");

    // Rerun the interrupted job with journal appends failing (torn
    // infrastructure): the run completes and lands in the cache, but
    // no journal line closes the intent.
    let first = bgpsim(&dir)
        .args(args)
        .env("BGPSIM_FAILPOINT", "journal_append:err")
        .output()
        .expect("rerun");
    assert!(first.status.success(), "{:?}", first);

    // Recovery still sees the dangling intent, but now finds its
    // result in the cache: nothing was lost.
    let recovered = bgpsim(&dir).arg("recover").output().expect("recover again");
    let report = String::from_utf8_lossy(&recovered.stdout).to_string();
    assert_eq!(recovered.status.code(), Some(1), "{report}");
    assert!(
        report.contains("1 interrupted (1 already in cache)"),
        "{report}"
    );

    // A clean rerun is served from the cache byte-identically and
    // journals a completion, closing the intent for good.
    let second = bgpsim(&dir).args(args).output().expect("cached rerun");
    assert!(second.status.success(), "{:?}", second);
    assert_eq!(
        first.stdout, second.stdout,
        "cache round-trip must be byte-identical"
    );
    let text = std::fs::read_to_string(&journal).expect("journal");
    assert!(text.contains("\"cached\":true"), "second run was a hit");
    let clean = bgpsim(&dir).arg("recover").output().expect("final recover");
    let report = String::from_utf8_lossy(&clean.stdout).to_string();
    assert_eq!(clean.status.code(), Some(0), "{report}");
    assert!(report.contains("0 interrupted"), "{report}");
}

#[test]
fn crashing_worker_fails_only_its_job_and_is_poisoned() {
    let dir = scratch("abort");
    let trace = dir.join("trace.jsonl");
    let out = bgpsim(&dir)
        .args([
            "--topology",
            "clique:6",
            "--event",
            "tdown",
            "--json",
            "--isolate",
            "--trace-out",
        ])
        .arg(&trace)
        .env("BGPSIM_FAILPOINT", "worker_run:abort")
        .env("BGPSIM_WORKER_RETRIES", "1")
        .output()
        .expect("run with aborting worker");
    // The supervisor fails the job cleanly (exit 1, not a signal).
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("crashed its isolated worker"), "{stderr}");

    let trace_text = std::fs::read_to_string(&trace).expect("trace file");
    // `BGPSIM_WORKER_RETRIES=1` reached the supervisor: one attempt
    // plus one retry, where the default budget would make three.
    let lines_of = |kind: &str| {
        let needle = format!("\"kind\":\"{kind}\"");
        trace_text.lines().filter(|l| l.contains(&needle)).count()
    };
    assert_eq!(lines_of("worker_crash"), 2, "{trace_text}");
    assert_eq!(lines_of("job_retry"), 1, "{trace_text}");
    assert!(trace_text.contains("\"poisoned\":true"), "{trace_text}");
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal");
    assert!(journal.contains("\"event\":\"job_crashed\""), "{journal}");
}

#[test]
fn torn_worker_verdict_counts_as_a_crash() {
    let dir = scratch("torn");
    let out = bgpsim(&dir)
        .args([
            "--topology",
            "clique:5",
            "--event",
            "tdown",
            "--json",
            "--isolate",
        ])
        .env("BGPSIM_FAILPOINT", "worker_run:torn")
        .env("BGPSIM_WORKER_RETRIES", "0")
        .output()
        .expect("run with torn verdict");
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("crashed its isolated worker"), "{stderr}");
}

#[test]
fn isolation_is_pure_execution_policy() {
    let dir_a = scratch("iso-worker");
    let dir_b = scratch("iso-inproc");
    let args = ["--topology", "clique:7", "--event", "tlong", "--json"];
    let isolated = bgpsim(&dir_a)
        .args(args)
        .arg("--isolate")
        .output()
        .expect("isolated run");
    assert!(isolated.status.success(), "{:?}", isolated);
    let direct = bgpsim(&dir_b).args(args).output().expect("in-process run");
    assert!(direct.status.success(), "{:?}", direct);
    assert_eq!(
        isolated.stdout, direct.stdout,
        "isolated and in-process runs must be byte-identical"
    );
}

/// One round-trip HTTP/1.1 exchange against the daemon.
fn http(addr: &str, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    response
}

fn get(addr: &str, path: &str) -> String {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
    )
}

fn post(addr: &str, path: &str, body: &str) -> String {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\nx-api-key: crash-test\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn daemon_survives_worker_crashes_and_opens_its_breaker() {
    let dir = scratch("daemon");
    let mut child = bgpsim(&dir)
        .args(["serve", "--addr", "127.0.0.1:0", "--exec-workers", "1"])
        .env("BGPSIM_FAILPOINT", "worker_run:abort")
        .env("BGPSIM_WORKER_RETRIES", "0")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    // Keep the stdout pipe open for the daemon's whole life: dropping
    // it would turn its later log lines into broken-pipe panics.
    let mut daemon_out = BufReader::new(child.stdout.take().expect("daemon stdout"));
    let mut banner = String::new();
    daemon_out.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("listen address in banner")
        .to_string();

    // Three single-run submissions, each crashing its worker: the jobs
    // fail one by one while the daemon keeps serving.
    for id in 1..=3u64 {
        let resp = post(
            &addr,
            "/v1/jobs",
            &format!(r#"{{"topology":"clique:4","event":"tdown","seeds":[{id}]}}"#),
        );
        assert!(resp.contains("201"), "submission {id}: {resp}");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "job {id} never reached failed");
            let status = get(&addr, &format!("/v1/jobs/{id}"));
            if status.contains("\"status\":\"failed\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let health = get(&addr, "/v1/healthz");
        assert!(health.contains("\"ok\":true"), "after crash {id}: {health}");
    }

    // Three consecutive crashes trip the breaker: load is shed with
    // 503 circuit_open and health reports the degradation.
    let shed = post(
        &addr,
        "/v1/jobs",
        r#"{"topology":"clique:4","event":"tdown","seeds":[2]}"#,
    );
    assert!(shed.contains("503"), "{shed}");
    assert!(shed.contains("circuit_open"), "{shed}");
    let health = get(&addr, "/v1/healthz");
    assert!(health.contains("\"degraded\":true"), "{health}");
    assert!(health.contains("\"breaker\":\"open\""), "{health}");
    let stats = get(&addr, "/v1/stats");
    assert!(stats.contains("\"worker_crashes\":3"), "{stats}");
    assert!(stats.contains("\"trips\":1"), "{stats}");

    // Still a clean, API-driven exit.
    let drained = post(&addr, "/v1/drain", "");
    assert!(drained.contains("202"), "{drained}");
    let mut rest = String::new();
    daemon_out.read_to_string(&mut rest).expect("drain stdout");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "daemon exits cleanly after drain");
}
