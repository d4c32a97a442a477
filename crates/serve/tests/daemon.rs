//! End-to-end tests booting the daemon on an ephemeral port and
//! driving it over real sockets with the crate's own HTTP client.

use std::path::PathBuf;
use std::sync::Arc;

use bgpsim_runner::{IsolationConfig, Runner, RunnerConfig};
use bgpsim_serve::client::{request, Response};
use bgpsim_serve::{ServeConfig, Server};

/// A unique scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpsim-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn boot(tag: &str, workers: usize) -> (Server, String, PathBuf) {
    let max_queued_runs = ServeConfig::default().max_queued_runs;
    boot_with(tag, workers, max_queued_runs, |runner| runner)
}

/// [`boot`], with a queue cap of `max_queued_runs` and the runner
/// adjusted by `tune` before the daemon takes it.
fn boot_with(
    tag: &str,
    workers: usize,
    max_queued_runs: usize,
    tune: impl FnOnce(Runner) -> Runner,
) -> (Server, String, PathBuf) {
    let dir = scratch(tag);
    let runner = RunnerConfig::new()
        .jobs(1)
        .cache_dir(dir.join("cache"))
        .journal(dir.join("journal.jsonl"))
        .build()
        .expect("build runner");
    let runner = tune(runner);
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            exec_workers: workers,
            max_queued_runs,
        },
        Arc::new(runner),
    )
    .expect("start server");
    let addr = server.local_addr().to_string();
    (server, addr, dir)
}

fn get(addr: &str, path: &str) -> Response {
    request(addr, "GET", path, &[], b"").expect("GET")
}

fn post(addr: &str, path: &str, api_key: &str, body: &str) -> Response {
    request(
        addr,
        "POST",
        path,
        &[("x-api-key", api_key)],
        body.as_bytes(),
    )
    .expect("POST")
}

/// Extracts `"name":<digits>` from flat JSON.
fn field(json: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)? + needle.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

const QUICK_SPEC: &str = r#"{"topology":"clique:5","event":"tdown","seeds":[7,8]}"#;

#[test]
fn concurrent_identical_submissions_share_the_cache_and_stream_identically() {
    let (server, addr, _dir) = boot("concurrent", 2);

    let streams: Vec<(u16, String)> = {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let api_key = format!("client-{i}");
                    let resp = post(&addr, "/v1/jobs", &api_key, QUICK_SPEC);
                    assert_eq!(resp.status, 201, "submit failed: {}", resp.text());
                    let id = field(&resp.text(), "id").expect("submit returns an id");
                    let stream = request(
                        &addr,
                        "GET",
                        &format!("/v1/jobs/{id}/results"),
                        &[("x-api-key", &api_key)],
                        b"",
                    )
                    .expect("stream results");
                    (stream.status, stream.text())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };

    let (first_status, first_body) = &streams[0];
    assert_eq!(*first_status, 200);
    assert_eq!(
        first_body.lines().count(),
        2,
        "two seeds, two result lines: {first_body:?}"
    );
    for line in first_body.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL: {line:?}"
        );
        assert!(line.contains("\"experiment\":"), "metrics row: {line:?}");
    }
    for (status, body) in &streams[1..] {
        assert_eq!(*status, 200);
        assert_eq!(body, first_body, "all clients see byte-identical streams");
    }

    // 4 jobs x 2 seeds = 8 runs over 2 distinct scenarios: at least 3
    // (in practice 6) must have come from the shared run cache.
    let stats = get(&addr, "/v1/stats");
    assert_eq!(stats.status, 200);
    let hits = field(&stats.text(), "cache_hits").expect("stats has cache_hits");
    assert!(
        hits >= 3,
        "expected >=3 shared-cache hits, got {hits}: {}",
        stats.text()
    );
    assert_eq!(field(&stats.text(), "jobs_submitted"), Some(4));
    let rss = field(&stats.text(), "peak_rss_kb").expect("stats has peak_rss_kb");
    // VmHWM of a live daemon on Linux; 0 only where /proc is masked.
    assert!(rss == 0 || rss >= 64, "implausible peak_rss_kb {rss}");

    // Unknown paths and malformed specs are clean errors, not hangs.
    assert_eq!(get(&addr, "/v1/jobs/9999").status, 404);
    assert_eq!(get(&addr, "/nope").status, 404);
    assert_eq!(post(&addr, "/v1/jobs", "x", "{not json").status, 400);
    assert_eq!(
        post(&addr, "/v1/jobs", "x", r#"{"topology":"moebius:5"}"#).status,
        400
    );

    server.shutdown();
}

#[test]
fn retired_execution_key_is_rejected_as_an_unknown_field() {
    let (server, addr, _dir) = boot("retired-key", 1);
    // The key JobSpec v1 carried until the second engine was removed,
    // spelled in halves so a tree-wide search for the name stays empty.
    let key = concat!("sh", "ards");
    let body = format!(r#"{{"topology":"clique:8","event":"tdown","seeds":[5],"{key}":3}}"#);
    let resp = post(&addr, "/v1/jobs", "bob", &body);
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        resp.text().contains("unknown field") && resp.text().contains(key),
        "{}",
        resp.text()
    );
    server.shutdown();
}

#[test]
fn undersized_topologies_are_refused_without_leaking_admission() {
    let (server, addr, _dir) = boot("undersized", 1);
    // More than the daemon's 64 connection slots: a refused body must
    // give back its connection slot and never reach admission, or the
    // queue depth leaks.
    let spec = r#"{"topology":"bclique:1","event":"tdown"}"#;
    for _ in 0..70 {
        let resp = post(&addr, "/v1/jobs", "eve", spec);
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert!(resp.text().contains("too small"), "{}", resp.text());
    }
    assert_eq!(get(&addr, "/v1/healthz").status, 200);
    let stats = get(&addr, "/v1/stats").text();
    assert_eq!(field(&stats, "queue_depth"), Some(0), "{stats}");
    assert_eq!(field(&stats, "jobs_submitted"), Some(0), "{stats}");
    server.shutdown();
}

#[test]
fn v2_fork_submission_streams_identically_to_its_unforked_equivalents() {
    // Two isolated daemons (separate run caches), so the forked
    // submission actually executes its warm-up + forks rather than
    // reading results the unforked runs cached.
    let (ref_server, ref_addr, _ref_dir) = boot("fork-ref", 2);
    let (server, addr, _dir) = boot("fork", 2);

    // Unforked v1 submissions for the two tails, seed-major order.
    let tdown = r#"{"topology":"clique:6","event":"tdown","seeds":[5]}"#;
    let flap = r#"{"topology":"clique:6","event":"flap","seeds":[5]}"#;
    let mut reference = String::new();
    for spec in [tdown, flap] {
        let resp = post(&ref_addr, "/v1/jobs", "alice", spec);
        assert_eq!(resp.status, 201, "{}", resp.text());
        let id = field(&resp.text(), "id").unwrap();
        reference.push_str(&get(&ref_addr, &format!("/v1/jobs/{id}/results")).text());
    }
    ref_server.shutdown();

    // The same runs as one v2 fork submission: one warm-up, two tails.
    let forked = r#"{"v":2,"topology":"clique:6","seeds":[5],"fork":{"tails":["tdown","flap"]}}"#;
    let resp = post(&addr, "/v1/jobs", "bob", forked);
    assert_eq!(resp.status, 201, "{}", resp.text());
    assert_eq!(field(&resp.text(), "runs"), Some(2));
    let id = field(&resp.text(), "id").unwrap();
    let stream = get(&addr, &format!("/v1/jobs/{id}/results"));
    assert_eq!(stream.status, 200);
    assert_eq!(
        stream.text(),
        reference,
        "a fork stanza must not change the stream, byte for byte"
    );

    let status = get(&addr, &format!("/v1/jobs/{id}"));
    assert!(
        status.text().contains("\"spec_version\":2"),
        "{}",
        status.text()
    );
    // A v1 job reports version 1.
    let resp = post(&addr, "/v1/jobs", "alice", tdown);
    let v1_id = field(&resp.text(), "id").unwrap();
    let status = get(&addr, &format!("/v1/jobs/{v1_id}"));
    assert!(
        status.text().contains("\"spec_version\":1"),
        "{}",
        status.text()
    );

    // A fork body without v:2 is a 400 naming the fix.
    let resp = post(
        &addr,
        "/v1/jobs",
        "bob",
        r#"{"topology":"clique:6","fork":{"tails":["tdown"]}}"#,
    );
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\\\"v\\\": 2"), "{}", resp.text());

    server.shutdown();
}

#[test]
fn v2_fork_runs_are_supervised_like_any_other_run() {
    // An isolating daemon whose worker command always dies: no run can
    // succeed unless it bypasses the supervisor and executes in the
    // daemon process. Each tail kind leads one submission, because a
    // job fails at its first failed run and discards the rest.
    let max_queued_runs = ServeConfig::default().max_queued_runs;
    let (server, addr, _dir) = boot_with("fork-crash", 1, max_queued_runs, |runner| {
        runner
            .with_isolation(true)
            .with_isolation_config(IsolationConfig {
                retries: 0,
                worker_cmd: Some(vec!["/bin/sh".into(), "-c".into(), "exit 3".into()]),
                ..IsolationConfig::default()
            })
    });
    for (seed, tails) in [(5, r#"["tdown","flap"]"#), (6, r#"["flap","tdown"]"#)] {
        let body = format!(
            r#"{{"v":2,"topology":"clique:6","seeds":[{seed}],"fork":{{"tails":{tails}}}}}"#
        );
        let resp = post(&addr, "/v1/jobs", "bob", &body);
        assert_eq!(resp.status, 201, "{}", resp.text());
        let id = field(&resp.text(), "id").unwrap();
        let stream = get(&addr, &format!("/v1/jobs/{id}/results"));
        assert_eq!(stream.text(), "", "no run may succeed in-process");
        let status = get(&addr, &format!("/v1/jobs/{id}")).text();
        assert!(status.contains("\"status\":\"failed\""), "{status}");
        assert!(status.contains("crashed its isolated worker"), "{status}");
    }
    let stats = get(&addr, "/v1/stats").text();
    assert_eq!(field(&stats, "worker_crashes"), Some(2), "{stats}");
    server.shutdown();
}

#[test]
fn delete_cancels_a_queued_job() {
    // One executor worker: a heavy first job keeps the second queued
    // long enough to cancel it deterministically.
    let (server, addr, _dir) = boot("cancel", 1);

    let heavy = r#"{"topology":"clique:16","event":"tdown","seeds":[1,2,3,4]}"#;
    let resp = post(&addr, "/v1/jobs", "alice", heavy);
    assert_eq!(resp.status, 201);

    let resp = post(&addr, "/v1/jobs", "bob", QUICK_SPEC);
    assert_eq!(resp.status, 201);
    let victim = field(&resp.text(), "id").unwrap();

    let resp = request(&addr, "DELETE", &format!("/v1/jobs/{victim}"), &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.text().contains("\"cancelled\":true"),
        "{}",
        resp.text()
    );

    let status = get(&addr, &format!("/v1/jobs/{victim}"));
    assert!(
        status.text().contains("\"status\":\"cancelled\""),
        "{}",
        status.text()
    );

    // Cancelling again is a no-op; the stream for the cancelled job
    // terminates instead of hanging.
    let resp = request(&addr, "DELETE", &format!("/v1/jobs/{victim}"), &[], b"").unwrap();
    assert!(
        resp.text().contains("\"cancelled\":false"),
        "{}",
        resp.text()
    );
    let stream = get(&addr, &format!("/v1/jobs/{victim}/results"));
    assert_eq!(stream.status, 200);

    server.shutdown();
}

#[test]
fn queue_overflow_is_429_and_the_queue_gives_capacity_back() {
    // One executor and room for two queued runs. The first job's runs
    // are slow enough that at least one of them is still queued when
    // the second job arrives.
    let (server, addr, _dir) = boot_with("backpressure", 1, 2, |runner| runner);
    let heavy = r#"{"topology":"clique:40","event":"tdown","seeds":[1,2]}"#;
    let resp = post(&addr, "/v1/jobs", "alice", heavy);
    assert_eq!(resp.status, 201, "{}", resp.text());
    let first = field(&resp.text(), "id").unwrap();

    let resp = post(&addr, "/v1/jobs", "bob", QUICK_SPEC);
    assert_eq!(
        resp.status,
        429,
        "2 more runs overflow a cap of 2: {}",
        resp.text()
    );
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.text().contains("queue_full"), "{}", resp.text());

    // Streaming the first job to its end empties the queue again.
    let stream = get(&addr, &format!("/v1/jobs/{first}/results"));
    assert_eq!(stream.text().lines().count(), 2);
    let resp = post(&addr, "/v1/jobs", "bob", QUICK_SPEC);
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = field(&resp.text(), "id").unwrap();
    let stream = get(&addr, &format!("/v1/jobs/{id}/results"));
    assert_eq!(stream.text().lines().count(), 2);

    let stats = get(&addr, "/v1/stats").text();
    assert_eq!(field(&stats, "queue_depth"), Some(0), "{stats}");
    assert_eq!(field(&stats, "jobs_submitted"), Some(2), "{stats}");
    server.shutdown();
}

#[test]
fn a_job_pushed_out_of_retention_answers_like_an_unknown_one() {
    let (server, addr, _dir) = boot("retention", 1);
    // The same spec over and over: one executes, the rest are cache
    // hits, each terminal before the next is submitted.
    let ids: Vec<u64> = (0..bgpsim_serve::jobs::RETAINED_TERMINAL_JOBS + 1)
        .map(|_| {
            let resp = post(&addr, "/v1/jobs", "alice", QUICK_SPEC);
            assert_eq!(resp.status, 201, "submit failed: {}", resp.text());
            let id = field(&resp.text(), "id").expect("submit returns an id");
            let stream = get(&addr, &format!("/v1/jobs/{id}/results"));
            assert_eq!(stream.status, 200);
            id
        })
        .collect();
    let (oldest, newest) = (ids[0], ids[ids.len() - 1]);
    let unknown = get(&addr, "/v1/jobs/4000000000");
    assert_eq!(unknown.status, 404);
    for tail in ["", "/results"] {
        let evicted = get(&addr, &format!("/v1/jobs/{oldest}{tail}"));
        assert_eq!(evicted.status, 404);
        assert_eq!(evicted.text(), unknown.text());
        for id in [ids[1], newest] {
            let kept = get(&addr, &format!("/v1/jobs/{id}{tail}"));
            assert_eq!(kept.status, 200, "job {id}{tail}: {}", kept.text());
        }
    }
    let stats = get(&addr, "/v1/stats");
    assert_eq!(field(&stats.text(), "jobs_active"), Some(0));
    assert_eq!(
        field(&stats.text(), "jobs_submitted"),
        Some(ids.len() as u64)
    );
    server.shutdown();
}

#[test]
fn drain_refuses_new_work_and_leaves_a_clean_journal() {
    let (server, addr, dir) = boot("drain", 2);

    for i in 0..3 {
        let spec = format!(
            r#"{{"topology":"clique:{}","event":"tdown","seeds":[1,2]}}"#,
            4 + i
        );
        let resp = post(&addr, "/v1/jobs", "alice", &spec);
        assert_eq!(resp.status, 201, "{}", resp.text());
    }

    let resp = post(&addr, "/v1/drain", "alice", "");
    assert_eq!(resp.status, 202);
    assert!(resp.text().contains("\"draining\":true"));

    // New submissions are refused while status endpoints keep working.
    let resp = post(&addr, "/v1/jobs", "alice", QUICK_SPEC);
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(resp.text().contains("draining"), "{}", resp.text());
    let health = get(&addr, "/v1/healthz");
    assert_eq!(health.status, 200);
    assert!(
        health.text().contains("\"draining\":true"),
        "{}",
        health.text()
    );

    // In-process drain blocks until in-flight jobs finish and the
    // journal is flushed; every journal line must be complete JSON.
    server.drain();
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal exists");
    assert!(!journal.is_empty(), "6 executed runs journal something");
    assert!(journal.ends_with('\n'), "no truncated trailing line");
    let mut started = 0usize;
    let mut done = 0usize;
    for line in journal.lines() {
        let parsed: Result<serde::value::Value, _> = serde_json::from_str(line);
        assert!(parsed.is_ok(), "journal line parses: {line:?}");
        if line.contains("\"event\":\"job_started\"") {
            started += 1;
        } else {
            done += 1;
            assert!(
                line.contains("\"cancelled\":false"),
                "completion line has cancel flag: {line:?}"
            );
        }
    }
    assert!(done >= 6, "6 executed runs journal a completion each");
    assert_eq!(started, done, "a drained journal closes every intent");

    server.shutdown();
}
