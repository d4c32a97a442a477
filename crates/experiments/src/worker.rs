//! The hidden `worker` mode of every binary that can run isolated
//! jobs: executes exactly one scenario run on behalf of a supervising
//! runner and reports the verdict on stdout (wire protocol v1, see
//! `bgpsim_runner::supervisor`).
//!
//! The supervisor re-executes *its own* binary as `<exe> worker`, so
//! each binary that can enable isolation must answer to that argument;
//! [`binopts::dispatch_worker`](crate::binopts::dispatch_worker) is the
//! one place they all do.

use std::io::{Read, Write};

use bgpsim_runner::supervisor::{decode_request, encode_failure, encode_success};
use bgpsim_sim::{BudgetExceeded, RunBudget};
use bgpsim_trace::failpoint::{self, FailpointAction};
use bgpsim_trace::RunCounters;

use crate::scenario::ScenarioSpec;

/// Reads one request from stdin, runs it, prints one verdict line.
///
/// This is plumbing, not a user command: the child prints exactly one
/// JSON line and returns (exit 0) whether the run succeeded or tripped
/// its watchdog — a nonzero exit means the worker itself died, which
/// the supervisor counts as a crash. Inherits `BGPSIM_FAILPOINT` so
/// fault injection reaches the child (`worker_run` site, ctx `seed=N`).
pub fn run() {
    let mut input = String::new();
    if std::io::stdin().read_to_string(&mut input).is_err() {
        eprintln!("bgpsim worker: cannot read request from stdin");
        std::process::exit(3);
    }
    let request = match decode_request(&input) {
        Ok(request) => request,
        Err(err) => {
            println!("{}", encode_failure("worker", &err));
            return;
        }
    };
    // Deterministic fault injection for crash-tolerance tests: Abort
    // dies inside check(), Err exits nonzero (spawn-then-die), Torn
    // truncates the verdict line (lost-result).
    let injected = failpoint::check("worker_run", &format!("seed={}", request.seed));
    if matches!(injected, Some(FailpointAction::Err)) {
        eprintln!("bgpsim worker: injected failure (worker_run)");
        std::process::exit(3);
    }
    let scenario = match ScenarioSpec::from_canonical_json(&request.scenario) {
        Ok(scenario) => scenario,
        Err(err) => {
            println!("{}", encode_failure("worker", &err.to_string()));
            return;
        }
    };
    let mut limit = RunBudget::unlimited();
    if let Some(n) = request.max_events {
        limit = limit.with_max_events(n);
    }
    match scenario.run_job(&limit) {
        Ok(output) => {
            // One VmHWM read per worker process: its peak is what the
            // verdict publishes.
            let counters = output.counters.map(|c| RunCounters {
                peak_rss_kb: bgpsim_trace::peak_rss_kb(),
                ..c
            });
            let line = encode_success(&output.metrics, counters.as_ref());
            if matches!(injected, Some(FailpointAction::Torn)) {
                let half = &line.as_bytes()[..line.len() / 2];
                let mut out = std::io::stdout();
                let _ = out.write_all(half);
                let _ = out.flush();
            } else {
                println!("{line}");
            }
        }
        Err(stopped) => {
            let counters = stopped.counters.expect("a stopped job keeps its counters");
            let error = BudgetExceeded::describe(stopped.phase, counters.events);
            println!("{}", encode_failure(stopped.phase, &error));
        }
    }
}
