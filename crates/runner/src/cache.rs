//! Content-addressed on-disk cache of run results.
//!
//! Every cacheable job carries a canonical *spec string* describing
//! everything that determines its result (topology, event, protocol
//! config, physical parameters, seed — see
//! `bgpsim_experiments::ScenarioSpec::fingerprint`). The cache stores one
//! JSON file per spec, named by a 128-bit content hash of the spec and
//! the [`SCHEMA_VERSION`]; the file also embeds the full spec string,
//! so even a hash collision is detected and treated as a miss rather
//! than returning wrong data.
//!
//! Robustness rules:
//! * a corrupt or truncated entry is a **miss**, never a panic;
//! * a schema-version bump invalidates all previous entries (the
//!   version participates in the file name and is re-checked on read);
//! * writes go to a temporary file first and are `rename`d into place,
//!   so concurrent writers and interrupted runs cannot leave a
//!   half-written entry under a live key.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bgpsim_metrics::PaperMetrics;
use bgpsim_netsim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::error::Error;

/// Version of the cached-entry layout *and* of the metrics semantics.
/// Bump whenever `PaperMetrics` or the measurement pipeline changes
/// meaning, so stale results cannot leak into new sweeps.
///
/// v2: the hot-path overhaul cancels superseded MRAI expiries instead
/// of letting them fire as stale no-ops, so the `events_dispatched`
/// and `max_queue_depth` run counters mean something slightly
/// different (paper metrics are unchanged, but cached counter blocks
/// from v1 would not match a fresh run).
///
/// v3: the fault-injection layer (`bgpsim-faults`) threads per-link
/// loss models and scheduled session resets through the simulator;
/// scenarios gained fault fields that participate in the fingerprint,
/// and fault-free runs now traverse new dispatch paths. Counters from
/// v2 entries would not be comparable.
///
/// v4: the per-run RNG is split into per-node lanes, so a node's
/// jitter draws no longer depend on how events from other nodes
/// interleave. The lane split changes every run's draw sequence, so
/// v3 metrics (timings, loop censuses) no longer match a fresh run
/// under the same spec.
pub const SCHEMA_VERSION: u32 = 4;

/// Serializable mirror of [`PaperMetrics`] (durations as nanoseconds).
///
/// Also the wire form the supervisor/worker protocol uses
/// (`crate::supervisor`): the JSON float formatting is
/// shortest-round-trip, so metrics that cross a process boundary stay
/// bit-identical to an in-process run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CachedMetrics {
    convergence_nanos: Option<u64>,
    looping_nanos: Option<u64>,
    ttl_exhaustions: u64,
    packets_during_convergence: u64,
    looping_ratio: f64,
    delivered: u64,
    no_route: u64,
    packets_total: u64,
    messages_after_failure: u64,
}

impl CachedMetrics {
    pub(crate) fn from_metrics(m: &PaperMetrics) -> Self {
        CachedMetrics {
            convergence_nanos: m.convergence_time.map(SimDuration::as_nanos),
            looping_nanos: m.overall_looping_duration.map(SimDuration::as_nanos),
            ttl_exhaustions: m.ttl_exhaustions,
            packets_during_convergence: m.packets_during_convergence,
            looping_ratio: m.looping_ratio,
            delivered: m.delivered,
            no_route: m.no_route,
            packets_total: m.packets_total,
            messages_after_failure: m.messages_after_failure,
        }
    }

    pub(crate) fn to_metrics(&self) -> PaperMetrics {
        PaperMetrics {
            convergence_time: self.convergence_nanos.map(SimDuration::from_nanos),
            overall_looping_duration: self.looping_nanos.map(SimDuration::from_nanos),
            ttl_exhaustions: self.ttl_exhaustions,
            packets_during_convergence: self.packets_during_convergence,
            looping_ratio: self.looping_ratio,
            delivered: self.delivered,
            no_route: self.no_route,
            packets_total: self.packets_total,
            messages_after_failure: self.messages_after_failure,
        }
    }
}

/// One cache file: schema, the full spec (collision guard), result.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CachedEntry {
    schema: u32,
    spec: String,
    metrics: CachedMetrics,
}

/// A content-addressed store of run results under one directory.
///
/// The handle is a cheap `Clone + Send + Sync` reference (`Arc` inside):
/// every clone shares the same opened directory and schema pin, so a
/// daemon, a load generator, and the CLI can hand one instance around
/// without re-opening (and re-`mkdir`ing) the directory per request.
/// All methods take `&self`; on-disk atomicity (temp + rename) makes
/// concurrent use from many threads safe.
#[derive(Debug, Clone)]
pub struct RunCache {
    inner: std::sync::Arc<CacheInner>,
}

#[derive(Debug)]
struct CacheInner {
    dir: PathBuf,
    schema: u32,
}

impl RunCache {
    /// Opens (creating if needed) a cache directory at the current
    /// [`SCHEMA_VERSION`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Cache`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, Error> {
        RunCache::with_schema(dir, SCHEMA_VERSION)
    }

    /// Opens a cache pinned to an explicit schema version. Entries
    /// written under any other version are invisible — used by tests
    /// and by forward-compatibility checks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Cache`] if the directory cannot be created.
    pub fn with_schema(dir: impl Into<PathBuf>, schema: u32) -> Result<Self, Error> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|source| Error::Cache {
            path: dir.clone(),
            source,
        })?;
        Ok(RunCache {
            inner: std::sync::Arc::new(CacheInner { dir, schema }),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The entry file for a spec (key = hash of schema + spec).
    pub fn entry_path(&self, spec: &str) -> PathBuf {
        // Two independent FNV-1a streams give a 128-bit name; the spec
        // stored inside the entry catches any residual collision.
        let seeded = |basis: u64| -> u64 {
            let mut h = basis ^ u64::from(self.inner.schema).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for &b in spec.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        };
        let h1 = seeded(0xcbf2_9ce4_8422_2325);
        let h2 = seeded(0x6c62_272e_07bb_0142);
        self.inner.dir.join(format!("{h1:016x}{h2:016x}.json"))
    }

    /// Looks up the result of a spec, treating every failure as a miss.
    ///
    /// **Contract: a corrupt entry reads as a miss.** Any unreadable,
    /// unparseable, wrong-schema, or colliding (embedded spec mismatch)
    /// entry yields `None`, never a panic or an error — the job is
    /// simply re-run and the entry overwritten by the fresh store. This
    /// is what the executor uses on the hot path; use
    /// [`try_lookup`](Self::try_lookup) to distinguish a genuine miss
    /// from a damaged or unreadable entry.
    ///
    /// A corrupt (unparseable) entry is additionally *quarantined*:
    /// moved into `<dir>/quarantine/` so it cannot be silently reread
    /// on every sweep, and reported once via a `cache_quarantine` trace
    /// event and a stderr note. Quarantine is best-effort — if the move
    /// fails the entry is left in place and still reads as a miss. The
    /// parked file keeps its cache-key name, so a later corruption of
    /// the same key replaces it: the quarantine holds at most one file
    /// per key of the live cache.
    pub fn lookup(&self, spec: &str) -> Option<PaperMetrics> {
        match self.try_lookup(spec) {
            Ok(found) => found,
            Err(Error::CorruptEntry { path, detail }) => {
                self.quarantine(&path, &detail);
                None
            }
            Err(_) => None,
        }
    }

    /// The directory corrupt entries are moved into by [`lookup`](Self::lookup).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.inner.dir.join("quarantine")
    }

    /// Moves a corrupt entry out of the live cache (best-effort) and
    /// reports it via trace + stderr.
    fn quarantine(&self, path: &Path, detail: &str) {
        let qdir = self.quarantine_dir();
        let moved = std::fs::create_dir_all(&qdir).and_then(|()| {
            let dest = qdir.join(path.file_name().unwrap_or_default());
            std::fs::rename(path, &dest).map(|()| dest)
        });
        let shown = match &moved {
            Ok(dest) => dest.clone(),
            Err(_) => path.to_path_buf(),
        };
        bgpsim_trace::TraceHandle::global().emit(|| bgpsim_trace::TraceEvent::CacheQuarantine {
            path: shown.display().to_string(),
            detail: detail.to_string(),
        });
        match moved {
            Ok(dest) => eprintln!(
                "bgpsim-runner: quarantined corrupt cache entry {} -> {} ({detail}); re-running",
                path.display(),
                dest.display()
            ),
            Err(e) => eprintln!(
                "bgpsim-runner: corrupt cache entry {} ({detail}); quarantine failed: {e}; \
                 treating as miss",
                path.display()
            ),
        }
    }

    /// Removes stale atomic-write temp files (`*.tmp.<pid>.<seq>`)
    /// left behind by writers that died between `write` and `rename`.
    /// Only safe when no writer is active — recovery runs it at
    /// startup. Returns the number of files swept.
    pub fn sweep_stale_tmp(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.inner.dir) else {
            return 0;
        };
        let mut swept = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let is_tmp = name.to_str().is_some_and(|n| n.contains(".tmp."));
            if is_tmp && entry.path().is_file() && std::fs::remove_file(entry.path()).is_ok() {
                swept += 1;
            }
        }
        swept
    }

    /// Looks up the result of a spec, reporting *why* nothing usable
    /// was found.
    ///
    /// A missing entry, a schema mismatch, or a hash collision (the
    /// embedded spec differs) is `Ok(None)` — those are ordinary
    /// misses.
    ///
    /// # Errors
    ///
    /// * [`Error::Cache`] — the entry exists but cannot be read;
    /// * [`Error::CorruptEntry`] — the entry exists but does not parse.
    pub fn try_lookup(&self, spec: &str) -> Result<Option<PaperMetrics>, Error> {
        let path = self.entry_path(spec);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(source) => return Err(Error::Cache { path, source }),
        };
        let entry: CachedEntry = serde_json::from_str(&text).map_err(|e| Error::CorruptEntry {
            path,
            detail: e.to_string(),
        })?;
        if entry.schema != self.inner.schema || entry.spec != spec {
            return Ok(None);
        }
        Ok(Some(entry.metrics.to_metrics()))
    }

    /// Stores the result of a spec (atomically via temp + rename).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Cache`] on I/O or serialization failure;
    /// callers may treat a failed store as non-fatal (the run simply
    /// stays uncached).
    pub fn store(&self, spec: &str, metrics: &PaperMetrics) -> Result<(), Error> {
        let path = self.entry_path(spec);
        let entry = CachedEntry {
            schema: self.inner.schema,
            spec: spec.to_string(),
            metrics: CachedMetrics::from_metrics(metrics),
        };
        let json = serde_json::to_string(&entry).map_err(|e| Error::Cache {
            path: path.clone(),
            source: io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        })?;
        // Deterministic fault injection for crash-recovery tests:
        // `err` models a full disk, `torn` a writer that died mid-write
        // and bypassed the atomic rename (the next lookup must detect
        // and quarantine the fragment).
        match bgpsim_trace::failpoint::check("cache_write", spec) {
            Some(bgpsim_trace::failpoint::FailpointAction::Err) => {
                return Err(Error::Cache {
                    path,
                    source: bgpsim_trace::failpoint::injected_error("cache_write"),
                });
            }
            Some(bgpsim_trace::failpoint::FailpointAction::Torn) => {
                let torn = &json[..json.len() / 2];
                return std::fs::write(&path, torn).map_err(|source| Error::Cache {
                    path: path.clone(),
                    source,
                });
            }
            _ => {}
        }
        // Unique temp name per process *and* store call: concurrent
        // workers may store the same key (duplicate jobs in a batch).
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), seq));
        let io_err = |source: io::Error| Error::Cache {
            path: path.clone(),
            source,
        };
        std::fs::write(&tmp, json).map_err(io_err)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(io_err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_cache_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "bgpsim-runner-cache-test-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_metrics() -> PaperMetrics {
        PaperMetrics {
            convergence_time: Some(SimDuration::from_millis(12_345)),
            overall_looping_duration: None,
            ttl_exhaustions: 42,
            packets_during_convergence: 1000,
            looping_ratio: 0.042,
            delivered: 900,
            no_route: 58,
            packets_total: 1000,
            messages_after_failure: 77,
        }
    }

    #[test]
    fn round_trip_hit() {
        let dir = temp_cache_dir("roundtrip");
        let cache = RunCache::new(&dir).unwrap();
        let m = sample_metrics();
        assert!(cache.lookup("spec-a").is_none());
        cache.store("spec-a", &m).unwrap();
        assert_eq!(cache.lookup("spec-a"), Some(m));
        assert!(cache.lookup("spec-b").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_bump_invalidates() {
        let dir = temp_cache_dir("schema");
        let old = RunCache::with_schema(&dir, SCHEMA_VERSION).unwrap();
        old.store("spec", &sample_metrics()).unwrap();
        let newer = RunCache::with_schema(&dir, SCHEMA_VERSION + 1).unwrap();
        assert!(
            newer.lookup("spec").is_none(),
            "new schema must not see old entries"
        );
        assert!(
            old.lookup("spec").is_some(),
            "old schema still sees its own entries"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_is_miss_not_panic() {
        let dir = temp_cache_dir("corrupt");
        let cache = RunCache::new(&dir).unwrap();
        cache.store("spec", &sample_metrics()).unwrap();
        let path = cache.entry_path("spec");
        std::fs::write(&path, b"{ not json at all").unwrap();
        assert!(cache.lookup("spec").is_none());
        // Truncated-to-empty file too.
        std::fs::write(&path, b"").unwrap();
        assert!(cache.lookup("spec").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn try_lookup_distinguishes_miss_from_corruption() {
        let dir = temp_cache_dir("try-lookup");
        let cache = RunCache::new(&dir).unwrap();
        // A genuinely absent entry is Ok(None), not an error.
        assert!(matches!(cache.try_lookup("absent"), Ok(None)));
        cache.store("spec", &sample_metrics()).unwrap();
        assert!(matches!(cache.try_lookup("spec"), Ok(Some(_))));
        // Corruption is surfaced by the strict API …
        std::fs::write(cache.entry_path("spec"), b"{ garbage").unwrap();
        assert!(matches!(
            cache.try_lookup("spec"),
            Err(Error::CorruptEntry { .. })
        ));
        // … while the lenient API honors the reads-as-miss contract.
        assert!(cache.lookup("spec").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn colliding_name_with_different_spec_is_miss() {
        let dir = temp_cache_dir("collide");
        let cache = RunCache::new(&dir).unwrap();
        cache.store("spec-a", &sample_metrics()).unwrap();
        // Simulate a hash collision: copy a's entry to b's slot.
        std::fs::copy(cache.entry_path("spec-a"), cache.entry_path("spec-b")).unwrap();
        assert!(
            cache.lookup("spec-b").is_none(),
            "entry with mismatched spec string must not be served"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_is_quarantined_on_lenient_lookup() {
        let dir = temp_cache_dir("quarantine");
        let cache = RunCache::new(&dir).unwrap();
        cache.store("spec", &sample_metrics()).unwrap();
        let path = cache.entry_path("spec");
        std::fs::write(&path, b"{ mangled").unwrap();
        assert!(cache.lookup("spec").is_none());
        // The damaged file is gone from the live cache and parked in
        // quarantine/ under the same name.
        assert!(!path.exists(), "corrupt entry must leave the live cache");
        let parked = cache.quarantine_dir().join(path.file_name().unwrap());
        assert_eq!(std::fs::read(&parked).unwrap(), b"{ mangled");
        // The slot is reusable: a fresh store serves hits again.
        cache.store("spec", &sample_metrics()).unwrap();
        assert_eq!(cache.lookup("spec"), Some(sample_metrics()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_does_not_touch_wrong_schema_entries() {
        let dir = temp_cache_dir("quarantine-schema");
        let old = RunCache::with_schema(&dir, SCHEMA_VERSION).unwrap();
        old.store("spec", &sample_metrics()).unwrap();
        let newer = RunCache::with_schema(&dir, SCHEMA_VERSION + 1).unwrap();
        // Wrong-schema entries are ordinary misses, not corruption:
        // they must stay in place for the old schema to keep serving.
        assert!(newer.lookup("spec").is_none());
        assert!(old.lookup("spec").is_some());
        assert!(!newer.quarantine_dir().exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_holds_one_file_per_key() {
        let dir = temp_cache_dir("quarantine-bounded");
        let cache = RunCache::new(&dir).unwrap();
        let path = cache.entry_path("spec");
        for damage in [&b"{ first corruption"[..], b"{ second"] {
            cache.store("spec", &sample_metrics()).unwrap();
            std::fs::write(&path, damage).unwrap();
            assert!(cache.lookup("spec").is_none());
        }
        let parked: Vec<_> = std::fs::read_dir(cache.quarantine_dir())
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .collect();
        assert_eq!(parked.len(), 1, "{parked:?}");
        assert_eq!(std::fs::read(&parked[0]).unwrap(), b"{ second");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_stale_tmp_files() {
        let dir = temp_cache_dir("tmp-sweep");
        let cache = RunCache::new(&dir).unwrap();
        cache.store("keep", &sample_metrics()).unwrap();
        std::fs::write(dir.join("deadbeef.tmp.1234.0"), b"{ half-written").unwrap();
        std::fs::write(dir.join("cafebabe.tmp.1234.7"), b"").unwrap();
        assert_eq!(cache.sweep_stale_tmp(), 2);
        assert!(!dir.join("deadbeef.tmp.1234.0").exists());
        assert_eq!(
            cache.lookup("keep"),
            Some(sample_metrics()),
            "live entries survive the sweep"
        );
        assert_eq!(cache.sweep_stale_tmp(), 0, "second sweep finds nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_overwrites() {
        let dir = temp_cache_dir("overwrite");
        let cache = RunCache::new(&dir).unwrap();
        let mut m = sample_metrics();
        cache.store("spec", &m).unwrap();
        m.ttl_exhaustions = 99;
        cache.store("spec", &m).unwrap();
        assert_eq!(cache.lookup("spec").unwrap().ttl_exhaustions, 99);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
