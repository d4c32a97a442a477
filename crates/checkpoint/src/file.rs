//! The checkpoint container and its on-disk file format.
//!
//! A checkpoint file is one JSON document: a small, stable *header*
//! (schema version, warm-up fingerprint, optional embedded canonical
//! spec, capture beat) followed by the full [`RunSnapshot`] state
//! blob. The header always serializes first, so
//! [`Checkpoint::inspect`] can identify a file without deserializing
//! megabytes of router state, and every load re-checks the schema
//! version so a stale or foreign file is rejected, never misread.
//!
//! Float fields inside the snapshot (loss probabilities, jitter
//! bounds, damping penalties) round-trip bit-exactly: the vendored
//! JSON layer prints the shortest representation that parses back to
//! the identical `f64`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bgpsim_sim::RunSnapshot;
use serde::value::field;
use serde::{Deserialize, Serialize, Value};

/// Version of the checkpoint layout *and* of the simulator-state
/// semantics it captures. Bump whenever [`RunSnapshot`] (or anything
/// reachable from it) changes shape or meaning, so stale checkpoints
/// cannot resume into a simulator that would interpret them
/// differently.
///
/// v2: [`NetworkSnapshot`](bgpsim_sim::NetworkSnapshot) carries the
/// per-node RNG lanes (and their draw counters); v1 snapshots hold a
/// single-stream RNG whose draws a lane-split simulator would replay
/// differently.
pub const SCHEMA_VERSION: u32 = 2;

/// Errors of the checkpoint file and store layer.
#[derive(Debug)]
pub enum Error {
    /// The file or directory could not be read or written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The file exists but is not a parseable checkpoint.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// The file is a checkpoint of an incompatible schema version.
    Schema {
        /// The offending file.
        path: PathBuf,
        /// The version found in the file.
        found: u32,
        /// The version this build understands.
        expected: u32,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io { path, source } => {
                write!(f, "checkpoint I/O error at {}: {source}", path.display())
            }
            Error::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())
            }
            Error::Schema {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {} has schema v{found}, this build reads v{expected}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The cheap-to-read identity of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    /// The [`SCHEMA_VERSION`] the file was written under.
    pub schema: u32,
    /// The warm-up fingerprint this state was captured under — the
    /// content address in a [`CheckpointStore`](crate::CheckpointStore)
    /// and the compatibility key for forking: only scenarios with an
    /// equal warm-up fingerprint may fork a quiescence checkpoint.
    pub fingerprint: String,
    /// The canonical JSON of the `ScenarioSpec` that produced the
    /// warm-up, when the producer had one (the experiments layer
    /// embeds it; a raw harness capture has none). Purely informative:
    /// resume never re-derives state from it.
    pub spec: Option<String>,
    /// The simulation clock at capture, nanoseconds.
    pub beat_nanos: u64,
    /// Whether the tail (failure / fault plan) was already scheduled at
    /// capture time. `false` = a quiescence checkpoint, open to any
    /// tail; `true` = a mid-convergence capture with its tail baked in.
    pub tail_applied: bool,
    /// Number of routers in the captured network.
    pub nodes: u64,
}

/// A complete, portable capture of one simulation's state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Identity and compatibility metadata.
    pub header: CheckpointHeader,
    /// The full simulator state.
    pub snapshot: RunSnapshot,
}

impl Checkpoint {
    /// Wraps a captured snapshot with its identity: the warm-up
    /// fingerprint it was captured under and (optionally) the
    /// producing scenario's canonical JSON.
    pub fn capture(snapshot: RunSnapshot, fingerprint: String, spec: Option<String>) -> Self {
        let header = CheckpointHeader {
            schema: SCHEMA_VERSION,
            fingerprint,
            spec,
            beat_nanos: snapshot.network.now().as_nanos(),
            tail_applied: snapshot.tail_applied,
            nodes: snapshot.network.node_count() as u64,
        };
        Checkpoint { header, snapshot }
    }

    /// Serializes the checkpoint to its JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] (with the given `path` for context)
    /// if serialization fails — only possible for non-finite floats,
    /// which no reachable simulator state contains.
    fn to_json(&self, path: &Path) -> Result<String, Error> {
        serde_json::to_string(self).map_err(|e| Error::Corrupt {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })
    }

    /// Writes the checkpoint to `path` atomically (temp + rename), so
    /// an interrupted save never leaves a truncated file under a live
    /// name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        let path = path.as_ref();
        let json = self.to_json(path)?;
        write_atomic(path, json.as_bytes())
    }

    /// Reads a checkpoint back from `path`.
    ///
    /// # Errors
    ///
    /// * [`Error::Io`] — the file cannot be read;
    /// * [`Error::Corrupt`] — it is not a parseable checkpoint;
    /// * [`Error::Schema`] — it was written under another
    ///   [`SCHEMA_VERSION`].
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, Error> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|source| Error::Io {
            path: path.to_path_buf(),
            source,
        })?;
        Checkpoint::parse(&text, path)
    }

    /// Parses a checkpoint from its JSON text (`path` only labels
    /// errors).
    ///
    /// # Errors
    ///
    /// Same as [`Checkpoint::load`], minus I/O.
    pub fn parse(text: &str, path: &Path) -> Result<Checkpoint, Error> {
        let corrupt = |detail: String| Error::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let value: Value = serde_json::from_str(text).map_err(|e| corrupt(e.to_string()))?;
        let header = header_of(&value, path)?;
        if header.schema != SCHEMA_VERSION {
            return Err(Error::Schema {
                path: path.to_path_buf(),
                found: header.schema,
                expected: SCHEMA_VERSION,
            });
        }
        let snapshot = field(&value, "snapshot")
            .and_then(RunSnapshot::from_value)
            .map_err(|e| corrupt(e.to_string()))?;
        Ok(Checkpoint { header, snapshot })
    }

    /// Reads only the header of a checkpoint file — cheap even for
    /// multi-megabyte state blobs, and tolerant of *snapshot*-level
    /// damage (a checkpoint whose header parses but whose state does
    /// not still identifies itself).
    ///
    /// # Errors
    ///
    /// * [`Error::Io`] — the file cannot be read;
    /// * [`Error::Corrupt`] — the header does not parse. An
    ///   incompatible schema is *not* an error here: inspecting is how
    ///   a caller finds out.
    pub fn inspect(path: impl AsRef<Path>) -> Result<CheckpointHeader, Error> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|source| Error::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let value: Value = serde_json::from_str(&text).map_err(|e| Error::Corrupt {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?;
        header_of(&value, path)
    }
}

fn header_of(value: &Value, path: &Path) -> Result<CheckpointHeader, Error> {
    field(value, "header")
        .and_then(CheckpointHeader::from_value)
        .map_err(|e| Error::Corrupt {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })
}

/// Writes `bytes` to `path` via a uniquely named temp file and an
/// atomic rename.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), Error> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), seq));
    let io_err = |source: io::Error| Error::Io {
        path: path.to_path_buf(),
        source,
    };
    // Deterministic fault injection (`BGPSIM_FAILPOINT=checkpoint_write:...`):
    // Err fails the write outright; Torn bypasses the temp+rename
    // discipline and leaves a half-written final file, which a later
    // load must detect as corrupt.
    match bgpsim_trace::failpoint::check("checkpoint_write", &path.to_string_lossy()) {
        Some(bgpsim_trace::failpoint::FailpointAction::Err) => {
            return Err(io_err(bgpsim_trace::failpoint::injected_error(
                "checkpoint_write",
            )));
        }
        Some(bgpsim_trace::failpoint::FailpointAction::Torn) => {
            return std::fs::write(path, &bytes[..bytes.len() / 2]).map_err(io_err);
        }
        _ => {}
    }
    std::fs::write(&tmp, bytes).map_err(io_err)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(io_err(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sample;
    use std::path::PathBuf;

    fn temp_file(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "bgpsim-checkpoint-test-{tag}-{}-{}.json",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn save_load_fork_is_bit_identical() {
        let (experiment, checkpoint) = sample();
        let path = temp_file("roundtrip");
        checkpoint.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.header, checkpoint.header);
        assert_eq!(
            crate::fork(&loaded, &experiment),
            experiment.run(),
            "a checkpoint that crossed the disk must still fork bit-identically"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn inspect_reads_header_without_state() {
        let (_, checkpoint) = sample();
        let path = temp_file("inspect");
        checkpoint.save(&path).unwrap();
        let header = Checkpoint::inspect(&path).unwrap();
        assert_eq!(header.schema, SCHEMA_VERSION);
        assert_eq!(header.fingerprint, "warmup/test");
        assert_eq!(header.nodes, 5);
        assert!(!header.tail_applied);
        assert_eq!(
            header.beat_nanos,
            checkpoint.snapshot.network.now().as_nanos()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_schema_is_rejected_on_load_but_inspectable() {
        let (_, checkpoint) = sample();
        let path = temp_file("schema");
        checkpoint.save(&path).unwrap();
        let bumped = std::fs::read_to_string(&path).unwrap().replacen(
            &format!("\"schema\":{SCHEMA_VERSION}"),
            &format!("\"schema\":{}", SCHEMA_VERSION + 1),
            1,
        );
        std::fs::write(&path, bumped).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(Error::Schema { found, expected, .. })
                if found == SCHEMA_VERSION + 1 && expected == SCHEMA_VERSION
        ));
        assert_eq!(
            Checkpoint::inspect(&path).unwrap().schema,
            SCHEMA_VERSION + 1
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damaged_file_is_corrupt_not_panic() {
        let path = temp_file("corrupt");
        std::fs::write(&path, b"{ not a checkpoint").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(Error::Corrupt { .. })
        ));
        assert!(matches!(
            Checkpoint::inspect(&path),
            Err(Error::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(Checkpoint::load(&path), Err(Error::Io { .. })));
    }
}
