//! Deserializable job payloads: the wire format a service accepts.
//!
//! A [`JobSpec`] is the JSON body of a `POST /v1/jobs` submission — a
//! declarative description of one scenario family (topology, event,
//! protocol configuration) fanned out over a list of seeds. It maps
//! 1:1 onto [`Scenario`] values, so everything downstream (fingerprint,
//! run cache, budgets) behaves exactly as if the scenarios had been
//! built in-process.
//!
//! The vendored serde stub's derive has no notion of optional fields,
//! so `Deserialize` is implemented by hand over the raw [`Value`]
//! tree: absent fields take the same defaults the CLI uses, and every
//! malformed field produces a descriptive error the service can return
//! as a 400 body.

use bgpsim_core::{BgpConfig, Enhancements, Jitter};
use bgpsim_netsim::time::SimDuration;
use bgpsim_sim::FlapProfile;
use serde::value::{field, Error, Value};
use serde::Deserialize;

use crate::scenario::{EventKind, ScenarioSpec, TopologySpec};

/// Ceiling on seeds per submission — one submission cannot occupy the
/// whole service. Fan wider submissions out over several jobs.
pub const MAX_SEEDS_PER_JOB: usize = 256;

/// The newest wire version this build accepts. Version 1 bodies (no
/// `"v"` field) remain accepted forever; version 2 adds the `"fork"`
/// stanza.
pub const JOBSPEC_VERSION: u32 = 2;

/// The `"fork"` stanza of a version-2 submission: run several tail
/// events per seed.
///
/// It only names *which* runs a submission asks for: `seeds × tails`
/// ordinary runs, each with its ordinary cache fingerprint, so the
/// result stream is byte-identical to the equivalent single-event
/// submissions concatenated seed-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkSpec {
    /// The tail events to replay per seed, in stream order.
    pub tails: Vec<EventKind>,
}

/// A declarative job submission: one scenario family over many seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Wire version of the submission (`"v"`, default 1).
    pub version: u32,
    /// Topology family and size.
    pub topology: TopologySpec,
    /// Event class.
    pub event: EventKind,
    /// MRAI in seconds.
    pub mrai_secs: u64,
    /// MRAI jitter enabled (SSFNET-style) or fully disabled.
    pub jitter: bool,
    /// Enhancement set.
    pub enhancements: Enhancements,
    /// Seeds to run, one scenario each.
    pub seeds: Vec<u64>,
    /// Flap parameters for [`EventKind::Flap`] submissions.
    pub flap: Option<FlapProfile>,
    /// Version-2 fork stanza: several tail events per seed. Replaces
    /// `event` when present.
    pub fork: Option<ForkSpec>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            version: 1,
            topology: TopologySpec::Clique(10),
            event: EventKind::TDown,
            mrai_secs: 30,
            jitter: true,
            enhancements: Enhancements::standard(),
            seeds: vec![0],
            flap: None,
            fork: None,
        }
    }
}

impl JobSpec {
    /// Parses a JSON request body.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field for any shape the
    /// service should answer with a 400.
    pub fn parse(body: &str) -> Result<JobSpec, String> {
        let value: Value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
        JobSpec::from_value(&value).map_err(|e| e.to_string())
    }

    /// The number of scenario runs this submission fans out to.
    pub fn run_count(&self) -> usize {
        self.seeds.len() * self.fork.as_ref().map_or(1, |f| f.tails.len())
    }

    /// A short label for logs and status lines.
    pub fn label(&self) -> String {
        match &self.fork {
            Some(fork) => {
                let tails: Vec<&str> = fork.tails.iter().map(|t| t.label()).collect();
                format!(
                    "{} fork[{}] x{}",
                    self.topology.label(),
                    tails.join(","),
                    self.run_count()
                )
            }
            None => format!(
                "{} {} x{}",
                self.topology.label(),
                self.event.label(),
                self.seeds.len()
            ),
        }
    }

    /// The tail events of one seed's fan-out: the fork stanza's tails,
    /// or the single `event` for an unforked submission.
    fn tails(&self) -> Vec<EventKind> {
        match &self.fork {
            Some(fork) => fork.tails.clone(),
            None => vec![self.event],
        }
    }

    /// Materializes the scenarios, seed-major (every tail of seed 0,
    /// then every tail of seed 1, …) so the runs of one seed sit
    /// adjacently in the result stream.
    pub fn scenarios(&self) -> Vec<ScenarioSpec> {
        let config = BgpConfig::default()
            .with_mrai(SimDuration::from_secs(self.mrai_secs))
            .with_jitter(if self.jitter {
                Jitter::SSFNET
            } else {
                Jitter::NONE
            })
            .with_enhancements(self.enhancements);
        let tails = self.tails();
        self.seeds
            .iter()
            .flat_map(|&seed| {
                tails.iter().map(move |&event| {
                    let mut s = ScenarioSpec::new(self.topology.clone(), event)
                        .with_config(config)
                        .with_seed(seed);
                    if let Some(flap) = self.flap {
                        s = s.with_flap(flap);
                    }
                    s
                })
            })
            .collect()
    }
}

impl Deserialize for JobSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries = v.as_object().ok_or_else(|| Error::expected("object", v))?;
        for (key, _) in entries {
            match key.as_str() {
                "v" | "topology" | "event" | "mrai_secs" | "jitter" | "enhancement" | "seeds"
                | "flap" | "fork" => {}
                other => return Err(Error::new(format!("unknown field {other:?}"))),
            }
        }
        let mut spec = JobSpec {
            topology: parse_topology(
                field(v, "topology")?
                    .as_str()
                    .ok_or_else(|| Error::new("topology must be a string"))?,
            )?,
            ..JobSpec::default()
        };
        if let Some(ver) = optional(v, "v") {
            spec.version = u32::from_value(ver).map_err(|_| Error::new("v must be an integer"))?;
            if spec.version == 0 || spec.version > JOBSPEC_VERSION {
                return Err(Error::new(format!(
                    "unsupported spec version {} (this build accepts 1..={JOBSPEC_VERSION})",
                    spec.version
                )));
            }
        }
        if let Some(ev) = optional(v, "event") {
            spec.event = parse_event(ev)?;
        }
        if let Some(mrai) = optional(v, "mrai_secs") {
            spec.mrai_secs = mrai
                .as_u64()
                .ok_or_else(|| Error::new("mrai_secs must be a non-negative integer"))?;
        }
        if let Some(j) = optional(v, "jitter") {
            spec.jitter = bool::from_value(j).map_err(|_| Error::new("jitter must be a bool"))?;
        }
        if let Some(enh) = optional(v, "enhancement") {
            spec.enhancements = match enh.as_str() {
                Some("none") => Enhancements::standard(),
                Some("ssld") => Enhancements::ssld(),
                Some("wrate") => Enhancements::wrate(),
                Some("assertion") => Enhancements::assertion(),
                Some("ghost-flushing") | Some("ghost") => Enhancements::ghost_flushing(),
                _ => return Err(Error::new(format!("unknown enhancement {enh:?}"))),
            };
        }
        if let Some(seeds) = optional(v, "seeds") {
            spec.seeds = Vec::<u64>::from_value(seeds)
                .map_err(|_| Error::new("seeds must be an array of non-negative integers"))?;
            if spec.seeds.is_empty() {
                return Err(Error::new("seeds must not be empty"));
            }
            if spec.seeds.len() > MAX_SEEDS_PER_JOB {
                return Err(Error::new(format!(
                    "seeds is limited to {MAX_SEEDS_PER_JOB} per job, got {}",
                    spec.seeds.len()
                )));
            }
        }
        if let Some(flap) = optional(v, "flap") {
            spec.flap = Some(parse_flap(flap)?);
        }
        if let Some(fork) = optional(v, "fork") {
            if spec.version < 2 {
                return Err(Error::new("fork requires \"v\": 2"));
            }
            if optional(v, "event").is_some() {
                return Err(Error::new(
                    "fork.tails replaces event; drop the event field",
                ));
            }
            spec.fork = Some(parse_fork(fork)?);
            if spec.run_count() > MAX_SEEDS_PER_JOB {
                return Err(Error::new(format!(
                    "a submission is limited to {MAX_SEEDS_PER_JOB} runs, got {} \
                     ({} seeds x {} tails)",
                    spec.run_count(),
                    spec.seeds.len(),
                    spec.fork.as_ref().map_or(0, |f| f.tails.len()),
                )));
            }
        }
        Ok(spec)
    }
}

/// An object field that is absent or `null` reads as `None`.
fn optional<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match field(v, name) {
        Ok(Value::Null) | Err(_) => None,
        Ok(found) => Some(found),
    }
}

/// Parses the CLI's topology grammar:
/// `clique:<n> | bclique:<n> | internet:<n>[:<topo-seed>]`.
fn parse_topology(spec: &str) -> Result<TopologySpec, Error> {
    let bad = || Error::new(format!("bad topology spec {spec:?}"));
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["clique", n] => Ok(TopologySpec::Clique(n.parse().map_err(|_| bad())?)),
        ["bclique", n] => Ok(TopologySpec::BClique(n.parse().map_err(|_| bad())?)),
        ["internet", n] => Ok(TopologySpec::InternetLike {
            n: n.parse().map_err(|_| bad())?,
            topo_seed: 0,
        }),
        ["internet", n, ts] => Ok(TopologySpec::InternetLike {
            n: n.parse().map_err(|_| bad())?,
            topo_seed: ts.parse().map_err(|_| bad())?,
        }),
        _ => Err(bad()),
    }
}

fn parse_event(v: &Value) -> Result<EventKind, Error> {
    match v.as_str() {
        Some("tdown") => Ok(EventKind::TDown),
        Some("tlong") => Ok(EventKind::TLong),
        Some("flap") => Ok(EventKind::Flap),
        _ => Err(Error::new(format!("unknown event {v:?}"))),
    }
}

/// Parses the version-2 `fork` stanza: `{"tails": ["tdown", ...]}`.
fn parse_fork(v: &Value) -> Result<ForkSpec, Error> {
    let entries = v
        .as_object()
        .ok_or_else(|| Error::new("fork must be an object"))?;
    for (key, _) in entries {
        match key.as_str() {
            "tails" => {}
            other => return Err(Error::new(format!("unknown fork field {other:?}"))),
        }
    }
    let tails = field(v, "tails")
        .ok()
        .and_then(Value::as_array)
        .ok_or_else(|| Error::new("fork.tails must be an array of events"))?;
    if tails.is_empty() {
        return Err(Error::new("fork.tails must not be empty"));
    }
    Ok(ForkSpec {
        tails: tails.iter().map(parse_event).collect::<Result<_, _>>()?,
    })
}

fn parse_flap(v: &Value) -> Result<FlapProfile, Error> {
    let entries = v
        .as_object()
        .ok_or_else(|| Error::new("flap must be an object"))?;
    let mut flap = FlapProfile::default();
    for (key, val) in entries {
        match key.as_str() {
            "period_secs" => {
                flap.period = SimDuration::from_secs(
                    val.as_u64()
                        .ok_or_else(|| Error::new("flap.period_secs must be an integer"))?,
                );
            }
            "count" => {
                flap.count = u32::from_value(val)
                    .map_err(|_| Error::new("flap.count must be a non-negative integer"))?;
            }
            "jitter" => {
                flap.jitter = val
                    .as_f64()
                    .ok_or_else(|| Error::new("flap.jitter must be a number"))?;
            }
            "loss" => {
                flap.loss = val
                    .as_f64()
                    .ok_or_else(|| Error::new("flap.loss must be a number"))?;
            }
            other => return Err(Error::new(format!("unknown flap field {other:?}"))),
        }
    }
    Ok(flap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_takes_defaults() {
        let spec = JobSpec::parse(r#"{"topology": "clique:5"}"#).unwrap();
        assert_eq!(spec.topology, TopologySpec::Clique(5));
        assert_eq!(spec.event, EventKind::TDown);
        assert_eq!(spec.mrai_secs, 30);
        assert!(spec.jitter);
        assert_eq!(spec.seeds, vec![0]);
        assert_eq!(spec.run_count(), 1);
        assert!(spec.flap.is_none());
    }

    #[test]
    fn full_spec_round_trips_into_scenarios() {
        let spec = JobSpec::parse(
            r#"{
                "topology": "bclique:7",
                "event": "flap",
                "mrai_secs": 15,
                "jitter": false,
                "enhancement": "ghost-flushing",
                "seeds": [3, 1, 4],
                "flap": {"period_secs": 60, "count": 2, "jitter": 0.0, "loss": 0.1}
            }"#,
        )
        .unwrap();
        assert_eq!(spec.label(), "bclique-7 Flap x3");
        let scenarios = spec.scenarios();
        assert_eq!(scenarios.len(), 3);
        assert_eq!(scenarios[0].seed, 3);
        assert_eq!(scenarios[2].seed, 4);
        assert_eq!(scenarios[0].topology, TopologySpec::BClique(7));
        assert!(scenarios[0].config.enhancements.ghost_flushing);
        assert_eq!(scenarios[1].flap.count, 2);
        assert_eq!(scenarios[1].flap.loss, 0.1);
        // Same spec, same seed → same fingerprint: cacheable across
        // submissions.
        assert_eq!(
            scenarios[0].fingerprint(),
            spec.scenarios()[0].fingerprint()
        );
    }

    #[test]
    fn internet_topology_with_topo_seed() {
        let spec = JobSpec::parse(r#"{"topology": "internet:48:7"}"#).unwrap();
        assert_eq!(
            spec.topology,
            TopologySpec::InternetLike {
                n: 48,
                topo_seed: 7
            }
        );
    }

    #[test]
    fn errors_name_the_problem() {
        for (body, needle) in [
            ("", "invalid JSON"),
            ("[]", "expected object"),
            (r#"{"event": "tdown"}"#, "topology"),
            (r#"{"topology": "mesh:3"}"#, "bad topology"),
            (r#"{"topology": "clique:5", "event": "boom"}"#, "event"),
            (r#"{"topology": "clique:5", "seeds": []}"#, "seeds"),
            (r#"{"topology": "clique:5", "bogus": 1}"#, "bogus"),
            (
                r#"{"topology": "clique:5", "enhancement": "magic"}"#,
                "enhancement",
            ),
            (
                r#"{"topology": "clique:5", "flap": {"period_secs": "x"}}"#,
                "period_secs",
            ),
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert!(err.contains(needle), "body {body:?} -> {err:?}");
        }
    }

    #[test]
    fn v1_bodies_parse_as_version_1_with_or_without_the_field() {
        let bare = JobSpec::parse(r#"{"topology": "clique:5"}"#).unwrap();
        assert_eq!(bare.version, 1);
        assert!(bare.fork.is_none());
        let explicit = JobSpec::parse(r#"{"v": 1, "topology": "clique:5"}"#).unwrap();
        assert_eq!(explicit.version, 1);
        assert_eq!(explicit.run_count(), 1);
    }

    #[test]
    fn v2_fork_fans_tails_per_seed() {
        let spec = JobSpec::parse(
            r#"{"v": 2, "topology": "clique:6", "seeds": [1, 2],
                "fork": {"tails": ["tdown", "flap"]}}"#,
        )
        .unwrap();
        assert_eq!(spec.version, 2);
        assert_eq!(spec.run_count(), 4);
        assert_eq!(spec.label(), "clique-6 fork[Tdown,Flap] x4");
        let scenarios = spec.scenarios();
        // Seed-major, tail-minor ordering.
        assert_eq!(scenarios[0].seed, 1);
        assert_eq!(scenarios[0].event, EventKind::TDown);
        assert_eq!(scenarios[1].seed, 1);
        assert_eq!(scenarios[1].event, EventKind::Flap);
        assert_eq!(scenarios[2].seed, 2);
    }

    #[test]
    fn fork_errors_are_descriptive() {
        for (body, needle) in [
            (
                r#"{"topology": "clique:5", "fork": {"tails": ["tdown"]}}"#,
                "\"v\": 2",
            ),
            (r#"{"v": 3, "topology": "clique:5"}"#, "version"),
            (r#"{"v": 0, "topology": "clique:5"}"#, "version"),
            (
                r#"{"v": 2, "topology": "clique:5", "event": "tdown",
                    "fork": {"tails": ["tdown"]}}"#,
                "replaces event",
            ),
            (
                r#"{"v": 2, "topology": "clique:5", "fork": {"tails": []}}"#,
                "empty",
            ),
            (
                r#"{"v": 2, "topology": "clique:5", "fork": {"tails": ["boom"]}}"#,
                "event",
            ),
            (
                r#"{"v": 2, "topology": "clique:5", "fork": {"bogus": 1}}"#,
                "fork field",
            ),
            (
                r#"{"v": 2, "topology": "clique:5", "fork": "tdown"}"#,
                "object",
            ),
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert!(err.contains(needle), "body {body:?} -> {err:?}");
        }
    }

    #[test]
    fn fork_fanout_counts_against_the_run_bound() {
        let seeds: Vec<String> = (0..MAX_SEEDS_PER_JOB as u64 / 2 + 1)
            .map(|s| s.to_string())
            .collect();
        let body = format!(
            r#"{{"v": 2, "topology": "clique:5", "seeds": [{}],
                "fork": {{"tails": ["tdown", "tlong"]}}}}"#,
            seeds.join(",")
        );
        let err = JobSpec::parse(&body).unwrap_err();
        assert!(err.contains("limited"), "{err}");
    }

    #[test]
    fn seed_fanout_is_bounded() {
        let seeds: Vec<String> = (0..=MAX_SEEDS_PER_JOB as u64)
            .map(|s| s.to_string())
            .collect();
        let body = format!(
            r#"{{"topology": "clique:5", "seeds": [{}]}}"#,
            seeds.join(",")
        );
        let err = JobSpec::parse(&body).unwrap_err();
        assert!(err.contains("limited"), "{err}");
    }
}
