//! Canonical JSON serialization of [`ScenarioSpec`].
//!
//! The fingerprint string ([`ScenarioSpec::fingerprint`]) is a one-way
//! key; this module is the **round-trippable** form — the spec an
//! isolated worker child receives, so it can run a scenario it never
//! saw constructed.
//!
//! The encoding is canonical in the byte-for-byte sense: field order
//! is fixed, absent options serialize as `null`, durations are
//! nanosecond integers, and every float travels as its IEEE-754 bit
//! pattern (`u64`), so `parse(encode(spec))` is the identity and
//! `encode` is injective on the supported domain.
//! [`TopologySpec::Custom`] is not serializable — embedded graphs have
//! no stable wire form — and encoding one is an error.

use bgpsim_core::{BgpConfig, Enhancements, Jitter};
use bgpsim_netsim::time::SimDuration;
use bgpsim_sim::{FaultKind, FaultPlan, FlapProfile, FlapTrain, LinkLoss};
use bgpsim_topology::NodeId;
use serde::value::{field, Value};

use crate::scenario::{EventKind, ScenarioSpec, TopologySpec};

/// Schema version of the canonical encoding; bump on any change to the
/// field set so stale specs are rejected instead of misparsed.
pub const CANONICAL_VERSION: u64 = 1;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn bits(x: f64) -> Value {
    Value::UInt(x.to_bits())
}

fn nanos(d: SimDuration) -> Value {
    Value::UInt(d.as_nanos())
}

fn node(n: NodeId) -> Value {
    Value::UInt(u64::from(n.as_u32()))
}

impl ScenarioSpec {
    /// Serializes this spec into its canonical JSON string.
    ///
    /// # Errors
    ///
    /// Returns an error for [`TopologySpec::Custom`] — embedded graphs
    /// have no canonical wire form.
    pub fn to_canonical_json(&self) -> Result<String, String> {
        let topology = match &self.topology {
            TopologySpec::Clique(n) => format!("clique:{n}"),
            TopologySpec::BClique(n) => format!("bclique:{n}"),
            TopologySpec::InternetLike { n, topo_seed } => format!("internet:{n}:{topo_seed}"),
            TopologySpec::Custom { .. } => {
                return Err("custom topologies have no canonical JSON form".to_string());
            }
        };
        let event = match self.event {
            EventKind::TDown => "tdown",
            EventKind::TLong => "tlong",
            EventKind::Flap => "flap",
        };
        let e = self.config.enhancements;
        let config = obj(vec![
            ("mrai_nanos", nanos(self.config.mrai)),
            ("jitter_lo_bits", bits(self.config.mrai_jitter.lo)),
            ("jitter_hi_bits", bits(self.config.mrai_jitter.hi)),
            ("ssld", Value::Bool(e.ssld)),
            ("wrate", Value::Bool(e.wrate)),
            ("assertion", Value::Bool(e.assertion)),
            ("ghost_flushing", Value::Bool(e.ghost_flushing)),
            // Worker wire v1 carries this slot; it is always `null`.
            ("damping", Value::Null),
        ]);
        let params = obj(vec![
            ("link_delay_nanos", nanos(self.params.link_delay)),
            ("proc_delay_lo_nanos", nanos(self.params.proc_delay_lo)),
            ("proc_delay_hi_nanos", nanos(self.params.proc_delay_hi)),
        ]);
        let faults = match &self.faults {
            None => Value::Null,
            Some(plan) => encode_plan(plan),
        };
        let flap = obj(vec![
            ("period_nanos", nanos(self.flap.period)),
            ("count", Value::UInt(u64::from(self.flap.count))),
            ("jitter_bits", bits(self.flap.jitter)),
            ("loss_bits", bits(self.flap.loss)),
        ]);
        let root = obj(vec![
            ("v", Value::UInt(CANONICAL_VERSION)),
            ("topology", Value::Str(topology)),
            ("event", Value::Str(event.to_string())),
            ("config", config),
            ("params", params),
            ("seed", Value::UInt(self.seed)),
            ("faults", faults),
            ("flap", flap),
        ]);
        serde_json::to_string(&root).map_err(|e| e.to_string())
    }

    /// Parses a canonical JSON string back into a spec.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on malformed JSON, an unknown
    /// schema version, or any field outside the canonical shape.
    pub fn from_canonical_json(s: &str) -> Result<ScenarioSpec, String> {
        let v: Value = serde_json::from_str(s).map_err(|e| format!("invalid JSON: {e}"))?;
        let version = req_u64(&v, "v")?;
        if version != CANONICAL_VERSION {
            return Err(format!(
                "unsupported canonical spec version {version} (expected {CANONICAL_VERSION})"
            ));
        }
        let topology = parse_topology(req_str(&v, "topology")?)?;
        let event = match req_str(&v, "event")? {
            "tdown" => EventKind::TDown,
            "tlong" => EventKind::TLong,
            "flap" => EventKind::Flap,
            other => return Err(format!("unknown event {other:?}")),
        };
        let config = parse_config(field(&v, "config").map_err(|e| e.to_string())?)?;
        let params = parse_params(field(&v, "params").map_err(|e| e.to_string())?)?;
        let seed = req_u64(&v, "seed")?;
        let faults = match field(&v, "faults").map_err(|e| e.to_string())? {
            Value::Null => None,
            plan => Some(parse_plan(plan)?),
        };
        let flap = parse_flap(field(&v, "flap").map_err(|e| e.to_string())?)?;
        let mut spec = ScenarioSpec::new(topology, event)
            .with_config(config)
            .with_seed(seed)
            .with_flap(flap);
        spec.params = params;
        spec.faults = faults;
        Ok(spec)
    }
}

fn encode_plan(plan: &FaultPlan) -> Value {
    let events = plan
        .events
        .iter()
        .map(|ev| {
            let mut entries = vec![("at_nanos", nanos(ev.at))];
            match ev.kind {
                FaultKind::LinkDown { a, b } => {
                    entries.push(("kind", Value::Str("link_down".to_string())));
                    entries.push(("a", node(a)));
                    entries.push(("b", node(b)));
                }
                FaultKind::LinkUp { a, b } => {
                    entries.push(("kind", Value::Str("link_up".to_string())));
                    entries.push(("a", node(a)));
                    entries.push(("b", node(b)));
                }
                FaultKind::SessionReset { a, b } => {
                    entries.push(("kind", Value::Str("session_reset".to_string())));
                    entries.push(("a", node(a)));
                    entries.push(("b", node(b)));
                }
                FaultKind::Withdraw { origin, prefix } => {
                    entries.push(("kind", Value::Str("withdraw".to_string())));
                    entries.push(("origin", node(origin)));
                    entries.push(("prefix", Value::UInt(u64::from(prefix.as_u32()))));
                }
            }
            obj(entries)
        })
        .collect();
    let flaps = plan
        .flaps
        .iter()
        .map(|t| {
            obj(vec![
                ("a", node(t.a)),
                ("b", node(t.b)),
                ("start_nanos", nanos(t.start)),
                ("period_nanos", nanos(t.period)),
                ("count", Value::UInt(u64::from(t.count))),
                ("jitter_bits", bits(t.jitter)),
            ])
        })
        .collect();
    let loss = plan
        .loss
        .iter()
        .map(|l| {
            obj(vec![
                ("a", node(l.a)),
                ("b", node(l.b)),
                ("probability_bits", bits(l.probability)),
            ])
        })
        .collect();
    obj(vec![
        ("events", Value::Array(events)),
        ("flaps", Value::Array(flaps)),
        ("loss", Value::Array(loss)),
    ])
}

fn parse_plan(v: &Value) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for ev in req_array(v, "events")? {
        let at = SimDuration::from_nanos(req_u64(ev, "at_nanos")?);
        let kind = match req_str(ev, "kind")? {
            "link_down" => FaultKind::LinkDown {
                a: req_node(ev, "a")?,
                b: req_node(ev, "b")?,
            },
            "link_up" => FaultKind::LinkUp {
                a: req_node(ev, "a")?,
                b: req_node(ev, "b")?,
            },
            "session_reset" => FaultKind::SessionReset {
                a: req_node(ev, "a")?,
                b: req_node(ev, "b")?,
            },
            "withdraw" => FaultKind::Withdraw {
                origin: req_node(ev, "origin")?,
                prefix: bgpsim_core::Prefix::new(
                    u32::try_from(req_u64(ev, "prefix")?)
                        .map_err(|_| "prefix out of range".to_string())?,
                ),
            },
            other => return Err(format!("unknown fault kind {other:?}")),
        };
        plan = plan.event(at, kind);
    }
    for t in req_array(v, "flaps")? {
        plan = plan.flap(FlapTrain {
            a: req_node(t, "a")?,
            b: req_node(t, "b")?,
            start: SimDuration::from_nanos(req_u64(t, "start_nanos")?),
            period: SimDuration::from_nanos(req_u64(t, "period_nanos")?),
            count: req_u32(t, "count")?,
            jitter: req_bits(t, "jitter_bits")?,
        });
    }
    for l in req_array(v, "loss")? {
        plan.loss.push(LinkLoss {
            a: req_node(l, "a")?,
            b: req_node(l, "b")?,
            probability: req_bits(l, "probability_bits")?,
        });
    }
    Ok(plan)
}

fn parse_config(v: &Value) -> Result<BgpConfig, String> {
    if field(v, "damping").map_err(|e| e.to_string())? != &Value::Null {
        return Err("damping must be null (route flap damping is not supported)".to_string());
    }
    Ok(BgpConfig::default()
        .with_mrai(SimDuration::from_nanos(req_u64(v, "mrai_nanos")?))
        .with_jitter(Jitter {
            lo: req_bits(v, "jitter_lo_bits")?,
            hi: req_bits(v, "jitter_hi_bits")?,
        })
        .with_enhancements(Enhancements {
            ssld: req_bool(v, "ssld")?,
            wrate: req_bool(v, "wrate")?,
            assertion: req_bool(v, "assertion")?,
            ghost_flushing: req_bool(v, "ghost_flushing")?,
        }))
}

fn parse_params(v: &Value) -> Result<bgpsim_sim::SimParams, String> {
    Ok(bgpsim_sim::SimParams {
        link_delay: SimDuration::from_nanos(req_u64(v, "link_delay_nanos")?),
        proc_delay_lo: SimDuration::from_nanos(req_u64(v, "proc_delay_lo_nanos")?),
        proc_delay_hi: SimDuration::from_nanos(req_u64(v, "proc_delay_hi_nanos")?),
    })
}

fn parse_flap(v: &Value) -> Result<FlapProfile, String> {
    Ok(FlapProfile {
        period: SimDuration::from_nanos(req_u64(v, "period_nanos")?),
        count: req_u32(v, "count")?,
        jitter: req_bits(v, "jitter_bits")?,
        loss: req_bits(v, "loss_bits")?,
    })
}

/// Parses the shared topology grammar
/// (`clique:<n> | bclique:<n> | internet:<n>:<topo-seed>`).
fn parse_topology(spec: &str) -> Result<TopologySpec, String> {
    let bad = || format!("bad topology spec {spec:?}");
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["clique", n] => Ok(TopologySpec::Clique(n.parse().map_err(|_| bad())?)),
        ["bclique", n] => Ok(TopologySpec::BClique(n.parse().map_err(|_| bad())?)),
        ["internet", n, ts] => Ok(TopologySpec::InternetLike {
            n: n.parse().map_err(|_| bad())?,
            topo_seed: ts.parse().map_err(|_| bad())?,
        }),
        _ => Err(bad()),
    }
}

fn req_u64(v: &Value, name: &str) -> Result<u64, String> {
    field(v, name)
        .map_err(|e| e.to_string())?
        .as_u64()
        .ok_or_else(|| format!("{name} must be a non-negative integer"))
}

fn req_u32(v: &Value, name: &str) -> Result<u32, String> {
    u32::try_from(req_u64(v, name)?).map_err(|_| format!("{name} out of range"))
}

fn req_node(v: &Value, name: &str) -> Result<NodeId, String> {
    Ok(NodeId::new(req_u32(v, name)?))
}

fn req_bits(v: &Value, name: &str) -> Result<f64, String> {
    Ok(f64::from_bits(req_u64(v, name)?))
}

fn req_str<'a>(v: &'a Value, name: &str) -> Result<&'a str, String> {
    field(v, name)
        .map_err(|e| e.to_string())?
        .as_str()
        .ok_or_else(|| format!("{name} must be a string"))
}

fn req_bool(v: &Value, name: &str) -> Result<bool, String> {
    match field(v, name).map_err(|e| e.to_string())? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("{name} must be a bool")),
    }
}

fn req_array<'a>(v: &'a Value, name: &str) -> Result<&'a [Value], String> {
    field(v, name)
        .map_err(|e| e.to_string())?
        .as_array()
        .ok_or_else(|| format!("{name} must be an array"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            TopologySpec::InternetLike {
                n: 48,
                topo_seed: 7,
            },
            EventKind::Flap,
        )
        .with_seed(19)
        .with_config(
            BgpConfig::default()
                .with_mrai(SimDuration::from_secs(15))
                .with_jitter(Jitter::NONE)
                .with_enhancements(Enhancements::ssld()),
        )
        .with_flap(FlapProfile {
            period: SimDuration::from_secs(45),
            count: 4,
            jitter: 0.25,
            loss: 0.125,
        })
        .with_faults(
            FaultPlan::new()
                .withdraw(
                    SimDuration::from_secs(1),
                    NodeId::new(3),
                    bgpsim_core::Prefix::new(0),
                )
                .link_down(SimDuration::from_secs(2), NodeId::new(1), NodeId::new(2))
                .link_up(SimDuration::from_secs(3), NodeId::new(1), NodeId::new(2))
                .session_reset(SimDuration::from_secs(4), NodeId::new(2), NodeId::new(3))
                .flap(
                    FlapTrain::new(NodeId::new(0), NodeId::new(1))
                        .starting_at(SimDuration::from_secs(5))
                        .with_period(SimDuration::from_secs(30))
                        .with_count(2)
                        .with_jitter(0.1),
                )
                .loss(NodeId::new(0), NodeId::new(1), 0.3),
        )
    }

    #[test]
    fn round_trip_is_identity() {
        let spec = full_spec();
        let json = spec.to_canonical_json().unwrap();
        let back = ScenarioSpec::from_canonical_json(&json).unwrap();
        // Field-by-field equality (ScenarioSpec has no PartialEq
        // because FaultPlan floats make it awkward; fingerprints cover
        // everything).
        assert_eq!(spec.fingerprint(), back.fingerprint());
        assert_eq!(spec.faults, back.faults);
        assert_eq!(spec.flap, back.flap);
        // The encoding itself is canonical: encode(parse(encode(x)))
        // is byte-identical.
        assert_eq!(json, back.to_canonical_json().unwrap());
    }

    #[test]
    fn minimal_spec_round_trips() {
        let spec = ScenarioSpec::new(TopologySpec::Clique(5), EventKind::TDown).with_seed(1);
        let json = spec.to_canonical_json().unwrap();
        let back = ScenarioSpec::from_canonical_json(&json).unwrap();
        assert_eq!(spec.fingerprint(), back.fingerprint());
        assert!(back.faults.is_none());
    }

    #[test]
    fn minimal_spec_bytes_are_pinned() {
        // Worker wire v1 carries these bytes, `"damping":null` included.
        let spec = ScenarioSpec::new(TopologySpec::Clique(5), EventKind::TDown).with_seed(1);
        assert_eq!(spec.to_canonical_json().unwrap(), MINIMAL_JSON);
    }

    #[test]
    fn non_null_damping_is_rejected() {
        let json = MINIMAL_JSON.replace(r#""damping":null"#, r#""damping":{}"#);
        let err = ScenarioSpec::from_canonical_json(&json).unwrap_err();
        assert!(err.contains("damping"), "{err}");
    }

    const MINIMAL_JSON: &str = concat!(
        r#"{"v":1,"topology":"clique:5","event":"tdown","#,
        r#""config":{"mrai_nanos":30000000000,"jitter_lo_bits":4604930618986332160,"#,
        r#""jitter_hi_bits":4607182418800017408,"ssld":false,"wrate":false,"#,
        r#""assertion":false,"ghost_flushing":false,"damping":null},"#,
        r#""params":{"link_delay_nanos":2000000,"proc_delay_lo_nanos":100000000,"#,
        r#""proc_delay_hi_nanos":500000000},"seed":1,"faults":null,"#,
        r#""flap":{"period_nanos":10000000000,"count":3,"jitter_bits":0,"loss_bits":0}}"#,
    );

    #[test]
    fn custom_topology_is_rejected() {
        let spec = ScenarioSpec::new(
            TopologySpec::Custom {
                graph: bgpsim_topology::generators::clique(3),
                destination: NodeId::new(0),
            },
            EventKind::TDown,
        );
        let err = spec.to_canonical_json().unwrap_err();
        assert!(err.contains("custom"), "{err}");
    }

    #[test]
    fn version_and_shape_errors_are_descriptive() {
        for (body, needle) in [
            ("", "invalid JSON"),
            ("[]", "object"),
            (r#"{"v": 99}"#, "version"),
        ] {
            let err = ScenarioSpec::from_canonical_json(body).unwrap_err();
            assert!(err.contains(needle), "{body:?} -> {err}");
        }
        let json = full_spec().to_canonical_json().unwrap();
        let tampered = json.replace("\"event\":\"flap\"", "\"event\":\"boom\"");
        let err = ScenarioSpec::from_canonical_json(&tampered).unwrap_err();
        assert!(err.contains("event"), "{err}");
    }
}
