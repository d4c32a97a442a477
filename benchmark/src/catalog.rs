//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` states
//! the same lists; a test keeps the two in step.

/// Whether a larger or a smaller value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WORKLOADS: [&str; 6] = [
    "paper_sweep",
    "control_plane",
    "replay_long_epochs",
    "replay_short_epochs",
    "serve_cold_isolated",
    "serve_warm",
];

/// What a user of the system sees. Every workload reports every one:
/// `work_per_s` counts the workload's own unit of work (scenario runs,
/// simulated events, replayed packets, completed jobs) and
/// `latency_ms_p50` times its own operation (a whole sweep, one pass
/// over the cell set, one round over the record set, one job from
/// submit to last result line).
///
/// The bounds are sized to the builder's host, not to the code: runs
/// of one commit repeat within 1–3 %, but the shared 2-core container
/// has minutes-long episodes in which memory-bound work runs a tenth
/// slower, and a bound must outlast one. Peak memory is steady on
/// fixed inputs and moves by an eighth with the seed on
/// `control_plane`, where a vector doubling decides it.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.2),
    e2e("latency_ms_p50", "ms", Better::Lower, 0.2),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Single layers, measured in the traced run. A layer a workload does
/// not exercise reports 0 there.
pub const PER_LAYER: [Metric; 50] = [
    layer("topology.build_ns", "ns", Lower),
    layer("sim.run_ns", "ns", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.ns_per_event", "ns", Lower),
    layer("netsim.max_queue_depth", "count", Lower),
    layer("netsim.queue_ns_per_op", "ns", Lower),
    layer("core.decisions", "count", Lower),
    layer("core.updates_sent", "count", Lower),
    layer("core.withdrawals_sent", "count", Lower),
    layer("dataplane.packet_gen_ns", "ns", Lower),
    layer("dataplane.epoch_build_ns", "ns", Lower),
    layer("dataplane.replay_ns", "ns", Lower),
    layer("dataplane.replay_ns_per_packet", "ns", Lower),
    layer("dataplane.packets", "count", Lower),
    layer("dataplane.walks", "count", Lower),
    layer("dataplane.memo_hit_ratio", "ratio", Higher),
    layer("dataplane.epochs", "count", Lower),
    layer("dataplane.packets_per_epoch", "count", Higher),
    layer("dataplane.census_ns", "ns", Lower),
    layer("dataplane.loops", "count", Lower),
    layer("metrics.compute_ns", "ns", Lower),
    layer("experiments.fingerprint_ns", "ns", Lower),
    layer("experiments.render_ns", "ns", Lower),
    layer("runner.overhead_ns_per_job", "ns", Lower),
    layer("runner.duplicate_run_share", "ratio", Lower),
    layer("runner.parallel_efficiency", "ratio", Higher),
    layer("runner.cache_store_ns", "ns", Lower),
    layer("runner.cache_lookup_ns", "ns", Lower),
    layer("runner.isolate_overhead_ms_per_job", "ms", Lower),
    layer("runner.worker_spawns", "count", Lower),
    layer("runner.worker_retries", "count", Lower),
    layer("serve.http_roundtrip_ms_p50", "ms", Lower),
    layer("serve.keepalive_roundtrip_ms_p50", "ms", Lower),
    layer("serve.admit_ms_p50", "ms", Lower),
    layer("serve.first_byte_ms_p50", "ms", Lower),
    layer("serve.first_byte_ms_p99", "ms", Lower),
    layer("serve.job_latency_ms_p99", "ms", Lower),
    layer("serve.latency_samples", "count", Higher),
    layer("serve.requests", "count", Lower),
    layer("serve.rejected_429", "count", Lower),
    layer("serve.status_5xx", "count", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.admit_ns", "ns", Lower),
    layer("serve.first_byte_wait_ns", "ns", Lower),
    layer("serve.stream_ns", "ns", Lower),
    layer("trace.jsonl_overhead_share", "ratio", Lower),
    layer("ledger.wall_ns", "ns", Lower),
    layer("ledger.unattributed_share", "ratio", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.passes", "count", Higher),
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::field;
    use serde::Value;

    fn names(v: &Value, key: &str) -> Vec<String> {
        field(v, key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| field(m, "name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_states_the_same_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(names(&v, "workloads"), WORKLOADS);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = field(&v, key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (got, want) in listed.iter().zip(table) {
                assert_eq!(field(got, "name").unwrap().as_str(), Some(want.name));
                assert_eq!(field(got, "unit").unwrap().as_str(), Some(want.unit));
                let better = match want.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(field(got, "better").unwrap().as_str(), Some(better));
                assert_eq!(
                    field(got, "bound").ok().and_then(Value::as_f64),
                    want.bound,
                    "{}",
                    want.name
                );
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
    }
}
