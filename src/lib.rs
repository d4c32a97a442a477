//! # bgpsim
//!
//! A from-scratch Rust reproduction of **"A Study of BGP Path Vector
//! Route Looping Behavior"** (Pei, Zhao, Massey, Zhang — ICDCS 2004):
//! a deterministic discrete-event simulator, a BGP path-vector
//! protocol engine with the paper's four convergence enhancements, a
//! TTL-accounting data plane, and an experiment harness that
//! regenerates every evaluation figure.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`netsim`] | `bgpsim-netsim` | event engine, clock, RNG, links, processors |
//! | [`topology`] | `bgpsim-topology` | graphs, generators (Clique, B-Clique, Internet-like), algorithms |
//! | [`bgp`] | `bgpsim-core` | AS paths, RIBs, decision process, MRAI, SSLD/WRATE/Assertion/Ghost-Flushing |
//! | [`dataplane`] | `bgpsim-dataplane` | packets, FIB histories, replay, loop scanner |
//! | [`sim`] | `bgpsim-sim` | assembled network simulation + failure injection |
//! | [`metrics`] | `bgpsim-metrics` | the paper's metrics + loop census + export |
//! | [`experiments`] | `bgpsim-experiments` | scenarios, sweeps, Figures 4–9 |
//! | [`runner`] | `bgpsim-runner` | parallel executor, run cache, progress/journal, [`RunnerConfig`](bgpsim_runner::RunnerConfig) |
//! | [`serve`] | `bgpsim-serve` | HTTP experiment daemon: bounded run queue, shared run cache, streaming results |
//! | [`trace`] | `bgpsim-trace` | structured run observability: trace events, sinks, counters |
//!
//! ## Quickstart
//!
//! Reproduce the paper's headline phenomenon — transient forwarding
//! loops during BGP `T_down` convergence — on a 10-node clique:
//!
//! ```
//! use bgpsim::prelude::*;
//!
//! let result = ScenarioSpec::new(TopologySpec::Clique(10), EventKind::TDown)
//!     .with_seed(42)
//!     .run();
//! let m = &result.measurement.metrics;
//! assert!(m.ttl_exhaustions > 0, "path-vector routing loops!");
//! assert!(m.looping_ratio > 0.5);
//! println!(
//!     "convergence {:.1}s, looping {:.1}s, ratio {:.2}",
//!     m.convergence_secs(),
//!     m.looping_secs(),
//!     m.looping_ratio
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use bgpsim_core as bgp;
pub use bgpsim_dataplane as dataplane;
pub use bgpsim_experiments as experiments;
pub use bgpsim_faults as faults;
pub use bgpsim_metrics as metrics;
pub use bgpsim_netsim as netsim;
pub use bgpsim_runner as runner;
pub use bgpsim_serve as serve;
pub use bgpsim_sim as sim;
pub use bgpsim_topology as topology;
pub use bgpsim_trace as trace;

/// The most common types across the workspace, for glob import.
pub mod prelude {
    pub use bgpsim_core::prelude::*;
    pub use bgpsim_dataplane::prelude::*;
    pub use bgpsim_experiments::figures::Scale;
    pub use bgpsim_experiments::scenario::{EventKind, ScenarioResult, ScenarioSpec, TopologySpec};
    pub use bgpsim_metrics::prelude::*;
    pub use bgpsim_netsim::prelude::*;
    pub use bgpsim_sim::prelude::*;
    pub use bgpsim_topology::{algo, generators, Graph, NodeId};
}
