//! # bgpsim-metrics
//!
//! The measurement layer of the `bgpsim` BGP route-looping study
//! (ICDCS 2004 reproduction). It turns a raw
//! [`bgpsim_sim::RunRecord`] into the paper's four metrics (§4.2) —
//! convergence time, overall looping duration, TTL exhaustion count and
//! looping ratio — plus the per-loop census the paper lists as future
//! work, and serializable result rows for the experiment harness.
//!
//! ## Example
//!
//! ```
//! use bgpsim_metrics::prelude::*;
//! use bgpsim_core::Prefix;
//! use bgpsim_sim::{ConvergenceExperiment, FailureEvent};
//! use bgpsim_topology::{generators, NodeId};
//!
//! let g = generators::clique(5);
//! let dest = NodeId::new(0);
//! let record = ConvergenceExperiment::new(
//!     g,
//!     dest,
//!     FailureEvent::WithdrawPrefix { origin: dest, prefix: Prefix::new(0) },
//! ).with_seed(1).run();
//! let measurement = measure_run(&record, dest, Prefix::new(0), 1);
//! assert!(measurement.metrics.ttl_exhaustions > 0); // transient loops!
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod delivery;
pub mod export;
pub mod loop_stats;
pub mod pipeline;
pub mod report;
pub mod timeline;

pub use churn::ChurnSummary;
pub use delivery::{delivery_timeseries, render_timeseries, DeliveryBucket};
pub use export::{to_csv, to_json, MetricsRow};
pub use loop_stats::{summarize, LoopCensusSummary};
pub use pipeline::{measure_run, RunMeasurement};
pub use report::{compute_metrics, metrics_from_tally, PaperMetrics};
pub use timeline::{build_timeline, render_timeline, TimelineEvent};

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::churn::ChurnSummary;
    pub use crate::delivery::{delivery_timeseries, render_timeseries, DeliveryBucket};
    pub use crate::export::{to_csv, to_json, MetricsRow};
    pub use crate::loop_stats::{summarize, LoopCensusSummary};
    pub use crate::pipeline::{measure_run, RunMeasurement};
    pub use crate::report::{compute_metrics, metrics_from_tally, PaperMetrics};
    pub use crate::timeline::{build_timeline, render_timeline, TimelineEvent};
}
