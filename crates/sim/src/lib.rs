//! # bgpsim-sim
//!
//! The integration harness of the `bgpsim` study: it assembles
//! `bgpsim-core` routers, `bgpsim-netsim` links/processors and the
//! `bgpsim-dataplane` forwarding history into one deterministic
//! network simulation, with failure injection for the paper's `T_down`
//! and `T_long` events.
//!
//! * [`network::SimNetwork`] — the live simulation object;
//! * [`harness::ConvergenceExperiment`] — the standard two-phase
//!   (warm-up → failure) run used by every experiment;
//! * [`record::RunRecord`] — the raw observations handed to
//!   `bgpsim-metrics`;
//! * [`record::Recorder`] — what a run keeps of each send and route
//!   change beyond the record's summary: everything ([`FullLog`], the
//!   default) or nothing (`()`, the job path).
//!
//! ## Example
//!
//! ```
//! use bgpsim_sim::prelude::*;
//! use bgpsim_core::Prefix;
//! use bgpsim_topology::{generators, NodeId};
//!
//! let g = generators::clique(5);
//! let exp = ConvergenceExperiment::new(
//!     g,
//!     NodeId::new(0),
//!     FailureEvent::WithdrawPrefix { origin: NodeId::new(0), prefix: Prefix::new(0) },
//! ).with_seed(1);
//! let record = exp.run();
//! assert!(record.convergence_time().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::redundant_clone)]

pub mod event;
pub mod failure;
pub mod harness;
pub mod network;
pub mod params;
pub mod record;

pub use failure::{FailureEvent, FailureHalf, HalfAction};
pub use harness::{BudgetExceeded, ConvergenceExperiment, RunBudget};
pub use network::{RunOutcome, SimNetwork};
pub use params::SimParams;
pub use record::{FullLog, Recorder, RunRecord, UpdateSend};

// Fault-plan types, re-exported so harness users don't need a direct
// `bgpsim-faults` dependency.
pub use bgpsim_faults::{FaultError, FaultKind, FaultPlan, FlapProfile, FlapTrain, LinkLoss};

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::failure::FailureEvent;
    pub use crate::harness::{
        BudgetExceeded, ConvergenceExperiment, RunBudget, DEFAULT_EVENT_BUDGET,
    };
    pub use crate::network::{RunOutcome, SimNetwork};
    pub use crate::params::SimParams;
    pub use crate::record::{FullLog, Recorder, RunRecord, UpdateSend};
    pub use bgpsim_faults::{FaultKind, FaultPlan, FlapProfile, FlapTrain};
}
