//! # bgpsim-experiments
//!
//! The experiment harness of the `bgpsim` reproduction of *"A Study of
//! BGP Path Vector Route Looping Behavior"* (ICDCS 2004): declarative
//! scenarios, multi-seed sweeps, terminal charts, and one module per
//! evaluation figure (4–9) that regenerates the paper's series and
//! checks its qualitative claims.
//!
//! Binaries: `fig4` … `fig9` print one figure each; `all_figures` runs
//! the whole evaluation. Pass `quick` (default) or `paper` as the
//! first argument to select the sweep scale.
//!
//! ## Example
//!
//! ```no_run
//! use bgpsim_experiments::figures::{fig5, Scale};
//!
//! let fig = fig5::run(Scale::Quick);
//! println!("{}", fig.render());
//! for claim in fig.claims() {
//!     println!("{}", claim.render());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod artifact;
pub mod binopts;
pub mod canonical;
pub mod chart;
pub mod churn;
pub mod figures;
pub mod jobspec;
pub mod scenario;
pub mod sweep;
pub mod worker;

/// The execution subsystem all sweeps run on: worker pool, run cache,
/// progress and journal (re-exported from `bgpsim-runner`). Configure
/// it with `BGPSIM_JOBS` / `BGPSIM_CACHE_DIR` / `BGPSIM_JOURNAL`.
pub use bgpsim_runner as runner;

pub use canonical::CANONICAL_VERSION;
pub use churn::{ChurnOptions, ChurnPoint, ChurnSweep};
pub use figures::{ClaimCheck, Scale};
pub use jobspec::{ForkSpec, JobSpec, JOBSPEC_VERSION};
pub use scenario::{EventKind, Scenario, ScenarioResult, ScenarioSpec, TopologySpec};
pub use sweep::{aggregate, linear_fit, AggregatedPoint, LinearFit, Series};
