//! `bgpsim-serve`: a long-running experiment service over the batch
//! runner.
//!
//! The daemon exposes the experiment pipeline as a small HTTP/1.1 API
//! (hand-rolled on `std::net` — the workspace vendors no async stack):
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | submit a [`JobSpec`](bgpsim_experiments::jobspec::JobSpec) (JSON) |
//! | `GET /v1/jobs/{id}` | job status |
//! | `GET /v1/jobs/{id}/results` | stream results as chunked JSONL |
//! | `DELETE /v1/jobs/{id}` | cancel |
//! | `GET /v1/healthz` | liveness |
//! | `GET /v1/stats` | cache hit-rate, queue depth, worker crash counters |
//! | `POST /v1/drain` | stop admission, finish in-flight work |
//!
//! Every submission routes through one process-wide
//! [`Runner`](bgpsim_runner::Runner) and therefore one shared run cache:
//! concurrent clients submitting overlapping specs warm each other.
//! Admission (a bounded run queue and drain) sits in front; watchdog
//! budgets and cooperative cancellation bound what was admitted.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod jobs;
pub mod server;

pub use jobs::{JobEntry, JobRegistry, JobSnapshot, JobStatus};
pub use server::{ServeConfig, Server};
