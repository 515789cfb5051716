#![warn(missing_docs)]

//! # perfpred-serve
//!
//! An online prediction-serving daemon for the perfpred workspace: the
//! paper's §8.5 timing argument — historical predictions answer in
//! microseconds while layered queuing solves cost much more, so a resource
//! manager must consume predictions *online* — turned into a long-running
//! service instead of a batch sweep.
//!
//! The daemon is a std-only TCP server speaking the subset of HTTP/1.1
//! implemented once, for the whole workspace, in [`perfpred_core::http`]
//! (re-exported here as [`http`]).
//! It hosts the layered queuing, hybrid and (when calibrated) historical
//! predictors behind [`perfpred_core::PredictionCache`] and answers:
//!
//! * `POST /predict` — server architecture + workload → response
//!   time/throughput prediction, with SLA-threshold admission control;
//! * `POST /observe` — ingest measured operating points (single or
//!   batched) into the [`perfpred_store`] observation log; every full
//!   refit window (or on detected drift) the historical model is refitted
//!   and hot-swapped without dropping in-flight work;
//! * `GET /models` — the versioned model registry: current version, and
//!   triggers and observation counts of the last 256 versions;
//! * `POST /plan` — SLA workload set + pool → resource-manager allocation
//!   (via [`perfpred_resman::planner::plan`]);
//! * `GET /metrics` — Prometheus-style text exposition of the
//!   [`perfpred_core::metrics`] registry, including per-endpoint latency
//!   histograms and the serving `serve_model_version`;
//! * `GET /healthz` — liveness;
//! * `POST /shutdown` — graceful drain (SIGTERM/ctrl-c do the same),
//!   fsyncing the observation log tail last.
//!
//! ## Serving stack
//!
//! ```text
//!   listener ── accept (over the connection cap ⇒ 503)
//!      │
//!   ┌──┴──────────┬─────────────┐
//! shard 0       shard 1       shard N    epoll loops (`reactor`), each
//!   │             │             │        connection a `conn::Conn`:
//!   │  core::http::parse_head over the pooled read buffer
//!   │  inline fast path: GET endpoints, cache-hit /predict
//!   │             │             │
//!   └── offload ──┴── offload ──┘        /observe, /plan, solver-bound
//!             │                          /predict
//!      dispatcher pool ── App::handle_at
//!             │
//!       solver pool (micro-batching, per-worker AmvaWorkspace warm
//!       starts, results memoized into the shared cache)
//! ```
//!
//! That is the daemon's one serving core. It needs epoll, so the
//! `perfpred-serve` binary runs on Linux only; on other targets it
//! prints why and exits 2. The rest of the library still builds there.
//!
//! Admission control mirrors [`perfpred_resman::runtime`]: a predict
//! request whose predicted response time lands within
//! `RuntimeOptions::threshold` of its SLA goal is rejected with 503 —
//! §9's "application servers reject clients at runtime if response times
//! are within a threshold of missing SLA goals", exercised per request.

pub mod admission;
pub mod arrivals;
pub mod batch;
pub mod config;
pub mod conn;
pub mod models;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod router;
pub mod shutdown;

pub use perfpred_core::http;

pub use admission::{AdmissionController, Verdict};
pub use arrivals::{ArrivalMeter, ArrivalRates};
pub use config::{ModelSpec, ServeConfig};
pub use models::{Method, ModelHost};
#[cfg(target_os = "linux")]
pub use reactor::ReactorServer;
pub use shutdown::Shutdown;
