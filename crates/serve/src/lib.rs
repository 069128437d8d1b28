//! Simulation-as-a-service: a crash-safe job daemon over the subwarp
//! simulator.
//!
//! | Module | What it owns |
//! |---|---|
//! | [`spec`] | the job vocabulary: request or command line → validated [`spec::JobSpec`] + content fingerprint |
//! | [`server`] | admission control, coalescing, supervised dispatch, drain |
//! | [`wire`] | NDJSON request/reply protocol over any byte stream |
//! | [`listen`] | the shared accept loop, connection registry, SIGTERM flag |
//! | [`client`] | blocking client used by `loadgen`, the router, and tests |
//! | [`cluster`] | fingerprint-sharded routing, health checks, failover |
//! | [`chaos`] | deterministic network fault injection for tests |
//! | [`traffic`] | loadgen record/replay of request streams |
//!
//! The binaries: `subwarp-serve` (the daemon: TCP listener, SIGTERM drain,
//! persistent store, journal compaction), `subwarp-router` (the cluster
//! front door: shards by fingerprint, health-checks, retries, fails over,
//! sheds when a range has no live owner), and `loadgen` (burst client
//! reporting p50/p99 latency, cache hit rate, and shed counts, with
//! record/replay of request streams).
//!
//! ## Guarantees
//!
//! - **Crash-safe**: every completed job is journaled (flushed) before the
//!   client hears about it; `kill -9` loses at most in-flight jobs, and a
//!   restarted daemon re-serves completed fingerprints byte-identically.
//! - **Isolated**: simulations run under `subwarp_pool::run_supervised` —
//!   a panicking, erroring, or hung job becomes a labeled failure reply,
//!   never a dead daemon.
//! - **Bounded**: a full queue or an over-quota client is shed with a
//!   `retry_after_ms` hint instead of growing memory without limit.
//! - **Graceful**: SIGTERM (or `{"cmd":"shutdown"}`) stops admission,
//!   finishes and journals accepted work, then exits 0.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod cluster;
pub mod listen;
pub mod server;
pub mod spec;
pub mod traffic;
pub mod wire;

/// Re-exported for the `benchmark/` workspace, which imports
/// `subwarp_serve::json::{parse, Value}`; the codec lives in
/// [`subwarp_sweep::json`].
pub use subwarp_sweep::json;

pub use chaos::{ChaosPlan, ChaosProxy, ConnFate};
pub use client::Client;
pub use cluster::{Router, RouterConfig, ShardHealth};
pub use server::{Phase, Server, ServerConfig, Submitted};
pub use spec::JobSpec;
pub use traffic::Recording;
