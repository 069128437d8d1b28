#![warn(missing_docs)]

//! # subwarp-core — a Turing-like SM simulator with Subwarp Interleaving
//!
//! This crate is the primary contribution of the reproduction: a cycle-level
//! model of an NVIDIA Turing-like streaming multiprocessor (paper Table I)
//! extended with the **Subwarp Interleaving** scheduler of *GPU Subwarp
//! Interleaving* (HPCA 2022).
//!
//! ## The mechanism
//!
//! A *subwarp* is a maximal group of a warp's threads at the same PC. The
//! baseline SM serializes divergent subwarps: one runs to the compiler-placed
//! convergence point (`BSYNC`) before the next starts, so load-to-use stalls
//! on divergent paths cannot overlap. Subwarp Interleaving adds a `STALLED`
//! thread state and three transitions (paper Figure 7):
//!
//! - **subwarp-stall** — demote the active subwarp when it suffers a
//!   load-to-use stall, recording the blocking scoreboards in a per-warp
//!   *thread status table* ([`warp::TstEntry`]).
//! - **subwarp-wakeup** — writeback broadcasts clear the watched scoreboards
//!   and return the subwarp to `READY`.
//! - **subwarp-select** — a trigger policy over the fraction of stalled
//!   warps ([`SelectPolicy`]) promotes a `READY` subwarp to `ACTIVE`, paying
//!   a 6-cycle switch latency.
//!
//! The optional **subwarp-yield** transition eagerly relinquishes the slot
//! after issuing long-latency operations, maximizing memory-level
//! parallelism (the "Both" configurations of the paper's Figure 12a).
//!
//! ## Shape of the API
//!
//! Build a [`Workload`] (usually via `subwarp-workloads`), configure a
//! [`Simulator`] with an [`SmConfig`] and an [`SiConfig`], and [`Simulator::run`]
//! it to obtain [`RunStats`] — including the paper's headline *exposed
//! load-to-use stall* counters.
//!
//! ## Error model
//!
//! [`Simulator::run`] returns `Result<RunStats, SimError>`: inputs are
//! validated before the first cycle ([`SimError::InvalidConfig`],
//! [`SimError::InvalidWorkload`]), and mid-run failures — deadlock, the
//! cycle cap, or a violated warp-state invariant — carry a
//! [`StateSnapshot`] of the machine at the failing cycle. Per-cycle
//! invariant checking is always on at [`InvariantLevel::Cheap`] and can be
//! raised to `Full` or disabled via [`SmConfig::with_invariants`].
//!
//! ## Observability
//!
//! Every simulated cycle is attributed to exactly one [`CycleCause`]
//! (issued, load/traversal/fetch stall, switch penalty, short dependency,
//! barrier, idle), with conservation — per-cause counts summing to the
//! cycle count — enforced at the end of every run. Attach a [`Profiler`]
//! via [`Simulator::run_profiled`] to stream cycle attribution, thread
//! status transitions, and occupancy/cache counters;
//! [`ChromeTraceProfiler`] renders them as Perfetto-loadable Chrome
//! trace-event JSON.

mod config;
mod error;
mod fault;
mod hash;
mod image;
mod profile;
mod sm;
mod stats;
mod trace;
pub mod warp;
mod workload;

pub use config::{DivergeOrder, SchedulerPolicy, SelectPolicy, SiConfig, SmConfig, WARP_SIZE};
pub use error::{mask_lanes, InvariantLevel, SimError, StateSnapshot, WarpSnapshot};
pub use fault::{FaultKind, FaultPlan};
pub use hash::fnv1a;
pub use image::MemoryImage;
pub use profile::{ChromeTraceProfiler, CounterSample, Profiler};
pub use sm::{Simulator, DEADLOCK_WINDOW, ICACHE_LINE};
pub use stats::{stats_to_units, units_to_stats, CycleCause, RunStats, N_PHASES, PHASE_NAMES};
pub use trace::{EventKind, EventRecorder, TraceEvent};
pub use workload::{InitValue, RayResult, RegInit, RtTrace, Workload};

// Memory-backend configuration and counters, re-exported so downstream
// crates can select a backend without depending on `subwarp-mem` directly.
pub use subwarp_mem::{
    DramConfig, HierarchyConfig, MemBackendConfig, MemBackendStats, MemCounters, MemFaultConfig,
};
