#![warn(missing_docs)]

//! # subwarp-mem — memory-side timing models
//!
//! The paper's simulator is *bare metal*: it models SM-local caches
//! faithfully but stubs everything beyond the SM with a fixed-latency memory
//! model (§IV-A: "we do not model a complete GPU memory system, choosing
//! instead to model memory with a simple fixed-latency stub model"). This
//! crate provides exactly those pieces:
//!
//! - [`Cache`] — a set-associative, LRU, allocate-on-miss cache used for the
//!   L0 instruction cache (per processing block), the L1 instruction cache
//!   (per SM), and the L1 data cache.
//! - [`ServiceUnit`] — a completion queue that models a pipelined unit with
//!   per-request latency; the LSU and TEX writeback paths in `subwarp-core`
//!   are built from it.
//! - [`DataMemory`] — functional data values (deterministic hash of the
//!   address, with a store overlay) so workloads compute real results.
//!
//! ```
//! use subwarp_mem::{Cache, CacheConfig, AccessKind};
//!
//! let mut l1d = Cache::new(CacheConfig::l1_data());
//! let a = l1d.access(0x1000);          // compulsory miss
//! assert_eq!(a, AccessKind::Miss);
//! assert_eq!(l1d.access(0x1010), AccessKind::Hit); // same 128B line
//! ```

mod backend;
mod cache;
mod data;
mod service;

pub use backend::{
    ChipBackends, DramConfig, FaultyBackend, FixedLatencyBackend, HierarchicalBackend,
    HierarchyConfig, MemBackendConfig, MemBackendStats, MemCounters, MemFaultConfig, MemoryBackend,
    Partition,
};
pub use cache::{AccessKind, Cache, CacheConfig, CacheStats};
pub use data::DataMemory;
pub use service::{Completion, ServiceUnit};
