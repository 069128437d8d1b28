#![warn(missing_docs)]

//! # subwarp-trace — serialized, versioned, replayable workloads
//!
//! Every input the simulator can run is a [`Workload`](subwarp_core::Workload):
//! a validated program plus launch geometry, register initialization, const
//! memory, an RT-result trace, and a data seed. This crate gives that value
//! a durable on-disk identity with two frontends:
//!
//! 1. **The binary trace format** ([`encode_workload`] / [`decode_workload`]):
//!    a self-describing container — magic, format version, section table,
//!    whole-file checksum — that round-trips any workload *byte-identically*:
//!    decoding an encoded trace yields a workload equal in every field, and
//!    re-encoding it reproduces the exact bytes. [`trace_fingerprint`] keys
//!    memoization (sweep journals, the job daemon) on trace content; the
//!    configurations a cell runs under are keyed beside it by
//!    `subwarp_sweep::cell_fingerprint`.
//!
//! 2. **The Accel-Sim-subset text importer** ([`import_text`]): a documented
//!    subset of the Accel-Sim kernel-trace shape — kernel header, per-warp
//!    instruction streams with opcodes, register operands, and per-lane
//!    memory addresses — parsed either strictly (anything outside the subset
//!    is a typed error) or lossily (dropped constructs are reported in an
//!    [`ImportReport`]).
//!
//! Loading is *total*: no input — truncated, bit-flipped, adversarial —
//! panics the loader. Every failure is a [`TraceError`] carrying the byte
//! offset (binary) or source line (text) of the problem.
//!
//! [`replay_digest`] supports the frozen corpus under `tests/corpus/`:
//! a stable textual summary of replaying a trace under reference
//! configurations, diffed byte-for-byte in CI.
//!
//! ## Format evolution policy
//!
//! - **Additive changes** (new section kinds) keep [`FORMAT_VERSION`]:
//!   decoders skip unknown section tags, so old readers still load new
//!   files minus the new sections' meaning.
//! - **Breaking changes** (reshaping an existing section) bump
//!   [`FORMAT_VERSION`]; older readers reject newer files with
//!   [`TraceError::UnsupportedVersion`] instead of misreading them.
//! - [`trace_fingerprint`] folds the version in, so the same workload
//!   serialized under different format versions never collides in a
//!   memo journal.

mod error;
mod format;
mod import;
mod replay;
mod wire;

pub use error::TraceError;
pub use format::{decode_workload, encode_workload, trace_fingerprint, FORMAT_VERSION, MAGIC};
pub use import::{import_text, ImportMode, ImportReport, Imported};
pub use replay::{digest_configs, image_hash, replay_digest, stats_hash, workload_digest};
