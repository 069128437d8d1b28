//! Content fingerprints for sweep cells and simulation jobs.
//!
//! A cell's fingerprint is FNV-1a chained over three parts:
//! - the workload's key, [`workload_hash`]: the trace fingerprint of its
//!   canonical `.swt` encoding, so a built `trace:AV1` and the file
//!   `tests/corpus/av1.swt` recorded from it are one identity;
//! - the cell label;
//! - the `Debug` forms of both configurations, with the run knobs that
//!   cannot change a result (`invariants`, `fast_forward`,
//!   `profile_phases`) reset to their `turing_like()` values first.
//!
//! Any change to the workload, a simulated configuration field, or the
//! naming produces a new fingerprint, so journals and memo stores can never
//! resurrect stale results; checking invariants, stepping cycle by cycle or
//! timing phases reuses the stored one. The label stays in the key so a
//! journal line always names the cell that produced it. The configurations
//! stay keyed by `Debug` text rather than a versioned encoding; the golden
//! fingerprints pinned in the tests make any drift a reviewed change.

use subwarp_core::{fnv1a, SiConfig, SmConfig, Workload};
use subwarp_trace::{encode_workload, trace_fingerprint};

/// Content fingerprint of one sweep cell (see the module docs).
pub fn cell_fingerprint(label: &str, workload_hash: u64, sm: &SmConfig, si: &SiConfig) -> u64 {
    let d = SmConfig::turing_like();
    let sm = SmConfig {
        invariants: d.invariants,
        fast_forward: d.fast_forward,
        profile_phases: d.profile_phases,
        ..sm.clone()
    };
    let mut h = fnv1a(workload_hash, label.as_bytes());
    h = fnv1a(h, format!("{sm:?}").as_bytes());
    h = fnv1a(h, format!("{si:?}").as_bytes());
    h
}

/// A workload's key: [`trace_fingerprint`] over [`encode_workload`], the
/// value `file:` keys of canonical trace files carry too. Precomputed once
/// per sweep row (or once per cached service workload).
pub fn workload_hash(wl: &Workload) -> u64 {
    trace_fingerprint(&encode_workload(wl))
}
