//! Content fingerprints for sweep cells and simulation jobs.
//!
//! A cell's fingerprint is FNV-1a chained over three parts:
//! - the workload's key, [`workload_hash`]: the trace fingerprint of its
//!   canonical `.swt` encoding, so a built `trace:AV1` and the file
//!   `tests/corpus/av1.swt` recorded from it are one identity;
//! - the cell label;
//! - both configurations' canonical bytes, [`encode_configs`]: a codec
//!   that skips the run knobs that cannot change a result (`invariants`,
//!   `fast_forward`, `profile_phases`) by name.
//!
//! The derivation's one version is
//! [`JOURNAL_VERSION`](crate::journal::JOURNAL_VERSION): any change to what
//! is hashed here bumps it, and journals load only lines of that version.
//!
//! Any change to the workload, a simulated configuration field, or the
//! naming produces a new fingerprint, so journals and memo stores can never
//! resurrect stale results; checking invariants, stepping cycle by cycle or
//! timing phases reuses the stored one. Renaming a config field moves no
//! key, while adding one fails to compile until the codec encodes it. The
//! label stays in the key so a journal line always names the cell that
//! produced it. The golden fingerprints pinned in the tests make any drift
//! a reviewed change.

use subwarp_core::{fnv1a, SiConfig, SmConfig, Workload};
use subwarp_trace::{encode_configs, encode_workload, trace_fingerprint};

/// Content fingerprint of one sweep cell (see the module docs).
pub fn cell_fingerprint(label: &str, workload_hash: u64, sm: &SmConfig, si: &SiConfig) -> u64 {
    let h = fnv1a(workload_hash, label.as_bytes());
    fnv1a(h, &encode_configs(sm, si))
}

/// A workload's key: [`trace_fingerprint`] over [`encode_workload`], the
/// value `file:` keys of canonical trace files carry too. Precomputed once
/// per sweep row (or once per cached service workload).
pub fn workload_hash(wl: &Workload) -> u64 {
    trace_fingerprint(&encode_workload(wl))
}
