//! Content fingerprints for sweep cells and simulation jobs: the whole
//! cell-key derivation and its one version, [`JOURNAL_VERSION`].
//!
//! A cell's fingerprint is FNV-1a chained over three parts:
//! - the workload's key, [`workload_hash`]: the trace fingerprint of its
//!   canonical `.swt` encoding, so a built `trace:AV1` and the file
//!   `tests/corpus/av1.swt` recorded from it are one identity;
//! - the cell label;
//! - both configurations, walked field by field straight into the hash
//!   (no buffer): every [`SmConfig`] then every [`SiConfig`] field in
//!   declaration order, integers as LEB128 varints, bools as one byte
//!   (0/1), nested structs as their fields in declaration order, and enums
//!   as one explicit tag byte per variant followed by the variant's fields
//!   ([`MemBackendConfig::Faulty`] its fault rates, then its inner
//!   backend).
//!
//! The walk reads every struct by exhaustive destructuring, so a new config
//! field fails to compile here until it is hashed (or named as a run knob).
//! The three run knobs of [`SmConfig`] that cannot change a result —
//! `invariants`, `fast_forward` and `profile_phases` — are skipped by name:
//! checking more invariants, stepping cycle by cycle or timing phases reuses
//! the stored result. Renaming a config field moves no key.
//!
//! Any change to the workload, a simulated configuration field, or the
//! naming produces a new fingerprint, so journals and memo stores can never
//! resurrect stale results. The label stays in the key so a journal line
//! always names the cell that produced it. The golden fingerprints pinned
//! in the tests (`tests/trace_corpus.rs`) make any drift a reviewed change.

use subwarp_core::{
    fnv1a, fnv1a_byte, CacheConfig, DivergeOrder, DramConfig, HierarchyConfig, MemBackendConfig,
    MemFaultConfig, RtCoreModel, SchedulerPolicy, SelectPolicy, SiConfig, SmConfig, Workload,
};
use subwarp_trace::{encode_workload, trace_fingerprint};

/// The `"v"` of every journal line this build writes, and the only one
/// [`Journal::open`](crate::Journal::open) loads: the one version of the
/// key derivation in this module. Bumped whenever [`cell_fingerprint`]
/// changes what it hashes — a config byte's meaning (a new or reordered
/// field, a retagged variant), the trace
/// [`FORMAT_VERSION`](subwarp_trace::FORMAT_VERSION) folded into every
/// workload key, or how the parts are chained — since a line of another
/// version carries a key no current key can equal. Version 2 keys configs
/// by their field walk; version 1 keyed them by `Debug` text.
pub const JOURNAL_VERSION: u64 = 2;

// A trace format bump moves every workload key, so it cannot land without
// a look at `JOURNAL_VERSION`: bump both, then this pin.
const _: () = assert!(subwarp_trace::FORMAT_VERSION == 1);

/// Content fingerprint of one sweep cell (see the module docs).
pub fn cell_fingerprint(label: &str, workload_hash: u64, sm: &SmConfig, si: &SiConfig) -> u64 {
    let mut key = Key::new(fnv1a(workload_hash, label.as_bytes()));
    key.sm(sm);
    key.si(si);
    key.0
}

/// A workload's key: [`trace_fingerprint`] over [`encode_workload`], the
/// value `file:` keys of canonical trace files carry too. Precomputed once
/// per sweep row (or once per cached service workload).
pub fn workload_hash(wl: &Workload) -> u64 {
    trace_fingerprint(&encode_workload(wl))
}

/// The running FNV-1a hash the config fields are walked into.
struct Key(u64);

impl Key {
    /// Starts from `seed` as [`fnv1a`] would (`0` selects the offset
    /// basis), so the walk hashes as one `fnv1a(seed, bytes)` call over its
    /// byte stream.
    fn new(seed: u64) -> Key {
        Key(fnv1a(seed, &[]))
    }

    fn u8(&mut self, b: u8) {
        self.0 = fnv1a_byte(self.0, b);
    }

    fn bool(&mut self, b: bool) {
        self.u8(u8::from(b));
    }

    /// An unsigned LEB128 varint: seven bits per byte, low bits first, the
    /// high bit set on every byte but the last.
    fn leb128(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    fn sm(&mut self, sm: &SmConfig) {
        let SmConfig {
            n_sms,
            shared_partitions,
            n_pbs,
            warp_slots_per_pb,
            miss_latency,
            lsu_hit_latency,
            tex_hit_latency,
            lds_latency,
            alu_latency,
            mufu_latency,
            ifetch_l1_latency,
            ifetch_miss_latency,
            l0i,
            l1i,
            l1d,
            rt,
            baseline_select_latency,
            scheduler,
            diverge_order,
            max_cycles,
            invariants: _,
            fast_forward: _,
            mem_backend,
            profile_phases: _,
        } = sm;
        self.leb128(*n_sms as u64);
        self.bool(*shared_partitions);
        self.leb128(*n_pbs as u64);
        self.leb128(*warp_slots_per_pb as u64);
        for v in [
            miss_latency,
            lsu_hit_latency,
            tex_hit_latency,
            lds_latency,
            alu_latency,
            mufu_latency,
            ifetch_l1_latency,
            ifetch_miss_latency,
        ] {
            self.leb128(*v);
        }
        for c in [l0i, l1i, l1d] {
            self.cache(c);
        }
        let RtCoreModel {
            base_cycles,
            cycles_per_node,
        } = rt;
        self.leb128(*base_cycles);
        self.leb128(*cycles_per_node);
        self.leb128(*baseline_select_latency);
        self.u8(match scheduler {
            SchedulerPolicy::Gto => 0,
            SchedulerPolicy::Lrr => 1,
        });
        self.u8(match diverge_order {
            DivergeOrder::FallthroughFirst => 0,
            DivergeOrder::TakenFirst => 1,
            DivergeOrder::Random => 2,
            DivergeOrder::Hinted => 3,
        });
        self.leb128(*max_cycles);
        self.backend(mem_backend);
    }

    fn si(&mut self, si: &SiConfig) {
        let SiConfig {
            enabled,
            policy,
            yield_enabled,
            yield_threshold,
            max_subwarps,
            switch_latency,
            slot_limited,
        } = si;
        self.bool(*enabled);
        self.u8(match policy {
            SelectPolicy::AnyStalled => 0,
            SelectPolicy::HalfStalled => 1,
            SelectPolicy::AllStalled => 2,
        });
        self.bool(*yield_enabled);
        self.leb128(u64::from(*yield_threshold));
        self.leb128(*max_subwarps as u64);
        self.leb128(*switch_latency);
        self.bool(*slot_limited);
    }

    fn cache(&mut self, c: &CacheConfig) {
        let CacheConfig {
            size_bytes,
            line_bytes,
            ways,
        } = c;
        self.leb128(*size_bytes);
        self.leb128(*line_bytes);
        self.leb128(*ways as u64);
    }

    fn backend(&mut self, b: &MemBackendConfig) {
        match b {
            MemBackendConfig::Fixed => self.u8(0),
            MemBackendConfig::Hierarchical(h) => {
                self.u8(1);
                let HierarchyConfig {
                    l2,
                    l2_banks,
                    l2_hit_latency,
                    l2_bank_occupancy,
                    mshrs,
                    dram,
                } = h;
                self.cache(l2);
                self.leb128(*l2_banks as u64);
                self.leb128(*l2_hit_latency);
                self.leb128(*l2_bank_occupancy);
                self.leb128(*mshrs as u64);
                let DramConfig {
                    channels,
                    row_bytes,
                    row_hit_latency,
                    row_miss_latency,
                    burst_cycles,
                } = dram;
                self.leb128(*channels as u64);
                self.leb128(*row_bytes);
                self.leb128(*row_hit_latency);
                self.leb128(*row_miss_latency);
                self.leb128(*burst_cycles);
            }
            MemBackendConfig::Faulty { fault, inner } => {
                self.u8(2);
                let MemFaultConfig {
                    seed,
                    drop_per_mille,
                    delay_per_mille,
                    delay_cycles,
                } = fault;
                self.leb128(*seed);
                self.leb128(u64::from(*drop_per_mille));
                self.leb128(u64::from(*delay_per_mille));
                self.leb128(*delay_cycles);
                self.backend(inner);
            }
        }
    }
}
