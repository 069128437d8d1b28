//! The canonical byte encoding of a simulated configuration: what sweep
//! journals and the service memo store key a cell's configs on, as the
//! `.swt` format is for its workload.

use crate::wire::Writer;
use subwarp_core::{
    CacheConfig, DivergeOrder, DramConfig, HierarchyConfig, MemBackendConfig, MemFaultConfig,
    RtCoreModel, SchedulerPolicy, SelectPolicy, SiConfig, SmConfig,
};

/// Encodes an SM and an SI configuration into their canonical bytes.
///
/// ```text
/// SmConfig   its fields in declaration order
/// SiConfig   its fields in declaration order
/// ```
///
/// Integers are LEB128 varints, bools one byte (0/1), nested structs their
/// fields in declaration order, and enums one explicit tag byte per variant
/// followed by the variant's fields; [`MemBackendConfig::Faulty`] writes its
/// fault rates and then its inner backend. Equal configs give equal bytes,
/// and the bytes are only ever hashed, never decoded.
///
/// Every struct is read by exhaustive destructuring, so a new config field
/// fails to compile here until it is encoded (or named as a run knob). The
/// three run knobs of [`SmConfig`] that cannot change a result —
/// `invariants`, `fast_forward` and `profile_phases` — are skipped by name:
/// checking more invariants, stepping cycle by cycle or timing phases keys
/// the same cell.
///
/// The bytes carry no version of their own. Whatever consumes them as a key
/// versions the key derivation as a whole: changing what a byte means (a
/// new or reordered field, a retagged variant) bumps the sweep journal's
/// `JOURNAL_VERSION`, the one number journals and memo stores load lines
/// by. The byte pin in this module's tests fails on any such change.
pub fn encode_configs(sm: &SmConfig, si: &SiConfig) -> Vec<u8> {
    let mut w = Writer::new();
    encode_sm(&mut w, sm);
    encode_si(&mut w, si);
    w.into_bytes()
}

fn encode_sm(w: &mut Writer, sm: &SmConfig) {
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
    w.varint(*n_sms as u64);
    bool(w, *shared_partitions);
    w.varint(*n_pbs as u64);
    w.varint(*warp_slots_per_pb as u64);
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
        w.varint(*v);
    }
    for c in [l0i, l1i, l1d] {
        encode_cache(w, c);
    }
    let RtCoreModel {
        base_cycles,
        cycles_per_node,
    } = rt;
    w.varint(*base_cycles);
    w.varint(*cycles_per_node);
    w.varint(*baseline_select_latency);
    w.u8(scheduler_tag(*scheduler));
    w.u8(order_tag(*diverge_order));
    w.varint(*max_cycles);
    encode_backend(w, mem_backend);
}

fn encode_si(w: &mut Writer, si: &SiConfig) {
    let SiConfig {
        enabled,
        policy,
        yield_enabled,
        yield_threshold,
        max_subwarps,
        switch_latency,
        slot_limited,
    } = si;
    bool(w, *enabled);
    w.u8(policy_tag(*policy));
    bool(w, *yield_enabled);
    w.varint(u64::from(*yield_threshold));
    w.varint(*max_subwarps as u64);
    w.varint(*switch_latency);
    bool(w, *slot_limited);
}

fn encode_cache(w: &mut Writer, c: &CacheConfig) {
    let CacheConfig {
        size_bytes,
        line_bytes,
        ways,
    } = c;
    w.varint(*size_bytes);
    w.varint(*line_bytes);
    w.varint(*ways as u64);
}

fn encode_backend(w: &mut Writer, b: &MemBackendConfig) {
    match b {
        MemBackendConfig::Fixed => w.u8(0),
        MemBackendConfig::Hierarchical(h) => {
            w.u8(1);
            let HierarchyConfig {
                l2,
                l2_banks,
                l2_hit_latency,
                l2_bank_occupancy,
                mshrs,
                dram,
            } = h;
            encode_cache(w, l2);
            w.varint(*l2_banks as u64);
            w.varint(*l2_hit_latency);
            w.varint(*l2_bank_occupancy);
            w.varint(*mshrs as u64);
            let DramConfig {
                channels,
                row_bytes,
                row_hit_latency,
                row_miss_latency,
                burst_cycles,
            } = dram;
            w.varint(*channels as u64);
            w.varint(*row_bytes);
            w.varint(*row_hit_latency);
            w.varint(*row_miss_latency);
            w.varint(*burst_cycles);
        }
        MemBackendConfig::Faulty { fault, inner } => {
            w.u8(2);
            let MemFaultConfig {
                seed,
                drop_per_mille,
                delay_per_mille,
                delay_cycles,
            } = fault;
            w.varint(*seed);
            w.varint(u64::from(*drop_per_mille));
            w.varint(u64::from(*delay_per_mille));
            w.varint(*delay_cycles);
            encode_backend(w, inner);
        }
    }
}

fn bool(w: &mut Writer, b: bool) {
    w.u8(u8::from(b));
}

fn scheduler_tag(s: SchedulerPolicy) -> u8 {
    match s {
        SchedulerPolicy::Gto => 0,
        SchedulerPolicy::Lrr => 1,
    }
}

fn order_tag(o: DivergeOrder) -> u8 {
    match o {
        DivergeOrder::FallthroughFirst => 0,
        DivergeOrder::TakenFirst => 1,
        DivergeOrder::Random => 2,
        DivergeOrder::Hinted => 3,
    }
}

fn policy_tag(p: SelectPolicy) -> u8 {
    match p {
        SelectPolicy::AnyStalled => 0,
        SelectPolicy::HalfStalled => 1,
        SelectPolicy::AllStalled => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subwarp_core::InvariantLevel;

    #[test]
    fn turing_like_best_is_pinned_byte_for_byte() {
        #[rustfmt::skip]
        // A change to these bytes changes every cell key: bump the sweep
        // journal's JOURNAL_VERSION with it.
        let want: &[u8] = &[
            // SmConfig
            1, 1, 4, 8,                         // n_sms, shared_partitions, n_pbs, slots
            0xd8, 0x04, 30, 50, 25, 4, 16, 20,  // miss 600, lsu, tex, lds, alu, mufu, if-L1
            0xc8, 0x01,                         // ifetch_miss 200
            0x80, 0x80, 0x01, 0x80, 0x01, 8,    // l0i: 16 KB, 128 B, 8-way
            0x80, 0x80, 0x04, 0x80, 0x01, 8,    // l1i: 64 KB, 128 B, 8-way
            0x80, 0x80, 0x08, 0x80, 0x01, 8,    // l1d: 128 KB, 128 B, 8-way
            0xc8, 0x01, 20,                     // rt: base 200, 20 per node
            1, 0, 0,                            // select latency, Gto, FallthroughFirst
            0x80, 0x84, 0xaf, 0x5f,             // max_cycles 200_000_000
            0,                                  // Fixed
            // SiConfig
            1, 1, 1, 1, 32, 6, 0,               // Both, N>=0.5, threshold 1, 32 TST, 6 cy
        ];
        let got = encode_configs(&SmConfig::turing_like(), &SiConfig::best());
        assert_eq!(got, want);
    }

    #[test]
    fn run_knobs_do_not_reach_the_bytes() {
        let si = SiConfig::best();
        let base = encode_configs(&SmConfig::turing_like(), &si);
        let knobs = SmConfig::turing_like()
            .with_invariants(InvariantLevel::Full)
            .with_fast_forward(false)
            .with_profile_phases(true);
        assert_eq!(encode_configs(&knobs, &si), base);
    }
}
