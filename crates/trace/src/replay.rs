//! Frozen-replay digests.
//!
//! A digest is a small, stable, line-oriented summary of *running* a trace:
//! the trace fingerprint, the workload's shape, and — for a fixed pair of
//! reference configurations — the cycle count, instruction count, and
//! hashes of the final memory image and the full [`RunStats`]. The stats
//! hash runs over the exact integer codec (`stats_to_units`) the journal,
//! the wire and the benchmark goldens share, so it pins counter values,
//! not field names or layout. The frozen
//! corpus under `tests/corpus/` stores one `.expect` digest next to each
//! `.swt` trace; CI replays the trace and diffs the digest byte-for-byte,
//! so any drift in either the format or the simulator's architectural
//! behaviour is caught, not silently absorbed.

use crate::error::TraceError;
use crate::format::{decode_workload, trace_fingerprint, FORMAT_VERSION};
use subwarp_core::{
    fnv1a, stats_to_units, MemoryImage, RunStats, SiConfig, SimError, Simulator, SmConfig, Workload,
};

/// Hash of a final memory image: FNV-1a over the sorted `(addr, value)`
/// pairs, little-endian.
pub fn image_hash(image: &MemoryImage) -> u64 {
    let mut h = 0;
    for (addr, value) in image.iter() {
        h = fnv1a(h, &addr.to_le_bytes());
        h = fnv1a(h, &value.to_le_bytes());
    }
    if h == 0 {
        fnv1a(0, b"")
    } else {
        h
    }
}

/// Hash of the run statistics: FNV-1a over the field count and then every
/// integer of [`stats_to_units`], little-endian — the formula of the
/// benchmark's golden per-cell digests. Any architecturally visible
/// counter drifting changes this value; host wall time does not.
pub fn stats_hash(stats: &RunStats) -> u64 {
    let (u, ch) = stats_to_units(stats);
    let mut h = fnv1a(0, &(u.len() as u64).to_le_bytes());
    for x in u.iter().chain(&ch) {
        h = fnv1a(h, &x.to_le_bytes());
    }
    h
}

/// The reference configurations a digest runs: the Turing-like baseline
/// with subwarp interleaving disabled, and the paper's best interleaving
/// configuration on the same SM.
pub fn digest_configs() -> Vec<(&'static str, SmConfig, SiConfig)> {
    vec![
        ("baseline", SmConfig::turing_like(), SiConfig::disabled()),
        ("si-best", SmConfig::turing_like(), SiConfig::best()),
    ]
}

/// Computes the digest of an already-decoded workload, keyed by the
/// encoded bytes' fingerprint.
pub fn workload_digest(bytes: &[u8], wl: &Workload) -> Result<String, SimError> {
    let mut out = String::new();
    out.push_str(&format!(
        "trace v{FORMAT_VERSION} {:#018x}\n",
        trace_fingerprint(bytes)
    ));
    out.push_str(&format!(
        "workload {} warps={} tpw={} seed={}\n",
        wl.name, wl.n_warps, wl.threads_per_warp, wl.data_seed
    ));
    for (label, sm, si) in digest_configs() {
        let (stats, image) = Simulator::new(sm, si).run_with_memory(wl)?;
        out.push_str(&format!(
            "config {label}: cycles={} insts={} image={:#018x} stats={:#018x}\n",
            stats.cycles,
            stats.instructions,
            image_hash(&image),
            stats_hash(&stats)
        ));
    }
    Ok(out)
}

/// Decodes a binary trace and computes its replay digest.
///
/// Decode failures surface as the typed [`TraceError`] (converted to
/// [`SimError::InvalidWorkload`]); simulation failures surface as the
/// simulator's own errors.
pub fn replay_digest(bytes: &[u8]) -> Result<String, SimError> {
    let wl = decode_workload(bytes).map_err(TraceError::into_sim_error)?;
    workload_digest(bytes, &wl)
}

impl TraceError {
    /// Explicit conversion helper (`From` is also implemented) for call
    /// sites that want the mapping to read at a glance.
    pub fn into_sim_error(self) -> SimError {
        self.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::encode_workload;
    use subwarp_isa::{Op, Operand, ProgramBuilder, Reg};

    fn tiny() -> Workload {
        let mut b = ProgramBuilder::new();
        b.raw(subwarp_isa::Instruction::new(Op::Mov {
            dst: Reg(2),
            src: Operand::Imm(41),
        }));
        b.raw(subwarp_isa::Instruction::new(Op::IAdd {
            dst: Reg(3),
            a: Reg(2),
            b: Operand::Imm(1),
        }));
        b.raw(subwarp_isa::Instruction::new(Op::Exit));
        Workload::new("digest-tiny", b.build().unwrap(), 2)
    }

    #[test]
    fn digest_is_deterministic_and_keyed_by_fingerprint() {
        let wl = tiny();
        let bytes = encode_workload(&wl);
        let a = replay_digest(&bytes).unwrap();
        let b = replay_digest(&bytes).unwrap();
        assert_eq!(a, b);
        assert!(a.contains(&format!("{:#018x}", trace_fingerprint(&bytes))));
        assert!(a.contains("workload digest-tiny warps=2 tpw=32 seed=0"));
        assert_eq!(a.lines().count(), 2 + digest_configs().len());
    }

    #[test]
    fn empty_image_hashes_to_the_fnv_basis() {
        assert_eq!(image_hash(&MemoryImage::default()), fnv1a(0, b""));
    }
}
