//! The `subwarp-trace` binary format: a single self-describing file that
//! captures a complete [`Workload`] and replays byte-identically.
//!
//! ## Layout (version 1)
//!
//! ```text
//! offset 0   magic           8 bytes  b"SWTRACE\0"
//! offset 8   version         u32 LE
//! offset 12  section count   u32 LE
//! offset 16  section table   count × { tag u32, offset u64, len u64 }
//! ...        section payloads (contiguous, in table order)
//! end-8      checksum        u64 LE — FNV-1a over every preceding byte
//! ```
//!
//! Five sections, always present, always in this order: `META` (name,
//! launch geometry, data seed, and the embedded content fingerprint),
//! `PROG` (the ISA instruction stream), `INIT` (per-register launch
//! initialization), `CNST` (constant-bank contents), `RTTR` (the pre-traced
//! RT-core results). Unknown tags are skipped, so minor additive evolution
//! does not need a version bump; breaking changes do.
//!
//! ## Versioning policy
//!
//! A reader accepts exactly the versions it was built for and returns
//! [`TraceError::UnsupportedVersion`] for anything else — there is no
//! silent best-effort decoding of future formats. The embedded fingerprint
//! (FNV-1a chained over the format version and the four content sections)
//! is what sweep journals and the service memo store key on, so two files
//! with the same payload but different format versions never alias.

use crate::error::TraceError;
use crate::wire::{Reader, Writer};
use subwarp_core::{fnv1a, InitValue, RayResult, RegInit, RtTrace, Workload};
use subwarp_isa::{
    Barrier, CmpOp, ConstMem, Instruction, MufuFunc, Op, Operand, Pred, ProgramBuilder, Reg,
    SbMask, Scoreboard, StallHint, N_PRED,
};

/// The eight magic bytes every subwarp trace starts with.
pub const MAGIC: [u8; 8] = *b"SWTRACE\0";

/// Current (and only) format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

const TAG_META: u32 = u32::from_le_bytes(*b"META");
const TAG_PROG: u32 = u32::from_le_bytes(*b"PROG");
const TAG_INIT: u32 = u32::from_le_bytes(*b"INIT");
const TAG_CNST: u32 = u32::from_le_bytes(*b"CNST");
const TAG_RTTR: u32 = u32::from_le_bytes(*b"RTTR");

/// Header (16 bytes) plus one 20-byte table entry per section.
const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 20;

// ---------------------------------------------------------------- encoding

/// Serializes a workload into the versioned trace format.
///
/// Encoding is fully deterministic — the same workload always produces the
/// same bytes — which is what lets CI freeze corpus files and diff them.
pub fn encode_workload(wl: &Workload) -> Vec<u8> {
    let prog = encode_prog(wl);
    let init = encode_init(wl);
    let cnst = encode_consts(&wl.consts);
    let rttr = encode_rt(&wl.rt_trace);
    let fingerprint = payload_fingerprint(&prog, &init, &cnst, &rttr);

    let mut meta = Writer::new();
    meta.str(&wl.name);
    meta.u64(wl.n_warps as u64);
    meta.u32(wl.threads_per_warp as u32);
    meta.u64(wl.data_seed);
    meta.u64(fingerprint);
    let meta = meta.into_bytes();

    let sections: [(u32, &[u8]); 5] = [
        (TAG_META, &meta),
        (TAG_PROG, &prog),
        (TAG_INIT, &init),
        (TAG_CNST, &cnst),
        (TAG_RTTR, &rttr),
    ];

    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u32(sections.len() as u32);
    let mut offset = (HEADER_LEN + sections.len() * TABLE_ENTRY_LEN) as u64;
    for (tag, payload) in &sections {
        w.u32(*tag);
        w.u64(offset);
        w.u64(payload.len() as u64);
        offset += payload.len() as u64;
    }
    for (_, payload) in &sections {
        w.bytes(payload);
    }
    let mut bytes = w.into_bytes();
    let checksum = fnv1a(0, &bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// The content identity of an encoded trace: FNV-1a chained over the
/// format version and the full file bytes. Sweep journals and the service
/// memo store key trace-sourced workloads on this, so any change to the
/// payload *or* the format version produces a new fingerprint.
pub fn trace_fingerprint(bytes: &[u8]) -> u64 {
    fnv1a(fnv1a(0, &FORMAT_VERSION.to_le_bytes()), bytes)
}

fn payload_fingerprint(prog: &[u8], init: &[u8], cnst: &[u8], rttr: &[u8]) -> u64 {
    let mut h = fnv1a(0, &FORMAT_VERSION.to_le_bytes());
    h = fnv1a(h, prog);
    h = fnv1a(h, init);
    h = fnv1a(h, cnst);
    h = fnv1a(h, rttr);
    h
}

fn encode_prog(wl: &Workload) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(wl.program.len() as u64);
    for inst in wl.program.iter() {
        encode_inst(&mut w, inst);
    }
    w.into_bytes()
}

fn encode_inst(w: &mut Writer, inst: &Instruction) {
    let mut flags = 0u8;
    if inst.guard.is_some() {
        flags |= 1;
    }
    if matches!(inst.guard, Some((_, true))) {
        flags |= 1 << 1;
    }
    if inst.wr_sb.is_some() {
        flags |= 1 << 2;
    }
    if inst.hint.is_some() {
        flags |= 1 << 3;
    }
    if matches!(inst.hint, Some(StallHint::FallthroughStalls)) {
        flags |= 1 << 4;
    }
    w.u8(flags);
    if let Some((p, _)) = inst.guard {
        w.u8(p.0);
    }
    if let Some(sb) = inst.wr_sb {
        w.u8(sb.0);
    }
    w.u8(inst.req_sb.0);
    encode_op(w, &inst.op);
}

fn encode_operand(w: &mut Writer, o: &Operand) {
    match *o {
        Operand::Reg(r) => {
            w.u8(0);
            w.u8(r.0);
        }
        Operand::Imm(v) => {
            w.u8(1);
            w.i64(v);
        }
        Operand::FImm(v) => {
            w.u8(2);
            w.u32(v.to_bits());
        }
        Operand::CBank { bank, offset } => {
            w.u8(3);
            w.u8(bank);
            w.u16(offset);
        }
    }
}

fn cmp_tag(c: CmpOp) -> u8 {
    match c {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn mufu_tag(f: MufuFunc) -> u8 {
    match f {
        MufuFunc::Rcp => 0,
        MufuFunc::Rsq => 1,
        MufuFunc::Lg2 => 2,
        MufuFunc::Ex2 => 3,
        MufuFunc::Sin => 4,
        MufuFunc::Cos => 5,
    }
}

fn encode_op(w: &mut Writer, op: &Op) {
    match *op {
        Op::Bssy { barrier, target } => {
            w.u8(0);
            w.u8(barrier.0);
            w.u64(target as u64);
        }
        Op::Bsync { barrier } => {
            w.u8(1);
            w.u8(barrier.0);
        }
        Op::Bra { target } => {
            w.u8(2);
            w.u64(target as u64);
        }
        Op::Exit => w.u8(3),
        Op::Yield => w.u8(4),
        Op::Nop => w.u8(5),
        Op::Mov { dst, ref src } => {
            w.u8(6);
            w.u8(dst.0);
            encode_operand(w, src);
        }
        Op::IAdd { dst, a, ref b } => {
            w.u8(7);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
        }
        Op::IMad {
            dst,
            a,
            ref b,
            ref c,
        } => {
            w.u8(8);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
            encode_operand(w, c);
        }
        Op::Shl { dst, a, ref b } => {
            w.u8(9);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
        }
        Op::Shr { dst, a, ref b } => {
            w.u8(10);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
        }
        Op::And { dst, a, ref b } => {
            w.u8(11);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
        }
        Op::Xor { dst, a, ref b } => {
            w.u8(12);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
        }
        Op::FAdd { dst, a, ref b } => {
            w.u8(13);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
        }
        Op::FMul { dst, a, ref b } => {
            w.u8(14);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
        }
        Op::FFma {
            dst,
            a,
            ref b,
            ref c,
        } => {
            w.u8(15);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
            encode_operand(w, c);
        }
        Op::ISetp { dst, a, ref b, cmp } => {
            w.u8(16);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
            w.u8(cmp_tag(cmp));
        }
        Op::FSetp { dst, a, ref b, cmp } => {
            w.u8(17);
            w.u8(dst.0);
            w.u8(a.0);
            encode_operand(w, b);
            w.u8(cmp_tag(cmp));
        }
        Op::Mufu { dst, a, func } => {
            w.u8(18);
            w.u8(dst.0);
            w.u8(a.0);
            w.u8(mufu_tag(func));
        }
        Op::Ldg { dst, addr, offset } => {
            w.u8(19);
            w.u8(dst.0);
            w.u8(addr.0);
            w.i64(offset);
        }
        Op::Stg { src, addr, offset } => {
            w.u8(20);
            w.u8(src.0);
            w.u8(addr.0);
            w.i64(offset);
        }
        Op::Lds { dst, addr, offset } => {
            w.u8(21);
            w.u8(dst.0);
            w.u8(addr.0);
            w.i64(offset);
        }
        Op::Tld { dst, addr, offset } => {
            w.u8(22);
            w.u8(dst.0);
            w.u8(addr.0);
            w.i64(offset);
        }
        Op::Tex { dst, coord } => {
            w.u8(23);
            w.u8(dst.0);
            w.u8(coord.0);
        }
        Op::TraceRay { dst, ray } => {
            w.u8(24);
            w.u8(dst.0);
            w.u8(ray.0);
        }
    }
}

fn encode_init(wl: &Workload) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(wl.init.len() as u64);
    for init in &wl.init {
        w.u8(init.reg.0);
        match &init.value {
            InitValue::GlobalTid => w.u8(0),
            InitValue::LaneId => w.u8(1),
            InitValue::WarpId => w.u8(2),
            InitValue::Const(v) => {
                w.u8(3);
                w.u64(*v);
            }
            InitValue::Table(t) => {
                w.u8(4);
                w.u64(t.len() as u64);
                for &v in t {
                    w.u64(v);
                }
            }
        }
    }
    w.into_bytes()
}

fn encode_consts(consts: &ConstMem) -> Vec<u8> {
    let entries: Vec<(u8, u16, u64)> = consts.entries().collect();
    let mut w = Writer::new();
    w.u64(entries.len() as u64);
    for (bank, offset, value) in entries {
        w.u8(bank);
        w.u16(offset);
        w.u64(value);
    }
    w.into_bytes()
}

fn encode_rt(rt: &RtTrace) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(rt.len() as u64);
    for i in 0..rt.len() {
        let r = rt.get(i as u64);
        w.u32(r.shader);
        w.u32(r.nodes);
    }
    // One past the table reads the default result.
    let d = rt.get(rt.len() as u64);
    w.u32(d.shader);
    w.u32(d.nodes);
    w.into_bytes()
}

// ---------------------------------------------------------------- decoding

struct Section {
    offset: u64,
    len: u64,
}

/// Deserializes a workload from trace bytes.
///
/// Decoding is total: every malformed input — wrong magic, unknown
/// version, truncation, flipped bits, impossible counts, out-of-range ids,
/// a program that fails validation — returns a typed [`TraceError`]
/// carrying the offending byte offset. It never panics.
pub fn decode_workload(bytes: &[u8]) -> Result<Workload, TraceError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(8)?;
    if magic != MAGIC {
        let first_bad = magic.iter().zip(MAGIC.iter()).position(|(a, b)| a != b);
        return Err(TraceError::BadMagic {
            offset: first_bad.unwrap_or(0) as u64,
            found: magic.try_into().unwrap(),
        });
    }
    let version_at = r.offset();
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion {
            offset: version_at,
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if bytes.len() < HEADER_LEN + 8 {
        return Err(TraceError::Truncated {
            offset: bytes.len() as u64,
            needed: (HEADER_LEN + 8 - bytes.len()) as u64,
            len: bytes.len() as u64,
        });
    }
    // Whole-file integrity first: any random corruption in the body fails
    // here with a precise message rather than as a confusing downstream
    // structural error.
    let checksum_at = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[checksum_at..].try_into().unwrap());
    let computed = fnv1a(0, &bytes[..checksum_at]);
    if stored != computed {
        return Err(TraceError::Checksum {
            offset: checksum_at as u64,
            stored,
            computed,
        });
    }

    let n_sections = r.u32()? as usize;
    let table_end = HEADER_LEN as u64 + (n_sections as u64) * TABLE_ENTRY_LEN as u64;
    if table_end > checksum_at as u64 {
        return Err(TraceError::Corrupt {
            offset: 12,
            what: format!("section table of {n_sections} entries does not fit in the file"),
        });
    }
    let mut meta = None;
    let mut prog = None;
    let mut init = None;
    let mut cnst = None;
    let mut rttr = None;
    for _ in 0..n_sections {
        let entry_at = r.offset();
        let tag = r.u32()?;
        let offset = r.u64()?;
        let len = r.u64()?;
        let end = offset.checked_add(len);
        if offset < table_end || end.is_none() || end.unwrap() > checksum_at as u64 {
            return Err(TraceError::Corrupt {
                offset: entry_at,
                what: format!(
                    "section `{}` spans {offset}..{:?}, outside the file body",
                    tag_name(tag),
                    end
                ),
            });
        }
        let s = Section { offset, len };
        match tag {
            TAG_META => meta = Some(s),
            TAG_PROG => prog = Some(s),
            TAG_INIT => init = Some(s),
            TAG_CNST => cnst = Some(s),
            TAG_RTTR => rttr = Some(s),
            // Unknown sections are tolerated (additive evolution).
            _ => {}
        }
    }
    let meta = meta.ok_or(TraceError::MissingSection { tag: "META" })?;
    let prog = prog.ok_or(TraceError::MissingSection { tag: "PROG" })?;
    let init = init.ok_or(TraceError::MissingSection { tag: "INIT" })?;
    let cnst = cnst.ok_or(TraceError::MissingSection { tag: "CNST" })?;
    let rttr = rttr.ok_or(TraceError::MissingSection { tag: "RTTR" })?;

    // Cross-check the embedded content fingerprint before doing any real
    // decoding work.
    let section_bytes = |s: &Section| &bytes[s.offset as usize..(s.offset + s.len) as usize];
    let expected = payload_fingerprint(
        section_bytes(&prog),
        section_bytes(&init),
        section_bytes(&cnst),
        section_bytes(&rttr),
    );

    let mut m = Reader::at(bytes, meta.offset as usize);
    let name = m.str()?;
    let n_warps = m.u64()? as usize;
    let threads_per_warp = m.u32()? as usize;
    let data_seed = m.u64()?;
    let fingerprint_at = m.offset();
    let fingerprint = m.u64()?;
    if fingerprint != expected {
        return Err(TraceError::Corrupt {
            offset: fingerprint_at,
            what: format!(
                "embedded content fingerprint {fingerprint:#018x} does not match \
                 the section payloads ({expected:#018x})"
            ),
        });
    }

    let program = decode_prog(bytes, &prog)?;
    let init = decode_init(bytes, &init)?;
    let consts = decode_consts(bytes, &cnst)?;
    let rt_trace = decode_rt(bytes, &rttr)?;

    let wl = Workload {
        name,
        program,
        n_warps,
        threads_per_warp,
        init,
        consts,
        rt_trace,
        data_seed,
    };
    // Launch-geometry validation (empty program, zero warps, lane count out
    // of range) uses the simulator's own validator so the rules can never
    // drift apart.
    wl.validate().map_err(|what| TraceError::Corrupt {
        offset: meta.offset,
        what: format!("decoded workload fails validation: {what}"),
    })?;
    Ok(wl)
}

fn tag_name(tag: u32) -> String {
    let b = tag.to_le_bytes();
    if b.iter().all(|c| c.is_ascii_graphic()) {
        String::from_utf8_lossy(&b).into_owned()
    } else {
        format!("{tag:#010x}")
    }
}

fn decode_prog(bytes: &[u8], s: &Section) -> Result<subwarp_isa::Program, TraceError> {
    let mut r = Reader::at(bytes, s.offset as usize);
    // Smallest instruction: flags + req mask + opcode tag.
    let n = r.count(3)?;
    let mut b = ProgramBuilder::new();
    for _ in 0..n {
        let inst = decode_inst(&mut r)?;
        b.raw(inst);
    }
    b.build().map_err(|e| TraceError::InvalidProgram {
        offset: s.offset,
        what: e.to_string(),
    })
}

fn decode_pred(r: &mut Reader<'_>) -> Result<Pred, TraceError> {
    let at = r.offset();
    let p = r.u8()?;
    if (p as usize) < N_PRED {
        Ok(Pred(p))
    } else {
        Err(TraceError::Corrupt {
            offset: at,
            what: format!("predicate id P{p} out of range (max {})", N_PRED - 1),
        })
    }
}

fn decode_operand(r: &mut Reader<'_>) -> Result<Operand, TraceError> {
    let at = r.offset();
    Ok(match r.u8()? {
        0 => Operand::Reg(Reg(r.u8()?)),
        1 => Operand::Imm(r.i64()?),
        2 => Operand::FImm(f32::from_bits(r.u32()?)),
        3 => Operand::CBank {
            bank: r.u8()?,
            offset: r.u16()?,
        },
        other => {
            return Err(TraceError::Corrupt {
                offset: at,
                what: format!("unknown operand tag {other}"),
            })
        }
    })
}

fn decode_cmp(r: &mut Reader<'_>) -> Result<CmpOp, TraceError> {
    let at = r.offset();
    Ok(match r.u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        other => {
            return Err(TraceError::Corrupt {
                offset: at,
                what: format!("unknown comparison tag {other}"),
            })
        }
    })
}

fn decode_mufu(r: &mut Reader<'_>) -> Result<MufuFunc, TraceError> {
    let at = r.offset();
    Ok(match r.u8()? {
        0 => MufuFunc::Rcp,
        1 => MufuFunc::Rsq,
        2 => MufuFunc::Lg2,
        3 => MufuFunc::Ex2,
        4 => MufuFunc::Sin,
        5 => MufuFunc::Cos,
        other => {
            return Err(TraceError::Corrupt {
                offset: at,
                what: format!("unknown MUFU function tag {other}"),
            })
        }
    })
}

fn decode_target(r: &mut Reader<'_>) -> Result<usize, TraceError> {
    // Range-checked against the program length by `ProgramBuilder::build`;
    // here we only guard the usize conversion.
    let at = r.offset();
    let t = r.u64()?;
    usize::try_from(t).map_err(|_| TraceError::Corrupt {
        offset: at,
        what: format!("branch target {t} does not fit in usize"),
    })
}

fn decode_inst(r: &mut Reader<'_>) -> Result<Instruction, TraceError> {
    let flags_at = r.offset();
    let flags = r.u8()?;
    if flags & !0b1_1111 != 0 {
        return Err(TraceError::Corrupt {
            offset: flags_at,
            what: format!("unknown instruction flag bits {flags:#010b}"),
        });
    }
    let guard = if flags & 1 != 0 {
        Some((decode_pred(r)?, flags & (1 << 1) != 0))
    } else {
        None
    };
    let wr_sb = if flags & (1 << 2) != 0 {
        Some(Scoreboard(r.u8()?))
    } else {
        None
    };
    let req_sb = SbMask(r.u8()?);
    let hint = if flags & (1 << 3) != 0 {
        Some(if flags & (1 << 4) != 0 {
            StallHint::FallthroughStalls
        } else {
            StallHint::TakenStalls
        })
    } else {
        None
    };

    let tag_at = r.offset();
    let op = match r.u8()? {
        0 => Op::Bssy {
            barrier: Barrier(r.u8()?),
            target: decode_target(r)?,
        },
        1 => Op::Bsync {
            barrier: Barrier(r.u8()?),
        },
        2 => Op::Bra {
            target: decode_target(r)?,
        },
        3 => Op::Exit,
        4 => Op::Yield,
        5 => Op::Nop,
        6 => Op::Mov {
            dst: Reg(r.u8()?),
            src: decode_operand(r)?,
        },
        7 => Op::IAdd {
            dst: Reg(r.u8()?),
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
        },
        8 => Op::IMad {
            dst: Reg(r.u8()?),
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
            c: decode_operand(r)?,
        },
        9 => Op::Shl {
            dst: Reg(r.u8()?),
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
        },
        10 => Op::Shr {
            dst: Reg(r.u8()?),
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
        },
        11 => Op::And {
            dst: Reg(r.u8()?),
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
        },
        12 => Op::Xor {
            dst: Reg(r.u8()?),
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
        },
        13 => Op::FAdd {
            dst: Reg(r.u8()?),
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
        },
        14 => Op::FMul {
            dst: Reg(r.u8()?),
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
        },
        15 => Op::FFma {
            dst: Reg(r.u8()?),
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
            c: decode_operand(r)?,
        },
        16 => Op::ISetp {
            dst: decode_pred(r)?,
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
            cmp: decode_cmp(r)?,
        },
        17 => Op::FSetp {
            dst: decode_pred(r)?,
            a: Reg(r.u8()?),
            b: decode_operand(r)?,
            cmp: decode_cmp(r)?,
        },
        18 => Op::Mufu {
            dst: Reg(r.u8()?),
            a: Reg(r.u8()?),
            func: decode_mufu(r)?,
        },
        19 => Op::Ldg {
            dst: Reg(r.u8()?),
            addr: Reg(r.u8()?),
            offset: r.i64()?,
        },
        20 => Op::Stg {
            src: Reg(r.u8()?),
            addr: Reg(r.u8()?),
            offset: r.i64()?,
        },
        21 => Op::Lds {
            dst: Reg(r.u8()?),
            addr: Reg(r.u8()?),
            offset: r.i64()?,
        },
        22 => Op::Tld {
            dst: Reg(r.u8()?),
            addr: Reg(r.u8()?),
            offset: r.i64()?,
        },
        23 => Op::Tex {
            dst: Reg(r.u8()?),
            coord: Reg(r.u8()?),
        },
        24 => Op::TraceRay {
            dst: Reg(r.u8()?),
            ray: Reg(r.u8()?),
        },
        other => {
            return Err(TraceError::Corrupt {
                offset: tag_at,
                what: format!("unknown opcode tag {other}"),
            })
        }
    };

    let mut inst = Instruction::new(op);
    inst.guard = guard;
    inst.wr_sb = wr_sb;
    inst.req_sb = req_sb;
    inst.hint = hint;
    Ok(inst)
}

fn decode_init(bytes: &[u8], s: &Section) -> Result<Vec<RegInit>, TraceError> {
    let mut r = Reader::at(bytes, s.offset as usize);
    let n = r.count(2)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let reg = Reg(r.u8()?);
        let tag_at = r.offset();
        let value = match r.u8()? {
            0 => InitValue::GlobalTid,
            1 => InitValue::LaneId,
            2 => InitValue::WarpId,
            3 => InitValue::Const(r.u64()?),
            4 => {
                let len = r.count(8)?;
                let mut t = Vec::with_capacity(len);
                for _ in 0..len {
                    t.push(r.u64()?);
                }
                InitValue::Table(t)
            }
            other => {
                return Err(TraceError::Corrupt {
                    offset: tag_at,
                    what: format!("unknown register-init tag {other}"),
                })
            }
        };
        out.push(RegInit { reg, value });
    }
    Ok(out)
}

fn decode_consts(bytes: &[u8], s: &Section) -> Result<ConstMem, TraceError> {
    let mut r = Reader::at(bytes, s.offset as usize);
    let n = r.count(11)?;
    let mut consts = ConstMem::new();
    for _ in 0..n {
        let bank = r.u8()?;
        let offset = r.u16()?;
        let value = r.u64()?;
        consts.set(bank, offset, value);
    }
    Ok(consts)
}

fn decode_rt(bytes: &[u8], s: &Section) -> Result<RtTrace, TraceError> {
    let mut r = Reader::at(bytes, s.offset as usize);
    let n = r.count(8)?;
    let mut results = Vec::with_capacity(n);
    for _ in 0..n {
        results.push(RayResult {
            shader: r.u32()?,
            nodes: r.u32()?,
        });
    }
    let default = RayResult {
        shader: r.u32()?,
        nodes: r.u32()?,
    };
    Ok(RtTrace::from_results(results, default))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subwarp_isa::Operand;

    fn sample_workload() -> Workload {
        let mut b = ProgramBuilder::new();
        let done = b.label("done");
        b.mov(Reg(0), Operand::imm(64));
        b.ldg(Reg(1), Reg(0), 8).wr_sb(Scoreboard(1));
        b.fadd(Reg(2), Reg(1), Operand::fimm(1.5))
            .req_sb(Scoreboard(1))
            .pred(Pred(0), true);
        b.bra(done).hint(StallHint::TakenStalls);
        b.place(done);
        b.stg(Reg(2), Reg(0), 0);
        b.exit();
        let program = b.build().unwrap();
        let mut wl = Workload::new("sample", program, 3)
            .with_init(Reg(0), InitValue::GlobalTid)
            .with_init(Reg(5), InitValue::Table(vec![1, 2, 3]))
            .with_threads_per_warp(17)
            .with_data_seed(42);
        wl.consts.set(1, 16, 0x4000_0000);
        wl.rt_trace = RtTrace::from_results(
            vec![
                RayResult {
                    shader: 1,
                    nodes: 9,
                },
                RayResult {
                    shader: 2,
                    nodes: 11,
                },
            ],
            RayResult {
                shader: 7,
                nodes: 3,
            },
        );
        wl
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let wl = sample_workload();
        let bytes = encode_workload(&wl);
        let back = decode_workload(&bytes).unwrap();
        assert_eq!(back, wl);
    }

    #[test]
    fn encoding_is_deterministic() {
        let wl = sample_workload();
        assert_eq!(encode_workload(&wl), encode_workload(&wl));
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let wl = sample_workload();
        let a = trace_fingerprint(&encode_workload(&wl));
        let mut wl2 = wl.clone();
        wl2.data_seed = 43;
        let b = trace_fingerprint(&encode_workload(&wl2));
        assert_ne!(a, b);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_workload(&sample_workload());
        bytes[2] ^= 0xFF;
        match decode_workload(&bytes) {
            Err(TraceError::BadMagic { offset, .. }) => assert_eq!(offset, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = encode_workload(&sample_workload());
        bytes[8] = 0x7F;
        match decode_workload(&bytes) {
            Err(TraceError::UnsupportedVersion { offset, found, .. }) => {
                assert_eq!(offset, 8);
                assert_eq!(found, 0x7F);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn body_corruption_is_caught_by_the_checksum() {
        let mut bytes = encode_workload(&sample_workload());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            decode_workload(&bytes),
            Err(TraceError::Checksum { .. })
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = encode_workload(&sample_workload());
        for cut in 0..bytes.len() {
            let err = decode_workload(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. } | TraceError::Checksum { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }
}
