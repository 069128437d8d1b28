//! Bit-for-bit parity between the flat-array register/constant banks and
//! straightforward map-based reference models.
//!
//! `RegFile` keeps a warp's registers and predicates in dense
//! register-major arrays and `ConstMem` keeps constant banks in
//! `Vec<Vec<u64>>`; both used to be `HashMap`s. These property tests replay
//! long randomized access sequences against `HashMap` models implementing
//! the documented semantics (`RZ` reads 0 and drops writes, `PT` reads true
//! and drops writes, unset registers and predicates read as zero, unset
//! constant slots read as `1.0f32`'s bits) and assert every observable read
//! agrees.

use std::collections::HashMap;
use subwarp_isa::{ConstMem, Pred, Reg, RegFile, N_REG};
use subwarp_prng::SmallRng;

const CONST_DEFAULT: u64 = 0x3f80_0000;
const LANES: usize = 32;

/// Every access lands on a lane drawn at random and is checked against that
/// lane's own model, so a write that leaks into a neighbouring lane, or a
/// read that indexes the wrong lane, shows up as a mismatch.
#[test]
fn regfile_matches_per_lane_hashmap_reference() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut rf = RegFile::new(LANES, N_REG);
    let mut reg_model: Vec<HashMap<u8, u64>> = vec![HashMap::new(); LANES];
    let mut pred_model: Vec<HashMap<u8, bool>> = vec![HashMap::new(); LANES];
    let reg_expect = |model: &HashMap<u8, u64>, r: u8| {
        if r == 255 {
            0
        } else {
            model.get(&r).copied().unwrap_or(0)
        }
    };
    let pred_expect =
        |model: &HashMap<u8, bool>, p: u8| p == 7 || model.get(&p).copied().unwrap_or(false);
    for _ in 0..40_000 {
        let lane = rng.gen_range(0..LANES);
        match rng.gen_range(0u32..4) {
            0 => {
                // Biased toward low registers (the ones programs use) but
                // covering the full range including RZ (255).
                let r = if rng.gen_bool() {
                    rng.gen_range(0u8..=63)
                } else {
                    rng.gen_range(0u8..=255)
                };
                let v = rng.next_u64();
                rf.write_reg(lane, Reg(r), v);
                if r != 255 {
                    reg_model[lane].insert(r, v);
                }
                // The same register on another lane is unaffected.
                let other = rng.gen_range(0..LANES);
                assert_eq!(
                    rf.reg(other, Reg(r)),
                    reg_expect(&reg_model[other], r),
                    "lane {other} R{r} after a write on lane {lane}"
                );
            }
            1 => {
                let r = rng.gen_range(0u8..=255);
                assert_eq!(
                    rf.reg(lane, Reg(r)),
                    reg_expect(&reg_model[lane], r),
                    "lane {lane} R{r}"
                );
            }
            2 => {
                let p = rng.gen_range(0u8..=7);
                let v = rng.gen_bool();
                rf.write_pred(lane, Pred(p), v);
                if p != 7 {
                    pred_model[lane].insert(p, v);
                }
                let other = rng.gen_range(0..LANES);
                assert_eq!(
                    rf.pred(other, Pred(p)),
                    pred_expect(&pred_model[other], p),
                    "lane {other} P{p} after a write on lane {lane}"
                );
            }
            _ => {
                let p = rng.gen_range(0u8..=7);
                assert_eq!(
                    rf.pred(lane, Pred(p)),
                    pred_expect(&pred_model[lane], p),
                    "lane {lane} P{p}"
                );
            }
        }
    }
    // Every lane's final state matches its model in full, not just at the
    // sampled reads.
    for lane in 0..LANES {
        for r in 0u8..=255 {
            assert_eq!(
                rf.reg(lane, Reg(r)),
                reg_expect(&reg_model[lane], r),
                "lane {lane} R{r}"
            );
        }
        for p in 0u8..=7 {
            assert_eq!(
                rf.pred(lane, Pred(p)),
                pred_expect(&pred_model[lane], p),
                "lane {lane} P{p}"
            );
        }
    }
}

#[test]
fn const_mem_matches_hashmap_reference() {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let mut consts = ConstMem::new();
    let mut model: HashMap<(u8, u16), u64> = HashMap::new();
    for _ in 0..20_000 {
        let bank = rng.gen_range(0u8..=5);
        // Mix dense low offsets with sparse high ones so the Vec banks
        // exercise both the resize path and out-of-range reads.
        let offset = if rng.gen_bool() {
            rng.gen_range(0u16..=32)
        } else {
            rng.gen_range(0u16..=2048)
        };
        if rng.gen_bool() {
            let v = rng.next_u64();
            consts.set(bank, offset, v);
            model.insert((bank, offset), v);
        } else {
            let expect = model.get(&(bank, offset)).copied().unwrap_or(CONST_DEFAULT);
            assert_eq!(consts.get(bank, offset), expect, "c[{bank}][{offset}]");
        }
    }
}
