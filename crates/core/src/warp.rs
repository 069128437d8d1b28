//! Per-warp state: the thread status state machine (paper Figure 7), the
//! convergence-barrier divergence model (§III-A), counted scoreboards
//! (§III-C), and the thread status table (§III-C-1).

use crate::config::{DivergeOrder, WARP_SIZE};
use crate::trace::EventKind;
use crate::workload::Workload;
use subwarp_isa::{
    Effect, Instruction, Op, Program, Reg, RegFile, SbMask, Scoreboard, N_BARRIER, N_PRED, N_SB,
};
use subwarp_prng::splitmix64;

/// Sentinel "not ready until writeback" value for long-latency destinations.
const NEVER: u64 = u64::MAX;

/// The per-thread status of Figure 7. `Stalled` is the state Subwarp
/// Interleaving adds; the baseline SM never enters it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Not launched, or exited.
    Inactive,
    /// Member of the currently executing subwarp.
    Active,
    /// Runnable but not elected (divergence losers, woken subwarps,
    /// yielded subwarps).
    Ready,
    /// Waiting at an unsuccessful `BSYNC`.
    Blocked,
    /// Demoted by `subwarp-stall`; wakes when its watched scoreboards clear.
    Stalled,
}

/// One thread-status-table entry: a demoted subwarp and the scoreboards it
/// waits on (paper Figure 8a: state + scoreboard id + count; we watch the
/// per-thread counters directly, which the per-entry count field
/// approximates in hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TstEntry {
    /// Lanes belonging to this demoted subwarp.
    pub mask: u32,
    /// Scoreboards whose counters must reach zero before wakeup.
    pub watch: SbMask,
}

/// What produced the value a scoreboard guards — used to split exposed-stall
/// accounting into load-to-use vs RT-traversal stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SbProducer {
    /// No producer seen yet.
    #[default]
    None,
    /// An LSU or TEX memory operation (a *load-to-use* stall when waited on).
    Load,
    /// An RT-core traversal (an Amdahl-side traversal stall).
    Traversal,
}

/// Kind of data-path a memory request uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Global memory via the LSU (L1D lookup, stub on miss).
    Global,
    /// Shared memory via the LSU (fixed latency, no cache).
    Shared,
    /// Texture path (L1D lookup, TEX writeback).
    Texture,
}

/// A warp-level memory request. The participating `(lane, effective address)`
/// pairs live in [`IssueResult::mem_lanes`], a buffer the SM reuses across
/// issues, so producing a request allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Data path.
    pub kind: MemKind,
    /// Scoreboard incremented per participating lane.
    pub sb: Option<Scoreboard>,
    /// Destination register (ignored for stores).
    pub dst: Reg,
}

/// A per-lane RT-core traversal job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtJob {
    /// Issuing lane.
    pub lane: usize,
    /// Ray id (the value of the ray register).
    pub ray_id: u64,
    /// Destination register for the shader id.
    pub dst: Reg,
    /// Guarding scoreboard.
    pub sb: Scoreboard,
}

/// Side effects of issuing one warp instruction, consumed by the SM.
///
/// The SM owns one `IssueResult` for the whole run and passes it to every
/// [`WarpSim::issue`] call: [`clear`](Self::clear) resets the lengths while
/// the vectors keep their capacity, so steady-state issue performs zero heap
/// allocations.
#[derive(Debug, Default)]
pub struct IssueResult {
    /// Coalescable memory request, if the instruction was a load/fetch.
    pub mem: Option<MemRequest>,
    /// `(lane, effective address)` pairs for the request in `mem`.
    pub mem_lanes: Vec<(usize, u64)>,
    /// Stores to apply to data memory.
    pub stores: Vec<(u64, u64)>,
    /// RT-core jobs, one per lane.
    pub rt_jobs: Vec<RtJob>,
    /// Trace events to record.
    pub events: Vec<(EventKind, u32, usize)>,
    /// The warp lost its active subwarp (blocked/yielded/exited) and the SM
    /// should attempt a convergence-driven selection.
    pub needs_select: bool,
    /// The issued instruction was long-latency (feeds the yield policy).
    pub long_latency: bool,
}

impl IssueResult {
    /// Empties the result for reuse, retaining vector capacities.
    pub fn clear(&mut self) {
        self.mem = None;
        self.mem_lanes.clear();
        self.stores.clear();
        self.rt_jobs.clear();
        self.events.clear();
        self.needs_select = false;
        self.long_latency = false;
    }
}

/// Issue-readiness classification for one warp in one cycle, used both for
/// scheduling and for exposed-stall accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpStatus {
    /// Can issue this cycle.
    Issuable,
    /// Blocked on a counted scoreboard (load-to-use or traversal stall).
    MemStall {
        /// The stalled code block runs with a partial mask.
        divergent: bool,
        /// The blocking producer was an RT traversal rather than a load.
        traversal: bool,
    },
    /// Blocked on a short-latency (ALU/MUFU) dependency.
    ShortDep,
    /// Waiting for an instruction-line fetch.
    FetchWait,
    /// Within the subwarp-switch latency window.
    SwitchWait,
    /// No active subwarp (threads blocked at a barrier and/or stalled).
    NoActive {
        /// Some subwarp is READY and could be selected.
        any_ready: bool,
        /// Some subwarp is STALLED on memory (TST non-empty).
        mem_stalled: bool,
        /// The warp is mid-divergence (partial masks).
        divergent: bool,
    },
    /// All participating threads exited.
    Done,
}

/// Iterates over set lanes of a mask, lowest first.
#[inline]
pub fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    let mut m = mask;
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(i)
        }
    })
}

/// Result latencies for short (non-scoreboard) operation classes, passed to
/// [`WarpSim::issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueLatencies {
    /// ALU result latency.
    pub alu: u64,
    /// MUFU (transcendental) result latency.
    pub mufu: u64,
    /// Shared-memory (LDS) load latency.
    pub lds: u64,
}

/// Simulation state of one resident warp.
#[derive(Debug)]
pub struct WarpSim {
    /// Global warp id (drives register init and ray ids).
    pub warp_id: usize,
    /// Architectural registers and predicates for all lanes, in
    /// register-major (SoA) layout and sized to the workload's actual
    /// register usage ([`Workload::n_regs`]) — one short contiguous row per
    /// operand instead of 32 private 2 KiB thread contexts.
    pub rf: RegFile,
    /// Per-thread scheduler state as per-state lane bitmasks — the
    /// scheduler's hot queries (active mask, "any ready?", live mask) become
    /// single word reads instead of 32-lane scans. A lane in none of the
    /// masks is `Inactive`; [`WarpSim::state`]/[`WarpSim::set_state`] give
    /// the per-lane enum view.
    active: u32,
    ready: u32,
    blocked: u32,
    stalled: u32,
    /// Per-thread program counter.
    pub pc: [usize; WARP_SIZE],
    /// Barrier a thread is blocked on (valid when `state == Blocked`).
    blocked_bar: [u8; WARP_SIZE],
    /// Lanes launched.
    pub participating: u32,
    /// Convergence-barrier participation masks.
    barrier: [u32; N_BARRIER],
    /// Per-thread counted scoreboards in *scoreboard-major* order
    /// (`sb_cnt[sb][lane]`): increments, decrements, and scans all touch one
    /// scoreboard across many lanes, so a scoreboard's counters occupy a
    /// single 64-byte row instead of being strided across per-lane arrays.
    sb_cnt: [[u16; WARP_SIZE]; N_SB],
    /// Per-scoreboard mask of lanes with a nonzero counter — the
    /// scheduler's per-cycle "is anything pending?" probes reduce to mask
    /// intersections instead of lane-by-lane counter scans.
    sb_nonzero: [u32; N_SB],
    /// What kind of operation last armed each scoreboard.
    sb_producer: [SbProducer; N_SB],
    /// Per-thread, per-register ready cycle, flattened to one contiguous
    /// `n_regs * WARP_SIZE` block in *register-major* order (indexed
    /// `reg * WARP_SIZE + lane`): the issue-readiness probe and the
    /// uniform-latency result marking both touch one register across all
    /// lanes, so a register's row is a single contiguous (vectorizable)
    /// 32-word scan or fill. Sized like the register file — to the
    /// workload's used registers, not the architectural maximum.
    reg_ready: Vec<u64>,
    /// Per-register summaries of the `reg_ready` rows, maintained at write
    /// time so the issue-readiness probe can classify a source register
    /// without scanning its row:
    /// - `row_bound[reg]` — an upper bound on the row's maximum ready
    ///   cycle (`NEVER` sentinels excluded), exact when the row is uniform;
    /// - `row_never[reg]` — an upper bound on the number of `NEVER`
    ///   sentinels in the row (drifts high, never low);
    /// - `row_uniform[reg]` — every lane of the row equals `row_bound[reg]`
    ///   (set by full-warp result marking, cleared by partial writes).
    ///
    /// A uniform row with no sentinels answers the probe in two loads; only
    /// divergent or in-flight-load rows pay the per-lane walk.
    row_bound: Vec<u64>,
    row_never: Vec<u16>,
    row_uniform: Vec<bool>,
    /// Per-thread, per-predicate ready cycle, flattened predicate-major
    /// (`pred * WARP_SIZE + lane`) like `reg_ready` and heap-allocated: the
    /// 2 KiB table is touched only by guarded instructions, so moving it out
    /// of line keeps the hot scheduler fields of resident warps dense in
    /// cache.
    pred_ready: Box<[u64]>,
    /// Latest short-latency ready cycle ever marked in `reg_ready` or
    /// `pred_ready` (the `NEVER` sentinel excluded) — a monotone upper
    /// bound. Once it passes and no sentinel is outstanding, every operand
    /// is ready and the issue-readiness probe skips its per-operand scans.
    dep_horizon: u64,
    /// Number of `reg_ready` slots currently holding the `NEVER` sentinel.
    /// May drift high (never low) when a uniform-latency result overwrites
    /// an in-flight load's destination; a high count merely disables the
    /// fast path, preserving exactness.
    never_outstanding: u32,
    /// Instruction-buffer line currently held (line-aligned byte address).
    pub ib_line: Option<u64>,
    /// Outstanding fetch: (completion cycle, line address).
    pub fetch_pending: Option<(u64, u64)>,
    /// Thread status table: currently demoted subwarps.
    pub tst: Vec<TstEntry>,
    /// Cycle at which issue may resume after a subwarp-select.
    pub switch_ready: u64,
    /// Long-latency ops issued by the active subwarp since it was last
    /// activated (yield policy input).
    pub ll_issued: u32,
    /// Round-robin cursor for subwarp selection.
    last_selected_pc: usize,
    /// Deterministic per-warp RNG state for `DivergeOrder::Random`.
    rng: u64,
    /// First microarchitectural fault recorded by the warp model this run
    /// (scoreboard underflow, mismatched-`BSYNC` reconvergence, ...). Read
    /// back by the per-cycle invariant checker.
    fault: Option<String>,
}

impl WarpSim {
    /// Launches a warp: initializes registers per the workload and marks
    /// the first `threads_per_warp` lanes ACTIVE at pc 0.
    ///
    /// `n_regs` is the workload's register-file depth
    /// ([`Workload::n_regs`]); the caller computes it once per run rather
    /// than re-scanning the program on every launch.
    pub fn launch(warp_id: usize, wl: &Workload, n_regs: usize) -> WarpSim {
        let mut w = WarpSim {
            warp_id,
            rf: RegFile::new(WARP_SIZE, n_regs),
            active: 0,
            ready: 0,
            blocked: 0,
            stalled: 0,
            pc: [0; WARP_SIZE],
            blocked_bar: [0; WARP_SIZE],
            participating: 0,
            barrier: [0; N_BARRIER],
            sb_cnt: [[0; WARP_SIZE]; N_SB],
            sb_nonzero: [0; N_SB],
            sb_producer: [SbProducer::None; N_SB],
            reg_ready: vec![0; n_regs * WARP_SIZE],
            row_bound: vec![0; n_regs],
            row_never: vec![0; n_regs],
            row_uniform: vec![true; n_regs],
            pred_ready: vec![0; N_PRED * WARP_SIZE].into_boxed_slice(),
            dep_horizon: 0,
            never_outstanding: 0,
            ib_line: None,
            fetch_pending: None,
            tst: Vec::new(),
            switch_ready: 0,
            ll_issued: 0,
            last_selected_pc: 0,
            rng: 0,
            fault: None,
        };
        w.reset(warp_id, wl, n_regs);
        w
    }

    /// Re-launches this warp in place for `warp_id`, reusing the existing
    /// allocations (the register file, the flattened `reg_ready` block, the
    /// TST's capacity). This is the warp-pool path: a retired `WarpSim` is
    /// reset instead of freed, so steady-state launch costs zero allocations.
    ///
    /// Equivalent to `*self = WarpSim::launch(warp_id, wl, n_regs)` — kept
    /// bit-exact by resetting every field `launch` initializes.
    pub fn reset(&mut self, warp_id: usize, wl: &Workload, n_regs: usize) {
        self.warp_id = warp_id;
        self.rf.reset(n_regs);
        self.active = 0;
        self.ready = 0;
        self.blocked = 0;
        self.stalled = 0;
        self.pc = [0; WARP_SIZE];
        self.blocked_bar = [0; WARP_SIZE];
        self.participating = 0;
        self.barrier = [0; N_BARRIER];
        self.sb_cnt = [[0; WARP_SIZE]; N_SB];
        self.sb_nonzero = [0; N_SB];
        self.sb_producer = [SbProducer::None; N_SB];
        self.reg_ready.clear();
        self.reg_ready.resize(n_regs * WARP_SIZE, 0);
        self.row_bound.clear();
        self.row_bound.resize(n_regs, 0);
        self.row_never.clear();
        self.row_never.resize(n_regs, 0);
        self.row_uniform.clear();
        self.row_uniform.resize(n_regs, true);
        self.pred_ready.fill(0);
        self.dep_horizon = 0;
        self.never_outstanding = 0;
        self.ib_line = None;
        self.fetch_pending = None;
        self.tst.clear();
        self.switch_ready = 0;
        self.ll_issued = 0;
        self.last_selected_pc = 0;
        self.rng = 0x9e37_79b9_7f4a_7c15 ^ (warp_id as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
        self.fault = None;
        for lane in 0..wl.threads_per_warp {
            self.active |= 1 << lane;
            self.participating |= 1 << lane;
            for init in &wl.init {
                let v = wl.init_value(&init.value, warp_id, lane);
                self.rf.write_reg(lane, init.reg, v);
            }
        }
    }

    // ---- masks and groups ----

    /// The scheduler state of one lane.
    pub fn state(&self, lane: usize) -> ThreadState {
        let bit = 1u32 << lane;
        if self.active & bit != 0 {
            ThreadState::Active
        } else if self.ready & bit != 0 {
            ThreadState::Ready
        } else if self.blocked & bit != 0 {
            ThreadState::Blocked
        } else if self.stalled & bit != 0 {
            ThreadState::Stalled
        } else {
            ThreadState::Inactive
        }
    }

    /// Moves one lane to `state`, removing it from its current state.
    pub fn set_state(&mut self, lane: usize, state: ThreadState) {
        let bit = 1u32 << lane;
        self.active &= !bit;
        self.ready &= !bit;
        self.blocked &= !bit;
        self.stalled &= !bit;
        match state {
            ThreadState::Active => self.active |= bit,
            ThreadState::Ready => self.ready |= bit,
            ThreadState::Blocked => self.blocked |= bit,
            ThreadState::Stalled => self.stalled |= bit,
            ThreadState::Inactive => {}
        }
    }

    /// Lanes currently ACTIVE.
    #[inline]
    pub fn active_mask(&self) -> u32 {
        self.active
    }

    /// Lanes not yet exited.
    #[inline]
    pub fn live_mask(&self) -> u32 {
        self.active | self.ready | self.blocked | self.stalled
    }

    /// True when some subwarp is READY for selection.
    #[inline]
    pub fn has_ready(&self) -> bool {
        self.ready != 0
    }

    /// True when every participating thread has exited.
    pub fn done(&self) -> bool {
        self.live_mask() == 0
    }

    /// The active subwarp's pc.
    ///
    /// # Panics
    /// Panics in debug builds if active threads disagree on pc (a violated
    /// SIMT invariant).
    pub fn active_pc(&self) -> Option<usize> {
        let m = self.active_mask();
        let first = lanes(m).next()?;
        debug_assert!(
            lanes(m).all(|l| self.pc[l] == self.pc[first]),
            "active subwarp pc mismatch in warp {}",
            self.warp_id
        );
        Some(self.pc[first])
    }

    /// READY threads grouped into maximal same-pc subwarps, sorted by pc.
    ///
    /// Intentionally per-lane: grouping keys on each lane's private pc, and
    /// the scan only runs on subwarp-select events (divergence points), not
    /// every cycle.
    pub fn ready_groups(&self) -> Vec<(usize, u32)> {
        let mut groups: Vec<(usize, u32)> = Vec::new();
        for lane in lanes(self.ready) {
            match groups.iter_mut().find(|(pc, _)| *pc == self.pc[lane]) {
                Some((_, m)) => *m |= 1 << lane,
                None => groups.push((self.pc[lane], 1 << lane)),
            }
        }
        groups.sort_unstable_by_key(|&(pc, _)| pc);
        groups
    }

    /// The warp runs a divergent code block: its schedulable mask differs
    /// from the set of live participants.
    pub fn is_divergent(&self) -> bool {
        let a = self.active_mask();
        let probe = if a != 0 {
            a
        } else {
            // No active subwarp: judge by the stalled subwarps.
            self.tst.iter().fold(0, |m, e| m | e.mask)
        };
        probe != 0 && probe != self.live_mask()
    }

    // ---- scoreboards ----

    /// Increments `sb` for each lane in `mask` (operation issued).
    pub fn sb_inc(&mut self, mask: u32, sb: Scoreboard, producer: SbProducer) {
        let row = &mut self.sb_cnt[sb.0 as usize];
        for lane in lanes(mask) {
            row[lane] += 1;
        }
        self.sb_nonzero[sb.0 as usize] |= mask;
        self.sb_producer[sb.0 as usize] = producer;
    }

    /// Decrements `sb` for each lane in `mask` (writeback).
    pub fn sb_dec(&mut self, mask: u32, sb: Scoreboard) {
        for lane in lanes(mask) {
            if self.sb_cnt[sb.0 as usize][lane] == 0 {
                self.record_fault(format!(
                    "scoreboard sb{} underflow: writeback without a matching issue \
                     on warp {} lane {lane}",
                    sb.0, self.warp_id
                ));
            }
            let c = &mut self.sb_cnt[sb.0 as usize][lane];
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.sb_nonzero[sb.0 as usize] &= !(1 << lane);
            }
        }
    }

    /// True when any lane in `lanes_mask` has a nonzero counter on any
    /// scoreboard in `sbs` — the per-cycle stall probe, O(|sbs|) mask tests.
    #[inline]
    pub fn sb_pending(&self, lanes_mask: u32, sbs: SbMask) -> bool {
        sbs.iter()
            .any(|sb| self.sb_nonzero[sb.0 as usize] & lanes_mask != 0)
    }

    /// The producer kind of the first still-pending scoreboard in `sbs` for
    /// the given lanes.
    pub fn pending_producer(&self, lanes_mask: u32, sbs: SbMask) -> SbProducer {
        for sb in sbs.iter() {
            if self.sb_nonzero[sb.0 as usize] & lanes_mask != 0 {
                return self.sb_producer[sb.0 as usize];
            }
        }
        SbProducer::None
    }

    /// True when any demoted TST entry is waiting on a non-traversal
    /// producer (a load or texture fetch). Stall attribution uses this to
    /// split "no active subwarp, memory stalled" warps into load vs
    /// RT-traversal exposure, matching the paper's Figure 5 categories.
    pub fn tst_waits_on_load(&self) -> bool {
        self.tst
            .iter()
            .any(|e| self.pending_producer(e.mask, e.watch) != SbProducer::Traversal)
    }

    // ---- register writeback ----

    #[inline]
    fn reg_ready_at(&self, lane: usize, reg: usize) -> u64 {
        self.reg_ready[reg * WARP_SIZE + lane]
    }

    #[inline]
    fn set_reg_ready(&mut self, lane: usize, reg: usize, cycle: u64) {
        let slot = &mut self.reg_ready[reg * WARP_SIZE + lane];
        let old = *slot;
        *slot = cycle;
        if old == NEVER {
            self.never_outstanding -= 1;
            self.row_never[reg] -= 1;
        }
        if cycle == NEVER {
            self.never_outstanding += 1;
            self.row_never[reg] += 1;
        } else {
            if cycle > self.dep_horizon {
                self.dep_horizon = cycle;
            }
            if cycle > self.row_bound[reg] {
                self.row_bound[reg] = cycle;
            }
        }
        // A single-lane write leaves the row mixed unless it rewrites the
        // value a uniform row already held everywhere.
        self.row_uniform[reg] = self.row_uniform[reg] && old == cycle;
    }

    /// Latest ready cycle over *all* lanes for `reg` — an upper bound for
    /// any lane subset, computed as one contiguous row reduction.
    #[inline]
    fn reg_row_max(&self, reg: usize) -> u64 {
        self.reg_ready[reg * WARP_SIZE..(reg + 1) * WARP_SIZE]
            .iter()
            .copied()
            .fold(0, u64::max)
    }

    /// Marks `reg` ready at `cycle` for every lane in `mask`; a full warp
    /// (the common, non-divergent case) is one contiguous row fill. `cycle`
    /// is a real (non-`NEVER`) ready cycle here — uniform-latency results
    /// only. An overwritten `NEVER` sentinel (an in-flight load's
    /// destination clobbered by an ALU result) is deliberately not
    /// re-counted: `never_outstanding` drifts high, which only disables the
    /// probe's fast path.
    #[inline]
    fn set_reg_ready_masked(&mut self, reg: usize, mask: u32, cycle: u64) {
        if mask == u32::MAX {
            // A full-warp fill makes the row exactly uniform: the bound is
            // exact and any sentinel the fill overwrote is gone (the global
            // `never_outstanding` deliberately keeps its conservative
            // over-count; the per-row count is re-derived exactly here).
            self.reg_ready[reg * WARP_SIZE..(reg + 1) * WARP_SIZE].fill(cycle);
            self.row_bound[reg] = cycle;
            self.row_never[reg] = 0;
            self.row_uniform[reg] = true;
        } else {
            for lane in lanes(mask) {
                self.reg_ready[reg * WARP_SIZE + lane] = cycle;
            }
            if cycle > self.row_bound[reg] {
                self.row_bound[reg] = cycle;
            }
            self.row_uniform[reg] = false;
        }
        if cycle > self.dep_horizon {
            self.dep_horizon = cycle;
        }
    }

    /// Applies a long-latency writeback: stores `value` into `dst` for
    /// `lane`, marks the register ready, and decrements `sb`.
    pub fn writeback(
        &mut self,
        lane: usize,
        dst: Reg,
        value: u64,
        sb: Option<Scoreboard>,
        cycle: u64,
    ) {
        self.rf.write_reg(lane, dst, value);
        if !dst.is_zero() {
            self.set_reg_ready(lane, dst.0 as usize, cycle);
        }
        if let Some(sb) = sb {
            self.sb_dec(1 << lane, sb);
        }
    }

    /// Bulk bookkeeping for one coalesced line's writeback: marks `dst`
    /// ready for every lane in `mask` and decrements `sb` once over the
    /// whole mask. The per-lane values themselves are written by the caller
    /// (they differ per lane) straight into [`rf`](Self::rf); this is
    /// state-identical to per-lane [`writeback`](Self::writeback) calls but
    /// pays the scoreboard-row walk and mask maintenance once per line.
    pub fn complete_writeback(&mut self, mask: u32, dst: Reg, sb: Option<Scoreboard>, cycle: u64) {
        if !dst.is_zero() {
            for lane in lanes(mask) {
                self.set_reg_ready(lane, dst.0 as usize, cycle);
            }
        }
        if let Some(sb) = sb {
            self.sb_dec(mask, sb);
        }
    }

    // ---- faults, invariants, and snapshots ----

    /// Records the first microarchitectural fault observed by the warp
    /// model; later faults are dropped (the first one is the root cause).
    fn record_fault(&mut self, what: String) {
        if self.fault.is_none() {
            self.fault = Some(what);
        }
    }

    /// Validates the warp-state machine, consuming any recorded fault.
    ///
    /// At the `Cheap` level (`full == false`) this checks recorded faults,
    /// thread-state/TST consistency, and active-subwarp pc agreement; the
    /// `Full` level adds convergence-barrier balance, participation-mask
    /// containment, and scoreboard-counter bounds.
    pub fn check_invariants(&mut self, full: bool) -> Result<(), String> {
        if let Some(fault) = self.fault.take() {
            return Err(fault);
        }
        let wid = self.warp_id;
        // Thread states are mutually exclusive by representation (one enum
        // per lane); what can go wrong is their relationship to the TST.
        let mut tst_union = 0u32;
        for e in &self.tst {
            if e.watch.is_empty() {
                return Err(format!(
                    "warp {wid}: TST entry {:#010x} watches nothing",
                    e.mask
                ));
            }
            if e.mask == 0 {
                return Err(format!("warp {wid}: empty TST entry"));
            }
            if e.mask & tst_union != 0 {
                return Err(format!(
                    "warp {wid}: TST entries overlap on lanes {:#010x}",
                    e.mask & tst_union
                ));
            }
            tst_union |= e.mask;
            for lane in lanes(e.mask) {
                if self.state(lane) != ThreadState::Stalled {
                    return Err(format!(
                        "warp {wid}: TST holds lane {lane} but its state is {:?}",
                        self.state(lane)
                    ));
                }
            }
        }
        let stalled = self.stalled;
        if stalled != tst_union {
            return Err(format!(
                "warp {wid}: STALLED lanes {stalled:#010x} not covered by TST \
                 entries {tst_union:#010x}"
            ));
        }
        // All active lanes must agree on a pc (the SIMT invariant behind
        // `active_pc`). Accumulate a branchless mismatch mask over the whole
        // contiguous pc array; only an actual violation pays for messaging.
        let active = self.active_mask();
        if let Some(first) = lanes(active).next() {
            let want = self.pc[first];
            let mut diff = 0u32;
            for (lane, &p) in self.pc.iter().enumerate() {
                diff |= ((p != want) as u32) << lane;
            }
            if diff & active != 0 {
                let lane = (diff & active).trailing_zeros() as usize;
                return Err(format!(
                    "warp {wid}: active subwarp pc mismatch (lane {first} at {want}, \
                     lane {lane} at {})",
                    self.pc[lane]
                ));
            }
        }
        if !full {
            return Ok(());
        }
        // Non-inactive lanes must be within the launched set.
        let live = self.live_mask();
        if live & !self.participating != 0 {
            return Err(format!(
                "warp {wid}: live lanes {:#010x} outside the participating mask {:#010x}",
                live, self.participating
            ));
        }
        // Convergence-barrier balance: blocked lanes wait on an armed
        // barrier they participate in, and co-blocked lanes agree on the
        // reconvergence pc.
        for lane in lanes(self.blocked) {
            let b = self.blocked_bar[lane] as usize;
            if self.barrier[b] & (1 << lane) == 0 {
                return Err(format!(
                    "warp {wid}: lane {lane} blocked on B{b} without participating in it"
                ));
            }
            let first = lanes(self.blocked_mask_on(b as u8)).next().unwrap_or(lane);
            if self.pc[lane] != self.pc[first] {
                return Err(format!(
                    "warp {wid}: lanes blocked on B{b} disagree on the BSYNC pc \
                     ({} vs {})",
                    self.pc[first], self.pc[lane]
                ));
            }
        }
        // Counted scoreboards bounded by the deepest plausible issue window;
        // a runaway counter means increments are leaking.
        for sb in 0..N_SB {
            for lane in lanes(self.participating) {
                if self.sb_cnt[sb][lane] > 0x4000 {
                    return Err(format!(
                        "warp {wid}: scoreboard sb{sb} on lane {lane} reached {} — \
                         runaway increments",
                        self.sb_cnt[sb][lane]
                    ));
                }
            }
        }
        // The nonzero-lane masks must agree with the counters they
        // summarize. Bit-iterate the union of the summary mask and the
        // launched lanes rather than range-scanning all of WARP_SIZE: a
        // counter can only be armed through `sb_inc`, whose masks derive
        // from active/pass masks contained in `participating` (checked
        // above), so lanes outside both sets are vacuously clean.
        for sb in 0..N_SB {
            let mut expect = 0u32;
            for lane in lanes(self.sb_nonzero[sb] | self.participating) {
                if self.sb_cnt[sb][lane] > 0 {
                    expect |= 1 << lane;
                }
            }
            if expect != self.sb_nonzero[sb] {
                return Err(format!(
                    "warp {wid}: sb{sb} nonzero-lane mask {:#010x} disagrees with \
                     counters {expect:#010x}",
                    self.sb_nonzero[sb]
                ));
            }
        }
        Ok(())
    }

    /// Freezes this warp's scheduler-visible state for error reporting.
    pub fn snapshot(&self, slot: usize) -> crate::error::WarpSnapshot {
        let mut scoreboards = Vec::new();
        for lane in lanes(self.participating) {
            for sb in 0..N_SB {
                if self.sb_cnt[sb][lane] > 0 {
                    scoreboards.push((lane, sb as u8, self.sb_cnt[sb][lane]));
                }
            }
        }
        crate::error::WarpSnapshot {
            slot,
            warp_id: self.warp_id,
            active_mask: self.active,
            ready_mask: self.ready,
            blocked_mask: self.blocked,
            stalled_mask: self.stalled,
            live_mask: self.live_mask(),
            // First active lane's pc, read directly: `active_pc` asserts pc
            // agreement, which may be the very invariant being reported.
            active_pc: lanes(self.active_mask()).next().map(|l| self.pc[l]),
            tst: self.tst.clone(),
            scoreboards,
        }
    }

    // ---- thread status table ----

    /// `subwarp-wakeup`: entries whose watched scoreboards are all zero move
    /// their threads STALLED → READY. Returns `(mask, pc)` per woken entry.
    pub fn wakeup(&mut self) -> Vec<(u32, usize)> {
        let mut woken = Vec::new();
        let mut i = 0;
        while i < self.tst.len() {
            let e = self.tst[i];
            if !self.sb_pending(e.mask, e.watch) {
                if e.mask & !self.stalled != 0 {
                    for lane in lanes(e.mask & !self.stalled) {
                        self.record_fault(format!(
                            "wakeup of warp {} lane {lane} found it {:?}, not STALLED",
                            self.warp_id,
                            self.state(lane)
                        ));
                    }
                }
                self.stalled &= !e.mask;
                self.active &= !e.mask;
                self.blocked &= !e.mask;
                self.ready |= e.mask;
                let pc = lanes(e.mask).next().map(|l| self.pc[l]).unwrap_or(0);
                woken.push((e.mask, pc));
                self.tst.swap_remove(i);
            } else {
                i += 1;
            }
        }
        woken
    }

    /// `subwarp-stall`: demotes the active subwarp to STALLED, watching the
    /// scoreboards in `watch`. Requires a free TST entry.
    ///
    /// # Panics
    /// Panics if there is no active subwarp or `watch` is empty.
    pub fn demote_stalled(&mut self, watch: SbMask, max_entries: usize) -> Option<u32> {
        assert!(!watch.is_empty(), "demotion requires a watched scoreboard");
        if self.tst.len() >= max_entries {
            return None;
        }
        let mask = self.active;
        assert!(mask != 0, "no active subwarp to demote");
        self.active = 0;
        self.stalled |= mask;
        self.tst.push(TstEntry { mask, watch });
        Some(mask)
    }

    /// `subwarp-yield`: moves the active subwarp to READY.
    pub fn demote_ready(&mut self) -> u32 {
        let mask = self.active;
        self.active = 0;
        self.ready |= mask;
        mask
    }

    /// `subwarp-select`: activates the next READY subwarp in round-robin pc
    /// order. Returns the chosen `(pc, mask)`.
    pub fn select(&mut self, cycle: u64, switch_latency: u64) -> Option<(usize, u32)> {
        let groups = self.ready_groups();
        if groups.is_empty() {
            return None;
        }
        // Round-robin: first group with pc strictly greater than the last
        // selected pc, wrapping to the lowest.
        let chosen = groups
            .iter()
            .find(|&&(pc, _)| pc > self.last_selected_pc)
            .or_else(|| groups.first())
            .copied()
            .expect("groups is non-empty");
        let (pc, mask) = chosen;
        self.ready &= !mask;
        self.active |= mask;
        self.last_selected_pc = pc;
        self.switch_ready = cycle + switch_latency;
        self.ll_issued = 0;
        // The new subwarp almost certainly executes a different line.
        Some((pc, mask))
    }

    /// Absorbs READY threads standing at the active subwarp's pc into the
    /// active subwarp (they are by definition the same maximal-pc group).
    /// Returns the absorbed mask (0 when nothing moved). Per-lane by
    /// necessity — each lane's private pc is compared — and runs only on
    /// reconvergence edges.
    pub fn absorb_ready_at_active_pc(&mut self) -> u32 {
        if self.ready == 0 {
            return 0;
        }
        let Some(apc) = self.active_pc() else {
            return 0;
        };
        let mut absorbed = 0u32;
        for lane in lanes(self.ready) {
            if self.pc[lane] == apc {
                absorbed |= 1 << lane;
            }
        }
        self.ready &= !absorbed;
        self.active |= absorbed;
        absorbed
    }

    // ---- issue-readiness ----

    /// Classifies this warp's readiness at `cycle`.
    ///
    /// `warp_wide_sb` selects the baseline's warp-wide scoreboard aliasing
    /// (consumers wait on all lanes' counters); SI replicates counters per
    /// subwarp and checks only the active lanes (paper §III-C).
    pub fn status(&self, program: &Program, cycle: u64, warp_wide_sb: bool) -> WarpStatus {
        self.status_with_recheck(program, cycle, warp_wide_sb).0
    }

    /// [`status`](Self::status) plus the earliest future cycle at which the
    /// classification could change *without any further mutation* to the
    /// warp — `u64::MAX` when it can only change through an external event
    /// (writeback, wakeup, fetch completion, selection, issue).
    ///
    /// Purely time-driven statuses report their expiry exactly:
    /// `SwitchWait` ends at `switch_ready`, `ShortDep` at the latest blocking
    /// ready-cycle. This lets the SM's fast-forward treat stall windows as
    /// discrete events and jump them, while the status cache stays valid over
    /// the jump.
    pub fn status_with_recheck(
        &self,
        program: &Program,
        cycle: u64,
        warp_wide_sb: bool,
    ) -> (WarpStatus, u64) {
        if self.done() {
            return (WarpStatus::Done, u64::MAX);
        }
        let active = self.active;
        if active == 0 {
            let status = WarpStatus::NoActive {
                any_ready: self.ready != 0,
                mem_stalled: !self.tst.is_empty(),
                divergent: self.is_divergent(),
            };
            return (status, u64::MAX);
        }
        if self.switch_ready > cycle {
            return (WarpStatus::SwitchWait, self.switch_ready);
        }
        let pc = self.active_pc().expect("active subwarp exists");
        if !self.ib_covers(pc, program) {
            return (WarpStatus::FetchWait, u64::MAX);
        }
        let inst = &program[pc];
        // Counted-scoreboard wait (the load-to-use stall point). Cleared by
        // writeback, a mutation — no timed expiry.
        if !inst.req_sb.is_empty() {
            let scope = if warp_wide_sb {
                self.live_mask() | active
            } else {
                active
            };
            if self.sb_pending(scope, inst.req_sb) {
                let traversal = self.pending_producer(scope, inst.req_sb) == SbProducer::Traversal;
                let status = WarpStatus::MemStall {
                    divergent: self.is_divergent(),
                    traversal,
                };
                return (status, u64::MAX);
            }
        }
        // Short-latency register/predicate dependences: the blocking window
        // ends at the latest ready-cycle among all blocking sources.
        // Warp-wide bound first: `dep_horizon` is the latest real ready
        // cycle ever marked and `never_outstanding` counts (an upper bound
        // on) live `NEVER` sentinels, so once the horizon has passed with no
        // sentinel outstanding every operand of every lane is ready and the
        // per-operand scans are skipped — the steady state of a warp whose
        // in-flight results have all landed.
        let mut dep_until = 0u64;
        if self.never_outstanding != 0 || self.dep_horizon > cycle {
            if let Some((p, _)) = inst.guard {
                if !p.is_true() {
                    let row = p.0 as usize * WARP_SIZE;
                    for lane in lanes(active) {
                        dep_until = dep_until.max(self.pred_ready[row + lane]);
                    }
                }
            }
            let (srcs, n_srcs) = inst.op.src_regs_fixed();
            for r in &srcs[..n_srcs] {
                let reg = r.0 as usize;
                // Per-row summary next: a row with no sentinel answers from
                // its maintained bound — ready when the bound has passed,
                // and when the row is uniform the bound is the exact ready
                // cycle of every lane, so either way the row walk is
                // skipped. Only mixed rows or rows with in-flight loads
                // fall through to the scans.
                if self.row_never[reg] == 0 {
                    let bound = self.row_bound[reg];
                    if bound <= cycle {
                        continue;
                    }
                    if self.row_uniform[reg] {
                        dep_until = dep_until.max(bound);
                        continue;
                    }
                }
                // Whole-row reduction before the masked walk: the max ready
                // cycle over all lanes bounds every active-lane subset from
                // above.
                if self.reg_row_max(reg) <= cycle {
                    continue;
                }
                for lane in lanes(active) {
                    let ready = self.reg_ready_at(lane, r.0 as usize);
                    if ready > cycle {
                        // A NEVER-ready source without a req_sb annotation
                        // is a workload bug (missing &req=): surface it
                        // loudly.
                        assert!(
                            ready != NEVER,
                            "warp {} lane {lane} reads {r} at pc {pc} before its \
                             long-latency producer wrote back — missing &req= annotation?",
                            self.warp_id
                        );
                        dep_until = dep_until.max(ready);
                    }
                }
            }
        }
        if dep_until > cycle {
            return (WarpStatus::ShortDep, dep_until);
        }
        (WarpStatus::Issuable, u64::MAX)
    }

    /// True when the warp's instruction buffer holds the line containing
    /// `pc`.
    pub fn ib_covers(&self, pc: usize, _program: &Program) -> bool {
        match self.ib_line {
            Some(line) => {
                let addr = Program::byte_addr(pc);
                addr >= line && addr < line + crate::sm::ICACHE_LINE
            }
            None => false,
        }
    }

    // ---- issue ----

    /// Issues the instruction at the active pc, applying value semantics and
    /// the thread-state machine, writing side effects into `res` (cleared
    /// first; capacities are retained so a reused `res` never allocates).
    /// The SM must have verified [`status`](Self::status) is `Issuable`.
    pub fn issue(
        &mut self,
        program: &Program,
        wl: &Workload,
        cycle: u64,
        lat: IssueLatencies,
        diverge_order: DivergeOrder,
        res: &mut IssueResult,
    ) {
        let IssueLatencies {
            alu: alu_latency,
            mufu: mufu_latency,
            lds: lds_latency,
        } = lat;
        let pc = self.active_pc().expect("issue requires an active subwarp");
        let inst: &Instruction = &program[pc];
        let active = self.active_mask();
        res.clear();

        // Guard evaluation per lane; unguarded instructions (the common
        // case) skip the lane scan entirely.
        let pass = if inst.guard.is_none() {
            active
        } else {
            let mut pass = 0u32;
            for lane in lanes(active) {
                if self.rf.guard_passes(lane, inst) {
                    pass |= 1 << lane;
                }
            }
            pass
        };
        let fail = active & !pass;

        match &inst.op {
            Op::Bra { target } => {
                if pass == 0 {
                    self.set_pc(active, pc + 1);
                } else if fail == 0 {
                    self.set_pc(active, *target);
                } else {
                    // Divergent branch: one side stays ACTIVE, the other
                    // becomes READY (Figure 7: "On a divergent branch,
                    // subwarp PC not chosen").
                    let taken_stays = match diverge_order {
                        DivergeOrder::FallthroughFirst => false,
                        DivergeOrder::TakenFirst => true,
                        DivergeOrder::Random => {
                            self.rng = splitmix64(&mut { self.rng });
                            self.rng & 1 == 1
                        }
                        // §VI future work: run the stall-prone side first so
                        // the other side is available for latency tolerance.
                        // Unhinted branches (the compiler could not tell the
                        // sides apart) fall back to per-warp randomization:
                        // when there is no information, diversity of
                        // execution orders across warps beats any fixed
                        // choice.
                        DivergeOrder::Hinted => match inst.hint {
                            Some(subwarp_isa::StallHint::TakenStalls) => true,
                            Some(subwarp_isa::StallHint::FallthroughStalls) => false,
                            None => {
                                self.rng = splitmix64(&mut { self.rng });
                                self.rng & 1 == 1
                            }
                        },
                    };
                    let (stay, stay_pc, leave, leave_pc) = if taken_stays {
                        (pass, *target, fail, pc + 1)
                    } else {
                        (fail, pc + 1, pass, *target)
                    };
                    self.set_pc(stay, stay_pc);
                    self.set_pc(leave, leave_pc);
                    self.active &= !leave;
                    self.ready |= leave;
                    res.events.push((EventKind::Diverge, leave, leave_pc));
                }
            }
            Op::Bssy { barrier, .. } => {
                self.barrier[barrier.0 as usize] |= active;
                self.set_pc(active, pc + 1);
            }
            Op::Bsync { barrier } => {
                let b = barrier.0 as usize;
                let participants = self.barrier[b];
                let blocked_here = self.blocked_mask_on(barrier.0);
                let inactive = self.participating & !self.live_mask();
                let outstanding = participants & !(blocked_here | inactive | active);
                if outstanding == 0 {
                    // Successful BSYNC: barrier release, everyone
                    // reconverges at pc + 1 (Figure 7: BLOCKED → ACTIVE via
                    // "Barrier release").
                    let released = (blocked_here | active) & self.live_mask();
                    for lane in lanes(released) {
                        if self.pc[lane] != pc {
                            self.record_fault(format!(
                                "BSYNC B{b} release on warp {} found lane {lane} blocked \
                                 at pc {} instead of the reconvergence pc {pc}",
                                self.warp_id, self.pc[lane]
                            ));
                        }
                    }
                    self.blocked &= !released;
                    self.ready &= !released;
                    self.stalled &= !released;
                    self.active |= released;
                    self.set_pc(released, pc + 1);
                    self.barrier[b] = 0;
                    res.events.push((EventKind::Reconverge, released, pc + 1));
                } else {
                    // Unsuccessful BSYNC: arriving threads block.
                    for lane in lanes(active) {
                        self.blocked_bar[lane] = barrier.0;
                    }
                    self.active &= !active;
                    self.blocked |= active;
                    res.events.push((EventKind::Block, active, pc));
                    res.needs_select = true;
                }
            }
            Op::Exit => {
                self.active &= !pass;
                self.ready &= !pass;
                self.blocked &= !pass;
                self.stalled &= !pass;
                self.set_pc(fail, pc + 1);
                res.events.push((EventKind::Exit, pass, pc));
                // Exits may passively satisfy barriers other participants
                // are blocked on; re-arm those threads so they re-attempt
                // their BSYNC.
                self.release_satisfied_barriers(res);
                if self.active_mask() == 0 && !self.done() {
                    res.needs_select = true;
                }
            }
            Op::Yield => {
                // Explicit software yield hint: handled by the SM (it may
                // ignore it when SI is disabled). Advance pc regardless.
                self.set_pc(active, pc + 1);
                res.events.push((EventKind::Yield, active, pc + 1));
                res.needs_select = true;
            }
            Op::Nop => self.set_pc(active, pc + 1),
            // Data-path operations.
            _ => {
                // Mask-vectorized fast path: the ALU/MUFU family touches only
                // registers and predicates, so value semantics run with one
                // opcode dispatch over the packed pass mask, and the result
                // latencies are uniform across lanes.
                if subwarp_isa::step_alu_masked(&mut self.rf, pass, inst, &wl.consts) {
                    if let Some(dst) = inst.op.dst_reg() {
                        let lat = if matches!(inst.op, Op::Mufu { .. }) {
                            mufu_latency
                        } else {
                            alu_latency
                        };
                        self.set_reg_ready_masked(dst.0 as usize, pass, cycle + lat);
                    }
                    if let Some(p) = inst.op.dst_pred() {
                        let at = cycle + alu_latency;
                        let row = p.0 as usize * WARP_SIZE;
                        for lane in lanes(pass) {
                            self.pred_ready[row + lane] = at;
                        }
                        if at > self.dep_horizon {
                            self.dep_horizon = at;
                        }
                    }
                } else {
                    // Memory and RT ops — intentionally per-lane: each lane
                    // has its own effective address, store value or ray id,
                    // so each lane's Effect is consumed individually.
                    for lane in lanes(pass) {
                        match self.rf.mem_effect(lane, inst) {
                            Effect::Load { dst, addr } | Effect::TexFetch { dst, addr } => {
                                if !dst.is_zero() {
                                    // Scoreboard-guarded (long-latency) loads
                                    // become ready at writeback; un-guarded
                                    // short loads (LDS) have a known fixed
                                    // latency.
                                    let at = if inst.wr_sb.is_some() {
                                        NEVER
                                    } else {
                                        cycle + lds_latency
                                    };
                                    self.set_reg_ready(lane, dst.0 as usize, at);
                                }
                                res.mem_lanes.push((lane, addr));
                            }
                            Effect::Store { addr, value } => {
                                res.stores.push((addr, value));
                                res.mem_lanes.push((lane, addr));
                            }
                            Effect::TraceRay { dst, ray_id } => {
                                if !dst.is_zero() {
                                    self.set_reg_ready(lane, dst.0 as usize, NEVER);
                                }
                                let sb = inst
                                    .wr_sb
                                    .expect("validated programs guard TraceRay with &wr=");
                                res.rt_jobs.push(RtJob {
                                    lane,
                                    ray_id,
                                    dst,
                                    sb,
                                });
                            }
                        }
                    }
                }
                if inst.op.is_memory() && !res.mem_lanes.is_empty() {
                    let kind = match inst.op {
                        Op::Ldg { .. } | Op::Stg { .. } => MemKind::Global,
                        Op::Lds { .. } => MemKind::Shared,
                        Op::Tld { .. } | Op::Tex { .. } => MemKind::Texture,
                        _ => unreachable!("non-memory op classified as memory"),
                    };
                    res.mem = Some(MemRequest {
                        kind,
                        sb: inst.wr_sb,
                        dst: inst.op.dst_reg().unwrap_or(Reg::RZ),
                    });
                }
                // Arm scoreboards per lane for long-latency producers.
                if let Some(sb) = inst.wr_sb {
                    let producer = if matches!(inst.op, Op::TraceRay { .. }) {
                        SbProducer::Traversal
                    } else {
                        SbProducer::Load
                    };
                    self.sb_inc(pass, sb, producer);
                }
                if inst.op.is_long_latency() {
                    self.ll_issued += 1;
                    res.long_latency = true;
                }
                self.set_pc(active, pc + 1);
            }
        }
    }

    /// Allocating convenience wrapper around [`issue`](Self::issue) for
    /// tests and one-off callers; the simulator's hot path reuses a single
    /// `IssueResult` instead.
    pub fn issue_new(
        &mut self,
        program: &Program,
        wl: &Workload,
        cycle: u64,
        lat: IssueLatencies,
        diverge_order: DivergeOrder,
    ) -> IssueResult {
        let mut res = IssueResult::default();
        self.issue(program, wl, cycle, lat, diverge_order, &mut res);
        res
    }

    fn set_pc(&mut self, mask: u32, pc: usize) {
        if mask == u32::MAX {
            self.pc.fill(pc);
        } else {
            for lane in lanes(mask) {
                self.pc[lane] = pc;
            }
        }
    }

    // Intentionally per-lane: `blocked_bar` is a per-lane barrier id and
    // this only runs when a BSYNC executes or an invariant audit fires.
    fn blocked_mask_on(&self, barrier: u8) -> u32 {
        let mut m = 0;
        for lane in lanes(self.blocked) {
            if self.blocked_bar[lane] == barrier {
                m |= 1 << lane;
            }
        }
        m
    }

    /// After exits, barriers whose remaining participants are all blocked
    /// become releasable; move those threads to READY *at the BSYNC pc* so
    /// they re-attempt the sync (which will now succeed).
    fn release_satisfied_barriers(&mut self, res: &mut IssueResult) {
        let inactive = self.participating & !self.live_mask();
        for b in 0..N_BARRIER {
            let participants = self.barrier[b];
            if participants == 0 {
                continue;
            }
            let blocked_here = self.blocked_mask_on(b as u8);
            if blocked_here != 0 && participants & !(blocked_here | inactive) == 0 {
                self.blocked &= !blocked_here;
                self.ready |= blocked_here;
                let pc = lanes(blocked_here).next().map(|l| self.pc[l]).unwrap_or(0);
                res.events.push((EventKind::Wakeup, blocked_here, pc));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{InitValue, Workload};
    use subwarp_isa::{Barrier, CmpOp, Operand, Pred, ProgramBuilder};

    const LAT: IssueLatencies = IssueLatencies {
        alu: 4,
        mufu: 16,
        lds: 25,
    };

    fn wl_with(program: Program, n_threads: usize) -> Workload {
        Workload::new("t", program, 1)
            .with_threads_per_warp(n_threads)
            .with_init(Reg(0), InitValue::LaneId)
    }

    use subwarp_isa::Program;

    fn if_else_program() -> Program {
        // Lanes with R0 < 2 fall through; others take the branch.
        let mut b = ProgramBuilder::new();
        let else_ = b.label("else");
        let sync = b.label("sync");
        b.bssy(Barrier(0), sync);
        b.isetp(Pred(0), Reg(0), Operand::imm(2), CmpOp::Ge);
        b.bra(else_).pred(Pred(0), false);
        b.iadd(Reg(1), Reg(0), Operand::imm(100)); // then side
        b.bra(sync);
        b.place(else_);
        b.iadd(Reg(1), Reg(0), Operand::imm(200)); // else side
        b.bra(sync);
        b.place(sync);
        b.bsync(Barrier(0));
        b.exit();
        b.build().unwrap()
    }

    fn issue_until_done(w: &mut WarpSim, program: &Program, wl: &Workload) -> u64 {
        // Functional-only driver: repeatedly select + issue ignoring timing.
        let mut cycle = 0;
        let mut guard = 0;
        while !w.done() {
            guard += 1;
            assert!(guard < 10_000, "warp did not finish");
            if w.active_mask() == 0 {
                w.select(cycle, 0).expect("a READY subwarp must exist");
            }
            w.absorb_ready_at_active_pc();
            w.ib_line = Some(Program::byte_addr(w.active_pc().unwrap()) & !63);
            cycle += 100; // ample time for ALU deps
            let _ = w.issue_new(program, wl, cycle, LAT, DivergeOrder::FallthroughFirst);
        }
        cycle
    }

    #[test]
    fn launch_initializes_lanes() {
        let p = if_else_program();
        let wl = wl_with(p.clone(), 4);
        let w = WarpSim::launch(0, &wl, wl.n_regs());
        assert_eq!(w.participating, 0b1111);
        assert_eq!(w.active_mask(), 0b1111);
        assert_eq!(w.rf.reg(3, Reg(0)), 3);
        assert!(!w.done());
    }

    #[test]
    fn pooled_reset_is_indistinguishable_from_fresh_launch() {
        // Pool-reuse regression: run a divergent warp to completion so every
        // launch-initialized field is dirtied (subwarp table, convergence
        // barriers, scoreboards, register file, row summaries), then reset
        // it in place and compare the full state against a fresh launch.
        // `WarpSim` derives `Debug` over all fields, so Debug-string
        // equality is a field-by-field equality check.
        let p = if_else_program();
        let wl = wl_with(p.clone(), 4);
        let mut reused = WarpSim::launch(7, &wl, wl.n_regs());
        issue_until_done(&mut reused, &p, &wl);
        assert!(reused.done());
        reused.reset(3, &wl, wl.n_regs());
        let fresh = WarpSim::launch(3, &wl, wl.n_regs());
        assert_eq!(
            format!("{reused:?}"),
            format!("{fresh:?}"),
            "reset-in-place left stale state behind"
        );
    }

    #[test]
    fn divergent_if_else_reconverges_with_correct_values() {
        let p = if_else_program();
        let wl = wl_with(p.clone(), 4);
        let mut w = WarpSim::launch(0, &wl, wl.n_regs());
        issue_until_done(&mut w, &p, &wl);
        // Lanes 0,1 took the then side (+100); lanes 2,3 the else (+200).
        assert_eq!(w.rf.reg(0, Reg(1)), 100);
        assert_eq!(w.rf.reg(1, Reg(1)), 101);
        assert_eq!(w.rf.reg(2, Reg(1)), 202);
        assert_eq!(w.rf.reg(3, Reg(1)), 203);
    }

    #[test]
    fn divergence_marks_loser_ready_and_fallthrough_stays() {
        let p = if_else_program();
        let wl = wl_with(p.clone(), 4);
        let mut w = WarpSim::launch(0, &wl, wl.n_regs());
        w.ib_line = Some(0);
        // BSSY, ISETP, then the divergent BRA.
        for cycle in [0, 10, 20] {
            let _ = w.issue_new(&p, &wl, cycle, LAT, DivergeOrder::FallthroughFirst);
        }
        // Fall-through lanes (0,1) remain active at pc 3; lanes 2,3 READY at
        // the else block (pc 5).
        assert_eq!(w.active_mask(), 0b0011);
        assert_eq!(w.active_pc(), Some(3));
        assert_eq!(w.ready_groups(), vec![(5, 0b1100)]);
        assert!(w.is_divergent());
    }

    #[test]
    fn taken_first_order_flips_the_active_side() {
        let p = if_else_program();
        let wl = wl_with(p.clone(), 4);
        let mut w = WarpSim::launch(0, &wl, wl.n_regs());
        w.ib_line = Some(0);
        for cycle in [0, 10, 20] {
            let _ = w.issue_new(&p, &wl, cycle, LAT, DivergeOrder::TakenFirst);
        }
        assert_eq!(w.active_mask(), 0b1100);
        assert_eq!(w.active_pc(), Some(5));
        assert_eq!(w.ready_groups(), vec![(3, 0b0011)]);
    }

    #[test]
    fn bsync_blocks_until_all_participants_arrive() {
        let p = if_else_program();
        let wl = wl_with(p.clone(), 4);
        let mut w = WarpSim::launch(0, &wl, wl.n_regs());
        w.ib_line = Some(0);
        let mut cycle = 0;
        // Run the active (then) side to its BSYNC: BSSY, ISETP, BRA, IADD,
        // BRA sync, BSYNC(blocks).
        let mut blocked = false;
        for _ in 0..6 {
            cycle += 100;
            let r = w.issue_new(&p, &wl, cycle, LAT, DivergeOrder::FallthroughFirst);
            if r.events.iter().any(|(k, _, _)| *k == EventKind::Block) {
                blocked = true;
                assert!(r.needs_select);
                break;
            }
        }
        assert!(blocked, "then-side should block at BSYNC");
        assert_eq!(w.active_mask(), 0);
        // Select the else side, run it to BSYNC; it reconverges.
        w.select(cycle, 0).expect("else side is ready");
        let mut reconverged = false;
        for _ in 0..4 {
            cycle += 100;
            let r = w.issue_new(&p, &wl, cycle, LAT, DivergeOrder::FallthroughFirst);
            if r.events.iter().any(|(k, _, _)| *k == EventKind::Reconverge) {
                reconverged = true;
                break;
            }
        }
        assert!(reconverged);
        assert_eq!(w.active_mask(), 0b1111, "all four lanes reconverged");
        assert!(!w.is_divergent());
    }

    #[test]
    fn scoreboard_inc_dec_and_status() {
        let mut b = ProgramBuilder::new();
        b.ldg(Reg(2), Reg(0), 0).wr_sb(Scoreboard(1));
        b.fadd(Reg(3), Reg(2), Operand::fimm(1.0))
            .req_sb(Scoreboard(1));
        b.exit();
        let p = b.build().unwrap();
        let wl = wl_with(p.clone(), 2);
        let mut w = WarpSim::launch(0, &wl, wl.n_regs());
        w.ib_line = Some(0);
        let r = w.issue_new(&p, &wl, 0, LAT, DivergeOrder::FallthroughFirst);
        let mem = r.mem.expect("load produced a request");
        assert_eq!(mem.kind, MemKind::Global);
        assert_eq!(r.mem_lanes.len(), 2);
        assert!(r.long_latency);
        // Consumer must now report a (non-traversal) memory stall.
        assert!(
            matches!(
                w.status(&p, 10, true),
                WarpStatus::MemStall {
                    traversal: false,
                    ..
                }
            ),
            "expected a load MemStall, got {:?}",
            w.status(&p, 10, true)
        );
        // Writeback lane 0 only: warp-wide check still stalls; active-lane
        // (SI) check for a hypothetical 1-lane subwarp would pass.
        w.writeback(0, Reg(2), 42, Some(Scoreboard(1)), 50);
        assert_eq!(w.rf.reg(0, Reg(2)), 42);
        assert!(matches!(
            w.status(&p, 60, true),
            WarpStatus::MemStall { .. }
        ));
        w.writeback(1, Reg(2), 43, Some(Scoreboard(1)), 55);
        assert_eq!(w.status(&p, 60, true), WarpStatus::Issuable);
    }

    #[test]
    fn demote_and_wakeup_roundtrip() {
        let p = if_else_program();
        let wl = wl_with(p.clone(), 4);
        let mut w = WarpSim::launch(0, &wl, wl.n_regs());
        // Pretend the active subwarp waits on sb3.
        w.sb_inc(0b1111, Scoreboard(3), SbProducer::Load);
        let mask = w
            .demote_stalled(SbMask::one(Scoreboard(3)), 32)
            .expect("entry free");
        assert_eq!(mask, 0b1111);
        assert_eq!(w.active_mask(), 0);
        assert_eq!(w.tst.len(), 1);
        // Not woken while the counter is non-zero.
        assert!(w.wakeup().is_empty());
        w.sb_dec(0b1111, Scoreboard(3));
        let woken = w.wakeup();
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].0, 0b1111);
        assert!(w.tst.is_empty());
        assert_eq!(w.ready_groups().len(), 1);
    }

    #[test]
    fn tst_capacity_limits_demotion() {
        let p = if_else_program();
        let wl = wl_with(p.clone(), 4);
        let mut w = WarpSim::launch(0, &wl, wl.n_regs());
        w.sb_inc(0b1111, Scoreboard(0), SbProducer::Load);
        assert!(w.demote_stalled(SbMask::one(Scoreboard(0)), 1).is_some());
        // Re-activate two lanes manually and try to demote again: table full.
        w.set_state(0, ThreadState::Active);
        w.set_state(1, ThreadState::Active);
        assert!(w.demote_stalled(SbMask::one(Scoreboard(0)), 1).is_none());
        assert_eq!(w.tst.len(), 1);
    }

    #[test]
    fn select_round_robin_cycles_through_groups() {
        let p = if_else_program();
        let wl = wl_with(p.clone(), 4);
        let mut w = WarpSim::launch(0, &wl, wl.n_regs());
        // Hand-craft three ready groups at pcs 3, 5, 7.
        for lane in 0..4 {
            w.set_state(lane, ThreadState::Ready);
        }
        w.pc = [
            3, 5, 7, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0,
        ];
        let (pc1, m1) = w.select(0, 6).unwrap();
        assert_eq!((pc1, m1), (3, 0b0001));
        assert_eq!(w.switch_ready, 6);
        // Demote again and re-select: round robin moves past pc 3.
        w.demote_ready();
        let (pc2, _) = w.select(10, 6).unwrap();
        assert_eq!(pc2, 5);
        w.demote_ready();
        let (pc3, _) = w.select(20, 6).unwrap();
        assert_eq!(pc3, 7);
        w.demote_ready();
        let (pc4, _) = w.select(30, 6).unwrap();
        assert_eq!(pc4, 3, "wraps to the lowest pc");
    }

    #[test]
    fn exit_releases_blocked_barrier_participants() {
        // Thread 0 blocks at BSYNC; thread 1 exits without reaching it.
        let mut b = ProgramBuilder::new();
        let skip = b.label("skip");
        let sync = b.label("sync");
        b.bssy(Barrier(0), sync);
        b.isetp(Pred(0), Reg(0), Operand::imm(1), CmpOp::Eq);
        b.bra(skip).pred(Pred(0), false);
        b.place(sync);
        b.bsync(Barrier(0));
        b.exit();
        b.place(skip);
        b.exit();
        let p = b.build().unwrap();
        let wl = wl_with(p.clone(), 2);
        let mut w = WarpSim::launch(0, &wl, wl.n_regs());
        w.ib_line = Some(0);
        let mut cycle = 0;
        let mut guard = 0;
        while !w.done() {
            guard += 1;
            assert!(guard < 100, "deadlock: barrier not released by exit");
            if w.active_mask() == 0 {
                w.select(cycle, 0)
                    .expect("ready group after barrier release");
            }
            w.absorb_ready_at_active_pc();
            cycle += 100;
            let _ = w.issue_new(&p, &wl, cycle, LAT, DivergeOrder::FallthroughFirst);
        }
    }

    #[test]
    fn random_diverge_order_is_deterministic_per_warp() {
        let p = if_else_program();
        let wl = wl_with(p.clone(), 4);
        let run = |warp_id: usize| {
            let mut w = WarpSim::launch(warp_id, &wl, wl.n_regs());
            w.ib_line = Some(0);
            for cycle in [0, 10, 20] {
                let _ = w.issue_new(&p, &wl, cycle, LAT, DivergeOrder::Random);
            }
            w.active_mask()
        };
        assert_eq!(run(5), run(5), "same warp id gives same choice");
    }
}
