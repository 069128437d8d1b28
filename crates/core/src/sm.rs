//! The cycle-level SM simulator: processing blocks, warp scheduler, memory
//! units, instruction fetch, and the Subwarp Interleaving scheduler.

use crate::config::{SchedulerPolicy, SiConfig, SmConfig};
use crate::error::{InvariantLevel, SimError, StateSnapshot};
use crate::image::MemoryImage;
use crate::profile::{BufferingProfiler, CounterSample, Profiler};
use crate::stats::{CycleCause, RunStats};
use crate::trace::{EventKind, TraceEvent};
use crate::warp::{lanes, IssueResult, MemKind, RtJob, WarpSim, WarpStatus};
use crate::workload::Workload;
use subwarp_isa::{Program, Reg, Scoreboard};
use subwarp_mem::{AccessKind, Cache, DataMemory, MemoryBackend, Partition, ServiceUnit};

/// Instruction-cache line size in bytes (8 instructions of 16 bytes).
pub const ICACHE_LINE: u64 = 128;

/// Cycles without any progress (issue, writeback, fetch completion, or
/// selection) after which the simulator reports [`SimError::Deadlock`].
pub const DEADLOCK_WINDOW: u64 = 50_000;

/// A completed memory (LSU/TEX) line response.
#[derive(Debug)]
struct MemResp {
    slot: usize,
    /// `(lane, address)` pairs satisfied by this line.
    lanes: Vec<(usize, u64)>,
    dst: Reg,
    sb: Option<Scoreboard>,
}

/// A shared-partition miss issued but not yet resolved (see
/// [`crate::chip`]).
#[derive(Debug)]
struct Deferred {
    cycle: u64,
    line: u64,
    /// The `done` of the in-flight fill this miss may merge into
    /// ([`MemoryBackend::merge_candidate`]); `u64::MAX` when there is none.
    merge_by: u64,
    /// Where the completion goes; `None` for a store, which waits on
    /// nothing.
    reply: Option<Reply>,
}

/// The writeback a deferred miss owes: the LSU or TEX unit, under the
/// sequence number reserved at issue.
#[derive(Debug)]
struct Reply {
    tex: bool,
    seq: u64,
    resp: MemResp,
}

/// A completed RT-core traversal.
#[derive(Debug)]
struct RtResp {
    slot: usize,
    lane: usize,
    dst: Reg,
    sb: Scoreboard,
    shader: u32,
}

/// The top-level simulator: configure once, run many workloads.
///
/// ```
/// use subwarp_core::{Simulator, SmConfig, SiConfig, Workload, InitValue};
/// use subwarp_isa::{ProgramBuilder, Reg, Operand};
///
/// let mut b = ProgramBuilder::new();
/// b.iadd(Reg(1), Reg(0), Operand::imm(1));
/// b.exit();
/// let wl = Workload::new("demo", b.build()?, 2)
///     .with_init(Reg(0), InitValue::GlobalTid);
/// let stats = Simulator::new(SmConfig::turing_like(), SiConfig::disabled()).run(&wl)?;
/// assert!(stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    sm: SmConfig,
    si: SiConfig,
}

impl Simulator {
    /// Creates a simulator from an SM configuration and an SI configuration.
    pub fn new(sm: SmConfig, si: SiConfig) -> Simulator {
        Simulator { sm, si }
    }

    /// Runs `workload` to completion and returns its statistics.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`]/[`SimError::InvalidWorkload`]
    /// before the first cycle when the inputs cannot be simulated, and
    /// [`SimError::Deadlock`], [`SimError::CycleCapExceeded`], or
    /// [`SimError::InvariantViolation`] (each carrying a
    /// [`StateSnapshot`]) when the run fails mid-flight.
    pub fn run(&self, workload: &Workload) -> Result<RunStats, SimError> {
        Ok(self.run_inner(workload, None, self.stepping_threads())?.0)
    }

    /// Runs `workload` with an attached [`Profiler`], streaming per-cycle
    /// cause attribution, thread-status transitions, and occupancy/cache
    /// counter samples to it, SM by SM, once the run completes. The profiler
    /// is a pure observer: statistics are bit-identical to
    /// [`run`](Self::run). Pass an [`EventRecorder`](crate::EventRecorder)
    /// to keep only the thread-status transitions (the paper's Figure 10
    /// walkthroughs). A failed run streams nothing.
    ///
    /// # Errors
    /// As for [`run`](Self::run).
    pub fn run_profiled(
        &self,
        workload: &Workload,
        profiler: &mut dyn Profiler,
    ) -> Result<RunStats, SimError> {
        Ok(self
            .run_inner(workload, Some(profiler), self.stepping_threads())?
            .0)
    }

    /// Runs `workload`, additionally returning the final data-memory image:
    /// every 8-byte word the program stored to (keyed by its aligned byte
    /// address), with the value a load would return. This is the
    /// architectural-state oracle used by the differential fuzzer — two
    /// schedules of the same program must agree on it exactly. Each SM
    /// keeps its own functional memory; where two SMs wrote one word, the
    /// higher SM id wins.
    ///
    /// # Errors
    /// As for [`run`](Self::run).
    pub fn run_with_memory(
        &self,
        workload: &Workload,
    ) -> Result<(RunStats, MemoryImage), SimError> {
        self.run_image(workload, self.stepping_threads())
    }

    /// [`run_with_memory`](Self::run_with_memory) on `threads` stepping
    /// threads.
    fn run_image(
        &self,
        workload: &Workload,
        threads: usize,
    ) -> Result<(RunStats, MemoryImage), SimError> {
        let (stats, memories) = self.run_inner(workload, None, threads)?;
        Ok((stats, memory_image(&memories)))
    }

    /// Stepping threads for one run: `min(n_sms, SUBWARP_JOBS or the host
    /// parallelism)`, or 1 inside a `subwarp_pool` worker, so a sweep of
    /// chip runs does not oversubscribe the host.
    fn stepping_threads(&self) -> usize {
        if self.sm.n_sms == 1 || subwarp_pool::in_worker() {
            1
        } else {
            self.sm.n_sms.min(subwarp_pool::default_jobs())
        }
    }

    /// The one run loop, for every SM count, backend and partition
    /// setting: one backend per SM, stepped through lookahead epochs on
    /// `threads` threads ([`crate::chip`]).
    ///
    /// - **Determinism.** Misses to a shared partition are resolved at
    ///   epoch barriers in global `(cycle, SM id, issue order)`, so every
    ///   shared-backend fill sees the same partition state whatever the
    ///   thread count. SMs that share nothing (one SM, the fixed stub,
    ///   private hierarchies) call `miss()` inline and each runs to
    ///   completion in one unbounded epoch.
    /// - **Fast-forward soundness.** An SM fast-forwards only through
    ///   stretches where *it* issues nothing, and never past its epoch
    ///   horizon, before which none of its unresolved misses can complete.
    /// - **Wall time.** With parallel stepping, `phase_nanos` of a multi-SM
    ///   run sums every thread's time, so it can exceed the run's wall time.
    ///
    /// Returns the summed statistics and each SM's final functional memory,
    /// in SM-id order.
    fn run_inner(
        &self,
        wl: &Workload,
        profiler: Option<&mut dyn Profiler>,
        threads: usize,
    ) -> Result<(RunStats, Vec<DataMemory>), SimError> {
        let (mut states, shared) = self.prepare(wl, profiler.is_some())?;
        let epoch = shared.as_ref().map(Partition::lookahead);
        crate::chip::step_chip(&mut states, shared, epoch, threads)?;
        self.finish(wl, states, profiler)
    }

    /// Validates the inputs and builds every SM's initial state, with the
    /// partition they share, if any.
    fn prepare<'a>(
        &'a self,
        wl: &'a Workload,
        profiled: bool,
    ) -> Result<(Vec<SimState<'a>>, Option<Partition>), SimError> {
        self.sm
            .validate()
            .map_err(|what| SimError::InvalidConfig { what })?;
        self.si
            .validate()
            .map_err(|what| SimError::InvalidConfig { what })?;
        wl.validate().map_err(|what| SimError::InvalidWorkload {
            workload: wl.name.clone(),
            what,
        })?;
        let n_sms = self.sm.n_sms;
        let (mem, latency) = (&self.sm.mem_backend, self.sm.miss_latency);
        let chip = mem.build_chip(latency, n_sms, self.sm.shared_partitions);
        // Each SM profiles into its own [`BufferingProfiler`], replayed SM by
        // SM after the run so the caller sees contiguous `begin_sm`/`end_sm`
        // streams.
        let deferring = chip.shared.is_some();
        let states = chip
            .backends
            .into_iter()
            .enumerate()
            .map(|(sm_id, backend)| {
                let mut st = SimState::new(&self.sm, &self.si, wl, sm_id, profiled, backend);
                st.deferring = deferring;
                st
            })
            .collect();
        Ok((states, chip.shared))
    }

    /// Finalizes a finished run in SM-id order, independent of the stepping
    /// order: checks conservation, sums the statistics and replays each
    /// SM's profile.
    fn finish(
        &self,
        wl: &Workload,
        mut states: Vec<SimState<'_>>,
        profiler: Option<&mut dyn Profiler>,
    ) -> Result<(RunStats, Vec<DataMemory>), SimError> {
        let n_sms = states.len();
        let mut total = RunStats::default();
        for (sm_id, st) in states.iter_mut().enumerate() {
            // Cycle-attribution conservation: every cycle this SM simulated
            // — including fast-forwarded stretches — must land in exactly
            // one cause bucket. Always checked; it is one sum per SM.
            let attributed = st.stats.causes_total();
            if attributed != st.stats.cycles {
                return Err(SimError::InvariantViolation {
                    workload: wl.name.clone(),
                    what: format!(
                        "cycle-attribution conservation violated on SM {sm_id}: \
                         per-cause sum {attributed} != cycles {}",
                        st.stats.cycles
                    ),
                    snapshot: st.snapshot(),
                });
            }
            st.stats.phase_nanos = st.phase_nanos;
            st.stats.l1i = st.l1i.stats();
            st.stats.l1d = st.l1d.stats();
            st.stats.mem = st.backend.stats();
            for l0 in &st.l0i {
                st.stats.l0i.hits += l0.stats().hits;
                st.stats.l0i.misses += l0.stats().misses;
            }
            if n_sms > 1 {
                total.per_sm.push(st.stats.clone());
            }
            total.accumulate_sm(&st.stats);
        }
        if let Some(p) = profiler {
            for (sm_id, st) in states.iter_mut().enumerate() {
                p.begin_sm(sm_id);
                if let Some(buf) = st.profiler.take() {
                    buf.replay(p);
                }
                p.end_sm(st.stats.cycles);
            }
        }
        Ok((total, states.into_iter().map(|st| st.data).collect()))
    }
}

/// Every SM's final functional memory as one image; where two SMs wrote one
/// word, the higher SM id wins.
fn memory_image(memories: &[DataMemory]) -> MemoryImage {
    let mut log = Vec::new();
    for data in memories {
        data.for_each_written(|word, value| log.push((word << 3, value)));
    }
    MemoryImage::from_log(log)
}

/// All mutable state of one SM's run.
pub(crate) struct SimState<'a> {
    sm: &'a SmConfig,
    si: &'a SiConfig,
    wl: &'a Workload,
    program: &'a Program,
    /// Register-file depth for this workload ([`Workload::n_regs`]),
    /// computed once per run and passed to every warp launch/reset.
    wl_n_regs: usize,
    cycle: u64,
    /// Warp slots; `slots[i]` belongs to processing block
    /// `i / warp_slots_per_pb`.
    slots: Vec<Option<WarpSim>>,
    /// This SM's id (warps `sm_id, sm_id + n_sms, ...` belong to it).
    sm_id: usize,
    /// Next launch sequence number (warp id = `sm_id + seq * n_sms`).
    next_seq: usize,
    /// Per-PB L0 instruction caches.
    l0i: Vec<Cache>,
    l1i: Cache,
    l1d: Cache,
    /// Timing backend for L1D-miss traffic (fixed stub or L2+MSHR+DRAM).
    /// Mutated only when a miss is issued or resolved, so quiescent
    /// stretches cannot change in-flight completions — the fast-forward
    /// relies on this.
    backend: Box<dyn MemoryBackend>,
    /// Whether `backend` is a handle onto a chip-shared partition, whose
    /// misses are deferred to the epoch barrier ([`crate::chip`]).
    deferring: bool,
    /// This SM's unresolved shared-partition misses, in issue order.
    deferred: Vec<Deferred>,
    /// The clock this SM must not pass before the next barrier: the
    /// epoch's end, or an unresolved miss's early-merge bound.
    horizon: u64,
    /// The failure that stopped this SM, with the cycle of the failing
    /// step.
    failed: Option<(u64, SimError)>,
    data: DataMemory,
    lsu: ServiceUnit<MemResp>,
    tex: ServiceUnit<MemResp>,
    rt: ServiceUnit<RtResp>,
    /// Per-PB greedy-then-oldest cursor.
    last_issued: Vec<Option<usize>>,
    stats: RunStats,
    last_progress: u64,
    /// Scratch: per-slot status this cycle.
    statuses: Vec<Option<WarpStatus>>,
    /// This SM's profile, buffered for replay after the run
    /// ([`Simulator::run_profiled`]). `None` in ordinary runs — every
    /// profiling hook is gated on one `Option` check.
    profiler: Option<BufferingProfiler>,
    /// Scratch: which PBs issued this cycle (per-PB cause attribution for
    /// the profiler).
    pb_issued: Vec<bool>,
    /// Warp-state pool: retired `WarpSim`s parked for reuse. The next launch
    /// resets one in place ([`WarpSim::reset`]) instead of allocating, so
    /// steady-state retire→launch churn performs zero heap traffic.
    pool: Vec<WarpSim>,
    /// Test hook: when `false`, retired warps are dropped instead of pooled,
    /// so every launch allocates fresh. Pooled reuse must be observationally
    /// identical to this (see the pool-parity regression test).
    pool_enabled: bool,
    /// Reused issue side-effect buffers ([`IssueResult::clear`] keeps their
    /// capacity): the per-issue path allocates nothing.
    issue_res: IssueResult,
    /// Scratch for coalescing a request's lanes into cache-line groups.
    line_groups: Vec<(u64, Vec<(usize, u64)>)>,
    /// Lane vectors recycled through in-flight [`MemResp`]s: popped at issue
    /// time, pushed back when the response's writeback is applied.
    lane_vec_pool: Vec<Vec<(usize, u64)>>,
    /// Per-slot: mutated since `statuses[slot]` was last computed. Set by
    /// `touch`, cleared by `recompute_status`.
    stale: Vec<bool>,
    /// Per-slot earliest future cycle at which the cached status could
    /// change *without* a mutation (switch-penalty expiry, short-dep
    /// readiness) — `u64::MAX` when only a mutation can change it. Also the
    /// fast-forward's per-warp event horizon.
    recheck_at: Vec<u64>,
    /// Bitmask words over slots mutated this cycle (`dirty_now`) and the
    /// previous cycle (`dirty_prev`). The change-driven phases iterate set
    /// bits of their union instead of scanning every slot; `step` rolls the
    /// window each cycle. `touch` runs only inside `step` before the clock
    /// advances (or at launch in `new`, at cycle 0), so a `dirty_now` bit
    /// always means "mutated this cycle".
    dirty_now: Vec<u64>,
    dirty_prev: Vec<u64>,
    /// Lower bound on `min(recheck_at)`. `compute_statuses` full-scans (and
    /// re-tightens the bound) only when the clock reaches it; may be
    /// stale-low after a status write, never stale-high.
    min_recheck: u64,
    /// Lower bound on the earliest in-flight instruction-fill completion
    /// (same lazy contract); `fetch_completions` is a single compare until
    /// the clock reaches it.
    min_fetch_ready: u64,
    /// Per-PB bitmask of slots (bit `slot - pb*warp_slots_per_pb`) whose
    /// cached status is `Issuable` — the scheduler's candidate set, updated
    /// wherever `statuses` is written.
    issuable_pb: Vec<u64>,
    /// Per-PB bitmask of slots whose cached status is a `MemStall` — the
    /// stall-driven selection's fast-path gate.
    memstall_pb: Vec<u64>,
    /// Bumped on every cached-status write (and thus on every warp mutation
    /// by the next status pass); tags `idle_cache`.
    statuses_version: u64,
    /// Memoized idle-cycle attribution: between status changes every
    /// non-issue cycle classifies identically, so the per-slot scan runs
    /// once per `statuses_version` instead of once per cycle.
    idle_cache: IdleClass,
    idle_cache_version: u64,
    /// Occupied warp slots (maintained by launch/retire; `finished` and the
    /// idle classifier read it instead of scanning).
    resident: usize,
    /// Wall-time phase breakdown, collected only when
    /// [`SmConfig::profile_phases`] is set (`timed`).
    timed: bool,
    phase_nanos: [u64; crate::stats::N_PHASES],
    phase_t: std::time::Instant,
}

/// Indices into [`SimState::phase_nanos`] / [`RunStats::phase_nanos`],
/// matching [`crate::stats::PHASE_NAMES`].
const PHASE_ISSUE: usize = 0;
const PHASE_EXECUTE: usize = 1;
const PHASE_MEMORY: usize = 2;
const PHASE_FAST_FORWARD: usize = 3;
const PHASE_OTHER: usize = 4;

/// One memoized idle-cycle classification (see [`SimState::account_idle`]):
/// the single attributed cause and whether a load-stalled warp is
/// divergent, valid for as long as no cached status changes.
#[derive(Debug, Clone, Copy)]
struct IdleClass {
    any_live: bool,
    cause: CycleCause,
    load_stall_divergent: bool,
}

impl Default for IdleClass {
    fn default() -> Self {
        IdleClass {
            any_live: false,
            cause: CycleCause::Idle,
            load_stall_divergent: false,
        }
    }
}

/// Runs `$body` for every slot whose bit is set in the union of the two
/// dirty windows (mutated this cycle or the previous one) — the candidate
/// set for every change-driven phase. Words are snapshotted, so `touch`es
/// made inside the body don't extend the current pass; set bits are visited
/// in ascending slot order, matching the full scans this replaces.
macro_rules! for_dirty_slots {
    ($self:ident, $slot:ident, $body:block) => {
        for __w in 0..$self.dirty_now.len() {
            let mut __m = $self.dirty_now[__w] | $self.dirty_prev[__w];
            while __m != 0 {
                let $slot = (__w << 6) + __m.trailing_zeros() as usize;
                __m &= __m - 1;
                $body
            }
        }
    };
}

impl<'a> SimState<'a> {
    fn new(
        sm: &'a SmConfig,
        si: &'a SiConfig,
        wl: &'a Workload,
        sm_id: usize,
        profiled: bool,
        backend: Box<dyn MemoryBackend>,
    ) -> SimState<'a> {
        let n_slots = sm.total_warp_slots();
        let mut st = SimState {
            sm,
            si,
            wl,
            program: &wl.program,
            wl_n_regs: wl.n_regs(),
            cycle: 0,
            slots: (0..n_slots).map(|_| None).collect(),
            sm_id,
            next_seq: 0,
            l0i: (0..sm.n_pbs).map(|_| Cache::new(sm.l0i)).collect(),
            l1i: Cache::new(sm.l1i),
            l1d: Cache::new(sm.l1d),
            backend,
            deferring: false,
            deferred: Vec::new(),
            horizon: u64::MAX,
            failed: None,
            data: DataMemory::new(wl.data_seed),
            lsu: ServiceUnit::new(),
            tex: ServiceUnit::new(),
            rt: ServiceUnit::new(),
            last_issued: vec![None; sm.n_pbs],
            stats: RunStats::default(),
            last_progress: 0,
            statuses: vec![None; n_slots],
            profiler: profiled.then(BufferingProfiler::default),
            pb_issued: vec![false; sm.n_pbs],
            pool: Vec::new(),
            pool_enabled: true,
            issue_res: IssueResult::default(),
            line_groups: Vec::new(),
            lane_vec_pool: Vec::new(),
            stale: vec![false; n_slots],
            recheck_at: vec![u64::MAX; n_slots],
            dirty_now: vec![0; n_slots.div_ceil(64)],
            dirty_prev: vec![0; n_slots.div_ceil(64)],
            min_recheck: u64::MAX,
            min_fetch_ready: u64::MAX,
            issuable_pb: vec![0; sm.n_pbs],
            memstall_pb: vec![0; sm.n_pbs],
            statuses_version: 0,
            idle_cache: IdleClass::default(),
            idle_cache_version: u64::MAX,
            resident: 0,
            timed: sm.profile_phases,
            phase_nanos: [0; crate::stats::N_PHASES],
            phase_t: std::time::Instant::now(),
        };
        st.launch_pending();
        st
    }

    /// Marks `slot`'s warp state as mutated this cycle, re-arming the
    /// change-driven phases (status recompute, frontend scans, invariant
    /// and retirement checks) for it.
    #[inline]
    fn touch(&mut self, slot: usize) {
        self.stale[slot] = true;
        self.dirty_now[slot >> 6] |= 1 << (slot & 63);
    }

    /// Attributes the wall time since the previous lap to `phase`.
    /// A branch-and-return when phase profiling is off.
    #[inline]
    fn lap(&mut self, phase: usize) {
        if !self.timed {
            return;
        }
        let now = std::time::Instant::now();
        self.phase_nanos[phase] += now.duration_since(self.phase_t).as_nanos() as u64;
        self.phase_t = now;
    }

    fn pb_of(&self, slot: usize) -> usize {
        slot / self.sm.warp_slots_per_pb
    }

    fn next_warp_id(&self) -> Option<usize> {
        let id = self.sm_id + self.next_seq * self.sm.n_sms;
        (id < self.wl.n_warps).then_some(id)
    }

    fn finished(&self) -> bool {
        self.next_warp_id().is_none() && self.resident == 0
    }

    /// Steps until this SM finishes, fails, or its clock reaches the
    /// epoch's end `hi` — or sooner, an unresolved miss's early-merge
    /// bound ([`crate::chip`]). A failure is kept for the chip to order.
    pub(crate) fn run_epoch(&mut self, hi: u64) {
        if self.failed.is_some() {
            return;
        }
        self.horizon = self.deferred.iter().map(|d| d.merge_by).fold(hi, u64::min);
        while !self.finished() && self.cycle < self.horizon {
            let at = self.cycle;
            if let Err(e) = self.step() {
                self.failed = Some((at, e));
                return;
            }
        }
    }

    /// The cycle this SM steps next, unless it has finished or failed.
    pub(crate) fn active_cycle(&self) -> Option<u64> {
        (self.failed.is_none() && !self.finished()).then_some(self.cycle)
    }

    /// The cycle of the step that failed, if one did.
    pub(crate) fn failed_at(&self) -> Option<u64> {
        self.failed.as_ref().map(|(at, _)| *at)
    }

    /// Takes the failure [`failed_at`](Self::failed_at) reports.
    pub(crate) fn take_failure(&mut self) -> SimError {
        self.failed.take().expect("a failed SM keeps its error").1
    }

    /// Records a shared-partition miss for resolution at the barrier. The
    /// writeback, if any, reserves its place in its unit now; a possible
    /// early merge lowers the horizon to the fill it may merge into.
    fn defer_miss(&mut self, line: u64, tex: bool, resp: Option<MemResp>) {
        let merge_by = self
            .backend
            .merge_candidate(self.cycle, line)
            .unwrap_or(u64::MAX);
        self.horizon = self.horizon.min(merge_by);
        let reply = resp.map(|resp| {
            let unit = if tex { &mut self.tex } else { &mut self.lsu };
            Reply {
                tex,
                seq: unit.reserve(),
                resp,
            }
        });
        self.deferred.push(Deferred {
            cycle: self.cycle,
            line,
            merge_by,
            reply,
        });
    }

    /// `(index, cycle)` of each unresolved miss issued before `bound`.
    pub(crate) fn deferred_before(&self, bound: u64) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.deferred
            .iter()
            .map(|d| d.cycle)
            .take_while(move |&c| c < bound)
            .enumerate()
    }

    /// Resolves unresolved miss `i` against the shared partition and
    /// delivers its completion under the sequence number reserved at issue.
    pub(crate) fn resolve_miss(&mut self, i: usize, partition: &mut Partition) {
        let d = &mut self.deferred[i];
        let done = self.backend.miss_shared(partition, d.cycle, d.line);
        if let Some(Reply { tex, seq, resp }) = d.reply.take() {
            let unit = if tex { &mut self.tex } else { &mut self.lsu };
            unit.fill(seq, done, resp);
        }
    }

    /// Drops the misses issued before `bound`, all resolved by now. A
    /// profiled SM's counters then read the partition as it stands.
    pub(crate) fn retire_resolved(&mut self, bound: u64, partition: &Partition) {
        let n = self.deferred.partition_point(|d| d.cycle < bound);
        self.deferred.drain(..n);
        if self.profiler.is_some() {
            self.backend.observe(partition);
        }
    }

    /// Streams a thread-status transition of the warp resident in `slot`
    /// to an attached profiler.
    #[inline]
    fn record(&mut self, slot: usize, kind: EventKind, mask: u32, pc: usize) {
        if self.profiler.is_some() {
            self.emit_event(slot, kind, mask, pc);
        }
    }

    /// Profiler-only emission half of [`record`](Self::record), outlined so
    /// the plain-`run` hot path carries only the `Option` check. Events
    /// name the warp, not the slot: slots repeat across SMs and are reused
    /// by later warps.
    #[cold]
    #[inline(never)]
    fn emit_event(&mut self, slot: usize, kind: EventKind, mask: u32, pc: usize) {
        let cycle = self.cycle;
        let warp = self.slots[slot]
            .as_ref()
            .expect("events are recorded for resident warps")
            .warp_id;
        if let Some(p) = self.profiler.as_mut() {
            p.event(&TraceEvent {
                cycle,
                warp,
                kind,
                mask,
                pc,
            });
        }
    }

    fn launch_pending(&mut self) {
        // The SM statically distributes warps among the processing blocks'
        // schedulers (paper §II-A): fill slots round-robin across PBs so a
        // partially occupied SM still uses every issue port.
        let per_pb = self.sm.warp_slots_per_pb;
        let n = self.slots.len();
        for i in 0..n {
            let slot = (i % self.sm.n_pbs) * per_pb + i / self.sm.n_pbs;
            if self.slots[slot].is_none() {
                let Some(id) = self.next_warp_id() else { break };
                let w = match self.pool.pop() {
                    Some(mut w) => {
                        w.reset(id, self.wl, self.wl_n_regs);
                        w
                    }
                    None => WarpSim::launch(id, self.wl, self.wl_n_regs),
                };
                self.slots[slot] = Some(w);
                self.touch(slot);
                self.resident += 1;
                self.next_seq += 1;
            }
        }
        self.stats.peak_resident_warps = self.stats.peak_resident_warps.max(self.resident);
    }

    /// One simulated cycle.
    fn step(&mut self) -> Result<(), SimError> {
        if self.timed {
            self.phase_t = std::time::Instant::now();
        }
        self.drain_writebacks();
        if self.si.enabled {
            // The TST is populated only through stall-driven demotion, which
            // is SI-gated, so baseline runs have nothing to wake.
            self.wakeups();
        }
        self.lap(PHASE_MEMORY);
        self.fetch_completions();
        self.resume_selection();
        self.fetch_initiation();
        self.compute_statuses();
        self.lap(PHASE_OTHER);
        let issued = self.issue_stage();
        if self.si.enabled {
            self.stall_driven_selection();
        }
        self.lap(PHASE_ISSUE);
        self.account_cycle(issued);
        self.check_invariants()?;
        self.retire_and_launch();
        self.cycle += 1;
        self.watchdog(issued)?;
        self.lap(PHASE_OTHER);
        if self.sm.fast_forward {
            self.fast_forward(issued);
        }
        self.lap(PHASE_FAST_FORWARD);
        // Roll the dirty-slot window: this cycle's mutations stay visible to
        // the next cycle's change-driven phases, older ones age out. (A
        // fast-forward jump lands on a quiescent stretch, so the window is
        // consistent across it too.)
        for i in 0..self.dirty_now.len() {
            self.dirty_prev[i] = self.dirty_now[i];
            self.dirty_now[i] = 0;
        }
        Ok(())
    }

    /// Event-driven fast-forward over quiescent stretches.
    ///
    /// When a cycle ends with no issue and no recorded progress, every
    /// machine input to the next cycle is unchanged, so the following
    /// cycles replay identically until the next *scheduled* event: a
    /// service-unit completion, an instruction-fill arrival, or a
    /// switch-latency expiry. Jump the clock straight to that event,
    /// bulk-applying the stall accounting the replayed cycles would have
    /// performed. The jump is clamped to the watchdog horizons so the
    /// cycle-cap and deadlock errors still fire on their exact cycle with
    /// their exact snapshots — a run with fast-forward is bit-for-bit
    /// indistinguishable from the cycle-by-cycle run (stall-heavy
    /// workloads just get there orders of magnitude sooner).
    fn fast_forward(&mut self, issued: bool) {
        if issued || self.last_progress + 1 == self.cycle {
            return; // something happened this cycle — no quiescence
        }
        // `Issuable` cannot appear in a quiescent cycle — an issuable warp
        // issues — but the guard is cheap insurance.
        if self.issuable_pb.iter().any(|&m| m != 0) {
            return;
        }
        let executed = self.cycle - 1;
        // Next scheduled event, starting from the watchdog horizons (both
        // always exist, so a fully event-free machine still terminates on
        // the exact deadlock cycle).
        let mut wake = (self.last_progress + DEADLOCK_WINDOW).min(self.sm.max_cycles - 1);
        let mut clamp = |t: u64| wake = wake.min(t);
        if let Some(t) = self.lsu.next_ready() {
            clamp(t);
        }
        if let Some(t) = self.tex.next_ready() {
            clamp(t);
        }
        if let Some(t) = self.rt.next_ready() {
            clamp(t);
        }
        // In-flight backend fills (store-allocated fills have no service-unit
        // entry, so the backend's own event horizon is consulted too; the
        // fixed stub reports none).
        if let Some(t) = self.backend.next_event(executed) {
            clamp(t);
        }
        // In-flight instruction fills, and the per-warp status expiries
        // (`recheck_at`): stall windows are discrete events like any other.
        // Both horizons are maintained lower bounds — a stale-low bound only
        // makes the jump land early (the next quiescent cycle re-tightens it
        // and jumps again), never late, so results are unchanged.
        if self.min_fetch_ready != u64::MAX {
            clamp(self.min_fetch_ready);
        }
        if self.min_recheck != u64::MAX {
            clamp(self.min_recheck);
        }
        // The epoch horizon: past it, an unresolved miss could complete.
        clamp(self.horizon);
        let skipped = wake.saturating_sub(self.cycle);
        if skipped == 0 {
            return;
        }
        self.account_idle(skipped);
        if self.profiler.is_some() {
            // Statuses (and therefore per-PB causes) are constant across the
            // stretch; counters cannot change while nothing completes, so no
            // sample is taken.
            self.profile_cycle(skipped, false);
        }
        self.cycle += skipped;
        self.stats.cycles = self.cycle;
    }

    /// Per-cycle invariant scan (see [`InvariantLevel`]): every resident
    /// warp's state machine is validated, and any fault the warp model
    /// recorded mid-cycle surfaces here.
    fn check_invariants(&mut self) -> Result<(), SimError> {
        let full = match self.sm.invariants {
            InvariantLevel::Off => return Ok(()),
            InvariantLevel::Cheap => false,
            InvariantLevel::Full => true,
        };
        if full {
            for slot in 0..self.slots.len() {
                self.check_slot_invariants(slot, true)?;
            }
        } else {
            // A warp's state machine (and any recorded fault) can only have
            // changed through a mutation, so at the Cheap level only slots
            // touched this cycle — this cycle's dirty word bits — are
            // audited; Full keeps the exhaustive scan.
            for word in 0..self.dirty_now.len() {
                let mut m = self.dirty_now[word];
                while m != 0 {
                    let slot = (word << 6) + m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.check_slot_invariants(slot, false)?;
                }
            }
        }
        Ok(())
    }

    fn check_slot_invariants(&mut self, slot: usize, full: bool) -> Result<(), SimError> {
        let violated = match self.slots[slot].as_mut() {
            Some(w) => w.check_invariants(full).err(),
            None => None,
        };
        if let Some(what) = violated {
            return Err(SimError::InvariantViolation {
                workload: self.wl.name.clone(),
                what,
                snapshot: self.snapshot(),
            });
        }
        Ok(())
    }

    /// Freezes the SM's scheduler-visible state for error reporting.
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            sm_id: self.sm_id,
            cycle: self.cycle,
            warps: self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|w| w.snapshot(i)))
                .collect(),
            outstanding_lsu: self.lsu.in_flight(),
            outstanding_tex: self.tex.in_flight(),
            outstanding_rt: self.rt.in_flight(),
        }
    }

    /// Step 1: apply LSU/TEX/RT completions (register writeback, scoreboard
    /// broadcast — paper Figure 8b).
    fn drain_writebacks(&mut self) {
        let mut progressed = false;
        while let Some(resp) = self.lsu.pop_if_ready(self.cycle) {
            progressed = true;
            self.apply_mem_resp(resp.payload);
        }
        while let Some(resp) = self.tex.pop_if_ready(self.cycle) {
            progressed = true;
            self.apply_mem_resp(resp.payload);
        }
        while let Some(resp) = self.rt.pop_if_ready(self.cycle) {
            progressed = true;
            let r = resp.payload;
            if let Some(w) = self.slots[r.slot].as_mut() {
                w.writeback(r.lane, r.dst, r.shader as u64, Some(r.sb), self.cycle);
            }
            self.touch(r.slot);
            self.stats.rt_traversals += 1;
        }
        if progressed {
            self.last_progress = self.cycle;
        }
    }

    fn apply_mem_resp(&mut self, resp: MemResp) {
        let cycle = self.cycle;
        // Values come from functional data memory at the lane's address.
        let data = &self.data;
        if let Some(w) = self.slots[resp.slot].as_mut() {
            // Per-lane values first (each lane reads its own address), then
            // the ready-marking and scoreboard decrement once over the whole
            // line's mask — state-identical to per-lane `writeback` calls.
            let mut mask = 0u32;
            for &(lane, addr) in &resp.lanes {
                w.rf.write_reg(lane, resp.dst, data.read(addr));
                mask |= 1 << lane;
            }
            w.complete_writeback(mask, resp.dst, resp.sb, cycle);
        }
        self.touch(resp.slot);
        // The response's lane vector goes back to the pool for the next
        // coalesced request.
        self.lane_vec_pool.push(resp.lanes);
    }

    /// Step 2: `subwarp-wakeup` — TST entries whose scoreboards cleared.
    /// Change-driven: a wakeup needs a scoreboard to have cleared (a
    /// writeback — a mutation), so unmutated warps cannot wake.
    fn wakeups(&mut self) {
        for_dirty_slots!(self, slot, {
            let woken = match self.slots[slot].as_mut() {
                Some(w) if !w.tst.is_empty() => w.wakeup(),
                _ => continue,
            };
            if !woken.is_empty() {
                self.touch(slot);
            }
            for (mask, pc) in woken {
                self.record(slot, EventKind::Wakeup, mask, pc);
                self.last_progress = self.cycle;
            }
        });
    }

    /// Step 3: install completed instruction-line fills. Fill completions
    /// are timed events: a single compare against the earliest outstanding
    /// completion skips the phase entirely until one is due, and the scan
    /// that installs it re-derives the next horizon exactly.
    fn fetch_completions(&mut self) {
        if self.cycle < self.min_fetch_ready {
            return;
        }
        let mut min = u64::MAX;
        for slot in 0..self.slots.len() {
            let Some(w) = self.slots[slot].as_mut() else {
                continue;
            };
            if let Some((ready, line)) = w.fetch_pending {
                if ready <= self.cycle {
                    w.ib_line = Some(line);
                    w.fetch_pending = None;
                    self.last_progress = self.cycle;
                    self.touch(slot);
                } else {
                    min = min.min(ready);
                }
            }
        }
        self.min_fetch_ready = min;
    }

    /// Step 4: warps with no active subwarp but a READY one resume
    /// (convergence- or wakeup-driven selection).
    fn resume_selection(&mut self) {
        let latency = self.select_latency();
        // Absorption and selection depend only on warp-local state (ready
        // groups, active pc): if the warp was not mutated since the last
        // time this phase saw it, re-running it is a no-op — so only the
        // dirty window's slots are visited.
        for_dirty_slots!(self, slot, {
            let (selected, absorbed) = {
                let Some(w) = self.slots[slot].as_mut() else {
                    continue;
                };
                if w.done() || w.active_mask() != 0 {
                    let absorbed = w.absorb_ready_at_active_pc();
                    (None, absorbed)
                } else {
                    (w.select(self.cycle, latency), 0)
                }
            };
            if absorbed != 0 {
                self.touch(slot);
            }
            if let Some((pc, mask)) = selected {
                self.touch(slot);
                self.stats.subwarp_switches += 1;
                self.record(slot, EventKind::Select, mask, pc);
                self.last_progress = self.cycle;
            }
        });
    }

    fn select_latency(&self) -> u64 {
        if self.si.enabled {
            self.si.switch_latency
        } else {
            self.sm.baseline_select_latency
        }
    }

    /// Step 5: start instruction-line fetches for warps whose buffer does
    /// not cover their active pc. An L0I hit installs the line immediately;
    /// misses go to the L1I and then the fixed-latency stub.
    fn fetch_initiation(&mut self) {
        // A warp needs a fetch only when its pc or buffer changed — a
        // mutation. After this phase runs once post-mutation, the warp is
        // covered, fetch-pending, or has no active pc; all stable until the
        // next mutation — so only the dirty window's slots are visited.
        for_dirty_slots!(self, slot, {
            let pb = self.pb_of(slot);
            let Some(w) = self.slots[slot].as_mut() else {
                continue;
            };
            if w.done() || w.fetch_pending.is_some() {
                continue;
            }
            let Some(pc) = (if w.active_mask() != 0 {
                w.active_pc()
            } else {
                None
            }) else {
                continue;
            };
            if w.ib_covers(pc) {
                continue;
            }
            let line = Program::byte_addr(pc) & !(ICACHE_LINE - 1);
            match self.l0i[pb].access(line) {
                AccessKind::Hit => {
                    w.ib_line = Some(line);
                }
                AccessKind::Miss => {
                    let lat = match self.l1i.access(line) {
                        AccessKind::Hit => self.sm.ifetch_l1_latency,
                        AccessKind::Miss => self.sm.ifetch_miss_latency,
                    };
                    let ready = self.cycle + lat;
                    w.fetch_pending = Some((ready, line));
                    self.min_fetch_ready = self.min_fetch_ready.min(ready);
                }
            }
            self.touch(slot);
        });
    }

    /// Step 6: classify each resident warp's readiness.
    ///
    /// Change-driven: a slot is reclassified only when its warp mutated
    /// since the cached status was computed (`stale`), or the status's own
    /// timed expiry (`recheck_at`) arrived. Every mutation costs one
    /// recompute; stable warps — the overwhelming majority each cycle —
    /// cost nothing.
    fn compute_statuses(&mut self) {
        let cycle = self.cycle;
        if cycle >= self.min_recheck {
            // A timed expiry is due somewhere: full scan (the expired slot
            // need not be in the dirty window), re-deriving the exact next
            // horizon from the final per-slot values.
            let mut min = u64::MAX;
            for slot in 0..self.slots.len() {
                if self.stale[slot] || cycle >= self.recheck_at[slot] {
                    self.recompute_status(slot);
                }
                min = min.min(self.recheck_at[slot]);
            }
            self.min_recheck = min;
        } else {
            // No expiry due: only mutated slots can have changed class.
            for_dirty_slots!(self, slot, {
                if self.stale[slot] {
                    self.recompute_status(slot);
                }
            });
        }
    }

    /// Reclassifies one slot, maintaining every structure derived from the
    /// cached status: the per-PB issuable/mem-stall candidate masks, the
    /// recheck horizon, and the version that tags the idle-cause memo.
    fn recompute_status(&mut self, slot: usize) {
        let warp_wide = !self.si.enabled;
        let (status, recheck) = match self.slots[slot].as_ref() {
            Some(w) => {
                let (s, r) = w.status_with_recheck(self.program, self.cycle, warp_wide);
                (Some(s), r)
            }
            None => (None, u64::MAX),
        };
        self.statuses[slot] = status;
        self.recheck_at[slot] = recheck;
        self.stale[slot] = false;
        self.min_recheck = self.min_recheck.min(recheck);
        // Conservative: bump even when the class is unchanged — the warp
        // state behind it (e.g. which scoreboards a TST entry watches) may
        // still have changed, and the idle classifier reads that state.
        self.statuses_version += 1;
        let pb = self.pb_of(slot);
        let bit = 1u64 << (slot - pb * self.sm.warp_slots_per_pb);
        if status == Some(WarpStatus::Issuable) {
            self.issuable_pb[pb] |= bit;
        } else {
            self.issuable_pb[pb] &= !bit;
        }
        if matches!(status, Some(WarpStatus::MemStall { .. })) {
            self.memstall_pb[pb] |= bit;
        } else {
            self.memstall_pb[pb] &= !bit;
        }
    }

    /// Step 7: per-PB issue (one instruction per PB per cycle). The
    /// candidate set is the maintained per-PB issuable bitmask, so a PB with
    /// nothing ready costs one compare.
    fn issue_stage(&mut self) -> bool {
        let mut any = false;
        self.pb_issued.fill(false);
        for pb in 0..self.sm.n_pbs {
            let mask = self.issuable_pb[pb];
            if mask == 0 {
                continue;
            }
            let lo = pb * self.sm.warp_slots_per_pb;
            let chosen = match self.sm.scheduler {
                SchedulerPolicy::Gto => {
                    // Greedy: stick with the last issued warp if still ready;
                    // otherwise the oldest (smallest warp id).
                    match self.last_issued[pb] {
                        Some(last) if mask & (1 << (last - lo)) != 0 => last,
                        _ => {
                            let mut best = usize::MAX;
                            let mut best_id = usize::MAX;
                            let mut m = mask;
                            while m != 0 {
                                let s = lo + m.trailing_zeros() as usize;
                                m &= m - 1;
                                let id = self.slots[s]
                                    .as_ref()
                                    .map(|w| w.warp_id)
                                    .unwrap_or(usize::MAX);
                                if id < best_id {
                                    best_id = id;
                                    best = s;
                                }
                            }
                            best
                        }
                    }
                }
                SchedulerPolicy::Lrr => {
                    // Round robin after the last issued slot, wrapping.
                    let start = self.last_issued[pb].map(|s| s + 1 - lo).unwrap_or(0);
                    let ge_start = if start >= 64 {
                        0
                    } else {
                        mask & !((1u64 << start) - 1)
                    };
                    let first = if ge_start != 0 { ge_start } else { mask };
                    lo + first.trailing_zeros() as usize
                }
            };
            self.last_issued[pb] = Some(chosen);
            self.issue_warp(chosen);
            self.pb_issued[pb] = true;
            any = true;
        }
        if any {
            self.last_progress = self.cycle;
        }
        any
    }

    fn issue_warp(&mut self, slot: usize) {
        let cycle = self.cycle;
        // Per-unit issue accounting (utilization breakdown).
        {
            use subwarp_isa::ExecUnit;
            let pc = self.slots[slot]
                .as_ref()
                .and_then(|w| w.active_pc())
                .expect("issuable warp has an active pc");
            let idx = match self.program[pc].op.unit() {
                ExecUnit::Alu => 0,
                ExecUnit::Mufu => 1,
                ExecUnit::Lsu => 2,
                ExecUnit::Tex => 3,
                ExecUnit::RtCore => 4,
                ExecUnit::Control => 5,
            };
            self.stats.issued_by_unit[idx] += 1;
        }
        self.touch(slot);
        self.lap(PHASE_ISSUE);
        // Reuse the per-run IssueResult: `issue` clears it, capacities stay.
        let mut res = std::mem::take(&mut self.issue_res);
        {
            let w = self.slots[slot]
                .as_mut()
                .expect("issuable slot is occupied");
            w.issue(
                self.program,
                self.wl,
                cycle,
                crate::warp::IssueLatencies {
                    alu: self.sm.alu_latency,
                    mufu: self.sm.mufu_latency,
                    lds: self.sm.lds_latency,
                },
                self.sm.diverge_order,
                &mut res,
            );
        }
        self.lap(PHASE_EXECUTE);
        self.stats.instructions += 1;

        // Record state-machine events and counters.
        let mut yielded_explicitly = false;
        for (kind, mask, pc) in &res.events {
            match kind {
                EventKind::Diverge => self.stats.divergences += 1,
                EventKind::Reconverge => self.stats.reconvergences += 1,
                EventKind::Yield => yielded_explicitly = true,
                _ => {}
            }
            self.record(slot, *kind, *mask, *pc);
        }

        // Stores update functional memory and touch the L1D.
        for (addr, value) in &res.stores {
            self.data.write(*addr, *value);
        }

        // Memory requests: coalesce lanes into cache lines. The grouping
        // scratch and per-line lane Vecs are recycled across issues
        // (`line_groups` / `lane_vec_pool`) so steady-state issue does not
        // allocate.
        if let Some(req) = res.mem {
            let mut groups = std::mem::take(&mut self.line_groups);
            groups.clear();
            for &(lane, addr) in &res.mem_lanes {
                let line = self.l1d.line_of(addr);
                match groups.iter_mut().find(|(l, _)| *l == line) {
                    Some((_, v)) => v.push((lane, addr)),
                    None => {
                        let mut v = self.lane_vec_pool.pop().unwrap_or_default();
                        v.clear();
                        v.push((lane, addr));
                        groups.push((line, v));
                    }
                }
            }
            for (line, group) in groups.drain(..) {
                // Hits complete after the fixed L1 pipeline latency; misses
                // ask the memory backend for an absolute completion cycle
                // (the fixed stub returns `cycle + miss_latency`; the
                // hierarchical model charges L2 banks, MSHRs, and DRAM).
                let (hit, unit_is_tex) = match req.kind {
                    MemKind::Shared => (Some(cycle + self.sm.lds_latency), false),
                    MemKind::Global => (
                        (self.l1d.access(line) == AccessKind::Hit)
                            .then_some(cycle + self.sm.lsu_hit_latency),
                        false,
                    ),
                    MemKind::Texture => (
                        (self.l1d.access(line) == AccessKind::Hit)
                            .then_some(cycle + self.sm.tex_hit_latency),
                        true,
                    ),
                };
                // Stores need no writeback; loads (dst or scoreboard) do.
                let resp = if !req.dst.is_zero() || req.sb.is_some() {
                    Some(MemResp {
                        slot,
                        lanes: group,
                        dst: req.dst,
                        sb: req.sb,
                    })
                } else {
                    self.lane_vec_pool.push(group);
                    None
                };
                let done = match hit {
                    Some(done) => done,
                    None if self.deferring => {
                        self.defer_miss(line, unit_is_tex, resp);
                        continue;
                    }
                    None => self.backend.miss(cycle, line),
                };
                match resp {
                    Some(resp) if unit_is_tex => self.tex.push(done, resp),
                    Some(resp) => self.lsu.push(done, resp),
                    None => {}
                }
            }
            self.line_groups = groups;
        }

        // RT-core jobs: latency from the pre-traced node count.
        for &RtJob {
            lane,
            ray_id,
            dst,
            sb,
        } in &res.rt_jobs
        {
            let ray = self.wl.rt_trace.get(ray_id);
            let latency = self.sm.rt.latency(ray.nodes);
            self.rt.push(
                cycle + latency,
                RtResp {
                    slot,
                    lane,
                    dst,
                    sb,
                    shader: ray.shader,
                },
            );
        }
        self.lap(PHASE_MEMORY);

        // Convergence-driven selection (BSYNC block / exit) and yields.
        let select_latency = self.select_latency();
        if yielded_explicitly && self.si.enabled {
            self.apply_yield(slot);
        } else if res.needs_select {
            let selected = {
                let w = self.slots[slot].as_mut().expect("slot occupied");
                if w.active_mask() == 0 && !w.done() {
                    w.select(cycle, select_latency)
                } else {
                    None
                }
            };
            if let Some((pc, mask)) = selected {
                self.stats.subwarp_switches += 1;
                self.record(slot, EventKind::Select, mask, pc);
            }
        }

        // Hardware subwarp-yield: after `yield_threshold` long-latency
        // issues, eagerly hand the slot to another READY subwarp.
        if self.si.enabled && self.si.yield_enabled && res.long_latency {
            let should = {
                let w = self.slots[slot].as_ref().expect("slot occupied");
                w.ll_issued >= self.si.yield_threshold && w.has_ready()
            };
            if should {
                self.apply_yield(slot);
            }
        }

        // Hand the (cleared-on-next-issue) result buffer back for reuse.
        self.issue_res = res;
    }

    /// Demotes the active subwarp to READY and selects another
    /// (`subwarp-yield`, paper §III-B).
    fn apply_yield(&mut self, slot: usize) {
        let cycle = self.cycle;
        let latency = self.si.switch_latency;
        let (yielded, selected) = {
            let w = self.slots[slot].as_mut().expect("slot occupied");
            if !w.has_ready() {
                // "If no ready subwarp is available, the current subwarp
                // transitions back to ACTIVE" — nothing to do.
                return;
            }
            let mask = w.demote_ready();
            let sel = w.select(cycle, latency);
            (mask, sel)
        };
        self.touch(slot);
        self.stats.subwarp_yields += 1;
        let pc = self.slots[slot]
            .as_ref()
            .and_then(|w| lanes(yielded).next().map(|l| w.pc[l]))
            .unwrap_or(0);
        self.record(slot, EventKind::Yield, yielded, pc);
        if let Some((pc, mask)) = selected {
            self.stats.subwarp_switches += 1;
            self.record(slot, EventKind::Select, mask, pc);
        }
    }

    /// Step 8: stall-driven `subwarp-stall` + `subwarp-select`, gated by the
    /// trigger policy over the fraction of stalled warps (paper §III-C-3).
    fn stall_driven_selection(&mut self) {
        let cycle = self.cycle;
        for pb in 0..self.sm.n_pbs {
            // Only MemStall-classified warps can be demoted below, so a PB
            // with none (the common case) can be skipped before the trigger
            // arithmetic — the trigger could at most fire and find nothing.
            if self.memstall_pb[pb] == 0 {
                continue;
            }
            let lo = pb * self.sm.warp_slots_per_pb;
            let hi = lo + self.sm.warp_slots_per_pb;
            let mut live = 0;
            let mut stalled = 0;
            for s in lo..hi {
                match self.statuses[s] {
                    Some(WarpStatus::Done) | None => {}
                    Some(WarpStatus::MemStall { .. }) => {
                        live += 1;
                        stalled += 1;
                    }
                    Some(WarpStatus::NoActive {
                        mem_stalled: true,
                        any_ready: false,
                        ..
                    }) => {
                        live += 1;
                        stalled += 1;
                    }
                    Some(_) => live += 1,
                }
            }
            if !self.si.policy.triggers(stalled, live) {
                continue;
            }
            // DWS-like slot budget (paper §VII-B): demoted subwarps must be
            // hosted by free warp slots in this processing block.
            let slot_budget = if self.si.slot_limited {
                let free = (lo..hi).filter(|&s| self.slots[s].is_none()).count();
                let in_use: usize = (lo..hi)
                    .filter_map(|s| self.slots[s].as_ref())
                    .map(|w| w.tst.len())
                    .sum();
                free.saturating_sub(in_use)
            } else {
                usize::MAX
            };
            if slot_budget == 0 {
                continue;
            }
            // Lowest-numbered stalled warp with a READY subwarp, a free TST
            // entry, and no in-flight switch (one selection per PB per
            // cycle).
            for s in lo..hi {
                if !matches!(self.statuses[s], Some(WarpStatus::MemStall { .. })) {
                    continue;
                }
                let demoted = {
                    let w = self.slots[s].as_mut().expect("stalled slot occupied");
                    if w.switch_ready > cycle || !w.has_ready() {
                        None
                    } else {
                        let pc = w.active_pc().expect("mem-stalled warp has active pc");
                        let watch = self.program[pc].req_sb;
                        w.demote_stalled(watch, self.si.max_subwarps)
                            .map(|m| (m, pc))
                    }
                };
                let Some((mask, pc)) = demoted else { continue };
                self.touch(s);
                self.stats.subwarp_stalls += 1;
                self.record(s, EventKind::Stall, mask, pc);
                let selected = {
                    let w = self.slots[s].as_mut().expect("slot occupied");
                    w.select(cycle, self.si.switch_latency)
                };
                if let Some((sel_pc, sel_mask)) = selected {
                    self.stats.subwarp_switches += 1;
                    self.record(s, EventKind::Select, sel_mask, sel_pc);
                }
                self.last_progress = cycle;
                break;
            }
        }
    }

    /// Step 9: exposed-stall accounting (the paper's §I metric) and
    /// exhaustive per-cycle cause attribution.
    fn account_cycle(&mut self, issued: bool) {
        if issued {
            self.stats.cycle_causes[CycleCause::Issued.index()] += 1;
            if self.profiler.is_some() {
                self.emit_sm_span(CycleCause::Issued, 1);
            }
        } else {
            self.account_idle(1);
        }
        if self.profiler.is_some() {
            self.profile_cycle(1, true);
        }
    }

    /// Records `n` cycles of `cause` in the conservation-checked breakdown,
    /// streaming the span to an attached profiler.
    fn tally_cause(&mut self, cause: CycleCause, n: u64) {
        self.stats.cycle_causes[cause.index()] += n;
        if self.profiler.is_some() {
            self.emit_sm_span(cause, n);
        }
    }

    /// Profiler-only emission half of [`tally_cause`](Self::tally_cause),
    /// outlined so the plain-`run` hot path carries only the counter add.
    #[cold]
    #[inline(never)]
    fn emit_sm_span(&mut self, cause: CycleCause, n: u64) {
        if let Some(p) = self.profiler.as_mut() {
            p.sm_cycles(self.cycle, n, cause);
        }
    }

    /// Attributes `n` consecutive idle cycles with the current statuses.
    /// `n > 1` only during [`fast_forward`](Self::fast_forward), where the
    /// statuses are provably constant across the whole stretch.
    ///
    /// The classification is memoized on `statuses_version`: between status
    /// changes every non-issue cycle classifies identically (the flags
    /// depend only on cached statuses and status-stable warp state), so the
    /// per-slot scan runs once per change, not once per cycle.
    fn account_idle(&mut self, n: u64) {
        if self.idle_cache_version != self.statuses_version {
            self.idle_cache = self.classify_idle();
            self.idle_cache_version = self.statuses_version;
        }
        let c = self.idle_cache;
        if !c.any_live {
            // Launch/drain slack: no resident warp can make progress or is
            // waiting on anything — pure idle time.
            self.tally_cause(CycleCause::Idle, n);
            return;
        }
        self.stats.idle_cycles += n;
        if c.cause == CycleCause::LoadStall && c.load_stall_divergent {
            self.stats.exposed_load_stalls_divergent += n;
        }
        self.tally_cause(c.cause, n);
    }

    /// The full idle-cycle scan behind [`account_idle`](Self::account_idle).
    fn classify_idle(&self) -> IdleClass {
        let (cause, load_stall_divergent) = self.classify_slots(0..self.slots.len());
        IdleClass {
            any_live: self.slots.iter().flatten().any(|w| !w.done()),
            cause,
            load_stall_divergent,
        }
    }

    /// Classifies one processing block's cycle when it did not issue, with
    /// the SM-level attribution restricted to the PB's own warp slots.
    /// Profiler-only (per-PB trace tracks).
    fn classify_pb(&self, pb: usize) -> CycleCause {
        let lo = pb * self.sm.warp_slots_per_pb;
        self.classify_slots(lo..lo + self.sm.warp_slots_per_pb).0
    }

    /// The highest-priority cause any of `slots` gives a non-issue cycle
    /// ([`CycleCause`] declaration order; `Idle` when none gives one), and
    /// whether any of them is a divergent load stall.
    fn classify_slots(&self, slots: std::ops::Range<usize>) -> (CycleCause, bool) {
        let mut cause = CycleCause::Idle;
        let mut load_stall_divergent = false;
        for slot in slots {
            if let Some((c, divergent)) = self.slot_cause(slot) {
                cause = cause.min(c);
                load_stall_divergent |= divergent;
            }
        }
        (cause, load_stall_divergent)
    }

    /// The cause warp slot `slot` alone gives a non-issue cycle, and whether
    /// it is a divergent load stall; `None` for an empty, issuable or done
    /// slot.
    fn slot_cause(&self, slot: usize) -> Option<(CycleCause, bool)> {
        Some(match self.statuses[slot]? {
            WarpStatus::MemStall {
                traversal: false,
                divergent,
            } => (CycleCause::LoadStall, divergent),
            WarpStatus::MemStall {
                traversal: true, ..
            } => (CycleCause::TraversalStall, false),
            // Demoted subwarps waiting on memory: attribute by the producer
            // kind of their watched scoreboards.
            WarpStatus::NoActive {
                mem_stalled: true,
                divergent,
                ..
            } => {
                let w = self.slots[slot].as_ref().expect("slot occupied");
                if w.tst_waits_on_load() {
                    (CycleCause::LoadStall, divergent)
                } else {
                    (CycleCause::TraversalStall, false)
                }
            }
            WarpStatus::NoActive {
                mem_stalled: false, ..
            } => (CycleCause::Barrier, false),
            WarpStatus::FetchWait => (CycleCause::FetchStall, false),
            WarpStatus::SwitchWait => (CycleCause::SwitchPenalty, false),
            WarpStatus::ShortDep => (CycleCause::ShortDep, false),
            WarpStatus::Issuable | WarpStatus::Done => return None,
        })
    }

    /// Streams per-PB cause spans (and, for executed cycles, a counter
    /// sample) to the attached profiler. Only called when one is attached;
    /// outlined to keep the profiler-free step loop compact.
    #[cold]
    #[inline(never)]
    fn profile_cycle(&mut self, n: u64, sample_counters: bool) {
        for pb in 0..self.sm.n_pbs {
            let cause = if self.pb_issued[pb] {
                CycleCause::Issued
            } else {
                self.classify_pb(pb)
            };
            let cycle = self.cycle;
            if let Some(p) = self.profiler.as_mut() {
                p.pb_cycles(pb, cycle, n, cause);
            }
        }
        if sample_counters {
            let mut l0i = subwarp_mem::CacheStats::default();
            for l0 in &self.l0i {
                l0i.hits += l0.stats().hits;
                l0i.misses += l0.stats().misses;
            }
            let sample = CounterSample {
                cycle: self.cycle,
                lsu_in_flight: self.lsu.in_flight(),
                tex_in_flight: self.tex.in_flight(),
                rt_in_flight: self.rt.in_flight(),
                l0i,
                l1i: self.l1i.stats(),
                l1d: self.l1d.stats(),
                mem: self.backend.counters(self.cycle),
            };
            if let Some(p) = self.profiler.as_mut() {
                p.counters(&sample);
            }
        }
    }

    /// Step 10: retire finished warps and launch pending ones.
    fn retire_and_launch(&mut self) {
        let mut freed = false;
        // A warp only becomes done by issuing EXIT, which touches its slot
        // this cycle — so only this cycle's dirty word bits can retire.
        for word in 0..self.dirty_now.len() {
            let mut m = self.dirty_now[word];
            while m != 0 {
                let slot = (word << 6) + m.trailing_zeros() as usize;
                m &= m - 1;
                if self.slots[slot].as_ref().is_some_and(|w| w.done()) {
                    // Retired warps go back to the pool; the next launch
                    // resets one in place instead of allocating contexts
                    // from scratch.
                    if let Some(w) = self.slots[slot].take() {
                        if self.pool_enabled {
                            self.pool.push(w);
                        }
                    }
                    self.resident -= 1;
                    freed = true;
                }
            }
        }
        if freed {
            self.launch_pending();
            self.last_progress = self.cycle;
        }
        self.stats.cycles = self.cycle + 1;
    }

    fn watchdog(&self, issued: bool) -> Result<(), SimError> {
        if self.cycle >= self.sm.max_cycles {
            return Err(SimError::CycleCapExceeded {
                workload: self.wl.name.clone(),
                cap: self.sm.max_cycles,
                snapshot: self.snapshot(),
            });
        }
        if !issued && self.cycle.saturating_sub(self.last_progress) > DEADLOCK_WINDOW {
            return Err(SimError::Deadlock {
                workload: self.wl.name.clone(),
                window: DEADLOCK_WINDOW,
                snapshot: self.snapshot(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SiConfig, SmConfig};
    use crate::workload::InitValue;
    use subwarp_isa::{Barrier, CmpOp, Operand, Pred, ProgramBuilder, Reg, Scoreboard};
    use subwarp_mem::{CacheConfig, DramConfig, HierarchyConfig, MemBackendConfig, MemFaultConfig};

    /// A divergent load/store workload with far more warps than the SM has
    /// slots, so finishing it requires sustained retire→launch churn through
    /// the warp pool.
    fn churn_workload() -> Workload {
        let mut b = ProgramBuilder::new();
        let else_ = b.label("else");
        let sync = b.label("sync");
        b.imad(Reg(2), Reg(3), Operand::imm(8), Operand::imm(1 << 20));
        b.ldg(Reg(4), Reg(2), 0).wr_sb(Scoreboard(0));
        b.bssy(Barrier(0), sync);
        b.isetp(Pred(0), Reg(0), Operand::imm(16), CmpOp::Ge);
        b.bra(else_).pred(Pred(0), false);
        b.iadd(Reg(5), Reg(4), Operand::imm(100))
            .req_sb(Scoreboard(0));
        b.bra(sync);
        b.place(else_);
        b.iadd(Reg(5), Reg(4), Operand::imm(200))
            .req_sb(Scoreboard(0));
        b.bra(sync);
        b.place(sync);
        b.bsync(Barrier(0));
        b.stg(Reg(5), Reg(2), 0);
        b.exit();
        Workload::new("churn", b.build().unwrap(), 96)
            .with_init(Reg(0), InitValue::LaneId)
            .with_init(Reg(3), InitValue::GlobalTid)
    }

    fn run_churn(pool_enabled: bool) -> RunStats {
        let sm = SmConfig::turing_like();
        let si = SiConfig::best();
        let wl = churn_workload();
        let backend = sm.mem_backend.build(sm.miss_latency);
        let mut st = SimState::new(&sm, &si, &wl, 0, false, backend);
        st.pool_enabled = pool_enabled;
        while !st.finished() {
            st.step().unwrap();
        }
        st.stats
    }

    /// Same-line traffic within and across epochs. Every lane of a warp
    /// loads one word, so each load is one line; each warp works on its
    /// own line pairs `A`, `B`, fresh each pass; and on a one-line L1D a
    /// load of `A` after `B` misses again.
    ///
    /// - *Probe passes*: load `A`, idle for a number of cycles that
    ///   shrinks pass by pass, load `B` then `A` again and wait on `A`.
    ///   Some second load of `A` lands just before the first fill
    ///   completes, so it merges into a fill resolved in an earlier epoch
    ///   and completes sooner than the lookahead: the early-merge horizon.
    /// - *Burst passes*: loads of `A`, `B`, `A`, `B` with little waiting
    ///   between them, which merge within an epoch and keep a small MSHR
    ///   file full.
    fn same_line_workload(n_warps: usize) -> Workload {
        let mut b = ProgramBuilder::new();
        let probe = b.label("probe");
        let pad = b.label("pad");
        let burst = b.label("burst");
        b.imad(
            Reg(2),
            Reg(12),
            Operand::imm(1 << 16),
            Operand::imm(1 << 20),
        );
        b.mov(Reg(9), Operand::imm(40));
        b.place(probe);
        b.ldg(Reg(4), Reg(2), 0).wr_sb(Scoreboard(0));
        b.mov(Reg(13), Operand::reg(9));
        b.place(pad);
        b.iadd(Reg(13), Reg(13), Operand::imm(-1));
        b.isetp(Pred(1), Reg(13), Operand::imm(0), CmpOp::Gt);
        b.bra(pad).pred(Pred(1), false);
        b.ldg(Reg(6), Reg(2), 128).wr_sb(Scoreboard(2));
        b.ldg(Reg(5), Reg(2), 0).wr_sb(Scoreboard(1));
        b.iadd(Reg(7), Reg(5), Operand::reg(7))
            .req_sb(Scoreboard(1));
        b.iadd(Reg(7), Reg(4), Operand::reg(7))
            .req_sb(Scoreboard(0));
        b.iadd(Reg(7), Reg(6), Operand::reg(7))
            .req_sb(Scoreboard(2));
        b.iadd(Reg(2), Reg(2), Operand::imm(256));
        b.iadd(Reg(9), Reg(9), Operand::imm(-1));
        b.isetp(Pred(0), Reg(9), Operand::imm(0), CmpOp::Gt);
        b.bra(probe).pred(Pred(0), false);
        b.mov(Reg(9), Operand::imm(4));
        b.place(burst);
        b.ldg(Reg(4), Reg(2), 0).wr_sb(Scoreboard(0));
        b.ldg(Reg(5), Reg(2), 128).wr_sb(Scoreboard(1));
        b.ldg(Reg(6), Reg(2), 0).wr_sb(Scoreboard(2));
        b.iadd(Reg(7), Reg(4), Operand::reg(7))
            .req_sb(Scoreboard(0));
        b.ldg(Reg(4), Reg(2), 128).wr_sb(Scoreboard(0));
        b.iadd(Reg(7), Reg(5), Operand::reg(7))
            .req_sb(Scoreboard(1));
        b.iadd(Reg(7), Reg(6), Operand::reg(7))
            .req_sb(Scoreboard(2));
        b.iadd(Reg(7), Reg(4), Operand::reg(7))
            .req_sb(Scoreboard(0));
        b.stg(Reg(7), Reg(2), 0);
        b.iadd(Reg(2), Reg(2), Operand::imm(256));
        b.iadd(Reg(9), Reg(9), Operand::imm(-1));
        b.isetp(Pred(0), Reg(9), Operand::imm(0), CmpOp::Gt);
        b.bra(burst).pred(Pred(0), false);
        b.exit();
        Workload::new("same-line", b.build().unwrap(), n_warps)
            .with_init(Reg(12), InitValue::WarpId)
    }

    /// A small shared hierarchy: 40-cycle epochs, DRAM fills 90–130
    /// cycles after issue, and a four-entry MSHR file per SM.
    fn tiny_hierarchy() -> HierarchyConfig {
        HierarchyConfig {
            l2: CacheConfig {
                size_bytes: 4096,
                line_bytes: 128,
                ways: 2,
            },
            l2_banks: 4,
            l2_hit_latency: 40,
            l2_bank_occupancy: 2,
            mshrs: 4,
            dram: DramConfig {
                channels: 2,
                row_bytes: 1024,
                row_hit_latency: 50,
                row_miss_latency: 90,
                burst_cycles: 4,
            },
        }
    }

    /// Runs `wl` at 1, 2, 3 and 8 stepping threads and asserts every
    /// outcome — statistics and memory image, or the error with its cycle,
    /// SM and snapshot — is the same, and the same as a lockstep run whose
    /// one-cycle epochs resolve every miss before any SM steps past its
    /// cycle. Returns the one-thread outcome.
    fn same_at_every_thread_count(
        sm: SmConfig,
        si: SiConfig,
        wl: &Workload,
    ) -> Result<(RunStats, MemoryImage), SimError> {
        let sim = Simulator::new(sm, si);
        let serial = sim.run_image(wl, 1);
        for threads in [2, 3, 8] {
            assert_eq!(sim.run_image(wl, threads), serial, "{threads} threads");
        }
        let lockstep = sim.prepare(wl, false).and_then(|(mut states, shared)| {
            crate::chip::step_chip(&mut states, shared, Some(1), 1)?;
            let (stats, memories) = sim.finish(wl, states, None)?;
            Ok((stats, memory_image(&memories)))
        });
        assert_eq!(lockstep, serial, "lockstep");
        serial
    }

    #[test]
    fn nine_sms_on_a_shared_hierarchy_step_alike_on_any_thread_count() {
        let sm = SmConfig::turing_like()
            .with_mem_backend(MemBackendConfig::Hierarchical(
                HierarchyConfig::turing_like(),
            ))
            .with_n_sms(9);
        let (stats, _) = same_at_every_thread_count(sm, SiConfig::best(), &churn_workload())
            .expect("the churn workload completes");
        assert_eq!(stats.per_sm.len(), 9);
        assert!(stats.mem.l2.hits + stats.mem.l2.misses > 0);
    }

    #[test]
    fn early_merges_and_full_mshr_files_step_alike_on_any_thread_count() {
        let mut sm = SmConfig::turing_like()
            .with_mem_backend(MemBackendConfig::Hierarchical(tiny_hierarchy()))
            .with_n_sms(3);
        sm.l1d = CacheConfig {
            size_bytes: 128,
            line_bytes: 128,
            ways: 1,
        };
        let (stats, _) = same_at_every_thread_count(sm, SiConfig::best(), &same_line_workload(6))
            .expect("the same-line workload completes");
        assert!(stats.mem.mshr_merges > 0, "{:?}", stats.mem);
        assert_eq!(stats.mem.mshr_high_water, tiny_hierarchy().mshrs);
    }

    #[test]
    fn a_faulty_chip_fails_alike_on_any_thread_count() {
        let faulty = MemBackendConfig::Faulty {
            fault: MemFaultConfig {
                seed: 3,
                drop_per_mille: 20,
                ..MemFaultConfig::default()
            },
            inner: Box::new(MemBackendConfig::Hierarchical(tiny_hierarchy())),
        };
        let sm = SmConfig::turing_like()
            .with_mem_backend(faulty)
            .with_n_sms(4);
        let err = same_at_every_thread_count(sm, SiConfig::best(), &churn_workload())
            .expect_err("dropped fills deadlock the chip");
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn a_fixed_chip_steps_alike_on_any_thread_count() {
        let sm = SmConfig::turing_like().with_n_sms(4);
        let (stats, image) = same_at_every_thread_count(sm, SiConfig::best(), &churn_workload())
            .expect("the churn workload completes");
        assert_eq!(stats.per_sm.len(), 4);
        assert!(!image.is_empty());
    }

    /// Pool-reuse regression: an SM whose warps are recycled through the
    /// pool ([`WarpSim::reset`] in place) must produce statistics identical
    /// to one that drops retired warps and allocates every launch fresh.
    #[test]
    fn pooled_warp_reuse_matches_fresh_allocation() {
        let pooled = run_churn(true);
        let fresh = run_churn(false);
        assert!(pooled.cycles > 0 && pooled.instructions > 0);
        assert_eq!(pooled, fresh);
    }
}
