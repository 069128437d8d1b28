//! Run statistics, including the paper's headline metric: *exposed
//! load-to-use stalls*.

use subwarp_mem::{CacheStats, MemBackendStats};

/// The single cause attributed to one simulated SM cycle.
///
/// Every cycle an SM executes — including cycles skipped in bulk by the
/// quiescence fast-forward — is tagged with exactly one of these causes.
/// Declaration order is the attribution priority (the derived `Ord`): when
/// warps stall for several reasons at once, the cycle goes to the first.
/// It follows the exposure priority the paper's Figure 5 uses
/// (load > traversal > fetch), extended so the remaining non-issue cycles
/// are also classified rather than lumped as "idle". Conservation (the sum
/// of per-cause counts equals the SM's cycle count) is enforced at the end
/// of every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CycleCause {
    /// At least one processing block issued an instruction.
    Issued,
    /// No issue; ≥1 warp stalled on an outstanding long-latency load.
    LoadStall,
    /// No issue; the only memory-stalled warps wait on RT-core traversals.
    TraversalStall,
    /// No issue; ≥1 warp waiting on an instruction fetch.
    FetchStall,
    /// No issue; ≥1 warp serving a subwarp-switch penalty.
    SwitchPenalty,
    /// No issue; ≥1 warp in a short fixed-latency dependency bubble.
    ShortDep,
    /// No issue; every live warp is blocked at a convergence barrier.
    Barrier,
    /// No live warps ready or stalled — launch/drain slack, or the SM is
    /// empty.
    Idle,
}

impl CycleCause {
    /// Number of distinct causes (the length of [`RunStats::cycle_causes`]).
    pub const COUNT: usize = 8;

    /// All causes, in declaration (attribution-priority) order.
    pub const ALL: [CycleCause; CycleCause::COUNT] = [
        CycleCause::Issued,
        CycleCause::LoadStall,
        CycleCause::TraversalStall,
        CycleCause::FetchStall,
        CycleCause::SwitchPenalty,
        CycleCause::ShortDep,
        CycleCause::Barrier,
        CycleCause::Idle,
    ];

    /// Index of this cause in [`RunStats::cycle_causes`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short human-readable label (used by the trace exporter and tables).
    pub fn label(self) -> &'static str {
        match self {
            CycleCause::Issued => "issued",
            CycleCause::LoadStall => "load-stall",
            CycleCause::TraversalStall => "traversal-stall",
            CycleCause::FetchStall => "fetch-stall",
            CycleCause::SwitchPenalty => "switch-penalty",
            CycleCause::ShortDep => "short-dep",
            CycleCause::Barrier => "barrier",
            CycleCause::Idle => "idle",
        }
    }
}

/// Number of wall-time phases in [`RunStats::phase_nanos`].
pub const N_PHASES: usize = 5;

/// Labels for [`RunStats::phase_nanos`], index-aligned.
pub const PHASE_NAMES: [&str; N_PHASES] = ["issue", "execute", "memory", "fast_forward", "other"];

/// Counters collected over one simulation run.
///
/// The paper's key metric (§I): "we define exposed long-latency or
/// load-to-use stalls as cycles when no active warp in an SM is able to
/// issue, and at least one active warp is stalled on an outstanding memory
/// load operation." [`RunStats::exposed_load_stalls`] counts exactly those
/// cycles; the divergent variant restricts to cycles where a memory-stalled
/// warp was executing a divergent code block (its subwarp mask differs from
/// the warp's participating mask).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Cycles until all warps retired (the slowest SM's count when
    /// simulating multiple SMs).
    pub cycles: u64,
    /// Sum of per-SM cycle counts — the denominator for the stall-ratio
    /// metrics (equals [`cycles`](Self::cycles) for a single SM).
    pub sm_cycles_total: u64,
    /// Warp-instructions issued.
    pub instructions: u64,
    /// Issued instructions by execution unit, indexed by
    /// `[alu, mufu, lsu, tex, rt, control]`.
    pub issued_by_unit: [u64; 6],
    /// The subset of [`exposed_load_stalls`](Self::exposed_load_stalls)
    /// where a memory-stalled warp was in a divergent code block. Kept as
    /// a counter: no [`CycleCause`] records divergence.
    pub exposed_load_stalls_divergent: u64,
    /// Cycles where the SM issued nothing while at least one resident warp
    /// had not retired. Kept as a counter: it excludes the
    /// launch/drain slack that [`CycleCause::Idle`] also holds, so it
    /// cannot be read off the cause buckets.
    pub idle_cycles: u64,
    /// Exhaustive per-cycle cause attribution, indexed by
    /// [`CycleCause::index`]. Every simulated cycle lands in exactly one
    /// bucket; the conservation invariant checks that the buckets sum to
    /// [`sm_cycles_total`](Self::sm_cycles_total) (per SM: its `cycles`).
    /// The `exposed_*` load/traversal/fetch counts are read from here.
    pub cycle_causes: [u64; CycleCause::COUNT],
    /// subwarp-stall demotions performed (SI only).
    pub subwarp_stalls: u64,
    /// subwarp-select activations performed.
    pub subwarp_switches: u64,
    /// subwarp-yield transitions performed (SI with yield only).
    pub subwarp_yields: u64,
    /// Divergent-branch warp splits observed.
    pub divergences: u64,
    /// Barrier reconvergences observed.
    pub reconvergences: u64,
    /// L0 instruction cache hit/miss counters (summed over PBs).
    pub l0i: CacheStats,
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// RT-core traversals completed.
    pub rt_traversals: u64,
    /// Peak warps resident at once.
    pub peak_resident_warps: usize,
    /// Memory-backend counters: L2 hits/misses, MSHR merges and high-water,
    /// DRAM row locality and per-channel busy cycles. For the fixed-latency
    /// stub only the request/fill counters are populated.
    pub mem: MemBackendStats,
    /// Host wall-time spent per simulator phase, in nanoseconds, indexed by
    /// [`PHASE_NAMES`]. All zero unless the run was configured with
    /// [`SmConfig::profile_phases`](crate::SmConfig::profile_phases) — the
    /// clock reads are skipped entirely otherwise, so ordinary runs (and the
    /// determinism tests that compare whole `RunStats` values) see zeros.
    pub phase_nanos: [u64; N_PHASES],
    /// Per-SM statistics, indexed by SM id, for multi-SM runs (empty for a
    /// single SM, where the aggregate *is* the SM). Each entry is that SM's
    /// own counters — `cycles` is its local finish time, `mem` its share of
    /// the (possibly chip-shared) memory partition's traffic — and the
    /// nested `per_sm` vectors are always empty.
    pub per_sm: Vec<RunStats>,
}

impl RunStats {
    /// Speedup of this run relative to `baseline` (>1 means faster).
    ///
    /// # Panics
    /// Panics if either run has zero cycles.
    pub fn speedup_vs(&self, baseline: &RunStats) -> f64 {
        assert!(
            self.cycles > 0 && baseline.cycles > 0,
            "runs must have cycles"
        );
        baseline.cycles as f64 / self.cycles as f64
    }

    fn time_denominator(&self) -> u64 {
        if self.sm_cycles_total > 0 {
            self.sm_cycles_total
        } else {
            self.cycles
        }
    }

    /// Cycles where the SM issued nothing and ≥1 warp was stalled on an
    /// outstanding long-latency memory operation
    /// ([`CycleCause::LoadStall`]).
    pub fn exposed_load_stalls(&self) -> u64 {
        self.cause(CycleCause::LoadStall)
    }

    /// Cycles where the SM issued nothing and the only memory-stalled warps
    /// were waiting on RT-core traversals (the Amdahl's-law component the
    /// paper identifies in §VI, limiter #2) — disjoint from
    /// [`exposed_load_stalls`](Self::exposed_load_stalls)
    /// ([`CycleCause::TraversalStall`]).
    pub fn exposed_traversal_stalls(&self) -> u64 {
        self.cause(CycleCause::TraversalStall)
    }

    /// Cycles where the SM issued nothing and ≥1 warp was waiting on an
    /// instruction fetch (the I-cache-thrashing limiter, §V-A/§VI;
    /// [`CycleCause::FetchStall`]).
    pub fn exposed_fetch_stalls(&self) -> u64 {
        self.cause(CycleCause::FetchStall)
    }

    /// Exposed load-to-use stall cycles as a fraction of kernel time
    /// (the y-axis of the paper's Figure 3).
    pub fn exposed_ratio(&self) -> f64 {
        if self.time_denominator() == 0 {
            0.0
        } else {
            self.exposed_load_stalls() as f64 / self.time_denominator() as f64
        }
    }

    /// Divergent exposed stall cycles as a fraction of kernel time.
    pub fn exposed_divergent_ratio(&self) -> f64 {
        if self.time_denominator() == 0 {
            0.0
        } else {
            self.exposed_load_stalls_divergent as f64 / self.time_denominator() as f64
        }
    }

    /// Folds one SM's statistics into a whole-GPU aggregate: counters sum,
    /// `cycles` takes the slowest SM.
    pub fn accumulate_sm(&mut self, sm: &RunStats) {
        self.cycles = self.cycles.max(sm.cycles);
        self.sm_cycles_total += sm.cycles;
        self.instructions += sm.instructions;
        for (a, b) in self.issued_by_unit.iter_mut().zip(sm.issued_by_unit.iter()) {
            *a += b;
        }
        self.exposed_load_stalls_divergent += sm.exposed_load_stalls_divergent;
        self.idle_cycles += sm.idle_cycles;
        for (a, b) in self.cycle_causes.iter_mut().zip(sm.cycle_causes.iter()) {
            *a += b;
        }
        self.subwarp_stalls += sm.subwarp_stalls;
        self.subwarp_switches += sm.subwarp_switches;
        self.subwarp_yields += sm.subwarp_yields;
        self.divergences += sm.divergences;
        self.reconvergences += sm.reconvergences;
        self.l0i.hits += sm.l0i.hits;
        self.l0i.misses += sm.l0i.misses;
        self.l1i.hits += sm.l1i.hits;
        self.l1i.misses += sm.l1i.misses;
        self.l1d.hits += sm.l1d.hits;
        self.l1d.misses += sm.l1d.misses;
        self.rt_traversals += sm.rt_traversals;
        self.peak_resident_warps += sm.peak_resident_warps;
        self.mem.merge(&sm.mem);
        for (a, b) in self.phase_nanos.iter_mut().zip(sm.phase_nanos.iter()) {
            *a += b;
        }
    }

    /// Fractional reduction of a counter relative to `baseline`
    /// (the y-axis of the paper's Figure 12b). Positive = reduced.
    pub fn reduction(ours: u64, baseline: u64) -> f64 {
        if baseline == 0 {
            0.0
        } else {
            1.0 - ours as f64 / baseline as f64
        }
    }

    /// Cycles attributed to `cause`.
    pub fn cause(&self, cause: CycleCause) -> u64 {
        self.cycle_causes[cause.index()]
    }

    /// Sum of all per-cause cycle counts. The conservation invariant
    /// guarantees this equals [`sm_cycles_total`](Self::sm_cycles_total)
    /// (for a single-SM run: [`cycles`](Self::cycles)).
    pub fn causes_total(&self) -> u64 {
        self.cycle_causes.iter().sum()
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Flattens `RunStats` into its 44 fixed-order integer fields, plus the
/// variable-length per-channel busy-cycle vector. `RunStats` is all-integer
/// by construction, so this codec is exact: `units_to_stats(stats_to_units)`
/// is the identity, which is what makes resumed sweeps (and memoized
/// service results) byte-identical.
pub fn stats_to_units(s: &RunStats) -> (Vec<u64>, Vec<u64>) {
    let mut u = Vec::with_capacity(44);
    u.push(s.cycles);
    u.push(s.sm_cycles_total);
    u.push(s.instructions);
    u.extend_from_slice(&s.issued_by_unit);
    u.push(s.exposed_load_stalls());
    u.push(s.exposed_load_stalls_divergent);
    u.push(s.exposed_traversal_stalls());
    u.push(s.exposed_fetch_stalls());
    u.push(s.idle_cycles);
    u.extend_from_slice(&s.cycle_causes);
    u.push(s.subwarp_stalls);
    u.push(s.subwarp_switches);
    u.push(s.subwarp_yields);
    u.push(s.divergences);
    u.push(s.reconvergences);
    u.push(s.l0i.hits);
    u.push(s.l0i.misses);
    u.push(s.l1i.hits);
    u.push(s.l1i.misses);
    u.push(s.l1d.hits);
    u.push(s.l1d.misses);
    u.push(s.rt_traversals);
    u.push(s.peak_resident_warps as u64);
    u.push(s.mem.l2.hits);
    u.push(s.mem.l2.misses);
    u.push(s.mem.mshr_merges);
    u.push(s.mem.mshr_high_water as u64);
    u.push(s.mem.row_hits);
    u.push(s.mem.row_misses);
    u.push(s.mem.fills);
    u.push(s.mem.total_fill_latency);
    u.push(s.mem.requests);
    debug_assert_eq!(u.len(), 44);
    (u, s.mem.channel_busy_cycles.clone())
}

/// Inverse of [`stats_to_units`]. Returns `None` when the fixed-field
/// vector has the wrong arity (a torn or foreign journal line), or when
/// its stored `exposed_*` load/traversal/fetch fields (9, 11, 12) disagree
/// with the cycle causes they are derived from (15, 16, 17) — the codec
/// only accepts what [`stats_to_units`] can write.
pub fn units_to_stats(u: &[u64], ch: &[u64]) -> Option<RunStats> {
    if u.len() != 44 || (u[9], u[11], u[12]) != (u[15], u[16], u[17]) {
        return None;
    }
    let mut s = RunStats {
        cycles: u[0],
        sm_cycles_total: u[1],
        instructions: u[2],
        exposed_load_stalls_divergent: u[10],
        idle_cycles: u[13],
        subwarp_stalls: u[22],
        subwarp_switches: u[23],
        subwarp_yields: u[24],
        divergences: u[25],
        reconvergences: u[26],
        rt_traversals: u[33],
        peak_resident_warps: u[34] as usize,
        ..RunStats::default()
    };
    s.issued_by_unit.copy_from_slice(&u[3..9]);
    s.cycle_causes.copy_from_slice(&u[14..22]);
    s.l0i.hits = u[27];
    s.l0i.misses = u[28];
    s.l1i.hits = u[29];
    s.l1i.misses = u[30];
    s.l1d.hits = u[31];
    s.l1d.misses = u[32];
    s.mem.l2.hits = u[35];
    s.mem.l2.misses = u[36];
    s.mem.mshr_merges = u[37];
    s.mem.mshr_high_water = u[38] as usize;
    s.mem.row_hits = u[39];
    s.mem.row_misses = u[40];
    s.mem.fills = u[41];
    s.mem.total_fill_latency = u[42];
    s.mem.requests = u[43];
    s.mem.channel_busy_cycles = ch.to_vec();
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_ratios() {
        let run = |cycles, load_stalls| {
            let mut s = RunStats {
                cycles,
                ..Default::default()
            };
            s.cycle_causes[CycleCause::LoadStall.index()] = load_stalls;
            s
        };
        let (base, si) = (run(1000, 400), run(800, 100));
        assert!((si.speedup_vs(&base) - 1.25).abs() < 1e-12);
        assert!((base.exposed_ratio() - 0.4).abs() < 1e-12);
        assert!(
            (RunStats::reduction(si.exposed_load_stalls(), base.exposed_load_stalls()) - 0.75)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn zero_cycle_ratios_are_zero() {
        let s = RunStats::default();
        assert_eq!(s.exposed_ratio(), 0.0);
        assert_eq!(s.exposed_divergent_ratio(), 0.0);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(RunStats::reduction(5, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "must have cycles")]
    fn speedup_of_empty_run_panics() {
        let _ = RunStats::default().speedup_vs(&RunStats::default());
    }
}
