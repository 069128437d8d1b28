//! Simulator configuration: the Turing-like SM (paper Table I) and the
//! Subwarp Interleaving feature knobs (paper §III).

use crate::error::InvariantLevel;
use subwarp_mem::{CacheConfig, MemBackendConfig};
use subwarp_rt::RtCoreModel;

/// Threads per warp.
pub const WARP_SIZE: usize = 32;

/// Warp-scheduler arbitration policy within a processing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing the same warp until it stalls, then
    /// fall back to the oldest ready warp.
    Gto,
    /// Loose round-robin over ready warps.
    Lrr,
}

/// Which side of a divergent branch keeps the ACTIVE state.
///
/// The paper's §VI (limiter #3) observes that subwarp execution order
/// matters and suggests randomization as future work; this knob enables that
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergeOrder {
    /// The fall-through (not-taken) side stays active — matches the paper's
    /// Figure 10 walkthrough and is the default.
    FallthroughFirst,
    /// The taken side stays active.
    TakenFirst,
    /// Pseudo-randomly pick a side per divergence event (deterministic per
    /// warp and event count).
    Random,
    /// Honour the branch's compiler [`subwarp_isa::StallHint`]: the side
    /// with the higher load-stall probability executes first, leaving the
    /// other side for latency tolerance (the paper's §VI future-work
    /// proposal). Unhinted branches fall back to fall-through-first.
    Hinted,
}

/// SM hardware parameters (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct SmConfig {
    /// Streaming multiprocessors, 1 to 72 (Table I: 2; a full TU102 has
    /// 72). Warps are distributed round-robin across SMs. With the
    /// fixed-latency stub (§IV-A) SMs share nothing; with the hierarchical
    /// backend and [`shared_partitions`](Self::shared_partitions) the SMs
    /// contend for one chip-wide L2/DRAM partition. Reported cycles are the
    /// slowest SM's.
    pub n_sms: usize,
    /// Share the memory partition (L2 banks, DRAM rows and channels) across
    /// all SMs of a multi-SM run (default: true). Only meaningful for
    /// backends with shared state (the hierarchical model); shareless
    /// backends behave identically either way. `false` restores the
    /// pre-chip model of one private hierarchy per SM.
    pub shared_partitions: bool,
    /// Processing blocks per SM (Table I: 4).
    pub n_pbs: usize,
    /// Warp slots per processing block (Table I sweeps {2, 4, 8}).
    pub warp_slots_per_pb: usize,
    /// L1 miss latency in cycles for the fixed-latency
    /// [`MemBackendConfig::Fixed`] backend (Table I sweeps {300, 600, 900}).
    /// Ignored when [`mem_backend`](Self::mem_backend) selects the
    /// hierarchical model, which derives miss latency from L2/DRAM state.
    pub miss_latency: u64,
    /// LSU L1-hit latency.
    pub lsu_hit_latency: u64,
    /// TEX-path L1-hit latency.
    pub tex_hit_latency: u64,
    /// Shared-memory (LDS) latency.
    pub lds_latency: u64,
    /// ALU result latency.
    pub alu_latency: u64,
    /// MUFU (transcendental) result latency.
    pub mufu_latency: u64,
    /// Instruction-line fill latency on an L0I miss that hits the L1I.
    pub ifetch_l1_latency: u64,
    /// Instruction-line fill latency on an L1I miss (serviced by the stub).
    pub ifetch_miss_latency: u64,
    /// Per-processing-block L0 instruction cache geometry.
    pub l0i: CacheConfig,
    /// Per-SM L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// Per-SM L1 data cache geometry.
    pub l1d: CacheConfig,
    /// RT-core traversal latency model.
    pub rt: RtCoreModel,
    /// Cycles the baseline divergence unit takes to activate a READY subwarp
    /// (convergence-driven selection).
    pub baseline_select_latency: u64,
    /// Warp-scheduler arbitration policy.
    pub scheduler: SchedulerPolicy,
    /// Which side of a divergent branch keeps executing.
    pub diverge_order: DivergeOrder,
    /// Hard cycle cap — a run exceeding this fails with
    /// [`SimError::CycleCapExceeded`](crate::SimError::CycleCapExceeded).
    pub max_cycles: u64,
    /// How much per-cycle invariant checking the simulator performs
    /// (default: [`InvariantLevel::Cheap`], always on).
    pub invariants: InvariantLevel,
    /// Event-driven quiescence fast-forward (default: on). Disabling it
    /// forces a cycle-by-cycle step loop — results must be bit-identical
    /// either way; the knob exists for parity regression tests and for
    /// cycle-granular profiling of quiescent stretches.
    pub fast_forward: bool,
    /// Timing model for traffic that misses the L1D: the paper's
    /// fixed-latency stub (default) or the cycle-level L2 + MSHR +
    /// DRAM-channel hierarchy. Timing-only — data values always come from
    /// the functional [`DataMemory`](subwarp_mem::DataMemory).
    pub mem_backend: MemBackendConfig,
    /// Collect per-phase wall-time (issue/execute/memory/fast-forward) into
    /// [`RunStats::phase_nanos`](crate::RunStats::phase_nanos). Off by
    /// default: the clock reads cost real throughput, and simulated results
    /// are unaffected either way.
    pub profile_phases: bool,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig::turing_like()
    }
}

impl SmConfig {
    /// The paper's baseline Turing-like configuration (Table I defaults:
    /// 4 processing blocks × 8 warp slots, 600-cycle miss latency, 128 KB
    /// L1D, 16 KB L0I, 64 KB L1I).
    pub fn turing_like() -> SmConfig {
        SmConfig {
            n_sms: 1,
            shared_partitions: true,
            n_pbs: 4,
            warp_slots_per_pb: 8,
            miss_latency: 600,
            lsu_hit_latency: 30,
            tex_hit_latency: 50,
            lds_latency: 25,
            alu_latency: 4,
            mufu_latency: 16,
            ifetch_l1_latency: 20,
            ifetch_miss_latency: 200,
            l0i: CacheConfig::l0_instruction(),
            l1i: CacheConfig::l1_instruction(),
            l1d: CacheConfig::l1_data(),
            rt: RtCoreModel::default(),
            baseline_select_latency: 1,
            scheduler: SchedulerPolicy::Gto,
            diverge_order: DivergeOrder::FallthroughFirst,
            max_cycles: 200_000_000,
            invariants: InvariantLevel::Cheap,
            fast_forward: true,
            mem_backend: MemBackendConfig::Fixed,
            profile_phases: false,
        }
    }

    /// Enables per-phase wall-time collection (see
    /// [`profile_phases`](Self::profile_phases)).
    pub fn with_profile_phases(mut self, enabled: bool) -> SmConfig {
        self.profile_phases = enabled;
        self
    }

    /// Sets the per-cycle invariant-checking level.
    pub fn with_invariants(mut self, level: InvariantLevel) -> SmConfig {
        self.invariants = level;
        self
    }

    /// Enables or disables the quiescence fast-forward. Simulation results
    /// are identical either way (pinned by the fast-forward parity tests);
    /// `false` trades speed for a strictly cycle-by-cycle step loop.
    pub fn with_fast_forward(mut self, enabled: bool) -> SmConfig {
        self.fast_forward = enabled;
        self
    }

    /// Checks every field is in range, returning a description of the first
    /// problem. [`Simulator::run`](crate::Simulator::run) calls this before
    /// the first cycle and surfaces failures as
    /// [`SimError::InvalidConfig`](crate::SimError::InvalidConfig).
    pub fn validate(&self) -> Result<(), String> {
        if self.n_sms == 0 {
            return Err("n_sms must be at least 1".into());
        }
        if self.n_sms > 72 {
            // Every SM's state stays live for the whole run, so the cap at
            // a full TU102 also bounds what one request can allocate.
            return Err(format!("n_sms must be at most 72, got {}", self.n_sms));
        }
        if self.n_pbs == 0 {
            return Err("n_pbs must be at least 1".into());
        }
        if self.warp_slots_per_pb == 0 {
            return Err("warp_slots_per_pb must be at least 1".into());
        }
        if self.warp_slots_per_pb > 64 {
            // The issue/stall schedulers track per-PB slot state in u64
            // bitmasks; real SMs have 8-16 slots per scheduler anyway.
            return Err("warp_slots_per_pb must be at most 64".into());
        }
        if self.max_cycles == 0 {
            return Err("max_cycles must be non-zero".into());
        }
        if self.alu_latency == 0 {
            return Err("alu_latency must be at least 1 cycle".into());
        }
        for (name, c) in [("l0i", &self.l0i), ("l1i", &self.l1i), ("l1d", &self.l1d)] {
            if c.ways == 0 || c.line_bytes == 0 || !c.line_bytes.is_power_of_two() {
                return Err(format!("{name} cache geometry is degenerate: {c:?}"));
            }
            if c.size_bytes == 0 || c.size_bytes % (c.line_bytes * c.ways as u64) != 0 {
                return Err(format!(
                    "{name} capacity {} is not a multiple of line_bytes*ways",
                    c.size_bytes
                ));
            }
        }
        self.mem_backend
            .validate()
            .map_err(|what| format!("mem_backend: {what}"))?;
        Ok(())
    }

    /// Sets the number of SMs (Table I: 2). Workload warps distribute
    /// round-robin across SMs.
    pub fn with_n_sms(mut self, n: usize) -> SmConfig {
        assert!(n >= 1);
        self.n_sms = n;
        self
    }

    /// Enables or disables chip-wide sharing of the memory partition (see
    /// [`shared_partitions`](Self::shared_partitions)).
    pub fn with_shared_partitions(mut self, shared: bool) -> SmConfig {
        self.shared_partitions = shared;
        self
    }

    /// Sets the L1 miss latency (paper Figure 13 sweeps 300/600/900).
    pub fn with_miss_latency(mut self, cycles: u64) -> SmConfig {
        self.miss_latency = cycles;
        self
    }

    /// Selects the memory-hierarchy timing backend for L1-miss traffic.
    pub fn with_mem_backend(mut self, backend: MemBackendConfig) -> SmConfig {
        self.mem_backend = backend;
        self
    }

    /// Sets warp slots per processing block (paper Figure 14 sweeps total
    /// SM warp slots 8/16/32, i.e. 2/4/8 per block).
    pub fn with_warp_slots_per_pb(mut self, slots: usize) -> SmConfig {
        assert!(slots >= 1);
        self.warp_slots_per_pb = slots;
        self
    }

    /// The paper's §V-C-4 shipping-GPU variant: 4× smaller L0/L1
    /// instruction caches.
    pub fn with_small_icaches(mut self) -> SmConfig {
        self.l0i = CacheConfig::l0_instruction_small();
        self.l1i = CacheConfig::l1_instruction_small();
        self
    }

    /// Total warp slots across the SM.
    pub fn total_warp_slots(&self) -> usize {
        self.n_pbs * self.warp_slots_per_pb
    }
}

/// When stall-driven subwarp selection triggers, as a function of `N`, the
/// fraction of stalled warps among live warps (paper §III-C-3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectPolicy {
    /// `N > 0`: switch as soon as any warp in the processing block stalls.
    AnyStalled,
    /// `N ≥ 0.5`: switch when at least half the live warps have stalled.
    HalfStalled,
    /// `N = 1`: switch only when every live warp has stalled.
    AllStalled,
}

impl SelectPolicy {
    /// Evaluates the trigger given stalled/live warp counts.
    pub fn triggers(self, stalled: usize, live: usize) -> bool {
        if live == 0 || stalled == 0 {
            return false;
        }
        match self {
            SelectPolicy::AnyStalled => true,
            SelectPolicy::HalfStalled => 2 * stalled >= live,
            SelectPolicy::AllStalled => stalled == live,
        }
    }

    /// Short name used in reports (`N>0`, `N>=0.5`, `N=1`).
    pub fn label(self) -> &'static str {
        match self {
            SelectPolicy::AnyStalled => "N>0",
            SelectPolicy::HalfStalled => "N>=0.5",
            SelectPolicy::AllStalled => "N=1",
        }
    }
}

/// Subwarp Interleaving feature configuration (paper §III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiConfig {
    /// Master enable. When false, the simulator behaves as the baseline
    /// Turing-like SM (subwarps serialize; switches happen only at
    /// convergence points).
    pub enabled: bool,
    /// Stall-driven selection trigger policy.
    pub policy: SelectPolicy,
    /// Enables the optional `subwarp-yield` transition: after issuing
    /// `yield_threshold` long-latency operations, the active subwarp
    /// eagerly moves to READY (paper §III-B; the "Both" configurations of
    /// Figure 12a).
    pub yield_enabled: bool,
    /// Long-latency issues before a hardware yield fires.
    pub yield_threshold: u32,
    /// Thread-status-table entries per warp = maximum concurrently demoted
    /// subwarps (paper Figure 15 sweeps 2/4/6/unlimited(32)).
    pub max_subwarps: usize,
    /// Fixed subwarp-select cost (paper §III-C-3: 6 cycles).
    pub switch_latency: u64,
    /// Dynamic-Warp-Subdivision-like slot budget (paper §VII-B): when set,
    /// a subwarp can only be demoted if a *free warp slot* exists in the
    /// processing block to notionally host it — DWS "relies on forking new
    /// warps at divergence points ... \[and\] is limited by availability of
    /// unused warp slots", whereas SI "allows for unlimited subwarp
    /// creation". `false` models SI proper.
    pub slot_limited: bool,
}

impl SiConfig {
    /// Subwarp Interleaving disabled — the baseline SM.
    pub fn disabled() -> SiConfig {
        SiConfig {
            enabled: false,
            policy: SelectPolicy::HalfStalled,
            yield_enabled: false,
            yield_threshold: 1,
            max_subwarps: 32,
            switch_latency: 6,
            slot_limited: false,
        }
    }

    /// A Dynamic-Warp-Subdivision-like comparison point (paper §VII-B):
    /// interleaving capacity is bounded by free warp slots in the
    /// processing block rather than a per-warp thread status table.
    pub fn dws_like() -> SiConfig {
        SiConfig {
            slot_limited: true,
            yield_enabled: false,
            ..SiConfig::best()
        }
    }

    /// Switch-on-stall only ("SOS" in Figure 12a) with the given trigger
    /// policy.
    pub fn sos(policy: SelectPolicy) -> SiConfig {
        SiConfig {
            enabled: true,
            policy,
            ..SiConfig::disabled()
        }
    }

    /// SOS plus subwarp-yield ("Both" in Figure 12a) with the given trigger
    /// policy.
    pub fn both(policy: SelectPolicy) -> SiConfig {
        SiConfig {
            enabled: true,
            policy,
            yield_enabled: true,
            ..SiConfig::disabled()
        }
    }

    /// The paper's single best-performing setting: Both, `N ≥ 0.5`
    /// (§V-B: "The single best performing setting is Both, N ≥ 0.5").
    pub fn best() -> SiConfig {
        SiConfig::both(SelectPolicy::HalfStalled)
    }

    /// Convenience constructor for quickstarts: switch-on-stall with the
    /// `N ≥ 0.5` trigger.
    pub fn switch_on_stall() -> SiConfig {
        SiConfig::sos(SelectPolicy::HalfStalled)
    }

    /// Caps the thread status table at `n` subwarp entries. A degenerate
    /// value (0) is reported as [`SimError::InvalidConfig`] at `run` time
    /// by [`validate`](Self::validate), not here — builders never panic.
    ///
    /// [`SimError::InvalidConfig`]: crate::SimError::InvalidConfig
    pub fn with_max_subwarps(mut self, n: usize) -> SiConfig {
        self.max_subwarps = n;
        self
    }

    /// Checks every field is in range, returning a description of the first
    /// problem. [`Simulator::run`](crate::Simulator::run) calls this before
    /// the first cycle and surfaces failures as
    /// [`SimError::InvalidConfig`](crate::SimError::InvalidConfig).
    pub fn validate(&self) -> Result<(), String> {
        if self.max_subwarps == 0 {
            return Err("max_subwarps must be at least 1".into());
        }
        if self.enabled && self.yield_enabled && self.yield_threshold == 0 {
            return Err("yield_threshold must be at least 1 when yield is enabled".into());
        }
        Ok(())
    }

    /// Report label, e.g. `SOS,N>=0.5` or `Both,N=1`.
    pub fn label(&self) -> String {
        if !self.enabled {
            return "baseline".to_owned();
        }
        let kind = if self.yield_enabled { "Both" } else { "SOS" };
        format!("{kind},{}", self.policy.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turing_like_matches_table_1() {
        let c = SmConfig::turing_like();
        assert_eq!(c.n_pbs, 4);
        assert_eq!(c.warp_slots_per_pb, 8);
        assert_eq!(c.total_warp_slots(), 32);
        assert_eq!(c.miss_latency, 600);
        assert_eq!(c.l1d.size_bytes, 128 * 1024);
        assert_eq!(c.l0i.size_bytes, 16 * 1024);
        assert_eq!(c.l1i.size_bytes, 64 * 1024);
    }

    #[test]
    fn n_sms_is_bounded_by_a_full_chip() {
        let sm = |n| SmConfig {
            n_sms: n,
            ..SmConfig::turing_like()
        };
        assert!(sm(0).validate().is_err());
        assert_eq!(sm(72).validate(), Ok(()));
        assert_eq!(
            sm(73).validate(),
            Err("n_sms must be at most 72, got 73".to_string())
        );
    }

    #[test]
    fn small_icache_variant_is_4x_smaller() {
        let c = SmConfig::turing_like().with_small_icaches();
        assert_eq!(c.l0i.size_bytes, 4 * 1024);
        assert_eq!(c.l1i.size_bytes, 16 * 1024);
    }

    #[test]
    fn select_policy_triggers() {
        use SelectPolicy::*;
        assert!(!AnyStalled.triggers(0, 8));
        assert!(AnyStalled.triggers(1, 8));
        assert!(!HalfStalled.triggers(3, 8));
        assert!(HalfStalled.triggers(4, 8));
        assert!(!AllStalled.triggers(7, 8));
        assert!(AllStalled.triggers(8, 8));
        assert!(!AllStalled.triggers(0, 0));
    }

    #[test]
    fn labels() {
        assert_eq!(SiConfig::disabled().label(), "baseline");
        assert_eq!(SiConfig::sos(SelectPolicy::AllStalled).label(), "SOS,N=1");
        assert_eq!(
            SiConfig::both(SelectPolicy::HalfStalled).label(),
            "Both,N>=0.5"
        );
        assert_eq!(SiConfig::best().label(), "Both,N>=0.5");
    }

    #[test]
    fn validate_catches_degenerate_fields() {
        assert!(SmConfig::turing_like().validate().is_ok());
        assert!(SiConfig::best().validate().is_ok());

        let mut sm = SmConfig::turing_like();
        sm.n_pbs = 0;
        assert!(sm.validate().unwrap_err().contains("n_pbs"));
        let mut sm = SmConfig::turing_like();
        sm.max_cycles = 0;
        assert!(sm.validate().unwrap_err().contains("max_cycles"));
        let mut sm = SmConfig::turing_like();
        sm.l1d.line_bytes = 100; // not a power of two
        assert!(sm.validate().unwrap_err().contains("l1d"));

        let mut sm = SmConfig::turing_like();
        let mut h = subwarp_mem::HierarchyConfig::turing_like();
        h.mshrs = 0;
        sm.mem_backend = MemBackendConfig::Hierarchical(h);
        assert!(sm.validate().unwrap_err().contains("mem_backend"));

        let mut si = SiConfig::best();
        si.max_subwarps = 0;
        assert!(si.validate().unwrap_err().contains("max_subwarps"));
        let mut si = SiConfig::best();
        si.yield_threshold = 0;
        assert!(si.validate().unwrap_err().contains("yield_threshold"));
    }

    #[test]
    fn invariant_level_defaults_to_cheap() {
        assert_eq!(SmConfig::turing_like().invariants, InvariantLevel::Cheap);
        let full = SmConfig::turing_like().with_invariants(InvariantLevel::Full);
        assert_eq!(full.invariants, InvariantLevel::Full);
    }

    #[test]
    fn si_constructors() {
        assert!(!SiConfig::disabled().enabled);
        let sos = SiConfig::switch_on_stall();
        assert!(sos.enabled && !sos.yield_enabled);
        let both = SiConfig::best();
        assert!(both.enabled && both.yield_enabled);
        assert_eq!(both.switch_latency, 6);
        assert_eq!(SiConfig::best().with_max_subwarps(4).max_subwarps, 4);
    }
}
