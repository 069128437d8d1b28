//! Pluggable memory-hierarchy timing backends for L1-miss traffic.
//!
//! The paper's simulator stubs everything beyond the SM with a fixed-latency
//! model (§IV-A). [`MemoryBackend`] makes that stub *one implementation of a
//! trait*: [`FixedLatencyBackend`] reproduces it bit-for-bit, while
//! [`HierarchicalBackend`] models a banked, set-associative L2 fronted by
//! per-SM MSHRs and a GDDR6-like multi-channel DRAM, turning miss latency
//! from a constant into a load-dependent distribution.
//!
//! Both backends are **timing-only**: data values always come from
//! [`DataMemory`](crate::DataMemory), so swapping backends can never change
//! architectural results — a property the differential fuzzer checks.
//!
//! The contract is *analytic at issue time*: [`MemoryBackend::miss`] is
//! called once per L1 miss and immediately returns the absolute cycle the
//! fill completes, mutating backend state (bank/channel occupancy, MSHR
//! allocation) as a side effect. Because backend state only changes on
//! issue, a quiescent SM stretch cannot change future completions — which is
//! exactly what the event-driven fast-forward in `subwarp-core` needs, via
//! [`MemoryBackend::next_event`].
//!
//! A chip whose SMs share one [`Partition`] splits each miss into a request
//! and a reply: the SM records the miss when it issues it, and the chip
//! resolves it later through [`MemoryBackend::miss_shared`], in global
//! `(cycle, SM id, issue order)`. The answer can wait because no shared
//! miss completes sooner than [`Partition::lookahead`] cycles after issue,
//! except a merge into a fill already in the SM's own MSHR file
//! ([`MemoryBackend::merge_candidate`]).

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats};
use subwarp_prng::splitmix64;

/// Timing model for memory traffic that misses the SM-local L1.
///
/// Implementations convert an L1 miss issued at cycle `now` into an absolute
/// completion cycle. They never carry data — only time.
pub trait MemoryBackend: std::fmt::Debug + Send {
    /// Issues one L1-miss fill request for cache line `line` at cycle `now`
    /// and returns the absolute cycle the fill completes (always `> now`).
    ///
    /// Calls must be made with non-decreasing `now` (the SM clock).
    ///
    /// # Panics
    /// A handle onto a chip-shared [`Partition`] panics: its misses go
    /// through [`miss_shared`](Self::miss_shared).
    fn miss(&mut self, now: u64, line: u64) -> u64;

    /// [`miss`](Self::miss) for a handle onto the chip-shared `partition`
    /// (see [`MemBackendConfig::build_chip`]). The chip calls it for every
    /// SM's misses in global `(now, SM id, issue order)`. Backends that
    /// share nothing ignore `partition`.
    fn miss_shared(&mut self, partition: &mut Partition, now: u64, line: u64) -> u64 {
        let _ = partition;
        self.miss(now, line)
    }

    /// The completion cycle of the in-flight fill that a miss to `line` at
    /// `now` may merge into, if this SM's MSHR file holds one. This is the
    /// only way a shared-partition miss can complete sooner than
    /// [`Partition::lookahead`] after issue. Whether it merges is decided
    /// when the miss is resolved.
    fn merge_candidate(&self, _now: u64, _line: u64) -> Option<u64> {
        None
    }

    /// Earliest in-flight completion strictly after `now`, if any.
    ///
    /// Used by the quiescence fast-forward to clamp clock jumps; a backend
    /// with no outstanding state (the fixed-latency stub) returns `None`.
    fn next_event(&self, now: u64) -> Option<u64>;

    /// Snapshot of the backend's counters.
    fn stats(&self) -> MemBackendStats;

    /// Instantaneous occupancy counters for profiler tracks, or `None` if
    /// the backend has no dynamic state worth a track (the fixed stub —
    /// keeping default traces byte-identical).
    fn counters(&self, _now: u64) -> Option<MemCounters> {
        None
    }

    /// Shows a handle onto a chip-shared `partition` the partition's
    /// current state, which its [`counters`](Self::counters) report until
    /// the next call. Backends that share nothing ignore it.
    fn observe(&mut self, _partition: &Partition) {}
}

/// Counters accumulated by a [`MemoryBackend`] over one SM's run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemBackendStats {
    /// L2 hit/miss counters (zero for the fixed-latency stub).
    pub l2: CacheStats,
    /// Fill requests merged into an already-outstanding MSHR entry.
    pub mshr_merges: u64,
    /// Peak simultaneously-outstanding MSHR entries.
    pub mshr_high_water: usize,
    /// DRAM accesses that hit the channel's open row.
    pub row_hits: u64,
    /// DRAM accesses that needed an activate (row miss).
    pub row_misses: u64,
    /// Data-burst cycles consumed per DRAM channel (empty for the stub).
    pub channel_busy_cycles: Vec<u64>,
    /// Fill requests that allocated a new in-flight fill (excludes merges).
    pub fills: u64,
    /// Sum over fills of `completion - issue` cycles.
    pub total_fill_latency: u64,
    /// Total [`MemoryBackend::miss`] calls (fills + merges).
    pub requests: u64,
}

impl MemBackendStats {
    /// Mean fill latency in cycles; zero when there were no fills.
    pub fn mean_fill_latency(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.total_fill_latency as f64 / self.fills as f64
        }
    }

    /// Per-channel utilization (busy-cycle fraction of `cycles`); empty for
    /// the fixed-latency stub.
    pub fn channel_utilization(&self, cycles: u64) -> Vec<f64> {
        self.channel_busy_cycles
            .iter()
            .map(|&b| {
                if cycles == 0 {
                    0.0
                } else {
                    b as f64 / cycles as f64
                }
            })
            .collect()
    }

    /// Folds another SM's backend counters into this aggregate: counters
    /// sum, the MSHR high-water takes the max, channels merge element-wise.
    pub fn merge(&mut self, other: &MemBackendStats) {
        self.l2.hits += other.l2.hits;
        self.l2.misses += other.l2.misses;
        self.mshr_merges += other.mshr_merges;
        self.mshr_high_water = self.mshr_high_water.max(other.mshr_high_water);
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        if self.channel_busy_cycles.len() < other.channel_busy_cycles.len() {
            self.channel_busy_cycles
                .resize(other.channel_busy_cycles.len(), 0);
        }
        for (a, b) in self
            .channel_busy_cycles
            .iter_mut()
            .zip(other.channel_busy_cycles.iter())
        {
            *a += b;
        }
        self.fills += other.fills;
        self.total_fill_latency += other.total_fill_latency;
        self.requests += other.requests;
    }
}

/// Instantaneous backend occupancy, sampled for profiler counter tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Cumulative L2 hit/miss counters at the sample cycle.
    pub l2: CacheStats,
    /// MSHR entries whose fills are still in flight.
    pub mshr_in_flight: usize,
    /// DRAM channels currently transferring a burst.
    pub busy_channels: usize,
}

/// Which [`MemoryBackend`] an SM uses for L1-miss traffic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum MemBackendConfig {
    /// The paper's fixed-latency stub (§IV-A): every L1 miss completes after
    /// the SM's configured miss latency. The default.
    #[default]
    Fixed,
    /// Cycle-level banked L2 + per-SM MSHRs + GDDR6-like DRAM channels.
    Hierarchical(HierarchyConfig),
    /// A fault-injecting wrapper around another backend (see
    /// [`FaultyBackend`]): drops or delays fills deterministically to
    /// exercise the deadlock watchdog and sweep-supervision deadline paths.
    /// Chaos/test infrastructure only — never a model of real hardware.
    Faulty {
        /// Fault rates and seed.
        fault: MemFaultConfig,
        /// The wrapped backend's configuration.
        inner: Box<MemBackendConfig>,
    },
}

impl MemBackendConfig {
    /// Instantiates the configured backend. `fixed_latency` is the SM's
    /// stub miss latency, used by [`MemBackendConfig::Fixed`].
    pub fn build(&self, fixed_latency: u64) -> Box<dyn MemoryBackend> {
        match self {
            MemBackendConfig::Fixed => Box::new(FixedLatencyBackend::new(fixed_latency)),
            MemBackendConfig::Hierarchical(h) => Box::new(HierarchicalBackend::new(h.clone())),
            MemBackendConfig::Faulty { fault, inner } => Box::new(FaultyBackend::new(
                fault.clone(),
                inner.build(fixed_latency),
            )),
        }
    }

    /// Instantiates one backend per SM of an `n_sms`-SM chip. With `share`
    /// set, [`MemBackendConfig::Hierarchical`] with two or more SMs gives
    /// handles that *share* one [`Partition`] — L2 content, bank occupancy,
    /// DRAM row state, and channel bandwidth are contended across all SMs —
    /// while each handle keeps its own per-SM MSHR file and counters.
    /// Shareless chips (the fixed stub, any one-SM chip, and private
    /// partitions when `share` is unset) come back as `n_sms` independent
    /// instances with no partition.
    pub fn build_chip(&self, fixed_latency: u64, n_sms: usize, share: bool) -> ChipBackends {
        match self {
            MemBackendConfig::Hierarchical(h) if share && n_sms > 1 => {
                let (handles, partition) = HierarchicalBackend::new_shared(h.clone(), n_sms);
                ChipBackends {
                    backends: handles
                        .into_iter()
                        .map(|b| Box::new(b) as Box<dyn MemoryBackend>)
                        .collect(),
                    shared: Some(partition),
                }
            }
            MemBackendConfig::Faulty { fault, inner } => {
                let chip = inner.build_chip(fixed_latency, n_sms, share);
                ChipBackends {
                    backends: chip
                        .backends
                        .into_iter()
                        .map(|b| {
                            Box::new(FaultyBackend::new(fault.clone(), b)) as Box<dyn MemoryBackend>
                        })
                        .collect(),
                    shared: chip.shared,
                }
            }
            _ => ChipBackends {
                backends: (0..n_sms).map(|_| self.build(fixed_latency)).collect(),
                shared: None,
            },
        }
    }

    /// Validates the configuration; returns a description of the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            MemBackendConfig::Fixed => Ok(()),
            MemBackendConfig::Hierarchical(h) => h.validate(),
            MemBackendConfig::Faulty { fault, inner } => {
                fault.validate()?;
                inner.validate()
            }
        }
    }
}

/// The memory side of one chip: a backend per SM and the partition they
/// share, if any ([`MemBackendConfig::build_chip`]).
#[derive(Debug)]
pub struct ChipBackends {
    /// One backend per SM, in SM-id order.
    pub backends: Vec<Box<dyn MemoryBackend>>,
    /// The partition every backend is a handle onto; their misses resolve
    /// through [`MemoryBackend::miss_shared`]. `None` when the SMs share
    /// nothing and each backend answers [`MemoryBackend::miss`] alone.
    pub shared: Option<Partition>,
}

/// Geometry and latencies of the [`HierarchicalBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L2 cache geometry (shared by all traffic from this SM).
    pub l2: CacheConfig,
    /// Independent L2 banks; lines interleave across banks at line
    /// granularity, and each bank serializes its accesses.
    pub l2_banks: usize,
    /// L1-to-L2 round-trip latency for an L2 hit, in cycles.
    pub l2_hit_latency: u64,
    /// Cycles one access occupies its L2 bank (bank-conflict serialization
    /// quantum).
    pub l2_bank_occupancy: u64,
    /// Miss-status holding registers: maximum in-flight L2-miss fills. A
    /// full file delays new fills until the earliest outstanding one
    /// completes.
    pub mshrs: usize,
    /// DRAM channel model behind the L2.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// A Turing-like default calibrated so the *unloaded* L2-miss round trip
    /// lands near the stub's 600-cycle latency: 4 MB 16-way L2, 16 banks,
    /// 64 MSHRs per SM, 8 GDDR6 channels.
    pub fn turing_like() -> HierarchyConfig {
        HierarchyConfig {
            l2: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                line_bytes: 128,
                ways: 16,
            },
            l2_banks: 16,
            l2_hit_latency: 160,
            l2_bank_occupancy: 2,
            mshrs: 64,
            dram: DramConfig::gddr6_like(),
        }
    }

    /// Validates the geometry; returns a description of the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.l2_banks == 0 {
            return Err("hierarchical backend needs at least one L2 bank".into());
        }
        if self.mshrs == 0 {
            return Err("hierarchical backend needs at least one MSHR".into());
        }
        if self.l2_hit_latency == 0 {
            return Err("L2 hit latency must be nonzero".into());
        }
        if !self.l2.line_bytes.is_power_of_two() {
            return Err("L2 line size must be a power of two".into());
        }
        if !self
            .l2
            .size_bytes
            .is_multiple_of(self.l2.line_bytes * self.l2.ways as u64)
        {
            return Err("L2 capacity must be a multiple of line_bytes * ways".into());
        }
        self.dram.validate()
    }
}

/// GDDR6-like DRAM channel timing: fixed row-hit/row-miss latencies, one
/// burst in flight per channel, channels interleaved by address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent channels; 256-byte address chunks interleave across them.
    pub channels: usize,
    /// Row (page) size per channel in bytes; requests to a channel's open
    /// row pay [`row_hit_latency`](Self::row_hit_latency).
    pub row_bytes: u64,
    /// L2-to-DRAM round trip when the row is already open, in cycles.
    pub row_hit_latency: u64,
    /// L2-to-DRAM round trip including precharge + activate, in cycles.
    pub row_miss_latency: u64,
    /// Cycles one line transfer occupies its channel's data bus — the
    /// per-channel bandwidth limit (larger = less bandwidth).
    pub burst_cycles: u64,
}

impl DramConfig {
    /// Eight channels, 2 KB rows, 320/520-cycle row hit/miss, 4-cycle
    /// bursts. With the L2 leg in front the unloaded end-to-end fill is
    /// 480–680 cycles, bracketing the stub's fixed 600.
    pub fn gddr6_like() -> DramConfig {
        DramConfig {
            channels: 8,
            row_bytes: 2048,
            row_hit_latency: 320,
            row_miss_latency: 520,
            burst_cycles: 4,
        }
    }

    /// Validates the channel timing; returns a description of the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 {
            return Err("DRAM needs at least one channel".into());
        }
        if self.row_bytes == 0 || !self.row_bytes.is_power_of_two() {
            return Err("DRAM row size must be a power of two".into());
        }
        if self.row_hit_latency == 0 || self.row_miss_latency < self.row_hit_latency {
            return Err("DRAM row-miss latency must be >= row-hit latency > 0".into());
        }
        if self.burst_cycles == 0 {
            return Err("DRAM burst must occupy at least one cycle".into());
        }
        Ok(())
    }
}

/// The paper's §IV-A stub: every miss completes after a fixed latency.
///
/// Stateless between calls, so [`MemoryBackend::next_event`] is `None` and
/// the SM's fast-forward behaves exactly as it did before the trait existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedLatencyBackend {
    latency: u64,
    requests: u64,
}

impl FixedLatencyBackend {
    /// Creates a stub completing every miss after `latency` cycles.
    pub fn new(latency: u64) -> FixedLatencyBackend {
        FixedLatencyBackend {
            latency,
            requests: 0,
        }
    }
}

impl MemoryBackend for FixedLatencyBackend {
    fn miss(&mut self, now: u64, _line: u64) -> u64 {
        self.requests += 1;
        now + self.latency
    }

    fn next_event(&self, _now: u64) -> Option<u64> {
        None
    }

    fn stats(&self) -> MemBackendStats {
        MemBackendStats {
            fills: self.requests,
            total_fill_latency: self.requests * self.latency,
            requests: self.requests,
            ..MemBackendStats::default()
        }
    }
}

/// One outstanding L2-miss fill tracked by the MSHR file.
#[derive(Debug, Clone, Copy)]
struct MshrEntry {
    line: u64,
    done: u64,
}

/// Memory-partition state: everything downstream of the per-SM MSHR files.
/// A private [`HierarchicalBackend`] owns one; a chip of two or more SMs
/// shares one among its handles
/// ([`HierarchicalBackend::new_shared`]), so bank occupancy, L2 content,
/// DRAM row state, and channel bandwidth are globally visible side effects
/// of each fill.
#[derive(Debug)]
pub struct Partition {
    l2: Cache,
    l2_hit_latency: u64,
    /// Cycle each L2 bank is next free.
    bank_free: Vec<u64>,
    /// Cycle each DRAM channel's data bus is next free.
    chan_free: Vec<u64>,
    /// Open row per DRAM channel.
    open_row: Vec<Option<u64>>,
}

impl Partition {
    fn new(cfg: &HierarchyConfig) -> Partition {
        let channels = cfg.dram.channels;
        Partition {
            l2: Cache::new(cfg.l2),
            l2_hit_latency: cfg.l2_hit_latency,
            bank_free: vec![0; cfg.l2_banks],
            chan_free: vec![0; channels],
            open_row: vec![None; channels],
        }
    }

    /// The chip's lookahead: a miss issued at cycle `c` completes no sooner
    /// than `c + lookahead()` — the L2 hit latency — unless it merges into
    /// a [`MemoryBackend::merge_candidate`].
    pub fn lookahead(&self) -> u64 {
        self.l2_hit_latency
    }
}

/// One SM's side of the hierarchy: its MSHR file and counters.
#[derive(Debug)]
struct Client {
    cfg: HierarchyConfig,
    /// This client's share of the L2's hit/miss traffic.
    l2_stats: CacheStats,
    /// Outstanding L2-miss fills, pruned lazily as time advances.
    mshrs: Vec<MshrEntry>,
    stats: MemBackendStats,
}

impl Client {
    fn bank_of(&self, line: u64) -> usize {
        ((line / self.cfg.l2.line_bytes) as usize) % self.cfg.l2_banks
    }

    /// 256-byte chunks interleave across channels (GDDR6's two-line
    /// granularity), so neighbouring lines share a channel but streams
    /// spread across all of them.
    fn channel_of(&self, line: u64) -> usize {
        ((line >> 8) as usize) % self.cfg.dram.channels
    }

    fn row_of(&self, line: u64) -> u64 {
        line / (self.cfg.dram.row_bytes * self.cfg.dram.channels as u64)
    }

    fn miss(&mut self, part: &mut Partition, now: u64, line: u64) -> u64 {
        self.stats.requests += 1;
        self.mshrs.retain(|e| e.done > now);

        // MSHR same-line merge: a second miss to an in-flight line rides the
        // existing fill — no L2 access (the line is already allocated and a
        // merge must not refresh its LRU), no DRAM traffic. The MSHR file is
        // per-SM, so merges are client-local.
        if let Some(e) = self.mshrs.iter().find(|e| e.line == line) {
            self.stats.mshr_merges += 1;
            return e.done;
        }

        // L2 bank: accesses to the same bank serialize on its occupancy —
        // across every SM sharing the partition.
        let bank = self.bank_of(line);
        let start = now.max(part.bank_free[bank]);
        part.bank_free[bank] = start + self.cfg.l2_bank_occupancy;

        if part.l2.access(line) == AccessKind::Hit {
            self.l2_stats.hits += 1;
            let done = start + self.cfg.l2_hit_latency;
            self.stats.fills += 1;
            self.stats.total_fill_latency += done - now;
            return done;
        }
        self.l2_stats.misses += 1;

        // L2 miss: the request needs an MSHR for the DRAM round trip. A full
        // file stalls the fill until the earliest outstanding one retires —
        // modelled as added latency rather than SM back-pressure.
        let mut t = start + self.cfg.l2_hit_latency;
        if self.mshrs.len() >= self.cfg.mshrs {
            let earliest = self
                .mshrs
                .iter()
                .map(|e| e.done)
                .min()
                .expect("full MSHR file is non-empty");
            t = t.max(earliest);
            self.mshrs.retain(|e| e.done > t);
        }

        // DRAM: one burst in flight per channel bounds bandwidth; the open
        // row decides hit vs. activate latency. Busy cycles are charged to
        // the issuing SM, so the chip aggregate (summed across clients)
        // still accounts every burst exactly once.
        let chan = self.channel_of(line);
        let row = self.row_of(line);
        let dram = &self.cfg.dram;
        let dram_start = t.max(part.chan_free[chan]);
        part.chan_free[chan] = dram_start + dram.burst_cycles;
        self.stats.channel_busy_cycles[chan] += dram.burst_cycles;
        let lat = if part.open_row[chan] == Some(row) {
            self.stats.row_hits += 1;
            dram.row_hit_latency
        } else {
            self.stats.row_misses += 1;
            dram.row_miss_latency
        };
        part.open_row[chan] = Some(row);
        let done = dram_start + lat;

        self.mshrs.push(MshrEntry { line, done });
        self.stats.mshr_high_water = self.stats.mshr_high_water.max(self.mshrs.len());
        self.stats.fills += 1;
        self.stats.total_fill_latency += done - now;
        done
    }
}

/// Cycle-level L2 + MSHR + DRAM-channel timing model.
///
/// Completion times are computed analytically when the miss is issued (see
/// the module docs), which keeps the model a few hundred lines while still
/// capturing the load-dependent effects that matter to Subwarp Interleaving:
/// bank conflicts, MSHR pressure, row locality, and channel bandwidth.
///
/// Each instance is one SM's view of a memory [`Partition`] (L2 banks, DRAM
/// rows and channels): the MSHR file and all counters are per-SM (per the
/// paper's per-SM MSHR model). A private backend ([`new`](Self::new)) owns
/// its partition and answers [`MemoryBackend::miss`]. A chip handle
/// ([`new_shared`](Self::new_shared)) owns none: the chip hands it the
/// shared partition in [`MemoryBackend::miss_shared`], one resolved miss
/// at a time, so the partition needs no lock. Same-line requests from
/// *different* SMs do not MSHR-merge — the second SM sees an L2 hit
/// instead, because the first SM's access already allocated the line.
#[derive(Debug)]
pub struct HierarchicalBackend {
    client: Client,
    /// The partition this backend owns; `None` for a chip handle.
    own: Option<Partition>,
    /// A chip handle's copy of the shared partition's channel-free cycles,
    /// as of the last [`MemoryBackend::observe`].
    seen_chan_free: Vec<u64>,
}

impl HierarchicalBackend {
    /// Creates an empty hierarchy (cold L2, closed rows, idle channels)
    /// with a private partition — the single-SM configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`HierarchyConfig::validate`].
    pub fn new(cfg: HierarchyConfig) -> HierarchicalBackend {
        let (mut v, partition) = HierarchicalBackend::new_shared(cfg, 1);
        let mut b = v.pop().expect("new_shared(cfg, 1) yields one backend");
        b.own = Some(partition);
        b
    }

    /// Creates `n` backend handles onto one empty memory partition, which
    /// is returned beside them: each SM gets its own MSHR file and
    /// counters, but bank occupancy, L2 content, row state, and channel
    /// bandwidth are contended chip-wide.
    ///
    /// # Panics
    /// Panics if the configuration fails [`HierarchyConfig::validate`].
    pub fn new_shared(cfg: HierarchyConfig, n: usize) -> (Vec<HierarchicalBackend>, Partition) {
        if let Err(what) = cfg.validate() {
            panic!("invalid hierarchy config: {what}");
        }
        let partition = Partition::new(&cfg);
        let channels = cfg.dram.channels;
        let handles = (0..n)
            .map(|_| HierarchicalBackend {
                client: Client {
                    cfg: cfg.clone(),
                    l2_stats: CacheStats::default(),
                    mshrs: Vec::with_capacity(cfg.mshrs),
                    stats: MemBackendStats {
                        channel_busy_cycles: vec![0; channels],
                        ..MemBackendStats::default()
                    },
                },
                own: None,
                seen_chan_free: vec![0; channels],
            })
            .collect();
        (handles, partition)
    }

    /// The configuration this backend was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.client.cfg
    }
}

impl MemoryBackend for HierarchicalBackend {
    fn miss(&mut self, now: u64, line: u64) -> u64 {
        let part = self
            .own
            .as_mut()
            .expect("a chip handle's misses go through miss_shared");
        self.client.miss(part, now, line)
    }

    fn miss_shared(&mut self, partition: &mut Partition, now: u64, line: u64) -> u64 {
        self.client.miss(partition, now, line)
    }

    fn merge_candidate(&self, now: u64, line: u64) -> Option<u64> {
        self.client
            .mshrs
            .iter()
            .find(|e| e.line == line && e.done > now)
            .map(|e| e.done)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Per-client horizon: only this SM's own fills wake its warps, so
        // other SMs' in-flight traffic never clamps this SM's fast-forward.
        self.client
            .mshrs
            .iter()
            .map(|e| e.done)
            .filter(|&d| d > now)
            .min()
    }

    fn stats(&self) -> MemBackendStats {
        let mut s = self.client.stats.clone();
        s.l2 = self.client.l2_stats;
        s
    }

    fn counters(&self, now: u64) -> Option<MemCounters> {
        let chan_free = self
            .own
            .as_ref()
            .map_or(&self.seen_chan_free, |p| &p.chan_free);
        Some(MemCounters {
            l2: self.client.l2_stats,
            mshr_in_flight: self.client.mshrs.iter().filter(|e| e.done > now).count(),
            busy_channels: chan_free.iter().filter(|&&f| f > now).count(),
        })
    }

    fn observe(&mut self, partition: &Partition) {
        self.seen_chan_free.copy_from_slice(&partition.chan_free);
    }
}

/// Deterministic fill-fault rates for a [`FaultyBackend`].
///
/// Rates are per-mille (0–1000) so the config stays `Eq`; decisions are a
/// pure function of `(seed, fill index, line)`, making a faulty simulation
/// exactly as reproducible as a healthy one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemFaultConfig {
    /// Seed mixed into every per-fill decision.
    pub seed: u64,
    /// Per-mille probability that a fill is *dropped*: the completion is
    /// pushed effectively to infinity, so the waiting warp never wakes and
    /// the SM's deadlock watchdog must fire.
    pub drop_per_mille: u16,
    /// Per-mille probability that a fill is *delayed* by
    /// [`delay_cycles`](Self::delay_cycles) on top of the wrapped backend's
    /// completion time.
    pub delay_per_mille: u16,
    /// Added latency for delayed fills, in cycles.
    pub delay_cycles: u64,
}

impl MemFaultConfig {
    /// Validates the rates; returns a description of the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.drop_per_mille > 1000 || self.delay_per_mille > 1000 {
            return Err("fault rates are per-mille and must be <= 1000".into());
        }
        if self.delay_per_mille > 0 && self.delay_cycles == 0 {
            return Err("delayed fills need a nonzero delay_cycles".into());
        }
        Ok(())
    }
}

/// How far in the future a dropped fill "completes": far beyond any cycle
/// cap, so the fill is never observed and the deadlock watchdog fires.
const DROPPED_FILL_HORIZON: u64 = 1 << 40;

/// A fault-injecting [`MemoryBackend`] wrapper: deterministically drops or
/// delays fills issued to the wrapped backend.
///
/// Chaos/test infrastructure for the sweep supervision layer (see
/// `subwarp_core::FaultPlan`), not a hardware model. A dropped fill never
/// reaches the inner backend at all and is excluded from
/// [`MemoryBackend::next_event`], so the SM sees an outstanding request
/// with no completion on the horizon — exactly the shape that must trip the
/// deadlock watchdog rather than hang the sweep.
#[derive(Debug)]
pub struct FaultyBackend {
    cfg: MemFaultConfig,
    inner: Box<dyn MemoryBackend>,
    fills_seen: u64,
    dropped: u64,
    delayed: u64,
}

impl FaultyBackend {
    /// Wraps `inner` with the given fault rates.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MemFaultConfig::validate`].
    pub fn new(cfg: MemFaultConfig, inner: Box<dyn MemoryBackend>) -> FaultyBackend {
        if let Err(what) = cfg.validate() {
            panic!("invalid mem-fault config: {what}");
        }
        FaultyBackend {
            cfg,
            inner,
            fills_seen: 0,
            dropped: 0,
            delayed: 0,
        }
    }

    /// Fills dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Fills delayed so far.
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    fn draw(&self, line: u64) -> u64 {
        splitmix64(&mut (self.cfg.seed ^ splitmix64(&mut { self.fills_seen }) ^ line)) % 1000
    }

    /// Drops, delays, or passes on one fill; `fill` asks the wrapped
    /// backend for its completion.
    fn fault(
        &mut self,
        now: u64,
        line: u64,
        fill: impl FnOnce(&mut dyn MemoryBackend) -> u64,
    ) -> u64 {
        let draw = self.draw(line);
        self.fills_seen += 1;
        if (draw as u16) < self.cfg.drop_per_mille {
            self.dropped += 1;
            return now + DROPPED_FILL_HORIZON;
        }
        let done = fill(&mut *self.inner);
        if ((draw as u16).wrapping_sub(self.cfg.drop_per_mille)) < self.cfg.delay_per_mille {
            self.delayed += 1;
            done + self.cfg.delay_cycles
        } else {
            done
        }
    }
}

impl MemoryBackend for FaultyBackend {
    fn miss(&mut self, now: u64, line: u64) -> u64 {
        self.fault(now, line, |inner| inner.miss(now, line))
    }

    fn miss_shared(&mut self, partition: &mut Partition, now: u64, line: u64) -> u64 {
        self.fault(now, line, |inner| inner.miss_shared(partition, now, line))
    }

    fn merge_candidate(&self, now: u64, line: u64) -> Option<u64> {
        self.inner.merge_candidate(now, line)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Dropped fills are deliberately invisible here: with no event on
        // the horizon, the SM's quiescence fast-forward stays clamped to
        // the deadlock window and the watchdog fires.
        self.inner.next_event(now)
    }

    fn stats(&self) -> MemBackendStats {
        self.inner.stats()
    }

    fn counters(&self, now: u64) -> Option<MemCounters> {
        self.inner.counters(now)
    }

    fn observe(&mut self, partition: &Partition) {
        self.inner.observe(partition);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HierarchyConfig {
        HierarchyConfig {
            l2: CacheConfig {
                size_bytes: 4096,
                line_bytes: 128,
                ways: 2,
            },
            l2_banks: 4,
            l2_hit_latency: 10,
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

    #[test]
    fn fixed_backend_matches_stub_arithmetic() {
        let mut b = FixedLatencyBackend::new(600);
        assert_eq!(b.miss(0, 0x1000), 600);
        assert_eq!(b.miss(123, 0x2000), 723);
        assert_eq!(b.next_event(0), None);
        assert_eq!(b.counters(0), None);
        let s = b.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.fills, 2);
        assert!((s.mean_fill_latency() - 600.0).abs() < 1e-12);
        assert!(s.channel_busy_cycles.is_empty());
    }

    #[test]
    fn mshr_same_line_merge_and_release() {
        let mut b = HierarchicalBackend::new(tiny());
        let done = b.miss(0, 0x0);
        // Second miss to the same line while in flight merges: identical
        // completion, no new fill, no extra DRAM burst.
        let merged = b.miss(1, 0x0);
        assert_eq!(merged, done);
        let s = b.stats();
        assert_eq!(s.mshr_merges, 1);
        assert_eq!(s.fills, 1);
        assert_eq!(s.channel_busy_cycles.iter().sum::<u64>(), 4);
        // After the fill lands, the MSHR releases: the line is now an L2
        // hit, not a merge.
        let after = b.miss(done, 0x0);
        assert_eq!(b.stats().mshr_merges, 1, "released entry must not merge");
        assert_eq!(b.stats().l2.hits, 1);
        assert!(after < done + 2 * 90, "post-fill access must be an L2 hit");
    }

    #[test]
    fn l2_bank_conflicts_serialize_same_bank_only() {
        let cfg = tiny();
        let mut b = HierarchicalBackend::new(cfg.clone());
        // Warm two lines into the L2 so the timing below is pure hit timing.
        let line_a = 0x0; // bank 0
        let line_b = (cfg.l2_banks as u64) * cfg.l2.line_bytes; // also bank 0
        let line_c = cfg.l2.line_bytes; // bank 1
        let warm = [line_a, line_b, line_c];
        let mut t = 0;
        for &l in &warm {
            t = b.miss(t, l).max(t) + 1;
        }
        let now = t + 1000;
        // Same cycle, same bank: the second access waits out the occupancy.
        let first = b.miss(now, line_a);
        let second = b.miss(now, line_b);
        assert_eq!(first, now + cfg.l2_hit_latency);
        assert_eq!(second, now + cfg.l2_bank_occupancy + cfg.l2_hit_latency);
        // A different bank at the same cycle does not wait.
        let third = b.miss(now, line_c);
        assert_eq!(third, now + cfg.l2_hit_latency);
    }

    #[test]
    fn row_hits_are_faster_than_row_misses() {
        let cfg = tiny();
        let mut b = HierarchicalBackend::new(cfg.clone());
        // Lines 0x000 and 0x080 share DRAM channel 0 (256B interleave) and
        // the same row.
        let miss1 = b.miss(0, 0x000);
        let miss2 = b.miss(miss1 + 1, 0x080);
        let s = b.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 1);
        assert!(
            miss2 - (miss1 + 1) < miss1,
            "open-row access must be faster than the cold access"
        );
    }

    #[test]
    fn channel_bandwidth_serializes_bursts() {
        let mut cfg = tiny();
        cfg.dram.burst_cycles = 100; // starve bandwidth
        cfg.dram.row_miss_latency = cfg.dram.row_hit_latency; // constant lat
        cfg.mshrs = 64;
        let mut b = HierarchicalBackend::new(cfg.clone());
        // Many distinct lines on the same channel at the same cycle: each
        // burst waits for the previous one, so completions spread out by
        // burst_cycles.
        let stride = 256 * cfg.dram.channels as u64; // stay on channel 0
        let dones: Vec<u64> = (0..4).map(|i| b.miss(0, i * stride)).collect();
        for w in dones.windows(2) {
            assert!(
                w[1] >= w[0] + cfg.dram.burst_cycles,
                "bursts on one channel must serialize: {dones:?}"
            );
        }
    }

    #[test]
    fn full_mshr_file_delays_new_fills() {
        let cfg = tiny(); // 4 MSHRs
        let mut b = HierarchicalBackend::new(cfg.clone());
        let stride = 256 * cfg.dram.channels as u64;
        let mut dones: Vec<u64> = (0..4).map(|i| b.miss(0, i * stride)).collect();
        dones.sort_unstable();
        // Fifth distinct miss at cycle 0 finds the file full: it cannot even
        // reach DRAM before the earliest outstanding fill retires.
        let fifth = b.miss(0, 4 * stride);
        assert!(
            fifth >= dones[0] + cfg.dram.row_hit_latency,
            "fifth fill ({fifth}) must wait for an MSHR (earliest done {})",
            dones[0]
        );
        assert_eq!(b.stats().mshr_high_water, 4);
    }

    #[test]
    fn request_conservation_every_miss_gets_one_completion() {
        let mut b = HierarchicalBackend::new(tiny());
        let mut completions = Vec::new();
        let mut now = 0;
        for i in 0..200u64 {
            // A mix of repeats (merges/L2 hits) and fresh lines.
            let line = (i % 37) * 128;
            let done = b.miss(now, line);
            assert!(done > now, "completion must be in the future");
            completions.push(done);
            now += i % 3;
        }
        let s = b.stats();
        assert_eq!(s.requests, 200, "every miss call is counted");
        assert_eq!(
            s.fills + s.mshr_merges,
            200,
            "every request is exactly one fill or one merge"
        );
        assert_eq!(completions.len(), 200);
    }

    #[test]
    fn next_event_tracks_earliest_inflight_fill() {
        let mut b = HierarchicalBackend::new(tiny());
        assert_eq!(b.next_event(0), None);
        let d1 = b.miss(0, 0x000);
        let d2 = b.miss(3, 0x100); // other channel, staggered issue
        let earliest = d1.min(d2);
        let latest = d1.max(d2);
        assert_eq!(b.next_event(0), Some(earliest));
        assert_eq!(b.next_event(earliest), Some(latest));
        assert_eq!(b.next_event(latest), None);
    }

    #[test]
    fn counters_report_inflight_occupancy() {
        let mut b = HierarchicalBackend::new(tiny());
        let d = b.miss(0, 0x000);
        let c = b.counters(0).expect("hierarchical backend has counters");
        assert_eq!(c.mshr_in_flight, 1);
        assert_eq!(c.busy_channels, 1);
        let c = b.counters(d).expect("counters");
        assert_eq!(c.mshr_in_flight, 0);
        assert_eq!(c.busy_channels, 0);
    }

    #[test]
    fn stats_merge_sums_and_maxes() {
        let mut a = MemBackendStats {
            fills: 3,
            total_fill_latency: 300,
            requests: 4,
            mshr_merges: 1,
            mshr_high_water: 2,
            row_hits: 1,
            row_misses: 2,
            channel_busy_cycles: vec![4, 0],
            ..MemBackendStats::default()
        };
        let b = MemBackendStats {
            fills: 1,
            total_fill_latency: 100,
            requests: 1,
            mshr_high_water: 5,
            channel_busy_cycles: vec![0, 8],
            ..MemBackendStats::default()
        };
        a.merge(&b);
        assert_eq!(a.fills, 4);
        assert_eq!(a.requests, 5);
        assert_eq!(a.mshr_high_water, 5);
        assert_eq!(a.channel_busy_cycles, vec![4, 8]);
        assert!((a.mean_fill_latency() - 100.0).abs() < 1e-12);
        let util = a.channel_utilization(16);
        assert!((util[0] - 0.25).abs() < 1e-12 && (util[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn default_configs_validate() {
        assert!(HierarchyConfig::turing_like().validate().is_ok());
        assert!(MemBackendConfig::Fixed.validate().is_ok());
        assert!(
            MemBackendConfig::Hierarchical(HierarchyConfig::turing_like())
                .validate()
                .is_ok()
        );
        let mut bad = HierarchyConfig::turing_like();
        bad.l2_banks = 0;
        assert!(bad.validate().is_err());
        bad = HierarchyConfig::turing_like();
        bad.dram.row_miss_latency = 1;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn build_dispatches_on_config() {
        let f = MemBackendConfig::Fixed.build(600);
        assert!(f.next_event(0).is_none());
        let mut h = MemBackendConfig::Hierarchical(tiny()).build(600);
        let d = h.miss(0, 0);
        assert_eq!(h.next_event(0), Some(d));
    }

    #[test]
    fn single_shared_client_is_bit_identical_to_private_backend() {
        // A 1-SM chip handle must reproduce the private backend exactly:
        // the `--sms 1` byte-identity guarantee rests on this.
        let mut private = HierarchicalBackend::new(tiny());
        let (mut v, mut part) = HierarchicalBackend::new_shared(tiny(), 1);
        let mut shared = v.pop().expect("one handle");
        let mut now = 0;
        for i in 0..300u64 {
            let line = ((i * 7) % 41) * 128;
            let merge = shared.merge_candidate(now, line);
            let done = shared.miss_shared(&mut part, now, line);
            assert_eq!(private.miss(now, line), done, "at {i}");
            assert!(done >= now + part.lookahead() || merge == Some(done));
            assert_eq!(private.next_event(now), shared.next_event(now));
            shared.observe(&part);
            assert_eq!(private.counters(now), shared.counters(now));
            now += i % 4;
        }
        assert_eq!(private.stats(), shared.stats());
    }

    #[test]
    fn shared_misses_complete_no_sooner_than_the_lookahead_unless_they_merge() {
        // The chip defers shared misses on this bound: L2 hits, DRAM fills,
        // full-file waits and faulty drops/delays all land at least
        // `lookahead` after issue; only a merge into an MSHR entry the SM
        // already holds may land sooner, at that entry's `done`.
        let mut cfg = tiny();
        cfg.mshrs = 2;
        let fault = MemFaultConfig {
            seed: 5,
            drop_per_mille: 50,
            delay_per_mille: 100,
            delay_cycles: 7,
        };
        let chip = MemBackendConfig::Faulty {
            fault,
            inner: Box::new(MemBackendConfig::Hierarchical(cfg)),
        }
        .build_chip(600, 3, true);
        let (mut v, mut p) = (chip.backends, chip.shared.expect("shared"));
        let mut now = 0;
        for i in 0..900u64 {
            let sm = (i % 3) as usize;
            let line = ((i * 5) % 23) * 128;
            let merge = v[sm].merge_candidate(now, line);
            let done = v[sm].miss_shared(&mut p, now, line);
            if done < now + p.lookahead() {
                assert_eq!(merge, Some(done), "miss {i} at {now} completed at {done}");
            }
            now += i % 2;
        }
        let s: Vec<MemBackendStats> = v.iter().map(|b| b.stats()).collect();
        assert!(s.iter().any(|s| s.mshr_merges > 0));
        assert!(s.iter().any(|s| s.mshr_high_water == 2));
    }

    #[test]
    fn shared_clients_contend_for_banks_and_channels() {
        let cfg = tiny();
        let (mut v, mut p) = HierarchicalBackend::new_shared(cfg.clone(), 2);
        let (mut b1, mut b0) = (v.pop().unwrap(), v.pop().unwrap());
        // Warm the same bank-0 lines in both clients' reach via client 0.
        let line_a = 0x0;
        let line_b = (cfg.l2_banks as u64) * cfg.l2.line_bytes; // also bank 0
        let mut t = 0;
        for &l in &[line_a, line_b] {
            t = b0.miss_shared(&mut p, t, l).max(t) + 1;
        }
        let now = t + 1000;
        // SM0 then SM1 hit the same bank at the same cycle: SM1 waits out
        // the occupancy SM0 charged to the *shared* bank.
        let first = b0.miss_shared(&mut p, now, line_a);
        let second = b1.miss_shared(&mut p, now, line_b);
        assert_eq!(first, now + cfg.l2_hit_latency);
        assert_eq!(second, now + cfg.l2_bank_occupancy + cfg.l2_hit_latency);
    }

    #[test]
    fn shared_channel_bandwidth_serializes_cross_sm_bursts() {
        let mut cfg = tiny();
        cfg.dram.burst_cycles = 100; // starve bandwidth
        cfg.dram.row_miss_latency = cfg.dram.row_hit_latency;
        cfg.mshrs = 64;
        let (mut v, mut p) = HierarchicalBackend::new_shared(cfg.clone(), 4);
        // One distinct line per SM, all on channel 0, all at cycle 0: the
        // shared data bus serializes the bursts across SMs.
        let stride = 256 * cfg.dram.channels as u64;
        let mut dones: Vec<u64> = v
            .iter_mut()
            .enumerate()
            .map(|(i, b)| b.miss_shared(&mut p, 0, 8 * stride + i as u64 * stride))
            .collect();
        dones.sort_unstable();
        for w in dones.windows(2) {
            assert!(
                w[1] >= w[0] + cfg.dram.burst_cycles,
                "cross-SM bursts on one channel must serialize: {dones:?}"
            );
        }
        // Every burst is charged to exactly one SM's counters.
        let total: u64 = v
            .iter()
            .map(|b| b.stats().channel_busy_cycles.iter().sum::<u64>())
            .sum();
        assert_eq!(total, 4 * cfg.dram.burst_cycles);
    }

    #[test]
    fn shared_l2_content_and_row_state_are_chip_visible() {
        let cfg = tiny();
        let (mut v, mut p) = HierarchicalBackend::new_shared(cfg.clone(), 2);
        let (mut b1, mut b0) = (v.pop().unwrap(), v.pop().unwrap());
        // SM0 fills a line; once landed, SM1's access to it is an L2 hit —
        // no merge (MSHRs are per-SM), no second DRAM trip.
        let done = b0.miss_shared(&mut p, 0, 0x0);
        assert_eq!(b1.merge_candidate(done, 0x0), None, "MSHRs are per-SM");
        let after = b1.miss_shared(&mut p, done + 1, 0x0);
        assert_eq!(b1.stats().l2.hits, 1, "SM1 hits the line SM0 brought in");
        assert_eq!(b1.stats().mshr_merges, 0, "cross-SM requests never merge");
        assert_eq!(b1.stats().row_hits + b1.stats().row_misses, 0);
        assert!(after < done + 1 + cfg.dram.row_hit_latency);
        // Row state is shared too: SM0 opened the row, SM1's *miss* to a
        // different line in the same row is a row hit.
        let done2 = b1.miss_shared(&mut p, 0, 0x080); // same 1024B row, channel 0, new line
        assert_eq!(b1.stats().row_hits, 1, "SM1 reuses SM0's open row");
        assert!(done2 > 0);
        // Per-client attribution sums to the shared cache's totals.
        let (s0, s1) = (b0.stats(), b1.stats());
        assert_eq!(s0.l2.hits + s0.l2.misses + s1.l2.hits + s1.l2.misses, 3);
    }

    #[test]
    fn build_chip_shares_hierarchical_and_isolates_fixed() {
        // Hierarchical chip handles share a partition: SM1 sees SM0's line.
        let chip = MemBackendConfig::Hierarchical(tiny()).build_chip(600, 2, true);
        let (mut b, mut p) = (chip.backends, chip.shared.expect("a shared partition"));
        assert_eq!(p.lookahead(), tiny().l2_hit_latency);
        let done = b[0].miss_shared(&mut p, 0, 0x0);
        let _ = b[1].miss_shared(&mut p, done + 1, 0x0);
        assert_eq!(b[1].stats().l2.hits, 1);
        // A one-SM chip shares nothing: its backend owns its partition.
        let mut one = MemBackendConfig::Hierarchical(tiny()).build_chip(600, 1, true);
        assert!(one.shared.is_none());
        assert!(one.backends[0].miss(0, 0x0) > 0);
        // Fixed handles are independent stubs.
        let mut fixed = MemBackendConfig::Fixed.build_chip(600, 2, true);
        assert!(fixed.shared.is_none());
        assert_eq!(fixed.backends[0].miss(0, 0x0), 600);
        assert_eq!(fixed.backends[1].miss(0, 0x0), 600);
        assert_eq!(fixed.backends[1].stats().requests, 1);
        // Faulty wraps each handle around the (possibly shared) inner.
        let faulty = MemBackendConfig::Faulty {
            fault: MemFaultConfig {
                seed: 1,
                ..MemFaultConfig::default()
            },
            inner: Box::new(MemBackendConfig::Hierarchical(tiny())),
        };
        let chip = faulty.build_chip(600, 3, true);
        assert_eq!(chip.backends.len(), 3);
        assert!(chip.shared.is_some());
        // Unshared, every SM owns a private partition, Faulty-wrapped or not.
        for cfg in [MemBackendConfig::Hierarchical(tiny()), faulty] {
            let chip = cfg.build_chip(600, 3, false);
            assert_eq!(chip.backends.len(), 3);
            assert!(chip.shared.is_none());
        }
    }

    #[test]
    fn faulty_backend_is_deterministic() {
        let cfg = MemFaultConfig {
            seed: 99,
            drop_per_mille: 200,
            delay_per_mille: 300,
            delay_cycles: 1000,
        };
        let run = || {
            let mut b = FaultyBackend::new(cfg.clone(), Box::new(FixedLatencyBackend::new(600)));
            let dones: Vec<u64> = (0..100u64).map(|i| b.miss(i, i * 128)).collect();
            (dones, b.dropped(), b.delayed())
        };
        let (a, a_drop, a_delay) = run();
        let (b, b_drop, b_delay) = run();
        assert_eq!(a, b, "same seed, same fills, same faults");
        assert_eq!((a_drop, a_delay), (b_drop, b_delay));
        assert!(a_drop > 0, "a 20% drop rate over 100 fills must drop some");
        assert!(
            a_delay > 0,
            "a 30% delay rate over 100 fills must delay some"
        );
        assert!(a_drop + a_delay < 100, "and most fills stay healthy");
    }

    #[test]
    fn dropped_fills_vanish_from_next_event() {
        let cfg = MemFaultConfig {
            seed: 0,
            drop_per_mille: 1000, // drop everything
            ..MemFaultConfig::default()
        };
        let mut b = FaultyBackend::new(cfg, Box::new(HierarchicalBackend::new(tiny())));
        let done = b.miss(0, 0x0);
        assert!(
            done >= DROPPED_FILL_HORIZON,
            "dropped fill completes beyond any cycle cap: {done}"
        );
        assert_eq!(b.dropped(), 1);
        assert_eq!(
            b.next_event(0),
            None,
            "a dropped fill must not advertise a wakeup event"
        );
        assert_eq!(b.stats().requests, 0, "inner backend never saw the fill");
    }

    #[test]
    fn delayed_fills_add_exactly_the_configured_latency() {
        let delay = MemFaultConfig {
            seed: 7,
            delay_per_mille: 1000, // delay everything
            delay_cycles: 12345,
            ..MemFaultConfig::default()
        };
        let mut faulty = FaultyBackend::new(delay, Box::new(FixedLatencyBackend::new(600)));
        let mut clean = FixedLatencyBackend::new(600);
        for i in 0..10u64 {
            let line = i * 128;
            assert_eq!(faulty.miss(i, line), clean.miss(i, line) + 12345);
        }
        assert_eq!(faulty.delayed(), 10);
    }

    #[test]
    fn zero_rate_faulty_backend_is_transparent() {
        let none = MemFaultConfig {
            seed: 1,
            ..MemFaultConfig::default()
        };
        let mut faulty = FaultyBackend::new(none, Box::new(HierarchicalBackend::new(tiny())));
        let mut clean = HierarchicalBackend::new(tiny());
        for i in 0..50u64 {
            let (now, line) = (i * 3, (i % 13) * 128);
            assert_eq!(faulty.miss(now, line), clean.miss(now, line));
            assert_eq!(faulty.next_event(now), clean.next_event(now));
        }
        assert_eq!(faulty.stats(), clean.stats());
    }

    #[test]
    fn faulty_config_validates_and_builds() {
        let fault = MemFaultConfig {
            seed: 3,
            drop_per_mille: 10,
            ..MemFaultConfig::default()
        };
        let cfg = MemBackendConfig::Faulty {
            fault: fault.clone(),
            inner: Box::new(MemBackendConfig::Fixed),
        };
        assert!(cfg.validate().is_ok());
        let mut b = cfg.build(600);
        let _ = b.miss(0, 0);
        let bad = MemBackendConfig::Faulty {
            fault: MemFaultConfig {
                drop_per_mille: 1001,
                ..MemFaultConfig::default()
            },
            inner: Box::new(MemBackendConfig::Fixed),
        };
        assert!(bad.validate().is_err());
        let bad_delay = MemFaultConfig {
            delay_per_mille: 5,
            delay_cycles: 0,
            ..MemFaultConfig::default()
        };
        assert!(bad_delay.validate().is_err());
    }
}
