#![warn(missing_docs)]

//! # subwarp-fuzz — a differential fuzzing oracle for Subwarp Interleaving
//!
//! Subwarp Interleaving is a *scheduling* optimization: it may reorder when
//! divergent subwarps execute, but it must never change what they compute.
//! This crate turns that contract into an executable oracle:
//!
//! 1. A seeded generator builds random *well-formed* kernels over the
//!    `subwarp-isa` builder — nested divergent branches wrapped in
//!    `BSSY`/`BSYNC` pairs, counted loops, and loads across all three
//!    latency classes (global/LSU, texture, shared).
//! 2. Every generated thread stores its accumulator register to a
//!    per-thread address, so the final data-memory image *is* the
//!    architectural result of the program.
//! 3. Each kernel runs under the baseline SM and under every
//!    [`SelectPolicy`] × [`DivergeOrder`] SI configuration (plus the
//!    yield-enabled "Both" variants, a DWS-like forking scheme, and the
//!    hierarchical L2+MSHR+DRAM memory backend — timing models must never
//!    change architectural values), via
//!    [`Simulator::run_with_memory`]. The oracle asserts the executed
//!    warp-instruction count and the final memory image (every written
//!    word with the value a load returns) are identical across all of
//!    them, bit for bit.
//!
//! [`Oracle::check`] is the one per-seed check: [`Oracle::Baseline`] is
//! the comparison above, and [`Oracle::TraceParity`] instead compares each
//! configuration's run with a run of the trace round trip. Campaigns run
//! seeds in parallel under supervision ([`run_fuzz_resilient`]) and can
//! checkpoint to a [`FuzzJournal`] keyed by `(oracle, seed)`.
//!
//! Any mismatch — or any [`SimError`](subwarp_core::SimError) from the always-on invariant
//! checker — is reported as a [`Divergence`] carrying the seed, so every
//! failure is reproducible with
//! `cargo run -p subwarp-fuzz -- --seed <N> --iters 1`.

use subwarp_core::{
    DivergeOrder, HierarchyConfig, InitValue, MemBackendConfig, MemoryImage, RunStats,
    SelectPolicy, SiConfig, Simulator, SmConfig, Workload,
};
use subwarp_isa::{Barrier, CmpOp, Operand, Pred, Program, ProgramBuilder, Reg, Scoreboard};
use subwarp_prng::SmallRng;
use subwarp_sweep::json::{append_line, json_escape, open_jsonl, Value};

/// Which memory pipe (and therefore latency class) a generated load uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadClass {
    /// `LDG` through the LSU: L1D hit or a full miss latency.
    Global,
    /// `TLD` through the texture unit: the paper's long-latency path.
    Texture,
    /// `LDS` shared memory: short fixed latency, uncached.
    Shared,
}

/// A recursive structured-code shape. Every generated shape lowers to a
/// well-formed program: divergence is always wrapped in a `BSSY`/`BSYNC`
/// pair and loops are uniform counted loops, so termination is guaranteed
/// by construction and any simulator hang is a simulator bug.
#[derive(Debug, Clone)]
pub enum Block {
    /// `pad` dependent FFMA instructions on the accumulator.
    Math {
        /// Number of ALU instructions emitted.
        pad: u8,
    },
    /// A load plus its scoreboarded dependent use.
    Load {
        /// Latency class of the load.
        class: LoadClass,
        /// Per-load address stride multiplier (keeps repeated loads on
        /// fresh cache lines).
        stride: u8,
    },
    /// Divergent if/else on `lane < split`, wrapped in BSSY/BSYNC.
    IfElse {
        /// Lane split point (1..32): lanes below take the "then" side.
        split: u8,
        /// Taken side.
        then_b: Box<Block>,
        /// Fall-through side.
        else_b: Box<Block>,
    },
    /// A uniform counted loop around a body.
    Loop {
        /// Trip count (small, so runs stay fast).
        trips: u8,
        /// Loop body.
        body: Box<Block>,
    },
    /// Two blocks in sequence.
    Seq(Box<Block>, Box<Block>),
}

impl Block {
    /// Draws a random block shape with at most `depth` levels of nesting.
    pub fn random(rng: &mut SmallRng, depth: u8) -> Block {
        let leaf = |rng: &mut SmallRng| {
            if rng.gen_bool() {
                Block::Math {
                    pad: rng.gen_range(1u8..8),
                }
            } else {
                let class = match rng.gen_range(0u32..3) {
                    0 => LoadClass::Global,
                    1 => LoadClass::Texture,
                    _ => LoadClass::Shared,
                };
                Block::Load {
                    class,
                    stride: rng.gen_range(1u8..4),
                }
            }
        };
        if depth == 0 {
            return leaf(rng);
        }
        match rng.gen_range(0u32..5) {
            0 | 1 => leaf(rng),
            2 => Block::IfElse {
                split: rng.gen_range(1u8..32),
                then_b: Box::new(Block::random(rng, depth - 1)),
                else_b: Box::new(Block::random(rng, depth - 1)),
            },
            3 => Block::Loop {
                trips: rng.gen_range(1u8..4),
                body: Box::new(Block::random(rng, depth - 1)),
            },
            _ => Block::Seq(
                Box::new(Block::random(rng, depth - 1)),
                Box::new(Block::random(rng, depth - 1)),
            ),
        }
    }
}

/// Emission context threading barrier/scoreboard/loop-register allocation.
struct Emitter {
    b: ProgramBuilder,
    next_bar: u8,
    next_sb: u8,
    next_loop_reg: u8,
}

impl Emitter {
    fn emit(&mut self, block: &Block) {
        match block {
            Block::Math { pad } => {
                for i in 0..*pad {
                    self.b.ffma(
                        Reg(40),
                        Reg(40),
                        Operand::fimm(1.0 + i as f32 * 1e-6),
                        Operand::fimm(0.5),
                    );
                }
            }
            Block::Load { class, stride } => {
                // Destination register and scoreboard rotate together, and
                // the load *requires* its own slot's scoreboard before
                // issuing: mixed latency classes mean an earlier load to
                // the same register could otherwise write back *after* a
                // later one (a WAW race whose winner depends on the
                // schedule). Real SASS scoreboards that ordering too.
                let slot = self.next_sb % 6;
                let (sb, dst) = (Scoreboard(slot), Reg(41 + slot));
                self.next_sb += 1;
                // Address = R1 (per-thread base) advanced by a stride so
                // repeated loads touch fresh lines.
                self.b
                    .iadd(Reg(1), Reg(1), Operand::imm(*stride as i64 * 128 + 128));
                match class {
                    LoadClass::Global => self.b.ldg(dst, Reg(1), 0).wr_sb(sb).req_sb(sb),
                    LoadClass::Texture => self.b.tld(dst, Reg(1)).wr_sb(sb).req_sb(sb),
                    LoadClass::Shared => self.b.lds(dst, Reg(1), 0).wr_sb(sb).req_sb(sb),
                };
                self.b.fadd(Reg(40), dst, Operand::reg(40)).req_sb(sb);
            }
            Block::IfElse {
                split,
                then_b,
                else_b,
            } => {
                // Overlapping scopes must not share a barrier register:
                // sibling if/else bodies under a divergent ancestor are in
                // flight *concurrently*, so indexing by nesting depth would
                // let one scope re-arm a barrier another is still waiting
                // on. Every node gets a unique index instead (a depth-3
                // tree needs at most 7 of the 16 architectural slots).
                let bar = Barrier(self.next_bar);
                self.next_bar += 1;
                let else_l = self.b.label(&format!("else{}", self.b.here()));
                let sync = self.b.label(&format!("sync{}", self.b.here()));
                // P0 = lane < split (R0 holds the lane id).
                self.b
                    .isetp(Pred(0), Reg(0), Operand::imm(*split as i64), CmpOp::Lt);
                self.b.bssy(bar, sync);
                self.b.bra(else_l).pred(Pred(0), false);
                self.emit(then_b);
                self.b.bra(sync);
                self.b.place(else_l);
                self.emit(else_b);
                self.b.bra(sync);
                self.b.place(sync);
                self.b.bsync(bar);
            }
            Block::Loop { trips, body } => {
                let reg = Reg(50 + self.next_loop_reg % 8);
                let pred = Pred(1 + (self.next_loop_reg % 5));
                self.next_loop_reg += 1;
                self.b.mov(reg, Operand::imm(*trips as i64));
                let top = self.b.label(&format!("loop{}", self.b.here()));
                self.b.place(top);
                self.emit(body);
                self.b.iadd(reg, reg, Operand::imm(-1));
                self.b.isetp(pred, reg, Operand::imm(0), CmpOp::Gt);
                self.b.bra(top).pred(pred, false);
            }
            Block::Seq(a, c) => {
                self.emit(a);
                self.emit(c);
            }
        }
    }
}

/// Lowers a block to a complete program. The epilogue stores the
/// accumulator (R40) to `1 << 28 | gtid * 8`, making every thread's final
/// result observable in the data-memory image. The global thread id is
/// read from `R3`, which nothing else touches — `R0` holds the *lane* id
/// (shared across warps) and `R1` is consumed as the advancing address
/// cursor, so using either would let different warps' stores collide.
pub fn build_program(block: &Block) -> Program {
    let mut e = Emitter {
        b: ProgramBuilder::new(),
        next_bar: 0,
        next_sb: 0,
        next_loop_reg: 0,
    };
    e.emit(block);
    e.b.imad(Reg(2), Reg(3), Operand::imm(8), Operand::imm(1 << 28));
    e.b.stg(Reg(40), Reg(2), 0);
    e.b.exit();
    e.b.build()
        .expect("structured generator emits valid programs")
}

/// Wraps a block's program in a runnable workload.
pub fn build_workload(block: &Block, n_warps: usize) -> Workload {
    Workload::new("fuzz", build_program(block), n_warps)
        .with_init(Reg(0), InitValue::LaneId)
        .with_init(Reg(1), InitValue::GlobalTid)
        .with_init(Reg(3), InitValue::GlobalTid)
        .with_init(Reg(40), InitValue::Const(0))
}

/// Generates the workload for one fuzzing iteration, deterministically
/// from `seed`.
pub fn random_workload(seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let block = Block::random(&mut rng, 3);
    let n_warps = rng.gen_range(1usize..4);
    build_workload(&block, n_warps)
}

/// The differential configuration grid: the baseline SM plus every
/// [`SelectPolicy`] × [`DivergeOrder`] combination (in both switch-on-stall
/// and yield-enabled "Both" flavours), a capacity-limited TST, and the
/// DWS-like forking scheme.
pub fn config_grid() -> Vec<(String, SmConfig, SiConfig)> {
    let policies = [
        SelectPolicy::AnyStalled,
        SelectPolicy::HalfStalled,
        SelectPolicy::AllStalled,
    ];
    let orders = [
        DivergeOrder::FallthroughFirst,
        DivergeOrder::TakenFirst,
        DivergeOrder::Random,
        DivergeOrder::Hinted,
    ];
    let mut grid = vec![(
        "baseline".to_string(),
        SmConfig::turing_like(),
        SiConfig::disabled(),
    )];
    for order in orders {
        let mut sm = SmConfig::turing_like();
        sm.diverge_order = order;
        for policy in policies {
            grid.push((
                format!("sos/{policy:?}/{order:?}"),
                sm.clone(),
                SiConfig::sos(policy),
            ));
            grid.push((
                format!("both/{policy:?}/{order:?}"),
                sm.clone(),
                SiConfig::both(policy),
            ));
        }
    }
    grid.push((
        "sos/AnyStalled/tst2".to_string(),
        SmConfig::turing_like(),
        SiConfig::sos(SelectPolicy::AnyStalled).with_max_subwarps(2),
    ));
    grid.push((
        "dws".to_string(),
        SmConfig::turing_like(),
        SiConfig::dws_like(),
    ));
    // Memory-backend parity: the hierarchical L2+MSHR+DRAM timing model
    // reshuffles *when* fills land, so running it against the same baseline
    // image oracle proves timing backends never change architectural state.
    let hier = SmConfig::turing_like().with_mem_backend(MemBackendConfig::Hierarchical(
        HierarchyConfig::turing_like(),
    ));
    grid.push((
        "hier/baseline".to_string(),
        hier.clone(),
        SiConfig::disabled(),
    ));
    grid.push(("hier/best".to_string(), hier.clone(), SiConfig::best()));
    // Multi-SM parity: distributing the same warps across several SMs —
    // with the fixed-latency stub and with chip-shared L2/DRAM partitions —
    // reshuffles execution order and memory timing chip-wide, but the final
    // memory image must still match the single-SM baseline exactly.
    let mut multi_fixed = SmConfig::turing_like();
    multi_fixed.n_sms = 4;
    grid.push(("4sm/best".to_string(), multi_fixed, SiConfig::best()));
    let mut multi_hier = hier;
    multi_hier.n_sms = 4;
    grid.push(("4sm/hier/best".to_string(), multi_hier, SiConfig::best()));
    grid
}

/// A reproducible oracle failure: the seed to replay, the oracle that
/// failed, the configuration that disagreed, and what differed.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed whose generated program exposed the mismatch.
    pub seed: u64,
    /// The check that failed; the replay command re-runs this one.
    pub oracle: Oracle,
    /// Label of the disagreeing configuration (from [`config_grid`]).
    pub config: String,
    /// Human-readable description of the first difference.
    pub what: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let flag = match self.oracle {
            Oracle::Baseline => "",
            Oracle::TraceParity => " --trace-parity",
        };
        write!(
            f,
            "seed {} under `{}`: {} (replay: cargo run -p subwarp-fuzz -- --seed {} --iters 1{flag})",
            self.seed, self.config, self.what, self.seed
        )
    }
}

impl std::error::Error for Divergence {}

fn diff_images(base: &MemoryImage, other: &MemoryImage) -> Option<String> {
    if base == other {
        return None;
    }
    for (addr, v) in base.iter() {
        match other.get(addr) {
            None => {
                return Some(format!(
                    "address {addr:#x}: baseline wrote {v:#x}, config wrote nothing"
                ))
            }
            Some(o) if o != v => {
                return Some(format!(
                    "address {addr:#x}: baseline wrote {v:#x}, config wrote {o:#x}"
                ))
            }
            _ => {}
        }
    }
    other
        .iter()
        .find(|(a, _)| base.get(*a).is_none())
        .map(|(a, o)| format!("address {a:#x}: config wrote {o:#x}, baseline wrote nothing"))
}

/// Statistics from a completed fuzzing campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Random programs generated and checked.
    pub programs: u64,
    /// Total simulator runs (programs × configurations).
    pub runs: u64,
    /// Total warp instructions executed across all runs.
    pub instructions: u64,
}

/// Serializes `wl` with [`subwarp_trace::encode_workload`], decodes it back
/// and re-encodes it: the decoded workload must equal the original and the
/// re-encoding must be byte-identical. Returns the decoded workload.
fn round_trip(wl: &Workload) -> Result<Workload, String> {
    let bytes = subwarp_trace::encode_workload(wl);
    let replayed =
        subwarp_trace::decode_workload(&bytes).map_err(|e| format!("decode failed: {e}"))?;
    if replayed != *wl {
        return Err("decoded workload differs from the original".into());
    }
    let reencoded = subwarp_trace::encode_workload(&replayed);
    if reencoded != bytes {
        return Err(format!(
            "re-encoding is not byte-identical ({} vs {} bytes)",
            reencoded.len(),
            bytes.len()
        ));
    }
    Ok(replayed)
}

/// A per-seed differential check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Oracle {
    /// SI configurations against the baseline: every grid run must execute
    /// the first configuration's instruction count and write its final
    /// memory image.
    Baseline,
    /// Trace replay against direct execution: the workload must survive the
    /// encode → decode → re-encode round trip, and under every grid
    /// configuration its replay must match the direct run's [`RunStats`]
    /// and final memory image bit for bit. This proves the *serialized*
    /// form preserves exactly the architecture-visible behaviour of the
    /// in-memory form, for arbitrarily generated kernels.
    TraceParity,
}

impl Oracle {
    /// The oracle's name in [`FuzzJournal`] lines.
    fn name(self) -> &'static str {
        match self {
            Oracle::Baseline => "baseline",
            Oracle::TraceParity => "trace-parity",
        }
    }

    /// Checks one seed: generates its program once and runs it under every
    /// [`config_grid`] configuration in order, counting runs and
    /// instructions, and stops at the first mismatch (or
    /// [`SimError`](subwarp_core::SimError)).
    pub fn check(self, seed: u64) -> SeedOutcome {
        let mut outcome = SeedOutcome {
            seed,
            oracle: self,
            runs: 0,
            instructions: 0,
            failure: None,
        };
        if let Err((config, what)) = self.walk(seed, &mut outcome) {
            outcome.failure = Some(Divergence {
                seed,
                oracle: self,
                config,
                what,
            });
        }
        outcome
    }

    /// The loop of [`Oracle::check`]; a failure is `(config, what)`.
    fn walk(self, seed: u64, out: &mut SeedOutcome) -> Result<(), (String, String)> {
        let wl = random_workload(seed);
        let replayed = match self {
            Oracle::Baseline => None,
            Oracle::TraceParity => Some(round_trip(&wl).map_err(|w| ("<trace>".to_owned(), w))?),
        };
        let mut first: Option<(RunStats, MemoryImage)> = None;
        for (label, sm, si) in config_grid() {
            let sim = Simulator::new(sm, si);
            let run = |wl: &Workload| {
                sim.run_with_memory(wl)
                    .map_err(|e| (label.clone(), format!("simulation error: {e}")))
            };
            let (stats, image) = run(&wl)?;
            let mismatch = match &replayed {
                None => {
                    out.runs += 1;
                    out.instructions += stats.instructions;
                    match first.as_ref() {
                        None => {
                            first = Some((stats, image));
                            None
                        }
                        Some((base, _)) if base.instructions != stats.instructions => {
                            Some(format!(
                                "instruction count {} != baseline {}",
                                stats.instructions, base.instructions
                            ))
                        }
                        Some((_, base_image)) => diff_images(base_image, &image),
                    }
                }
                Some(replayed) => {
                    let (rstats, rimage) = run(replayed)?;
                    out.runs += 2;
                    out.instructions += stats.instructions + rstats.instructions;
                    if rstats != stats {
                        Some(format!(
                            "replayed stats differ (direct {} instructions / {} cycles, \
                             replay {} / {})",
                            stats.instructions, stats.cycles, rstats.instructions, rstats.cycles
                        ))
                    } else {
                        diff_images(&image, &rimage).map(|w| format!("replayed image differs: {w}"))
                    }
                }
            };
            if let Some(what) = mismatch {
                return Err((label, what));
            }
        }
        Ok(())
    }
}

/// One seed's completed differential check: its contribution to the
/// campaign counters plus the divergence it exposed, if any.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The seed checked.
    pub seed: u64,
    /// The check that ran.
    pub oracle: Oracle,
    /// Simulator runs performed for this seed.
    pub runs: u64,
    /// Warp instructions executed across those runs.
    pub instructions: u64,
    /// The first mismatch this seed exposed, or `None` if all
    /// configurations agreed.
    pub failure: Option<Divergence>,
}

/// Decodes one line written by [`FuzzJournal::record`]; `None` for a line
/// of any other shape, including one that names no known oracle.
fn outcome_from_json(v: &Value) -> Option<SeedOutcome> {
    let seed = v.u64_field("seed")?;
    let oracle = [Oracle::Baseline, Oracle::TraceParity]
        .into_iter()
        .find(|k| Some(k.name()) == v.str_field("oracle"))?;
    let failure = match v.str_field("kind")? {
        "ok" => None,
        "fail" => Some(Divergence {
            seed,
            oracle,
            config: v.str_field("config")?.to_owned(),
            what: v.str_field("what")?.to_owned(),
        }),
        _ => return None,
    };
    Some(SeedOutcome {
        seed,
        oracle,
        runs: v.u64_field("runs")?,
        instructions: v.u64_field("instructions")?,
        failure,
    })
}

/// An append-only JSONL journal of per-seed fuzzing outcomes, enabling
/// `--resume`: journaled seeds are skipped (their counters and failures
/// restored exactly) so an interrupted campaign finishes with the same
/// report and digest as an uninterrupted one.
///
/// One line per completed seed, keyed by `(oracle, seed)`, so one journal
/// can hold both oracles' campaigns:
///
/// ```json
/// {"kind":"ok","oracle":"baseline","seed":7,"runs":31,"instructions":12345}
/// {"kind":"fail","oracle":"trace-parity","seed":8,"runs":4,"instructions":90,"config":"dws","what":"..."}
/// ```
///
/// A line that names no known oracle is skipped, so its seed is checked
/// again. Seeds that panicked or timed out under supervision are *not*
/// journaled: a resumed campaign retries them.
#[derive(Debug)]
pub struct FuzzJournal {
    restored: usize,
    completed: std::sync::Mutex<std::collections::HashMap<(Oracle, u64), SeedOutcome>>,
    file: std::sync::Mutex<std::fs::File>,
}

impl FuzzJournal {
    /// Opens (creating if absent) the journal at `path`, loading previously
    /// completed seeds; malformed lines are skipped, and a torn last line
    /// is ended so the next record starts a line of its own.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<FuzzJournal> {
        let mut completed = std::collections::HashMap::new();
        let file = open_jsonl(path.as_ref(), |_, v| {
            if let Some(o) = outcome_from_json(&v) {
                completed.insert((o.oracle, o.seed), o);
            }
        })?;
        Ok(FuzzJournal {
            restored: completed.len(),
            completed: std::sync::Mutex::new(completed),
            file: std::sync::Mutex::new(file),
        })
    }

    /// Outcomes, of either oracle, restored from disk when the journal was
    /// opened.
    pub fn restored(&self) -> usize {
        self.restored
    }

    /// The journaled outcome of `oracle` for a seed, if it completed in an
    /// earlier run.
    pub fn lookup(&self, oracle: Oracle, seed: u64) -> Option<SeedOutcome> {
        self.completed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(oracle, seed))
            .cloned()
    }

    /// Records one completed seed (appended and flushed immediately).
    pub fn record(&self, outcome: &SeedOutcome) {
        let head = format!(
            "\"oracle\":\"{}\",\"seed\":{},\"runs\":{},\"instructions\":{}",
            outcome.oracle.name(),
            outcome.seed,
            outcome.runs,
            outcome.instructions
        );
        let line = match &outcome.failure {
            None => format!("{{\"kind\":\"ok\",{head}}}"),
            Some(d) => format!(
                "{{\"kind\":\"fail\",{head},\"config\":\"{}\",\"what\":\"{}\"}}",
                json_escape(&d.config),
                json_escape(&d.what)
            ),
        };
        {
            let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
            let _ = append_line(&mut f, &line);
        }
        self.completed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((outcome.oracle, outcome.seed), outcome.clone());
    }
}

/// A keep-going campaign's result: aggregate counters plus *every* failure
/// found, not just the first.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Aggregate campaign statistics (failed seeds contribute the runs
    /// they completed before diverging).
    pub report: FuzzReport,
    /// All failures, in seed order — the end-of-run digest.
    pub failures: Vec<Divergence>,
    /// Seeds restored from the journal instead of re-checked.
    pub restored: u64,
}

/// Runs a keep-going fuzzing campaign of `oracle` under supervision, on
/// `workers` threads that each check one seed at a time: a divergence (or a
/// panic, or a seed exceeding `deadline`) is recorded and the campaign
/// *continues* instead of stopping at the first failure.
///
/// Seeds `journal` holds for this oracle are restored without re-checking;
/// freshly completed seeds (ok or diverged) are journaled as they finish,
/// so a killed campaign resumed with the same journal produces the same
/// final report and failure digest as an uninterrupted one. Panicked/
/// timed-out seeds become synthetic [`Divergence`]s labeled `<supervisor>`
/// and are not journaled (a resume retries them).
pub fn run_fuzz_resilient(
    oracle: Oracle,
    seed: u64,
    iters: u64,
    workers: usize,
    deadline: Option<std::time::Duration>,
    journal: Option<std::sync::Arc<FuzzJournal>>,
) -> CampaignOutcome {
    use subwarp_pool::Supervisor;

    let labels: Vec<String> = (0..iters)
        .map(|i| format!("seed {}", seed.wrapping_add(i)))
        .collect();
    let sup = Supervisor {
        workers,
        deadline,
        ..Supervisor::default()
    };
    // Each job restores its seed from the journal or checks it, and says
    // which it did.
    let checked = subwarp_pool::run_supervised::<_, String, _>(&sup, &labels, move |k, _| {
        let s = seed.wrapping_add(k as u64);
        if let Some(o) = journal.as_ref().and_then(|j| j.lookup(oracle, s)) {
            return Ok((o, true));
        }
        let outcome = oracle.check(s);
        if let Some(j) = &journal {
            j.record(&outcome);
        }
        Ok((outcome, false))
    });
    let mut report = FuzzReport::default();
    let mut failures = Vec::new();
    let mut restored = 0;
    for (k, result) in checked.into_iter().enumerate() {
        let s = seed.wrapping_add(k as u64);
        let o = match result {
            Ok((o, from_journal)) => {
                restored += u64::from(from_journal);
                o
            }
            // Supervision failures (panic/timeout) synthesize a
            // reproducible failure record of their own.
            Err(e) => SeedOutcome {
                seed: s,
                oracle,
                runs: 0,
                instructions: 0,
                failure: Some(Divergence {
                    seed: s,
                    oracle,
                    config: "<supervisor>".into(),
                    what: e.cause.to_string(),
                }),
            },
        };
        report.programs += 1;
        report.runs += o.runs;
        report.instructions += o.instructions;
        if let Some(d) = o.failure {
            failures.push(d);
        }
    }
    CampaignOutcome {
        report,
        failures,
        restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(random_workload(42), random_workload(42));
        // Distinct seeds almost surely differ (this pair does).
        assert_ne!(random_workload(1).program, random_workload(2).program);
    }

    #[test]
    fn grid_covers_every_policy_and_order() {
        let grid = config_grid();
        // baseline + 3 policies × 4 orders × 2 flavours + tst2 + dws
        // + 2 hierarchical-backend parity configs + 2 multi-SM configs.
        assert_eq!(grid.len(), 1 + 3 * 4 * 2 + 2 + 2 + 2);
        assert!(grid.iter().any(|(l, _, _)| l == "baseline"));
        assert!(grid.iter().any(|(l, _, _)| l == "hier/best"));
        assert!(grid.iter().any(|(l, _, _)| l == "4sm/hier/best"));
        assert!(grid
            .iter()
            .any(|(l, _, _)| l.contains("AllStalled") && l.contains("Hinted")));
    }

    #[test]
    fn oracle_passes_a_short_campaign() {
        let jobs = subwarp_pool::default_jobs();
        // The trace-parity oracle runs every configuration twice (direct +
        // replay), the baseline one once.
        for (oracle, runs_per_config) in [(Oracle::Baseline, 1), (Oracle::TraceParity, 2)] {
            let c = run_fuzz_resilient(oracle, 0xF00D, 4, jobs, None, None);
            assert!(c.failures.is_empty(), "{:?}", c.failures);
            assert_eq!(c.report.programs, 4);
            assert_eq!(
                c.report.runs,
                4 * runs_per_config * config_grid().len() as u64
            );
            assert!(c.report.instructions > 0);
        }
    }

    #[test]
    fn divergence_display_names_the_seed_and_replay_command() {
        let mut d = Divergence {
            seed: 7,
            oracle: Oracle::Baseline,
            config: "dws".into(),
            what: "x".into(),
        };
        assert_eq!(
            d.to_string(),
            "seed 7 under `dws`: x (replay: cargo run -p subwarp-fuzz -- --seed 7 --iters 1)"
        );
        d.oracle = Oracle::TraceParity;
        assert_eq!(
            d.to_string(),
            "seed 7 under `dws`: x \
             (replay: cargo run -p subwarp-fuzz -- --seed 7 --iters 1 --trace-parity)"
        );
    }

    fn temp_journal_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("subwarp_fuzz_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn resilient_campaign_sums_per_seed_checks() {
        let mut serial = FuzzReport::default();
        for s in 0xF00D..0xF00D + 4 {
            let o = Oracle::Baseline.check(s);
            assert!(o.failure.is_none(), "schedules must agree: {:?}", o.failure);
            serial.programs += 1;
            serial.runs += o.runs;
            serial.instructions += o.instructions;
        }
        let resilient = run_fuzz_resilient(Oracle::Baseline, 0xF00D, 4, 2, None, None);
        assert!(resilient.failures.is_empty());
        assert_eq!(resilient.report, serial);
        assert_eq!(resilient.restored, 0);
    }

    #[test]
    fn resilient_serial_and_parallel_agree() {
        for oracle in [Oracle::Baseline, Oracle::TraceParity] {
            let a = run_fuzz_resilient(oracle, 99, 6, 1, None, None);
            let b = run_fuzz_resilient(oracle, 99, 6, 4, None, None);
            assert_eq!(
                a.report, b.report,
                "{oracle:?} report depends on worker count"
            );
            assert_eq!(a.failures.len(), b.failures.len());
        }
    }

    #[test]
    fn journal_roundtrips_ok_and_fail_outcomes() {
        let path = temp_journal_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let j = FuzzJournal::open(&path).unwrap();
            assert_eq!(j.restored(), 0);
            j.record(&SeedOutcome {
                seed: 3,
                oracle: Oracle::Baseline,
                runs: 29,
                instructions: 1234,
                failure: None,
            });
            j.record(&SeedOutcome {
                seed: 4,
                oracle: Oracle::TraceParity,
                runs: 2,
                instructions: 55,
                failure: Some(Divergence {
                    seed: 4,
                    oracle: Oracle::TraceParity,
                    config: "dws \"quoted\"".into(),
                    what: "line1\nline2\tend".into(),
                }),
            });
        }
        let j = FuzzJournal::open(&path).unwrap();
        assert_eq!(j.restored(), 2);
        let ok = j.lookup(Oracle::Baseline, 3).unwrap();
        assert_eq!((ok.runs, ok.instructions), (29, 1234));
        assert!(ok.failure.is_none());
        let fail = j.lookup(Oracle::TraceParity, 4).unwrap();
        assert_eq!(fail.oracle, Oracle::TraceParity);
        let d = fail.failure.unwrap();
        assert_eq!(d.oracle, Oracle::TraceParity);
        assert_eq!(d.config, "dws \"quoted\"");
        assert_eq!(d.what, "line1\nline2\tend");
        // Each oracle sees only its own seeds.
        assert!(j.lookup(Oracle::TraceParity, 3).is_none());
        assert!(j.lookup(Oracle::Baseline, 4).is_none());
        assert!(j.lookup(Oracle::Baseline, 5).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lines_without_a_known_oracle_are_skipped() {
        use std::io::Write;
        let path = temp_journal_path("untagged");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(
                b"{\"kind\":\"ok\",\"seed\":3,\"runs\":29,\"instructions\":70}\n\
                  {\"kind\":\"ok\",\"oracle\":\"nonesuch\",\"seed\":4,\"runs\":1,\"instructions\":1}\n\
                  {\"kind\":\"ok\",\"oracle\":\"baseline\",\"seed\":5,\"runs\":31,\"instructions\":80}\n",
            )
            .unwrap();
        let j = FuzzJournal::open(&path).unwrap();
        // The untagged line and the one naming an unknown oracle are
        // skipped; their seeds are checked again by either oracle.
        assert_eq!(j.restored(), 1);
        for oracle in [Oracle::Baseline, Oracle::TraceParity] {
            assert!(j.lookup(oracle, 3).is_none());
            assert!(j.lookup(oracle, 4).is_none());
        }
        let o = j.lookup(Oracle::Baseline, 5).expect("tagged line restores");
        assert_eq!(
            (o.oracle, o.runs, o.instructions),
            (Oracle::Baseline, 31, 80)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_skips_journaled_seeds_and_restores_counts() {
        let path = temp_journal_path("resume");
        let _ = std::fs::remove_file(&path);
        let oracles = [Oracle::Baseline, Oracle::TraceParity];
        // First legs: only the first 3 seeds, both oracles in one journal.
        for oracle in oracles {
            let j = std::sync::Arc::new(FuzzJournal::open(&path).unwrap());
            run_fuzz_resilient(oracle, 0xBEEF, 3, 2, None, Some(j));
        }
        assert_eq!(FuzzJournal::open(&path).unwrap().restored(), 6);
        for oracle in oracles {
            // Uninterrupted reference campaign (no journal).
            let full = run_fuzz_resilient(oracle, 0xBEEF, 5, 2, None, None);
            // Second leg: the full range resumes this oracle's 3 seeds only.
            let j = std::sync::Arc::new(FuzzJournal::open(&path).unwrap());
            let resumed = run_fuzz_resilient(oracle, 0xBEEF, 5, 2, None, Some(j));
            assert_eq!(resumed.restored, 3, "{oracle:?}");
            assert_eq!(resumed.report, full.report, "{oracle:?}");
            assert_eq!(resumed.failures.len(), full.failures.len());
        }
        // Both second legs journaled their two fresh seeds.
        assert_eq!(FuzzJournal::open(&path).unwrap().restored(), 10);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_tolerates_a_corrupt_tail_line() {
        use std::io::Write;
        let outcome = |seed, runs| SeedOutcome {
            seed,
            oracle: Oracle::Baseline,
            runs,
            instructions: 10 * runs,
            failure: None,
        };
        // Crash tails: truncated inside a key, torn right after the seed,
        // and a complete record that lost only its newline.
        let tails: [(&[u8], Option<u64>); 3] = [
            (b"{\"kind\":\"ok\",\"oracle\":\"baseline\",\"se", None),
            (b"{\"kind\":\"ok\",\"oracle\":\"baseline\",\"seed\":3,", None),
            (
                b"{\"kind\":\"ok\",\"oracle\":\"baseline\",\"seed\":3,\"runs\":7,\"instructions\":70}",
                Some(7),
            ),
        ];
        for (tail, tail_runs) in tails {
            let path = temp_journal_path("corrupt");
            let _ = std::fs::remove_file(&path);
            FuzzJournal::open(&path).unwrap().record(&outcome(1, 10));
            // Simulate a crash mid-append.
            {
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .unwrap();
                f.write_all(tail).unwrap();
            }
            let j = FuzzJournal::open(&path).unwrap();
            assert_eq!(j.restored(), 1 + tail_runs.is_some() as usize);
            assert!(j.lookup(Oracle::Baseline, 1).is_some());
            // The next record after the tail must survive a reopen with
            // its own counters; a torn seed stays absent, a complete one
            // keeps its own.
            j.record(&outcome(5, 2));
            drop(j);
            let j = FuzzJournal::open(&path).unwrap();
            let five = j
                .lookup(Oracle::Baseline, 5)
                .expect("record after a torn tail is restored");
            assert_eq!((five.runs, five.instructions), (2, 20));
            assert_eq!(j.lookup(Oracle::Baseline, 3).map(|o| o.runs), tail_runs);
            let _ = std::fs::remove_file(&path);
        }
    }
}
