//! Chip stepping: every SM of one run steps through lookahead epochs, on
//! one thread or several.
//!
//! - **Epochs.** Let `lo` be the lowest clock among unfinished SMs. An
//!   epoch is `[lo, lo + lookahead)`, where the lookahead is
//!   [`Partition::lookahead`] (the L2 hit latency) on a chip that shares a
//!   memory partition, and unbounded on a shareless one (one SM, the fixed
//!   stub, private partitions). Each SM steps while its clock is below its
//!   horizon (the epoch's end, or sooner, see below), and its fast-forward
//!   never jumps past it.
//! - **Deferred misses.** A shared-partition miss is recorded when it is
//!   issued, with a sequence number reserved in the LSU/TEX unit, and is
//!   resolved at the barrier by the unchanged
//!   [`MemoryBackend::miss_shared`](subwarp_mem::MemoryBackend::miss_shared)
//!   logic. Every miss below the next epoch's `lo` is resolved, in global
//!   `(cycle, SM id, issue order)` — the order a serial `(cycle, SM id)`
//!   schedule would issue them in. No such miss completes before
//!   `cycle + lookahead`, so no SM can need its answer within the epoch it
//!   was issued in, nor in the next one while it stays unresolved.
//! - **The early merge.** The exception is a miss to a line with an
//!   in-flight fill already in the SM's own MSHR file: it may merge and
//!   complete at that fill's `done`. Whether it merges depends on how
//!   earlier unresolved misses prune the file, so it is decided at
//!   resolution; at issue the SM lowers its horizon to that `done`, and
//!   stops before it could need the answer.
//! - **Failures.** An SM that fails stops; the failure is final once every
//!   SM still stepping is past it in `(cycle, SM id)` order, and the first
//!   in that order is the one reported.
//! - **Threads.** Within an epoch SMs are independent, so they step on
//!   scoped threads. Each thread always steps the same share of the SMs
//!   (every `threads`-th one), so an SM's state stays in one core's
//!   cache; the calling thread takes the share that is never larger,
//!   because it also resolves and plans between two barrier crossings.
//!   The barrier spins, then yields.
//!
//! Results do not depend on the thread count: each SM's steps within an
//! epoch read only its own state, and the partition changes only at the
//! barrier, in the fixed order above.

use crate::error::SimError;
use crate::sm::SimState;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use subwarp_mem::Partition;

/// Steps every SM of one run until all finish, on `threads` threads, in
/// epochs `epoch` cycles wide (unbounded when `None`): at most the
/// [`Partition::lookahead`] of the shared `partition`, if there is one.
///
/// # Errors
/// The failure first in `(cycle, SM id)` order, when any SM fails.
pub(crate) fn step_chip(
    states: &mut [SimState<'_>],
    partition: Option<Partition>,
    epoch: Option<u64>,
    threads: usize,
) -> Result<(), SimError> {
    let mut chip = Chip {
        epoch,
        partition,
        order: Vec::new(),
    };
    if threads <= 1 {
        let mut refs: Vec<&mut SimState<'_>> = states.iter_mut().collect();
        while let Some(hi) = chip.plan(&mut refs)? {
            for st in refs.iter_mut() {
                st.run_epoch(hi);
            }
        }
        return Ok(());
    }
    let cells: Vec<Mutex<&mut SimState<'_>>> = states.iter_mut().map(Mutex::new).collect();
    let ctl = Control {
        barrier: Barrier::new(threads),
        hi: AtomicU64::new(STOP),
    };
    std::thread::scope(|s| {
        for t in 1..threads {
            let (ctl, cells) = (&ctl, &cells);
            s.spawn(move || {
                let _poison = PoisonOnPanic(&ctl.barrier);
                loop {
                    ctl.barrier.wait();
                    let hi = ctl.hi.load(Ordering::Relaxed);
                    if hi == STOP {
                        break;
                    }
                    step_share(cells, t, threads, hi);
                    ctl.barrier.wait();
                }
            });
        }
        let _poison = PoisonOnPanic(&ctl.barrier);
        let planned = loop {
            let mut guards: Vec<_> = cells
                .iter()
                .map(|c| c.lock().expect("no stepping thread panics holding an SM"))
                .collect();
            let mut refs: Vec<&mut SimState<'_>> = guards.iter_mut().map(|g| &mut ***g).collect();
            let hi = match chip.plan(&mut refs) {
                Ok(Some(hi)) => hi,
                done => break done,
            };
            drop(guards);
            ctl.hi.store(hi, Ordering::Relaxed);
            ctl.barrier.wait();
            step_share(&cells, 0, threads, hi);
            ctl.barrier.wait();
        };
        ctl.hi.store(STOP, Ordering::Relaxed);
        ctl.barrier.wait();
        planned.map(|_| ())
    })
}

/// The memory partition the SMs share, and the resolver's scratch.
struct Chip {
    /// Epoch width; `None` (unbounded) when nothing is shared.
    epoch: Option<u64>,
    partition: Option<Partition>,
    /// Scratch: `(cycle, SM id, issue index)` of the misses to resolve.
    order: Vec<(u64, usize, usize)>,
}

impl Chip {
    /// Work between two epochs: resolves every deferred miss below the
    /// lowest unfinished SM clock `lo`, then returns the next epoch's end
    /// (`None` once every SM has finished).
    ///
    /// # Errors
    /// The first failure in `(cycle, SM id)` order, once no SM still
    /// stepping could fail before it.
    fn plan(&mut self, states: &mut [&mut SimState<'_>]) -> Result<Option<u64>, SimError> {
        let next = states
            .iter()
            .enumerate()
            .filter_map(|(sm, st)| st.active_cycle().map(|c| (c, sm)))
            .min();
        let lo = next.map_or(u64::MAX, |(c, _)| c);
        if let Some(partition) = self.partition.as_mut() {
            self.order.clear();
            for (sm, st) in states.iter().enumerate() {
                self.order
                    .extend(st.deferred_before(lo).map(|(i, cycle)| (cycle, sm, i)));
            }
            self.order.sort_unstable();
            for &(_, sm, i) in &self.order {
                states[sm].resolve_miss(i, partition);
            }
            for st in states.iter_mut() {
                st.retire_resolved(lo, partition);
            }
        }
        let failed = states
            .iter()
            .enumerate()
            .filter_map(|(sm, st)| st.failed_at().map(|c| (c, sm)))
            .min();
        if let Some((at, sm)) = failed {
            if next.is_none_or(|n| n > (at, sm)) {
                return Err(states[sm].take_failure());
            }
        }
        Ok(next.map(|_| self.epoch.map_or(u64::MAX, |l| lo.saturating_add(l))))
    }
}

/// `Control::hi` while no epoch is running: workers exit. A real epoch end
/// is always above 0.
const STOP: u64 = 0;

/// What the stepping threads share. The calling thread stores `hi`
/// before it enters the barrier that starts an epoch; the barrier's
/// release/acquire pair publishes it, so it needs no ordering of its own.
struct Control {
    barrier: Barrier,
    /// The current epoch's end, or [`STOP`].
    hi: AtomicU64,
}

/// Steps thread `t`'s share of the SMs to the epoch's end: every
/// `threads`-th SM, starting from `threads - 1 - t`, so the calling thread
/// (`t = 0`) gets the last residue class, never the largest.
fn step_share(cells: &[Mutex<&mut SimState<'_>>], t: usize, threads: usize, hi: u64) {
    for cell in cells.iter().skip(threads - 1 - t).step_by(threads) {
        cell.lock()
            .expect("no stepping thread panics holding an SM")
            .run_epoch(hi);
    }
}

/// Spin iterations before a waiting thread starts yielding its core.
const SPINS: u32 = 1 << 10;

/// A reusable barrier that spins, then yields. Epochs are tens of
/// microseconds, far below what a futex wake-up costs.
///
/// Ordering: every arrival is an `AcqRel` read-modify-write of `arrived`,
/// so the last arrival sees all earlier ones' writes; it resets `arrived`
/// and then publishes `generation + 1` with `Release`, which waiters load
/// with `Acquire`. A thread therefore leaves `wait` seeing every write made
/// before any thread entered it, and re-enters only after the reset.
struct Barrier {
    threads: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Set when a thread panics, so the others stop waiting for it.
    poisoned: AtomicBool,
}

impl Barrier {
    fn new(threads: usize) -> Barrier {
        Barrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation + 1, Ordering::Release);
            return;
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            assert!(
                !self.poisoned.load(Ordering::Relaxed),
                "a chip stepping thread panicked"
            );
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Poisons the barrier if its thread unwinds, so no thread waits forever
/// for one that is gone.
struct PoisonOnPanic<'a>(&'a Barrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
        }
    }
}
