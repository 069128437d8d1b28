//! Pluggable run observability: the [`Profiler`] sink, a run's one side
//! channel besides its statistics, and [`ChromeTraceProfiler`], an exporter
//! producing Chrome trace-event JSON that loads directly into Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Each SM buffers its streams while it runs; once every SM has finished,
//! the simulator replays them to the attached profiler SM by SM. There are
//! three streams:
//!
//! 1. **Cycle attribution** — every simulated cycle (including stretches
//!    skipped in bulk by the quiescence fast-forward) tagged with exactly
//!    one [`CycleCause`], at SM granularity and per processing block.
//! 2. **Thread-status transitions** — [`TraceEvent`]s (the paper's
//!    Figure 7/10 arrows). [`EventRecorder`](crate::EventRecorder) keeps
//!    only this stream; the Chrome exporter reconstructs per-warp
//!    subwarp-activity timelines from it.
//! 3. **Counters** — LSU/TEX/RT occupancy and L0I/L1I/L1D hit rates,
//!    sampled once per executed cycle; when the SM runs the hierarchical
//!    memory backend, L2 hit rate, MSHR occupancy, and DRAM channel
//!    occupancy tracks are emitted too.
//!
//! Profiling is strictly opt-in: when no profiler is attached the simulator
//! performs no sampling and no event construction beyond its ordinary
//! statistics.

use std::collections::BTreeMap;

use crate::stats::CycleCause;
use crate::trace::TraceEvent;
use subwarp_mem::{CacheStats, MemCounters};

/// A point-in-time sample of service-unit occupancy and instruction/data
/// cache counters, taken once per executed cycle while a profiler is
/// attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSample {
    /// Cycle the sample was taken on.
    pub cycle: u64,
    /// Loads outstanding in the LSU.
    pub lsu_in_flight: usize,
    /// Requests outstanding in the TEX path.
    pub tex_in_flight: usize,
    /// Traversals outstanding in the RT core.
    pub rt_in_flight: usize,
    /// L0 instruction cache counters, summed over processing blocks.
    pub l0i: CacheStats,
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// Memory-backend occupancy (L2 counters, in-flight MSHRs, busy DRAM
    /// channels). `None` when the SM runs the fixed-latency stub, which has
    /// no dynamic state — default traces are unchanged by its absence.
    pub mem: Option<MemCounters>,
}

/// Observability sink driven by the simulator during a
/// [`run_profiled`](crate::Simulator::run_profiled) run.
///
/// All methods have no-op defaults so a test profiler can override only the
/// stream it cares about. Methods are invoked in cycle order within one SM;
/// multi-SM runs are delimited by [`begin_sm`](Self::begin_sm) /
/// [`end_sm`](Self::end_sm) pairs.
pub trait Profiler {
    /// A new SM's simulation is starting.
    fn begin_sm(&mut self, _sm_id: usize) {}

    /// The current SM finished at `cycle`.
    fn end_sm(&mut self, _cycle: u64) {}

    /// `n` consecutive cycles starting at `start` were attributed to
    /// `cause` at SM level. `n > 1` only for fast-forwarded stretches.
    fn sm_cycles(&mut self, _start: u64, _n: u64, _cause: CycleCause) {}

    /// `n` consecutive cycles starting at `start` were attributed to
    /// `cause` on processing block `pb`.
    fn pb_cycles(&mut self, _pb: usize, _start: u64, _n: u64, _cause: CycleCause) {}

    /// A thread-status transition (the stream an
    /// [`EventRecorder`](crate::EventRecorder) keeps).
    fn event(&mut self, _ev: &TraceEvent) {}

    /// A per-cycle occupancy/cache sample. Not emitted for fast-forwarded
    /// cycles — by construction nothing changes during those stretches.
    fn counters(&mut self, _sample: &CounterSample) {}
}

/// One buffered [`Profiler`] callback, replayed verbatim later.
#[derive(Debug, Clone)]
pub(crate) enum BufferedCall {
    SmCycles(u64, u64, CycleCause),
    PbCycles(usize, u64, u64, CycleCause),
    Event(TraceEvent),
    Counters(CounterSample),
}

/// A [`Profiler`] that records its callback stream for later replay.
///
/// The chip scheduler interleaves SM stepping in global-cycle order, but
/// profilers expect each SM's stream contiguous between `begin_sm` /
/// `end_sm`. Each SM therefore profiles into one of these during the run,
/// and the chip replays the buffers SM by SM once every SM has finished.
/// `begin_sm` / `end_sm` are not buffered — the chip emits them itself
/// around [`replay`](Self::replay).
#[derive(Debug, Default)]
pub(crate) struct BufferingProfiler {
    calls: Vec<BufferedCall>,
}

impl BufferingProfiler {
    /// Replays the buffered stream into `p`, in recorded order.
    pub(crate) fn replay(self, p: &mut dyn Profiler) {
        for call in self.calls {
            match call {
                BufferedCall::SmCycles(start, n, cause) => p.sm_cycles(start, n, cause),
                BufferedCall::PbCycles(pb, start, n, cause) => p.pb_cycles(pb, start, n, cause),
                BufferedCall::Event(ev) => p.event(&ev),
                BufferedCall::Counters(sample) => p.counters(&sample),
            }
        }
    }
}

impl Profiler for BufferingProfiler {
    fn sm_cycles(&mut self, start: u64, n: u64, cause: CycleCause) {
        self.calls.push(BufferedCall::SmCycles(start, n, cause));
    }

    fn pb_cycles(&mut self, pb: usize, start: u64, n: u64, cause: CycleCause) {
        self.calls.push(BufferedCall::PbCycles(pb, start, n, cause));
    }

    fn event(&mut self, ev: &TraceEvent) {
        self.calls.push(BufferedCall::Event(ev.clone()));
    }

    fn counters(&mut self, sample: &CounterSample) {
        self.calls.push(BufferedCall::Counters(*sample));
    }
}

/// Trace-track ids: the SM-level attribution track, then one per PB,
/// then warp tracks at their own ids. Warp ids are small (≤ thousands), so
/// a high base keeps the synthetic tracks clear of them.
const SM_ATTR_TID: u64 = 1_000_000;
const PB_ATTR_TID: u64 = 1_000_001;

/// A [`Profiler`] that renders the run as Chrome trace-event JSON.
///
/// Tracks per SM (`pid` = SM id):
/// - one "cycle attribution" track of back-to-back spans, one per cause
///   run (SM level), plus one per processing block;
/// - one track per warp with subwarp-activity spans reconstructed from
///   [`EventKind`](crate::EventKind) transitions, with every transition
///   also marked as an instant event;
/// - counter tracks for LSU/TEX/RT occupancy and L0I/L1I/L1D hit rates.
///
/// Time is reported as 1 cycle = 1 µs (the trace-event `ts` unit), so
/// Perfetto's time axis reads directly as cycles when interpreted in µs.
#[derive(Debug, Default)]
pub struct ChromeTraceProfiler {
    /// Rendered JSON event objects (without trailing commas).
    events: Vec<String>,
    sm_id: usize,
    /// Open run-length-merged SM-level cause span: `(start, len, cause)`.
    open_sm: Option<(u64, u64, CycleCause)>,
    /// Open per-PB cause spans.
    open_pb: Vec<Option<(u64, u64, CycleCause)>>,
    /// Open per-warp activity span: `warp -> (start, mask, pc)`.
    open_warp: BTreeMap<usize, (u64, u32, usize)>,
    /// Cycle each warp's last span closed at (for synthesized opens).
    last_close: BTreeMap<usize, u64>,
    /// Warps that already have thread-name metadata.
    named_warps: BTreeMap<usize, ()>,
    /// Last counter sample, for emit-on-change deduplication.
    last_counters: Option<CounterSample>,
}

impl ChromeTraceProfiler {
    /// An empty exporter.
    pub fn new() -> ChromeTraceProfiler {
        ChromeTraceProfiler::default()
    }

    /// Number of trace events rendered so far.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Serializes the collected trace as a Chrome trace-event JSON object
    /// (`{"traceEvents": [...]}`), loadable in Perfetto.
    pub fn to_json(&self) -> String {
        let mut out =
            String::with_capacity(64 + self.events.iter().map(|e| e.len() + 2).sum::<usize>());
        out.push_str("{\"displayTimeUnit\":\"ms\",");
        out.push_str("\"otherData\":{\"unit\":\"1 cycle = 1us\"},");
        out.push_str("\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }

    fn meta_thread(&mut self, tid: u64, name: &str, sort: i64) {
        let pid = self.sm_id;
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{sort}}}}}"
        ));
    }

    fn complete(&mut self, tid: u64, name: &str, start: u64, dur: u64, args: &str) {
        let pid = self.sm_id;
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{start},\"dur\":{dur},\
             \"name\":\"{name}\",\"args\":{{{args}}}}}"
        ));
    }

    fn counter(&mut self, name: &str, ts: u64, value: f64) {
        let pid = self.sm_id;
        // Trim trailing zeros so occupancy counters stay integral.
        let v = if value.fract() == 0.0 {
            format!("{}", value as i64)
        } else {
            format!("{value:.4}")
        };
        self.events.push(format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts},\"name\":\"{name}\",\
             \"args\":{{\"value\":{v}}}}}"
        ));
    }

    fn ensure_warp_track(&mut self, warp: usize) {
        if self.named_warps.insert(warp, ()).is_none() {
            self.meta_thread(warp as u64, &format!("warp {warp}"), warp as i64);
        }
    }

    fn flush_sm_span(&mut self) {
        if let Some((start, len, cause)) = self.open_sm.take() {
            self.complete(SM_ATTR_TID, cause.label(), start, len, "");
        }
    }

    fn flush_pb_span(&mut self, pb: usize) {
        if let Some((start, len, cause)) = self.open_pb[pb].take() {
            self.complete(PB_ATTR_TID + pb as u64, cause.label(), start, len, "");
        }
    }

    fn close_warp_span(&mut self, warp: usize, cycle: u64) -> Option<(u64, u32, usize)> {
        let open = self.open_warp.remove(&warp)?;
        let (start, mask, pc) = open;
        if cycle > start {
            self.ensure_warp_track(warp);
            self.complete(
                warp as u64,
                &format!("active 0x{mask:08x}"),
                start,
                cycle - start,
                &format!("\"mask\":\"0x{mask:08x}\",\"pc\":{pc}"),
            );
        }
        self.last_close.insert(warp, cycle);
        Some(open)
    }

    fn open_warp_span(&mut self, warp: usize, cycle: u64, mask: u32, pc: usize) {
        if mask != 0 {
            self.open_warp.insert(warp, (cycle, mask, pc));
        }
    }
}

impl Profiler for ChromeTraceProfiler {
    fn begin_sm(&mut self, sm_id: usize) {
        self.sm_id = sm_id;
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{sm_id},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"SM {sm_id}\"}}}}"
        ));
        self.meta_thread(SM_ATTR_TID, "cycle attribution (SM)", -2_000_000);
        self.open_pb.clear();
    }

    fn end_sm(&mut self, cycle: u64) {
        self.flush_sm_span();
        for pb in 0..self.open_pb.len() {
            self.flush_pb_span(pb);
        }
        let open: Vec<usize> = self.open_warp.keys().copied().collect();
        for warp in open {
            self.close_warp_span(warp, cycle);
        }
        self.last_close.clear();
        self.last_counters = None;
    }

    fn sm_cycles(&mut self, start: u64, n: u64, cause: CycleCause) {
        match &mut self.open_sm {
            Some((s, len, c)) if *c == cause && *s + *len == start => *len += n,
            _ => {
                self.flush_sm_span();
                self.open_sm = Some((start, n, cause));
            }
        }
    }

    fn pb_cycles(&mut self, pb: usize, start: u64, n: u64, cause: CycleCause) {
        if pb >= self.open_pb.len() {
            for i in self.open_pb.len()..=pb {
                self.meta_thread(
                    PB_ATTR_TID + i as u64,
                    &format!("cycle attribution (PB{i})"),
                    -1_000_000 + i as i64,
                );
                self.open_pb.push(None);
            }
        }
        match &mut self.open_pb[pb] {
            Some((s, len, c)) if *c == cause && *s + *len == start => *len += n,
            _ => {
                self.flush_pb_span(pb);
                self.open_pb[pb] = Some((start, n, cause));
            }
        }
    }

    fn event(&mut self, ev: &TraceEvent) {
        use crate::trace::EventKind::*;
        self.ensure_warp_track(ev.warp);
        let pid = self.sm_id;
        self.events.push(format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"s\":\"t\",\
             \"name\":\"{}\",\"args\":{{\"mask\":\"0x{:08x}\",\"pc\":{}}}}}",
            ev.warp,
            ev.cycle,
            ev.kind.label(),
            ev.mask,
            ev.pc
        ));
        match ev.kind {
            // A subwarp became ACTIVE: the previous activity span (if any)
            // ends and a new one starts.
            Select | Reconverge => {
                self.close_warp_span(ev.warp, ev.cycle);
                self.open_warp_span(ev.warp, ev.cycle, ev.mask, ev.pc);
            }
            // `ev.mask` left the active subwarp; the remainder (diverge)
            // keeps executing.
            Diverge | Stall | Yield | Block | Exit => {
                let prev = self.close_warp_span(ev.warp, ev.cycle);
                let (mask, pc) = match prev {
                    Some((_, m, p)) => (m, p),
                    // No span was open (e.g. the warp has been active since
                    // launch): synthesize one from its last close so the
                    // timeline has no silent gap.
                    None => {
                        let start = self.last_close.get(&ev.warp).copied().unwrap_or(0);
                        if ev.cycle > start {
                            self.complete(
                                ev.warp as u64,
                                &format!("active 0x{:08x}", ev.mask),
                                start,
                                ev.cycle - start,
                                &format!("\"mask\":\"0x{:08x}\",\"pc\":{}", ev.mask, ev.pc),
                            );
                            self.last_close.insert(ev.warp, ev.cycle);
                        }
                        (ev.mask, ev.pc)
                    }
                };
                if ev.kind == Diverge {
                    self.open_warp_span(ev.warp, ev.cycle, mask & !ev.mask, pc);
                }
            }
            // Becomes READY, not ACTIVE — the instant mark above suffices.
            Wakeup => {}
        }
    }

    fn counters(&mut self, sample: &CounterSample) {
        let hit_rate = |s: CacheStats| {
            let total = s.hits + s.misses;
            if total == 0 {
                None
            } else {
                Some(s.hits as f64 / total as f64)
            }
        };
        let last = self.last_counters;
        let changed = |f: fn(&CounterSample) -> u64| last.map(|l| f(&l)) != Some(f(sample));
        if changed(|s| s.lsu_in_flight as u64) {
            self.counter("LSU in-flight", sample.cycle, sample.lsu_in_flight as f64);
        }
        if changed(|s| s.tex_in_flight as u64) {
            self.counter("TEX in-flight", sample.cycle, sample.tex_in_flight as f64);
        }
        if changed(|s| s.rt_in_flight as u64) {
            self.counter("RT in-flight", sample.cycle, sample.rt_in_flight as f64);
        }
        for (name, get) in [
            (
                "L0I hit rate",
                (|s: &CounterSample| s.l0i) as fn(&CounterSample) -> CacheStats,
            ),
            ("L1I hit rate", |s: &CounterSample| s.l1i),
            ("L1D hit rate", |s: &CounterSample| s.l1d),
        ] {
            let now = get(sample);
            if last.map(|l| get(&l)) != Some(now) {
                if let Some(r) = hit_rate(now) {
                    self.counter(name, sample.cycle, r);
                }
            }
        }
        if let Some(mem) = sample.mem {
            let last_mem = last.and_then(|l| l.mem);
            if last_mem.map(|m| m.l2) != Some(mem.l2) {
                if let Some(r) = hit_rate(mem.l2) {
                    self.counter("L2 hit rate", sample.cycle, r);
                }
            }
            if last_mem.map(|m| m.mshr_in_flight) != Some(mem.mshr_in_flight) {
                self.counter("MSHR in-flight", sample.cycle, mem.mshr_in_flight as f64);
            }
            if last_mem.map(|m| m.busy_channels) != Some(mem.busy_channels) {
                self.counter("DRAM busy channels", sample.cycle, mem.busy_channels as f64);
            }
        }
        self.last_counters = Some(*sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    fn ev(cycle: u64, warp: usize, kind: EventKind, mask: u32, pc: usize) -> TraceEvent {
        TraceEvent {
            cycle,
            warp,
            kind,
            mask,
            pc,
        }
    }

    #[test]
    fn cause_spans_merge_runs() {
        let mut p = ChromeTraceProfiler::new();
        p.begin_sm(0);
        p.sm_cycles(0, 1, CycleCause::Issued);
        p.sm_cycles(1, 1, CycleCause::Issued);
        p.sm_cycles(2, 5, CycleCause::LoadStall);
        p.sm_cycles(7, 1, CycleCause::Issued);
        p.end_sm(8);
        let json = p.to_json();
        // Three merged spans: issued[0,2), load-stall[2,7), issued[7,8).
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"ts\":0,\"dur\":2,\"name\":\"issued\""));
        assert!(json.contains("\"ts\":2,\"dur\":5,\"name\":\"load-stall\""));
        assert!(json.contains("\"ts\":7,\"dur\":1,\"name\":\"issued\""));
    }

    #[test]
    fn warp_spans_reconstruct_from_events() {
        let mut p = ChromeTraceProfiler::new();
        p.begin_sm(0);
        // Active since launch; stalls at cycle 10 (span synthesized from 0),
        // a subwarp is selected at 12 and exits at 20.
        p.event(&ev(10, 3, EventKind::Stall, 0xffff_ffff, 5));
        p.event(&ev(12, 3, EventKind::Select, 0x0000_ffff, 7));
        p.event(&ev(20, 3, EventKind::Exit, 0x0000_ffff, 9));
        p.end_sm(25);
        let json = p.to_json();
        assert!(json.contains("\"ts\":0,\"dur\":10,\"name\":\"active 0xffffffff\""));
        assert!(json.contains("\"ts\":12,\"dur\":8,\"name\":\"active 0x0000ffff\""));
        // Each transition is also an instant mark.
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 3);
    }

    #[test]
    fn counters_emit_on_change_only() {
        let mut p = ChromeTraceProfiler::new();
        p.begin_sm(0);
        let mut s = CounterSample {
            cycle: 0,
            lsu_in_flight: 1,
            ..Default::default()
        };
        p.counters(&s);
        s.cycle = 1;
        p.counters(&s); // identical apart from the cycle: no new events
        s.cycle = 2;
        s.lsu_in_flight = 2;
        p.counters(&s);
        p.end_sm(3);
        let json = p.to_json();
        assert_eq!(json.matches("LSU in-flight").count(), 2);
    }

    #[test]
    fn mem_counter_tracks_only_with_backend_counters() {
        // Fixed-backend samples (mem: None) emit no memory-hierarchy tracks.
        let mut p = ChromeTraceProfiler::new();
        p.begin_sm(0);
        p.counters(&CounterSample {
            cycle: 0,
            lsu_in_flight: 1,
            ..Default::default()
        });
        p.end_sm(1);
        let json = p.to_json();
        assert!(!json.contains("L2 hit rate"));
        assert!(!json.contains("MSHR in-flight"));
        assert!(!json.contains("DRAM busy channels"));

        // Hierarchical samples emit them, with on-change dedup.
        let mut p = ChromeTraceProfiler::new();
        p.begin_sm(0);
        let mem = MemCounters {
            l2: CacheStats { hits: 3, misses: 1 },
            mshr_in_flight: 2,
            busy_channels: 1,
        };
        let mut s = CounterSample {
            cycle: 0,
            mem: Some(mem),
            ..Default::default()
        };
        p.counters(&s);
        s.cycle = 1;
        p.counters(&s); // unchanged: no new events
        s.cycle = 2;
        s.mem = Some(MemCounters {
            mshr_in_flight: 0,
            ..mem
        });
        p.counters(&s);
        p.end_sm(3);
        let json = p.to_json();
        assert_eq!(json.matches("L2 hit rate").count(), 1);
        assert_eq!(json.matches("MSHR in-flight").count(), 2);
        assert_eq!(json.matches("DRAM busy channels").count(), 1);
    }

    #[test]
    fn json_shape_is_sound() {
        let mut p = ChromeTraceProfiler::new();
        p.begin_sm(1);
        p.sm_cycles(0, 3, CycleCause::Issued);
        p.pb_cycles(0, 0, 3, CycleCause::Issued);
        p.end_sm(3);
        let json = p.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"pid\":1"));
        // Balanced braces/brackets (no nested strings contain either).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
