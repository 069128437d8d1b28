//! Event tracing for state-machine walkthroughs.
//!
//! The paper's Figure 10 traces the thread status table through the
//! Figure 9 toy kernel step by step. [`EventRecorder`] is a [`Profiler`]
//! that keeps only those transitions: pass one to
//! [`Simulator::run_profiled`](crate::Simulator::run_profiled) and tests (and
//! the `figures fig10` harness) can replay the tape.

use crate::profile::Profiler;

/// A thread-status-table transition kind (the labelled arrows of the
/// paper's Figures 7 and 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A divergent branch split the active subwarp.
    Diverge,
    /// The active subwarp suffered a load-to-use stall and was demoted
    /// (`subwarp-stall`).
    Stall,
    /// A stalled subwarp's outstanding scoreboards cleared
    /// (`subwarp-wakeup`).
    Wakeup,
    /// A READY subwarp was made ACTIVE (`subwarp-select`).
    Select,
    /// The active subwarp eagerly relinquished its slot (`subwarp-yield`).
    Yield,
    /// Threads blocked at an unsuccessful `BSYNC`.
    Block,
    /// A barrier released and threads reconverged.
    Reconverge,
    /// Threads exited the program.
    Exit,
}

impl EventKind {
    /// Short lower-case label (the paper's transition names), used by the
    /// trace exporter and report tables.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Diverge => "diverge",
            EventKind::Stall => "subwarp-stall",
            EventKind::Wakeup => "subwarp-wakeup",
            EventKind::Select => "subwarp-select",
            EventKind::Yield => "subwarp-yield",
            EventKind::Block => "block",
            EventKind::Reconverge => "reconverge",
            EventKind::Exit => "exit",
        }
    }
}

/// One recorded transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle of the transition.
    pub cycle: u64,
    /// Warp the transition happened in.
    pub warp: usize,
    /// Kind of transition.
    pub kind: EventKind,
    /// Mask of threads affected.
    pub mask: u32,
    /// Program counter associated with the transition (the affected
    /// subwarp's pc).
    pub pc: usize,
}

/// Collects the [`TraceEvent`]s of a run as one chip-wide tape, ordered by
/// `(cycle, warp)`. Use a fresh recorder per run: a second run's events
/// would be sorted into the first run's tape.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EventRecorder {
    events: Vec<TraceEvent>,
}

impl EventRecorder {
    /// An empty recorder.
    pub fn new() -> EventRecorder {
        EventRecorder::default()
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The kinds in order, for compact schedule assertions.
    pub fn kinds(&self) -> Vec<EventKind> {
        self.events.iter().map(|e| e.kind).collect()
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

impl Profiler for EventRecorder {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }

    /// Stable-sorts the tape by `(cycle, warp)`. Each SM's stream arrives
    /// contiguous and in cycle order, so after the last SM the tape is the
    /// chip-wide merge, with the lower SM id first on ties.
    fn end_sm(&mut self, _cycle: u64) {
        self.events.sort_by_key(|e| (e.cycle, e.warp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_collects_in_order() {
        let mut r = EventRecorder::new();
        r.event(&TraceEvent {
            cycle: 1,
            warp: 0,
            kind: EventKind::Diverge,
            mask: 0b01,
            pc: 2,
        });
        r.event(&TraceEvent {
            cycle: 5,
            warp: 0,
            kind: EventKind::Stall,
            mask: 0b10,
            pc: 5,
        });
        assert_eq!(r.kinds(), vec![EventKind::Diverge, EventKind::Stall]);
        assert_eq!(r.of_kind(EventKind::Stall).count(), 1);
        assert_eq!(r.events()[1].cycle, 5);
    }
}
