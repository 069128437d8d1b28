//! A latency-queue model of a pipelined service unit.
//!
//! The LSU, TEX unit, RT core, and instruction-fill paths all share the same
//! timing shape: a request enters, and a completion pops out a fixed or
//! per-request number of cycles later, in completion-time order. Requests
//! never block each other (the paper verifies its workloads are not
//! bandwidth-limited, §IV-A), but callers can rate-limit admission using
//! [`ServiceUnit::in_flight`].
//!
//! A request whose completion cycle is not known yet (a miss the chip
//! resolves at an epoch barrier) [`reserve`](ServiceUnit::reserve)s its
//! admission slot when it is issued and [`fill`](ServiceUnit::fill)s it once
//! the cycle is known, so same-cycle completions still pop in issue order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A completed request, tagged with its completion cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion<T> {
    /// Cycle at which the payload's result becomes architecturally visible.
    pub at_cycle: u64,
    /// The caller's request payload.
    pub payload: T,
}

#[derive(Debug)]
struct Pending<T> {
    ready: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ready == other.ready && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ready, self.seq).cmp(&(other.ready, other.seq))
    }
}

/// A pipelined unit that completes requests after per-request latencies.
///
/// Completion order is (ready-cycle, admission-order) — i.e. FIFO among
/// requests that become ready on the same cycle. The simulator drains
/// completions at the top of every cycle with [`ServiceUnit::pop_ready`].
#[derive(Debug)]
pub struct ServiceUnit<T> {
    heap: BinaryHeap<Reverse<Pending<T>>>,
    next_seq: u64,
    /// Admissions reserved but not yet filled.
    reserved: usize,
}

impl<T> Default for ServiceUnit<T> {
    fn default() -> Self {
        ServiceUnit {
            heap: BinaryHeap::new(),
            next_seq: 0,
            reserved: 0,
        }
    }
}

impl<T> ServiceUnit<T> {
    /// An empty unit.
    pub fn new() -> ServiceUnit<T> {
        ServiceUnit::default()
    }

    /// Admits a request that completes at absolute cycle `ready`.
    pub fn push(&mut self, ready: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Pending {
            ready,
            seq,
            payload,
        }));
    }

    /// Admits a request whose completion cycle is not known yet, returning
    /// its sequence number for [`fill`](Self::fill). It counts as in
    /// flight from now on and takes its admission-order place among
    /// same-cycle completions.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.reserved += 1;
        seq
    }

    /// Completes a [`reserve`](Self::reserve)d admission: the request
    /// reserved as `seq` completes at absolute cycle `ready`.
    pub fn fill(&mut self, seq: u64, ready: u64, payload: T) {
        debug_assert!(self.reserved > 0 && seq < self.next_seq);
        self.reserved -= 1;
        self.heap.push(Reverse(Pending {
            ready,
            seq,
            payload,
        }));
    }

    /// Number of requests still in flight, reserved ones included.
    pub fn in_flight(&self) -> usize {
        self.heap.len() + self.reserved
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight() == 0
    }

    /// The earliest completion cycle among in-flight requests whose cycle
    /// is known (reserved ones are not).
    pub fn next_ready(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(p)| p.ready)
    }

    /// Pops every request whose completion cycle is `<= now`, in completion
    /// order.
    ///
    /// Allocates a `Vec` per call, so this is a **test-only convenience**:
    /// hot per-cycle drain loops must use the allocation-free
    /// [`pop_if_ready`](Self::pop_if_ready) instead.
    pub fn pop_ready(&mut self, now: u64) -> Vec<Completion<T>> {
        let mut out = Vec::new();
        while let Some(c) = self.pop_if_ready(now) {
            out.push(c);
        }
        out
    }

    /// Pops the single earliest request whose completion cycle is `<= now`,
    /// if any — the allocation-free form of [`pop_ready`](Self::pop_ready)
    /// for per-cycle drain loops.
    #[inline]
    pub fn pop_if_ready(&mut self, now: u64) -> Option<Completion<T>> {
        match self.heap.peek() {
            Some(Reverse(p)) if p.ready <= now => {
                let Reverse(p) = self.heap.pop().expect("peeked element exists");
                Some(Completion {
                    at_cycle: p.ready,
                    payload: p.payload,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_in_time_order() {
        let mut u = ServiceUnit::new();
        u.push(10, "b");
        u.push(5, "a");
        u.push(20, "c");
        assert_eq!(u.in_flight(), 3);
        assert_eq!(u.next_ready(), Some(5));

        assert!(u.pop_ready(4).is_empty());
        let done = u.pop_ready(10);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].payload, "a");
        assert_eq!(done[0].at_cycle, 5);
        assert_eq!(done[1].payload, "b");
        let done = u.pop_ready(100);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].payload, "c");
        assert!(u.is_empty());
    }

    #[test]
    fn fifo_among_same_cycle_completions() {
        let mut u = ServiceUnit::new();
        for i in 0..8 {
            u.push(7, i);
        }
        let done = u.pop_ready(7);
        let order: Vec<i32> = done.into_iter().map(|c| c.payload).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn reserved_admissions_keep_their_place_in_line() {
        let mut u = ServiceUnit::new();
        let first = u.reserve();
        u.push(7, "second");
        assert_eq!(u.in_flight(), 2);
        assert!(!u.is_empty());
        assert_eq!(u.next_ready(), Some(7));
        u.fill(first, 7, "first");
        let order: Vec<&str> = u.pop_ready(7).into_iter().map(|c| c.payload).collect();
        assert_eq!(order, ["first", "second"]);
        assert!(u.is_empty());
    }

    #[test]
    fn empty_unit_behaviour() {
        let mut u: ServiceUnit<()> = ServiceUnit::new();
        assert!(u.is_empty());
        assert_eq!(u.next_ready(), None);
        assert!(u.pop_ready(1000).is_empty());
    }
}
