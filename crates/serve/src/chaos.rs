//! `ChaosProxy`: a deterministic network-level fault injector that sits
//! between a client (loadgen, the router) and an upstream daemon in tests.
//!
//! Same spirit as `subwarp_core::FaultPlan` / `subwarp_mem::FaultyBackend`,
//! one layer down the stack: instead of sabotaging simulations, the proxy
//! sabotages *connections* — refusing them, delaying them, truncating the
//! byte stream mid-flight, or prepending garbage — according to a plan that
//! is a pure function of `(seed, connection index)`. Two runs of a test
//! that dials the proxy in the same order therefore exercise byte-identical
//! failure schedules, which is what makes the failover paths *reproducibly*
//! testable instead of flakily so.
//!
//! ```text
//! loadgen ──▶ ChaosProxy ──▶ subwarp-router ──▶ ChaosProxy ──▶ shard
//! ```

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::listen::{accept_loop, Conns};

/// What the proxy does to one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFate {
    /// Pipe both directions faithfully.
    Clean,
    /// Accept, then immediately close — the peer sees a reset/EOF.
    Refuse,
    /// Sleep before piping (a slow network, not a dead one).
    Delay(Duration),
    /// Pipe only the first `n` client→upstream bytes, then cut both
    /// directions — a mid-request network partition.
    Truncate(usize),
    /// Prepend a garbage line toward the client before piping — a
    /// corrupted reply stream.
    Garbage,
}

/// Per-mille fate rates, evaluated per connection in the order refuse →
/// delay → truncate → garbage (first hit wins; the draws are independent
/// slices of one hash so the schedule is stable under rate changes to
/// later fates).
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed for the per-connection fate hash.
    pub seed: u64,
    /// ‰ of connections refused outright.
    pub refuse_per_mille: u16,
    /// ‰ of connections delayed by [`delay_ms`](ChaosPlan::delay_ms).
    pub delay_per_mille: u16,
    /// Delay applied to delayed connections.
    pub delay_ms: u64,
    /// ‰ of connections truncated after
    /// [`truncate_after`](ChaosPlan::truncate_after) bytes.
    pub truncate_per_mille: u16,
    /// Client→upstream bytes forwarded before a truncated connection cuts.
    pub truncate_after: usize,
    /// ‰ of connections that get a garbage line prepended to the reply
    /// stream.
    pub garbage_per_mille: u16,
    /// Connections with index `>= clears_after` are clean — transient
    /// chaos that heals, so tests can assert recovery.
    pub clears_after: Option<u64>,
}

impl ChaosPlan {
    /// A plan that injects nothing (pure passthrough).
    pub fn none(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            refuse_per_mille: 0,
            delay_per_mille: 0,
            delay_ms: 50,
            truncate_per_mille: 0,
            truncate_after: 16,
            garbage_per_mille: 0,
            clears_after: None,
        }
    }

    /// The fate of connection `conn` (0-based accept order): a pure
    /// function of `(seed, conn)`.
    pub fn fate(&self, conn: u64) -> ConnFate {
        if let Some(clear) = self.clears_after {
            if conn >= clear {
                return ConnFate::Clean;
            }
        }
        // splitmix64 finalizer; independent 10-bit slices per fate so
        // changing one rate does not reshuffle the others' draws.
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(conn.wrapping_mul(0xd134_2543_de82_ef95));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let draw = |shift: u32| ((z >> shift) & 0x3ff) % 1000;
        if draw(0) < self.refuse_per_mille as u64 {
            ConnFate::Refuse
        } else if draw(10) < self.delay_per_mille as u64 {
            ConnFate::Delay(Duration::from_millis(self.delay_ms))
        } else if draw(20) < self.truncate_per_mille as u64 {
            ConnFate::Truncate(self.truncate_after)
        } else if draw(30) < self.garbage_per_mille as u64 {
            ConnFate::Garbage
        } else {
            ConnFate::Clean
        }
    }
}

/// A running chaos proxy; dropping it (or calling [`stop`](ChaosProxy::stop))
/// shuts the listener down.
pub struct ChaosProxy {
    addr: String,
    stop: Arc<AtomicBool>,
    conns: Arc<Conns>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and proxies every accepted connection
    /// to `upstream` under `plan`.
    pub fn spawn(upstream: &str, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Conns::default());
        let upstream = upstream.to_owned();
        let handle = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                let stop = || stop.load(Ordering::SeqCst);
                let _ = accept_loop(&listener, &conns, None, stop, move |conn, client, _| {
                    handle_conn(client, &upstream, plan.fate(conn))
                });
            })
        };
        Ok(ChaosProxy {
            addr,
            stop,
            conns,
            handle: Some(handle),
        })
    }

    /// The proxy's listen address (`host:port`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.conns.accepted()
    }

    /// Stops the listener (idempotent; also runs on drop). In-flight piped
    /// connections finish on their own threads.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_conn(client: TcpStream, upstream: &str, fate: ConnFate) {
    match fate {
        ConnFate::Refuse => {
            let _ = client.shutdown(Shutdown::Both);
        }
        ConnFate::Delay(d) => {
            std::thread::sleep(d);
            pipe_both(client, upstream, usize::MAX, false);
        }
        ConnFate::Truncate(n) => pipe_both(client, upstream, n, false),
        ConnFate::Garbage => pipe_both(client, upstream, usize::MAX, true),
        ConnFate::Clean => pipe_both(client, upstream, usize::MAX, false),
    }
}

/// Pipes client⇄upstream. `c2u_cap` bounds client→upstream bytes (the
/// truncate fate); `garbage` prepends a non-JSON line toward the client.
fn pipe_both(client: TcpStream, upstream: &str, c2u_cap: usize, garbage: bool) {
    let up = match TcpStream::connect(upstream) {
        Ok(s) => s,
        Err(_) => {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    let _ = up.set_nodelay(true);
    if garbage {
        let mut c = client.try_clone().expect("clone client");
        let _ = c.write_all(b"\x7f\x7fnoise-from-the-wire\n");
    }
    let c2u = {
        let client = client.try_clone().expect("clone client");
        let up = up.try_clone().expect("clone upstream");
        std::thread::spawn(move || copy_capped(client, up, c2u_cap))
    };
    copy_capped(up, client, usize::MAX);
    let _ = c2u.join();
}

/// Copies `from` → `to` until EOF, error, or `cap` bytes, then shuts both
/// ends of the pair down so the peers observe the cut.
fn copy_capped(mut from: TcpStream, mut to: TcpStream, cap: usize) {
    let mut buf = [0u8; 4096];
    let mut sent = 0usize;
    loop {
        let want = buf.len().min(cap - sent);
        if want == 0 {
            break;
        }
        match from.read(&mut buf[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                sent += n;
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_are_deterministic_and_rate_shaped() {
        let plan = ChaosPlan {
            refuse_per_mille: 250,
            delay_per_mille: 250,
            truncate_per_mille: 250,
            garbage_per_mille: 100,
            ..ChaosPlan::none(42)
        };
        let first: Vec<ConnFate> = (0..1000).map(|c| plan.fate(c)).collect();
        let second: Vec<ConnFate> = (0..1000).map(|c| plan.fate(c)).collect();
        assert_eq!(first, second, "fate must be a pure function");
        let count = |f: fn(&ConnFate) -> bool| first.iter().filter(|x| f(x)).count();
        let refused = count(|f| matches!(f, ConnFate::Refuse));
        let clean = count(|f| matches!(f, ConnFate::Clean));
        assert!((150..350).contains(&refused), "refused={refused}");
        assert!(clean > 100, "clean={clean}");
        // A different seed reshuffles the schedule.
        let other = ChaosPlan {
            seed: 43,
            ..plan.clone()
        };
        let moved: Vec<ConnFate> = (0..1000).map(|c| other.fate(c)).collect();
        assert_ne!(first, moved);
    }

    #[test]
    fn clears_after_heals_the_network() {
        let plan = ChaosPlan {
            refuse_per_mille: 1000,
            clears_after: Some(5),
            ..ChaosPlan::none(7)
        };
        for c in 0..5 {
            assert_eq!(plan.fate(c), ConnFate::Refuse);
        }
        for c in 5..100 {
            assert_eq!(plan.fate(c), ConnFate::Clean);
        }
    }
}
