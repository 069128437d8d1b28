//! The one accept loop behind every listener in this crate: the
//! `subwarp-serve` daemon, the `subwarp-router` front door, [`ChaosProxy`]
//! and the in-process shards of the end-to-end tests.
//!
//! The loop waits for the listener to become readable in `poll(2)`, so a
//! connection is accepted the moment it arrives, and re-checks the
//! caller's `stop` predicate every [`STOP_CADENCE`]. Every stop trigger —
//! a signal, a `{"cmd":"shutdown"}` request, a phase change — is a plain
//! flag read by that predicate; nothing has to dial the listener to wake
//! it. Accepted connections get the same setup everywhere (no Nagle,
//! read/write deadlines) and a handler thread, and are tracked in
//! [`Conns`] so the owner can cut their read sides at shutdown.
//!
//! [`ChaosProxy`]: crate::chaos::ChaosProxy

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Longest a readiness wait blocks before the loop re-checks its `stop`
/// predicate; also the back-off after a failed `accept`.
pub const STOP_CADENCE: Duration = Duration::from_millis(10);

/// Set by the signal handler; read through [`terminated`].
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    // Only async-signal-safe work here: flip the flag, nothing else.
    TERM.store(true, Ordering::SeqCst);
}

/// Routes SIGTERM and SIGINT to the flag [`terminated`] reports, so a
/// binary's accept loop can stop and shut down gracefully.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_term as extern "C" fn(i32) as usize;
    // SAFETY: `on_term` is an `extern "C" fn(i32)`, the handler type
    // `signal` expects, and it only stores to an atomic, which is
    // async-signal-safe.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Routes SIGTERM and SIGINT to the flag [`terminated`] reports (a no-op
/// off Unix).
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Whether SIGTERM or SIGINT arrived since [`install_signal_handlers`].
pub fn terminated() -> bool {
    TERM.load(Ordering::SeqCst)
}

/// The connections one accept loop has handed to handler threads.
#[derive(Default)]
pub struct Conns {
    accepted: AtomicU64,
    live: Mutex<HashMap<u64, TcpStream>>,
}

impl Conns {
    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Connections whose handler has not returned yet.
    pub fn live(&self) -> usize {
        self.lock().len()
    }

    /// The shutdown cut: shuts the read side of every live connection, so
    /// a handler idling in `read` sees EOF, then waits up to `grace` for
    /// the handlers to return (replies already being written can finish).
    /// Returns whether every handler returned in time.
    pub fn cut(&self, grace: Duration) -> bool {
        for stream in self.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let deadline = Instant::now() + grace;
        while self.live() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(STOP_CADENCE);
        }
        true
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        // Every update is one insert or remove, so a poisoned map is whole.
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Accepts connections on `listener` until `stop()` returns true, running
/// `handler(index, stream, peer)` on a thread of its own for each one.
/// `index` is the 0-based accept order.
///
/// Each accepted stream is blocking, has Nagle off and `io_timeout` as its
/// read and write deadline (a peer that stalls mid-line is cut instead of
/// pinning its thread), and is registered in `conns` until its handler
/// returns. A failed `accept` (a peer that reset before it was accepted,
/// or a process out of file descriptors) is transient: the loop backs off
/// for [`STOP_CADENCE`] and keeps serving. `stop` is re-checked at least
/// every [`STOP_CADENCE`]. Returns once `stop()` is true, leaving accepted
/// connections to their handlers; [`Conns::cut`] ends them.
pub fn accept_loop<H>(
    listener: &TcpListener,
    conns: &Arc<Conns>,
    io_timeout: Option<Duration>,
    stop: impl Fn() -> bool,
    handler: H,
) -> std::io::Result<()>
where
    H: Fn(u64, TcpStream, SocketAddr) + Send + Sync + 'static,
{
    listener.set_nonblocking(true)?;
    let handler = Arc::new(handler);
    while !stop() {
        match listener.accept() {
            Ok((stream, peer)) => {
                let index = conns.accepted.fetch_add(1, Ordering::SeqCst);
                // Some platforms hand out accepted sockets that inherit the
                // listener's non-blocking mode; handlers expect blocking IO.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(io_timeout);
                let _ = stream.set_write_timeout(io_timeout);
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                conns.lock().insert(index, clone);
                let handler = Arc::clone(&handler);
                let conns = Arc::clone(conns);
                std::thread::spawn(move || {
                    handler(index, stream, peer);
                    conns.lock().remove(&index);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_readable(listener, STOP_CADENCE);
            }
            Err(_) => std::thread::sleep(STOP_CADENCE),
        }
    }
    Ok(())
}

/// Blocks until `listener` has a connection waiting or `timeout` passes.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;

    let mut fds = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fds` is one initialized `struct pollfd` (same layout: int,
    // short, short) that lives across the call, and `nfds` is 1, so poll
    // reads and writes only that struct. The fd belongs to `listener`,
    // which the borrow keeps open. Errors (EINTR) and timeouts need no
    // handling: the caller retries `accept` either way.
    unsafe {
        poll(&mut fds, 1, timeout_ms);
    }
}

/// Without `poll`, a plain sleep bounds the wait instead.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::mpsc;

    /// Runs `accept_loop` with `handler` on an ephemeral port until the
    /// returned flag is set.
    fn spawn_loop<H>(
        handler: H,
    ) -> (
        String,
        Arc<Conns>,
        Arc<AtomicBool>,
        std::thread::JoinHandle<()>,
    )
    where
        H: Fn(u64, TcpStream, SocketAddr) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let conns = Arc::new(Conns::default());
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let conns = Arc::clone(&conns);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                accept_loop(
                    &listener,
                    &conns,
                    None,
                    || stop.load(Ordering::SeqCst),
                    handler,
                )
                .unwrap();
            })
        };
        (addr, conns, stop, handle)
    }

    #[test]
    fn idle_loop_returns_promptly_after_stop() {
        let (_addr, _conns, stop, handle) = spawn_loop(|_, _, _| {});
        std::thread::sleep(Duration::from_millis(50));
        let stopped = Instant::now();
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
        let took = stopped.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "loop took {took:?} to stop"
        );
    }

    #[test]
    fn cut_releases_a_handler_blocked_in_read() {
        let (tx, rx) = mpsc::channel();
        let (addr, conns, stop, handle) = spawn_loop(move |_, mut stream, _| {
            tx.send("reading").unwrap();
            let mut buf = [0u8; 16];
            let n = stream.read(&mut buf).unwrap_or(usize::MAX);
            tx.send(if n == 0 { "eof" } else { "data" }).unwrap();
        });
        // Connect and send nothing: the handler blocks in `read` (the
        // stream has no deadline).
        let _client = TcpStream::connect(&addr).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok("reading"));
        assert_eq!(conns.live(), 1);
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
        assert!(conns.cut(Duration::from_secs(10)), "handler never returned");
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok("eof"));
        assert_eq!(conns.live(), 0);
        assert_eq!(conns.accepted(), 1);
    }
}
