//! The NDJSON wire protocol: one JSON object per line, one reply line per
//! request line, over any byte stream (TCP, unix socket, or an in-memory
//! pipe in tests).
//!
//! Requests (`cmd` defaults to `"run"` when a `workload` field is present):
//!
//! ```json
//! {"cmd":"run","workload":"trace:AV1","si":"both"}
//! {"cmd":"stats"}
//! {"cmd":"ping"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Replies are `{"ok":true,...}` or `{"ok":false,"kind":...}` where `kind`
//! is one of `bad-request`, `shed`, `panic`, `error`, `timeout`,
//! `cancelled`. Successful runs carry the journal's exact integer codec
//! (`u`, `ch`), so a result served from the memo store after a restart is
//! **byte-identical** to the line the original simulation produced.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use subwarp_core::RunStats;
use subwarp_sweep::json::{json_escape, parse, Value};
use subwarp_sweep::push_stats_json;

use crate::server::{Server, Submitted};
use crate::spec::JobSpec;

/// Per-connection resource limits enforced by [`serve_connection`].
#[derive(Debug, Clone, Copy)]
pub struct WireLimits {
    /// Maximum request line length in bytes (newline excluded). A longer
    /// line gets a typed `too-long` error reply and the connection is
    /// closed — the daemon never buffers an unbounded line.
    pub max_line: usize,
}

impl Default for WireLimits {
    fn default() -> WireLimits {
        WireLimits {
            max_line: 64 * 1024,
        }
    }
}

/// One bounded NDJSON read.
#[derive(Debug)]
pub enum BoundedLine {
    /// A complete line (newline stripped), within the limit.
    Line(String),
    /// The line exceeded `max` bytes before a newline arrived; the reader
    /// is mid-line and the connection should be answered and closed.
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line of at most `max` bytes. Unlike
/// `BufRead::read_line`, an adversarially long line costs at most `max`
/// bytes of memory before it is rejected. Invalid UTF-8 is an
/// `InvalidData` error (NDJSON is UTF-8 by definition).
pub fn read_bounded_line<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<BoundedLine> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF. A non-empty unterminated tail is treated as a final
            // line (a client that dies mid-line just gets EOF behavior).
            return Ok(if buf.is_empty() {
                BoundedLine::Eof
            } else {
                match String::from_utf8(buf) {
                    Ok(s) => BoundedLine::Line(s),
                    Err(_) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "request line is not UTF-8",
                        ))
                    }
                }
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if buf.len() + nl > max {
                    reader.consume(nl + 1);
                    return Ok(BoundedLine::TooLong);
                }
                buf.extend_from_slice(&chunk[..nl]);
                reader.consume(nl + 1);
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return match String::from_utf8(buf) {
                    Ok(s) => Ok(BoundedLine::Line(s)),
                    Err(_) => Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "request line is not UTF-8",
                    )),
                };
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > max {
                    reader.consume(n);
                    return Ok(BoundedLine::TooLong);
                }
                buf.extend_from_slice(chunk);
                reader.consume(n);
            }
        }
    }
}

/// Formats a successful run reply.
pub fn ok_line(fp: u64, label: &str, cached: bool, stats: &RunStats) -> String {
    let mut line = format!(
        "{{\"ok\":true,\"fp\":\"{fp:016x}\",\"label\":\"{}\",\"cached\":{cached},\
         \"cycles\":{},\"instructions\":{},",
        json_escape(label),
        stats.cycles,
        stats.instructions
    );
    push_stats_json(&mut line, stats);
    line.push('}');
    line
}

/// Formats a failure reply; `retry_after_ms` marks retryable sheds.
pub fn err_line(kind: &str, message: &str, retry_after_ms: Option<u64>) -> String {
    match retry_after_ms {
        Some(ms) => format!(
            "{{\"ok\":false,\"kind\":\"{kind}\",\"retry_after_ms\":{ms},\"message\":\"{}\"}}",
            json_escape(message)
        ),
        None => format!(
            "{{\"ok\":false,\"kind\":\"{kind}\",\"message\":\"{}\"}}",
            json_escape(message)
        ),
    }
}

/// A request's command: its `cmd` field, defaulting to `"run"` when a
/// `workload` is present and to `""` (an unknown command) otherwise.
pub(crate) fn request_cmd(req: &Value) -> &str {
    req.str_field("cmd")
        .unwrap_or(if req.get("workload").is_some() {
            "run"
        } else {
            ""
        })
}

/// Answers one parsed request. Returns `(reply, shutdown_requested)`.
pub fn handle_request(server: &Server, client: &str, req: &Value) -> (String, bool) {
    match request_cmd(req) {
        "ping" => (
            format!(
                "{{\"ok\":true,\"pong\":true,\"phase\":\"{}\"}}",
                server.phase().name()
            ),
            false,
        ),
        "stats" => (server.stats_json(), false),
        "shutdown" => {
            server.drain();
            ("{\"ok\":true,\"draining\":true}".to_owned(), true)
        }
        "run" => {
            let spec = match JobSpec::from_request(req) {
                Ok(s) => s,
                Err(e) => return (err_line("bad-request", &e, None), false),
            };
            let (fp, label) = (spec.fp, spec.label.clone());
            match server.submit(client, spec) {
                Submitted::Cached(stats) => (ok_line(fp, &label, true, &stats), false),
                Submitted::Shed {
                    reason,
                    retry_after_ms,
                } => (err_line("shed", reason, Some(retry_after_ms)), false),
                Submitted::Queued(rx) => match rx.recv() {
                    Ok(Ok((stats, cached))) => (ok_line(fp, &label, cached, &stats), false),
                    Ok(Err(failure)) => (err_line(failure.kind, &failure.message, None), false),
                    // The dispatcher dropped the sender without replying;
                    // only possible if it is torn down mid-job.
                    Err(_) => (err_line("cancelled", "server stopped", None), false),
                },
            }
        }
        other => (
            err_line("bad-request", &format!("unknown cmd `{other}`"), None),
            false,
        ),
    }
}

/// Serves one client connection until EOF or a shutdown request: reads
/// NDJSON lines from `reader`, writes one reply line each to `writer`.
/// Malformed lines get a `bad-request` reply and the connection lives on —
/// a confused client must not take the daemon with it. Returns `true` when
/// the client asked for shutdown. The hostile-client defenses are those
/// of the connection loop the router shares, counted in the server's
/// `oversized` and `conn_timeouts` stats.
pub fn serve_connection<R: BufRead, W: Write>(
    server: &Server,
    client: &str,
    reader: R,
    writer: W,
    limits: WireLimits,
) -> std::io::Result<bool> {
    let c = server.counters();
    serve_lines(
        reader,
        writer,
        limits,
        (&c.oversized, &c.conn_timeouts),
        |line| match parse(line) {
            Ok(req) => handle_request(server, client, &req),
            Err(e) => (err_line("bad-request", &e.to_string(), None), false),
        },
    )
}

/// The one NDJSON connection loop, shared by the daemon
/// ([`serve_connection`]) and the router
/// ([`route_connection`](crate::cluster::route_connection)): each
/// non-blank line goes to `answer`, which returns `(reply, shutdown)`, and
/// each reply goes out in one write. Returns `true` when `answer` asked
/// for shutdown.
///
/// Two hostile-client defenses are enforced here, each counted in one of
/// the `(oversized, conn_timeouts)` counters: a request line longer than
/// [`WireLimits::max_line`] gets a typed `too-long` error reply and the
/// connection is closed (never buffered unboundedly), and a read that
/// times out (the socket's read timeout, set on the accept path) closes
/// the connection — a slowloris client cannot pin a handler thread
/// forever.
pub(crate) fn serve_lines<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    limits: WireLimits,
    (oversized, conn_timeouts): (&AtomicU64, &AtomicU64),
    mut answer: impl FnMut(&str) -> (String, bool),
) -> std::io::Result<bool> {
    loop {
        let line = match read_bounded_line(&mut reader, limits.max_line) {
            Ok(BoundedLine::Line(l)) => l,
            Ok(BoundedLine::Eof) => return Ok(false),
            Ok(BoundedLine::TooLong) => {
                oversized.fetch_add(1, Ordering::Relaxed);
                let mut reply = err_line(
                    "too-long",
                    &format!("request line exceeds {} bytes", limits.max_line),
                    None,
                );
                reply.push('\n');
                let _ = writer.write_all(reply.as_bytes());
                let _ = writer.flush();
                return Ok(false);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // The socket read deadline fired while waiting for (or in
                // the middle of) a request line: a stalled client, not a
                // bug. Close and account for it.
                conn_timeouts.fetch_add(1, Ordering::Relaxed);
                return Ok(false);
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let (mut reply, shutdown) = answer(&line);
        // One write per reply: splitting the newline into a second write
        // trips Nagle + delayed-ACK and turns sub-ms cached replies into
        // ~40-200 ms ones.
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        writer.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// The daemon's TCP connection handler for
/// [`accept_loop`](crate::listen::accept_loop): serves `server` on each
/// accepted stream, naming the client by its peer address.
pub fn tcp_handler(
    server: Arc<Server>,
    limits: WireLimits,
) -> impl Fn(u64, TcpStream, SocketAddr) + Send + Sync + 'static {
    move |_, stream, peer| {
        if let Ok(reader) = stream.try_clone() {
            let client = peer.to_string();
            let _ = serve_connection(&server, &client, BufReader::new(reader), &stream, limits);
        }
    }
}
