//! A minimal blocking client for the NDJSON protocol, used by `loadgen`,
//! the `subwarp-router` shard dialer, and the end-to-end tests.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use subwarp_sweep::json::{parse, Value};

use crate::wire::{read_bounded_line, BoundedLine};

/// Reply lines are machine-written by the daemon and small; anything past
/// this is a confused or hostile peer, not a result.
const MAX_REPLY_LINE: usize = 1024 * 1024;

/// One connection to a running daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects over TCP (`host:port`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a connect deadline and per-request read/write
    /// deadlines — the router's dialer: a dead or wedged shard costs a
    /// bounded wait, never a hung router thread. Every address `addr`
    /// resolves to is tried in turn within the one connect deadline, so a
    /// `localhost` that resolves to `::1` first still reaches a daemon
    /// listening on `127.0.0.1`.
    pub fn connect_with_deadlines(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Option<Duration>,
    ) -> std::io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = connect_any(&addrs, connect_timeout)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        Client::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        // Request/reply round trips: Nagle only adds latency here.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line and returns the raw reply line. Blocks until
    /// the daemon answers (for `run`, until the job reaches a definite
    /// state) or a configured deadline fires.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()?;
        match read_bounded_line(&mut self.reader, MAX_REPLY_LINE)? {
            BoundedLine::Line(reply) => Ok(reply),
            BoundedLine::TooLong => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "reply line exceeds the sanity limit",
            )),
            BoundedLine::Eof => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    /// Sends one request line and parses the reply.
    pub fn request(&mut self, line: &str) -> std::io::Result<Value> {
        let raw = self.request_raw(line)?;
        parse(&raw).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad reply `{raw}`: {e}"),
            )
        })
    }
}

/// Dials each of `addrs` in order until one connects, all within `timeout`;
/// on failure returns the last address's error.
fn connect_any(addrs: &[SocketAddr], timeout: Duration) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    let mut last = std::io::Error::new(std::io::ErrorKind::NotFound, "no address");
    for addr in addrs {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("connect deadline passed before trying {addr}: {last}"),
            ));
        }
        match TcpStream::connect_timeout(addr, left) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_any_skips_a_refused_address() {
        // A port nobody listens on: bind one, then close it.
        let closed = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let live = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = [closed, live.local_addr().unwrap()];
        let stream = connect_any(&addrs, Duration::from_secs(5)).unwrap();
        assert_eq!(stream.peer_addr().unwrap(), addrs[1]);

        let err = connect_any(&[closed], Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
        let err = connect_any(&[], Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
}
