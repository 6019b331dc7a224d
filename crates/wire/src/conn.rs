//! Transport plumbing shared by the client and server: the
//! [`Endpoint`]/[`WireStream`] abstraction over TCP and unix sockets, and
//! deadline-bounded frame read/write primitives.
//!
//! Every blocking socket operation here is bounded by an explicit
//! [`Instant`] deadline, implemented with sliced `set_read_timeout` /
//! `set_write_timeout` calls — there is no code path that can park a
//! thread on a dead peer forever. Deadline expiry folds into
//! [`WireError::Timeout`]; after one, the stream's byte position is
//! unknowable, so callers must close the connection (both client and
//! server do).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::error::WireError;
use crate::frame::{self, FrameHeader, FrameType, HEADER_LEN};

/// Where a wire server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address (`127.0.0.1:0` binds an ephemeral port; the
    /// bound endpoint is readable from [`crate::server::WireServer::endpoint`]).
    Tcp(SocketAddr),
    /// A filesystem unix-domain socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A bound listener for either endpoint flavor. The accept loop blocks in
/// [`Listener::accept`]; shutdown wakes it with one connection of its own
/// ([`wake`]), and the drain then empties the backlog with
/// [`Listener::try_accept`].
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// An accepted connection and, for TCP, the peer's address.
pub(crate) type Accepted = (WireStream, Option<SocketAddr>);

impl Listener {
    pub(crate) fn bind(endpoint: &Endpoint) -> Result<(Listener, Endpoint), WireError> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| WireError::io("bind", &e))?;
                let bound = l.local_addr().map_err(|e| WireError::io("bind", &e))?;
                Ok((Listener::Tcp(l), Endpoint::Tcp(bound)))
            }
            Endpoint::Unix(path) => {
                // A stale socket file from a crashed predecessor would
                // make bind fail with AddrInUse even though nobody is
                // listening; removing first is the conventional fix.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path).map_err(|e| WireError::io("bind", &e))?;
                Ok((Listener::Unix(l), Endpoint::Unix(path.clone())))
            }
        }
    }

    fn accept_io(&self) -> std::io::Result<Accepted> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, a)| (WireStream::Tcp(s), Some(a))),
            Listener::Unix(l) => l.accept().map(|(s, _)| (WireStream::Unix(s), None)),
        }
    }

    /// Waits for the next connection.
    pub(crate) fn accept(&self) -> Result<Accepted, WireError> {
        let (stream, peer) = self.accept_io().map_err(|e| WireError::io("accept", &e))?;
        // Accepted sockets inherit the listener's nonblocking flag on
        // some platforms; the per-connection handlers use blocking reads
        // with timeouts, so flip it back explicitly.
        stream.set_nonblocking(false)?;
        Ok((stream, peer))
    }

    /// Makes [`Listener::try_accept`] return at once on an empty backlog.
    pub(crate) fn stop_blocking(&self) -> Result<(), WireError> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
        .map_err(|e| WireError::io("set_nonblocking", &e))
    }

    /// Accept for the drain (after [`Listener::stop_blocking`]):
    /// `Ok(Some)` on a connection still in the backlog, `Ok(None)` once it
    /// is empty.
    pub(crate) fn try_accept(&self) -> Result<Option<Accepted>, WireError> {
        match self.accept_io() {
            Ok((stream, peer)) => {
                stream.set_nonblocking(false)?;
                Ok(Some((stream, peer)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(WireError::io("accept", &e)),
        }
    }
}

/// Wakes a listener blocked in [`Listener::accept`]: connects to its
/// bound `endpoint` and hangs up at once. Returns `None` if the connect
/// failed, else the waker's own TCP address (`None` inside for a unix
/// socket), so the accept loop can tell the wake-up from a client.
pub(crate) fn wake(endpoint: &Endpoint, timeout: Duration) -> Option<Option<SocketAddr>> {
    match WireStream::connect(endpoint, timeout).ok()? {
        WireStream::Tcp(s) => Some(s.local_addr().ok()),
        WireStream::Unix(_) => Some(None),
    }
}

/// One established connection, TCP or unix.
#[derive(Debug)]
pub(crate) enum WireStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl WireStream {
    pub(crate) fn connect(endpoint: &Endpoint, timeout: Duration) -> Result<WireStream, WireError> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect_timeout(addr, timeout)
                .map(WireStream::Tcp)
                .map_err(|e| WireError::io("connect", &e)),
            // UnixStream has no connect_timeout in std; unix-socket
            // connects complete locally (the kernel either has a
            // listener or it does not), so plain connect is bounded in
            // practice.
            Endpoint::Unix(path) => UnixStream::connect(path)
                .map(WireStream::Unix)
                .map_err(|e| WireError::io("connect", &e)),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> Result<(), WireError> {
        match self {
            WireStream::Tcp(s) => s.set_nonblocking(nb),
            WireStream::Unix(s) => s.set_nonblocking(nb),
        }
        .map_err(|e| WireError::io("set_nonblocking", &e))
    }

    fn set_read_timeout(&self, t: Duration) -> Result<(), WireError> {
        let t = t.max(Duration::from_millis(1));
        match self {
            WireStream::Tcp(s) => s.set_read_timeout(Some(t)),
            WireStream::Unix(s) => s.set_read_timeout(Some(t)),
        }
        .map_err(|e| WireError::io("set_read_timeout", &e))
    }

    fn set_write_timeout(&self, t: Duration) -> Result<(), WireError> {
        let t = t.max(Duration::from_millis(1));
        match self {
            WireStream::Tcp(s) => s.set_write_timeout(Some(t)),
            WireStream::Unix(s) => s.set_write_timeout(Some(t)),
        }
        .map_err(|e| WireError::io("set_write_timeout", &e))
    }

    /// Best-effort full shutdown; errors ignored (the peer may already
    /// be gone, which is exactly when we most want to shut down).
    pub(crate) fn shutdown(&self) {
        match self {
            WireStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            WireStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Best-effort half close: the peer reads EOF after what was sent,
    /// while this side can still read what the peer sends.
    pub(crate) fn shutdown_write(&self) {
        match self {
            WireStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Write);
            }
            WireStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Write);
            }
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            WireStream::Unix(s) => s.read(buf),
        }
    }

    fn write_some(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            WireStream::Unix(s) => s.write(buf),
        }
    }
}

/// What turning an ear to the socket between frames produced.
pub(crate) enum IdleRead {
    /// A first byte arrived; the frame clock starts now.
    Byte(u8),
    /// Clean EOF between frames — the peer hung up politely.
    Eof,
    /// The idle slice elapsed with no bytes; check the stop flag and
    /// listen again.
    Quiet,
}

/// Waits up to `slice` for the first byte of the next frame. Unlike the
/// mid-frame reads below, quiet here is not an error — a connection may
/// idle between requests for as long as it likes.
pub(crate) fn read_idle_byte(
    stream: &mut WireStream,
    slice: Duration,
) -> Result<IdleRead, WireError> {
    stream.set_read_timeout(slice)?;
    let mut b = [0u8; 1];
    loop {
        match stream.read_some(&mut b) {
            Ok(0) => return Ok(IdleRead::Eof),
            Ok(_) => return Ok(IdleRead::Byte(b[0])),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(IdleRead::Quiet)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::io("read", &e)),
        }
    }
}

/// Reads and discards until the peer closes, stays quiet for `slice`, or
/// `deadline` passes: the lingering half of a graceful close. Bytes the
/// peer sent before it saw our farewell are consumed, so closing does not
/// answer them with a reset that could destroy the farewell.
pub(crate) fn linger(stream: &mut WireStream, slice: Duration, deadline: Instant) {
    let mut sink = [0u8; 512];
    loop {
        let now = Instant::now();
        if now >= deadline || stream.set_read_timeout(slice.min(deadline - now)).is_err() {
            return;
        }
        match stream.read_some(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Quiet (timed out) or gone.
            Err(_) => return,
        }
    }
}

/// Reads exactly `buf.len()` bytes before `deadline`, slicing the socket
/// timeout so a peer that trickles one byte per slice still cannot hold
/// the thread past the deadline.
pub(crate) fn read_exact_deadline(
    stream: &mut WireStream,
    buf: &mut [u8],
    deadline: Instant,
    what: &'static str,
) -> Result<(), WireError> {
    let mut at = 0;
    while at < buf.len() {
        let now = Instant::now();
        if now >= deadline {
            return Err(WireError::Timeout { what });
        }
        stream.set_read_timeout((deadline - now).min(Duration::from_millis(50)))?;
        match stream.read_some(&mut buf[at..]) {
            Ok(0) => {
                return Err(WireError::Io {
                    what,
                    detail: "connection closed mid-frame".to_string(),
                })
            }
            Ok(n) => at += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::io(what, &e)),
        }
    }
    Ok(())
}

/// Writes all of `buf` before `deadline`, same slicing discipline as
/// [`read_exact_deadline`].
pub(crate) fn write_all_deadline(
    stream: &mut WireStream,
    buf: &[u8],
    deadline: Instant,
    what: &'static str,
) -> Result<(), WireError> {
    let mut at = 0;
    while at < buf.len() {
        let now = Instant::now();
        if now >= deadline {
            return Err(WireError::Timeout { what });
        }
        stream.set_write_timeout((deadline - now).min(Duration::from_millis(50)))?;
        match stream.write_some(&buf[at..]) {
            Ok(0) => {
                return Err(WireError::Io {
                    what,
                    detail: "connection closed mid-write".to_string(),
                })
            }
            Ok(n) => at += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::io(what, &e)),
        }
    }
    Ok(())
}

/// Encodes and writes one frame within `deadline`.
pub(crate) fn write_frame(
    stream: &mut WireStream,
    scratch: &mut Vec<u8>,
    frame_type: FrameType,
    request_id: u64,
    payload: &[u8],
    deadline: Instant,
) -> Result<(), WireError> {
    frame::encode_frame(scratch, frame_type, request_id, payload);
    write_all_deadline(stream, scratch, deadline, "write frame")
}

/// Reads the remaining `HEADER_LEN - 1` header bytes (after an idle read
/// already consumed `first`), validates the header, reads the payload,
/// and checks the CRC — all before `deadline`.
pub(crate) fn read_frame_after_first_byte(
    stream: &mut WireStream,
    first: u8,
    max_payload: u32,
    deadline: Instant,
) -> Result<(FrameHeader, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    read_exact_deadline(stream, &mut header[1..], deadline, "read frame header")?;
    finish_frame(stream, &header, max_payload, deadline)
}

/// Reads one whole frame (header + payload + CRC check) before
/// `deadline`. Used by the client, whose response wait is one deadline.
pub(crate) fn read_frame(
    stream: &mut WireStream,
    max_payload: u32,
    deadline: Instant,
) -> Result<(FrameHeader, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_deadline(stream, &mut header, deadline, "read frame header")?;
    finish_frame(stream, &header, max_payload, deadline)
}

fn finish_frame(
    stream: &mut WireStream,
    header: &[u8; HEADER_LEN],
    max_payload: u32,
    deadline: Instant,
) -> Result<(FrameHeader, Vec<u8>), WireError> {
    let header = frame::decode_header(header, max_payload)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    read_exact_deadline(stream, &mut payload, deadline, "read frame payload")?;
    frame::check_payload(&header, &payload)?;
    Ok((header, payload))
}
