//! The client half of the wire: frame a [`WireRequest`], read back
//! [`ServerFrame`]s.
//!
//! [`NetClient`] is deliberately simple — a blocking `TcpStream`
//! wrapper with the same [`FrameAssembler`] the server uses, so the
//! load generator, the e2e tests and the example all speak through one
//! code path.  `recv` blocks until a full frame arrives;
//! [`try_recv`](NetClient::try_recv) flips the socket nonblocking for
//! open-loop senders that must not stall on slow responses.

use crate::protocol::{FrameAssembler, ProtocolError, ServerFrame, WireAdmin, WireRequest};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Failures a [`NetClient`] can surface.
#[derive(Debug)]
pub enum NetError {
    /// The socket failed or closed.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as a protocol frame.
    Protocol(ProtocolError),
    /// The peer closed the connection cleanly mid-conversation.
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Protocol(e) => Some(e),
            NetError::Disconnected => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        NetError::Protocol(e)
    }
}

/// Bytes requested from the socket per read.
const READ_CHUNK: usize = 64 * 1024;

/// How long one receive may wait for bytes from the socket.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// Block until a frame arrives.
    Forever,
    /// Take only what the socket already holds.
    Never,
    /// Block up to the given duration.
    Upto(Duration),
}

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    assembler: FrameAssembler,
    scratch: Vec<u8>,
    /// Receive buffer, allocated once per connection.
    inbuf: Vec<u8>,
}

impl NetClient {
    /// Connects to `addr` with `TCP_NODELAY` (request/response frames
    /// are latency-sensitive).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            assembler: FrameAssembler::default(),
            scratch: Vec::new(),
            inbuf: vec![0; READ_CHUNK],
        })
    }

    /// The local (client-side) address of the connection.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.stream.local_addr()?)
    }

    /// Encodes and writes one request frame (blocking until the socket
    /// accepted all of it).
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn send(&mut self, request: &WireRequest) -> Result<(), NetError> {
        self.scratch.clear();
        request.encode(&mut self.scratch);
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(&self.scratch)?;
        Ok(())
    }

    /// Encodes and writes one admin frame (blocking until the socket
    /// accepted all of it).  The ack arrives as a regular
    /// [`ServerFrame`] — use [`admin`](NetClient::admin) for the
    /// send-and-wait round trip.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn send_admin(&mut self, admin: &WireAdmin) -> Result<(), NetError> {
        self.scratch.clear();
        admin.encode(&mut self.scratch);
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(&self.scratch)?;
        Ok(())
    }

    /// Sends one admin operation and blocks for the server's verdict:
    /// [`ServerFrame::AdminOk`] on success, [`ServerFrame::Reject`]
    /// with the typed reason otherwise.
    ///
    /// Intended for a dedicated control connection: on a connection
    /// with inference requests in flight, the next frame may be one of
    /// their responses rather than this ack (match on
    /// [`ServerFrame::id`] in that case).
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on clean EOF, otherwise socket or
    /// decode failures.
    pub fn admin(&mut self, admin: &WireAdmin) -> Result<ServerFrame, NetError> {
        self.send_admin(admin)?;
        self.recv()
    }

    /// Blocks until the next server frame arrives (response or typed
    /// reject).
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on clean EOF, otherwise socket or
    /// decode failures.
    pub fn recv(&mut self) -> Result<ServerFrame, NetError> {
        match self.read_frame(Wait::Forever)? {
            Some(frame) => Ok(frame),
            None => unreachable!("a read without a timeout never times out"),
        }
    }

    /// Nonblocking receive: returns `Ok(None)` when no complete frame
    /// is available yet.  Open-loop senders poll this between sends so
    /// arrivals never wait on responses.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on clean EOF, otherwise socket or
    /// decode failures.
    pub fn try_recv(&mut self) -> Result<Option<ServerFrame>, NetError> {
        self.read_frame(Wait::Never)
    }

    /// Blocks up to `timeout` for the next frame; `Ok(None)` on
    /// timeout.  The socket is back to blocking reads with no timeout
    /// whatever the outcome.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on clean EOF, otherwise socket or
    /// decode failures.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<ServerFrame>, NetError> {
        self.read_frame(Wait::Upto(timeout))
    }

    /// The one receive loop: returns a frame already buffered, else
    /// reads until a frame completes or `wait` runs out (`Ok(None)`).
    /// A read timeout set here is cleared again on every exit.
    fn read_frame(&mut self, wait: Wait) -> Result<Option<ServerFrame>, NetError> {
        if let Some(payload) = self.assembler.next_frame()? {
            return Ok(Some(ServerFrame::decode(&payload)?));
        }
        self.stream.set_nonblocking(matches!(wait, Wait::Never))?;
        let Wait::Upto(timeout) = wait else {
            return self.fill_until_frame(wait);
        };
        // read_timeout(Some(0)) is rejected by std; clamp up.
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let result = self.fill_until_frame(wait);
        let restored = self.stream.set_read_timeout(None);
        let frame = result?;
        restored?;
        Ok(frame)
    }

    fn fill_until_frame(&mut self, wait: Wait) -> Result<Option<ServerFrame>, NetError> {
        loop {
            match self.stream.read(&mut self.inbuf) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => {
                    self.assembler.push(&self.inbuf[..n]);
                    if let Some(payload) = self.assembler.next_frame()? {
                        return Ok(Some(ServerFrame::decode(&payload)?));
                    }
                }
                Err(e)
                    if !matches!(wait, Wait::Forever)
                        && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Sends raw bytes on the wire, bypassing the encoder — the
    /// property tests use this to throw malformed frames at a live
    /// server.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Half-closes the write side so the server sees EOF after the
    /// in-flight requests, while responses keep flowing back.
    ///
    /// # Errors
    ///
    /// Propagates the shutdown failure.
    pub fn finish_sending(&mut self) -> Result<(), NetError> {
        self.stream.shutdown(std::net::Shutdown::Write)?;
        Ok(())
    }
}
