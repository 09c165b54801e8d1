//! The frame-protocol client: [`WireSwarm`], one or many connections to
//! a [`Frontend`](crate::frontend::Frontend).
//!
//! The swarm drives its connections from a single thread, mirroring the
//! front-end's event loop: nonblocking sockets, per-connection
//! [`FrameAssembler`]s, and buffered writes flushed opportunistically.
//! One load thread can drive a thousand connections this way while
//! still *reading* each of them, so a paced open-loop client never trips
//! the front-end's slow-reader defense: [`WireSwarm::queue`] frames and
//! [`WireSwarm::pump`] them, skipping GOAWAY frames ([`is_goaway`]) when
//! counting responses. Tests and closed-loop callers use the blocking
//! [`WireSwarm::send`] and [`WireSwarm::recv`] on one connection
//! instead; do not mix the two styles on one connection.

use crate::frontend::{is_goaway, FrameAssembler};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One swarm connection: nonblocking socket, reassembly buffer, and a
/// pending (not yet accepted by the kernel) write buffer.
struct SwarmConn {
    stream: TcpStream,
    assembler: FrameAssembler,
    outbox: Vec<u8>,
    /// Response frames a blocking [`WireSwarm::recv`] read ahead.
    inbox: VecDeque<Vec<u8>>,
    /// Responses owed: queued request frames minus surfaced responses.
    expected: usize,
    goaway: bool,
    open: bool,
}

impl SwarmConn {
    /// One read from the socket, reassembled into `frames`. A GOAWAY is
    /// unsolicited and only recorded; every other frame settles one owed
    /// response. Returns whether the connection is still open: EOF or a
    /// framing error closes it (surfacing nothing from that read), and
    /// socket errors pass through.
    fn read_once(&mut self, buf: &mut [u8], frames: &mut Vec<Vec<u8>>) -> io::Result<bool> {
        let n = self.stream.read(buf)?;
        let from = frames.len();
        if n == 0 || self.assembler.feed(&buf[..n], frames).is_err() {
            frames.truncate(from);
            self.open = false;
            return Ok(false);
        }
        for f in &frames[from..] {
            if is_goaway(f) {
                self.goaway = true;
            } else {
                self.expected = self.expected.saturating_sub(1);
            }
        }
        Ok(true)
    }
}

/// A single-threaded fleet of nonblocking frame-protocol connections.
pub struct WireSwarm {
    conns: Vec<SwarmConn>,
}

impl WireSwarm {
    /// Open `n` nonblocking connections to `addr`.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Self> {
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            let stream = TcpStream::connect(addr)?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            conns.push(SwarmConn {
                stream,
                assembler: FrameAssembler::new(),
                outbox: Vec::new(),
                inbox: VecDeque::new(),
                expected: 0,
                goaway: false,
                open: true,
            });
        }
        Ok(Self { conns })
    }

    /// Number of connections (open or not).
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when the swarm holds no connections.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Connections still open (neither side has closed them).
    pub fn open_count(&self) -> usize {
        self.conns.iter().filter(|c| c.open).count()
    }

    /// True once a GOAWAY drain frame has arrived on connection `conn`:
    /// the server will answer what is in flight, then close.
    pub fn saw_goaway(&self, conn: usize) -> bool {
        self.conns[conn].goaway
    }

    /// Queue one frame (`body` gets the u32-LE length prefix) on
    /// connection `conn`; it flushes during subsequent [`Self::pump`]
    /// calls. Queuing on a closed connection is a silent no-op — the
    /// loss shows up in the caller's response accounting.
    pub fn queue(&mut self, conn: usize, body: &[u8]) {
        let c = &mut self.conns[conn];
        if !c.open {
            return;
        }
        c.outbox.extend_from_slice(&(body.len() as u32).to_le_bytes());
        c.outbox.extend_from_slice(body);
        c.expected += 1;
    }

    /// Send one frame on connection `conn` and block until the kernel
    /// has taken every queued byte of it. A request sent this way is in
    /// the server's receive path when `send` returns. A failed send
    /// leaves the read side alone: [`Self::recv`] still returns what the
    /// server sent before it closed.
    pub fn send(&mut self, conn: usize, body: &[u8]) -> io::Result<()> {
        self.queue(conn, body);
        let c = &mut self.conns[conn];
        if !c.open {
            return Err(io::ErrorKind::NotConnected.into());
        }
        c.stream.set_nonblocking(false)?;
        let written = c.stream.write_all(&c.outbox);
        c.stream.set_nonblocking(true)?;
        c.outbox.clear();
        written
    }

    /// Block until the next non-GOAWAY frame arrives on connection
    /// `conn` and return its body (responses come in completion order;
    /// match their ids to your requests). `Err` once the connection has
    /// closed and every frame that arrived before the close is returned.
    pub fn recv(&mut self, conn: usize) -> io::Result<Vec<u8>> {
        let c = &mut self.conns[conn];
        let mut buf = [0u8; 16 * 1024];
        let mut frames = Vec::new();
        loop {
            if let Some(body) = c.inbox.pop_front() {
                return Ok(body);
            }
            if !c.open {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            c.stream.set_nonblocking(false)?;
            let read = c.read_once(&mut buf, &mut frames);
            c.stream.set_nonblocking(true)?;
            match read {
                Ok(_) => c.inbox.extend(frames.drain(..).filter(|f| !is_goaway(f))),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    c.open = false;
                    return Err(e);
                }
            }
        }
    }

    /// One multiplexing pass: flush pending writes, read whatever the
    /// kernel has, and append completed frame bodies to `out` as
    /// `(connection index, body)`. Returns whether any byte moved
    /// (callers sleep briefly when nothing did).
    ///
    /// Only *interesting* connections are read — ones owed a response,
    /// holding a torn frame, or with unflushed writes. A thousand-strong
    /// swarm therefore costs one syscall per in-flight request per pass,
    /// not one per connection, which keeps a single pump thread honest
    /// at four-digit connection counts.
    pub fn pump(&mut self, out: &mut Vec<(usize, Vec<u8>)>) -> bool {
        let mut progress = false;
        let mut buf = [0u8; 16 * 1024];
        let mut frames = Vec::new();
        for (idx, c) in self.conns.iter_mut().enumerate() {
            if !c.open || (c.expected == 0 && c.outbox.is_empty() && !c.assembler.mid_frame()) {
                continue;
            }
            // Flush as much of the outbox as the kernel accepts.
            while !c.outbox.is_empty() {
                match c.stream.write(&c.outbox) {
                    Ok(0) => {
                        c.open = false;
                        break;
                    }
                    Ok(n) => {
                        c.outbox.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.open = false;
                        break;
                    }
                }
            }
            // Read and reassemble whatever has arrived.
            loop {
                match c.read_once(&mut buf, &mut frames) {
                    Ok(false) => break,
                    Ok(true) => {
                        progress = true;
                        out.extend(frames.drain(..).map(|f| (idx, f)));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.open = false;
                        break;
                    }
                }
            }
        }
        progress
    }

    /// Close every connection (write side first, so the front-end sees
    /// orderly EOFs rather than idle-deadline reaps).
    pub fn shutdown(&mut self) {
        for c in &mut self.conns {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
            c.open = false;
        }
    }
}
