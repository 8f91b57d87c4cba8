//! How request bytes reach the engine.
//!
//! The engine itself is a pure function from bytes to bytes; a
//! [`Transport`] decides what sits between client and server. Two
//! implementations:
//!
//! * [`InprocTransport`] — calls the engine directly. Deterministic, no
//!   sockets, no threads; what tests and `localroot` refresh use.
//! * [`LoopbackTransport`] — real UDP and TCP sockets against a
//!   [`LoopbackServer`] bound to 127.0.0.1. The same bytes travel through
//!   the kernel's loopback stack, including RFC 7766 two-byte length
//!   framing on TCP.
//!
//! Because the engine is deterministic and both transports move raw
//! message bytes unmodified, the two must produce byte-identical
//! responses for the same request — `tests/rootd_serving.rs` asserts it.

use crate::engine::{Rootd, ServeOutcome};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest datagram a transport will accept from the wire.
const MAX_DATAGRAM: usize = 65_535;

/// Errors a transport can surface. The in-proc transport never fails;
/// the loopback transport maps socket errors here.
#[derive(Debug)]
pub enum TransportError {
    /// Socket-level failure (bind, send, receive, connect).
    Io(std::io::Error),
    /// No response arrived within the receive timeout.
    Timeout,
    /// A length-prefixed TCP frame ended early: the peer promised `want`
    /// bytes (prefix included) but the stream delivered only `got`.
    ShortRead { got: usize, want: usize },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Timeout => write!(f, "transport timeout"),
            TransportError::ShortRead { got, want } => {
                write!(f, "short read: got {got} of {want} framed bytes")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            TransportError::Timeout
        } else {
            TransportError::Io(e)
        }
    }
}

/// A caller-owned scratch slab for batched UDP exchanges
/// ([`Transport::exchange_udp_batch`]): many requests in, every answer
/// written back out, zero per-query allocation once the slabs are warm —
/// the recvmmsg/sendmmsg shape, minus the syscalls.
///
/// Requests are appended with [`UdpBatch::push_request`]. A server or
/// transport then commits exactly one response — or an explicit drop —
/// per request, *in request order*; [`UdpBatch::response`] reads them
/// back. [`UdpBatch::clear`] recycles the batch, keeping every slab's
/// capacity.
///
/// Two ways to commit. A transport that produces whole datagrams builds
/// each in the scratch buffer and has it copied over: [`UdpBatch::io`] +
/// [`UdpBatch::commit_response`] (or [`UdpBatch::commit_response_bytes`]).
/// The engine **appends**: `Rootd::serve_udp_batch` is handed the response
/// slab itself, extends it in place with request `i`'s answer — a cache
/// hit is copied once, from the cache to the slab, and spliced there — and
/// commits the new end; a drop truncates the slab back to the previous
/// end, so whatever a failed attempt left behind never reaches a
/// neighbour. Only an uncached answer still goes through the scratch (its
/// encoder counts compression pointers from the start of its buffer) and
/// pays the one copy a batched answer has always paid.
#[derive(Debug, Default, Clone)]
pub struct UdpBatch {
    /// Request bytes back to back; `req_ends[i]` ends request `i`.
    req: Vec<u8>,
    req_ends: Vec<usize>,
    /// Response bytes back to back; a zero-length span records a drop.
    resp: Vec<u8>,
    resp_ends: Vec<usize>,
    /// Scratch the current response is built in before committing.
    scratch: Vec<u8>,
}

impl UdpBatch {
    pub fn new() -> UdpBatch {
        UdpBatch::default()
    }

    /// Number of requests pushed.
    pub fn len(&self) -> usize {
        self.req_ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.req_ends.is_empty()
    }

    /// Number of responses committed so far.
    pub fn responses(&self) -> usize {
        self.resp_ends.len()
    }

    /// Drop all requests and responses, keeping slab capacity.
    pub fn clear(&mut self) {
        self.req.clear();
        self.req_ends.clear();
        self.resp.clear();
        self.resp_ends.clear();
    }

    /// Append one request datagram.
    pub fn push_request(&mut self, request: &[u8]) {
        self.req.extend_from_slice(request);
        self.req_ends.push(self.req.len());
    }

    /// Request `i`'s bytes.
    pub fn request(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.req_ends[i - 1] };
        &self.req[start..self.req_ends[i]]
    }

    /// Request `i` plus the scratch buffer to build its response in;
    /// follow with [`Self::commit_response`].
    pub fn io(&mut self, i: usize) -> (&[u8], &mut Vec<u8>) {
        let (req, scratch, _) = self.serve_io(i);
        (req, scratch)
    }

    /// Commit the scratch buffer as the next response; `answered = false`
    /// records a dropped datagram instead.
    pub fn commit_response(&mut self, answered: bool) {
        if answered {
            self.resp.extend_from_slice(&self.scratch);
        }
        self.commit(answered);
    }

    /// Request `i`, the encode scratch, and the response slab itself for a
    /// server that appends its answer in place (`Rootd::serve_udp_batch`);
    /// follow with [`Self::commit`].
    pub(crate) fn serve_io(&mut self, i: usize) -> (&[u8], &mut Vec<u8>, &mut Vec<u8>) {
        let start = if i == 0 { 0 } else { self.req_ends[i - 1] };
        let end = self.req_ends[i];
        let UdpBatch {
            req, scratch, resp, ..
        } = self;
        (&req[start..end], scratch, resp)
    }

    /// Commit what was appended to the response slab since the previous
    /// commit as the next response; `answered = false` records a dropped
    /// datagram instead, truncating the slab back to the previous end.
    pub(crate) fn commit(&mut self, answered: bool) {
        if !answered {
            self.resp
                .truncate(self.resp_ends.last().copied().unwrap_or(0));
        }
        self.resp_ends.push(self.resp.len());
    }

    /// Commit `bytes` directly as the next response.
    pub fn commit_response_bytes(&mut self, bytes: &[u8]) {
        self.resp.extend_from_slice(bytes);
        self.commit(true);
    }

    /// Response `i`: `None` when the server dropped the request (a real
    /// response is never empty — a DNS header alone is 12 bytes).
    pub fn response(&self, i: usize) -> Option<&[u8]> {
        let start = if i == 0 { 0 } else { self.resp_ends[i - 1] };
        let end = self.resp_ends[i];
        (end > start).then(|| &self.resp[start..end])
    }
}

/// A way to exchange request bytes for response bytes with a server.
pub trait Transport {
    /// One UDP-semantics exchange: a single datagram each way. `None`
    /// means the server dropped the request.
    fn exchange_udp(&mut self, request: &[u8]) -> Result<Option<Vec<u8>>, TransportError>;

    /// One UDP exchange into a caller-owned buffer: `Ok(true)` filled
    /// `resp` with the response; `Ok(false)` means the server dropped the
    /// request (`resp` is then unspecified). The allocation-free twin of
    /// [`Transport::exchange_udp`]; the default forwards to it (and so
    /// still allocates — transports on the hot path override).
    fn exchange_udp_into(
        &mut self,
        request: &[u8],
        resp: &mut Vec<u8>,
    ) -> Result<bool, TransportError> {
        match self.exchange_udp(request)? {
            Some(bytes) => {
                resp.clear();
                resp.extend_from_slice(&bytes);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Exchange every request in `batch` (recvmmsg/sendmmsg-style),
    /// committing one response — or a drop — per request, in request
    /// order, byte-identical to per-datagram [`Transport::exchange_udp`]
    /// calls. The default loops [`Transport::exchange_udp_into`];
    /// transports override it to amortize per-datagram costs. On `Err`
    /// the batch holds a valid committed prefix only.
    fn exchange_udp_batch(&mut self, batch: &mut UdpBatch) -> Result<(), TransportError> {
        for i in 0..batch.len() {
            let answered = {
                let (req, scratch) = batch.io(i);
                self.exchange_udp_into(req, scratch)?
            };
            batch.commit_response(answered);
        }
        Ok(())
    }

    /// One TCP-semantics exchange: the request framed onto a stream, every
    /// response message read back (AXFR returns many).
    fn exchange_tcp(&mut self, request: &[u8]) -> Result<Vec<Vec<u8>>, TransportError>;
}

/// The deterministic transport: a direct call into the engine.
#[derive(Debug, Clone)]
pub struct InprocTransport {
    engine: Arc<Rootd>,
}

impl InprocTransport {
    pub fn new(engine: Arc<Rootd>) -> InprocTransport {
        InprocTransport { engine }
    }

    /// The engine behind this transport.
    pub fn engine(&self) -> &Arc<Rootd> {
        &self.engine
    }
}

impl Transport for InprocTransport {
    fn exchange_udp(&mut self, request: &[u8]) -> Result<Option<Vec<u8>>, TransportError> {
        Ok(self.engine.serve_udp(request))
    }

    fn exchange_udp_into(
        &mut self,
        request: &[u8],
        resp: &mut Vec<u8>,
    ) -> Result<bool, TransportError> {
        Ok(self.engine.serve_udp_into(request, resp) != ServeOutcome::Dropped)
    }

    fn exchange_udp_batch(&mut self, batch: &mut UdpBatch) -> Result<(), TransportError> {
        self.engine.serve_udp_batch(batch);
        Ok(())
    }

    fn exchange_tcp(&mut self, request: &[u8]) -> Result<Vec<Vec<u8>>, TransportError> {
        Ok(self.engine.serve_tcp(request))
    }
}

/// A server thread pair (UDP + TCP) bound to ephemeral loopback ports.
///
/// Dropping the server (or calling [`LoopbackServer::shutdown`]) stops the
/// listener threads.
#[derive(Debug)]
pub struct LoopbackServer {
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl LoopbackServer {
    /// Bind UDP and TCP sockets on 127.0.0.1 (ephemeral ports) and serve
    /// `engine` from background threads.
    pub fn spawn(engine: Arc<Rootd>) -> Result<LoopbackServer, TransportError> {
        let udp = UdpSocket::bind("127.0.0.1:0")?;
        udp.set_read_timeout(Some(Duration::from_millis(25)))?;
        let udp_addr = udp.local_addr()?;
        let tcp = TcpListener::bind("127.0.0.1:0")?;
        tcp.set_nonblocking(true)?;
        let tcp_addr = tcp.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let udp_engine = Arc::clone(&engine);
        let udp_stop = Arc::clone(&stop);
        let udp_thread = std::thread::spawn(move || {
            let mut buf = vec![0u8; MAX_DATAGRAM];
            // Response scratch reused across datagrams: answer-cache hits
            // splice straight into it, no per-query allocation.
            let mut resp = Vec::with_capacity(MAX_DATAGRAM);
            while !udp_stop.load(Ordering::Relaxed) {
                match udp.recv_from(&mut buf) {
                    Ok((n, peer)) => {
                        if udp_engine.serve_udp_into(&buf[..n], &mut resp) != ServeOutcome::Dropped
                        {
                            let _ = udp.send_to(&resp, peer);
                        }
                    }
                    // Timeout: loop back around to check the stop flag.
                    Err(_) => continue,
                }
            }
        });

        let tcp_engine = Arc::clone(&engine);
        let tcp_stop = Arc::clone(&stop);
        let tcp_thread = std::thread::spawn(move || {
            let mut workers = Vec::new();
            while !tcp_stop.load(Ordering::Relaxed) {
                match tcp.accept() {
                    Ok((conn, _)) => {
                        let engine = Arc::clone(&tcp_engine);
                        workers.push(std::thread::spawn(move || serve_tcp_conn(conn, engine)));
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            for w in workers {
                let _ = w.join();
            }
        });

        Ok(LoopbackServer {
            udp_addr,
            tcp_addr,
            stop,
            threads: vec![udp_thread, tcp_thread],
        })
    }

    /// UDP endpoint the server answers on.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// TCP endpoint the server answers on.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// A client transport connected to this server.
    pub fn transport(&self) -> LoopbackTransport {
        LoopbackTransport {
            udp_addr: self.udp_addr,
            tcp_addr: self.tcp_addr,
            timeout: Duration::from_secs(5),
            sock: None,
            recv_buf: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Stop the listener threads and wait for them to exit.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for LoopbackServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One accepted TCP connection: read length-framed requests until the
/// client closes its write half, answering each with the engine's framed
/// response messages (RFC 7766 allows pipelined queries per connection).
fn serve_tcp_conn(mut conn: TcpStream, engine: Arc<Rootd>) {
    loop {
        let mut len_buf = [0u8; 2];
        if conn.read_exact(&mut len_buf).is_err() {
            return; // EOF or broken pipe: connection done.
        }
        let len = u16::from_be_bytes(len_buf) as usize;
        let mut req = vec![0u8; len];
        if conn.read_exact(&mut req).is_err() {
            return;
        }
        for msg in engine.serve_tcp(&req) {
            let framed = frame(&msg);
            if conn.write_all(&framed).is_err() {
                return;
            }
        }
    }
}

/// Prefix `msg` with its RFC 7766 two-byte length.
fn frame(msg: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + msg.len());
    out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    out.extend_from_slice(msg);
    out
}

/// A client-side transport speaking real UDP and TCP to a
/// [`LoopbackServer`].
///
/// The UDP socket is bound once and reused across exchanges (bind +
/// connect per datagram would dominate the exchange cost). Because the
/// socket outlives individual exchanges, a request that timed out can
/// leave a late response in the kernel buffer; receives therefore match
/// the DNS message id against the outstanding request and skip stale
/// datagrams. Batched exchanges keep a window of requests in flight and
/// match the same way — so requests within one batch window should carry
/// distinct ids (duplicate ids pair with the earliest outstanding
/// request, which is also what a real client would do).
#[derive(Debug)]
pub struct LoopbackTransport {
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    timeout: Duration,
    /// Lazily bound, persistent UDP socket.
    sock: Option<UdpSocket>,
    /// Receive scratch reused across datagrams.
    recv_buf: Vec<u8>,
    /// Per-slot response buffers for batched exchanges, reused across
    /// calls (an empty slot after the exchange means dropped).
    slots: Vec<Vec<u8>>,
}

impl Clone for LoopbackTransport {
    fn clone(&self) -> LoopbackTransport {
        // Each clone lazily binds its own socket.
        LoopbackTransport {
            udp_addr: self.udp_addr,
            tcp_addr: self.tcp_addr,
            timeout: self.timeout,
            sock: None,
            recv_buf: Vec::new(),
            slots: Vec::new(),
        }
    }
}

/// How many batched requests a [`LoopbackTransport`] keeps in flight.
const UDP_WINDOW: usize = 16;

impl LoopbackTransport {
    /// Override the receive timeout (default 5 s). Drops the bound
    /// socket; the next exchange re-binds with the new timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> LoopbackTransport {
        self.timeout = timeout;
        self.sock = None;
        self
    }

    /// The persistent UDP socket, bound and connected on first use.
    fn socket(&mut self) -> Result<&UdpSocket, TransportError> {
        if self.sock.is_none() {
            let sock = UdpSocket::bind("127.0.0.1:0")?;
            sock.connect(self.udp_addr)?;
            sock.set_read_timeout(Some(self.timeout))?;
            self.sock = Some(sock);
        }
        Ok(self.sock.as_ref().expect("socket just bound"))
    }

    /// Whether a received datagram answers `request` (DNS id match; a
    /// sub-header request can never be answered, so nothing matches it).
    fn id_matches(request: &[u8], resp: &[u8]) -> bool {
        request.len() >= 2 && resp.len() >= 2 && request[..2] == resp[..2]
    }
}

impl Transport for LoopbackTransport {
    fn exchange_udp(&mut self, request: &[u8]) -> Result<Option<Vec<u8>>, TransportError> {
        let mut resp = Vec::new();
        Ok(self.exchange_udp_into(request, &mut resp)?.then_some(resp))
    }

    fn exchange_udp_into(
        &mut self,
        request: &[u8],
        resp: &mut Vec<u8>,
    ) -> Result<bool, TransportError> {
        self.socket()?;
        let LoopbackTransport { sock, recv_buf, .. } = self;
        let sock = sock.as_ref().expect("socket bound above");
        recv_buf.resize(MAX_DATAGRAM, 0);
        sock.send(request)?;
        loop {
            match sock.recv(recv_buf) {
                Ok(n) => {
                    // A stale datagram (late answer to an earlier timed-out
                    // exchange): skip it and keep waiting for ours.
                    if !Self::id_matches(request, &recv_buf[..n]) {
                        continue;
                    }
                    resp.clear();
                    resp.extend_from_slice(&recv_buf[..n]);
                    return Ok(true);
                }
                // The engine legitimately drops some requests; a timeout is
                // the only way "no answer" manifests over a socket.
                Err(ref e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Windowed pipelining over the persistent socket: up to
    /// `UDP_WINDOW` requests in flight, responses matched back to their
    /// request by DNS id (the single-threaded server answers in order,
    /// but drops leave gaps). A receive timeout declares the oldest
    /// outstanding request dropped and moves on.
    fn exchange_udp_batch(&mut self, batch: &mut UdpBatch) -> Result<(), TransportError> {
        let n = batch.len();
        self.socket()?;
        {
            let LoopbackTransport {
                sock,
                recv_buf,
                slots,
                ..
            } = self;
            let sock = sock.as_ref().expect("socket bound above");
            recv_buf.resize(MAX_DATAGRAM, 0);
            if slots.len() < n {
                slots.resize_with(n, Vec::new);
            }
            for slot in slots.iter_mut().take(n) {
                slot.clear();
            }
            let mut pending: std::collections::VecDeque<usize> =
                std::collections::VecDeque::with_capacity(UDP_WINDOW);
            let mut next = 0usize;
            loop {
                while pending.len() < UDP_WINDOW && next < n {
                    sock.send(batch.request(next))?;
                    pending.push_back(next);
                    next += 1;
                }
                if pending.is_empty() {
                    break;
                }
                match sock.recv(recv_buf) {
                    Ok(got) => {
                        let matched = pending
                            .iter()
                            .position(|&i| Self::id_matches(batch.request(i), &recv_buf[..got]));
                        if let Some(pos) = matched {
                            let i = pending.remove(pos).expect("position is in range");
                            slots[i].extend_from_slice(&recv_buf[..got]);
                        }
                        // Unmatched: a stale datagram from an earlier
                        // exchange — ignore it.
                    }
                    Err(ref e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        // Nothing arrived for a full timeout: the oldest
                        // outstanding request was dropped by the server.
                        pending.pop_front();
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        for i in 0..n {
            if self.slots[i].is_empty() {
                batch.commit_response(false);
            } else {
                batch.commit_response_bytes(&self.slots[i]);
            }
        }
        Ok(())
    }

    fn exchange_tcp(&mut self, request: &[u8]) -> Result<Vec<Vec<u8>>, TransportError> {
        let mut conn = TcpStream::connect(self.tcp_addr)?;
        conn.set_read_timeout(Some(self.timeout))?;
        conn.write_all(&frame(request))?;
        // One request per connection here: closing our write half tells the
        // server no more queries are coming, so it can finish and close.
        conn.shutdown(std::net::Shutdown::Write)?;
        let mut out = Vec::new();
        while let Some(msg) = read_frame(&mut conn)? {
            out.push(msg);
        }
        Ok(out)
    }
}

/// Read one RFC 7766 length-prefixed frame from `conn`, looping on partial
/// reads (TCP may deliver any byte split). A clean EOF *between* frames
/// returns `None`; an EOF mid-prefix or mid-body is a typed
/// [`TransportError::ShortRead`] — never a silently dropped tail.
fn read_frame(conn: &mut TcpStream) -> Result<Option<Vec<u8>>, TransportError> {
    let mut len_buf = [0u8; 2];
    let mut have = 0;
    while have < 2 {
        match conn.read(&mut len_buf[have..]) {
            Ok(0) if have == 0 => return Ok(None),
            Ok(0) => return Err(TransportError::ShortRead { got: have, want: 2 }),
            Ok(n) => have += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u16::from_be_bytes(len_buf) as usize;
    let mut body = vec![0u8; len];
    let mut have = 0;
    while have < len {
        match conn.read(&mut body[have..]) {
            Ok(0) => {
                return Err(TransportError::ShortRead {
                    got: 2 + have,
                    want: 2 + len,
                })
            }
            Ok(n) => have += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SiteIdentity;
    use crate::index::ZoneIndex;
    use dns_wire::{Message, Name, Question, Rcode, RrType};
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;

    fn engine() -> Arc<Rootd> {
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 6,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(9),
        );
        Arc::new(Rootd::new(
            Arc::new(ZoneIndex::build(Arc::new(zone))),
            SiteIdentity::named("inproc-test"),
        ))
    }

    #[test]
    fn inproc_round_trips_a_query() {
        let mut t = InprocTransport::new(engine());
        let q = Message::query(3, Question::new(Name::root(), RrType::Ns));
        let resp = t.exchange_udp(&q.to_wire()).unwrap().expect("answered");
        let msg = Message::from_wire(&resp).unwrap();
        assert_eq!(msg.header.id, 3);
        assert_eq!(msg.header.rcode, Rcode::NoError);
        assert_eq!(msg.answers.len(), 13);
    }

    #[test]
    fn loopback_udp_and_tcp_answer() {
        let server = LoopbackServer::spawn(engine()).unwrap();
        let mut t = server.transport();
        let q = Message::query(4, Question::new(Name::root(), RrType::Soa));
        let udp = t.exchange_udp(&q.to_wire()).unwrap().expect("udp answer");
        let tcp = t.exchange_tcp(&q.to_wire()).unwrap();
        assert_eq!(tcp.len(), 1);
        // Same engine, same bytes in: byte-identical out on both paths for
        // a response below the UDP limit.
        assert_eq!(udp, tcp[0]);
    }

    #[test]
    fn loopback_tcp_streams_axfr() {
        let server = LoopbackServer::spawn(engine()).unwrap();
        let mut t = server.transport();
        let q = Message::query(5, Question::new(Name::root(), RrType::Axfr));
        let frames = t.exchange_tcp(&q.to_wire()).unwrap();
        assert!(!frames.is_empty());
        let msgs: Vec<Message> = frames
            .iter()
            .map(|f| Message::from_wire(f).unwrap())
            .collect();
        let zone = dns_zone::axfr::assemble_axfr(&msgs, &Name::root()).unwrap();
        assert!(!zone.is_empty());
    }

    #[test]
    fn dropped_requests_time_out_to_none() {
        let server = LoopbackServer::spawn(engine()).unwrap();
        let mut t = server.transport().with_timeout(Duration::from_millis(100));
        // Sub-header garbage is dropped by the engine.
        assert_eq!(t.exchange_udp(&[0xff; 4]).unwrap(), None);
    }

    /// Distinct-id queries across the answer shapes the engine caches
    /// (authoritative, referral-less apex, NXDOMAIN, CHAOS identity).
    fn query_set(n: u16) -> Vec<Vec<u8>> {
        (0..n)
            .map(|id| {
                let q = match id % 4 {
                    0 => Question::new(Name::root(), RrType::Soa),
                    1 => Question::new(Name::root(), RrType::Ns),
                    2 => Question::new(Name::parse(&format!("nx{id}.")).unwrap(), RrType::A),
                    _ => Question::chaos_txt(Name::parse("id.server.").unwrap()),
                };
                Message::query(id, q).to_wire()
            })
            .collect()
    }

    #[test]
    fn inproc_batch_is_byte_identical_to_one_shot() {
        let mut t = InprocTransport::new(engine());
        let queries = query_set(40);
        let mut batch = UdpBatch::new();
        for q in &queries {
            batch.push_request(q);
        }
        t.exchange_udp_batch(&mut batch).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let one_shot = t.exchange_udp(q).unwrap().expect("answered");
            assert_eq!(batch.response(i), Some(&one_shot[..]), "query {i}");
        }
    }

    #[test]
    fn loopback_batch_is_byte_identical_to_one_shot() {
        // 40 > UDP_WINDOW: the windowed pipelining wraps several times.
        let server = LoopbackServer::spawn(engine()).unwrap();
        let mut t = server.transport();
        let queries = query_set(40);
        let mut batch = UdpBatch::new();
        for q in &queries {
            batch.push_request(q);
        }
        t.exchange_udp_batch(&mut batch).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let one_shot = t.exchange_udp(q).unwrap().expect("answered");
            assert_eq!(batch.response(i), Some(&one_shot[..]), "query {i}");
        }
    }

    #[test]
    fn loopback_batch_reports_dropped_datagrams_in_place() {
        let server = LoopbackServer::spawn(engine()).unwrap();
        let mut t = server.transport().with_timeout(Duration::from_millis(200));
        let queries = query_set(8);
        let mut batch = UdpBatch::new();
        for (i, q) in queries.iter().enumerate() {
            if i == 3 {
                // Sub-header garbage: the engine drops it, no response.
                batch.push_request(&[0xff; 4]);
            }
            batch.push_request(q);
        }
        t.exchange_udp_batch(&mut batch).unwrap();
        assert_eq!(batch.response(3), None, "dropped datagram must stay empty");
        // Every slot got a commit (drops included)...
        assert_eq!(batch.responses(), batch.len());
        // ...and only the garbage slot is empty.
        let answered = (0..batch.len())
            .filter(|&i| batch.response(i).is_some())
            .count();
        assert_eq!(answered, queries.len());
        for (i, q) in queries.iter().enumerate() {
            let slot = if i < 3 { i } else { i + 1 };
            let one_shot = t.exchange_udp(q).unwrap().expect("answered");
            assert_eq!(batch.response(slot), Some(&one_shot[..]), "query {i}");
        }
    }

    /// A raw TCP server that answers every connection with `payload` bytes
    /// (no engine): lets the tests put arbitrary — including broken —
    /// framing on the wire.
    fn raw_tcp_server(payload: Vec<u8>, dribble: bool) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut conn, _)) = listener.accept() {
                let mut sink = Vec::new();
                let _ = conn.read_to_end(&mut sink); // drain the request
                if dribble {
                    // Worst-case segmentation: one byte per write.
                    for b in &payload {
                        let _ = conn.write_all(&[*b]);
                        let _ = conn.flush();
                    }
                } else {
                    let _ = conn.write_all(&payload);
                }
            }
        });
        addr
    }

    fn transport_to(addr: SocketAddr) -> LoopbackTransport {
        LoopbackTransport {
            udp_addr: addr, // unused by the TCP tests
            tcp_addr: addr,
            timeout: Duration::from_secs(2),
            sock: None,
            recv_buf: Vec::new(),
            slots: Vec::new(),
        }
    }

    #[test]
    fn tcp_frame_reads_loop_on_partial_reads() {
        // Two framed messages delivered one byte at a time must still
        // assemble: the length-prefix reads loop until satisfied.
        let msgs = [vec![1u8, 2, 3], vec![9u8; 600]];
        let mut payload = Vec::new();
        for m in &msgs {
            payload.extend_from_slice(&frame(m));
        }
        let addr = raw_tcp_server(payload, true);
        let got = transport_to(addr).exchange_tcp(&[0u8; 12]).unwrap();
        assert_eq!(got, msgs);
    }

    #[test]
    fn truncated_tcp_frame_is_a_typed_short_read() {
        // A frame promising 100 bytes but delivering 10 must surface as
        // ShortRead, not be silently dropped.
        let mut payload = (100u16).to_be_bytes().to_vec();
        payload.extend_from_slice(&[0xab; 10]);
        let addr = raw_tcp_server(payload, false);
        match transport_to(addr).exchange_tcp(&[0u8; 12]) {
            Err(TransportError::ShortRead { got, want }) => {
                assert_eq!(got, 12);
                assert_eq!(want, 102);
            }
            other => panic!("expected ShortRead, got {other:?}"),
        }
    }

    #[test]
    fn half_a_length_prefix_is_a_typed_short_read() {
        let addr = raw_tcp_server(vec![0x00], false);
        match transport_to(addr).exchange_tcp(&[0u8; 12]) {
            Err(TransportError::ShortRead { got, want }) => {
                assert_eq!((got, want), (1, 2));
            }
            other => panic!("expected ShortRead, got {other:?}"),
        }
    }

    #[test]
    fn silent_tcp_server_is_a_typed_timeout() {
        // A server that accepts and never answers: the client's blocking
        // read hits its deadline and maps to the Timeout variant.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let conn = listener.accept();
            std::thread::sleep(Duration::from_millis(400));
            drop(conn);
        });
        let mut client = transport_to(addr);
        client.timeout = Duration::from_millis(50);
        assert!(matches!(
            client.exchange_tcp(&[0u8; 12]),
            Err(TransportError::Timeout)
        ));
        t.join().unwrap();
    }
}
