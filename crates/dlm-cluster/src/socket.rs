//! Real-socket transports: the cluster over TCP or UDP on an actual wire.
//!
//! The paper's evaluation ran on a 16-machine Linux cluster over TCP; this
//! module closes that gap. A [`SocketTransport`] implements the same
//! [`Transport`] contract the in-process transports do, so the sans-IO
//! worker loop is untouched — only the medium changes:
//!
//! * **TCP** — one full-duplex connection per unordered peer pair (the
//!   higher-id node dials, the lower-id node accepts; a 4-byte hello names
//!   the dialer). `TCP_NODELAY` is on; batching is done by *us*, not Nagle:
//!   a worker's coalesced container frames are queued per peer and drained
//!   onto the wire in one write per event-loop cycle, so PR 8's per-link
//!   coalescing becomes real wire batching. Connections are sharded across
//!   a small pool of readiness-polled non-blocking event-loop threads
//!   (`forbid(unsafe_code)` rules out raw epoll; the poll loop spins with a
//!   short adaptive sleep). Each connection owns reusable read/write
//!   buffers: the read path accumulates raw bytes, freezes the filled
//!   region once, and hands out per-frame [`Bytes`] views zero-copy (see
//!   [`WireBuf`]); partial frames are reassembled across reads. A peer
//!   whose write queue exceeds its budget exerts backpressure: the sending
//!   worker blocks in `send` until the event loop drains the queue.
//! * **UDP** — one datagram per wire frame, with optional seeded
//!   sender-side loss so the reliability shim ([`crate::ReliableConfig`])
//!   can be exercised against genuinely lost datagrams. Dropped datagrams
//!   are counted in [`LinkReport::dropped`].
//!
//! ## Wire format
//!
//! TCP stream frames: `u32 len | u32 from_slot | u32 to_slot | payload`
//! (little-endian; `len` counts payload bytes only, capped at
//! [`MAX_WIRE_FRAME`]). UDP datagrams carry `u32 from_slot | u32 to_slot |
//! payload` — the datagram boundary is the length. Slots are worker-slot
//! addresses (`node * shards + shard`), exactly what [`Transport::send`]
//! sees, so the payload (a reliability-shim or protocol frame, possibly a
//! container) is forwarded byte-for-byte.
//!
//! ## Gauge discipline
//!
//! The in-process transports let the *receiving* worker retire a frame's
//! in-flight claim, which cannot work across processes. A socket transport
//! retires the claim itself once the frame is handed to the wire (local
//! destinations keep the in-process rule), and the receiving process
//! raises its own gauge before enqueuing the frame. A data frame in wire
//! transit is still covered by the *sender's* unacked gauge — which is why
//! socket clusters always run the reliability shim (see [`crate::Node`]):
//! quiescence stays sound without a shared gauge.

use crate::engine::Input;
use crate::runtime::LinkReport;
use crate::transport::{SplitMix64, Transport, TransportReport};
use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use dlm_core::NodeId;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// TCP frame header: `len | from_slot | to_slot`, all `u32` little-endian.
const WIRE_HEADER: usize = 12;
/// UDP datagram header: `from_slot | to_slot`.
const DGRAM_HEADER: usize = 8;
/// Sanity cap on a single wire frame's payload. A worker's largest frame is
/// a container of one drain batch (~256 small frames), far below this; a
/// length beyond the cap means a corrupt or hostile stream.
const MAX_WIRE_FRAME: usize = 1 << 24;
/// Idle sleep of the readiness poll loops: short enough to keep loopback
/// round trips in the tens of microseconds, long enough not to burn a core
/// per connection when idle.
const POLL_IDLE: Duration = Duration::from_micros(20);
/// TCP event-loop threads; connections are sharded across them by peer id.
const IO_THREADS: usize = 2;
/// Per-peer write-queue budget in bytes; a sender blocks (backpressure)
/// while a peer's queue is over budget.
const WRITE_BUFFER: usize = 4 << 20;
/// How long to keep re-dialing a peer that is not accepting yet (peers of a
/// multi-process cluster start in arbitrary order).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(15);
/// `to_slot` of the goodbye: a zero-length TCP frame a cleanly shutting-down
/// member writes last on each connection, so the peer closes the link on
/// the EOF that follows without counting a reset.
const GOODBYE: u32 = u32::MAX;

/// Which wire a [`crate::Node`] speaks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SocketMode {
    /// Length-prefixed frames over per-pair TCP connections.
    Tcp,
    /// One datagram per frame, with seeded sender-side loss injection
    /// (`loss` in `[0, 1)`) to exercise the reliability shim on a lossy
    /// medium. `loss: 0.0` is a faithful loopback UDP wire.
    Udp {
        /// Probability of dropping each outgoing datagram.
        loss: f64,
        /// Seed of the deterministic drop sequence.
        seed: u64,
    },
}

/// Addresses and wire of one cluster member's socket transport.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// This process's node id (index into [`Self::addrs`]).
    pub me: u32,
    /// One socket address per node, cluster-wide (index = node id).
    pub addrs: Vec<SocketAddr>,
    /// TCP or UDP.
    pub mode: SocketMode,
}

impl SocketConfig {
    /// A TCP config.
    pub fn tcp(me: u32, addrs: Vec<SocketAddr>) -> Self {
        SocketConfig {
            me,
            addrs,
            mode: SocketMode::Tcp,
        }
    }

    /// A UDP config with the given loss injection.
    pub fn udp(me: u32, addrs: Vec<SocketAddr>, loss: f64, seed: u64) -> Self {
        SocketConfig {
            mode: SocketMode::Udp { loss, seed },
            ..Self::tcp(me, addrs)
        }
    }
}

/// Stream reassembly error: the peer sent something that cannot be a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireError {
    /// Frame length beyond [`MAX_WIRE_FRAME`].
    Oversized,
    /// The buffered byte stream contradicts its own framing (a header or
    /// payload slice falls outside the bytes actually present). A healthy
    /// TCP stream cannot produce this; a corrupted or adversarial one can,
    /// and it must kill the connection, not the process.
    Corrupt,
}

/// Per-connection receive buffer with partial-frame reassembly.
///
/// Raw reads append via [`WireBuf::extend`]; [`WireBuf::drain`] parses out
/// every *complete* frame. The complete region is frozen into one shared
/// [`Bytes`] snapshot (a single bulk copy, reusing the buffer's capacity)
/// and each frame's payload is a zero-copy slice of that snapshot; a
/// trailing partial frame is carried forward for the next read.
pub(crate) struct WireBuf {
    buf: BytesMut,
}

impl WireBuf {
    pub(crate) fn new() -> Self {
        WireBuf {
            buf: BytesMut::with_capacity(16 * 1024),
        }
    }

    /// Append raw bytes read from the stream.
    pub(crate) fn extend(&mut self, chunk: &[u8]) {
        self.buf.put_slice(chunk);
    }

    /// Bytes buffered but not yet parsed into a complete frame.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Parse out every complete frame, invoking `deliver(from_slot,
    /// to_slot, payload)` per frame in arrival order.
    pub(crate) fn drain(
        &mut self,
        deliver: &mut dyn FnMut(u32, u32, Bytes),
    ) -> Result<(), WireError> {
        // Every header word is read through this bounds-checked helper:
        // bytes arriving off a real wire are attacker-controlled input, and
        // a short or lying buffer must surface as [`WireError::Corrupt`]
        // (killing the connection), never as a slice panic killing the
        // process.
        fn word(data: &[u8], pos: usize) -> Result<u32, WireError> {
            match data.get(pos..pos + 4) {
                Some(b) => Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
                None => Err(WireError::Corrupt),
            }
        }
        let data = self.buf.as_ref();
        let mut consumed = 0usize;
        while data.len() - consumed >= WIRE_HEADER {
            let len = word(data, consumed)? as usize;
            if len > MAX_WIRE_FRAME {
                return Err(WireError::Oversized);
            }
            if data.len() - consumed < WIRE_HEADER + len {
                break;
            }
            consumed += WIRE_HEADER + len;
        }
        if consumed == 0 {
            return Ok(());
        }
        // One bulk copy into a shared snapshot (capacity retained), then
        // zero-copy per-frame views; the partial tail is re-buffered.
        let snapshot = self.buf.take_frame();
        if consumed < snapshot.len() {
            let tail = snapshot.slice(consumed..snapshot.len());
            self.buf.put_slice(tail.as_ref());
        }
        let data = snapshot.as_ref();
        let mut pos = 0usize;
        while pos < consumed {
            let len = word(data, pos)? as usize;
            let from = word(data, pos + 4)?;
            let to = word(data, pos + 8)?;
            let end = pos + WIRE_HEADER + len;
            if end > snapshot.len() {
                return Err(WireError::Corrupt);
            }
            let payload = snapshot.slice(pos + WIRE_HEADER..end);
            deliver(from, to, payload);
            pos = end;
        }
        Ok(())
    }
}

/// Encode one TCP wire frame onto a byte sink.
fn put_wire_frame(out: &mut Vec<u8>, from_slot: u32, to_slot: u32, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&from_slot.to_le_bytes());
    out.extend_from_slice(&to_slot.to_le_bytes());
    out.extend_from_slice(payload);
}

/// One peer's outgoing byte queue, shared between the sending workers and
/// the event-loop thread that owns the connection. Backpressure lives
/// here: a push blocks while the queue is over budget, and the event loop
/// signals space as it drains bytes onto the wire.
pub(crate) struct WriteQueue {
    state: Mutex<WriteState>,
    space: Condvar,
    cap: usize,
}

struct WriteState {
    buf: Vec<u8>,
    closed: bool,
}

impl WriteQueue {
    pub(crate) fn new(cap: usize) -> Self {
        WriteQueue {
            state: Mutex::new(WriteState {
                buf: Vec::new(),
                closed: false,
            }),
            space: Condvar::new(),
            cap,
        }
    }

    /// Queue one wire frame, blocking while the queue is over budget.
    /// Returns false (frame dropped) if the queue closed — the connection
    /// died or the transport shut down — rather than blocking forever.
    pub(crate) fn push_frame(&self, from_slot: u32, to_slot: u32, payload: &[u8]) -> bool {
        let mut st = self.state.lock().expect("write queue lock");
        while !st.closed && st.buf.len() >= self.cap {
            let (guard, _) = self
                .space
                .wait_timeout(st, Duration::from_millis(5))
                .expect("write queue wait");
            st = guard;
        }
        if st.closed {
            return false;
        }
        put_wire_frame(&mut st.buf, from_slot, to_slot, payload);
        true
    }

    /// Move every queued byte into `out`; returns true if anything moved.
    /// Wakes blocked pushers.
    pub(crate) fn take_into(&self, out: &mut Vec<u8>) -> bool {
        let mut st = self.state.lock().expect("write queue lock");
        if st.buf.is_empty() {
            return false;
        }
        if out.is_empty() {
            std::mem::swap(out, &mut st.buf);
        } else {
            out.extend_from_slice(&st.buf);
            st.buf.clear();
        }
        self.space.notify_all();
        true
    }

    /// Bytes currently queued.
    pub(crate) fn queued(&self) -> usize {
        self.state.lock().expect("write queue lock").buf.len()
    }

    /// Reject all future pushes and wake blocked pushers.
    pub(crate) fn close(&self) {
        self.state.lock().expect("write queue lock").closed = true;
        self.space.notify_all();
    }
}

/// Per-peer wire counters (all updated with relaxed atomics).
#[derive(Default)]
struct PeerStat {
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    resets: AtomicU64,
    udp_dropped: AtomicU64,
}

/// A live TCP connection owned by one event-loop thread.
struct Conn {
    peer: usize,
    stream: TcpStream,
    rbuf: WireBuf,
    wbuf: Vec<u8>,
    alive: bool,
    /// Our goodbye is queued on this connection.
    said_goodbye: bool,
    /// The peer said goodbye: it is shutting down cleanly, and the
    /// connection's end is not a fault.
    peer_left: bool,
}

enum Wire {
    Tcp {
        /// Per-peer outgoing queues (index = node id; `me`'s entry unused).
        queues: Vec<Arc<WriteQueue>>,
        /// Post-shutdown escape hatch: a cloned handle per established
        /// connection, used for best-effort blocking writes after the
        /// event loops have exited (the `Transport` contract wants
        /// post-shutdown sends delivered when possible).
        streams: Vec<Mutex<Option<TcpStream>>>,
    },
    Udp {
        socket: UdpSocket,
        loss: f64,
        rng: Mutex<SplitMix64>,
    },
}

/// The real-socket [`Transport`]: one instance per cluster member process.
/// Built by [`crate::Node`]; see the module docs for the wire format and
/// threading model.
pub(crate) struct SocketTransport {
    me: usize,
    nodes: usize,
    shards: usize,
    addrs: Vec<SocketAddr>,
    /// This process's worker input channels, one per shard.
    local: Vec<Sender<Input>>,
    in_flight: Arc<AtomicU64>,
    stats: Vec<PeerStat>,
    /// Connections killed because their byte stream failed to reassemble
    /// into frames ([`WireError`]); surfaced via
    /// [`TransportReport::wire_decode_errors`].
    decode_errors: AtomicU64,
    wire: Wire,
    shutting_down: AtomicBool,
    /// Set with `shutting_down` by a clean shutdown: the final flush ends
    /// each TCP connection with a goodbye.
    goodbye: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl SocketTransport {
    /// Bind `addrs[me]` and start the wire threads. For TCP this dials
    /// every lower-id peer (retrying until [`CONNECT_TIMEOUT`]) and accepts
    /// every higher-id peer; frames queued for a peer before its connection
    /// is up simply wait in its write queue.
    pub(crate) fn bind(
        config: SocketConfig,
        local: Vec<Sender<Input>>,
        in_flight: Arc<AtomicU64>,
        shards: usize,
    ) -> std::io::Result<Arc<SocketTransport>> {
        let me = config.me as usize;
        let nodes = config.addrs.len();
        assert!(me < nodes, "node id out of range");
        assert_eq!(local.len(), shards, "one input channel per shard");
        let stats: Vec<PeerStat> = (0..nodes).map(|_| PeerStat::default()).collect();

        match config.mode {
            SocketMode::Tcp => {
                let listener = TcpListener::bind(config.addrs[me])?;
                listener.set_nonblocking(true)?;
                let queues: Vec<Arc<WriteQueue>> = (0..nodes)
                    .map(|_| Arc::new(WriteQueue::new(WRITE_BUFFER)))
                    .collect();
                let streams: Vec<Mutex<Option<TcpStream>>> =
                    (0..nodes).map(|_| Mutex::new(None)).collect();
                let transport = Arc::new(SocketTransport {
                    me,
                    nodes,
                    shards,
                    addrs: config.addrs,
                    local,
                    in_flight,
                    stats,
                    decode_errors: AtomicU64::new(0),
                    wire: Wire::Tcp { queues, streams },
                    shutting_down: AtomicBool::new(false),
                    goodbye: AtomicBool::new(false),
                    threads: Mutex::new(Vec::new()),
                });

                let (reg_txs, reg_rxs): (Vec<Sender<Conn>>, Vec<Receiver<Conn>>) =
                    (0..IO_THREADS).map(|_| unbounded()).unzip();
                let mut joins = Vec::new();
                for (t, reg_rx) in reg_rxs.into_iter().enumerate() {
                    let tr = Arc::clone(&transport);
                    joins.push(
                        std::thread::Builder::new()
                            .name(format!("dlm-sock-io-{me}.{t}"))
                            .spawn(move || tr.event_loop(reg_rx))
                            .expect("spawn socket io thread"),
                    );
                }
                {
                    let tr = Arc::clone(&transport);
                    joins.push(
                        std::thread::Builder::new()
                            .name(format!("dlm-sock-conn-{me}"))
                            .spawn(move || tr.establish(listener, reg_txs))
                            .expect("spawn socket connect thread"),
                    );
                }
                *transport.threads.lock().expect("threads lock") = joins;
                Ok(transport)
            }
            SocketMode::Udp { loss, seed } => {
                let socket = UdpSocket::bind(config.addrs[me])?;
                let rx_socket = socket.try_clone()?;
                rx_socket.set_read_timeout(Some(Duration::from_millis(10)))?;
                let transport = Arc::new(SocketTransport {
                    me,
                    nodes,
                    shards,
                    addrs: config.addrs,
                    local,
                    in_flight,
                    stats,
                    decode_errors: AtomicU64::new(0),
                    wire: Wire::Udp {
                        socket,
                        loss,
                        rng: Mutex::new(SplitMix64::new(seed)),
                    },
                    shutting_down: AtomicBool::new(false),
                    goodbye: AtomicBool::new(false),
                    threads: Mutex::new(Vec::new()),
                });
                let tr = Arc::clone(&transport);
                let join = std::thread::Builder::new()
                    .name(format!("dlm-sock-udp-{me}"))
                    .spawn(move || tr.udp_rx_loop(rx_socket))
                    .expect("spawn udp rx thread");
                transport.threads.lock().expect("threads lock").push(join);
                Ok(transport)
            }
        }
    }

    /// Hand a received wire frame to the local worker it addresses. The
    /// receiving process claims its own in-flight slot (the sender's was
    /// retired when the frame hit the wire).
    fn deliver_local(&self, from_slot: u32, to_slot: u32, frame: Bytes) {
        let to = to_slot as usize;
        if to / self.shards != self.me {
            return; // misaddressed frame; drop
        }
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        if self.local[to % self.shards]
            .send(Input::Net {
                from: NodeId(from_slot),
                frame,
            })
            .is_err()
        {
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
    }

    // ---------------------------------------------------------------- TCP

    /// Connection-establishment thread: dial lower-id peers, accept
    /// higher-id peers, register each finished connection with its event
    /// loop, then exit.
    fn establish(self: Arc<Self>, listener: TcpListener, reg_txs: Vec<Sender<Conn>>) {
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        let mut to_dial: Vec<usize> = (0..self.me).collect();
        let mut to_accept = self.nodes - self.me - 1;
        while (!to_dial.is_empty() || to_accept > 0)
            && !self.shutting_down.load(Ordering::Relaxed)
            && Instant::now() < deadline
        {
            let mut progress = false;
            if to_accept > 0 {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progress = true;
                        match self.handshake_accept(stream) {
                            Some((peer, stream)) => {
                                to_accept -= 1;
                                self.register(peer, stream, &reg_txs);
                            }
                            None => {
                                // Bad hello or duplicate: count it against
                                // no specific link and keep listening.
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
            }
            to_dial.retain(|&peer| {
                match TcpStream::connect_timeout(&self.addrs[peer], Duration::from_millis(250)) {
                    Ok(mut stream) => {
                        // Hello: who is dialing.
                        let ok = stream.write_all(&(self.me as u32).to_le_bytes()).is_ok();
                        if ok {
                            progress = true;
                            self.register(peer, stream, &reg_txs);
                            false
                        } else {
                            true
                        }
                    }
                    // Peer not up yet (refused) or unreachable: retry.
                    Err(_) => true,
                }
            });
            if !progress {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    /// Read and validate the 4-byte hello of an accepted connection.
    fn handshake_accept(&self, stream: TcpStream) -> Option<(usize, TcpStream)> {
        let mut stream = stream;
        stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
        let mut hello = [0u8; 4];
        stream.read_exact(&mut hello).ok()?;
        let peer = u32::from_le_bytes(hello) as usize;
        if peer <= self.me || peer >= self.nodes {
            return None;
        }
        stream.set_read_timeout(None).ok()?;
        Some((peer, stream))
    }

    /// Finish setting up an established connection and hand it to its
    /// event-loop thread (sharded by peer id).
    fn register(&self, peer: usize, stream: TcpStream, reg_txs: &[Sender<Conn>]) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        if let Wire::Tcp { streams, .. } = &self.wire {
            *streams[peer].lock().expect("stream slot lock") = stream.try_clone().ok();
        }
        let conn = Conn {
            peer,
            stream,
            rbuf: WireBuf::new(),
            wbuf: Vec::new(),
            alive: true,
            said_goodbye: false,
            peer_left: false,
        };
        let _ = reg_txs[peer % reg_txs.len()].send(conn);
    }

    /// Live per-peer connection-loss counts, indexed by node id. The
    /// socket-path failure detector ([`crate::Node::suspects`]) reads
    /// this: a peer whose process died shows a reset on its link.
    pub(crate) fn peer_resets(&self) -> Vec<u64> {
        self.stats
            .iter()
            .map(|s| s.resets.load(Ordering::Relaxed))
            .collect()
    }

    /// Mark a connection dead: bump the pair's reset counter unless the
    /// peer said goodbye, and close its write queue so senders drop instead
    /// of blocking on a peer that is gone. The node itself keeps serving.
    fn kill_conn(&self, conn: &mut Conn) {
        if !conn.alive {
            return;
        }
        conn.alive = false;
        if !conn.peer_left {
            self.stats[conn.peer].resets.fetch_add(1, Ordering::Relaxed);
        }
        if let Wire::Tcp { queues, streams } = &self.wire {
            queues[conn.peer].close();
            *streams[conn.peer].lock().expect("stream slot lock") = None;
        }
    }

    /// One readiness-polled event-loop thread: owns a subset of the
    /// connections, moving queued bytes onto the wire and wire bytes into
    /// the local workers, with a short adaptive sleep when idle.
    fn event_loop(self: Arc<Self>, reg_rx: Receiver<Conn>) {
        let Wire::Tcp { queues, .. } = &self.wire else {
            unreachable!("event_loop is TCP-only");
        };
        let mut conns: Vec<Conn> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        loop {
            let mut progress = false;
            while let Ok(conn) = reg_rx.try_recv() {
                conns.push(conn);
                progress = true;
            }
            let draining = self.shutting_down.load(Ordering::Acquire);
            let goodbye = draining && self.goodbye.load(Ordering::Relaxed);
            for conn in conns.iter_mut() {
                if !conn.alive {
                    continue;
                }
                // Writes: adopt freshly queued bytes, then push as much as
                // the kernel will take without blocking.
                if queues[conn.peer].take_into(&mut conn.wbuf) {
                    progress = true;
                }
                if goodbye && !conn.said_goodbye {
                    conn.said_goodbye = true;
                    let from_slot = (self.me * self.shards) as u32;
                    put_wire_frame(&mut conn.wbuf, from_slot, GOODBYE, &[]);
                }
                let mut written = 0usize;
                while written < conn.wbuf.len() {
                    match conn.stream.write(&conn.wbuf[written..]) {
                        Ok(0) => {
                            self.kill_conn(conn);
                            break;
                        }
                        Ok(n) => {
                            written += n;
                            progress = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            self.kill_conn(conn);
                            break;
                        }
                    }
                }
                conn.wbuf.drain(..written);
                if !conn.alive {
                    continue;
                }
                // Reads: pull everything available, reassemble, deliver —
                // and only then act on an EOF or error, so a goodbye read
                // in the same cycle is seen first.
                let mut ended = false;
                loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            ended = true;
                            break;
                        }
                        Ok(n) => {
                            progress = true;
                            conn.rbuf.extend(&scratch[..n]);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            ended = true;
                            break;
                        }
                    }
                }
                let stat = &self.stats[conn.peer];
                let peer_left = &mut conn.peer_left;
                let drained = conn.rbuf.drain(&mut |from_slot, to_slot, payload| {
                    if to_slot == GOODBYE {
                        *peer_left = true;
                        return;
                    }
                    stat.bytes_recv
                        .fetch_add(payload.len() as u64, Ordering::Relaxed);
                    self.deliver_local(from_slot, to_slot, payload);
                });
                if drained.is_err() {
                    self.decode_errors.fetch_add(1, Ordering::Relaxed);
                }
                if ended || drained.is_err() {
                    self.kill_conn(conn);
                }
            }
            // Drop killed connections: holding the dead stream open would
            // leak its descriptor for the node's lifetime and hide the
            // close from the remote peer's failure detector.
            conns.retain(|c| c.alive);
            if draining {
                // Final flush: leave only once every live connection's
                // queue and write buffer are empty (bounded by the caller's
                // drain phase having already quiesced the cluster).
                let flushed = conns
                    .iter()
                    .all(|c| !c.alive || (c.wbuf.is_empty() && queues[c.peer].queued() == 0));
                if flushed {
                    break;
                }
            }
            if !progress {
                std::thread::sleep(POLL_IDLE);
            }
        }
    }

    // ---------------------------------------------------------------- UDP

    /// Blocking receive loop (10 ms read timeout to notice shutdown).
    fn udp_rx_loop(self: Arc<Self>, socket: UdpSocket) {
        let mut scratch = vec![0u8; 64 * 1024];
        while !self.shutting_down.load(Ordering::Relaxed) {
            match socket.recv_from(&mut scratch) {
                Ok((n, _)) if n >= DGRAM_HEADER => {
                    let from_slot = u32::from_le_bytes(scratch[0..4].try_into().expect("4 bytes"));
                    let to_slot = u32::from_le_bytes(scratch[4..8].try_into().expect("4 bytes"));
                    let payload = Bytes::from(scratch[DGRAM_HEADER..n].to_vec());
                    let peer = from_slot as usize / self.shards;
                    if peer < self.nodes {
                        self.stats[peer]
                            .bytes_recv
                            .fetch_add(payload.len() as u64, Ordering::Relaxed);
                    }
                    self.deliver_local(from_slot, to_slot, payload);
                }
                Ok(_) => {} // runt datagram; drop
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => {}
            }
        }
    }

    /// Send one frame to a remote peer over whichever wire is configured.
    fn send_remote(&self, to_node: usize, from_slot: u32, to_slot: u32, frame: &Bytes) {
        let stat = &self.stats[to_node];
        match &self.wire {
            Wire::Tcp { queues, streams } => {
                if self.shutting_down.load(Ordering::Relaxed) {
                    // Event loops are gone; best-effort direct blocking
                    // write so post-shutdown sends still reach the peer.
                    let mut slot = streams[to_node].lock().expect("stream slot lock");
                    if let Some(stream) = slot.as_mut() {
                        let _ = stream.set_nonblocking(false);
                        let mut buf = Vec::with_capacity(WIRE_HEADER + frame.len());
                        put_wire_frame(&mut buf, from_slot, to_slot, frame.as_ref());
                        if stream.write_all(&buf).is_ok() {
                            stat.bytes_sent
                                .fetch_add(frame.len() as u64, Ordering::Relaxed);
                        }
                    }
                    return;
                }
                if queues[to_node].push_frame(from_slot, to_slot, frame.as_ref()) {
                    stat.bytes_sent
                        .fetch_add(frame.len() as u64, Ordering::Relaxed);
                }
            }
            Wire::Udp { socket, loss, rng } => {
                if rng.lock().expect("udp rng lock").chance(*loss) {
                    stat.udp_dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let mut dgram = Vec::with_capacity(DGRAM_HEADER + frame.len());
                dgram.extend_from_slice(&from_slot.to_le_bytes());
                dgram.extend_from_slice(&to_slot.to_le_bytes());
                dgram.extend_from_slice(frame.as_ref());
                match socket.send_to(&dgram, self.addrs[to_node]) {
                    Ok(_) => {
                        stat.bytes_sent
                            .fetch_add(frame.len() as u64, Ordering::Relaxed);
                    }
                    // A refused/unreachable datagram is loss like any
                    // other; the reliability shim repairs it.
                    Err(_) => {
                        stat.udp_dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Flush and stop the wire threads, then report. A clean stop
    /// (`goodbye`) ends every TCP connection's final flush with a goodbye;
    /// a crash stops without one, so the peers count the connections'
    /// death as resets and suspect this member.
    pub(crate) fn stop(&self, goodbye: bool) -> TransportReport {
        // Release pairs with the event loops' Acquire load of
        // `shutting_down`: a loop that sees the stop also sees `goodbye`.
        self.goodbye.store(goodbye, Ordering::Relaxed);
        self.shutting_down.store(true, Ordering::Release);
        let joins = std::mem::take(&mut *self.threads.lock().expect("threads lock"));
        for join in joins {
            let _ = join.join();
        }
        if let Wire::Tcp { queues, .. } = &self.wire {
            for q in queues {
                q.close();
            }
        }
        let me = self.me as u32;
        let mut links = Vec::with_capacity(2 * self.nodes);
        for (peer, stat) in self.stats.iter().enumerate() {
            let peer = peer as u32;
            if peer == me {
                continue;
            }
            let resets = stat.resets.load(Ordering::Relaxed);
            links.push(LinkReport {
                wire_bytes: stat.bytes_sent.load(Ordering::Relaxed),
                resets,
                dropped: stat.udp_dropped.load(Ordering::Relaxed),
                ..LinkReport::new(me, peer)
            });
            links.push(LinkReport {
                wire_bytes: stat.bytes_recv.load(Ordering::Relaxed),
                resets,
                ..LinkReport::new(peer, me)
            });
        }
        TransportReport {
            links,
            wire_decode_errors: self.decode_errors.load(Ordering::Relaxed),
            ..TransportReport::default()
        }
    }
}

impl Transport for SocketTransport {
    fn send(&self, from: NodeId, to: NodeId, frame: Bytes) {
        let to_node = to.0 as usize / self.shards;
        if to_node == self.me {
            // Local shard: the in-process rule applies — the receiving
            // worker retires the in-flight claim.
            if self.local[to.0 as usize % self.shards]
                .send(Input::Net { from, frame })
                .is_err()
            {
                self.in_flight.fetch_sub(1, Ordering::Relaxed);
            }
            return;
        }
        self.send_remote(to_node, from.0, to.0, &frame);
        // The wire has the frame now (or dropped it); either way this
        // process's in-flight claim is over. Data frames in transit stay
        // covered by the sender's unacked gauge.
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    fn shutdown(&self) -> TransportReport {
        self.stop(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(from: u32, to: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_wire_frame(&mut out, from, to, payload);
        out
    }

    #[test]
    fn partial_frames_reassemble_across_reads() {
        // Feed one frame a single byte at a time: nothing is delivered
        // until the last byte arrives, then exactly one frame comes out.
        let wire = frame(3, 1, b"hello-wire");
        let mut buf = WireBuf::new();
        let mut got = Vec::new();
        for (i, byte) in wire.iter().enumerate() {
            buf.extend(&[*byte]);
            buf.drain(&mut |from, to, payload| {
                got.push((from, to, payload.as_ref().to_vec()));
            })
            .expect("clean stream");
            if i + 1 < wire.len() {
                assert!(got.is_empty(), "no delivery before byte {}", i + 1);
            }
        }
        assert_eq!(got, vec![(3, 1, b"hello-wire".to_vec())]);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn frames_split_and_batched_arbitrarily() {
        // Three frames, concatenated, then split at every possible cut
        // point into two "TCP segments": delivery is identical regardless
        // of segmentation.
        let mut stream = Vec::new();
        stream.extend_from_slice(&frame(0, 4, b"a"));
        stream.extend_from_slice(&frame(1, 4, &[0u8; 300]));
        stream.extend_from_slice(&frame(2, 4, b""));
        for cut in 0..=stream.len() {
            let mut buf = WireBuf::new();
            let mut got = Vec::new();
            buf.extend(&stream[..cut]);
            buf.drain(&mut |f, t, p| got.push((f, t, p.len())))
                .expect("clean stream");
            buf.extend(&stream[cut..]);
            buf.drain(&mut |f, t, p| got.push((f, t, p.len())))
                .expect("clean stream");
            assert_eq!(got, vec![(0, 4, 1), (1, 4, 300), (2, 4, 0)], "cut at {cut}");
            assert_eq!(buf.pending(), 0, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = WireBuf::new();
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_WIRE_FRAME as u32 + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 8]);
        buf.extend(&wire);
        assert_eq!(
            buf.drain(&mut |_, _, _| panic!("no delivery")),
            Err(WireError::Oversized)
        );
    }

    #[test]
    fn write_queue_backpressure_blocks_then_drains() {
        let q = Arc::new(WriteQueue::new(64));
        // Fill past the budget (the cap check is pre-push, so one frame
        // may overshoot).
        assert!(q.push_frame(0, 1, &[7u8; 60]));
        assert!(q.queued() >= 64);
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push_frame(0, 1, &[8u8; 8]));
        // The pusher must be blocked: give it a moment, then drain.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!pusher.is_finished(), "push blocks while over budget");
        let mut out = Vec::new();
        assert!(q.take_into(&mut out));
        assert!(pusher.join().expect("pusher"), "push succeeds after drain");
        assert_eq!(out.len(), WIRE_HEADER + 60);
        let mut rest = Vec::new();
        assert!(q.take_into(&mut rest));
        assert_eq!(rest.len(), WIRE_HEADER + 8);
    }

    #[test]
    fn closed_queue_rejects_instead_of_blocking() {
        let q = WriteQueue::new(16);
        assert!(q.push_frame(0, 1, &[1u8; 40]), "first frame overshoots");
        q.close();
        assert!(!q.push_frame(0, 1, b"x"), "closed queue drops frames");
    }
}
