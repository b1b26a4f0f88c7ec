//! Socket-transport integration suite: real loopback sockets under the
//! edge cases the wire introduces on top of the in-process runtime —
//! frames split across TCP segments, a container frame spanning two
//! writes, a peer connection dropping mid-stream, and UDP at a real 10%
//! loss rate (the socket twin of `tests/chaos.rs`).
//!
//! Several [`Node`]s run inside this one test process, but every frame
//! between them crosses a genuine kernel socket; the cross-process audit
//! path is exercised by round-tripping each member's final states through
//! the portable state codec before auditing, exactly as the multi-process
//! harness does.

use dlm_cluster::{
    audit_process_states, audit_surviving_states, await_quiescence, codec, plan_recovery,
    ClusterConfig, LinkReport, Node, NodeConfig, ScanReport, SocketConfig,
};
use dlm_core::{HierNode, LockId, Message, Mode, NodeId, ProtocolConfig, QueuedRequest};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

/// Reserve `n` distinct loopback TCP addresses by binding ephemeral
/// listeners and dropping them; the cluster rebinds them immediately after.
fn reserve_tcp_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

/// Same, for UDP.
fn reserve_udp_addrs(n: usize) -> Vec<SocketAddr> {
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    sockets
        .iter()
        .map(|s| s.local_addr().expect("local addr"))
        .collect()
}

fn member_config(nodes: usize, locks: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        locks,
        ..Default::default()
    }
}

/// Wait for global quiescence of `nodes` ([`await_quiescence`]): every
/// member idle with the same global message count on two consecutive polls
/// (each member's own idleness is necessary but not sufficient).
fn quiesce_all<'a>(nodes: impl IntoIterator<Item = &'a Node>, timeout: Duration) {
    let nodes: Vec<&Node> = nodes.into_iter().collect();
    let poll = || {
        let idle = nodes.iter().all(|n| n.is_idle());
        (idle, nodes.iter().map(|n| n.messages_sent()).sum())
    };
    assert!(
        await_quiescence(poll, Instant::now() + timeout),
        "cluster failed to quiesce within {timeout:?}"
    );
}

/// The poll number at which [`await_quiescence`] declares quiet when
/// the members answer `script`, then stay busy; `None` if it never
/// does before its deadline.
fn quiet_at(script: &[(bool, u64)]) -> Option<usize> {
    let mut polls = 0;
    let poll = || {
        polls += 1;
        script.get(polls - 1).copied().unwrap_or((false, 99))
    };
    let quiet = await_quiescence(poll, Instant::now() + Duration::from_millis(30));
    quiet.then_some(polls)
}

/// Quiet needs two consecutive all-idle polls with equal sums: a busy
/// poll before an idle one may hide a frame in transit that the idle
/// poll's sweep let land and be answered unseen.
#[test]
fn quiet_is_two_idle_polls_with_one_sum() {
    let (busy, idle) = (false, true);
    assert_eq!(quiet_at(&[(busy, 15), (idle, 15)]), None);
    assert_eq!(quiet_at(&[(idle, 15), (idle, 15)]), Some(2));
    assert_eq!(quiet_at(&[(idle, 15), (idle, 16)]), None, "the sum moved");
    assert_eq!(quiet_at(&[(idle, 15), (idle, 16), (idle, 16)]), Some(3));
    assert_eq!(quiet_at(&[(idle, 15), (busy, 15), (idle, 15)]), None);
}

/// Round-trip one member's states through the portable codec, as the
/// multi-process harness does over stdout, then hand back decoded states.
fn round_trip_states(states: &[(u32, HierNode)], protocol: ProtocolConfig) -> Vec<(u32, HierNode)> {
    states
        .iter()
        .map(|(lock, node)| {
            let mut buf = Vec::new();
            node.encode_state(&mut buf);
            let decoded =
                HierNode::decode_state(&buf, protocol).expect("portable state codec round-trip");
            (*lock, decoded)
        })
        .collect()
}

/// Three members over real TCP loopback run the chaos-suite op matrix;
/// the cluster quiesces, every member shuts down cleanly, and the audit
/// reassembled from codec-round-tripped states is clean. A clean shutdown
/// says goodbye, so no member counts another's departure as a reset — the
/// pause between shutdowns gives every survivor time to see each EOF.
#[test]
fn tcp_loopback_cluster_clean_audit() {
    let cluster = member_config(3, 2);
    let addrs = reserve_tcp_addrs(3);
    let nodes: Vec<Node> = (0..3)
        .map(|me| {
            Node::new(NodeConfig {
                cluster,
                socket: SocketConfig::tcp(me, addrs.clone()),
            })
            .expect("bind member")
        })
        .collect();

    std::thread::scope(|s| {
        for node in &nodes {
            let h = node.handle();
            s.spawn(move || {
                for lock in [LockId(0), LockId(1)] {
                    for mode in [Mode::IntentRead, Mode::Write, Mode::Read] {
                        h.acquire(lock, mode).unwrap();
                        h.release(lock).unwrap();
                    }
                }
            });
        }
    });

    quiesce_all(&nodes, Duration::from_secs(20));
    let reports: Vec<_> = nodes
        .into_iter()
        .map(|node| {
            let report = node.shutdown();
            std::thread::sleep(Duration::from_millis(50));
            report
        })
        .collect();

    let mut wire_bytes = 0;
    let mut all_states = Vec::new();
    for report in &reports {
        assert_eq!(report.decode_errors, 0, "malformed frames on a clean run");
        assert_eq!(report.replies_dropped, 0, "a caller never saw its outcome");
        let resets: u64 = report.links.iter().map(|l| l.resets).sum();
        assert_eq!(resets, 0, "a clean shutdown was counted as a reset");
        wire_bytes += report.links.iter().map(|l| l.wire_bytes).sum::<u64>();
        all_states.push(round_trip_states(&report.states, cluster.protocol));
    }
    assert!(wire_bytes > 0, "no payload byte ever crossed the wire");
    let errors = audit_process_states(cluster.protocol, &all_states);
    assert!(errors.is_empty(), "{errors:?}");
}

/// TCP neither loses nor reorders, so the reliability shim never sees a
/// gap there: under load a TCP pair parks no frame, and since a selective
/// ack is sent only while a frame is parked, its wire carries only data
/// frames and plain cumulative acks, the bytes it carried before selective
/// acks existed.
#[test]
fn tcp_pair_under_load_sends_no_selective_acks() {
    let cluster = member_config(2, 16);
    let addrs = reserve_tcp_addrs(2);
    let nodes: Vec<Node> = (0..2)
        .map(|me| {
            Node::new(NodeConfig {
                cluster,
                socket: SocketConfig::tcp(me, addrs.clone()),
            })
            .expect("bind member")
        })
        .collect();

    // Two callers per member on disjoint locks; both members contend for
    // every lock.
    std::thread::scope(|s| {
        for node in &nodes {
            for caller in 0..2u32 {
                let h = node.handle();
                s.spawn(move || {
                    for round in 0..50 {
                        let mode = [Mode::IntentRead, Mode::Read, Mode::Write][round % 3];
                        for l in 0..8 {
                            let lock = LockId(caller * 8 + l);
                            h.acquire(lock, mode).unwrap();
                            h.release(lock).unwrap();
                        }
                    }
                });
            }
        }
    });

    quiesce_all(&nodes, Duration::from_secs(20));
    let reports: Vec<_> = nodes.into_iter().map(Node::shutdown).collect();
    let sum = |f: fn(&LinkReport) -> u64| reports.iter().flat_map(|r| &r.links).map(f).sum::<u64>();
    assert!(sum(|l| l.data_sent) > 0 && sum(|l| l.acks_sent) > 0);
    assert_eq!(sum(|l| l.resets), 0, "a connection was lost");
    assert_eq!(sum(|l| l.reorders_buffered), 0, "a gap on TCP");
}

// ---------------------------------------------------------------------------
// A hand-rolled peer speaking the wire format over a raw TcpStream, for
// tests that need byte-level control (segment splits, abrupt drops). The
// framing constants mirror DESIGN.md §16: `u32 len | u32 from | u32 to |
// payload`, reliability payloads `u8 kind | u64 seq | u64 ack | data`.
// ---------------------------------------------------------------------------

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;

fn wire_frame(from_slot: u32, to_slot: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&from_slot.to_le_bytes());
    out.extend_from_slice(&to_slot.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn reliable_data(seq: u64, ack: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(17 + payload.len());
    out.push(KIND_DATA);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental wire-frame parser over a blocking stream with a short read
/// timeout: returns complete `(from, to, payload)` frames as they arrive.
struct FakePeer {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FakePeer {
    /// Dial `addr` and introduce ourselves as node `me` (the hello).
    fn dial(addr: SocketAddr, me: u32) -> FakePeer {
        let deadline = Instant::now() + Duration::from_secs(5);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("fake peer could not dial: {e}"),
            }
        };
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("read timeout");
        let mut peer = FakePeer {
            stream,
            buf: Vec::new(),
        };
        peer.stream
            .write_all(&me.to_le_bytes())
            .expect("hello write");
        peer
    }

    /// Read until one full wire frame is buffered or the deadline passes.
    fn next_frame(&mut self, deadline: Instant) -> Option<(u32, u32, Vec<u8>)> {
        loop {
            if self.buf.len() >= 12 {
                let len = u32::from_le_bytes(self.buf[0..4].try_into().unwrap()) as usize;
                if self.buf.len() >= 12 + len {
                    let from = u32::from_le_bytes(self.buf[4..8].try_into().unwrap());
                    let to = u32::from_le_bytes(self.buf[8..12].try_into().unwrap());
                    let payload = self.buf[12..12 + len].to_vec();
                    self.buf.drain(..12 + len);
                    return Some((from, to, payload));
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            let mut scratch = [0u8; 4096];
            match self.stream.read(&mut scratch) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("fake peer read: {e}"),
            }
        }
    }
}

/// The byte-level gauntlet: a raw peer sends a **container frame split
/// across two TCP segments** (a flush and a pause between the halves),
/// the node reassembles and serves both requests, the peer acks the
/// grants — then vanishes mid-stream. The node must count the reset and
/// keep serving local operations.
#[test]
fn split_container_then_peer_drop_keeps_node_serving() {
    let cluster = member_config(2, 2);
    let addrs = reserve_tcp_addrs(2);
    let node = Node::new(NodeConfig {
        cluster,
        socket: SocketConfig::tcp(0, addrs.clone()),
    })
    .expect("bind member");
    let h = node.handle();

    // Own Read on both locks so the remote Read requests are answered with
    // copy-grants (a weaker-or-equal mode) rather than a token transfer —
    // the token must stay here for the node to keep serving after the drop.
    h.acquire(LockId(0), Mode::Read).unwrap();
    h.acquire(LockId(1), Mode::Read).unwrap();

    // Build one container carrying Read requests for both locks, exactly
    // as a coalescing peer would, and wrap it in one reliability sequence.
    let request = |lock: u32, req: u64| {
        codec::encode_corr(
            LockId(lock),
            req,
            0,
            0,
            &Message::Request(QueuedRequest {
                from: NodeId(1),
                mode: Mode::Read,
                upgrade: false,
                priority: 0,
            }),
        )
    };
    let frames = [request(0, 1), request(1, 2)];
    let mut scratch = bytes::BytesMut::new();
    let container = codec::encode_container_into(&frames, &mut scratch);
    let data = reliable_data(0, 0, container.as_ref());
    let wire = wire_frame(1, 0, &data);

    let mut peer = FakePeer::dial(addrs[0], 1);
    // Split inside the container payload: two real TCP segments.
    let cut = 12 + data.len() / 2;
    peer.stream.write_all(&wire[..cut]).expect("first segment");
    peer.stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(40));
    peer.stream.write_all(&wire[cut..]).expect("second segment");
    peer.stream.flush().expect("flush");

    // Ack every data frame the node sends (grants, possibly retransmitted,
    // possibly coalesced) until the node has nothing outstanding.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut grants_seen = 0u64;
    loop {
        if grants_seen > 0 && node.is_idle() {
            break;
        }
        assert!(Instant::now() < deadline, "node never drained its grants");
        if let Some((_, _, payload)) = peer.next_frame(Instant::now() + Duration::from_millis(50)) {
            if payload.first() == Some(&KIND_DATA) {
                let seq = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                grants_seen += 1;
                let mut ack = vec![KIND_ACK];
                ack.extend_from_slice(&(seq + 1).to_le_bytes());
                peer.stream
                    .write_all(&wire_frame(1, 0, &ack))
                    .expect("ack write");
            }
        }
    }
    assert!(
        grants_seen > 0,
        "both requests served, no grant on the wire"
    );

    // Vanish mid-stream: no goodbye, just a dead connection.
    drop(peer);
    std::thread::sleep(Duration::from_millis(200));

    // The node keeps serving: release and re-acquire compatibly with the
    // Read copies the dead peer still holds on the books.
    h.release(LockId(0)).unwrap();
    h.acquire(LockId(0), Mode::Read).unwrap();
    h.release(LockId(0)).unwrap();
    h.release(LockId(1)).unwrap();

    let report = node.shutdown();
    assert_eq!(report.decode_errors, 0, "split container must decode");
    assert_eq!(report.replies_dropped, 0);
    let resets: u64 = report.links.iter().map(|l| l.resets).sum();
    assert!(resets >= 1, "the mid-stream drop was never counted");
    let wire_bytes: u64 = report.links.iter().map(|l| l.wire_bytes).sum();
    assert!(wire_bytes > 0, "grants never crossed the wire");
}

/// The socket twin of the chaos matrix: three members over UDP loopback
/// with a real 10% send-side loss rate. The reliability shim must recover
/// every operation, the audit must be clean, and the loss must be visible
/// in the link counters (dropped datagrams non-zero). Retransmissions are
/// not asserted: a dropped bare ack or duplicate needs none, and
/// `reliable.rs`'s own tests cover retransmission itself.
#[test]
fn udp_chaos_survives_ten_percent_loss() {
    for seed in [11u64, 23] {
        let cluster = member_config(3, 2);
        let addrs = reserve_udp_addrs(3);
        let nodes: Vec<Node> = (0..3u32)
            .map(|me| {
                Node::new(NodeConfig {
                    cluster,
                    socket: SocketConfig::udp(
                        me,
                        addrs.clone(),
                        0.10,
                        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(me),
                    ),
                })
                .expect("bind member")
            })
            .collect();

        std::thread::scope(|s| {
            for node in &nodes {
                let h = node.handle();
                s.spawn(move || {
                    for lock in [LockId(0), LockId(1)] {
                        for mode in [Mode::IntentRead, Mode::Write, Mode::Read] {
                            h.acquire(lock, mode).unwrap();
                            h.release(lock).unwrap();
                        }
                    }
                });
            }
        });

        quiesce_all(&nodes, Duration::from_secs(30));
        let reports: Vec<_> = nodes.into_iter().map(Node::shutdown).collect();

        let mut dropped = 0u64;
        let mut all_states = Vec::new();
        for report in &reports {
            assert_eq!(report.decode_errors, 0, "seed {seed}: malformed frames");
            assert_eq!(report.replies_dropped, 0, "seed {seed}: lost a reply");
            for link in &report.links {
                dropped += link.dropped;
            }
            all_states.push(round_trip_states(&report.states, cluster.protocol));
        }
        let errors = audit_process_states(cluster.protocol, &all_states);
        assert!(errors.is_empty(), "seed {seed}: {errors:?}");
        // At 10% over this much traffic a loss-free run is implausible;
        // its absence would mean the loss stage was never in the path.
        assert!(dropped > 0, "seed {seed}: no datagram ever dropped");
    }
}

/// Byte-level corruption regression: a wire frame whose length word lies
/// (far beyond any legal frame) must kill only that connection — counted
/// as a wire decode error plus a link reset — and a well-framed frame
/// whose *payload* is garbage must be counted by the worker's codec
/// without killing anything. The original parser `expect`ed its way
/// through the header words and would panic the transport thread instead.
#[test]
fn malformed_frames_are_counted_not_fatal() {
    let cluster = member_config(2, 1);
    let addrs = reserve_tcp_addrs(2);
    let node = Node::new(NodeConfig {
        cluster,
        socket: SocketConfig::tcp(0, addrs.clone()),
    })
    .expect("bind member");
    let h = node.handle();
    h.acquire(LockId(0), Mode::Read).expect("local read");

    let mut peer = FakePeer::dial(addrs[0], 1);
    // Payload-level garbage first: well-framed, parseable reliability
    // header, unparseable protocol payload — it reaches the worker's
    // codec, is counted there, and the connection survives it.
    let frame = wire_frame(1, 0, &reliable_data(0, 0, &[0xFF; 9]));
    peer.stream
        .write_all(&frame)
        .expect("write garbage payload");
    std::thread::sleep(Duration::from_millis(100));

    // Then a wire-level lie: a header promising four gigabytes of frame.
    let mut lie = Vec::new();
    lie.extend_from_slice(&u32::MAX.to_le_bytes());
    lie.extend_from_slice(&1u32.to_le_bytes());
    lie.extend_from_slice(&0u32.to_le_bytes());
    lie.extend_from_slice(b"trailing noise");
    peer.stream.write_all(&lie).expect("write lying header");
    // The node's only legal answer is to drop the connection.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut scratch = [0u8; 64];
        match peer.stream.read(&mut scratch) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
        assert!(
            Instant::now() < deadline,
            "poisoned connection was never torn down"
        );
    }

    // The node keeps serving local operations throughout.
    h.release(LockId(0)).expect("local release");
    h.acquire(LockId(0), Mode::Write).expect("local write");
    h.release(LockId(0)).expect("local release");
    std::thread::sleep(Duration::from_millis(300));

    let report = node.shutdown();
    assert!(
        report.decode_errors >= 2,
        "wire lie + payload garbage must both be counted, saw {}",
        report.decode_errors
    );
    let resets: u64 = report.links.iter().map(|l| l.resets).sum();
    assert!(
        resets >= 1,
        "the poisoned connection never counted as a reset"
    );
    assert_eq!(report.workers_died, 0);
    assert_eq!(report.replies_dropped, 0);
}

/// The tentpole scenario over real TCP: the token holder of a four-member
/// loopback cluster is killed while another member's Write acquire is
/// parked at it. Every survivor's socket detector observes the dead
/// connection, an external coordinator scans the survivors, plans with
/// [`plan_recovery`], and broadcasts the repair wave; the parked acquire
/// then completes in the regenerated epoch, the survivor scan shows
/// exactly one token (in epoch 1), and the reassembled survivor audit is
/// clean.
#[test]
fn tcp_token_holder_crash_recovers_to_new_epoch() {
    let cluster = member_config(4, 1);
    let addrs = reserve_tcp_addrs(4);
    let mut nodes: Vec<Option<Node>> = (0..4u32)
        .map(|me| {
            Some(
                Node::new(NodeConfig {
                    cluster,
                    socket: SocketConfig::tcp(me, addrs.clone()),
                })
                .expect("bind member"),
            )
        })
        .collect();

    // Pull the token onto member 1 and hold Write there, then park
    // member 2's Write behind it.
    let h1 = nodes[1].as_ref().expect("member 1").handle();
    h1.acquire(LockId(0), Mode::Write).expect("pull token to 1");
    let h2 = nodes[2].as_ref().expect("member 2").handle();
    let parked = {
        let h2 = h2.clone();
        std::thread::spawn(move || h2.acquire(LockId(0), Mode::Write))
    };
    std::thread::sleep(Duration::from_millis(100));

    // Kill the holder mid-conversation; every survivor must suspect it.
    nodes[1].take().expect("member 1").crash();
    let survivors = [0u32, 2, 3];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let all_saw = survivors.iter().all(|&n| {
            nodes[n as usize]
                .as_ref()
                .expect("survivor")
                .suspects()
                .contains(&1)
        });
        if all_saw {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "socket detectors never flagged the dead member"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Coordinator: scan the survivors, plan, broadcast the repair wave —
    // the same three steps the multi-process harness driver performs.
    let rows: Vec<ScanReport> = survivors
        .iter()
        .map(|&n| {
            (
                n,
                nodes[n as usize].as_ref().expect("survivor").scan_locks(),
            )
        })
        .collect();
    let plans = plan_recovery(&rows, 1, &survivors, cluster.locks);
    assert!(!plans.is_empty(), "the dead holder's lock must be planned");
    for &n in &survivors {
        nodes[n as usize]
            .as_ref()
            .expect("survivor")
            .repair(1, &survivors, &plans);
    }

    // The parked acquire is re-issued by its surviving originator and
    // completes against the regenerated token.
    parked
        .join()
        .expect("join parked thread")
        .expect("parked Write completes in the new epoch");
    h2.release(LockId(0)).expect("release recovered Write");
    // Every survivor still serializes Writes through the new tree.
    for &n in &survivors {
        let h = nodes[n as usize].as_ref().expect("survivor").handle();
        h.acquire(LockId(0), Mode::Write)
            .expect("post-recovery Write");
        h.release(LockId(0)).expect("post-recovery release");
    }
    let alive = survivors
        .iter()
        .map(|&n| nodes[n as usize].as_ref().expect("survivor"));
    quiesce_all(alive, Duration::from_secs(30));

    // Exactly one token across the survivors, living in the new epoch.
    let tokens: Vec<(u32, u32, u32)> = survivors
        .iter()
        .flat_map(|&n| {
            nodes[n as usize]
                .as_ref()
                .expect("survivor")
                .scan_locks()
                .into_iter()
                .filter(|&(_, has, _)| has)
                .map(move |(lock, _, epoch)| (n, lock, epoch))
        })
        .collect();
    assert_eq!(
        tokens.len(),
        1,
        "exactly one token after recovery: {tokens:?}"
    );
    assert_eq!(tokens[0].2, 1, "the regenerated token lives in epoch 1");

    let mut all_states: Vec<Vec<(u32, HierNode)>> = vec![Vec::new(); 4];
    for &n in &survivors {
        let report = nodes[n as usize].take().expect("survivor").shutdown();
        assert_eq!(report.workers_died, 0, "member {n} lost a worker");
        assert_eq!(report.replies_dropped, 0, "member {n} dropped a reply");
        all_states[n as usize] = round_trip_states(&report.states, cluster.protocol);
    }
    let errors = audit_surviving_states(cluster.protocol, &all_states, &[1]);
    assert!(errors.is_empty(), "{errors:?}");
}
