//! `dlm-harness` — the multi-process cluster driver: spawns one `dlm-node`
//! process per member on loopback sockets, drives the paper's workloads
//! through them, waits for global quiescence, shuts every member down,
//! and audits the reassembled cross-process state.
//!
//! Re-measures the evaluation end to end **over a real wire**: the
//! Figure 7/8 Linux-cluster workload, the Figure 9/10 IBM-SP workloads
//! (idle:CS ratios 25 and 1), and the shard-churn partitioned workload,
//! all over TCP (or UDP with `--udp <loss>`). Think times are compressed
//! by `--scale` (default 100) so the full suite runs in seconds; the
//! think-to-CS ratio — what the figures vary — is preserved.
//!
//! ```text
//! dlm-harness [--nodes 4] [--scale 100] [--shards 1] [--udp <loss>]
//!             [--out results] [--smoke] [--crash-smoke <seed>]
//! ```
//!
//! `--smoke` runs a bounded 3-process TCP sanity check (tiny workload,
//! hard deadline, non-zero exit on any audit error) for CI.
//! `--crash-smoke <seed>` runs the bounded crash-recovery check: a
//! 3-process TCP cluster, a seed-chosen member holding the table token is
//! SIGKILLed, the survivors' failure detectors must flag it, the driver
//! choreographs the scan/plan/repair wave, and the run fails unless Write
//! service resumes with exactly one token in the new epoch and a clean
//! survivor audit.

use dlm_cluster::{audit_process_states, audit_surviving_states, plan_recovery, ScanReport};
use dlm_core::{HierNode, ProtocolConfig};
use dlm_harness::sockload::{await_quiescence, hex_decode, poll_until};
use dlm_metrics::Histogram;
use dlm_workload::{ProtocolKind, WorkloadParams};
use std::io::Write as _;
use std::net::{TcpListener, UdpSocket};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

struct Args {
    nodes: usize,
    scale: u64,
    shards: usize,
    udp: Option<f64>,
    out: String,
    smoke: bool,
    crash_smoke: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: 4,
        scale: 100,
        shards: 1,
        udp: None,
        out: "results".into(),
        smoke: false,
        crash_smoke: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().expect("flag value");
        match flag.as_str() {
            "--nodes" => args.nodes = value().parse().expect("--nodes"),
            "--scale" => args.scale = value().parse().expect("--scale"),
            "--shards" => args.shards = value().parse().expect("--shards"),
            "--udp" => args.udp = Some(value().parse().expect("--udp")),
            "--out" => args.out = value(),
            "--smoke" => args.smoke = true,
            "--crash-smoke" => args.crash_smoke = Some(value().parse().expect("--crash-smoke")),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    assert!(args.nodes >= 2, "a cluster needs at least two members");
    args
}

/// One spawned `dlm-node` with a line-oriented reader thread, so every
/// read is deadline-bounded (a hung member must not hang the driver).
struct Member {
    child: Child,
    stdin: ChildStdin,
    lines: crossbeam::channel::Receiver<String>,
}

struct Cluster {
    members: Vec<Member>,
    deadline: Instant,
}

impl Cluster {
    /// Reserve loopback ports, spawn one `dlm-node` per member, and wait
    /// for every member's `ready`; every later read must land within
    /// `budget`.
    fn spawn(nodes: usize, locks: usize, args: &Args, budget: Duration) -> Cluster {
        let addrs: Vec<String> = (0..nodes)
            .map(|_| match args.udp {
                Some(_) => UdpSocket::bind("127.0.0.1:0").and_then(|s| s.local_addr()),
                None => TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()),
            })
            .map(|addr| addr.map(|a| a.to_string()))
            .collect::<Result<_, _>>()
            .expect("reserve loopback port");
        let addr_list = addrs.join(",");
        let exe = std::env::current_exe()
            .expect("current exe")
            .parent()
            .expect("exe dir")
            .join("dlm-node");
        let members = (0..nodes)
            .map(|me| {
                let mut cmd = Command::new(&exe);
                cmd.args(["--me", &me.to_string(), "--addrs", &addr_list])
                    .args([
                        "--locks",
                        &locks.to_string(),
                        "--shards",
                        &args.shards.to_string(),
                    ])
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped());
                if let Some(loss) = args.udp {
                    cmd.arg("--udp")
                        .arg(format!("{loss},{}", 0x5EED + me as u64));
                }
                let mut child = cmd.spawn().unwrap_or_else(|e| {
                    panic!(
                        "spawn {}: {e} (build the dlm-node binary first)",
                        exe.display()
                    )
                });
                let stdin = child.stdin.take().expect("child stdin");
                let stdout = child.stdout.take().expect("child stdout");
                let (tx, lines) = crossbeam::channel::unbounded();
                std::thread::spawn(move || {
                    let lines = std::io::BufRead::lines(std::io::BufReader::new(stdout));
                    let _ = lines
                        .map_while(Result::ok)
                        .try_for_each(|line| tx.send(line));
                });
                Member {
                    child,
                    stdin,
                    lines,
                }
            })
            .collect();
        let deadline = Instant::now() + budget;
        let mut cluster = Cluster { members, deadline };
        for me in 0..nodes {
            cluster.reply(me, |line| expect(line, "ready"));
        }
        cluster
    }

    fn send(&mut self, me: usize, command: &str) {
        if writeln!(self.members[me].stdin, "{command}").is_err() {
            self.fail(&format!("member {me}: stdin closed"));
        }
    }

    fn recv(&mut self, me: usize) -> String {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        match self.members[me].lines.recv_timeout(remaining) {
            Ok(line) => line,
            Err(_) => self.fail(&format!("member {me}: no output before the deadline")),
        }
    }

    /// Read member `me`'s next line through `read`; a line it rejects
    /// fails the run.
    fn reply<T>(&mut self, me: usize, read: impl FnOnce(&str) -> Result<T, String>) -> T {
        let line = self.recv(me);
        read(&line).unwrap_or_else(|e| self.fail(&format!("member {me}: {e}")))
    }

    /// Send `command` to member `me` and require an `ok`.
    fn ok(&mut self, me: usize, command: &str) {
        self.send(me, command);
        self.reply(me, |line| {
            expect(line, "ok").map_err(|e| format!("{command}: {e}"))
        });
    }

    /// Poll `members` with `idle?` until global quiescence
    /// ([`await_quiescence`]), or fail at the deadline.
    fn quiesce(&mut self, members: &[usize]) {
        let deadline = self.deadline;
        let poll = || {
            let (mut all_idle, mut sum) = (true, 0);
            for &me in members {
                self.send(me, "idle?");
                let (idle, sent) = self.reply(me, read_idle);
                all_idle &= idle;
                sum += sent;
            }
            (all_idle, sum)
        };
        if !await_quiescence(poll, deadline) {
            self.fail(&format!("{members:?} never reached global quiescence"));
        }
    }

    /// Member `me`'s `(lock, has_token, epoch)` rows.
    fn scan(&mut self, me: usize) -> Vec<(u32, bool, u32)> {
        self.send(me, "scan");
        self.reply(me, read_scan)
    }

    /// Shut `members` down, fold each one's reply stream, and reap every
    /// child process.
    fn shutdown(&mut self, members: &[usize], protocol: ProtocolConfig) -> Shutdown {
        let mut out = Shutdown {
            states: vec![Vec::new(); self.len()],
            ..Shutdown::default()
        };
        for &me in members {
            self.send(me, "shutdown");
            while !self.reply(me, |line| out.read(me, line, protocol)) {}
        }
        for m in &mut self.members {
            let _ = m.child.wait();
        }
        out
    }

    /// Kill every member and abort: the bounded-deadline escape hatch.
    fn fail(&mut self, message: &str) -> ! {
        for m in &mut self.members {
            let _ = m.child.kill();
        }
        eprintln!("dlm-harness: {message}");
        std::process::exit(1);
    }

    fn len(&self) -> usize {
        self.members.len()
    }
}

/// A reply that must be exactly `want`.
fn expect(line: &str, want: &str) -> Result<(), String> {
    if line == want {
        Ok(())
    } else {
        Err(format!("expected {want}, got {line:?}"))
    }
}

/// The `N` numbers after `tag` in a member reply (`done 5 10`).
fn numbers<const N: usize>(line: &str, tag: &str) -> Result<[u64; N], String> {
    let bad = || format!("expected `{tag}` and {N} numbers, got {line:?}");
    let mut words = line.split_whitespace();
    if words.next() != Some(tag) {
        return Err(bad());
    }
    let nums: Result<Vec<u64>, _> = words.map(str::parse).collect();
    nums.ok().and_then(|n| n.try_into().ok()).ok_or_else(bad)
}

/// An `idle?` reply: `idle <messages>` or `busy <messages>`.
fn read_idle(line: &str) -> Result<(bool, u64), String> {
    match numbers::<1>(line, "idle") {
        Ok([sent]) => Ok((true, sent)),
        Err(_) => numbers::<1>(line, "busy").map(|[sent]| (false, sent)),
    }
}

/// A `scan` reply: `locks <lock>:<has_token>:<epoch> …`.
fn read_scan(line: &str) -> Result<Vec<(u32, bool, u32)>, String> {
    let bad = || format!("expected `locks` rows, got {line:?}");
    let body = line.strip_prefix("locks").ok_or_else(bad)?;
    body.split_whitespace()
        .map(|row| {
            let fields: Result<Vec<u32>, _> = row.split(':').map(str::parse).collect();
            match fields.map_err(|_| bad())?[..] {
                [lock, has, epoch] => Ok((lock, has != 0, epoch)),
                _ => Err(bad()),
            }
        })
        .collect()
}

/// Everything the members' `shutdown` replies carry, summed over members.
#[derive(Default)]
struct Shutdown {
    latency: Histogram,
    /// Final lock states, indexed by member (empty for one not shut down).
    states: Vec<Vec<(u32, HierNode)>>,
    retransmits: u64,
    dropped: u64,
    wire_bytes: u64,
    resets: u64,
    messages: u64,
    decode_errors: u64,
    replies_dropped: u64,
}

impl Shutdown {
    /// Fold one line of member `me`'s `shutdown` reply stream; true once
    /// its closing `exit` line is read.
    fn read(&mut self, me: usize, line: &str, protocol: ProtocolConfig) -> Result<bool, String> {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("lat") => {
                let h = Histogram::decode_compact(words.next().unwrap_or(""))
                    .map_err(|e| format!("bad histogram ({e}) in {line:?}"))?;
                self.latency.merge(&h);
            }
            Some("state") => {
                let lock = words.next().and_then(|w| w.parse().ok());
                let node = words
                    .next()
                    .and_then(hex_decode)
                    .and_then(|bytes| HierNode::decode_state(&bytes, protocol));
                let (Some(lock), Some(node)) = (lock, node) else {
                    return Err(format!("undecodable state {line:?}"));
                };
                self.states[me].push((lock, node));
            }
            Some("link") => {
                // from to retransmits dropped wire_bytes resets proto wire
                let [_, _, retransmits, dropped, wire_bytes, resets, _, _] =
                    numbers::<8>(line, "link")?;
                self.retransmits += retransmits;
                self.dropped += dropped;
                self.wire_bytes += wire_bytes;
                self.resets += resets;
            }
            Some("exit") => {
                let [messages, decode_errors, replies_dropped] = numbers::<3>(line, "exit")?;
                self.messages += messages;
                self.decode_errors += decode_errors;
                self.replies_dropped += replies_dropped;
                return Ok(true);
            }
            _ => return Err(format!("unexpected line {line:?}")),
        }
        Ok(false)
    }
}

/// Everything one workload run produced, cluster-wide.
struct RunStats {
    wall: Duration,
    ops: u64,
    acquires: u64,
    totals: Shutdown,
    audit_errors: usize,
}

/// Drive one already-spawned cluster through one workload command, then
/// quiesce, shut down, and audit.
fn drive(mut cluster: Cluster, command: &str, protocol: ProtocolConfig) -> RunStats {
    let all: Vec<usize> = (0..cluster.len()).collect();
    let start = Instant::now();
    for &me in &all {
        cluster.send(me, command);
    }
    let (mut ops, mut acquires) = (0, 0);
    for &me in &all {
        let [done_ops, done_acquires] = cluster.reply(me, |line| numbers(line, "done"));
        ops += done_ops;
        acquires += done_acquires;
    }
    let wall = start.elapsed();

    cluster.quiesce(&all);
    let mut totals = cluster.shutdown(&all, protocol);
    // Link counters are double-observed (each endpoint reports its side);
    // wire totals were summed over both, so halve the symmetric ones.
    totals.wire_bytes /= 2;
    let errors = audit_process_states(protocol, &totals.states);
    if !errors.is_empty() {
        eprintln!("audit errors: {errors:?}");
    }
    RunStats {
        wall,
        ops,
        acquires,
        totals,
        audit_errors: errors.len(),
    }
}

/// Run the §4 workload `params` on a fresh cluster.
fn run_workload(p: &WorkloadParams, args: &Args, budget: Duration) -> RunStats {
    let cluster = Cluster::spawn(p.nodes, p.lock_count(), args, budget);
    let command = format!(
        "run {} {} {} {} {} {} {}",
        p.entries, p.cs_mean, p.idle_mean, p.ops_per_node, p.seed, args.scale, p.hot_entry_percent
    );
    drive(cluster, &command, p.hier_config)
}

/// The `--crash-smoke` run: SIGKILL a token-holding member of a 3-process
/// TCP cluster and drive the recovery protocol end to end from the
/// outside, exactly as an operator (or supervisor) would: poll the
/// survivors' failure detectors, scan, plan centrally, broadcast the
/// repair wave, and verify restored service plus a clean reassembled
/// audit. Exits non-zero on any failure.
fn crash_smoke(seed: u64, args: &Args) {
    let nodes = 3usize;
    let locks = 1usize;
    let protocol = ProtocolConfig::paper();
    // Seeded victim among the non-zero members; it pulls the table token
    // with a held Write so its death forces R2 token regeneration.
    let victim = 1 + (seed % (nodes as u64 - 1)) as usize;
    let survivors: Vec<u32> = (0..nodes as u32).filter(|&n| n != victim as u32).collect();
    let members: Vec<usize> = survivors.iter().map(|&s| s as usize).collect();
    let surv_csv = survivors
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",");

    let mut cluster = Cluster::spawn(nodes, locks, args, Duration::from_secs(60));
    cluster.ok(victim, "acquire 0 w");

    let killed_at = Instant::now();
    let _ = cluster.members[victim].child.kill();
    let _ = cluster.members[victim].child.wait();

    // Failure detection: every survivor's socket detector must flag the
    // victim (its connections died with the process).
    let (deadline, victim_id) = (cluster.deadline, victim.to_string());
    let suspected = poll_until(deadline, || {
        members.iter().all(|&s| {
            cluster.send(s, "suspects");
            cluster
                .recv(s)
                .split_whitespace()
                .skip(1)
                .any(|w| w == victim_id)
        })
    });
    if !suspected {
        cluster.fail("survivors never suspected the killed member");
    }

    // Scan → plan → repair: the driver is the recovery coordinator.
    let rows: Vec<ScanReport> = survivors
        .iter()
        .map(|&s| (s, cluster.scan(s as usize)))
        .collect();
    let plans = plan_recovery(&rows, victim as u32, &survivors, locks);
    if plans.is_empty() {
        cluster.fail("the dead holder's lock was not planned for repair");
    }
    let plans_csv = plans
        .iter()
        .map(|(l, r, e)| format!("{l}:{r}:{e}"))
        .collect::<Vec<_>>()
        .join(",");
    for &s in &members {
        cluster.ok(s, &format!("repair {victim} {surv_csv} {plans_csv}"));
    }

    // Restored service: every survivor write-cycles the repaired lock.
    for &s in &members {
        cluster.ok(s, "acquire 0 w");
        cluster.ok(s, "release 0");
    }
    let recovery_ms = killed_at.elapsed().as_millis();

    // Exactly one token across the survivors, in the regenerated epoch.
    let mut tokens: Vec<(usize, u32, u32)> = Vec::new();
    for &s in &members {
        for (lock, has, epoch) in cluster.scan(s) {
            if has {
                tokens.push((s, lock, epoch));
            }
        }
    }
    if tokens.len() != 1 || tokens[0].2 < 1 {
        cluster.fail(&format!("expected one token in epoch >= 1, got {tokens:?}"));
    }

    // Global quiescence over the survivors, then shutdown + audit.
    cluster.quiesce(&members);
    let totals = cluster.shutdown(&members, protocol);
    let errors = audit_surviving_states(protocol, &totals.states, &[victim as u32]);
    assert!(errors.is_empty(), "crash-smoke audit: {errors:?}");
    assert_eq!(totals.decode_errors, 0, "crash-smoke saw malformed frames");
    assert_eq!(totals.replies_dropped, 0, "crash-smoke dropped a reply");
    println!(
        "crash-smoke ok: seed {seed} killed member {victim}, {} survivors recovered \
         to epoch {} in {recovery_ms} ms (one token at member {})",
        survivors.len(),
        tokens[0].2,
        tokens[0].0
    );
}

fn main() {
    let args = parse_args();

    if let Some(seed) = args.crash_smoke {
        crash_smoke(seed, &args);
        return;
    }
    if args.smoke {
        // CI sanity check: 3 processes, tiny Figure-7 workload, hard
        // deadline, loud non-zero exit on any audit or decode error.
        let mut params = WorkloadParams::linux_cluster(3, ProtocolKind::Hier);
        params.ops_per_node = 5;
        let stats = run_workload(&params, &args, Duration::from_secs(60));
        assert_eq!(stats.audit_errors, 0, "smoke audit failed");
        assert_eq!(stats.totals.decode_errors, 0, "smoke saw malformed frames");
        assert_eq!(stats.ops, 3 * 5);
        println!(
            "smoke ok: {} ops, {} msgs, {} wire bytes over 3 processes in {:?}",
            stats.ops, stats.totals.messages, stats.totals.wire_bytes, stats.wall
        );
        return;
    }

    let nodes = args.nodes;
    let budget = Duration::from_secs(120);
    let wire = if args.udp.is_some() { "udp" } else { "tcp" };
    // Figures 7 and 8 share the §4.1 Linux-cluster workload: one run, two
    // readings (latency and messages-per-request). Figures 9 and 10: the
    // §4.2 IBM-SP workload at idle:CS ratios 25 and 1.
    let fig7 = WorkloadParams::linux_cluster(nodes, ProtocolKind::Hier);
    let (fig9, fig10) = (
        WorkloadParams::ibm_sp(nodes, 25),
        WorkloadParams::ibm_sp(nodes, 1),
    );
    let mut rows = Vec::new();
    for (name, params) in [("fig7", fig7), ("fig9", fig9), ("fig10", fig10)] {
        rows.push((
            format!("{name}_{wire}"),
            run_workload(&params, &args, budget),
        ));
    }
    // Shard churn: each member hammers its own entry lock (locks = one
    // entry per member + the table), measuring the partitioned fast path.
    let churn = Cluster::spawn(nodes, nodes + 1, &args, budget);
    let churn_stats = drive(churn, "churn 500", ProtocolConfig::paper());
    rows.push((format!("shard_churn_{wire}"), churn_stats));

    let mut tsv = String::from(
        "figure\tnodes\tops\tacquires\tmessages\tmsgs_per_acquire\tlat_p50_us\tlat_p95_us\tlat_mean_us\twall_ms\twire_bytes\tretransmits\tdropped\tresets\taudit_errors\n",
    );
    for (name, s) in &rows {
        let t = &s.totals;
        tsv += &format!(
            "{}\t{}\t{}\t{}\t{}\t{:.3}\t{}\t{}\t{:.1}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            name,
            nodes,
            s.ops,
            s.acquires,
            t.messages,
            t.messages as f64 / s.acquires.max(1) as f64,
            t.latency.quantile(0.50),
            t.latency.quantile(0.95),
            t.latency.mean(),
            s.wall.as_millis(),
            t.wire_bytes,
            t.retransmits,
            t.dropped,
            t.resets,
            s.audit_errors
        );
    }
    println!(
        "socket cluster figures — {nodes} processes over {wire} loopback, think times ÷{}",
        args.scale
    );
    print!("{tsv}");
    std::fs::create_dir_all(&args.out).expect("results dir");
    let path = std::path::Path::new(&args.out).join(format!("socket_figures_{wire}.tsv"));
    std::fs::write(&path, tsv).expect("write tsv");
    println!("wrote {}", path.display());

    let failed: Vec<&str> = rows
        .iter()
        .filter(|(_, s)| s.audit_errors > 0 || s.totals.decode_errors > 0)
        .map(|(name, _)| name.as_str())
        .collect();
    if !failed.is_empty() {
        eprintln!("failed figures: {failed:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlm_core::NodeId;
    use dlm_harness::sockload::hex_encode;

    /// Fold a `shutdown` reply stream from member 0; true once `exit` is read.
    fn read_stream(lines: &[&str]) -> Result<(Shutdown, bool), String> {
        let mut out = Shutdown {
            states: vec![Vec::new()],
            ..Shutdown::default()
        };
        let mut done = false;
        for line in lines {
            done = out.read(0, line, ProtocolConfig::paper())?;
        }
        Ok((out, done))
    }

    #[test]
    fn well_formed_replies_are_read() {
        assert_eq!(numbers(" done 5 10", "done"), Ok([5, 10]));
        assert_eq!(read_idle("busy 7"), Ok((false, 7)));
        let rows = read_scan("locks 0:1:2 3:0:0");
        assert_eq!(rows, Ok(vec![(0, true, 2), (3, false, 0)]));
        let mut state = Vec::new();
        HierNode::new(NodeId(0), NodeId(0), ProtocolConfig::paper()).encode_state(&mut state);
        let lat = format!("lat {}", Histogram::new().encode_compact());
        let state = format!("state 2 {}", hex_encode(&state));
        let lines = [&lat, &state, "link 0 1 2 3 4 5 6 7", "exit 9 1 0"];
        let (out, done) = read_stream(&lines).unwrap();
        assert!(done, "exit closes the stream");
        assert_eq!(
            (out.states[0].len(), out.states[0][0].0),
            (1, 2),
            "one state, lock 2"
        );
        assert_eq!((out.retransmits, out.dropped, out.wire_bytes), (2, 3, 4));
        assert_eq!((out.resets, out.messages, out.decode_errors), (5, 9, 1));
    }

    #[test]
    fn short_or_non_numeric_replies_are_errors_naming_the_line() {
        let short = numbers::<2>("done 5", "done").unwrap_err();
        assert!(short.contains("\"done 5\""), "{short}");
        assert!(numbers::<2>("done 5 x", "done").is_err());
        for bad in [
            "link 0 1 2",
            "exit 9",
            "exit 9 x 0",
            "state 2",
            "lat 1;2",
            "link 0 1 2 3 four 5 6 7",
        ] {
            assert!(read_stream(&[bad]).err().unwrap().contains(bad), "{bad}");
        }
        assert!(read_idle("idle many").is_err());
        assert!(read_scan("locks 0:1").is_err());
        assert!(read_scan("locks 0:yes:0").is_err());
    }
}
