//! `dlm-node` — one cluster member as one OS process.
//!
//! Binds this member's socket, joins the cluster, and takes orders on
//! stdin (one command per line), reporting on stdout. The `dlm-harness`
//! driver spawns N of these to run the paper's workloads over real TCP or
//! UDP loopback — see DESIGN.md §16 and the README's "running a real
//! cluster" walkthrough, which drives this protocol by hand.
//!
//! ```text
//! dlm-node --me 0 --addrs 127.0.0.1:4501,127.0.0.1:4502 --locks 9 \
//!          [--shards 1] [--udp <loss>,<seed>]
//! ```
//!
//! Line protocol (every reply flushed):
//!
//! | stdin | stdout |
//! |---|---|
//! | (startup) | `ready` |
//! | `run <entries> <cs_us> <idle_us> <ops> <seed> <scale> <hot>` | `done <ops> <acquires>` |
//! | `churn <ops>` | `done <ops> <acquires>` |
//! | `idle?` | `idle <messages>` or `busy <messages>` |
//! | `acquire <lock> <ir\|iw\|r\|u\|w>` | `ok` (blocks until granted) |
//! | `release <lock>` | `ok` |
//! | `scan` | `locks <lock>:<has_token>:<epoch> …` |
//! | `suspects` | `suspects <id> …` |
//! | `repair <dead> <surv,…> <lock:root:epoch,…\|->` | `ok` (once every worker applied the wave) |
//! | `shutdown` | `lat …`, `state …`×, `link …`×, `exit …`, then exits |
//!
//! The crash commands let the driver choreograph a member-kill recovery:
//! kill one process, poll the survivors' `suspects`, `scan` them, plan
//! centrally ([`dlm_cluster::plan_recovery`]), and broadcast `repair`.

use dlm_cluster::{LockId, Mode, Node, NodeConfig, SocketConfig};
use dlm_harness::sockload::{
    hex_encode, member_cluster_config, run_member_churn, run_member_workload,
};
use dlm_workload::{ProtocolKind, WorkloadParams};
use std::io::{BufRead, Write};
use std::net::SocketAddr;

fn usage() -> ! {
    eprintln!(
        "usage: dlm-node --me <id> --addrs <a:p,a:p,...> --locks <n> \
         [--shards <n>] [--udp <loss>,<seed>]"
    );
    std::process::exit(2);
}

struct Args {
    me: u32,
    addrs: Vec<SocketAddr>,
    locks: usize,
    shards: usize,
    udp: Option<(f64, u64)>,
}

fn parse_args() -> Args {
    let mut me = None;
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut locks = None;
    let mut shards = 1usize;
    let mut udp = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--me" => me = value().parse().ok(),
            "--addrs" => {
                addrs = value()
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--locks" => locks = value().parse().ok(),
            "--shards" => shards = value().parse().unwrap_or_else(|_| usage()),
            "--udp" => {
                let v = value();
                let (loss, seed) = v.split_once(',').unwrap_or_else(|| usage());
                udp = Some((
                    loss.parse().unwrap_or_else(|_| usage()),
                    seed.parse().unwrap_or_else(|_| usage()),
                ));
            }
            _ => usage(),
        }
    }
    let (Some(me), Some(locks)) = (me, locks) else {
        usage()
    };
    if addrs.is_empty() || (me as usize) >= addrs.len() {
        usage();
    }
    Args {
        me,
        addrs,
        locks,
        shards,
        udp,
    }
}

fn main() {
    let args = parse_args();
    let nodes = args.addrs.len();

    // The workload's cluster parameters are fixed by `--locks`/`--shards`;
    // the `run` command re-checks that its workload fits them.
    let mut params = WorkloadParams::linux_cluster(nodes, ProtocolKind::Hier);
    params.entries = (args.locks - 1).max(1) as u32;
    let mut cluster = member_cluster_config(&params);
    cluster.locks = args.locks;
    cluster.shards = args.shards;

    let socket = match args.udp {
        None => SocketConfig::tcp(args.me, args.addrs.clone()),
        Some((loss, seed)) => SocketConfig::udp(args.me, args.addrs.clone(), loss, seed),
    };
    let node = Node::new(NodeConfig { cluster, socket }).unwrap_or_else(|e| {
        eprintln!("dlm-node {}: bind failed: {e}", args.me);
        std::process::exit(1);
    });
    let handle = node.handle();
    let me = node.id();

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let say = |out: &mut std::io::StdoutLock<'_>, line: &str| {
        writeln!(out, "{line}").expect("stdout");
        out.flush().expect("stdout flush");
    };
    say(&mut out, "ready");

    for line in stdin.lock().lines() {
        let line = line.expect("stdin");
        let mut words = line.split_whitespace();
        match words.next() {
            Some("run") => {
                let nums: Vec<u64> = words.map(|w| w.parse().expect("run arg")).collect();
                let [entries, cs_us, idle_us, ops, seed, scale, hot] = nums[..] else {
                    panic!("run wants: entries cs_us idle_us ops seed scale hot");
                };
                assert_eq!(
                    entries as usize + 1,
                    args.locks,
                    "workload table size must match --locks"
                );
                let mut p = WorkloadParams::linux_cluster(nodes, ProtocolKind::Hier);
                p.entries = entries as u32;
                p.cs_mean = cs_us;
                p.idle_mean = idle_us;
                p.ops_per_node = ops as u32;
                p.seed = seed;
                p.hot_entry_percent = hot as u8;
                let outcome = run_member_workload(&handle, me, &p, scale);
                say(
                    &mut out,
                    &format!("done {} {}", outcome.ops_completed, outcome.acquires),
                );
            }
            Some("churn") => {
                let ops: u32 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .expect("churn wants: ops");
                let entries = (args.locks - 1).max(1) as u32;
                let outcome = run_member_churn(&handle, me, entries, ops);
                say(
                    &mut out,
                    &format!("done {} {}", outcome.ops_completed, outcome.acquires),
                );
            }
            Some("idle?") => {
                let state = if node.is_idle() { "idle" } else { "busy" };
                say(&mut out, &format!("{state} {}", node.messages_sent()));
            }
            Some("acquire") => {
                let lock: u32 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .expect("acquire wants: lock mode");
                let mode = match words.next() {
                    Some("ir") => Mode::IntentRead,
                    Some("iw") => Mode::IntentWrite,
                    Some("r") => Mode::Read,
                    Some("u") => Mode::Upgrade,
                    Some("w") => Mode::Write,
                    other => panic!("acquire: bad mode {other:?}"),
                };
                handle.acquire(LockId(lock), mode).expect("acquire");
                say(&mut out, "ok");
            }
            Some("release") => {
                let lock: u32 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .expect("release wants: lock");
                handle.release(LockId(lock)).expect("release");
                say(&mut out, "ok");
            }
            Some("scan") => {
                let body = node
                    .scan_locks()
                    .iter()
                    .map(|(l, has, e)| format!("{l}:{}:{e}", u32::from(*has)))
                    .collect::<Vec<_>>()
                    .join(" ");
                say(&mut out, &format!("locks {body}"));
            }
            Some("suspects") => {
                let body = node
                    .suspects()
                    .iter()
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(" ");
                say(&mut out, &format!("suspects {body}"));
            }
            Some("repair") => {
                let dead: u32 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .expect("repair wants: dead survivors plans");
                let survivors: Vec<u32> = words
                    .next()
                    .expect("repair survivors")
                    .split(',')
                    .map(|w| w.parse().expect("survivor id"))
                    .collect();
                let plans_word = words.next().expect("repair plans");
                let plans: Vec<(u32, u32, u32)> = if plans_word == "-" {
                    Vec::new()
                } else {
                    plans_word
                        .split(',')
                        .map(|p| {
                            let mut it = p.split(':').map(|w| w.parse().expect("plan field"));
                            (
                                it.next().expect("plan lock"),
                                it.next().expect("plan root"),
                                it.next().expect("plan epoch"),
                            )
                        })
                        .collect()
                };
                node.repair(dead, &survivors, &plans);
                say(&mut out, "ok");
            }
            Some("shutdown") => {
                let report = node.shutdown();
                say(
                    &mut out,
                    &format!("lat {}", report.acquire_latency.encode_compact()),
                );
                let mut buf = Vec::new();
                for (lock, state) in &report.states {
                    buf.clear();
                    state.encode_state(&mut buf);
                    say(&mut out, &format!("state {lock} {}", hex_encode(&buf)));
                }
                for l in &report.links {
                    say(
                        &mut out,
                        &format!(
                            "link {} {} {} {} {} {} {} {}",
                            l.from,
                            l.to,
                            l.retransmits,
                            l.dropped,
                            l.wire_bytes,
                            l.resets,
                            l.proto_sent,
                            l.wire_sent
                        ),
                    );
                }
                say(
                    &mut out,
                    &format!(
                        "exit {} {} {}",
                        report.messages_sent, report.decode_errors, report.replies_dropped
                    ),
                );
                return;
            }
            Some(other) => panic!("unknown command: {other}"),
            None => {}
        }
    }
}
