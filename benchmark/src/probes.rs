//! Layer probes: unit costs of single layers, measured by driving their
//! public functions directly. `reliable` and `runtime` are private, so
//! their numbers come from differencing configurations instead
//! ([`crate::workloads::cluster`], [`crate::workloads::socket`]).
//!
//! Every probe times batches and reports the median batch, so a probe
//! costs a few milliseconds and one disturbed batch does not decide it.

use crate::load::SplitMix64;
use crate::stats;
use crate::workloads::Round;
use bytes::BytesMut;
use dlm_check::{Canonicalize, Scenario, State, SymmetryGroup};
use dlm_cluster::codec;
use dlm_cluster::shard::{shard_of, ShardGate};
use dlm_core::testkit::LockStepNet;
use dlm_core::{
    CopySet, EffectBuf, HierNode, LockId, Message, Mode, ModeSet, NodeId, NullObserver,
    ProtocolConfig, QueuedRequest,
};
use dlm_modes::{freeze_set, ALL_MODES, REQUEST_MODES};
use dlm_naimi::testkit::NaimiNet;
use dlm_sim::{Actor, Ctx, LatencyModel, Sim, SimConfig};
use dlm_trace::TraceStats;
use dlm_workload::{OpKind, OpPlan, ProtocolKind, WorkloadParams};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] batches of the nanoseconds one call of `f`
/// takes, `per_batch` calls to a batch.
fn ns_per_call(per_batch: u64, mut f: impl FnMut()) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        batches.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    stats::median(&batches).expect("BATCHES > 0")
}

/// `dlm-modes`: one rule-table lookup.
pub fn modes_layer(round: &mut Round) {
    let pairs = (ALL_MODES.len() * REQUEST_MODES.len()) as f64;
    let ns = ns_per_call(2_000, || {
        let mut acc = 0u32;
        for &owned in &ALL_MODES {
            for &req in &REQUEST_MODES {
                // Without the barriers LLVM folds the whole table walk.
                acc += u32::from(black_box(freeze_set(black_box(owned), black_box(req))).bits());
            }
        }
        black_box(acc);
    });
    round.set("modes.table_lookup_ns", ns / pairs);
}

/// `dlm-metrics`: one histogram record.
pub fn metrics_layer(round: &mut Round) {
    let mut h = dlm_metrics::Histogram::new();
    let mut rng = SplitMix64(1);
    let ns = ns_per_call(100_000, || h.record(black_box(rng.next_u64() >> 40)));
    black_box(h.count());
    round.set("metrics.hist_record_ns", ns);
}

/// `dlm-core`: the protocol state machine through its `*_into` entry
/// points and the lock-step test network.
pub fn core_layers(round: &mut Round) {
    // Local admission: the token node admits and releases IR with no
    // message; one call is one acquire or one release.
    let mut node = HierNode::with_token(NodeId(0), ProtocolConfig::paper());
    let mut buf = EffectBuf::new();
    let mut obs = NullObserver;
    let ns = ns_per_call(20_000, || {
        node.on_acquire_into(Mode::IntentRead, 0, &mut buf, &mut obs)
            .expect("token node admits IR");
        black_box(buf.drain().count());
        node.on_release_into(&mut buf, &mut obs)
            .expect("release what was acquired");
        black_box(buf.drain().count());
    });
    round.set("core.local_admit_ns", ns / 2.0);

    // Rule 3.1: node 1 holds R, so its child 2 gets IR from it without the
    // token node hearing of it. One call is a whole acquire + release cycle.
    let mut net = LockStepNet::with_parents(&[None, Some(0), Some(1)], ProtocolConfig::paper());
    net.audit_each_step = false;
    net.acquire(1, Mode::Read);
    net.deliver_all();
    let ns = ns_per_call(5_000, || {
        net.acquire(2, Mode::IntentRead);
        net.deliver_all();
        net.release(2);
        net.deliver_all();
    });
    round.set("core.child_grant_ns", ns);

    // Token transfer: W is compatible with nothing, so alternating writers
    // drag the token across on every acquire. One call is one handoff.
    let mut net = LockStepNet::star(2);
    net.audit_each_step = false;
    let mut steps = 0u64;
    let before = net.messages_sent;
    let ns = ns_per_call(5_000, || {
        for id in [1, 0] {
            net.acquire(id, Mode::Write);
            net.deliver_all();
            net.release(id);
            net.deliver_all();
            steps += 2;
        }
    });
    round.set("core.token_transfer_ns", ns / 2.0);
    // A step is one entry-point call or one delivered message; a call of
    // the closure above makes four entry-point calls.
    let all_steps = steps + (net.messages_sent - before);
    round.set("core.step_ns", ns * (steps / 4) as f64 / all_steps as f64);

    // A 64-entry copyset (spilled representation): remove, re-insert, look
    // up and scan.
    let mut set = CopySet::new();
    for i in 0..64 {
        set.insert(NodeId(i), Mode::IntentRead);
    }
    let mut r = 0u32;
    let ns = ns_per_call(20_000, || {
        let k = NodeId(r % 64);
        r += 1;
        let old = set.remove(&k).expect("key resident");
        set.insert(k, old);
        black_box(set.contains_key(&k));
        black_box(set.iter().map(|(_, m)| m.index() as u64).sum::<u64>());
    });
    round.set("core.copyset_n64_ns", ns);

    // State snapshot: what recovery ships per lock (encode + decode).
    let mut holder = LockStepNet::star(4);
    holder.audit_each_step = false;
    for id in 1..4 {
        holder.acquire(id, Mode::IntentRead);
    }
    holder.deliver_all();
    let state = holder.node(0).clone();
    let mut out = Vec::new();
    let ns = ns_per_call(20_000, || {
        out.clear();
        state.encode_state(&mut out);
        black_box(HierNode::decode_state(&out, ProtocolConfig::paper()));
    });
    round.set("core.state_codec_ns", ns);
}

/// One representative message per wire kind, keyed by send-class label.
fn sample_messages() -> Vec<(&'static str, LockId, Message)> {
    let request = QueuedRequest {
        from: NodeId(2),
        mode: Mode::Read,
        upgrade: false,
        priority: 0,
    };
    vec![
        ("request", LockId::entry(3), Message::Request(request)),
        (
            "grant",
            LockId::TABLE,
            Message::Grant {
                mode: Mode::IntentRead,
            },
        ),
        (
            "token",
            LockId::TABLE,
            Message::Token {
                mode: Mode::Write,
                granter_owned: Mode::IntentRead,
                queue: VecDeque::from(vec![request; 2]),
                frozen: ModeSet::from_modes([Mode::IntentRead, Mode::Read]),
            },
        ),
        (
            "release",
            LockId::entry(1),
            Message::Release {
                new_owned: Mode::NoLock,
                ack: 42,
            },
        ),
        (
            "freeze",
            LockId::TABLE,
            Message::SetFrozen {
                modes: ModeSet::from_modes([Mode::IntentWrite]),
            },
        ),
    ]
}

/// `dlm-cluster::codec` on the workload's own message-kind mix: `mix` is
/// the traced run's send-class tally; each kind's cost is weighted by its
/// share of the messages actually sent.
pub fn codec_layers(round: &mut Round, mix: &TraceStats) {
    let total = mix.sends.total();
    let mut encode = 0.0;
    let mut decode = 0.0;
    let mut bytes = 0.0;
    let mut scratch = BytesMut::new();
    let mut frames = Vec::new();
    for (kind, lock, message) in sample_messages() {
        // With no trace to weigh by, every kind counts the same.
        let weight = if total == 0 {
            0.2
        } else {
            mix.sends.get(kind) as f64 / total as f64
        };
        let frame = codec::encode_corr_into(lock, 7, 1, 0, &message, &mut scratch);
        bytes += weight * frame.len() as f64;
        encode += weight
            * ns_per_call(20_000, || {
                black_box(codec::encode_corr_into(
                    lock,
                    7,
                    1,
                    0,
                    black_box(&message),
                    &mut scratch,
                ));
            });
        decode += weight
            * ns_per_call(20_000, || {
                black_box(codec::decode_corr(black_box(frame.clone())).expect("own frame"));
            });
        frames.push(frame);
    }
    round.set("codec.encode_ns", encode);
    round.set("codec.decode_ns", decode);
    round.set("codec.bytes_per_frame", bytes);
    // A container of one frame per kind: pack and unpack, per inner frame.
    let mut unpacked = Vec::new();
    let ns = ns_per_call(20_000, || {
        let container = codec::encode_container_into(black_box(&frames), &mut scratch);
        unpacked.clear();
        codec::decode_container_into(container, &mut unpacked).expect("own container");
        black_box(unpacked.len());
    });
    round.set("codec.container_ns_per_frame", ns / frames.len() as f64);
}

/// `dlm-cluster::shard`: route a lock id to its shard, and pass the
/// admission gate (admit + leave).
pub fn shard_layers(round: &mut Round, locks: usize, shards: usize) {
    let mut rng = SplitMix64(3);
    let ns = ns_per_call(100_000, || {
        let lock = LockId(rng.below(locks as u64) as u32);
        black_box(shard_of(black_box(lock), shards));
    });
    // The generator runs inside the loop; its cost is the floor.
    let mut rng2 = SplitMix64(3);
    let floor = ns_per_call(100_000, || {
        black_box(LockId(rng2.below(locks as u64) as u32));
    });
    round.set("shard.route_ns", (ns - floor).max(0.0));
    let gate = ShardGate::new(8192);
    let ns = ns_per_call(100_000, || {
        black_box(gate.try_admit(1));
        gate.leave(1);
    });
    round.set("shard.gate_ns", ns);
}

/// A ring of actors that keep a fixed number of messages circulating, so a
/// run costs the engine's schedule/dispatch path and nothing else.
struct Flood {
    me: u32,
    n: u32,
}

impl Actor for Flood {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        for k in 0..4 {
            ctx.send(NodeId((self.me + 1) % self.n), k);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        ctx.send(NodeId((self.me + 1) % self.n), msg + 1);
    }

    fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_, u64>) {}
}

/// The layers only `sim_airline` runs: the engine alone, the planner, the
/// Naimi baseline beside the headline count, plus the core probes.
pub fn sim_layers(round: &mut Round, seed: u64) {
    const EVENTS: u64 = 200_000;
    let ns = ns_per_call(1, || {
        let ring = (0..64).map(|me| Flood { me, n: 64 }).collect();
        let mut sim = Sim::new(
            ring,
            SimConfig {
                latency: LatencyModel::uniform(1_000),
                seed,
                max_events: EVENTS,
                ..SimConfig::default()
            },
        );
        black_box(sim.run());
    });
    round.set("sim.event_ns", ns / EVENTS as f64);

    let mut rng = SplitMix64(seed);
    let ns = ns_per_call(20_000, || {
        let kind = OpKind::ALL[rng.below(5) as usize];
        black_box(OpPlan::expand(
            kind,
            ProtocolKind::Hier,
            rng.below(8) as u32,
            8,
        ));
    });
    round.set("workload.plan_ns", ns);

    // Naimi–Trehel with an equivalent number of requests: the baseline the
    // paper compares msgs_per_request against. It must not move when the
    // hierarchical protocol changes.
    let naimi = dlm_workload::run_workload(&WorkloadParams {
        protocol: ProtocolKind::NaimiPure,
        ops_per_node: 100,
        seed,
        ..WorkloadParams::ibm_sp(crate::workloads::sim_airline::NODES, 10)
    });
    round.set("naimi.msgs_per_request", naimi.messages_per_request());
    let mut net = NaimiNet::star(2);
    let mut steps = 0u64;
    let before = net.messages_sent;
    let ns = ns_per_call(5_000, || {
        for id in [1, 0] {
            net.acquire(id).expect("idle node may acquire");
            net.deliver_all();
            net.release(id).expect("holder may release");
            net.deliver_all();
            steps += 2;
        }
    });
    let all_steps = steps + (net.messages_sent - before);
    round.set("naimi.step_ns", ns * (steps / 4) as f64 / all_steps as f64);

    core_layers(round);
    modes_layer(round);
    metrics_layer(round);
}

/// `dlm-check`: the inner loop of the search on states sampled from the
/// scenario's own reachable set (a breadth-first prefix).
pub fn check_layers(round: &mut Round, scenario: &Scenario, group: &SymmetryGroup) {
    let mut states = vec![State::initial(scenario)];
    let mut i = 0;
    while states.len() < 256 && i < states.len() {
        for action in states[i].enabled_actions(scenario) {
            states.push(states[i].apply(scenario, action).state);
        }
        i += 1;
    }
    let n = states.len() as f64;
    let ns = ns_per_call(4, || {
        for s in &states {
            black_box(s.enabled_actions(scenario));
        }
    });
    round.set("check.enabled_ns", ns / n);
    let actions: Vec<_> = states.iter().map(|s| s.enabled_actions(scenario)).collect();
    let applied: f64 = actions.iter().map(|a| a.len() as f64).sum();
    let ns = ns_per_call(4, || {
        for (s, enabled) in states.iter().zip(&actions) {
            for &action in enabled {
                black_box(s.apply(scenario, action));
            }
        }
    });
    round.set("check.apply_ns", ns / applied);
    let ns = ns_per_call(4, || {
        for s in &states {
            black_box(s.fingerprint());
        }
    });
    round.set("check.plain_fp_ns", ns / n);
    let ns = ns_per_call(4, || {
        for s in &states {
            black_box(s.canonical_fingerprint(group));
        }
    });
    round.set("check.canon_fp_ns", ns / n);
    let ns = ns_per_call(4, || {
        for s in &states {
            for lock in 0..s.locks() as u32 {
                black_box(s.audit_lock(lock, false));
            }
        }
    });
    round.set("check.audit_ns", ns / n);
    modes_layer(round);
}
