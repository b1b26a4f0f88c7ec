//! The event loop: a total-ordered heap of message deliveries and timers.

use crate::network::{FifoClamp, LatencyModel};
use crate::queue::EventQueue;
use crate::time::Micros;
use dlm_core::NodeId;
use dlm_trace::{NullObserver, Observer, Recorder, Stamp};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

/// A simulated node: reacts to start, messages and timers through a context
/// that can send messages, set timers and draw random numbers.
///
/// Implementations hold the protocol state machines (e.g. one
/// [`dlm_core::HierNode`] per lock) plus application state, and translate
/// protocol effects into `ctx.send(..)` calls.
pub trait Actor {
    /// Message payload exchanged between actors.
    type Msg;

    /// Called once at time zero.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// A message arrived.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// A timer this actor set has fired; `tag` is the value it passed.
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Self::Msg>);
}

/// Per-invocation context handed to actors.
pub struct Ctx<'a, M> {
    now: Micros,
    node: NodeId,
    rng: &'a mut SmallRng,
    outgoing: &'a mut Vec<Outgoing<M>>,
    recorder: Option<&'a Rc<RefCell<dyn Recorder>>>,
}

enum Outgoing<M> {
    Message { to: NodeId, payload: M },
    Timer { delay: Micros, tag: u64 },
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// The acting node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Send `payload` to `to`; it arrives after a sampled network latency.
    pub fn send(&mut self, to: NodeId, payload: M) {
        self.outgoing.push(Outgoing::Message { to, payload });
    }

    /// Fire `on_timer(tag)` on this actor after `delay` microseconds.
    pub fn set_timer(&mut self, delay: Micros, tag: u64) {
        self.outgoing.push(Outgoing::Timer { delay, tag });
    }

    /// Deterministic per-node random stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// True when a trace recorder is attached to the simulation — lets
    /// actors skip building per-event arguments entirely when disabled.
    pub fn tracing(&self) -> bool {
        self.recorder.is_some()
    }

    /// Run `f` with an [`Observer`] stamping events of lock `lock` at the
    /// current virtual time. Without an attached recorder `f` receives the
    /// [`NullObserver`], so the protocol pays only the enabled-branch:
    ///
    /// ```ignore
    /// ctx.observe(lock, |obs| node.on_message_into(from, msg, &mut effects, obs));
    /// ```
    ///
    /// Actors may also emit their own application-scope events through the
    /// same observer (guarded by `obs.enabled()`): the workload's
    /// request-span events (`RequestStart`/`RequestGrant`) ride this path,
    /// which keeps them on the one shared timeline without a second
    /// recorder plumbing.
    pub fn observe<T>(&mut self, lock: u32, f: impl FnOnce(&mut dyn Observer) -> T) -> T {
        match self.recorder {
            Some(rc) => {
                let mut sink = Rc::clone(rc);
                let mut stamp = Stamp {
                    at: self.now,
                    lock,
                    sink: &mut sink,
                };
                f(&mut stamp)
            }
            None => f(&mut NullObserver),
        }
    }
}

/// Two-site (geo-distributed) topology: nodes `0..site_a` form one site,
/// the rest another; messages crossing the boundary use the `wan` latency
/// model instead of the intra-site one.
#[derive(Debug, Clone, Copy)]
pub struct TwoSite {
    /// Number of nodes in the first site.
    pub site_a: usize,
    /// Latency model for cross-site messages.
    pub wan: LatencyModel,
}

impl TwoSite {
    /// True if a `from → to` message crosses the site boundary.
    pub fn crosses(&self, from: NodeId, to: NodeId) -> bool {
        (from.index() < self.site_a) != (to.index() < self.site_a)
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Network latency model (intra-site, when `two_site` is set).
    pub latency: LatencyModel,
    /// Optional geo-distributed topology: cross-site traffic uses its WAN
    /// model (the "geographically distant server farms" of the paper's §1).
    pub two_site: Option<TwoSite>,
    /// Master seed; all per-node streams derive from it.
    pub seed: u64,
    /// Hard stop: events after this virtual time are not processed.
    pub horizon: Micros,
    /// Safety valve on total processed events (0 = unlimited).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::uniform(1_000),
            two_site: None,
            seed: 0xD15C0,
            horizon: Micros::MAX,
            max_events: 0,
        }
    }
}

/// Statistics of a completed run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to actors.
    pub messages_delivered: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Virtual time of the last processed event.
    pub end_time: Micros,
    /// True if the run stopped because the event heap drained.
    pub quiesced: bool,
}

enum Pending<M> {
    Message {
        from: NodeId,
        to: NodeId,
        payload: M,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
}

/// The discrete-event engine.
///
/// Event order is the total order `(arrival_time, sequence_number)`, with the
/// sequence assigned at scheduling time — two runs with the same seed and the
/// same actor logic process identical event sequences.
///
/// Events live in a single `EventQueue` whose heap entries carry the
/// payload inline, so scheduling and dispatch are pure heap operations — no
/// payload side-table on the hot path.
pub struct Sim<A: Actor> {
    actors: Vec<A>,
    queue: EventQueue<Pending<A::Msg>>,
    clock: Micros,
    rngs: Vec<SmallRng>,
    net_rng: SmallRng,
    fifo: FifoClamp,
    config: SimConfig,
    stats: RunStats,
    scratch: Vec<Outgoing<A::Msg>>,
    recorder: Option<Rc<RefCell<dyn Recorder>>>,
}

impl<A: Actor> Sim<A> {
    /// Build a simulation over `actors` (index = node id).
    pub fn new(actors: Vec<A>, config: SimConfig) -> Self {
        let n = actors.len();
        let rngs = (0..n)
            .map(|i| {
                SmallRng::seed_from_u64(
                    config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                )
            })
            .collect();
        Sim {
            actors,
            queue: EventQueue::with_capacity(4 * n + 16),
            clock: 0,
            rngs,
            net_rng: SmallRng::seed_from_u64(config.seed ^ 0xA5A5_5A5A_DEAD_BEEF),
            fifo: FifoClamp::new(n),
            config,
            stats: RunStats::default(),
            scratch: Vec::with_capacity(16),
            recorder: None,
        }
    }

    /// Attach a shared [`Recorder`]: actors reach it through
    /// [`Ctx::observe`], with events stamped at the virtual time of the
    /// invoking event.
    pub fn record_into(&mut self, sink: Rc<RefCell<dyn Recorder>>) {
        self.recorder = Some(sink);
    }

    /// Current virtual time.
    pub fn now(&self) -> Micros {
        self.clock
    }

    /// Immutable access to an actor (for audits and result extraction).
    pub fn actor(&self, id: u32) -> &A {
        &self.actors[id as usize]
    }

    /// All actors.
    pub fn actors(&self) -> &[A] {
        &self.actors
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    fn flush_outgoing(&mut self, from: NodeId) {
        // The scratch buffer is moved out, drained, and handed back so its
        // capacity is reused across every actor invocation of the run.
        let mut outgoing = std::mem::take(&mut self.scratch);
        for out in outgoing.drain(..) {
            match out {
                Outgoing::Message { to, payload } => {
                    self.stats.messages_sent += 1;
                    let model = match &self.config.two_site {
                        Some(sites) if sites.crosses(from, to) => &sites.wan,
                        _ => &self.config.latency,
                    };
                    let latency = model.sample(&mut self.net_rng);
                    let mut arrival = self.clock + latency;
                    if model.fifo {
                        arrival = self.fifo.clamp(from, to, arrival);
                    }
                    self.queue
                        .push(arrival, Pending::Message { from, to, payload });
                }
                Outgoing::Timer { delay, tag } => {
                    self.queue
                        .push(self.clock + delay, Pending::Timer { node: from, tag });
                }
            }
        }
        self.scratch = outgoing;
    }

    fn invoke<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut A, &mut Ctx<'_, A::Msg>),
    {
        debug_assert!(self.scratch.is_empty());
        let mut ctx = Ctx {
            now: self.clock,
            node,
            rng: &mut self.rngs[node.index()],
            outgoing: &mut self.scratch,
            recorder: self.recorder.as_ref(),
        };
        f(&mut self.actors[node.index()], &mut ctx);
        self.flush_outgoing(node);
    }

    /// Start every actor (in id order) at time zero.
    pub fn start(&mut self) {
        for i in 0..self.actors.len() {
            self.invoke(NodeId(i as u32), |a, ctx| a.on_start(ctx));
        }
    }

    /// Process a single event; `false` when the heap is empty or the horizon
    /// or event budget is reached.
    pub fn step(&mut self) -> bool {
        if self.config.max_events > 0
            && self.stats.messages_delivered + self.stats.timers_fired >= self.config.max_events
        {
            return false;
        }
        let Some(at) = self.queue.peek_time() else {
            self.stats.quiesced = true;
            return false;
        };
        if at > self.config.horizon {
            // Leave the event unprocessed; the run is over.
            return false;
        }
        let event = self.queue.pop().expect("peeked event");
        self.clock = at;
        self.stats.end_time = at;
        match event.payload {
            Pending::Message { from, to, payload } => {
                self.stats.messages_delivered += 1;
                self.invoke(to, |a, ctx| a.on_message(from, payload, ctx));
            }
            Pending::Timer { node, tag } => {
                self.stats.timers_fired += 1;
                self.invoke(node, |a, ctx| a.on_timer(tag, ctx));
            }
        }
        true
    }

    /// Start and run to quiescence / horizon / event budget; returns stats.
    pub fn run(&mut self) -> RunStats {
        self.start();
        while self.step() {}
        self.stats.clone()
    }

    /// Consume the simulation, returning the actors for inspection.
    pub fn into_actors(self) -> Vec<A> {
        self.actors
    }

    /// Iterate messages currently in flight as `(from, to, payload)` —
    /// needed by audits that must account for e.g. an in-flight token.
    pub fn in_flight(&self) -> impl Iterator<Item = (NodeId, NodeId, &A::Msg)> {
        self.queue.iter().filter_map(|s| match &s.payload {
            Pending::Message { from, to, payload } => Some((*from, *to, payload)),
            Pending::Timer { .. } => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LatencyModel;

    /// Ping-pong actor: node 0 sends `n` pings; node 1 echoes.
    struct PingPong {
        is_server: bool,
        remaining: u32,
        received: u32,
        fire_times: Vec<Micros>,
    }

    impl Actor for PingPong {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if !self.is_server && self.remaining > 0 {
                ctx.send(NodeId(1), self.remaining);
                self.remaining -= 1;
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.received += 1;
            self.fire_times.push(ctx.now());
            if self.is_server {
                ctx.send(from, msg);
            } else if self.remaining > 0 {
                ctx.send(NodeId(1), self.remaining);
                self.remaining -= 1;
            }
        }

        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_, u32>) {}
    }

    fn pingpong_sim(seed: u64, pings: u32) -> Sim<PingPong> {
        let actors = vec![
            PingPong {
                is_server: false,
                remaining: pings,
                received: 0,
                fire_times: vec![],
            },
            PingPong {
                is_server: true,
                remaining: 0,
                received: 0,
                fire_times: vec![],
            },
        ];
        Sim::new(
            actors,
            SimConfig {
                latency: LatencyModel::uniform(1_000),
                seed,
                ..Default::default()
            },
        )
    }

    #[test]
    fn pingpong_runs_to_quiescence() {
        let mut sim = pingpong_sim(7, 5);
        let stats = sim.run();
        assert!(stats.quiesced);
        assert_eq!(stats.messages_sent, 10);
        assert_eq!(stats.messages_delivered, 10);
        assert_eq!(sim.actor(0).received, 5);
        assert_eq!(sim.actor(1).received, 5);
        assert!(stats.end_time >= 10 * 500, "at least 10 half-RTTs");
    }

    #[test]
    fn same_seed_same_trace() {
        let mut a = pingpong_sim(99, 20);
        let mut b = pingpong_sim(99, 20);
        a.run();
        b.run();
        assert_eq!(a.actor(1).fire_times, b.actor(1).fire_times);
        assert_eq!(a.stats().end_time, b.stats().end_time);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = pingpong_sim(1, 20);
        let mut b = pingpong_sim(2, 20);
        a.run();
        b.run();
        assert_ne!(
            a.actor(1).fire_times,
            b.actor(1).fire_times,
            "distinct seeds should draw distinct latencies"
        );
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut sim = pingpong_sim(7, 1000);
        sim.config.horizon = 50_000;
        let stats = sim.run();
        assert!(!stats.quiesced);
        assert!(stats.end_time <= 50_000);
    }

    #[test]
    fn max_events_budget_stops_the_run() {
        let mut sim = pingpong_sim(3, 1000);
        sim.config.max_events = 7;
        let stats = sim.run();
        assert!(!stats.quiesced);
        assert_eq!(stats.messages_delivered + stats.timers_fired, 7);
    }

    #[test]
    fn in_flight_reports_pending_messages() {
        let mut sim = pingpong_sim(3, 4);
        sim.start();
        // The first ping is scheduled but not delivered.
        assert_eq!(sim.in_flight().count(), 1);
        let (from, to, &payload) = sim.in_flight().next().unwrap();
        assert_eq!((from, to, payload), (NodeId(0), NodeId(1), 4));
        sim.step();
        // Delivered; the echo is now in flight.
        assert_eq!(sim.in_flight().count(), 1);
    }

    #[test]
    fn two_site_wan_latency_applies_to_cross_site_traffic() {
        // Node 0 (site A) pings node 1 (site B): WAN latency. With a flat
        // config the same exchange is fast.
        let mk = |two_site| {
            let actors = vec![
                PingPong {
                    is_server: false,
                    remaining: 1,
                    received: 0,
                    fire_times: vec![],
                },
                PingPong {
                    is_server: true,
                    remaining: 0,
                    received: 0,
                    fire_times: vec![],
                },
            ];
            Sim::new(
                actors,
                SimConfig {
                    latency: LatencyModel::fixed(100),
                    two_site,
                    seed: 5,
                    ..Default::default()
                },
            )
        };
        let mut flat = mk(None);
        flat.run();
        assert_eq!(flat.stats().end_time, 200, "two 100 µs hops");

        let mut geo = mk(Some(TwoSite {
            site_a: 1,
            wan: LatencyModel::fixed(10_000),
        }));
        geo.run();
        assert_eq!(geo.stats().end_time, 20_000, "two 10 ms WAN hops");
    }

    #[test]
    fn two_site_crossing_predicate() {
        let sites = TwoSite {
            site_a: 2,
            wan: LatencyModel::fixed(1),
        };
        assert!(sites.crosses(NodeId(0), NodeId(2)));
        assert!(sites.crosses(NodeId(3), NodeId(1)));
        assert!(!sites.crosses(NodeId(0), NodeId(1)));
        assert!(!sites.crosses(NodeId(2), NodeId(3)));
    }

    /// Timer actor: schedules a chain of timers and records firing times.
    struct Chain {
        fired: Vec<(u64, Micros)>,
    }

    impl Actor for Chain {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(10, 1);
            ctx.set_timer(5, 2);
        }

        fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}

        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, ()>) {
            self.fired.push((tag, ctx.now()));
            if tag == 2 {
                ctx.set_timer(100, 3);
            }
        }
    }

    #[test]
    fn timers_fire_in_time_order() {
        let mut sim = Sim::new(vec![Chain { fired: vec![] }], SimConfig::default());
        let stats = sim.run();
        assert_eq!(stats.timers_fired, 3);
        assert_eq!(sim.actor(0).fired, vec![(2, 5), (1, 10), (3, 105)]);
    }
}
