//! A deterministic discrete-event simulator for asynchronous message-passing
//! systems with crash faults, nondeterministic message delays, and message
//! loss.
//!
//! The paper's algorithms (Quorum, Paxos — Section 2.1) are stated for "a
//! system composed of client and server processes which communicate by
//! asynchronous message passing and which may crash at any point". This
//! crate simulates exactly that substrate so the algorithms can be executed,
//! traced at the object interface, and measured in *message delays* (the
//! paper's latency unit): with unit message delay, simulated time counts
//! message hops.
//!
//! Everything is deterministic in the seed: delays and drops are drawn from
//! a seeded RNG, and simultaneous events are ordered by a sequence number.
//!
//! # Example
//!
//! ```
//! use slin_sim::{Context, Process, ProcessId, SimConfig, Simulation};
//!
//! struct Ping { peer: ProcessId }
//! struct Pong;
//!
//! impl Process<&'static str, String> for Ping {
//!     fn on_start(&mut self, ctx: &mut Context<'_, &'static str, String>) {
//!         ctx.send(self.peer, "ping");
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, &'static str, String>,
//!                   _from: ProcessId, msg: &'static str) {
//!         ctx.record(format!("got {msg}"));
//!     }
//! }
//! impl Process<&'static str, String> for Pong {
//!     fn on_message(&mut self, ctx: &mut Context<'_, &'static str, String>,
//!                   from: ProcessId, _msg: &'static str) {
//!         ctx.send(from, "pong");
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! let pong = sim.add_process(Box::new(Pong));
//! sim.add_process(Box::new(Ping { peer: pong }));
//! sim.run();
//! assert_eq!(sim.records(), &["got pong".to_string()]);
//! ```

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a simulated process (dense, assigned by
/// [`Simulation::add_process`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// The numeric value.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pr{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pr{}", self.0)
    }
}

/// Simulated time (abstract units; with unit message delay, one unit is one
/// message hop).
pub type Time = u64;

/// A user-chosen timer tag, echoed back by [`Process::on_timer`].
pub type TimerId = u64;

/// Behaviour of a simulated process.
///
/// `M` is the message type; `E` the type of records appended to the global
/// trace (e.g. the object-interface actions of the traced protocol).
pub trait Process<M, E> {
    /// Called once when the simulation starts (before any delivery).
    fn on_start(&mut self, ctx: &mut Context<'_, M, E>) {
        let _ = ctx;
    }

    /// Called on every delivered message.
    fn on_message(&mut self, ctx: &mut Context<'_, M, E>, from: ProcessId, msg: M);

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M, E>, timer: TimerId) {
        let _ = (ctx, timer);
    }
}

/// The capabilities handed to a process while it handles an event.
pub struct Context<'a, M, E> {
    now: Time,
    outbox: &'a mut Vec<(ProcessId, M)>,
    timers: &'a mut Vec<(Time, TimerId)>,
    records: &'a mut Vec<E>,
    record_times: &'a mut Vec<Time>,
}

impl<'a, M, E> Context<'a, M, E> {
    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends a message to another process (asynchronously; may be delayed or
    /// dropped by the network).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sends a message to every process in `ids`.
    pub fn broadcast<It>(&mut self, ids: It, msg: M)
    where
        M: Clone,
        It: IntoIterator<Item = ProcessId>,
    {
        for to in ids {
            self.send(to, msg.clone());
        }
    }

    /// Schedules [`Process::on_timer`] to fire `delay` time units from now.
    pub fn set_timer(&mut self, delay: Time, timer: TimerId) {
        self.timers.push((delay, timer));
    }

    /// Appends an event to the global trace (in emission order).
    pub fn record(&mut self, event: E) {
        self.records.push(event);
        self.record_times.push(self.now);
    }
}

/// Network and fault configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// RNG seed; equal seeds give identical executions.
    pub seed: u64,
    /// Minimum message delay (inclusive).
    pub min_delay: Time,
    /// Maximum message delay (inclusive).
    pub max_delay: Time,
    /// Probability that a message is silently dropped.
    pub drop_prob: f64,
    /// Safety bound on the number of processed events.
    pub max_steps: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            min_delay: 1,
            max_delay: 1,
            drop_prob: 0.0,
            max_steps: 1_000_000,
        }
    }
}

enum Payload<M> {
    Deliver { from: ProcessId, msg: M },
    Timer(TimerId),
    Crash,
}

struct Event<M> {
    time: Time,
    seq: u64,
    to: ProcessId,
    payload: Payload<M>,
}

/// The discrete-event simulation: processes, a network, a clock, and the
/// recorded trace.
pub struct Simulation<M, E> {
    config: SimConfig,
    processes: Vec<Box<dyn Process<M, E>>>,
    crashed: Vec<bool>,
    queue: BinaryHeap<Reverse<(Time, u64, usize)>>,
    events: Vec<Option<Event<M>>>,
    next_seq: u64,
    now: Time,
    rng: StdRng,
    records: Vec<E>,
    record_times: Vec<Time>,
    steps: usize,
    messages_sent: usize,
}

impl<M, E> Simulation<M, E> {
    /// Creates an empty simulation with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        assert!(
            config.min_delay <= config.max_delay,
            "min_delay > max_delay"
        );
        assert!(
            (0.0..=1.0).contains(&config.drop_prob),
            "drop_prob out of range"
        );
        Simulation {
            config,
            processes: Vec::new(),
            crashed: Vec::new(),
            queue: BinaryHeap::new(),
            events: Vec::new(),
            next_seq: 0,
            now: 0,
            rng: StdRng::seed_from_u64(config.seed),
            records: Vec::new(),
            record_times: Vec::new(),
            steps: 0,
            messages_sent: 0,
        }
    }

    /// Registers a process and returns its identifier.
    pub fn add_process(&mut self, process: Box<dyn Process<M, E>>) -> ProcessId {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(process);
        self.crashed.push(false);
        id
    }

    /// Schedules a crash of `process` at absolute time `at`: from then on it
    /// receives no events and sends nothing.
    pub fn crash_at(&mut self, process: ProcessId, at: Time) {
        let seq = self.bump_seq();
        self.push_event(Event {
            time: at,
            seq,
            to: process,
            payload: Payload::Crash,
        });
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn push_event(&mut self, ev: Event<M>) {
        let idx = self.events.len();
        self.queue.push(Reverse((ev.time, ev.seq, idx)));
        self.events.push(Some(ev));
    }

    /// Dispatches the outbox/timers produced by one handler invocation.
    fn flush(
        &mut self,
        from: ProcessId,
        outbox: Vec<(ProcessId, M)>,
        timers: Vec<(Time, TimerId)>,
    ) {
        for (to, msg) in outbox {
            self.messages_sent += 1;
            if self.config.drop_prob > 0.0 && self.rng.gen_bool(self.config.drop_prob) {
                continue;
            }
            let delay = if self.config.min_delay == self.config.max_delay {
                self.config.min_delay
            } else {
                self.rng
                    .gen_range(self.config.min_delay..=self.config.max_delay)
            };
            let ev = Event {
                time: self.now + delay,
                seq: self.bump_seq(),
                to,
                payload: Payload::Deliver { from, msg },
            };
            self.push_event(ev);
        }
        for (delay, timer) in timers {
            let ev = Event {
                time: self.now + delay,
                seq: self.bump_seq(),
                to: from,
                payload: Payload::Timer(timer),
            };
            self.push_event(ev);
        }
    }

    fn dispatch(&mut self, idx: usize) {
        let Some(ev) = self.events[idx].take() else {
            return;
        };
        let to = ev.to;
        let pid = to.0 as usize;
        if let Payload::Crash = ev.payload {
            self.crashed[pid] = true;
            return;
        }
        if self.crashed[pid] {
            return;
        }
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        {
            let mut ctx = Context {
                now: self.now,
                outbox: &mut outbox,
                timers: &mut timers,
                records: &mut self.records,
                record_times: &mut self.record_times,
            };
            let process = &mut self.processes[pid];
            match ev.payload {
                Payload::Deliver { from, msg } => process.on_message(&mut ctx, from, msg),
                Payload::Timer(timer) => process.on_timer(&mut ctx, timer),
                Payload::Crash => unreachable!("handled above"),
            }
        }
        self.flush(to, outbox, timers);
    }

    /// Runs `on_start` for every process (in identifier order), then
    /// processes events until quiescence or the step bound.
    pub fn run(&mut self) {
        self.start();
        while self.step() {}
    }

    /// Runs only the `on_start` handlers.
    pub fn start(&mut self) {
        for pid in 0..self.processes.len() {
            if self.crashed[pid] {
                continue;
            }
            let mut outbox = Vec::new();
            let mut timers = Vec::new();
            {
                let mut ctx = Context {
                    now: self.now,
                    outbox: &mut outbox,
                    timers: &mut timers,
                    records: &mut self.records,
                    record_times: &mut self.record_times,
                };
                self.processes[pid].on_start(&mut ctx);
            }
            self.flush(ProcessId(pid as u32), outbox, timers);
        }
    }

    /// Processes a single event; returns `false` at quiescence or when the
    /// step bound is reached.
    pub fn step(&mut self) -> bool {
        if self.steps >= self.config.max_steps {
            return false;
        }
        let Some(Reverse((time, _, idx))) = self.queue.pop() else {
            return false;
        };
        self.steps += 1;
        self.now = time;
        self.dispatch(idx);
        true
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The recorded trace events, in emission order.
    pub fn records(&self) -> &[E] {
        &self.records
    }

    /// The simulated time at which each record was emitted (parallel to
    /// [`Simulation::records`]).
    pub fn record_times(&self) -> &[Time] {
        &self.record_times
    }

    /// Consumes the simulation and returns the recorded trace.
    pub fn into_records(self) -> Vec<E> {
        self.records
    }

    /// Number of messages handed to the network (including dropped ones).
    pub fn messages_sent(&self) -> usize {
        self.messages_sent
    }

    /// Number of events processed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

impl<M, E> fmt::Debug for Simulation<M, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("processes", &self.processes.len())
            .field("steps", &self.steps)
            .field("records", &self.records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo server: replies with the received number + 1.
    struct Echo;
    /// Driver: sends 0, records each reply, stops at 3.
    struct Driver {
        peer: ProcessId,
    }

    impl Process<u64, u64> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, from: ProcessId, msg: u64) {
            ctx.send(from, msg + 1);
        }
    }

    impl Process<u64, u64> for Driver {
        fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
            ctx.send(self.peer, 0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _from: ProcessId, msg: u64) {
            ctx.record(msg);
            if msg < 3 {
                ctx.send(self.peer, msg);
            }
        }
    }

    fn build(config: SimConfig) -> Simulation<u64, u64> {
        let mut sim = Simulation::new(config);
        let echo = sim.add_process(Box::new(Echo));
        sim.add_process(Box::new(Driver { peer: echo }));
        sim
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = build(SimConfig::default());
        sim.run();
        assert_eq!(sim.records(), &[1, 2, 3]);
        // Unit delays: each round trip is 2 time units.
        assert_eq!(sim.record_times(), &[2, 4, 6]);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = SimConfig {
            seed: 42,
            min_delay: 1,
            max_delay: 5,
            ..SimConfig::default()
        };
        let mut a = build(cfg);
        a.run();
        let mut b = build(cfg);
        b.run();
        assert_eq!(a.records(), b.records());
        assert_eq!(a.record_times(), b.record_times());
    }

    #[test]
    fn drops_lose_messages() {
        let cfg = SimConfig {
            seed: 7,
            drop_prob: 1.0,
            ..SimConfig::default()
        };
        let mut sim = build(cfg);
        sim.run();
        assert!(sim.records().is_empty());
        assert_eq!(sim.messages_sent(), 1);
    }

    #[test]
    fn crashed_process_is_silent() {
        let mut sim = build(SimConfig::default());
        sim.crash_at(ProcessId(0), 0); // crash the echo server immediately
        sim.run();
        assert!(sim.records().is_empty());
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timed;
        impl Process<(), u64> for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_, (), u64>) {
                ctx.set_timer(10, 1);
                ctx.set_timer(5, 2);
            }
            fn on_message(&mut self, _: &mut Context<'_, (), u64>, _: ProcessId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, (), u64>, timer: TimerId) {
                ctx.record(timer);
            }
        }
        let mut sim: Simulation<(), u64> = Simulation::new(SimConfig::default());
        sim.add_process(Box::new(Timed));
        sim.run();
        assert_eq!(sim.records(), &[2, 1]);
        assert_eq!(sim.record_times(), &[5, 10]);
    }

    #[test]
    fn step_bound_halts_runaway() {
        struct Loopy;
        impl Process<u64, u64> for Loopy {
            fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
                ctx.send(ProcessId(0), 0);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _: ProcessId, m: u64) {
                ctx.send(ProcessId(0), m + 1);
            }
        }
        let cfg = SimConfig {
            max_steps: 100,
            ..SimConfig::default()
        };
        let mut sim: Simulation<u64, u64> = Simulation::new(cfg);
        sim.add_process(Box::new(Loopy));
        sim.run();
        assert_eq!(sim.steps(), 100);
    }
}
