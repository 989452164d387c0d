//! Single-decree Paxos, client (proposer/learner) side.
//!
//! The Backup phase of Section 2.1: "Lamport's Paxos algorithm where clients
//! have the role of proposers and learners, while servers have the role of
//! acceptors. Backup treats the switch calls from Quorum as regular
//! proposals."
//!
//! The proposer runs the classic two phases with unique ballots
//! (round, client):
//!
//! 1. broadcast `Prepare(b)`; on a majority of promises, propose the value
//!    accepted at the highest ballot (or its own if none);
//! 2. broadcast `Accept2a(b, v)`; on a majority of accepts, **decide `v`**.
//!
//! Rejections and timeouts restart with a strictly higher ballot; the
//! embedding client adds per-client backoff to damp duels. Safety is
//! Paxos's: a value chosen at some ballot is adopted by every higher-ballot
//! phase 1, so decisions never diverge (tolerates any minority of acceptor
//! crashes).

use crate::msg::{Ballot, Msg};
use slin_adt::consensus::Value;
use slin_sim::{Context, ProcessId};
use std::collections::{HashMap, HashSet};

/// What the embedding client must do after feeding an event to the
/// proposer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaxosStep {
    /// Keep waiting.
    Continue,
    /// The value was chosen and learned: respond to the application.
    Decide(Value),
    /// The ballot was rejected: back off, then call
    /// [`PaxosProposer::retry`].
    Backoff,
}

#[derive(Debug, Clone)]
enum Round {
    /// Waiting for phase-1b promises.
    Prepare {
        promises: HashMap<ProcessId, Option<(Ballot, Value)>>,
    },
    /// Waiting for phase-2b accepts of `value`.
    Accept {
        value: Value,
        acks: HashSet<ProcessId>,
    },
}

/// Client-side state of a Paxos proposer/learner.
#[derive(Debug, Clone)]
pub struct PaxosProposer {
    ballot: Ballot,
    proposal: Value,
    servers: Vec<ProcessId>,
    round: Round,
    highest_rejection: Option<Ballot>,
    rounds_started: u32,
}

impl PaxosProposer {
    /// Creates a proposer for `client_index` proposing `proposal` to the
    /// acceptors `servers`.
    pub fn new(client_index: u32, proposal: Value, servers: Vec<ProcessId>) -> Self {
        assert!(!servers.is_empty(), "at least one acceptor");
        PaxosProposer {
            ballot: Ballot::first(client_index),
            proposal,
            servers,
            round: Round::Prepare {
                promises: HashMap::new(),
            },
            highest_rejection: None,
            rounds_started: 1,
        }
    }

    /// The majority threshold.
    fn majority(&self) -> usize {
        self.servers.len() / 2 + 1
    }

    /// The current ballot.
    pub fn ballot(&self) -> Ballot {
        self.ballot
    }

    /// How many ballots this proposer has started.
    pub(crate) fn rounds_started(&self) -> u32 {
        self.rounds_started
    }

    /// Broadcasts the phase-1a prepare for the current ballot.
    pub fn begin<E>(&self, ctx: &mut Context<'_, Msg, E>) {
        ctx.broadcast(
            self.servers.iter().copied(),
            Msg::Prepare {
                ballot: self.ballot,
            },
        );
    }

    /// Starts a fresh round with a ballot above everything seen.
    pub fn retry<E>(&mut self, ctx: &mut Context<'_, Msg, E>) {
        let floor = self.highest_rejection.unwrap_or(self.ballot);
        self.ballot = self.ballot.above(floor);
        self.round = Round::Prepare {
            promises: HashMap::new(),
        };
        self.rounds_started += 1;
        self.begin(ctx);
    }

    /// Feeds a message from an acceptor.
    pub fn on_message<E>(
        &mut self,
        ctx: &mut Context<'_, Msg, E>,
        from: ProcessId,
        msg: Msg,
    ) -> PaxosStep {
        match msg {
            Msg::Promise { ballot, accepted } if ballot == self.ballot => {
                let majority = self.majority();
                if let Round::Prepare { promises } = &mut self.round {
                    promises.insert(from, accepted);
                    if promises.len() >= majority {
                        // Adopt the value accepted at the highest ballot, if
                        // any — the heart of Paxos safety.
                        let adopted = promises
                            .values()
                            .flatten()
                            .max_by_key(|(b, _)| *b)
                            .map(|(_, v)| *v)
                            .unwrap_or(self.proposal);
                        self.round = Round::Accept {
                            value: adopted,
                            acks: HashSet::new(),
                        };
                        ctx.broadcast(
                            self.servers.iter().copied(),
                            Msg::Accept2a {
                                ballot: self.ballot,
                                value: adopted,
                            },
                        );
                    }
                }
                PaxosStep::Continue
            }
            Msg::Accepted2b { ballot } if ballot == self.ballot => {
                let majority = self.majority();
                if let Round::Accept { value, acks } = &mut self.round {
                    acks.insert(from);
                    if acks.len() >= majority {
                        return PaxosStep::Decide(*value);
                    }
                }
                PaxosStep::Continue
            }
            Msg::Reject { promised } => {
                if promised > self.ballot {
                    self.highest_rejection =
                        Some(self.highest_rejection.map_or(promised, |h| h.max(promised)));
                    return PaxosStep::Backoff;
                }
                PaxosStep::Continue
            }
            // Stale or foreign messages.
            _ => PaxosStep::Continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::ConsAction;
    use slin_sim::{Process, SimConfig, Simulation};

    /// Minimal learner client: runs one proposer to completion.
    struct Learner {
        proposer: Option<PaxosProposer>,
        proposal: Value,
        index: u32,
        servers: Vec<ProcessId>,
    }

    impl Process<Msg, ConsAction> for Learner {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg, ConsAction>) {
            let p = PaxosProposer::new(self.index, self.proposal, self.servers.clone());
            p.begin(ctx);
            self.proposer = Some(p);
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Msg, ConsAction>,
            from: ProcessId,
            msg: Msg,
        ) {
            if let Some(p) = &mut self.proposer {
                match p.on_message(ctx, from, msg) {
                    PaxosStep::Decide(v) => {
                        ctx.record(slin_trace::Action::respond(
                            slin_trace::ClientId::new(self.index),
                            slin_trace::PhaseId::FIRST,
                            slin_adt::ConsInput::propose(self.proposal),
                            slin_adt::ConsOutput::decide(v.get()),
                        ));
                        self.proposer = None;
                    }
                    PaxosStep::Backoff => {
                        if p.rounds_started() < 50 {
                            p.retry(ctx);
                        }
                    }
                    PaxosStep::Continue => {}
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg, ConsAction>, _t: u64) {
            if let Some(p) = &mut self.proposer {
                p.retry(ctx);
            }
        }
    }

    fn run_paxos(
        n_servers: usize,
        proposals: &[u64],
        seed: u64,
        crashes: &[usize],
    ) -> Vec<ConsAction> {
        let mut sim: Simulation<Msg, ConsAction> = Simulation::new(SimConfig {
            seed,
            min_delay: 1,
            max_delay: 3,
            ..SimConfig::default()
        });
        let servers: Vec<ProcessId> = (0..n_servers)
            .map(|_| sim.add_process(Box::new(Server::new())))
            .collect();
        for (k, &v) in proposals.iter().enumerate() {
            sim.add_process(Box::new(Learner {
                proposer: None,
                proposal: Value::new(v),
                index: k as u32 + 1,
                servers: servers.clone(),
            }));
        }
        for &k in crashes {
            sim.crash_at(servers[k], 0);
        }
        sim.run();
        sim.into_records()
    }

    fn decisions(records: &[ConsAction]) -> Vec<u64> {
        records
            .iter()
            .filter_map(|a| a.output().map(|o| o.value().get()))
            .collect()
    }

    #[test]
    fn single_proposer_decides_own_value() {
        let rec = run_paxos(3, &[42], 0, &[]);
        assert_eq!(decisions(&rec), vec![42]);
    }

    #[test]
    fn contending_proposers_agree() {
        for seed in 0..20 {
            let rec = run_paxos(3, &[1, 2], seed, &[]);
            let ds = decisions(&rec);
            assert_eq!(ds.len(), 2, "seed {seed}: both should learn");
            assert_eq!(ds[0], ds[1], "seed {seed}: agreement violated");
        }
    }

    #[test]
    fn tolerates_minority_crashes() {
        let rec = run_paxos(5, &[9], 3, &[0, 1]);
        assert_eq!(decisions(&rec), vec![9]);
    }

    #[test]
    fn majority_crash_prevents_decision() {
        let rec = run_paxos(3, &[9], 3, &[0, 1]);
        assert!(decisions(&rec).is_empty());
    }

    #[test]
    fn three_way_contention_agrees() {
        for seed in 0..10 {
            let rec = run_paxos(5, &[1, 2, 3], seed, &[]);
            let ds = decisions(&rec);
            assert!(!ds.is_empty(), "seed {seed}");
            assert!(ds.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {ds:?}");
        }
    }
}
