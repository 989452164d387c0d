//! The unified checker surface: one builder, one [`Session`], one
//! [`Verdict`] — strategy is configuration, not a method-name matrix.
//!
//! A builder-style facade over any [`ConsistencyModel`] — the one way to
//! pick between monolithic, partitioned and streaming checking (the
//! checkers themselves expose only the direct `check`): pick a
//! [`Strategy`], get a [`Session`], call [`Session::check`] for closed
//! traces or [`Session::ingest`] for live streams, and read one
//! [`Verdict`] type either way.
//!
//! * [`Strategy::Auto`] (the default) — P-compositional checking along
//!   the supplied [`Partitioner`] exactly where the check decomposes: a
//!   partitioner was supplied and the trace has no switch actions or a
//!   switch-independence certificate covers them
//!   ([`SessionBuilder::switch_certified`]); monolithic otherwise.
//!   Verdicts and witnesses are byte-identical either way, the partitioned
//!   path expands fewer nodes (see [`crate::partition`]);
//! * [`Strategy::Monolithic`] — one chain search over the whole trace;
//! * [`Strategy::Streaming`] — the sharded incremental monitor of
//!   [`crate::stream`], with an optional bounded GC window.
//!
//! Sessions own their model (see `crate::model` — "Model ownership"), so a
//! built [`Session`] is `'static` and can be moved into threads, stored in
//! tenant tables, and returned from constructors without borrowing.
//!
//! # Example
//!
//! ```
//! use slin_adt::{KvInput, KvKeyPartitioner, KvOutput, KvStore};
//! use slin_core::lin::LinChecker;
//! use slin_core::session::{Checker, Strategy};
//! use slin_trace::{Action, ClientId, PhaseId, Trace};
//!
//! let (c1, c2, ph) = (ClientId::new(1), ClientId::new(2), PhaseId::FIRST);
//! let t: Trace<Action<KvInput, KvOutput, ()>> = Trace::from_actions(vec![
//!     Action::invoke(c1, ph, KvInput::Put(1, 5)),
//!     Action::invoke(c2, ph, KvInput::Put(2, 6)),
//!     Action::respond(c2, ph, KvInput::Put(2, 6), KvOutput::Ack),
//!     Action::respond(c1, ph, KvInput::Put(1, 5), KvOutput::Ack),
//! ]);
//!
//! // Batch: Auto picks the partitioned path (partitioner + switch-free).
//! let mut session = Checker::builder(LinChecker::owned(KvStore))
//!     .partitioner(KvKeyPartitioner)
//!     .build();
//! let verdict = session.check(&t);
//! assert!(verdict.outcome.is_ok());
//! assert!(verdict.partition.is_some());
//!
//! // Streaming: the same builder, one event at a time.
//! let mut live = Checker::builder(LinChecker::owned(KvStore))
//!     .partitioner(KvKeyPartitioner)
//!     .strategy(Strategy::Streaming { window: None })
//!     .build();
//! for a in t.iter() {
//!     live.ingest(a.clone());
//! }
//! let streamed = live.check(&Trace::new()); // drain + report
//! assert_eq!(streamed, verdict); // the whole verdict, stats included
//! ```

use crate::engine::{SearchStats, DEFAULT_MAX_NODES};
use crate::model::ConsistencyModel;
use crate::partition::{ClosedCheck, FallbackReason, PartitionReport};
use crate::stream::{GcPolicy, IngestOutcome, Monitor, MonitorReport, MonitorStatus, ShardSummary};
use crate::ObjAction;
use slin_adt::{Adt, IdentityPartitioner, Partitioner};
use slin_analysis::{short_type_name, CertError, SwitchCert};
use slin_obs::Obs;
use slin_trace::Trace;
use std::marker::PhantomData;

/// How a [`Session`] decides a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Partitioned when a sound [`Partitioner`] was supplied and the trace
    /// has no switch actions, or a switch-independence certificate was
    /// installed for them; monolithic otherwise.
    #[default]
    Auto,
    /// One chain search over the whole trace.
    Monolithic,
    /// The sharded incremental monitor: [`Session::ingest`] events live,
    /// [`Session::check`] drains a trace and reports.
    Streaming {
        /// Bounded-window GC: retire quiescent prefixes past this many
        /// events per shard (`None` keeps reports byte-identical to the
        /// batch path; a window of 0 reads as 1).
        window: Option<usize>,
    },
}

/// The one report type of the unified surface: verdict + witness +
/// [`SearchStats`] + [`PartitionReport`] when applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict<W, E> {
    /// The model's verdict: a witness, or why the check failed.
    pub outcome: Result<W, E>,
    /// Engine counters absorbed over the whole check: the one record of
    /// its work, which no witness repeats.
    pub stats: SearchStats,
    /// Partition accounting, when the partitioned path ran (what
    /// [`Strategy::Auto`] resolved to: `None` for a monolithic check) —
    /// for a streaming check, its report's ([`MonitorReport::verdict`]).
    pub partition: Option<PartitionReport>,
}

/// A verdict equals a bare outcome — a checker's direct `check` — when its
/// outcome does: the stats and the partition report are the work, not the
/// answer.
impl<W: PartialEq, E: PartialEq> PartialEq<Result<W, E>> for Verdict<W, E> {
    fn eq(&self, outcome: &Result<W, E>) -> bool {
        self.outcome == *outcome
    }
}

impl<W, E> Verdict<W, E> {
    /// Whether the trace satisfies the model's criterion.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// A cheap status delta from [`Session::poll_verdict`]: the rolling
/// verdict plus whether it moved since the previous poll. Built for
/// periodic snapshotting (a daemon's verdict loop) — no state is
/// consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictDelta {
    /// The rolling status at poll time ([`MonitorStatus::Ok`] on a batch
    /// session that has not started streaming).
    pub status: MonitorStatus,
    /// Whether `status` differs from the previous poll. A fresh session
    /// baselines at [`MonitorStatus::Ok`], so a healthy stream polls
    /// `changed == false` from the start.
    pub changed: bool,
    /// Events ingested so far on the streaming path.
    pub events: usize,
}

/// Entry point of the unified surface: `Checker::builder(model)`.
///
/// The type parameter is the [`ConsistencyModel`]
/// ([`crate::lin::LinChecker`] or [`crate::slin::SlinChecker`]) and is
/// inferred from the builder argument.
pub struct Checker<M> {
    _model: PhantomData<M>,
}

impl<M> Checker<M> {
    /// Starts a [`SessionBuilder`] around a model. Strategy defaults to
    /// [`Strategy::Auto`] with no partitioner (monolithic checking).
    pub fn builder(model: M) -> SessionBuilder<M, IdentityPartitioner> {
        SessionBuilder {
            model,
            partitioner: None,
            strategy: Strategy::Auto,
            budget: DEFAULT_MAX_NODES,
            threads: 0,
            window: None,
            gc: GcPolicy::default(),
            obs: Obs::noop(),
            switch_cert: None,
        }
    }
}

/// Configures and builds a [`Session`]. See the [module docs](self).
pub struct SessionBuilder<M, P> {
    model: M,
    partitioner: Option<P>,
    strategy: Strategy,
    budget: usize,
    threads: usize,
    window: Option<usize>,
    gc: GcPolicy,
    obs: Obs,
    /// Explicit switch-independence certificate from
    /// [`SessionBuilder::switch_certified`] (hash and partitioner name
    /// already verified; ADT and init-relation names are checked at build
    /// time).
    switch_cert: Option<SwitchCert>,
}

impl<M, P> SessionBuilder<M, P> {
    /// Sets the search node budget of every search this session runs —
    /// per class, per init interpretation, per streaming fallback
    /// (default [`DEFAULT_MAX_NODES`]).
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Bounds the threads the search routine may spread the init
    /// interpretations of a trace checked whole over (default 0 = one per
    /// core, 1 = sequential) — an **upper bound**, the calling thread
    /// included: the interpretation searches leave the calling thread only
    /// when there is enough of them to repay a thread spawn
    /// ([`crate::partition::fan_out`]). The bound is the session's, handed
    /// to the routine, never to the model. Nothing else a session runs is
    /// spread over threads, so a plain-linearizability session — one
    /// interpretation per trace — never spawns. Verdicts, witnesses and
    /// [`SearchStats`] do not depend on it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Picks the checking [`Strategy`] (default: [`Strategy::Auto`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Bounds the streaming GC window to `window` events per shard,
    /// wherever this session ends up streaming — whether born with
    /// [`Strategy::Streaming`] or upgraded on the first
    /// [`Session::ingest`]. Takes precedence over the window embedded in
    /// [`Strategy::Streaming`]. A window of 0 reads as 1: a shard retires
    /// at every event it can.
    pub fn window(mut self, window: usize) -> Self {
        self.window = Some(window);
        self
    }

    /// Sets the streaming garbage-collection policy knobs (lossy forcing,
    /// frontier cap, archival depth) for this session's monitor. See
    /// [`GcPolicy`]. Budget, threads, and window supplied on this builder
    /// are unaffected.
    pub fn gc_policy(mut self, gc: GcPolicy) -> Self {
        self.gc = gc;
        self
    }

    /// Installs an observer handle ([`slin_obs::Obs`]): the session's
    /// batch checks and its streaming monitor (current or future — the
    /// handle survives the batch → streaming upgrade) report engine
    /// searches, shard ingests, and GC cuts through it. The default noop
    /// handle keeps every instrumentation site a single pointer test.
    pub fn observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Supplies a [`Partitioner`], enabling the partitioned path (and
    /// per-key sharding on the streaming path). The partitioner must
    /// uphold the soundness contract documented in [`slin_adt::partition`];
    /// `slin-analyze` machine-checks it for every shipped partitioner
    /// (`analysis/certs/`).
    pub fn partitioner<Q>(self, partitioner: Q) -> SessionBuilder<M, Q> {
        SessionBuilder {
            model: self.model,
            partitioner: Some(partitioner),
            strategy: self.strategy,
            budget: self.budget,
            threads: self.threads,
            window: self.window,
            gc: self.gc,
            obs: self.obs,
            // A fresh partitioner invalidates any installed certificate.
            switch_cert: None,
        }
    }

    /// Supplies a **switch-independence certificate** (`slin-cert/v2`,
    /// produced by `slin_analysis::certify_switch` or read back from
    /// `analysis/certs/`) for the already-supplied partitioner: with it a
    /// trace with **switch actions** still decomposes per class
    /// (`partition::decomposes`), each switch classified by its pending
    /// input and its value's per-class interpretation, in batch checks and
    /// in the streaming monitor's re-checks of its record. The
    /// certificate's content hash and partitioner name are verified here;
    /// its ADT and init-relation names are verified at
    /// [`SessionBuilder::try_build`], where the model is nameable. Call
    /// after [`SessionBuilder::partitioner`].
    pub fn switch_certified(mut self, cert: &SwitchCert) -> Result<Self, CertError> {
        if !cert.verify() {
            return Err(CertError::BadHash);
        }
        let expected = short_type_name::<P>();
        if cert.partitioner != expected {
            return Err(CertError::PartitionerMismatch {
                expected: expected.to_string(),
                found: cert.partitioner.clone(),
            });
        }
        self.switch_cert = Some(cert.clone());
        Ok(self)
    }

    /// Builds the [`Session`], panicking if an installed switch certificate
    /// does not cover the model — use [`SessionBuilder::try_build`] to
    /// handle [`CertError`]s. Infallible with no certificate installed.
    pub fn build<V>(self) -> Session<M, V, P>
    where
        M: ConsistencyModel<V>,
        <M::Adt as Adt>::Input: Ord,
        V: Clone + PartialEq,
        P: Partitioner<M::Adt>,
    {
        self.try_build()
            .expect("the switch certificate does not cover the model")
    }

    /// Builds the [`Session`], checking an installed switch certificate
    /// against the model: [`CertError::AdtMismatch`] /
    /// [`CertError::RelationMismatch`] when it was issued for another ADT
    /// or init relation (hash and partitioner name were verified by
    /// [`SessionBuilder::switch_certified`]).
    pub fn try_build<V>(self) -> Result<Session<M, V, P>, CertError>
    where
        M: ConsistencyModel<V>,
        <M::Adt as Adt>::Input: Ord,
        V: Clone + PartialEq,
        P: Partitioner<M::Adt>,
    {
        // Switch actions decompose only under a verified
        // switch-independence certificate naming this exact
        // `(ADT, partitioner, init relation)` triple.
        let keyed = if let Some(cert) = &self.switch_cert {
            let adt_name = short_type_name::<M::Adt>();
            if cert.adt != adt_name {
                return Err(CertError::AdtMismatch {
                    expected: adt_name.to_string(),
                    found: cert.adt.clone(),
                });
            }
            match self.model.init_relation_name() {
                Some(rinit) if rinit == cert.rinit => self.partitioner.is_some(),
                Some(rinit) => {
                    return Err(CertError::RelationMismatch {
                        expected: rinit.to_string(),
                        found: cert.rinit.clone(),
                    });
                }
                // Criteria without switches have no keyed path to unlock.
                None => false,
            }
        } else {
            false
        };
        let strategy = self.strategy;
        let mut session = Session {
            mode: Mode::Batch(ClosedCheck {
                model: self.model,
                partitioner: self.partitioner,
                keyed,
                budget: self.budget,
                threads: self.threads,
                obs: self.obs,
            }),
            strategy,
            window: self.window.or(match strategy {
                Strategy::Streaming { window } => window,
                _ => None,
            }),
            gc: self.gc,
            last_polled: MonitorStatus::Ok,
        };
        if let Strategy::Streaming { .. } = strategy {
            session.ensure_streaming();
        }
        Ok(session)
    }
}

/// The session's execution state: configured batch checking, or a live
/// streaming monitor, which takes the batch configuration over.
enum Mode<M, V, P>
where
    M: ConsistencyModel<V>,
    P: Partitioner<M::Adt>,
{
    Batch(ClosedCheck<M, P>),
    Streaming(Box<Monitor<M, V, P>>),
    /// Transient placeholder during the batch → streaming upgrade; never
    /// observable.
    Transitioning,
}

/// A configured checking session over one [`ConsistencyModel`]: the
/// unified entry point for monolithic, partitioned, and streaming
/// checking. Owns its model, so it is free of borrows (`'static` when the
/// type parameters are). Built by [`Checker::builder`]; see the
/// [module docs](self) for an example.
pub struct Session<M, V, P>
where
    M: ConsistencyModel<V>,
    P: Partitioner<M::Adt>,
{
    mode: Mode<M, V, P>,
    strategy: Strategy,
    /// The streaming configuration, for the upgrade to streaming.
    window: Option<usize>,
    gc: GcPolicy,
    last_polled: MonitorStatus,
}

impl<M, V, P> Session<M, V, P>
where
    M: ConsistencyModel<V>,
    <M::Adt as Adt>::Input: Ord,
    V: Clone + PartialEq,
    P: Partitioner<M::Adt>,
{
    /// Checks a closed trace under the configured strategy.
    ///
    /// On a batch session this runs the monolithic or partitioned search
    /// ([`Strategy::Auto`] resolves per trace); verdicts and witnesses are
    /// byte-identical across both. On a streaming session this ingests the
    /// trace's events after anything already ingested and reports on the
    /// combined stream.
    pub fn check(&mut self, t: &Trace<ObjAction<M::Adt, V>>) -> Verdict<M::Witness, M::Error> {
        match &mut self.mode {
            Mode::Batch(closed) => {
                let partitioner = match self.strategy {
                    Strategy::Monolithic => None,
                    _ => closed.partitioner.as_ref(),
                };
                closed.check(partitioner, t, "session.check")
            }
            Mode::Streaming(monitor) => {
                for action in t.iter() {
                    monitor.ingest(action.clone());
                }
                monitor.report().verdict
            }
            Mode::Transitioning => unreachable!("transient mode is never observable"),
        }
    }

    /// Ingests one live event. A batch session upgrades to streaming mode
    /// on the first call (keeping any builder-supplied window and GC
    /// policy); [`Strategy::Streaming`] sessions are born streaming.
    pub fn ingest(&mut self, action: ObjAction<M::Adt, V>) -> IngestOutcome {
        self.ensure_streaming().ingest(action)
    }

    /// The exact rolling status of a streaming session (`None` before any
    /// event was ingested on a batch-built session). Past a switch action
    /// on a speculative model the status is the verdict of
    /// [`Session::report`], derived at most once per stream version.
    pub fn status(&mut self) -> Option<MonitorStatus> {
        match &mut self.mode {
            Mode::Streaming(monitor) => Some(monitor.status()),
            _ => None,
        }
    }

    /// Why this session's streaming monitor left the per-key fast path
    /// ([`FallbackReason`]), or `None` while it is still sharded — also
    /// `None` on a session that has not started streaming. A field read,
    /// cheap enough to poll per metrics tick.
    pub fn fallback(&self) -> Option<FallbackReason> {
        match &self.mode {
            Mode::Streaming(monitor) => monitor.fallback(),
            _ => None,
        }
    }

    /// Polls the rolling verdict without consuming anything: returns the
    /// current status, whether it moved since the previous poll, and the
    /// event count. On a switch-free stream this is a field read per
    /// shard, cheap enough to call per snapshot tick. Once a speculative
    /// stream has seen a switch action the status is deferred to the
    /// report's verdict: the first poll after new events derives that
    /// report (partitioned on a switch-certified session, monolithic
    /// otherwise) and caches it, so later polls — and a
    /// [`Session::report`] — at the same stream version search nothing. On
    /// a batch session that has not started streaming it reports
    /// [`MonitorStatus::Ok`] with zero events.
    pub fn poll_verdict(&mut self) -> VerdictDelta {
        let (status, events) = match &mut self.mode {
            Mode::Streaming(monitor) => (monitor.status(), monitor.events()),
            _ => (MonitorStatus::Ok, 0),
        };
        let changed = status != self.last_polled;
        self.last_polled = status;
        VerdictDelta {
            status,
            changed,
            events,
        }
    }

    /// Flips lossy epoch forcing (`epoch_force`) on this session's
    /// monitor — the backpressure shed: bounded memory is preserved at the
    /// cost of possible verdict downgrades to [`MonitorStatus::Unknown`].
    /// On a batch session the setting is remembered and applied when the
    /// session upgrades to streaming.
    pub fn set_lossy(&mut self, on: bool) {
        match &mut self.mode {
            Mode::Streaming(monitor) => monitor.set_epoch_force(on),
            _ => self.gc.epoch_force = on,
        }
    }

    /// The streaming session's full forensic report (`None` before any
    /// event was ingested on a batch-built session).
    pub fn report(&mut self) -> Option<MonitorReport<M::Witness, M::Error>> {
        match &mut self.mode {
            Mode::Streaming(monitor) => Some(monitor.report()),
            _ => None,
        }
    }

    /// Aggregated shard-machinery counters at the current stream position
    /// (the [`ShardSummary`] a report carries) without deriving a report —
    /// for sampling the retained-memory proxy mid-stream. `None` before
    /// any event was ingested on a batch-built session.
    pub fn shard_summary(&self) -> Option<ShardSummary> {
        match &self.mode {
            Mode::Streaming(monitor) => Some(monitor.shard_summary()),
            _ => None,
        }
    }

    /// The underlying monitor, upgrading a batch session in place (a
    /// [`Strategy::Streaming`] session at build time).
    fn ensure_streaming(&mut self) -> &mut Monitor<M, V, P> {
        if let Mode::Batch(_) = &self.mode {
            let Mode::Batch(closed) = std::mem::replace(&mut self.mode, Mode::Transitioning) else {
                unreachable!("checked above");
            };
            self.mode = Mode::Streaming(Box::new(Monitor::new(closed, self.window, self.gc)));
        }
        match &mut self.mode {
            Mode::Streaming(monitor) => monitor,
            _ => unreachable!("upgraded above"),
        }
    }
}
