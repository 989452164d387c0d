//! Small-scope exhaustive soundness of the kernel's feasibility prune.
//!
//! The prune (`slin_core::engine`, "Feasibility prune") claims to remove
//! only leafless subtrees. If it ever removed a leaf, some verdict would
//! flip from "linearizable" to "not" — so the check is the definition
//! itself. **Every** well-formed trace inside a small scope (few clients,
//! duplicate inputs, invocations that never respond) must get
//!
//! * the same verdict from [`LinChecker`] (the pruned kernel) and from
//!   [`linearizable_by_definition`], a brute-force reading of Definition 10
//!   that shares no code with the kernel — no memo, no prune, no tables;
//! * a kernel "yes" whenever the textbook [`ClassicalChecker`] says yes
//!   (the direction of Theorem 1 that survives repeated inputs, and the
//!   one a lost leaf would break; with duplicates the new definition is
//!   strictly weaker — see `tests/tests/thm1_equivalence.rs` — so equality
//!   is asserted only where a trace's inputs happen to be unique);
//! * the batch verdict at every prefix from a streaming [`Session`] —
//!   the same kernel behind frontier extension, fallback re-search and
//!   GC-cut enumeration — under a window small enough that cuts happen
//!   inside the scope.

use proptest::prelude::*;
use slin_adt::{
    Adt, ConsInput, ConsOutput, Consensus, IdentityPartitioner, KvInput, KvKeyPartitioner,
    KvOutput, KvStore, Partitioner,
};
use slin_core::classical::ClassicalChecker;
use slin_core::lin::LinChecker;
use slin_core::ops;
use slin_core::session::{Checker, Session, Strategy as SessionStrategy};
use slin_core::stream::{GcPolicy, MonitorStatus};
use slin_core::ObjAction;
use slin_trace::{Action, ClientId, PhaseId, Trace};

fn count<I: PartialEq>(seq: &[I], e: &I) -> usize {
    seq.iter().filter(|x| *x == e).count()
}

/// Definition 10 by brute force: is there a chain of commit histories, one
/// per response, each ending in the response's input, explaining its
/// output, and drawing only on inputs invoked before it (as multisets)?
/// Grows the chain one element at a time — a commit or an input no
/// response claims — trying everything.
fn linearizable_by_definition<T: Adt>(adt: &T, t: &Trace<ObjAction<T, ()>>) -> bool {
    fn grow<T: Adt>(
        adt: &T,
        t: &Trace<ObjAction<T, ()>>,
        hist: &mut Vec<T::Input>,
        remaining: &mut Vec<ops::Commit<T>>,
    ) -> bool {
        if remaining.is_empty() {
            return true;
        }
        for k in 0..remaining.len() {
            let c = remaining.remove(k);
            hist.push(c.input.clone());
            let valid = {
                let before = ops::inputs_before::<T, ()>(t, c.index);
                hist.iter().all(|e| count(hist, e) <= count(&before, e))
            };
            let found = valid
                && adt.output(hist) == Some(c.output.clone())
                && grow(adt, t, hist, remaining);
            hist.pop();
            remaining.insert(k, c);
            if found {
                return true;
            }
        }
        let invoked = ops::inputs_before::<T, ()>(t, t.len());
        for (at, e) in invoked.iter().enumerate() {
            let first = !invoked[..at].contains(e);
            if first && count(hist, e) < count(&invoked, e) {
                hist.push(e.clone());
                let found = grow(adt, t, hist, remaining);
                hist.pop();
                if found {
                    return true;
                }
            }
        }
        false
    }
    grow(adt, t, &mut Vec::new(), &mut ops::commits::<T, ()>(t))
}

/// The kernel's batch verdict on `t`, checked against the definition and
/// against the classical checker (see the module docs).
fn batch_verdict<T>(adt: &T, t: &Trace<ObjAction<T, ()>>) -> bool
where
    T: Adt + Clone + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
{
    let kernel = LinChecker::owned(adt.clone()).check(t).is_ok();
    assert_eq!(
        kernel,
        linearizable_by_definition(adt, t),
        "kernel vs definition on {t:?}"
    );
    let classical = ClassicalChecker::new(adt).is_linearizable(t);
    let invoked = ops::inputs_before::<T, ()>(t, t.len());
    let unique = invoked.iter().all(|e| count(&invoked, e) == 1);
    assert!(
        if unique {
            classical == kernel
        } else {
            !classical || kernel
        },
        "kernel {kernel} vs classical {classical} on {t:?}"
    );
    kernel
}

/// The traces to enumerate: up to `clients` clients, each running up to
/// `ops_per_client` operations drawn from `inputs`, each answered by one of
/// `outputs(input)` or never; `max_len` events in all.
struct Scope<T: Adt> {
    clients: usize,
    ops_per_client: usize,
    inputs: Vec<T::Input>,
    outputs: fn(&T::Input) -> Vec<T::Output>,
    max_len: usize,
    /// The streaming windows every trace is replayed under.
    windows: &'static [usize],
}

/// How one streaming configuration's rolling status must relate to the
/// batch verdict.
#[derive(Clone, Copy)]
enum Agreement {
    /// Status is `Ok` exactly when the prefix is linearizable, `Violation`
    /// otherwise.
    Exact,
    /// Lossy cuts may under-claim (`Unknown`) but never over-claim.
    NeverOverClaims,
}

struct Walk<'a, T: Adt, P> {
    adt: &'a T,
    partitioner: P,
    scope: &'a Scope<T>,
    streams: &'a [(GcPolicy, Agreement)],
    trace: Vec<ObjAction<T, ()>>,
    /// The batch verdict of every non-empty prefix of `trace`.
    verdicts: Vec<bool>,
    /// Per client: the pending input, and operations started.
    pending: Vec<Option<T::Input>>,
    started: Vec<usize>,
    checked: usize,
    streamed: usize,
}

impl<T, P> Walk<'_, T, P>
where
    T: Adt + Clone + Send + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    P: Partitioner<T> + Clone,
{
    /// Appends `action`, checks the new trace, recurses, and backtracks.
    fn step(&mut self, action: ObjAction<T, ()>) {
        self.trace.push(action);
        let t = Trace::from_actions(self.trace.clone());
        let kernel = batch_verdict(self.adt, &t);
        self.checked += 1;
        self.verdicts.push(kernel);
        // Linearizability is prefix-closed: below a violation every trace
        // violates, so the branch ends here.
        if kernel && self.trace.len() < self.scope.max_len {
            self.extend();
        } else {
            self.stream();
        }
        self.verdicts.pop();
        self.trace.pop();
    }

    /// Every well-formed one-event extension. Clients are interchangeable,
    /// so client `k + 1` may only start once client `k` has.
    fn extend(&mut self) {
        for c in 0..self.scope.clients {
            let client = ClientId::new(c as u32 + 1);
            match self.pending[c].clone() {
                Some(input) => {
                    for output in (self.scope.outputs)(&input) {
                        self.pending[c] = None;
                        self.step(Action::respond(
                            client,
                            PhaseId::FIRST,
                            input.clone(),
                            output,
                        ));
                        self.pending[c] = Some(input.clone());
                    }
                }
                None => {
                    let fresh = self.started[c] == 0;
                    if self.started[c] == self.scope.ops_per_client
                        || (fresh && c > 0 && self.started[c - 1] == 0)
                    {
                        continue;
                    }
                    for input in self.scope.inputs.clone() {
                        self.pending[c] = Some(input.clone());
                        self.started[c] += 1;
                        self.step(Action::invoke(client, PhaseId::FIRST, input));
                        self.started[c] -= 1;
                        self.pending[c] = None;
                    }
                }
            }
        }
    }

    /// Streams the current trace through every configuration.
    fn stream(&mut self) {
        self.streamed += 1;
        for &window in self.scope.windows {
            for &(gc, agreement) in self.streams {
                let mon = stream_session(self.adt.clone(), self.partitioner.clone(), window, gc);
                assert_stream_agrees(mon, &self.trace, &self.verdicts, agreement);
            }
        }
    }
}

/// A streaming session under the given window and GC policy.
fn stream_session<T, P>(
    adt: T,
    partitioner: P,
    window: usize,
    gc: GcPolicy,
) -> Session<LinChecker<T>, (), P>
where
    T: Adt + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    P: Partitioner<T>,
{
    Checker::builder(LinChecker::owned(adt))
        .partitioner(partitioner)
        .strategy(SessionStrategy::Streaming {
            window: Some(window),
        })
        .gc_policy(gc)
        .build()
}

/// Ingests `trace` and compares the rolling status after each event with
/// the batch verdict of that prefix.
fn assert_stream_agrees<T, P>(
    mut mon: Session<LinChecker<T>, (), P>,
    trace: &[ObjAction<T, ()>],
    verdicts: &[bool],
    agreement: Agreement,
) where
    T: Adt + Send + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    P: Partitioner<T>,
{
    for (n, (action, &ok)) in trace.iter().zip(verdicts).enumerate() {
        let status = mon.ingest(action.clone()).status;
        let agrees = match (agreement, status) {
            (_, MonitorStatus::Ok) => ok,
            (_, MonitorStatus::Violation) => !ok,
            (Agreement::NeverOverClaims, MonitorStatus::Unknown) => true,
            _ => false,
        };
        assert!(
            agrees,
            "stream status {status:?} vs batch ok={ok} after {} events of {trace:?}",
            n + 1
        );
    }
}

/// The GC policies every trace runs through under each of its scope's
/// windows: the default (exact; quiescent cuts are the degenerate epoch
/// cut, so the one policy covers both), and truncated cuts forced through
/// a one-configuration frontier (lossy).
fn stream_configs() -> [(GcPolicy, Agreement); 2] {
    [
        (GcPolicy::default(), Agreement::Exact),
        (
            GcPolicy {
                epoch_force: true,
                frontier_cap: 1,
                ..Default::default()
            },
            Agreement::NeverOverClaims,
        ),
    ]
}

/// Two events: cuts happen inside every scope.
const SMALL_WINDOW: &[usize] = &[2];

/// Walks `scope`; returns `(traces checked, traces streamed)`.
fn exhaust<T, P>(adt: &T, partitioner: P, scope: &Scope<T>) -> (usize, usize)
where
    T: Adt + Clone + Send + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    P: Partitioner<T> + Clone,
{
    let streams = stream_configs();
    let mut walk = Walk {
        adt,
        partitioner,
        scope,
        streams: &streams,
        trace: Vec::new(),
        verdicts: Vec::new(),
        pending: vec![None; scope.clients],
        started: vec![0; scope.clients],
        checked: 0,
        streamed: 0,
    };
    walk.extend();
    (walk.checked, walk.streamed)
}

fn kv_outputs(input: &KvInput) -> Vec<KvOutput> {
    match input {
        KvInput::Get(_) => vec![
            KvOutput::Found(None),
            KvOutput::Found(Some(1)),
            KvOutput::Found(Some(2)),
        ],
        _ => vec![KvOutput::Ack],
    }
}

/// Three clients hammering one key with two inputs: every trace is
/// duplicate-heavy, which is where the Hall count bites.
#[test]
fn every_three_client_single_key_kv_trace() {
    let scope = Scope {
        clients: 3,
        ops_per_client: 3,
        inputs: vec![KvInput::Get(0), KvInput::Put(0, 1)],
        outputs: kv_outputs,
        max_len: 7,
        windows: SMALL_WINDOW,
    };
    let (checked, streamed) = exhaust(&KvStore, KvKeyPartitioner, &scope);
    assert_eq!(
        (checked, streamed),
        (19_256, 15_980),
        "scope size is pinned"
    );
}

/// Two clients, a richer alphabet (two distinct puts and a delete), longer
/// traces.
#[test]
fn every_two_client_single_key_kv_trace() {
    let scope = Scope {
        clients: 2,
        ops_per_client: 4,
        inputs: vec![
            KvInput::Get(0),
            KvInput::Put(0, 1),
            KvInput::Put(0, 2),
            KvInput::Delete(0),
        ],
        outputs: kv_outputs,
        max_len: 7,
        windows: SMALL_WINDOW,
    };
    let (checked, streamed) = exhaust(&KvStore, KvKeyPartitioner, &scope);
    assert_eq!(
        (checked, streamed),
        (33_134, 25_394),
        "scope size is pinned"
    );
}

/// Four clients, one operation each, two distinct puts: the scope holds
/// the traces that open with three or four invocations, which a window of
/// two or four events retires as an invocation-only prefix; the stragglers
/// then respond into later, shorter windows — histories longer than the
/// window that checks them.
#[test]
fn every_four_client_single_shot_kv_trace() {
    let scope = Scope {
        clients: 4,
        ops_per_client: 1,
        inputs: vec![KvInput::Get(0), KvInput::Put(0, 1), KvInput::Put(0, 2)],
        outputs: kv_outputs,
        max_len: 7,
        windows: &[2, 4],
    };
    let (checked, streamed) = exhaust(&KvStore, KvKeyPartitioner, &scope);
    assert_eq!(
        (checked, streamed),
        (33_221, 23_961),
        "scope size is pinned"
    );
}

/// Single-shot consensus: three clients, two proposal values (so at least
/// two clients propose the same one), every decision or none.
#[test]
fn every_three_client_consensus_trace() {
    let scope = Scope {
        clients: 3,
        ops_per_client: 1,
        inputs: vec![ConsInput::propose(1), ConsInput::propose(2)],
        outputs: |_| vec![ConsOutput::decide(1), ConsOutput::decide(2)],
        max_len: 6,
        windows: SMALL_WINDOW,
    };
    let (checked, streamed) = exhaust(&Consensus, IdentityPartitioner, &scope);
    assert_eq!((checked, streamed), (838, 536), "scope size is pinned");
}

/// A duplicate-heavy single-key stream beyond the exhaustive scope: four
/// clients, `get`s and two `put` values. Each step names a client; an idle
/// one invokes, a pending one responds. Responses mostly report the store
/// as some linearization would see it (so deep, satisfiable searches are
/// common), sometimes a stale or wrong value.
fn duplicate_heavy_trace() -> impl Strategy<Value = Vec<ObjAction<KvStore, ()>>> {
    prop::collection::vec((0..4u32, any::<u8>()), 1..11).prop_map(|steps| {
        let mut pending: [Option<KvInput>; 4] = [None; 4];
        let mut store: Option<u64> = None;
        let mut trace = Vec::new();
        for (c, dice) in steps {
            let client = ClientId::new(c + 1);
            match pending[c as usize].take() {
                None => {
                    let input = match dice % 8 {
                        0..=3 => KvInput::Get(0),
                        4..=6 => KvInput::Put(0, 1),
                        _ => KvInput::Put(0, 2),
                    };
                    pending[c as usize] = Some(input);
                    trace.push(Action::invoke(client, PhaseId::FIRST, input));
                }
                Some(input) => {
                    let output = match input {
                        KvInput::Put(_, v) => {
                            store = Some(v);
                            KvOutput::Ack
                        }
                        _ if dice % 8 == 0 => KvOutput::Found(Some(u64::from(dice % 3))),
                        _ => KvOutput::Found(store),
                    };
                    trace.push(Action::respond(client, PhaseId::FIRST, input, output));
                }
            }
        }
        trace
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The exhaustive comparison, sampled at a larger scope.
    #[test]
    fn duplicate_heavy_streams_agree_with_the_definition(trace in duplicate_heavy_trace()) {
        let verdicts: Vec<bool> = (1..=trace.len())
            .map(|n| batch_verdict(&KvStore, &Trace::from_actions(trace[..n].to_vec())))
            .collect();
        for window in [2, 4] {
            for (gc, agreement) in stream_configs() {
                let mon = stream_session(KvStore, KvKeyPartitioner, window, gc);
                assert_stream_agrees(mon, &trace, &verdicts, agreement);
            }
        }
    }
}
