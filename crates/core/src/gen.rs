//! Seeded random generation of well-formed traces.
//!
//! The equivalence and composition experiments need large families of
//! well-formed concurrent traces: some linearizable by construction (the
//! generator plays a genuinely atomic object with random linearization
//! points), some adversarial (outputs perturbed so that most traces are
//! *not* linearizable). Everything is deterministic in the seed.

use crate::ObjAction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slin_adt::{Adt, CounterVector, KeyedDomain, KvInput, KvOutput, KvStore, RegisterArray, Set};
use slin_trace::{Action, ClientId, PhaseId, Trace};

/// Configuration of the random trace generators.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of concurrent clients.
    pub clients: u32,
    /// Number of generation steps (each step emits at most one event).
    pub steps: usize,
    /// RNG seed: equal seeds give equal traces.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            clients: 3,
            steps: 12,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum ClientState<I, O> {
    Idle,
    /// Invoked, linearization point not yet reached.
    Pending(I),
    /// Linearization point reached; the output is fixed.
    Applied(I, O),
}

/// Generates a trace that is **linearizable by construction**: the generator
/// runs an atomic object and picks, for every operation, a linearization
/// point between its invocation and its response.
///
/// `sample_input` draws random inputs (e.g. random proposals).
///
/// # Example
///
/// ```
/// use slin_adt::{Consensus, ConsInput};
/// use slin_core::gen::{random_linearizable_trace, GenConfig};
/// use slin_core::lin::LinChecker;
///
/// let t = random_linearizable_trace(
///     &Consensus::new(),
///     GenConfig { clients: 3, steps: 10, seed: 7 },
///     |rng| ConsInput::propose(rand::Rng::gen_range(rng, 1..4u64)),
/// );
/// assert!(LinChecker::owned(Consensus::new()).check(&t).is_ok());
/// ```
pub fn random_linearizable_trace<T, F>(
    adt: &T,
    cfg: GenConfig,
    sample_input: F,
) -> Trace<ObjAction<T, ()>>
where
    T: Adt,
    F: FnMut(&mut StdRng) -> T::Input,
{
    random_perturbed_trace(adt, cfg, 0.0, sample_input)
}

/// Generates a well-formed trace whose outputs are *perturbed*: with
/// probability `error_prob` a response carries the output the operation
/// would produce on the **initial** state instead of the current one.
/// Useful for exercising checkers on a mix of linearizable and
/// non-linearizable traces; at `error_prob = 0.0` it is
/// [`random_linearizable_trace`].
pub fn random_perturbed_trace<T, F>(
    adt: &T,
    cfg: GenConfig,
    error_prob: f64,
    mut sample_input: F,
) -> Trace<ObjAction<T, ()>>
where
    T: Adt,
    F: FnMut(&mut StdRng) -> T::Input,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t = Trace::new();
    let mut state = adt.initial();
    let mut clients: Vec<ClientState<T::Input, T::Output>> =
        (0..cfg.clients).map(|_| ClientState::Idle).collect();
    for _ in 0..cfg.steps {
        let k = rng.gen_range(0..clients.len());
        let c = ClientId::new(k as u32 + 1);
        match clients[k].clone() {
            ClientState::Idle => {
                let input = sample_input(&mut rng);
                t.push(Action::invoke(c, PhaseId::FIRST, input.clone()));
                clients[k] = ClientState::Pending(input);
            }
            ClientState::Pending(input) => {
                let (next, out) = adt.apply(&state, &input);
                // No draw at all when nothing is perturbed: the
                // linearizable generator's RNG stream.
                let out = if error_prob > 0.0 && rng.gen_bool(error_prob) {
                    // Pretend the operation ran on the initial state.
                    adt.apply(&adt.initial(), &input).1
                } else {
                    state = next;
                    out
                };
                clients[k] = ClientState::Applied(input, out);
            }
            ClientState::Applied(input, out) => {
                t.push(Action::respond(c, PhaseId::FIRST, input, out));
                clients[k] = ClientState::Idle;
            }
        }
    }
    t
}

/// Configuration of the multi-key concurrent workload generators.
///
/// Extends [`GenConfig`] with the key-space shape that partition-aware
/// checking cares about: how many independence classes exist (`keys`), how
/// unevenly traffic spreads over them (`skew`), and how much of it piles
/// onto one shared hot key (`contention`). `keys = 1` or `contention = 1.0`
/// produce **partition-hostile** workloads (every operation contends on one
/// class); many keys with low skew produce **partition-friendly** ones.
#[derive(Debug, Clone, Copy)]
pub struct MultiKeyConfig {
    /// Number of concurrent clients.
    pub clients: u32,
    /// Number of generation steps (each step emits at most one event).
    pub steps: usize,
    /// Number of distinct keys (independence classes), numbered `1..=keys`.
    pub keys: u32,
    /// Zipf-style skew exponent over the key space: key `k` is drawn with
    /// weight `k^-skew`. `0.0` is uniform; larger values concentrate
    /// traffic on low-numbered keys.
    pub skew: f64,
    /// Probability that an operation targets key 1 outright, regardless of
    /// the skewed draw — a dial from fully spread (`0.0`) to fully
    /// contended (`1.0`).
    pub contention: f64,
    /// Probability that a response is perturbed as in
    /// [`random_perturbed_trace`]; `0.0` generates linearizable-by-
    /// construction traces.
    pub error_prob: f64,
    /// RNG seed: equal seeds give equal traces.
    pub seed: u64,
}

impl Default for MultiKeyConfig {
    fn default() -> Self {
        MultiKeyConfig {
            clients: 4,
            steps: 24,
            keys: 4,
            skew: 0.6,
            contention: 0.0,
            error_prob: 0.0,
            seed: 0,
        }
    }
}

impl MultiKeyConfig {
    fn gen_config(&self) -> GenConfig {
        GenConfig {
            clients: self.clients,
            steps: self.steps,
            seed: self.seed,
        }
    }

    /// Draws a key in `1..=keys` under the configured skew and contention.
    fn sample_key(&self, rng: &mut StdRng, cumulative: &[f64]) -> u32 {
        if self.keys <= 1 {
            return 1;
        }
        if self.contention > 0.0 && rng.gen_bool(self.contention) {
            return 1;
        }
        sample_cumulative(rng, cumulative) as u32 + 1
    }
}

/// Draws one weighted per-key operation from `T`'s [`KeyedDomain`] op
/// table — the one place the generator op mixes live, shared with the
/// `slin-analysis` input domains.
///
/// The RNG stream reproduces the historical hand-rolled closures
/// byte-for-byte (committed bench baselines pin node counts on these
/// seeds): a two-op table of total weight 2 draws `gen_bool(0.5)` with
/// `true` selecting the first op, any other table draws one
/// `gen_range(0..total)` selector mapped through cumulative weights, and
/// only the selected op draws its payload (`1..=vals`).
fn sample_keyed<T: KeyedDomain>(rng: &mut StdRng, key: u32) -> T::Input {
    let ops = T::keyed_ops();
    let total: u8 = ops.iter().map(|op| op.weight).sum();
    let idx = if ops.len() == 2 && total == 2 {
        usize::from(!rng.gen_bool(0.5))
    } else {
        let r = rng.gen_range(0..total);
        let mut acc = 0u8;
        ops.iter()
            .position(|op| {
                acc += op.weight;
                r < acc
            })
            .expect("cumulative weights cover every selector draw")
    };
    let op = &ops[idx];
    match op.vals {
        Some(vals) => {
            let v = rng.gen_range(1..vals + 1);
            (op.make)(key, v)
        }
        None => (op.make)(key, 0),
    }
}

fn multikey_trace<T, F>(adt: &T, cfg: &MultiKeyConfig, mut op: F) -> Trace<ObjAction<T, ()>>
where
    T: Adt,
    F: FnMut(&mut StdRng, u32) -> T::Input,
{
    let cumulative = zipf_cumulative(cfg.keys.max(1) as usize, cfg.skew);
    random_perturbed_trace(adt, cfg.gen_config(), cfg.error_prob, |rng| {
        let key = cfg.sample_key(rng, &cumulative);
        op(rng, key)
    })
}

/// Generates a well-formed multi-key [`KvStore`] trace: each operation
/// draws a key under the configured skew/contention, then puts, gets, or
/// deletes it (gets twice as likely as either write).
///
/// With `error_prob = 0.0` the trace is linearizable by construction.
///
/// # Example
///
/// ```
/// use slin_adt::{KvKeyPartitioner, KvStore};
/// use slin_core::gen::{random_multikey_kv_trace, MultiKeyConfig};
/// use slin_core::lin::LinChecker;
/// use slin_core::session::Checker;
///
/// let t = random_multikey_kv_trace(&MultiKeyConfig { keys: 8, ..Default::default() });
/// let chk = LinChecker::owned(KvStore);
/// let mut session = Checker::builder(chk.clone())
///     .partitioner(KvKeyPartitioner)
///     .build();
/// // Switch-free, so it decomposes: byte-identical, fewer nodes.
/// let verdict = session.check(&t);
/// assert!(verdict.partition.is_some());
/// assert_eq!(verdict.outcome, chk.check(&t));
/// ```
pub fn random_multikey_kv_trace(cfg: &MultiKeyConfig) -> Trace<ObjAction<KvStore, ()>> {
    multikey_trace(&KvStore, cfg, sample_keyed::<KvStore>)
}

/// Generates a well-formed multi-key [`Set`] trace over the elements
/// `1..=keys` (adds and membership tests twice as likely as removes).
///
/// With `error_prob = 0.0` the trace is linearizable by construction.
pub fn random_multikey_set_trace(cfg: &MultiKeyConfig) -> Trace<ObjAction<Set, ()>> {
    multikey_trace(&Set, cfg, sample_keyed::<Set>)
}

/// Generates a well-formed multi-cell [`RegisterArray`] trace over the
/// cells `1..=keys` (reads and writes equally likely).
///
/// With `error_prob = 0.0` the trace is linearizable by construction.
pub fn random_multikey_reg_array_trace(
    cfg: &MultiKeyConfig,
) -> Trace<ObjAction<RegisterArray, ()>> {
    multikey_trace(&RegisterArray, cfg, sample_keyed::<RegisterArray>)
}

/// Generates a well-formed multi-slot [`CounterVector`] trace over the
/// slots `1..=keys` (increments and reads equally likely).
///
/// With `error_prob = 0.0` the trace is linearizable by construction.
pub fn random_multikey_counter_vec_trace(
    cfg: &MultiKeyConfig,
) -> Trace<ObjAction<CounterVector, ()>> {
    multikey_trace(&CounterVector, cfg, sample_keyed::<CounterVector>)
}

/// Configuration of the **phase-trace** generator (see
/// [`random_phase_kv_trace`]): a speculation-phase workload whose clients
/// enter through init switch actions sharing one exact init history and
/// (optionally) abort out carrying the full history — the workload shape
/// the keyed phase-trace checking path (switch-independence certificates)
/// exists for.
#[derive(Debug, Clone, Copy)]
pub struct PhaseConfig {
    /// Number of concurrent clients (each enters via its init action).
    pub clients: u32,
    /// Number of in-phase generation steps (each emits at most one event).
    pub steps: usize,
    /// Number of distinct keys (independence classes), numbered `1..=keys`.
    pub keys: u32,
    /// Zipf-style skew exponent over the key space (as in
    /// [`MultiKeyConfig::skew`]).
    pub skew: f64,
    /// Length of the shared previous-phase history every init switch
    /// carries verbatim (the exact relation's single candidate).
    pub prefix_ops: usize,
    /// Clients that abort out of the phase at the end (clamped to
    /// `clients`); their switch values extend the full committed history.
    pub aborts: u32,
    /// Probability that an in-phase response is perturbed as in
    /// [`random_perturbed_trace`]; `0.0` generates speculatively-
    /// linearizable traces by construction.
    pub error_prob: f64,
    /// RNG seed: equal seeds give equal traces.
    pub seed: u64,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        PhaseConfig {
            clients: 3,
            steps: 18,
            keys: 4,
            skew: 0.6,
            prefix_ops: 4,
            aborts: 1,
            error_prob: 0.0,
            seed: 0,
        }
    }
}

/// The `(m, n)` phase pair the generated phase traces inhabit: `(2, 3)` —
/// phase 2 is checked, inits arrive from phase 1, aborts leave for phase 3.
pub fn phase_trace_bounds() -> (PhaseId, PhaseId) {
    (PhaseId::new(2), PhaseId::new(3))
}

/// Generates a well-formed `(2, 3)` phase trace over [`KvStore`] with
/// [`crate::initrel::ExactInit`] switch values:
///
/// * a shared phase-1 history of `prefix_ops` keyed operations is drawn and
///   applied; every client then enters phase 2 through an init switch
///   carrying that history verbatim plus a pending input;
/// * `steps` in-phase events follow the multi-key concurrent schedule of
///   [`random_multikey_kv_trace`] (keys drawn under `skew`), linearizable
///   by construction unless `error_prob` perturbs outputs;
/// * the phase quiesces (every pending operation responds), then each
///   aborting client invokes once more and leaves through an abort switch
///   whose value is the full committed history — the exact init value of
///   the next phase.
///
/// With `error_prob = 0.0` the trace is speculatively linearizable by
/// construction, and every input classifies under
/// [`slin_adt::KvKeyPartitioner`] — the certified keyed checking path
/// splits it into per-key classes.
pub fn random_phase_kv_trace(cfg: &PhaseConfig) -> Trace<ObjAction<KvStore, Vec<KvInput>>> {
    let (m, n) = phase_trace_bounds();
    let adt = KvStore;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let key_weights = zipf_cumulative(cfg.keys.max(1) as usize, cfg.skew);
    let sample = |rng: &mut StdRng| {
        let key = sample_cumulative(rng, &key_weights) as u32 + 1;
        sample_keyed::<KvStore>(rng, key)
    };
    // The shared phase-1 history: applied to fix the phase's initial state.
    let mut state = adt.initial();
    let mut prefix: Vec<KvInput> = Vec::new();
    for _ in 0..cfg.prefix_ops {
        let input = sample(&mut rng);
        state = adt.apply(&state, &input).0;
        prefix.push(input);
    }
    let mut t = Trace::new();
    let clients = cfg.clients.max(1);
    let mut states: Vec<ClientState<KvInput, KvOutput>> = Vec::new();
    for k in 0..clients {
        let input = sample(&mut rng);
        t.push(Action::switch(
            ClientId::new(k + 1),
            m,
            input,
            prefix.clone(),
        ));
        states.push(ClientState::Pending(input));
    }
    // The committed in-phase apply order; appended to `prefix` it is the
    // abort switches' init value for the next phase. Responses fire in
    // apply order (a FIFO over linearization points): the exact relation
    // forces the abort value to *be* the chain's longest commit history,
    // and Commit-Order ties chains to response order — letting responses
    // overtake linearization points would demand a history no chain in
    // response order can produce. Concurrency survives in the
    // invoke-to-apply and apply-to-respond windows.
    let mut apply_order: Vec<KvInput> = Vec::new();
    let mut ready: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for _ in 0..cfg.steps {
        let k = rng.gen_range(0..states.len());
        let c = ClientId::new(k as u32 + 1);
        match states[k].clone() {
            ClientState::Idle => {
                let input = sample(&mut rng);
                t.push(Action::invoke(c, m, input));
                states[k] = ClientState::Pending(input);
            }
            ClientState::Pending(input) => {
                let (next, out) = adt.apply(&state, &input);
                let out = if cfg.error_prob > 0.0 && rng.gen_bool(cfg.error_prob) {
                    adt.apply(&adt.initial(), &input).1
                } else {
                    state = next;
                    apply_order.push(input);
                    out
                };
                states[k] = ClientState::Applied(input, out);
                ready.push_back(k);
            }
            ClientState::Applied(input, out) => {
                if ready.front() == Some(&k) {
                    ready.pop_front();
                    t.push(Action::respond(c, m, input, out));
                    states[k] = ClientState::Idle;
                }
            }
        }
    }
    // Quiesce the phase: the abort switches must extend a fully committed
    // history, so every pending operation linearizes and responds first.
    for (k, st) in states.iter_mut().enumerate() {
        if let ClientState::Pending(input) = st.clone() {
            let (next, out) = adt.apply(&state, &input);
            state = next;
            apply_order.push(input);
            *st = ClientState::Applied(input, out);
            ready.push_back(k);
        }
    }
    while let Some(k) = ready.pop_front() {
        if let ClientState::Applied(input, out) = states[k].clone() {
            t.push(Action::respond(ClientId::new(k as u32 + 1), m, input, out));
            states[k] = ClientState::Idle;
        }
    }
    // Aborting clients leave for the next phase carrying the full history.
    let mut abort_value = prefix;
    abort_value.extend(apply_order);
    for k in 0..cfg.aborts.min(clients) as usize {
        let c = ClientId::new(k as u32 + 1);
        let input = sample(&mut rng);
        t.push(Action::invoke(c, m, input));
        t.push(Action::switch(c, n, input, abort_value.clone()));
    }
    t
}

/// Configuration of the **hostile never-quiescent** stream generator.
///
/// Produces workloads on which quiescence-gated window GC starves: a
/// configurable fraction of invocations *never responds* (the stream never
/// quiesces), and the rest respond after Zipf-distributed delays (a heavy
/// tail of long-pending operations straddling many windows). Everything is
/// deterministic in the seed.
#[derive(Debug, Clone, Copy)]
pub struct HostileConfig {
    /// Number of concurrent clients.
    pub clients: u32,
    /// Number of generation steps (each step emits at most one event;
    /// steps where every client is busy and nothing is due emit none).
    pub steps: usize,
    /// Number of distinct keys, numbered `1..=keys`.
    pub keys: u32,
    /// Zipf-style skew exponent over the key space (as in
    /// [`MultiKeyConfig::skew`]).
    pub skew: f64,
    /// Fraction of invocations that never respond — their clients stay
    /// stuck forever, so any positive value makes the stream
    /// never-quiescent.
    pub never_frac: f64,
    /// Whether never-responding operations still reach their linearization
    /// point: `true` (the hostile default) means their effects are visible
    /// to later operations even though no response ever confirms them —
    /// the case that forces symbolic straggler completion at epoch cuts.
    pub stuck_applies: bool,
    /// Zipf exponent over response delays: delay `d` is drawn with weight
    /// `d^-delay_zipf` from `1..=max_delay`. Smaller exponents fatten the
    /// tail of long-pending operations.
    pub delay_zipf: f64,
    /// Maximum response delay, in generation steps.
    pub max_delay: usize,
    /// Probability that an operation's output is perturbed as in
    /// [`random_perturbed_trace`]; `0.0` generates traces linearizable by
    /// construction.
    pub error_prob: f64,
    /// RNG seed: equal seeds give equal traces.
    pub seed: u64,
}

impl Default for HostileConfig {
    fn default() -> Self {
        HostileConfig {
            clients: 6,
            steps: 400,
            keys: 4,
            skew: 0.6,
            never_frac: 0.05,
            stuck_applies: true,
            delay_zipf: 1.1,
            max_delay: 40,
            error_prob: 0.0,
            seed: 0,
        }
    }
}

/// Draws an index under cumulative weights — the one Zipf sampler, shared
/// by every generator here and the daemon's tenant interleave.
pub fn sample_cumulative(rng: &mut StdRng, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("nonempty weights");
    let r = (rng.gen_range(0..1u64 << 53) as f64) / (1u64 << 53) as f64 * total;
    cumulative.partition_point(|&c| c <= r)
}

/// The cumulative Zipf weights `sum_{j<=k} j^-exponent` for `k` in `1..=n`
/// ([`sample_cumulative`] draws under them).
pub fn zipf_cumulative(n: usize, exponent: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n.max(1))
        .map(|k| {
            acc += f64::powf(k as f64, -exponent);
            acc
        })
        .collect()
}

#[derive(Debug, Clone)]
enum HostileClient<I, O> {
    Idle,
    /// Invoked; reaches its linearization point at step `apply_at` and
    /// responds at step `respond_at` (`None`: never).
    Waiting {
        input: I,
        apply_at: usize,
        respond_at: Option<usize>,
    },
    /// Linearization point reached; the output is fixed.
    Applied {
        input: I,
        out: O,
        respond_at: Option<usize>,
    },
}

/// Generates a hostile never-quiescent trace (see [`HostileConfig`]):
/// linearizable by construction when `error_prob = 0.0` — the generator
/// plays an atomic object and every operation that reaches its
/// linearization point does so between its invocation and (absent or
/// delayed) response.
///
/// The scheduler is deterministic given the RNG stream: at every step,
/// due responders go first (lowest client id), then due linearization
/// points fire (internal, no event), then a random idle client invokes.
fn random_hostile_trace<T, F>(
    adt: &T,
    cfg: &HostileConfig,
    mut sample_input: F,
) -> Trace<ObjAction<T, ()>>
where
    T: Adt,
    F: FnMut(&mut StdRng) -> T::Input,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let delay_weights = zipf_cumulative(cfg.max_delay.max(1), cfg.delay_zipf);
    let mut t = Trace::new();
    let mut state = adt.initial();
    let mut clients: Vec<HostileClient<T::Input, T::Output>> =
        (0..cfg.clients).map(|_| HostileClient::Idle).collect();
    for step in 0..cfg.steps {
        // Fire every due linearization point, in client order (internal:
        // no event is emitted, but outputs are fixed against the evolving
        // atomic state — this is what keeps the trace linearizable).
        for client in clients.iter_mut() {
            if let HostileClient::Waiting {
                input,
                apply_at,
                respond_at,
            } = client.clone()
            {
                if apply_at <= step {
                    let (next, out) = adt.apply(&state, &input);
                    let out = if cfg.error_prob > 0.0 && rng.gen_bool(cfg.error_prob) {
                        adt.apply(&adt.initial(), &input).1
                    } else {
                        state = next;
                        out
                    };
                    *client = HostileClient::Applied {
                        input,
                        out,
                        respond_at,
                    };
                }
            }
        }
        // A due responder (lowest client id) emits its response.
        if let Some(k) = clients.iter().position(
            |c| matches!(c, HostileClient::Applied { respond_at: Some(r), .. } if *r <= step),
        ) {
            if let HostileClient::Applied { input, out, .. } = clients[k].clone() {
                t.push(Action::respond(
                    ClientId::new(k as u32 + 1),
                    PhaseId::FIRST,
                    input,
                    out,
                ));
                clients[k] = HostileClient::Idle;
            }
            continue;
        }
        // Otherwise a random idle client invokes (none: time just passes).
        let idle: Vec<usize> = clients
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, HostileClient::Idle))
            .map(|(k, _)| k)
            .collect();
        let Some(&k) = idle.get(rng.gen_range(0..idle.len().max(1))).or(None) else {
            continue;
        };
        let input = sample_input(&mut rng);
        let never = cfg.never_frac > 0.0 && rng.gen_bool(cfg.never_frac);
        let delay = sample_cumulative(&mut rng, &delay_weights) + 1;
        let respond_at = if never { None } else { Some(step + delay) };
        let apply_at = if never && !cfg.stuck_applies {
            usize::MAX
        } else {
            step + 1 + rng.gen_range(0..delay)
        };
        t.push(Action::invoke(
            ClientId::new(k as u32 + 1),
            PhaseId::FIRST,
            input.clone(),
        ));
        clients[k] = HostileClient::Waiting {
            input,
            apply_at,
            respond_at,
        };
    }
    t
}

/// Generates a hostile never-quiescent multi-key [`KvStore`] trace (keys
/// drawn under the configured skew, gets twice as likely as either
/// write). See [`HostileConfig`]; linearizable by construction when
/// `error_prob = 0.0`.
pub fn random_hostile_kv_trace(cfg: &HostileConfig) -> Trace<ObjAction<KvStore, ()>> {
    let key_weights = zipf_cumulative(cfg.keys.max(1) as usize, cfg.skew);
    random_hostile_trace(&KvStore, cfg, |rng| {
        let key = sample_cumulative(rng, &key_weights) as u32 + 1;
        sample_keyed::<KvStore>(rng, key)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::ClassicalChecker;
    use crate::lin::LinChecker;
    use slin_adt::{ConsInput, Consensus, Counter, CounterInput};
    use slin_trace::wf;

    fn cons_input(rng: &mut StdRng) -> ConsInput {
        ConsInput::propose(rng.gen_range(1..4u64))
    }

    fn counter_input(rng: &mut StdRng) -> CounterInput {
        if rng.gen_bool(0.5) {
            CounterInput::Increment
        } else {
            CounterInput::Read
        }
    }

    #[test]
    fn generated_traces_are_well_formed() {
        for seed in 0..50 {
            let cfg = GenConfig {
                clients: 4,
                steps: 20,
                seed,
            };
            let t = random_linearizable_trace(&Consensus, cfg, cons_input);
            assert!(wf::is_well_formed(&t), "seed {seed}");
            let t2 = random_perturbed_trace(&Consensus, cfg, 0.4, cons_input);
            assert!(wf::is_well_formed(&t2), "seed {seed}");
        }
    }

    #[test]
    fn linearizable_generator_passes_both_checkers() {
        for seed in 0..30 {
            let cfg = GenConfig {
                clients: 3,
                steps: 14,
                seed,
            };
            let t = random_linearizable_trace(&Counter, cfg, counter_input);
            assert!(LinChecker::owned(Counter).check(&t).is_ok(), "seed {seed}");
            assert!(
                ClassicalChecker::new(&Counter).check(&t).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn perturbation_produces_some_violations() {
        let mut violations = 0;
        for seed in 0..40 {
            let cfg = GenConfig {
                clients: 3,
                steps: 14,
                seed,
            };
            let t = random_perturbed_trace(&Counter, cfg, 0.5, counter_input);
            if LinChecker::owned(Counter).check(&t).is_err() {
                violations += 1;
            }
        }
        assert!(violations > 0, "expected at least one violation");
    }

    #[test]
    fn multikey_traces_are_well_formed_and_spread_over_keys() {
        use slin_adt::{KvKeyPartitioner, Partitioner};
        for seed in 0..30 {
            let cfg = MultiKeyConfig {
                keys: 6,
                seed,
                ..Default::default()
            };
            let t = random_multikey_kv_trace(&cfg);
            assert!(wf::is_well_formed(&t), "seed {seed}");
            let s = random_multikey_set_trace(&cfg);
            assert!(wf::is_well_formed(&s), "seed {seed}");
            let distinct: std::collections::BTreeSet<u32> = t
                .iter()
                .filter_map(|a| KvKeyPartitioner.key_of(a.input()))
                .collect();
            assert!(distinct.len() > 1, "seed {seed}: all ops on one key");
            assert!(distinct.iter().all(|k| (1..=6).contains(k)));
        }
    }

    #[test]
    fn full_contention_collapses_to_a_single_key() {
        use slin_adt::{KvKeyPartitioner, Partitioner};
        let cfg = MultiKeyConfig {
            keys: 8,
            contention: 1.0,
            seed: 3,
            ..Default::default()
        };
        let t = random_multikey_kv_trace(&cfg);
        assert!(t
            .iter()
            .all(|a| KvKeyPartitioner.key_of(a.input()) == Some(1)));
    }

    #[test]
    fn skew_concentrates_traffic_on_low_keys() {
        use slin_adt::{KvKeyPartitioner, Partitioner};
        let count_key1 = |skew: f64| -> usize {
            (0..20)
                .map(|seed| {
                    let cfg = MultiKeyConfig {
                        keys: 8,
                        skew,
                        steps: 30,
                        seed,
                        ..Default::default()
                    };
                    random_multikey_kv_trace(&cfg)
                        .iter()
                        .filter(|a| KvKeyPartitioner.key_of(a.input()) == Some(1))
                        .count()
                })
                .sum()
        };
        assert!(count_key1(2.0) > count_key1(0.0), "skew should bias key 1");
    }

    #[test]
    fn multikey_linearizable_traces_pass_the_checker() {
        for seed in 0..10 {
            let cfg = MultiKeyConfig {
                keys: 4,
                steps: 18,
                seed,
                ..Default::default()
            };
            let t = random_multikey_kv_trace(&cfg);
            assert!(LinChecker::owned(KvStore).check(&t).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn multikey_perturbation_produces_some_violations() {
        let mut violations = 0;
        for seed in 0..30 {
            let cfg = MultiKeyConfig {
                keys: 3,
                steps: 18,
                error_prob: 0.5,
                seed,
                ..Default::default()
            };
            let t = random_multikey_kv_trace(&cfg);
            if LinChecker::owned(KvStore).check(&t).is_err() {
                violations += 1;
            }
        }
        assert!(violations > 0, "expected at least one violation");
    }

    #[test]
    fn composite_adt_generators_produce_checkable_traces() {
        for seed in 0..8 {
            let cfg = MultiKeyConfig {
                keys: 4,
                steps: 16,
                seed,
                ..Default::default()
            };
            let r = random_multikey_reg_array_trace(&cfg);
            assert!(wf::is_well_formed(&r), "seed {seed}");
            assert!(
                LinChecker::owned(RegisterArray).check(&r).is_ok(),
                "seed {seed}"
            );
            let c = random_multikey_counter_vec_trace(&cfg);
            assert!(wf::is_well_formed(&c), "seed {seed}");
            assert!(
                LinChecker::owned(CounterVector).check(&c).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn multikey_generation_is_deterministic_in_the_seed() {
        let cfg = MultiKeyConfig {
            keys: 5,
            skew: 1.2,
            contention: 0.2,
            seed: 17,
            ..Default::default()
        };
        assert_eq!(
            random_multikey_kv_trace(&cfg),
            random_multikey_kv_trace(&cfg)
        );
        assert_eq!(
            random_multikey_set_trace(&cfg),
            random_multikey_set_trace(&cfg)
        );
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let cfg = GenConfig {
            clients: 3,
            steps: 16,
            seed: 99,
        };
        let a = random_linearizable_trace(&Consensus, cfg, cons_input);
        let b = random_linearizable_trace(&Consensus, cfg, cons_input);
        assert_eq!(a, b);
    }

    #[test]
    fn phase_traces_are_well_formed_and_speculatively_linearizable() {
        use crate::initrel::ExactInit;
        use crate::slin::SlinChecker;
        let (m, n) = phase_trace_bounds();
        for seed in 0..8 {
            let cfg = PhaseConfig {
                seed,
                ..Default::default()
            };
            let t = random_phase_kv_trace(&cfg);
            assert!(wf::is_phase_well_formed(&t, m, n), "seed {seed}");
            assert!(t.iter().any(|a| a.is_switch()), "seed {seed}: no switches");
            let chk = SlinChecker::owned(KvStore, ExactInit::new(), m, n);
            assert!(chk.check(&t).is_ok(), "seed {seed}: {:?}", chk.check(&t));
        }
    }

    #[test]
    fn phase_traces_spread_over_keys_and_classify() {
        use slin_adt::{KvKeyPartitioner, Partitioner};
        let cfg = PhaseConfig {
            keys: 5,
            steps: 30,
            seed: 2,
            ..Default::default()
        };
        let t = random_phase_kv_trace(&cfg);
        let distinct: std::collections::BTreeSet<u32> = t
            .iter()
            .filter_map(|a| KvKeyPartitioner.key_of(a.input()))
            .collect();
        assert!(distinct.len() > 1, "all ops on one key");
        assert_eq!(
            t.iter()
                .filter(|a| KvKeyPartitioner.key_of(a.input()).is_none())
                .count(),
            0,
            "every input classifies"
        );
    }

    #[test]
    fn phase_generation_is_deterministic_in_the_seed() {
        let cfg = PhaseConfig {
            keys: 5,
            aborts: 2,
            seed: 11,
            ..Default::default()
        };
        assert_eq!(random_phase_kv_trace(&cfg), random_phase_kv_trace(&cfg));
    }

    #[test]
    fn phase_perturbation_yields_violations() {
        use crate::initrel::ExactInit;
        use crate::slin::SlinChecker;
        let (m, n) = phase_trace_bounds();
        let chk = SlinChecker::owned(KvStore, ExactInit::new(), m, n);
        let mut violations = 0;
        for seed in 0..12 {
            let cfg = PhaseConfig {
                error_prob: 0.5,
                seed,
                ..Default::default()
            };
            let t = random_phase_kv_trace(&cfg);
            assert!(wf::is_phase_well_formed(&t, m, n), "seed {seed}");
            if chk.check(&t).is_err() {
                violations += 1;
            }
        }
        assert!(violations > 0, "expected at least one violation");
    }

    #[test]
    fn hostile_traces_are_well_formed_and_linearizable() {
        // Small enough for the batch checker: long Zipf delays make the
        // whole trace one dense concurrency window, so monolithic batch
        // checking is exponential in it (the very pathology the epoch-GC
        // monitor exists for — the streaming differential suite covers
        // large hostile streams through the windowed monitor instead).
        for seed in 0..12 {
            let cfg = HostileConfig {
                clients: 4,
                steps: 48,
                never_frac: 0.1,
                max_delay: 8,
                seed,
                ..Default::default()
            };
            let t = random_hostile_kv_trace(&cfg);
            assert!(wf::is_well_formed(&t), "seed {seed}");
            assert!(LinChecker::owned(KvStore).check(&t).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn hostile_traces_never_quiesce() {
        let mut stuck_total = 0;
        for seed in 0..10 {
            let cfg = HostileConfig {
                steps: 300,
                never_frac: 0.15,
                seed,
                ..Default::default()
            };
            let t = random_hostile_kv_trace(&cfg);
            let invokes = t.iter().filter(|a| a.is_invoke()).count();
            let responds = t.iter().filter(|a| a.is_respond()).count();
            assert!(invokes > responds, "seed {seed}: stream quiesced");
            stuck_total += invokes - responds;
        }
        assert!(stuck_total >= 10, "never-responding fraction too thin");
    }

    #[test]
    fn hostile_delays_straddle_many_events() {
        // The Zipf delay tail must actually produce long-pending
        // operations: some response arrives many events after its invoke.
        let cfg = HostileConfig {
            steps: 400,
            never_frac: 0.0,
            delay_zipf: 0.8,
            ..Default::default()
        };
        let t = random_hostile_kv_trace(&cfg);
        let mut max_span = 0;
        let mut open: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for (i, a) in t.iter().enumerate() {
            if a.is_invoke() {
                open.insert(a.client().value(), i);
            } else if let Some(j) = open.remove(&a.client().value()) {
                max_span = max_span.max(i - j);
            }
        }
        assert!(max_span >= 12, "longest pending span only {max_span}");
    }

    #[test]
    fn hostile_generation_is_deterministic_in_the_seed() {
        let cfg = HostileConfig {
            steps: 200,
            seed: 23,
            ..Default::default()
        };
        assert_eq!(random_hostile_kv_trace(&cfg), random_hostile_kv_trace(&cfg));
    }

    #[test]
    fn hostile_perturbation_yields_violations() {
        let mut violations = 0;
        for seed in 0..12 {
            let cfg = HostileConfig {
                clients: 4,
                steps: 36,
                max_delay: 6,
                error_prob: 0.3,
                seed,
                ..Default::default()
            };
            let t = random_hostile_kv_trace(&cfg);
            assert!(wf::is_well_formed(&t), "seed {seed}");
            if LinChecker::owned(KvStore).check(&t).is_err() {
                violations += 1;
            }
        }
        assert!(violations > 0, "expected at least one violation");
    }
}
