//! The five workloads: what each one feeds the program, generated from
//! `--seed` alone. The program under test receives only these inputs.
//!
//! Sizes are fixed here, not on the command line, so two runs of the
//! benchmark always measure the same amount of work; `Scale::Quick`
//! shortens every input for smoke runs and is never used for a reported
//! number.

use slin_adt::{KvInput, KvStore};
use slin_core::gen::{
    random_hostile_kv_trace, random_multikey_kv_trace, random_phase_kv_trace, HostileConfig,
    MultiKeyConfig, PhaseConfig,
};
use slin_core::ObjAction;
use slin_daemon::wire::{encode_frame, Frame, KvAction};
use slin_trace::{Action, Trace};

/// Actions of a plain-linearizability stream (no switch values).
pub type LinAction = ObjAction<KvStore, ()>;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetCalm,
    StreamHotkey,
    StreamStragglers,
    BatchClean,
    BatchRefute,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FleetCalm,
        Workload::StreamHotkey,
        Workload::StreamStragglers,
        Workload::BatchClean,
        Workload::BatchRefute,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetCalm => "fleet-calm",
            Workload::StreamHotkey => "stream-hotkey",
            Workload::StreamStragglers => "stream-stragglers",
            Workload::BatchClean => "batch-clean",
            Workload::BatchRefute => "batch-refute",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every input of this workload is correct by construction
    /// (so any non-Ok verdict, fallback or lossy cut is a failure).
    pub fn clean(self) -> bool {
        !matches!(self, Workload::BatchRefute)
    }
}

/// Full-size inputs, or shortened ones for `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    fn pick(self, full: usize, quick: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Frames per wire chunk on `fleet-calm`: one chunk is one latency unit.
pub const FLEET_CHUNK_FRAMES: usize = 64;
/// Tenants on `fleet-calm`.
pub const FLEET_TENANTS: usize = 512;
/// GC window of the `fleet-calm` tenants.
pub const FLEET_WINDOW: usize = 32;
/// Ingress-queue bound of the `fleet-calm` tenants; never reached on a
/// calm fleet, so a shed is a failure.
pub const FLEET_QUEUE: usize = 4096;
/// Worker lanes / checker threads, pinned: never `available_parallelism`.
pub const THREADS: usize = 2;

/// The generated inputs of one workload.
pub enum Inputs {
    /// Wire chunks for the daemon plus each tenant's reference stream.
    Fleet {
        chunks: Vec<Vec<u8>>,
        reference: Vec<Trace<KvAction>>,
        frames: usize,
    },
    /// Independent event streams, each for a fresh streaming session with
    /// the given GC window.
    Streams {
        streams: Vec<Trace<LinAction>>,
        window: usize,
    },
    /// Closed phase traces for `Session::check`.
    Traces { traces: Vec<Trace<KvAction>> },
}

impl Inputs {
    /// Events the workload checks in one pass.
    pub fn events(&self) -> usize {
        match self {
            Inputs::Fleet { frames, .. } => *frames,
            Inputs::Streams { streams, .. } => streams.iter().map(Trace::len).sum(),
            Inputs::Traces { traces } => traces.iter().map(Trace::len).sum(),
        }
    }

    /// Latency units (verdict-bearing steps) in one pass.
    pub fn units(&self) -> usize {
        match self {
            Inputs::Fleet { chunks, .. } => chunks.len(),
            Inputs::Streams { streams, .. } => streams
                .iter()
                .map(|s| s.iter().filter(|a| !a.is_invoke()).count())
                .sum(),
            Inputs::Traces { traces } => traces.len(),
        }
    }

    /// FNV-1a digest of the inputs, for the same-seed ⇒ same-bytes check.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            Inputs::Fleet { chunks, .. } => {
                for c in chunks {
                    h.write(&(c.len() as u64).to_le_bytes());
                    h.write(c);
                }
            }
            Inputs::Streams { streams, window } => {
                h.write(&(*window as u64).to_le_bytes());
                for s in streams {
                    h.write(format!("{s:?}").as_bytes());
                }
            }
            Inputs::Traces { traces } => {
                for t in traces {
                    h.write(format!("{t:?}").as_bytes());
                }
            }
        }
        h.finish()
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own generator for seed derivation and the
/// tenant interleave, so inputs do not depend on the workspace's `rand`
/// stand-in.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of the `index`-th sub-input of workload `w` under `--seed`.
fn sub_seed(seed: u64, w: Workload, index: usize) -> u64 {
    let mut mix = SplitMix::new(
        seed.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .wrapping_add((w as u64) << 32)
            .wrapping_add(index as u64),
    );
    mix.next_u64()
}

/// Retags a generator action (unit switch values) to the wire's
/// `Vec<KvInput>` switch-value type; the streams are switch-free.
fn retag(a: &LinAction) -> KvAction {
    match a {
        Action::Invoke {
            client,
            phase,
            input,
        } => Action::invoke(*client, *phase, *input),
        Action::Respond {
            client,
            phase,
            input,
            output,
        } => Action::respond(*client, *phase, *input, *output),
        Action::Switch {
            client,
            phase,
            input,
            ..
        } => Action::switch(*client, *phase, *input, Vec::<KvInput>::new()),
    }
}

/// Generates the inputs of `w` from `seed` (deterministic).
pub fn generate(w: Workload, seed: u64, scale: Scale) -> Inputs {
    match w {
        Workload::FleetCalm => fleet_calm(seed, scale),
        Workload::StreamHotkey => {
            // B6 `keys=1`: three clients on one key, quiescent often
            // enough for window GC, hostile to the frontier.
            let streams = scale.pick(HOTKEY_STREAMS, 2);
            let steps = scale.pick(HOTKEY_STEPS, 120);
            Inputs::Streams {
                streams: (0..streams)
                    .map(|i| {
                        random_multikey_kv_trace(&MultiKeyConfig {
                            clients: 3,
                            steps,
                            keys: 1,
                            skew: 0.0,
                            contention: 0.0,
                            error_prob: 0.0,
                            seed: sub_seed(seed, w, i),
                        })
                    })
                    .collect(),
                window: 32,
            }
        }
        Workload::StreamStragglers => {
            // The B6h `hostile stragglers` shape: a fraction of invocations
            // never responds, so from the first wedged client on every cut
            // is an epoch cut. Three clients, not four: with four, the
            // cost of a stream depends on when a client wedges by a factor
            // of thousands, and no bound holds across seeds.
            let streams = scale.pick(STRAGGLER_STREAMS, 2);
            let steps = scale.pick(STRAGGLER_STEPS, 160);
            Inputs::Streams {
                streams: (0..streams)
                    .map(|i| {
                        random_hostile_kv_trace(&HostileConfig {
                            clients: 3,
                            steps,
                            keys: 1,
                            skew: 0.7,
                            never_frac: 0.005,
                            stuck_applies: true,
                            delay_zipf: 1.3,
                            max_delay: 12,
                            error_prob: 0.0,
                            seed: sub_seed(seed, w, i),
                        })
                    })
                    .collect(),
                window: 16,
            }
        }
        Workload::BatchClean => {
            let n = scale.pick(BATCH_CLEAN_TRACES, 100);
            Inputs::Traces {
                traces: (0..n)
                    .map(|i| {
                        random_phase_kv_trace(&PhaseConfig {
                            keys: 4,
                            error_prob: 0.0,
                            seed: sub_seed(seed, w, i),
                            ..PHASE_BASE
                        })
                    })
                    .collect(),
            }
        }
        Workload::BatchRefute => {
            let n = scale.pick(BATCH_REFUTE_TRACES, 60);
            Inputs::Traces {
                traces: (0..n)
                    .map(|i| {
                        random_phase_kv_trace(&PhaseConfig {
                            keys: [1, 2, 4, 8][i % 4],
                            error_prob: 0.4,
                            seed: sub_seed(seed, w, i),
                            ..PHASE_BASE
                        })
                    })
                    .collect(),
            }
        }
    }
}

pub const HOTKEY_STREAMS: usize = 30;
pub const HOTKEY_STEPS: usize = 200;
pub const STRAGGLER_STREAMS: usize = 90;
pub const STRAGGLER_STEPS: usize = 300;
pub const BATCH_CLEAN_TRACES: usize = 2000;
pub const BATCH_REFUTE_TRACES: usize = 1000;

/// The B10 phase-trace shape both batch corpora share.
const PHASE_BASE: PhaseConfig = PhaseConfig {
    clients: 4,
    steps: 36,
    keys: 4,
    skew: 0.3,
    prefix_ops: 4,
    aborts: 2,
    error_prob: 0.0,
    seed: 0,
};

fn fleet_calm(seed: u64, scale: Scale) -> Inputs {
    let w = Workload::FleetCalm;
    let tenants = scale.pick(FLEET_TENANTS, 64);
    let steps = scale.pick(200, 80);
    let streams: Vec<Vec<KvAction>> = (0..tenants)
        .map(|tenant| {
            random_multikey_kv_trace(&MultiKeyConfig {
                clients: 2,
                steps,
                keys: 4,
                skew: 0.6,
                contention: 0.0,
                error_prob: 0.0,
                seed: sub_seed(seed, w, tenant),
            })
            .iter()
            .map(retag)
            .collect()
        })
        .collect();

    // Zipf-0.8 interleave: sample a tenant, emit its next action; an
    // exhausted tenant passes to the next live one so every stream drains.
    let mut acc = 0.0;
    let cumulative: Vec<f64> = (1..=tenants)
        .map(|k| {
            acc += f64::powf(k as f64, -0.8);
            acc
        })
        .collect();
    let mut rng = SplitMix::new(sub_seed(seed, w, usize::MAX));
    let mut cursors = vec![0usize; tenants];
    let frames: usize = streams.iter().map(Vec::len).sum();
    let mut reference: Vec<Trace<KvAction>> = (0..tenants).map(|_| Trace::new()).collect();
    let mut chunks = Vec::with_capacity(frames / FLEET_CHUNK_FRAMES + 1);
    let mut chunk = Vec::new();
    let mut in_chunk = 0usize;
    for _ in 0..frames {
        let r = rng.next_f64() * acc;
        let mut tenant = cumulative.partition_point(|&c| c <= r).min(tenants - 1);
        while cursors[tenant] >= streams[tenant].len() {
            tenant = (tenant + 1) % tenants;
        }
        let action = streams[tenant][cursors[tenant]].clone();
        cursors[tenant] += 1;
        encode_frame(
            &mut chunk,
            &Frame {
                tenant: tenant as u64,
                action: action.clone(),
            },
        );
        reference[tenant].push(action);
        in_chunk += 1;
        if in_chunk == FLEET_CHUNK_FRAMES {
            chunks.push(std::mem::take(&mut chunk));
            in_chunk = 0;
        }
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    Inputs::Fleet {
        chunks,
        reference,
        frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = generate(w, 7, Scale::Quick);
            let b = generate(w, 7, Scale::Quick);
            let c = generate(w, 8, Scale::Quick);
            assert_eq!(
                a.digest(),
                b.digest(),
                "{}: same seed, same inputs",
                w.name()
            );
            assert_ne!(
                a.digest(),
                c.digest(),
                "{}: the seed reaches the inputs",
                w.name()
            );
            assert_eq!((a.events(), a.units()), (b.events(), b.units()));
        }
        // The digest covers the bytes themselves, not just their count.
        let (Inputs::Fleet { chunks: a, .. }, Inputs::Fleet { chunks: b, .. }) = (
            generate(Workload::FleetCalm, 7, Scale::Quick),
            generate(Workload::FleetCalm, 7, Scale::Quick),
        ) else {
            panic!("fleet-calm generates wire chunks");
        };
        assert_eq!(a, b);
    }

    #[test]
    fn every_full_size_workload_has_a_thousand_units() {
        // So that p99 has at least ten samples beyond it.
        for w in Workload::ALL {
            let inputs = generate(w, 0, Scale::Full);
            assert!(
                inputs.units() >= 1000,
                "{}: {} units",
                w.name(),
                inputs.units()
            );
            assert_eq!(crate::stats::tail_quantile(inputs.units()), 0.99);
        }
    }

    #[test]
    fn fleet_chunks_decode_back_to_the_reference_streams() {
        let Inputs::Fleet {
            chunks,
            reference,
            frames,
        } = generate(Workload::FleetCalm, 3, Scale::Quick)
        else {
            panic!("fleet-calm generates wire chunks");
        };
        let mut regrouped: Vec<Vec<KvAction>> = vec![Vec::new(); reference.len()];
        let mut decoder = slin_daemon::wire::Decoder::new();
        for chunk in &chunks {
            decoder.feed(chunk);
            while let Some(frame) = decoder.next_frame().expect("chunks decode") {
                regrouped[frame.tenant as usize].push(frame.action);
            }
        }
        assert_eq!(regrouped.iter().map(Vec::len).sum::<usize>(), frames);
        for (tenant, actions) in regrouped.iter().enumerate() {
            assert_eq!(
                actions.as_slice(),
                reference[tenant].as_slice(),
                "tenant {tenant}"
            );
        }
        assert!(chunks[..chunks.len() - 1].iter().all(|c| !c.is_empty()));
    }
}
