//! Deterministic multi-tenant load generation and an in-process
//! transport, for the `slin-daemon` binary and the integration tests.
//!
//! Each tenant gets its own hostile never-quiescent KV stream (the
//! checker's own [`random_hostile_kv_trace`] generator); the generator
//! then interleaves tenants under a Zipf skew — a few hot tenants carry
//! most of the traffic, the tail trickles — encodes the interleaving into
//! wire chunks, and keeps the per-tenant traces as reference oracles for
//! differential testing. The transport is a bounded
//! [`std::sync::mpsc::sync_channel`] of byte chunks: a producer thread
//! replays the workload, the daemon consumes — saturating the channel
//! exercises the real backpressure path without sockets.

use crate::wire::{encode_frame, Frame, KvAction};
use rand::rngs::StdRng;
use rand::SeedableRng;
use slin_adt::KvStore;
use slin_core::gen::{random_hostile_kv_trace, sample_cumulative, zipf_cumulative, HostileConfig};
use slin_core::ObjAction;
use slin_trace::{Action, Trace};
use std::collections::BTreeMap;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

/// Shape of one generated multi-tenant workload.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Number of tenants, with ids `0..tenants`.
    pub tenants: u64,
    /// Generation steps per tenant stream (events per tenant is slightly
    /// below this; see [`HostileConfig::steps`]).
    pub steps_per_tenant: usize,
    /// Concurrent clients within each tenant stream.
    pub clients: u32,
    /// Distinct keys within each tenant's key-space.
    pub keys: u32,
    /// Zipf exponent of the tenant interleave: 0.0 is uniform, larger
    /// values concentrate traffic on low-numbered tenants.
    pub tenant_skew: f64,
    /// Per-operation output perturbation probability (0.0 generates
    /// linearizable-by-construction streams).
    pub error_prob: f64,
    /// Frames per transport chunk.
    pub chunk_frames: usize,
    /// Workload seed; equal seeds give byte-equal workloads.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            tenants: 8,
            steps_per_tenant: 200,
            clients: 4,
            keys: 4,
            tenant_skew: 1.0,
            error_prob: 0.0,
            chunk_frames: 64,
            seed: 0,
        }
    }
}

/// A generated workload: the wire chunks to replay, plus the per-tenant
/// reference traces (each tenant's actions in stream order — the daemon
/// preserves per-tenant order, so these are the differential oracles).
pub struct Workload {
    /// Encoded transport chunks, in replay order.
    pub chunks: Vec<Vec<u8>>,
    /// Per-tenant reference traces.
    pub reference: BTreeMap<u64, Trace<KvAction>>,
    /// Total frames across all chunks.
    pub frames: usize,
}

/// Retags the checker generator's unit-valued actions to the wire's
/// `Vec<KvInput>` switch-value type. Hostile streams are switch-free, so
/// only the phantom value parameter changes; a switch would retag to the
/// empty candidate set.
fn retag(a: ObjAction<KvStore, ()>) -> KvAction {
    match a {
        Action::Invoke {
            client,
            phase,
            input,
        } => Action::invoke(client, phase, input),
        Action::Respond {
            client,
            phase,
            input,
            output,
        } => Action::respond(client, phase, input, output),
        Action::Switch {
            client,
            phase,
            input,
            ..
        } => Action::switch(client, phase, input, Vec::new()),
    }
}

/// Generates a multi-tenant workload (deterministic in the seed).
pub fn generate(cfg: &LoadConfig) -> Workload {
    let tenants = cfg.tenants.max(1);
    // Per-tenant hostile streams, each on its own derived seed.
    let mut streams: Vec<Vec<KvAction>> = (0..tenants)
        .map(|tenant| {
            let hostile = HostileConfig {
                clients: cfg.clients,
                steps: cfg.steps_per_tenant,
                keys: cfg.keys,
                error_prob: cfg.error_prob,
                seed: cfg
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(tenant),
                ..HostileConfig::default()
            };
            random_hostile_kv_trace(&hostile)
                .iter()
                .cloned()
                .map(retag)
                .collect()
        })
        .collect();

    // Zipf interleave: sample a tenant, emit its next action; exhausted
    // tenants pass to the next live one so every stream drains fully.
    let weights = zipf_cumulative(tenants as usize, cfg.tenant_skew);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD6E8_FEB8_6659_FD93);
    let mut cursors = vec![0usize; tenants as usize];
    let mut remaining: usize = streams.iter().map(|s| s.len()).sum();
    let mut reference: BTreeMap<u64, Trace<KvAction>> = BTreeMap::new();
    let mut chunks = Vec::new();
    let mut chunk = Vec::new();
    let mut frames_in_chunk = 0usize;
    let frames = remaining;
    while remaining > 0 {
        let mut tenant = sample_cumulative(&mut rng, &weights);
        while cursors[tenant] >= streams[tenant].len() {
            tenant = (tenant + 1) % tenants as usize;
        }
        let action = streams[tenant][cursors[tenant]].clone();
        cursors[tenant] += 1;
        remaining -= 1;
        encode_frame(
            &mut chunk,
            &Frame {
                tenant: tenant as u64,
                action: action.clone(),
            },
        );
        frames_in_chunk += 1;
        reference.entry(tenant as u64).or_default().push(action);
        if frames_in_chunk >= cfg.chunk_frames.max(1) {
            chunks.push(std::mem::take(&mut chunk));
            frames_in_chunk = 0;
        }
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    for stream in streams.iter_mut() {
        stream.clear();
    }
    Workload {
        chunks,
        reference,
        frames,
    }
}

/// Replays `chunks` over a bounded in-process transport. The producer
/// thread blocks when the consumer lags `capacity` chunks behind —
/// transport-level backpressure, upstream of the daemon's per-tenant
/// queues. Join the handle after draining the receiver.
pub fn transport(chunks: Vec<Vec<u8>>, capacity: usize) -> (Receiver<Vec<u8>>, JoinHandle<()>) {
    let (tx, rx) = sync_channel(capacity.max(1));
    let handle = std::thread::spawn(move || {
        for chunk in chunks {
            // The consumer hanging up is a normal shutdown, not a fault.
            if tx.send(chunk).is_err() {
                break;
            }
        }
    });
    (rx, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode_frames;

    #[test]
    fn workload_is_deterministic_and_reference_matches_chunks() {
        let cfg = LoadConfig {
            tenants: 4,
            steps_per_tenant: 60,
            chunk_frames: 16,
            seed: 7,
            ..LoadConfig::default()
        };
        let w1 = generate(&cfg);
        let w2 = generate(&cfg);
        assert_eq!(w1.chunks, w2.chunks, "same seed, same bytes");
        assert_eq!(w1.frames, w2.frames);

        // Decoding the chunks and regrouping by tenant reproduces the
        // reference traces exactly (order preserved within each tenant).
        let mut regrouped: BTreeMap<u64, Vec<KvAction>> = BTreeMap::new();
        for chunk in &w1.chunks {
            for frame in decode_frames(chunk).unwrap() {
                regrouped
                    .entry(frame.tenant)
                    .or_default()
                    .push(frame.action);
            }
        }
        assert_eq!(regrouped.len(), w1.reference.len());
        for (tenant, actions) in regrouped {
            let reference: Vec<KvAction> = w1.reference[&tenant].iter().cloned().collect();
            assert_eq!(actions, reference, "tenant {tenant}");
        }
    }

    #[test]
    fn skew_concentrates_traffic_on_hot_tenants() {
        let cfg = LoadConfig {
            tenants: 16,
            steps_per_tenant: 40,
            tenant_skew: 1.5,
            chunk_frames: 1024,
            seed: 3,
            ..LoadConfig::default()
        };
        let w = generate(&cfg);
        // All tenants drain fully regardless of skew…
        let total: usize = w.reference.values().map(|t| t.len()).sum();
        assert_eq!(total, w.frames);
        assert_eq!(w.reference.len(), 16);
    }

    #[test]
    fn transport_replays_all_chunks_through_a_bounded_channel() {
        let cfg = LoadConfig {
            tenants: 3,
            steps_per_tenant: 50,
            chunk_frames: 8,
            ..LoadConfig::default()
        };
        let w = generate(&cfg);
        let expected = w.chunks.clone();
        let (rx, handle) = transport(w.chunks, 2);
        let got: Vec<Vec<u8>> = rx.iter().collect();
        handle.join().unwrap();
        assert_eq!(got, expected);
    }
}
