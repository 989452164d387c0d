//! The correctness oracle — not the code under test at run time.
//!
//! Seed 0 is checked against the committed `expected/seed0.json` (per-trace
//! ok/violation for both batch corpora, per-tenant final status for
//! `fleet-calm`, per-stream verdicts for `stream-*`). Any other seed falls
//! back to the reference path — one `Strategy::Monolithic`, `.threads(1)`
//! search per trace or tenant — computed untimed, after the clock has
//! stopped. Clean workloads must also be Ok by construction.

use crate::drive::{mono_phase_session, slin_code, tenant_checker, OK};
use crate::json::Json;
use crate::workloads::{Inputs, Scale, Workload};
use slin_adt::{KvInput, KvKeyPartitioner};
use slin_core::session::{Checker, Session, Strategy};

/// The committed seed-0 verdicts, embedded at build time so a run reads
/// nothing but its own binary.
const SEED0: &str = include_str!("../expected/seed0.json");

/// Schema tag of `expected/seed0.json`.
pub const SCHEMA: &str = "slin-benchmark-expected/v1";

/// Expected verdict codes for one pass, aligned with
/// `PassOutput::outputs`, and where they came from.
pub struct Expected {
    pub codes: Vec<u8>,
    pub source: &'static str,
}

/// The oracle's verdicts for `inputs`.
pub fn expected(w: Workload, seed: u64, scale: Scale, inputs: &Inputs) -> Expected {
    if seed == 0 && scale == Scale::Full {
        if let Some(codes) = committed(w, inputs) {
            return Expected {
                codes,
                source: "expected/seed0.json",
            };
        }
    }
    Expected {
        codes: reference(inputs),
        source: match inputs {
            Inputs::Streams { .. } => "ok by construction",
            _ => "monolithic reference",
        },
    }
}

/// Looks `w` up in the embedded file; `None` when the entry is missing or
/// was recorded for different input bytes (the generator changed).
fn committed(w: Workload, inputs: &Inputs) -> Option<Vec<u8>> {
    let doc = Json::parse(SEED0).ok()?;
    let entry = doc.get("workloads")?.get(w.name())?;
    if entry.get("digest")?.as_str()? != format!("{:016x}", inputs.digest()) {
        return None;
    }
    let per_item = decode(entry.get("verdicts")?.as_str()?)?;
    let codes = align(inputs, per_item);
    (codes.len() == output_len(inputs)).then_some(codes)
}

/// Codes a pass reports for `inputs`.
fn output_len(inputs: &Inputs) -> usize {
    match inputs {
        Inputs::Fleet { reference, .. } => reference.len(),
        Inputs::Streams { streams, .. } => inputs.units() + streams.len(),
        Inputs::Traces { traces } => traces.len(),
    }
}

/// A stream pass reports one rolling status per response and then one
/// final verdict per stream; the oracle knows one verdict per stream. A
/// stream the oracle accepts must be Ok at every prefix; the streams of
/// this benchmark are all accepted (clean by construction), so a rejected
/// one is aligned as a violation at every unit and will fail loudly.
fn align(inputs: &Inputs, per_item: Vec<u8>) -> Vec<u8> {
    match inputs {
        Inputs::Streams { streams, .. } => {
            let mut codes = Vec::with_capacity(output_len(inputs));
            for (stream, code) in streams.iter().zip(&per_item) {
                let units = stream.iter().filter(|a| !a.is_invoke()).count();
                codes.extend(std::iter::repeat_n(*code, units));
            }
            codes.extend(per_item);
            codes
        }
        _ => per_item,
    }
}

/// One reference verdict per tenant / stream / trace.
///
/// The `stream-*` inputs are Ok by construction — the generator plays an
/// atomic object — and that is their oracle: a monolithic search of a
/// never-quiescent single-key stream exhausts its node budget more often
/// than it decides, so it cannot serve as a reference there.
fn reference_items(inputs: &Inputs) -> Vec<u8> {
    match inputs {
        Inputs::Fleet { reference, .. } => in_halves(reference, |part| {
            let mut session: Session<_, Vec<KvInput>, KvKeyPartitioner> =
                Checker::builder(tenant_checker())
                    .partitioner(KvKeyPartitioner)
                    .strategy(Strategy::Monolithic)
                    .threads(1)
                    .build();
            part.iter()
                .map(|t| slin_code(&session.check(t).outcome))
                .collect()
        }),
        Inputs::Streams { streams, .. } => vec![OK; streams.len()],
        Inputs::Traces { traces } => in_halves(traces, |part| {
            let mut session = mono_phase_session();
            part.iter()
                .map(|t| slin_code(&session.check(t).outcome))
                .collect()
        }),
    }
}

/// Runs `check` over the two halves of `items` on two threads (each with
/// its own single-threaded session) and concatenates the results: the
/// reference searches are untimed, so only their wall matters.
fn in_halves<T: Sync>(items: &[T], check: impl Fn(&[T]) -> Vec<u8> + Sync) -> Vec<u8> {
    let (left, right) = items.split_at(items.len() / 2);
    std::thread::scope(|scope| {
        let second = scope.spawn(|| check(right));
        let mut codes = check(left);
        codes.extend(second.join().expect("a reference search panicked"));
        codes
    })
}

fn reference(inputs: &Inputs) -> Vec<u8> {
    align(inputs, reference_items(inputs))
}

/// Units of `outputs` that disagree with the oracle (a missing verdict
/// counts as a disagreement).
pub fn mismatches(outputs: &[u8], expected: &[u8]) -> u64 {
    let differing = outputs.iter().zip(expected).filter(|(a, b)| a != b).count();
    (differing + outputs.len().abs_diff(expected.len())) as u64
}

fn encode(codes: &[u8]) -> String {
    codes.iter().map(|c| (b'0' + c) as char).collect()
}

fn decode(text: &str) -> Option<Vec<u8>> {
    text.bytes()
        .map(|b| b.is_ascii_digit().then(|| b - b'0'))
        .collect()
}

/// The `expected/seed0.json` document for the given full-size seed-0
/// inputs, computed through the reference path (`--write-expected`).
pub fn seed0_document(all: &[(Workload, Inputs)]) -> Json {
    let workloads = all
        .iter()
        .map(|(w, inputs)| {
            let items = reference_items(inputs);
            (
                w.name(),
                Json::obj(vec![
                    ("digest", Json::str(format!("{:016x}", inputs.digest()))),
                    ("items", Json::Num(items.len() as f64)),
                    ("verdicts", Json::str(encode(&items))),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("seed", Json::Num(0.0)),
        (
            "codes",
            Json::str("0 ok, 1 violation, 2 no verdict (budget), 3 other"),
        ),
        ("workloads", Json::obj(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::VIOLATION;
    use crate::workloads::generate;

    #[test]
    fn codes_round_trip_and_mismatches_count_missing_units() {
        assert_eq!(decode(&encode(&[0, 1, 2, 3])), Some(vec![0, 1, 2, 3]));
        assert_eq!(decode("01x"), None);
        assert_eq!(mismatches(&[0, 1, 0], &[0, 1, 0]), 0);
        assert_eq!(mismatches(&[0, 1, 1], &[0, 1, 0]), 1);
        assert_eq!(mismatches(&[0], &[0, 1, 0]), 2, "missing verdicts fail");
    }

    #[test]
    fn the_committed_file_covers_every_workload_at_seed_zero() {
        let doc = Json::parse(SEED0).expect("expected/seed0.json parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        for w in Workload::ALL {
            let inputs = generate(w, 0, Scale::Full);
            let codes = committed(w, &inputs)
                .unwrap_or_else(|| panic!("{}: no committed verdicts for these bytes", w.name()));
            assert_eq!(codes.len(), output_len(&inputs));
            if w.clean() {
                assert!(codes.iter().all(|c| *c == OK), "{} is clean", w.name());
            } else {
                assert!(codes.contains(&VIOLATION) && codes.contains(&OK));
            }
        }
    }

    #[test]
    fn the_reference_path_agrees_with_construction_on_quick_inputs() {
        for w in Workload::ALL {
            let inputs = generate(w, 3, Scale::Quick);
            let e = expected(w, 3, Scale::Quick, &inputs);
            assert_ne!(e.source, "expected/seed0.json");
            assert_eq!(e.codes.len(), output_len(&inputs));
            assert_eq!(e.codes.iter().all(|c| *c == OK), w.clean(), "{}", w.name());
        }
    }
}
