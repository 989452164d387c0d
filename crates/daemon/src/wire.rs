//! The daemon's wire format: length-prefixed frames carrying one tenant's
//! [`KvAction`] each.
//!
//! The format is deliberately hand-rolled (the build environment has no
//! crates.io access, and the paper's action alphabet is tiny): every
//! multi-byte integer is little-endian, every frame is self-delimiting,
//! and a [`Decoder`] consumes arbitrary chunkings of the byte stream —
//! frames may be split across reads or packed many to a chunk.
//!
//! # Frame layout
//!
//! | field    | size | meaning                                         |
//! |----------|------|-------------------------------------------------|
//! | `len`    | u32  | byte length of the body that follows            |
//! | `tenant` | u64  | tenant id (key-space / session selector)        |
//! | `kind`   | u8   | 0 = invoke, 1 = respond, 2 = switch             |
//! | `client` | u32  | client id (≥ 1)                                 |
//! | `phase`  | u32  | phase id (≥ 1)                                  |
//! | input    | var  | `op: u8` (0 put, 1 get, 2 delete), `key: u32`, and for put `value: u64` |
//! | output   | var  | respond only: `tag: u8` (0 ack, 1 not-found, 2 found), and for found `value: u64` |
//! | value    | var  | switch only: `count: u8` (≤ [`MAX_SWITCH_VALUE`]) then `count` encoded inputs — the `rinit` candidate history the switch carries |
//!
//! Switch frames carry the candidate init history as a bounded input
//! list, so tenants can close a stream with an abort switch and the
//! daemon's speculative sessions can interpret it (re-checked per class
//! under a switch-independence certificate, whole otherwise).

use slin_adt::{KvInput, KvOutput, KvStore};
use slin_core::ObjAction;
use slin_trace::{Action, ClientId, PhaseId};
use std::fmt;

/// One object action of the daemon's KV alphabet. The switch annotation
/// is the exact-init candidate history (what [`slin_core::initrel::ExactInit`]
/// interprets).
pub type KvAction = ObjAction<KvStore, Vec<KvInput>>;

/// Most inputs a switch frame's candidate value may carry — bounds both
/// the frame size and the speculative checker's interpretation work per
/// switch.
pub const MAX_SWITCH_VALUE: usize = 16;

/// One decoded unit of ingress: a tenant id and its action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The tenant (independent key-space / session) this action belongs to.
    pub tenant: u64,
    /// The action itself.
    pub action: KvAction,
}

/// The largest body any well-formed frame can have (`tenant + kind +
/// client + phase + put-input`, plus the larger of a found-output and a
/// full-length switch value of put-inputs). Larger length prefixes are
/// rejected before buffering, so a corrupt stream cannot make the decoder
/// allocate unboundedly.
pub const MAX_BODY_LEN: usize = 8 + 1 + 4 + 4 + 13 + 1 + MAX_SWITCH_VALUE * 13;

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_BODY_LEN`].
    FrameTooLarge {
        /// The advertised body length.
        len: usize,
    },
    /// The frame kind byte is not 0/1/2.
    BadKind(u8),
    /// The input opcode byte is not 0/1/2.
    BadOpcode(u8),
    /// The output tag byte is not 0/1/2.
    BadOutputTag(u8),
    /// The body ended before its fields did.
    Truncated,
    /// The body is longer than its fields.
    TrailingBytes {
        /// Bytes left over after the last field.
        extra: usize,
    },
    /// A client or phase id of 0 (both are 1-based on the wire).
    ZeroId,
    /// A switch frame's value count exceeds [`MAX_SWITCH_VALUE`].
    SwitchValueTooLong {
        /// The advertised input count.
        len: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds the {MAX_BODY_LEN}-byte cap"
                )
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadOpcode(op) => write!(f, "unknown input opcode {op}"),
            WireError::BadOutputTag(t) => write!(f, "unknown output tag {t}"),
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last frame field")
            }
            WireError::ZeroId => write!(f, "client and phase ids are 1-based; got 0"),
            WireError::SwitchValueTooLong { len } => {
                write!(
                    f,
                    "switch value of {len} inputs exceeds the {MAX_SWITCH_VALUE}-input cap"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

fn encode_input(out: &mut Vec<u8>, input: &KvInput) {
    match *input {
        KvInput::Put(k, v) => {
            out.push(0);
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        KvInput::Get(k) => {
            out.push(1);
            out.extend_from_slice(&k.to_le_bytes());
        }
        KvInput::Delete(k) => {
            out.push(2);
            out.extend_from_slice(&k.to_le_bytes());
        }
    }
}

/// Appends one encoded frame to `out`.
///
/// # Panics
///
/// If a switch frame's candidate value exceeds [`MAX_SWITCH_VALUE`]
/// inputs — such an action is not representable on the wire.
pub fn encode_frame(out: &mut Vec<u8>, frame: &Frame) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&frame.tenant.to_le_bytes());
    let (kind, client, phase, input) = match &frame.action {
        Action::Invoke {
            client,
            phase,
            input,
        } => (0u8, client, phase, input),
        Action::Respond {
            client,
            phase,
            input,
            ..
        } => (1, client, phase, input),
        Action::Switch {
            client,
            phase,
            input,
            ..
        } => (2, client, phase, input),
    };
    out.push(kind);
    out.extend_from_slice(&client.value().to_le_bytes());
    out.extend_from_slice(&phase.value().to_le_bytes());
    encode_input(out, input);
    match &frame.action {
        Action::Respond { output, .. } => match output {
            KvOutput::Ack => out.push(0),
            KvOutput::Found(None) => out.push(1),
            KvOutput::Found(Some(v)) => {
                out.push(2);
                out.extend_from_slice(&v.to_le_bytes());
            }
        },
        Action::Switch { value, .. } => {
            assert!(
                value.len() <= MAX_SWITCH_VALUE,
                "switch value of {} inputs exceeds the wire cap of {MAX_SWITCH_VALUE}",
                value.len()
            );
            out.push(value.len() as u8);
            for input in value {
                encode_input(out, input);
            }
        }
        Action::Invoke { .. } => {}
    }
    let body_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Encodes a whole frame sequence into one contiguous byte stream.
pub fn encode_frames<'a>(frames: impl IntoIterator<Item = &'a Frame>) -> Vec<u8> {
    let mut out = Vec::new();
    for frame in frames {
        encode_frame(&mut out, frame);
    }
    out
}

/// A little-endian field reader over one frame body.
struct Body<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let end = self.pos + N;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take()?))
    }
}

fn decode_input(body: &mut Body<'_>) -> Result<KvInput, WireError> {
    Ok(match body.u8()? {
        0 => KvInput::Put(body.u32()?, body.u64()?),
        1 => KvInput::Get(body.u32()?),
        2 => KvInput::Delete(body.u32()?),
        op => return Err(WireError::BadOpcode(op)),
    })
}

/// Decodes one complete frame body (everything after the length prefix).
fn decode_body(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut body = Body { bytes, pos: 0 };
    let tenant = body.u64()?;
    let kind = body.u8()?;
    let client = body.u32()?;
    let phase = body.u32()?;
    if client == 0 || phase == 0 {
        return Err(WireError::ZeroId);
    }
    let (client, phase) = (ClientId::new(client), PhaseId::new(phase));
    let input = decode_input(&mut body)?;
    let action = match kind {
        0 => Action::invoke(client, phase, input),
        1 => {
            let output = match body.u8()? {
                0 => KvOutput::Ack,
                1 => KvOutput::Found(None),
                2 => KvOutput::Found(Some(body.u64()?)),
                tag => return Err(WireError::BadOutputTag(tag)),
            };
            Action::respond(client, phase, input, output)
        }
        2 => {
            let count = body.u8()? as usize;
            if count > MAX_SWITCH_VALUE {
                return Err(WireError::SwitchValueTooLong { len: count });
            }
            let mut value = Vec::with_capacity(count);
            for _ in 0..count {
                value.push(decode_input(&mut body)?);
            }
            Action::switch(client, phase, input, value)
        }
        k => return Err(WireError::BadKind(k)),
    };
    if body.pos != bytes.len() {
        return Err(WireError::TrailingBytes {
            extra: bytes.len() - body.pos,
        });
    }
    Ok(Frame { tenant, action })
}

/// An incremental frame decoder: [`feed`](Decoder::feed) arbitrary byte
/// chunks, [`next_frame`](Decoder::next_frame) complete frames as they
/// become available. Partial frames stay buffered across feeds; the
/// buffer is compacted as frames drain, so steady-state memory is one
/// frame plus the unconsumed tail of the last chunk.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
}

impl Decoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends a chunk of the byte stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, `Ok(None)` when the buffer holds
    /// only a partial frame (feed more bytes), or an error on a corrupt
    /// stream. After an error the decoder is poisoned-by-construction:
    /// the offending bytes stay at the front, so retrying returns the
    /// same error (a transport should drop the connection).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4 bytes");
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_BODY_LEN {
            return Err(WireError::FrameTooLarge { len });
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let body = &self.buf[self.pos + 4..self.pos + 4 + len];
        let frame = decode_body(body)?;
        self.pos += 4 + len;
        Ok(Some(frame))
    }

    /// Drains every complete frame currently buffered.
    pub fn drain_frames(&mut self) -> Result<Vec<Frame>, WireError> {
        let mut out = Vec::new();
        while let Some(frame) = self.next_frame()? {
            out.push(frame);
        }
        Ok(out)
    }
}

/// Decodes a fully-buffered byte stream into its frame sequence.
pub fn decode_frames(bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
    let mut dec = Decoder::new();
    dec.feed(bytes);
    let frames = dec.drain_frames()?;
    if dec.pending_bytes() > 0 {
        return Err(WireError::Truncated);
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tenant: u64, action: KvAction) -> Frame {
        Frame { tenant, action }
    }

    fn corpus() -> Vec<Frame> {
        let (c, p) = (ClientId::new(3), PhaseId::new(2));
        vec![
            frame(0, Action::invoke(c, p, KvInput::Put(7, u64::MAX))),
            frame(
                u64::MAX,
                Action::respond(c, p, KvInput::Get(0), KvOutput::Found(None)),
            ),
            frame(
                42,
                Action::respond(c, p, KvInput::Get(9), KvOutput::Found(Some(11))),
            ),
            frame(1, Action::respond(c, p, KvInput::Delete(1), KvOutput::Ack)),
            frame(9, Action::switch(c, p, KvInput::Put(1, 2), vec![])),
            frame(
                9,
                Action::switch(
                    c,
                    p,
                    KvInput::Get(3),
                    vec![KvInput::Put(1, 2), KvInput::Delete(1), KvInput::Get(1)],
                ),
            ),
        ]
    }

    #[test]
    fn roundtrips_one_contiguous_stream() {
        let frames = corpus();
        let bytes = encode_frames(&frames);
        assert_eq!(decode_frames(&bytes).unwrap(), frames);
    }

    #[test]
    fn roundtrips_under_every_chunking() {
        let frames = corpus();
        let bytes = encode_frames(&frames);
        for chunk in 1..=bytes.len() {
            let mut dec = Decoder::new();
            let mut got = Vec::new();
            for part in bytes.chunks(chunk) {
                dec.feed(part);
                got.extend(dec.drain_frames().unwrap());
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert_eq!(dec.pending_bytes(), 0);
        }
    }

    #[test]
    fn rejects_oversized_length_prefix() {
        let mut dec = Decoder::new();
        dec.feed(&(MAX_BODY_LEN as u32 + 1).to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(WireError::FrameTooLarge {
                len: MAX_BODY_LEN + 1
            })
        );
    }

    #[test]
    fn rejects_corrupt_bytes() {
        let mut bytes = encode_frames(&corpus()[..1]);
        bytes[12] = 9; // kind byte
        assert_eq!(decode_frames(&bytes), Err(WireError::BadKind(9)));

        let mut bytes = encode_frames(&corpus()[..1]);
        bytes[21] = 7; // input opcode
        assert_eq!(decode_frames(&bytes), Err(WireError::BadOpcode(7)));

        // A body longer than its fields is trailing garbage, not padding.
        let mut bytes = encode_frames(&corpus()[..1]);
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
        bytes[..4].copy_from_slice(&(len + 1).to_le_bytes());
        bytes.push(0xFF);
        assert_eq!(
            decode_frames(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn oversized_switch_values_are_rejected_both_ways() {
        let (c, p) = (ClientId::new(1), PhaseId::new(2));
        // Decoder side: a forged count above the cap is a wire error.
        let mut bytes = encode_frames(&[frame(
            0,
            Action::switch(c, p, KvInput::Get(1), vec![KvInput::Get(1)]),
        )]);
        let count_at = bytes.len() - 1 - 5; // count byte precedes one get-input
        bytes[count_at] = MAX_SWITCH_VALUE as u8 + 1;
        assert_eq!(
            decode_frames(&bytes),
            Err(WireError::SwitchValueTooLong {
                len: MAX_SWITCH_VALUE + 1
            })
        );
        // Encoder side: unrepresentable values panic rather than truncate.
        let long = vec![KvInput::Get(1); MAX_SWITCH_VALUE + 1];
        let oversized = frame(0, Action::switch(c, p, KvInput::Get(1), long));
        assert!(std::panic::catch_unwind(|| encode_frames(&[oversized])).is_err());
    }

    #[test]
    fn zero_ids_are_rejected_not_panicked() {
        let mut bytes = encode_frames(&corpus()[..1]);
        bytes[13..17].copy_from_slice(&0u32.to_le_bytes()); // client id
        assert_eq!(decode_frames(&bytes), Err(WireError::ZeroId));
    }
}
