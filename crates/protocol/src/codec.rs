//! Binary length-prefixed encoding of [`Message`]s.
//!
//! Framing follows BitTorrent: a big-endian `u32` length prefix, then a
//! type byte and body. There is no keep-alive: a zero-length frame is an
//! error.

use bytes::{BufMut, Bytes, BytesMut};

use crate::bitfield::Bitfield;
use crate::error::ProtocolError;
use crate::message::{Message, PROTOCOL_MAGIC};

/// Upper bound on a frame body; larger declared lengths are rejected
/// rather than buffered (a malformed peer must not make us allocate 4 GB).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Appends the wire form of `msg` to `dst`.
///
/// # Examples
///
/// ```
/// use bytes::BytesMut;
/// use splicecast_protocol::{encode, Message};
///
/// let mut buf = BytesMut::new();
/// encode(&Message::Have { index: 7 }, &mut buf);
/// assert_eq!(&buf[..], &[0, 0, 0, 5, 4, 0, 0, 0, 7]);
/// ```
pub fn encode(msg: &Message, dst: &mut BytesMut) {
    let body_len = body_len(msg);
    dst.reserve(4 + 1 + body_len);
    dst.put_u32(1 + body_len as u32);
    dst.put_u8(msg.wire_type());
    match msg {
        Message::ManifestRequest | Message::PeerListRequest | Message::Goodbye => {}
        Message::Have { index } | Message::Request { index } | Message::Cancel { index } => {
            dst.put_u32(*index);
        }
        Message::PeerList { peers } => {
            dst.put_u32(peers.len() as u32);
            for p in peers {
                dst.put_u32(*p);
            }
        }
        Message::HaveBundle { indices } => {
            dst.put_u32(indices.len() as u32);
            for i in indices {
                dst.put_u32(*i);
            }
        }
        Message::SegmentHeader { index, bytes } => {
            dst.put_u32(*index);
            dst.put_u64(*bytes);
        }
        Message::Bitfield(bf) => {
            dst.put_u32(bf.len());
            dst.put_slice(bf.as_bytes());
        }
        Message::ManifestData { payload } => {
            dst.put_slice(payload);
        }
        Message::Handshake {
            peer_id,
            info_hash,
            version,
        } => {
            dst.put_slice(&PROTOCOL_MAGIC);
            dst.put_u8(*version);
            dst.put_u64(*peer_id);
            dst.put_slice(info_hash);
        }
    }
}

/// Encodes `msg` into a standalone buffer.
pub fn encode_to_bytes(msg: &Message) -> Bytes {
    let mut buf = BytesMut::new();
    encode(msg, &mut buf);
    buf.freeze()
}

/// A reusable encoding buffer for hot paths.
///
/// [`encode_to_bytes`] allocates a scratch buffer per call;
/// [`EncodeBuf::wire`] keeps one scratch buffer alive across calls, so each
/// encode costs only the single allocation of the returned [`Bytes`].
///
/// # Examples
///
/// ```
/// use splicecast_protocol::{decode_single, EncodeBuf, Message};
///
/// let mut buf = EncodeBuf::new();
/// let wire = buf.wire(&Message::Have { index: 7 });
/// assert_eq!(decode_single(&wire).unwrap(), Message::Have { index: 7 });
/// ```
#[derive(Debug, Default)]
pub struct EncodeBuf {
    buf: BytesMut,
}

impl EncodeBuf {
    /// Creates an empty encode buffer.
    pub fn new() -> Self {
        EncodeBuf::default()
    }

    /// Encodes `msg` into the internal scratch buffer and returns it as a
    /// standalone [`Bytes`].
    pub fn wire(&mut self, msg: &Message) -> Bytes {
        self.buf.clear();
        encode(msg, &mut self.buf);
        Bytes::copy_from_slice(&self.buf)
    }
}

fn body_len(msg: &Message) -> usize {
    match msg {
        Message::ManifestRequest | Message::PeerListRequest | Message::Goodbye => 0,
        Message::Have { .. } | Message::Request { .. } | Message::Cancel { .. } => 4,
        Message::PeerList { peers } => 4 + 4 * peers.len(),
        Message::HaveBundle { indices } => 4 + 4 * indices.len(),
        Message::SegmentHeader { .. } => 12,
        Message::Bitfield(bf) => 4 + bf.as_bytes().len(),
        Message::ManifestData { payload } => payload.len(),
        Message::Handshake { .. } => 8 + 1 + 8 + 20,
    }
}

/// The error for a frame with no type byte.
const UNTYPED_FRAME: ProtocolError = ProtocolError::BadBody { kind: 0xFF, len: 0 };

/// Splits one frame into its type byte, its body and the number of bytes
/// that trail it.
fn split_frame(data: &[u8]) -> Result<(u8, &[u8], usize), ProtocolError> {
    let truncated = ProtocolError::BadBody {
        kind: 0xFF,
        len: data.len(),
    };
    let Some((len, rest)) = data.split_first_chunk::<4>() else {
        return Err(truncated);
    };
    let len = u32::from_be_bytes(*len);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    let Some((frame, trailing)) = rest.split_at_checked(len as usize) else {
        return Err(truncated);
    };
    let Some((&kind, body)) = frame.split_first() else {
        return Err(UNTYPED_FRAME);
    };
    Ok((kind, body, trailing.len()))
}

/// Decodes exactly one message from `data`.
///
/// Parses in place, but the [`Message`] it returns owns its data:
/// `Bitfield`, `ManifestData`, `PeerList` and `HaveBundle` each allocate.
/// The simulator's receive path reads the one frequent case,
/// `HaveBundle`, through [`have_bundle_indices`] instead, which does not.
///
/// # Errors
///
/// Fails on truncated input, trailing bytes, or any malformed frame.
pub fn decode_single(data: &[u8]) -> Result<Message, ProtocolError> {
    let (kind, body, trailing) = split_frame(data)?;
    let msg = decode_body_slice(kind, body)?;
    if trailing != 0 {
        return Err(ProtocolError::BadBody {
            kind: 0xFE,
            len: trailing,
        });
    }
    Ok(msg)
}

/// The indices of a `HaveBundle` frame, read in place: `Some` exactly when
/// [`decode_single`] would return `Ok(Message::HaveBundle { .. })`, with
/// the same indices in the same order and no allocation.
///
/// # Examples
///
/// ```
/// use splicecast_protocol::{encode_to_bytes, have_bundle_indices, Message};
///
/// let wire = encode_to_bytes(&Message::HaveBundle { indices: vec![3, 9] });
/// assert_eq!(have_bundle_indices(&wire).unwrap().collect::<Vec<_>>(), [3, 9]);
/// assert!(have_bundle_indices(&encode_to_bytes(&Message::Have { index: 3 })).is_none());
/// ```
pub fn have_bundle_indices(frame: &[u8]) -> Option<impl Iterator<Item = u32> + '_> {
    match split_frame(frame) {
        Ok((15, body, 0)) => u32_list(15, body).ok(),
        _ => None,
    }
}

/// Advances `body` past its first `n` bytes and returns them.
fn split<'a>(body: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, tail) = body.split_at(n);
    *body = tail;
    head
}

fn read_u32(body: &mut &[u8]) -> u32 {
    u32::from_be_bytes(split(body, 4).try_into().expect("4 bytes"))
}

fn read_u64(body: &mut &[u8]) -> u64 {
    u64::from_be_bytes(split(body, 8).try_into().expect("8 bytes"))
}

/// The body of a `PeerList` or `HaveBundle`, read in place: a count, then
/// exactly that many big-endian `u32`s.
fn u32_list(kind: u8, mut body: &[u8]) -> Result<impl Iterator<Item = u32> + '_, ProtocolError> {
    let bad = |body: &[u8]| ProtocolError::BadBody {
        kind,
        len: body.len(),
    };
    if body.len() < 4 {
        return Err(bad(body));
    }
    let count = read_u32(&mut body) as usize;
    if body.len() != count * 4 {
        return Err(bad(body));
    }
    Ok(body
        .chunks_exact(4)
        .map(|word| u32::from_be_bytes(word.try_into().expect("4 bytes"))))
}

fn decode_body_slice(kind: u8, mut body: &[u8]) -> Result<Message, ProtocolError> {
    let fixed = |body: &[u8], n: usize| -> Result<(), ProtocolError> {
        if body.len() != n {
            Err(ProtocolError::BadBody {
                kind,
                len: body.len(),
            })
        } else {
            Ok(())
        }
    };
    let msg = match kind {
        4 => {
            fixed(body, 4)?;
            Message::Have {
                index: read_u32(&mut body),
            }
        }
        5 => {
            if body.len() < 4 {
                return Err(ProtocolError::BadBody {
                    kind,
                    len: body.len(),
                });
            }
            let bits = read_u32(&mut body);
            let bf = Bitfield::from_wire(bits, body.to_vec())?;
            Message::Bitfield(bf)
        }
        6 => {
            fixed(body, 4)?;
            Message::Request {
                index: read_u32(&mut body),
            }
        }
        7 => {
            fixed(body, 12)?;
            Message::SegmentHeader {
                index: read_u32(&mut body),
                bytes: read_u64(&mut body),
            }
        }
        8 => {
            fixed(body, 4)?;
            Message::Cancel {
                index: read_u32(&mut body),
            }
        }
        9 => {
            fixed(body, 0)?;
            Message::ManifestRequest
        }
        10 => Message::ManifestData {
            payload: Bytes::copy_from_slice(body),
        },
        11 => {
            fixed(body, 0)?;
            Message::Goodbye
        }
        13 => {
            fixed(body, 0)?;
            Message::PeerListRequest
        }
        14 => Message::PeerList {
            peers: u32_list(kind, body)?.collect(),
        },
        15 => Message::HaveBundle {
            indices: u32_list(kind, body)?.collect(),
        },
        20 => {
            fixed(body, 37)?;
            if split(&mut body, 8) != PROTOCOL_MAGIC.as_slice() {
                return Err(ProtocolError::BadMagic);
            }
            let version = split(&mut body, 1)[0];
            let peer_id = read_u64(&mut body);
            let mut info_hash = [0u8; 20];
            info_hash.copy_from_slice(body);
            Message::Handshake {
                peer_id,
                info_hash,
                version,
            }
        }
        other => return Err(ProtocolError::UnknownType(other)),
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Message> {
        let mut bf = Bitfield::new(13);
        bf.set(0);
        bf.set(12);
        vec![
            Message::Handshake {
                peer_id: 0xDEAD_BEEF,
                info_hash: [7; 20],
                version: 1,
            },
            Message::Have { index: 42 },
            Message::HaveBundle {
                indices: vec![0, 7, 42, u32::MAX],
            },
            Message::HaveBundle { indices: vec![] },
            Message::Bitfield(bf),
            Message::Request { index: u32::MAX },
            Message::PeerListRequest,
            Message::PeerList {
                peers: vec![1, 5, 900],
            },
            Message::PeerList { peers: vec![] },
            Message::Cancel { index: 0 },
            Message::SegmentHeader {
                index: 9,
                bytes: 123_456_789,
            },
            Message::ManifestRequest,
            Message::ManifestData {
                payload: Bytes::from_static(b"#EXTM3U\n"),
            },
            Message::Goodbye,
        ]
    }

    #[test]
    fn encode_decode_round_trips_every_message() {
        for msg in all_messages() {
            let wire = encode_to_bytes(&msg);
            let back = decode_single(&wire).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    /// The length prefix alone is enough to refuse an oversize frame.
    #[test]
    fn oversize_frame_is_rejected_without_buffering() {
        assert_eq!(
            decode_single(&(MAX_FRAME_LEN + 1).to_be_bytes()).unwrap_err(),
            ProtocolError::FrameTooLarge {
                len: MAX_FRAME_LEN + 1
            }
        );
    }

    /// No message encodes to a zero-length frame, and neither reader
    /// accepts one: the protocol has no keep-alive.
    #[test]
    fn zero_length_frame_is_an_error() {
        let frame = [0, 0, 0, 0];
        assert_eq!(decode_single(&frame).unwrap_err(), UNTYPED_FRAME);
        assert!(have_bundle_indices(&frame).is_none());
        for message in all_messages() {
            assert!(encode_to_bytes(&message).len() > 4, "{message:?}");
        }
    }

    #[test]
    fn unknown_type_is_rejected() {
        assert_eq!(
            decode_single(&[0, 0, 0, 1, 99]).unwrap_err(),
            ProtocolError::UnknownType(99)
        );
    }

    #[test]
    fn wrong_body_length_is_rejected() {
        // A `Have` with a 2-byte body.
        assert_eq!(
            decode_single(&[0, 0, 0, 3, 4, 0, 0]).unwrap_err(),
            ProtocolError::BadBody { kind: 4, len: 2 }
        );
    }

    /// Wire types 0, 1 and 2 carried BitTorrent's choke, unchoke and
    /// interested signals, which no handler read, and type 3 the eventful
    /// control plane's not-interested unsubscribe, which cost more
    /// messages than it saved; they are unassigned again, and no encoder
    /// emits one.
    #[test]
    fn retired_wire_types_are_unknown_types() {
        for kind in [0u8, 1, 2, 3] {
            let frame = [0, 0, 0, 1, kind];
            assert_eq!(
                decode_single(&frame).unwrap_err(),
                ProtocolError::UnknownType(kind)
            );
            assert!(have_bundle_indices(&frame).is_none());
        }
        for message in all_messages() {
            let wire = encode_to_bytes(&message);
            for kind in [0, 1, 2, 3] {
                assert_ne!(wire.get(4), Some(&kind), "{message:?}");
            }
        }
    }

    /// Wire type 16 carried the retired interest-window announcement; it
    /// is unassigned again, whatever body follows it.
    #[test]
    fn retired_wire_type_16_is_an_unknown_type() {
        let frame = [0, 0, 0, 9, 16, 0, 0, 0, 1, 0, 0, 0, 9];
        assert_eq!(
            decode_single(&frame).unwrap_err(),
            ProtocolError::UnknownType(16)
        );
        assert!(have_bundle_indices(&frame).is_none());
    }

    /// Wire type 12 carried the retired per-rendition request (an ABR
    /// client now names a rendition's segment with a plain `Request`); it
    /// is unassigned again, whatever body follows it.
    #[test]
    fn retired_wire_type_12_is_an_unknown_type() {
        for frame in [&[0, 0, 0, 6, 12, 3, 0, 0, 0, 17][..], &[0, 0, 0, 1, 12]] {
            assert_eq!(
                decode_single(frame).unwrap_err(),
                ProtocolError::UnknownType(12)
            );
        }
        for message in all_messages() {
            let wire = encode_to_bytes(&message);
            assert_ne!(wire.get(4), Some(&12), "{message:?}");
        }
    }

    #[test]
    fn no_encoder_emits_wire_type_16() {
        for message in all_messages() {
            let wire = encode_to_bytes(&message);
            assert_ne!(wire.get(4), Some(&16), "{message:?}");
        }
    }

    #[test]
    fn bad_handshake_magic_is_rejected() {
        let mut wire = encode_to_bytes(&Message::Handshake {
            peer_id: 1,
            info_hash: [0; 20],
            version: 1,
        })
        .to_vec();
        wire[5] = b'X'; // corrupt the magic
        assert_eq!(decode_single(&wire).unwrap_err(), ProtocolError::BadMagic);
    }

    #[test]
    fn malformed_bitfield_is_rejected() {
        // Declares 3 bits but carries 2 bytes.
        let mut frame = BytesMut::new();
        frame.put_u32(1 + 4 + 2);
        frame.put_u8(5);
        frame.put_u32(3);
        frame.put_slice(&[0xFF, 0xFF]);
        assert_eq!(
            decode_single(&frame).unwrap_err(),
            ProtocolError::MalformedBitfield
        );
    }

    #[test]
    fn decode_single_rejects_trailing_bytes() {
        let mut wire = encode_to_bytes(&Message::Goodbye).to_vec();
        wire.push(0);
        assert!(decode_single(&wire).is_err());
    }

    #[test]
    fn decode_single_rejects_truncation() {
        let wire = encode_to_bytes(&Message::Have { index: 1 });
        assert!(decode_single(&wire[..wire.len() - 1]).is_err());
    }

    /// `have_bundle_indices` against the owned decoder, on `frame`.
    fn assert_reader_agrees(frame: &[u8]) {
        let in_place = have_bundle_indices(frame).map(Iterator::collect::<Vec<_>>);
        let owned = match decode_single(frame) {
            Ok(Message::HaveBundle { indices }) => Some(indices),
            _ => None,
        };
        assert_eq!(in_place, owned, "frame {frame:?}");
    }

    /// The in-place reader is `Some(v)` exactly when the owned decoder
    /// returns `HaveBundle { indices: v }`: on every message, every
    /// truncation of its frame, every single-byte mutation, trailing
    /// bytes, and an over-long declared length.
    #[test]
    fn have_bundle_reader_agrees_with_decode_single() {
        let mut bundles_read = 0;
        for msg in all_messages() {
            let wire = encode_to_bytes(&msg).to_vec();
            assert_reader_agrees(&wire);
            bundles_read += usize::from(have_bundle_indices(&wire).is_some());
            for end in 0..wire.len() {
                assert_reader_agrees(&wire[..end]);
            }
            for at in 0..wire.len() {
                for byte in 0..=u8::MAX {
                    let mut mutated = wire.clone();
                    mutated[at] = byte;
                    assert_reader_agrees(&mutated);
                }
            }
            let mut trailing = wire.clone();
            trailing.push(0);
            assert_reader_agrees(&trailing);
            assert!(have_bundle_indices(&trailing).is_none());
        }
        assert_eq!(bundles_read, 2, "both bundles of `all_messages`");
        let mut oversize = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
        oversize.extend([15, 0, 0, 0, 0]);
        assert_reader_agrees(&oversize);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_prefixes() {
        // Deterministic pseudo-fuzz: every prefix of every suffix of a
        // noisy buffer. Any result is acceptable; a panic is not.
        let noise: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for start in 0..noise.len() {
            for end in start..noise.len() {
                let _ = decode_single(&noise[start..end]);
                let _ = have_bundle_indices(&noise[start..end]).map(Iterator::count);
            }
        }
    }
}
