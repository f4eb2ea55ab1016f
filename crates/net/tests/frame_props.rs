//! Property tests of the wire-frame codec: arbitrary headers and payloads
//! round-trip; truncated frames and oversized lengths are always rejected.
//! The v2 properties cover multiplexing: interleaved frames with distinct
//! request ids decode in order with ids intact, and a truncated stream
//! yields exactly the complete frames before the cut — the loss is scoped
//! to the unfinished request id, never to earlier frames. Hostile bytes —
//! arbitrary, or a valid frame with one byte changed or its tail cut off —
//! never panic a decoder: they decode, wait for more, or fail cleanly.

use bytes::{BufMut, Bytes, BytesMut};
use mmlib_net::protocol::{
    encode_frame_v, read_frame_counted, try_decode_frame, BlobAssembler, Frame, Opcode, RecvBuf,
    WireError, WireVersion, MAX_FRAME_LEN,
};
use proptest::prelude::*;

const BOTH: [WireVersion; 2] = [WireVersion::V1, WireVersion::V2];

/// Builds an arbitrary JSON header from a shape seed (objects of strings,
/// integers, bools, nested arrays — the kinds the protocol sends).
fn header_from_seed(fields: &[(u8, u64)]) -> serde_json::Value {
    let mut obj = serde_json::Map::new();
    for (i, (kind, seed)) in fields.iter().enumerate() {
        let key = format!("k{i}");
        let value = match kind % 5 {
            0 => serde_json::Value::String(format!("s-{seed}")),
            1 => serde_json::json!(*seed),
            2 => serde_json::json!(*seed as i64 as f64 / 8.0),
            3 => serde_json::Value::Bool(seed % 2 == 0),
            _ => serde_json::json!([*seed, format!("e{seed}"), seed % 2 == 1]),
        };
        obj.insert(key, value);
    }
    serde_json::Value::Object(obj)
}

fn opcode_from_seed(seed: u64) -> Opcode {
    Opcode::ALL[(seed as usize) % Opcode::ALL.len()]
}

/// Hands `bytes` to every inbound decoder: the frame decoder under both
/// framings, the receive buffer (drained until it stops yielding frames),
/// and chunk assembly under announcements of several sizes. Each must
/// return; none may panic.
fn feed_every_decoder(bytes: &[u8]) {
    for version in BOTH {
        let _ = try_decode_frame(bytes, version);
        let mut recv = RecvBuf::new();
        recv.extend(bytes);
        while let Ok(Some(_)) = recv.next_frame(version) {}
    }
    let mut word = [0u8; 8];
    for (w, b) in word.iter_mut().zip(bytes) {
        *w = *b;
    }
    let len = bytes.len() as u64;
    for announced in [u64::from_le_bytes(word), len, len / 2, len.saturating_mul(2)] {
        let Ok(mut blob) = BlobAssembler::new(announced) else { continue };
        for chunk in [bytes, bytes] {
            let _ = blob.push(chunk);
        }
        let _ = blob.is_complete();
        let _ = blob.into_blob();
    }
}

proptest! {
    #[test]
    fn arbitrary_frames_round_trip(
        op_seed in 0u64..1000,
        fields in prop::collection::vec((0u8..=255, 0u64..1_000_000), 0..8),
        payload in prop::collection::vec(0u8..=255, 0..5000),
    ) {
        let frame = Frame::with_payload(
            opcode_from_seed(op_seed),
            header_from_seed(&fields),
            Bytes::from(payload),
        );
        for version in BOTH {
            let encoded = encode_frame_v(&frame, version).unwrap();
            let (decoded, used) = try_decode_frame(&encoded, version).unwrap().unwrap();
            prop_assert_eq!(&decoded, &frame);
            prop_assert_eq!(used, encoded.len());
        }
    }

    #[test]
    fn truncated_frames_never_decode(
        fields in prop::collection::vec((0u8..=255, 0u64..1000), 0..4),
        payload in prop::collection::vec(0u8..=255, 0..600),
        cut_seed in 0u64..1_000_000,
    ) {
        let frame = Frame::with_payload(
            Opcode::FilePut,
            header_from_seed(&fields),
            Bytes::from(payload),
        );
        for version in BOTH {
            let encoded = encode_frame_v(&frame, version).unwrap();
            let cut = (cut_seed as usize) % encoded.len();
            // Buffered, the prefix is "not yet a frame"; read from a stream
            // that ends there, it is an error. Neither ever yields a frame.
            prop_assert!(matches!(try_decode_frame(&encoded[..cut], version), Ok(None)));
            prop_assert!(read_frame_counted(&mut &encoded[..cut], version).is_err());
        }
    }

    #[test]
    fn oversized_lengths_are_rejected(excess in 1u64..u32::MAX as u64 - MAX_FRAME_LEN as u64) {
        let declared = MAX_FRAME_LEN as u64 + excess;
        let mut buf = BytesMut::new();
        buf.put_u32_le(declared as u32);
        // A few body bytes; the length check must fire before any read.
        buf.put_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        for version in BOTH {
            match try_decode_frame(&buf, version) {
                Err(WireError::Oversized(n)) => prop_assert_eq!(n, declared as usize),
                other => prop_assert!(false, "expected Oversized, got {:?}", other),
            }
        }
    }

    #[test]
    fn interleaved_v2_frames_round_trip_in_order(
        frames in prop::collection::vec(
            (0u64..1000, 1u64..u64::MAX, prop::collection::vec(0u8..=255, 0..3000)),
            1..12,
        ),
    ) {
        // A multiplexed v2 stream: frames for many request ids interleaved
        // back to back, exactly as the pipelined client and the sharded
        // server emit them.
        let originals: Vec<Frame> = frames
            .iter()
            .enumerate()
            .map(|(i, (op_seed, id, payload))| {
                Frame::with_payload(
                    opcode_from_seed(*op_seed),
                    serde_json::json!({"seq": i as u64}),
                    Bytes::from(payload.clone()),
                )
                .with_request_id(*id)
            })
            .collect();
        let mut stream = Vec::new();
        for frame in &originals {
            stream.extend_from_slice(&encode_frame_v(frame, WireVersion::V2).unwrap());
        }

        // The incremental decoder must return them in order, ids intact.
        let mut offset = 0usize;
        for original in &originals {
            let (decoded, used) =
                try_decode_frame(&stream[offset..], WireVersion::V2).unwrap().unwrap();
            prop_assert_eq!(&decoded, original);
            prop_assert_eq!(decoded.request_id, original.request_id);
            offset += used;
        }
        prop_assert_eq!(offset, stream.len());
        prop_assert!(try_decode_frame(&stream[offset..], WireVersion::V2).unwrap().is_none());
    }

    #[test]
    fn truncated_v2_stream_poisons_only_the_unfinished_frame(
        frames in prop::collection::vec(
            (1u64..u64::MAX, prop::collection::vec(0u8..=255, 0..1500)),
            1..8,
        ),
        cut_seed in 0u64..1_000_000,
    ) {
        let originals: Vec<Frame> = frames
            .iter()
            .map(|(id, payload)| {
                Frame::with_payload(
                    Opcode::Chunk,
                    serde_json::json!({}),
                    Bytes::from(payload.clone()),
                )
                .with_request_id(*id)
            })
            .collect();
        let mut stream = Vec::new();
        let mut boundaries = Vec::new();
        for frame in &originals {
            stream.extend_from_slice(&encode_frame_v(frame, WireVersion::V2).unwrap());
            boundaries.push(stream.len());
        }
        let cut = (cut_seed as usize) % stream.len();
        let partial = &stream[..cut];
        let whole_before_cut = boundaries.iter().filter(|&&b| b <= cut).count();

        // Every frame wholly before the cut decodes intact; the frame the
        // cut landed in is simply "not yet arrived" (Ok(None)), never an
        // error and never a corruption of its predecessors.
        let mut offset = 0usize;
        for original in originals.iter().take(whole_before_cut) {
            let (decoded, used) =
                try_decode_frame(&partial[offset..], WireVersion::V2).unwrap().unwrap();
            prop_assert_eq!(&decoded, original);
            offset += used;
        }
        prop_assert!(try_decode_frame(&partial[offset..], WireVersion::V2).unwrap().is_none());
    }

    #[test]
    fn corrupt_opcode_bytes_never_panic(
        byte in 0u8..=255,
        payload in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let frame = Frame::with_payload(
            Opcode::Ping,
            serde_json::json!({"version": 1}),
            Bytes::from(payload),
        );
        for version in BOTH {
            let mut bytes = encode_frame_v(&frame, version).unwrap().to_vec();
            bytes[4] = byte; // opcode position
            // Must decode to the same kind of frame or fail cleanly — no panic.
            let _ = try_decode_frame(&bytes, version);
        }
    }
}

proptest! {
    // Cheap cases, so many of them.
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in prop::collection::vec(0u8..=255, 0..600)) {
        feed_every_decoder(&bytes);
    }

    #[test]
    fn mutated_and_truncated_frames_never_panic_a_decoder(
        op_seed in 0u64..1000,
        fields in prop::collection::vec((0u8..=255, 0u64..1000), 0..4),
        payload in prop::collection::vec(0u8..=255, 0..300),
        at_seed in 0u64..1_000_000,
        byte in 0u8..=255,
        cut_seed in 0u64..1_000_000,
    ) {
        let frame = Frame::with_payload(
            opcode_from_seed(op_seed),
            header_from_seed(&fields),
            Bytes::from(payload),
        );
        for version in BOTH {
            let encoded = encode_frame_v(&frame, version).unwrap().to_vec();
            let mut mutated = encoded.clone();
            mutated[(at_seed as usize) % encoded.len()] = byte;
            feed_every_decoder(&mutated);
            feed_every_decoder(&encoded[..(cut_seed as usize) % encoded.len()]);
        }
    }
}
