//! Property tests for the real backends' wire format
//! (`crates/realnet/src/wire.rs`): every decoder returns `Err` on
//! malformed bytes and never panics, every frame round-trips, and frames
//! written back to back read back in order through a buffered reader —
//! the input of a silo serving a pipelined batch.
//!
//! The module is compiled in by path: this package already depends on
//! the two crates it is written against (`globaldb`, `gdb-simnet`) and
//! on the `proptest` shim, so the realnet crate's dependency set stays
//! as it is. The wire format's tests all live here.

#[allow(dead_code)]
#[path = "../crates/realnet/src/wire.rs"]
mod wire;

use gdb_simnet::NetNodeId;
use globaldb::{RpcKind, ALL_RPC_KINDS};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{BufReader, ErrorKind};
use wire::{Ack, Frame, Request, PAYLOAD_CAP};

/// Request header bytes after the length prefix, before the filler.
const REQUEST_HEADER: usize = 38;

fn kind() -> impl Strategy<Value = RpcKind> {
    (0..ALL_RPC_KINDS.len()).prop_map(|i| ALL_RPC_KINDS[i])
}

/// Declared sizes on both sides of the filler cap, and anywhere.
fn declared() -> impl Strategy<Value = u64> {
    prop_oneof![
        0..PAYLOAD_CAP / 8,
        PAYLOAD_CAP - 64..PAYLOAD_CAP + 64,
        any::<u64>(),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    (
        kind(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        declared(),
        any::<u64>(),
    )
        .prop_map(|(kind, from, to, seq, declared, delay_ns)| Request {
            kind,
            from: NetNodeId(from),
            to: NetNodeId(to),
            seq,
            declared,
            delay_ns,
        })
}

fn ack() -> impl Strategy<Value = Ack> {
    (any::<u64>(), any::<bool>(), any::<u64>()).prop_map(|(seq, ok, value)| Ack { seq, ok, value })
}

/// Read one frame from exactly `bytes` and decode it with `decode`.
fn read_and_decode<T>(bytes: &[u8], decode: fn(&[u8]) -> Result<T, String>) -> Result<T, String> {
    let mut body = Vec::new();
    wire::read_frame_into(&mut &bytes[..], &mut body).map_err(|e| e.to_string())?;
    decode(&body)
}

#[test]
fn every_kind_and_the_shutdown_sentinel_round_trip() {
    for (i, &kind) in ALL_RPC_KINDS.iter().enumerate() {
        let req = Request {
            kind,
            from: NetNodeId(3),
            to: NetNodeId(14),
            seq: i as u64,
            declared: 1 << (i + 2), // crosses PAYLOAD_CAP midway
            delay_ns: 77,
        };
        let frame = wire::encode_request(&req);
        assert_eq!(
            read_and_decode(&frame, wire::decode_frame),
            Ok(Frame::Rpc(req))
        );
    }
    let frame = wire::encode_shutdown();
    assert_eq!(
        read_and_decode(&frame, wire::decode_frame),
        Ok(Frame::Shutdown)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_a_decoder(bytes in vec(any::<u8>(), 0..96)) {
        let _ = wire::decode_frame(&bytes);
        let _ = wire::decode_ack(&bytes);
        let mut body = Vec::new();
        if wire::read_frame_into(&mut &bytes[..], &mut body).is_ok() {
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            prop_assert_eq!(body.len(), len);
            prop_assert_eq!(&body[..], &bytes[4..4 + len]);
        }
    }

    #[test]
    fn a_length_prefix_is_honoured_or_refused(len in any::<u32>(), tail in vec(any::<u8>(), 0..64)) {
        let small = len % 64;
        for len in [len, small] {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&tail);
            let mut body = Vec::new();
            let read = wire::read_frame_into(&mut &bytes[..], &mut body);
            prop_assert_eq!(read.is_ok(), len as usize <= tail.len(), "len {} tail {}", len, tail.len());
            if len as u64 > PAYLOAD_CAP + 256 {
                // Refused for its length, before a body is allocated.
                prop_assert_eq!(read.unwrap_err().kind(), ErrorKind::InvalidData);
            }
        }
    }

    #[test]
    fn requests_and_acks_round_trip(req in request(), ack in ack()) {
        let frame = wire::encode_request(&req);
        let filler = req.declared.min(PAYLOAD_CAP) as usize;
        prop_assert_eq!(frame.len(), 4 + REQUEST_HEADER + filler);
        prop_assert_eq!(read_and_decode(&frame, wire::decode_frame), Ok(Frame::Rpc(req)));
        prop_assert_eq!(read_and_decode(&wire::encode_ack(&ack), wire::decode_ack), Ok(ack));
    }

    #[test]
    fn truncated_frames_are_errors(req in request(), ack in ack(), cut in any::<usize>()) {
        for (frame, is_ack) in [(wire::encode_request(&req), false), (wire::encode_ack(&ack), true)] {
            let cut = cut % frame.len();
            // Short of its length prefix on the stream...
            prop_assert!(wire::read_frame_into(&mut &frame[..cut], &mut Vec::new()).is_err());
            // ...or a body cut short behind an honest prefix.
            let body = &frame[4..4 + cut % (frame.len() - 4)];
            let decoded = if is_ack {
                wire::decode_ack(body).map(|_| ())
            } else {
                wire::decode_frame(body).map(|_| ())
            };
            prop_assert!(decoded.is_err(), "body cut at {} of {}", body.len(), frame.len() - 4);
        }
    }

    #[test]
    fn a_flipped_bit_outside_the_filler_is_detected(
        req in request(),
        ack in ack(),
        at in any::<usize>(),
        bit in 0..8u8,
    ) {
        let mut frame = wire::encode_request(&req);
        let i = at % frame.len();
        frame[i] ^= 1 << bit;
        let decoded = read_and_decode(&frame, wire::decode_frame);
        if i < 4 + REQUEST_HEADER {
            prop_assert_ne!(decoded, Ok(Frame::Rpc(req)), "flip at byte {}", i);
        } else {
            // The filler is not checked: its content carries nothing.
            prop_assert_eq!(decoded, Ok(Frame::Rpc(req)));
        }
        let mut frame = wire::encode_ack(&ack);
        let i = at % frame.len();
        frame[i] ^= 1 << bit;
        prop_assert_ne!(read_and_decode(&frame, wire::decode_ack), Ok(ack), "flip at byte {}", i);
    }

    #[test]
    fn back_to_back_frames_read_in_order_through_a_buffer(
        batch in vec((request(), ack()), 1..12),
        capacity in 1..600usize,
    ) {
        let mut bytes = Vec::new();
        for (req, ack) in &batch {
            wire::append_request(req, &mut bytes);
            wire::append_ack(ack, &mut bytes);
        }
        let mut r = BufReader::with_capacity(capacity, &bytes[..]);
        let mut body = Vec::new();
        for (req, ack) in batch {
            wire::read_frame_into(&mut r, &mut body).unwrap();
            prop_assert_eq!(wire::decode_frame(&body), Ok(Frame::Rpc(req)));
            wire::read_frame_into(&mut r, &mut body).unwrap();
            prop_assert_eq!(wire::decode_ack(&body), Ok(ack));
        }
        prop_assert!(wire::read_frame_into(&mut r, &mut body).is_err(), "nothing after the batch");
    }
}
