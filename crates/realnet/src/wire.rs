//! The length-prefixed wire format real transports speak.
//!
//! Hand-rolled little-endian framing (the workspace's serde is a no-op
//! facade, and the format is small enough that explicit bytes are
//! clearer anyway). Every frame is `u32 length || body`. Two body
//! shapes exist:
//!
//! * request — a serialized [`globaldb::Envelope`] plus delivery
//!   metadata: a sequence number, the *declared* payload size (what the
//!   cost model accounts), the fault-injected extra delay the receiving
//!   silo must physically sleep, and a capped filler payload so big
//!   logical messages do not actually ship megabytes over loopback;
//! * ack — sequence echo, status, and the role handler's reply value
//!   (a GTM timestamp, a DN applied-bytes cursor).

use gdb_simnet::NetNodeId;
use globaldb::{Envelope, RpcKind};
use std::io::{self, Read, Write};

/// Actual bytes shipped per request is capped here; the declared size in
/// the header keeps the accounting exact.
pub const PAYLOAD_CAP: u64 = 4096;

/// Frame-type tags (first body byte of a request-direction frame).
const TAG_RPC: u8 = 0;
const TAG_SHUTDOWN: u8 = 1;

/// A decoded request-direction frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    Rpc(Request),
    /// Graceful-teardown sentinel: the silo stops its loops, no ack.
    Shutdown,
}

/// One envelope on the wire, plus delivery metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub kind: RpcKind,
    pub from: NetNodeId,
    pub to: NetNodeId,
    pub seq: u64,
    /// Declared (accounted) payload size — may exceed [`PAYLOAD_CAP`].
    pub declared: u64,
    /// Fault-injected extra one-way delay the silo sleeps before acking.
    pub delay_ns: u64,
}

impl Request {
    pub fn envelope(&self) -> Envelope {
        Envelope {
            kind: self.kind,
            from: self.from,
            to: self.to,
            bytes: self.declared,
        }
    }
}

/// The reply to a request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub seq: u64,
    pub ok: bool,
    /// Role handler's reply (GTM counter value, DN applied-bytes cursor,
    /// or a seq echo for plain reads).
    pub value: u64,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Start a frame of a `body`-byte body in `out` (cleared, grown once if
/// need be): a length placeholder that [`end_frame`] fills in once the
/// body is written after it.
fn begin_frame(out: &mut Vec<u8>, body: usize) {
    out.clear();
    out.reserve(4 + body);
    put_u32(out, 0);
}

fn end_frame(out: &mut [u8]) {
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
}

/// Encode a request frame (length prefix included). The filler payload
/// is `min(declared, PAYLOAD_CAP)` zero bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(req, &mut out);
    out
}

/// [`encode_request`] into a reused buffer (replaces its contents).
pub fn encode_request_into(req: &Request, out: &mut Vec<u8>) {
    let filler = req.declared.min(PAYLOAD_CAP) as usize;
    begin_frame(out, 38 + filler);
    out.push(TAG_RPC);
    out.push(req.kind.index() as u8);
    put_u32(out, req.from.0);
    put_u32(out, req.to.0);
    put_u64(out, req.seq);
    put_u64(out, req.declared);
    put_u64(out, req.delay_ns);
    put_u32(out, filler as u32);
    out.resize(out.len() + filler, 0);
    end_frame(out);
}

/// Encode the shutdown sentinel frame.
pub fn encode_shutdown() -> Vec<u8> {
    let mut out = Vec::new();
    begin_frame(&mut out, 1);
    out.push(TAG_SHUTDOWN);
    end_frame(&mut out);
    out
}

/// Encode an ack frame (length prefix included).
pub fn encode_ack(ack: &Ack) -> Vec<u8> {
    let mut out = Vec::new();
    encode_ack_into(ack, &mut out);
    out
}

/// [`encode_ack`] into a reused buffer (replaces its contents).
pub fn encode_ack_into(ack: &Ack, out: &mut Vec<u8>) {
    begin_frame(out, 17);
    put_u64(out, ack.seq);
    out.push(if ack.ok { 0 } else { 1 });
    put_u64(out, ack.value);
    end_frame(out);
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.at + n > self.buf.len() {
            return Err(format!(
                "frame truncated: want {n} bytes at offset {}, have {}",
                self.at,
                self.buf.len()
            ));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decode a request-direction frame body (without the length prefix).
pub fn decode_frame(body: &[u8]) -> Result<Frame, String> {
    let mut c = Cursor { buf: body, at: 0 };
    match c.u8()? {
        TAG_SHUTDOWN => Ok(Frame::Shutdown),
        TAG_RPC => {
            let kind = RpcKind::from_index(c.u8()? as usize)
                .ok_or_else(|| "unknown RpcKind discriminant".to_string())?;
            let from = NetNodeId(c.u32()?);
            let to = NetNodeId(c.u32()?);
            let seq = c.u64()?;
            let declared = c.u64()?;
            let delay_ns = c.u64()?;
            let filler = c.u32()? as usize;
            c.take(filler)?;
            Ok(Frame::Rpc(Request {
                kind,
                from,
                to,
                seq,
                declared,
                delay_ns,
            }))
        }
        t => Err(format!("unknown frame tag {t}")),
    }
}

/// Decode an ack frame body (without the length prefix).
pub fn decode_ack(body: &[u8]) -> Result<Ack, String> {
    let mut c = Cursor { buf: body, at: 0 };
    let seq = c.u64()?;
    let ok = c.u8()? == 0;
    let value = c.u64()?;
    Ok(Ack { seq, ok, value })
}

/// Read one length-prefixed frame body from a stream. Frames are small
/// (≤ [`PAYLOAD_CAP`] + header); anything claiming more is corrupt.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    read_frame_into(r, &mut body)?;
    Ok(body)
}

/// [`read_frame`] into a reused buffer (replaces its contents).
pub fn read_frame_into(r: &mut impl Read, body: &mut Vec<u8>) -> io::Result<()> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > (PAYLOAD_CAP as usize) + 256 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds protocol bound"),
        ));
    }
    body.clear();
    body.resize(len, 0);
    r.read_exact(body)
}

/// Write one already-encoded frame (length prefix included) to a stream.
pub fn write_frame(w: &mut impl Write, encoded: &[u8]) -> io::Result<()> {
    w.write_all(encoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use globaldb::ALL_RPC_KINDS;

    #[test]
    fn request_frames_round_trip_for_every_kind() {
        for (i, kind) in ALL_RPC_KINDS.iter().enumerate() {
            let req = Request {
                kind: *kind,
                from: NetNodeId(3),
                to: NetNodeId(14),
                seq: 1000 + i as u64,
                declared: 1 << (i as u64 + 2), // crosses PAYLOAD_CAP midway
                delay_ns: 77,
            };
            let encoded = encode_request(&req);
            let body = read_frame(&mut &encoded[..]).unwrap();
            assert_eq!(decode_frame(&body), Ok(Frame::Rpc(req)));
        }
    }

    #[test]
    fn payload_is_capped_but_declared_bytes_survive() {
        let req = Request {
            kind: RpcKind::MigrateSnapshot,
            from: NetNodeId(0),
            to: NetNodeId(1),
            seq: 1,
            declared: 50_000_000, // 50 MB logical snapshot
            delay_ns: 0,
        };
        let encoded = encode_request(&req);
        assert!(
            encoded.len() < PAYLOAD_CAP as usize + 256,
            "wire frame must stay capped, got {} bytes",
            encoded.len()
        );
        let body = read_frame(&mut &encoded[..]).unwrap();
        match decode_frame(&body).unwrap() {
            Frame::Rpc(r) => assert_eq!(r.declared, 50_000_000),
            f => panic!("unexpected frame {f:?}"),
        }
    }

    #[test]
    fn ack_and_shutdown_round_trip() {
        let ack = Ack {
            seq: 42,
            ok: true,
            value: 7,
        };
        let encoded = encode_ack(&ack);
        let body = read_frame(&mut &encoded[..]).unwrap();
        assert_eq!(decode_ack(&body), Ok(ack));

        let encoded = encode_shutdown();
        let body = read_frame(&mut &encoded[..]).unwrap();
        assert_eq!(decode_frame(&body), Ok(Frame::Shutdown));
    }

    #[test]
    fn reused_buffers_carry_the_same_bytes() {
        let (mut frame, mut body) = (Vec::new(), Vec::new());
        for declared in [5_000, 10, 0] {
            let req = Request {
                kind: RpcKind::DnWrite,
                from: NetNodeId(1),
                to: NetNodeId(2),
                seq: declared,
                declared,
                delay_ns: 3,
            };
            encode_request_into(&req, &mut frame);
            assert_eq!(frame, encode_request(&req));
            read_frame_into(&mut &frame[..], &mut body).unwrap();
            assert_eq!(decode_frame(&body), Ok(Frame::Rpc(req)));
            let ack = Ack {
                seq: declared,
                ok: declared > 0,
                value: 9,
            };
            encode_ack_into(&ack, &mut frame);
            assert_eq!(frame, encode_ack(&ack));
            read_frame_into(&mut &frame[..], &mut body).unwrap();
            assert_eq!(decode_ack(&body), Ok(ack));
        }
    }

    #[test]
    fn oversized_frame_is_rejected_not_allocated() {
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &bogus[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_bodies_error_cleanly() {
        let req = Request {
            kind: RpcKind::DnRead,
            from: NetNodeId(0),
            to: NetNodeId(1),
            seq: 9,
            declared: 100,
            delay_ns: 0,
        };
        let encoded = encode_request(&req);
        let body = read_frame(&mut &encoded[..]).unwrap();
        for cut in [0, 1, 5, body.len() - 1] {
            assert!(decode_frame(&body[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_ack(&[1, 2, 3]).is_err());
    }
}
