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
//! * ack — sequence echo, status (whether the silo hosts the
//!   destination), and a reply value.

use gdb_simnet::NetNodeId;
use globaldb::RpcKind;
use std::io::{self, Read};

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

/// The reply to a request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub seq: u64,
    pub ok: bool,
    /// Reply value; silos echo `seq`, since the transaction state they
    /// would answer from lives in the driver.
    pub value: u64,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Start a frame of a `body`-byte body at the end of `out` (grown once
/// if need be): a length placeholder that [`end_frame`] fills in once
/// the body is written after it. Returns where the frame starts.
fn begin_frame(out: &mut Vec<u8>, body: usize) -> usize {
    let at = out.len();
    out.reserve(4 + body);
    put_u32(out, 0);
    at
}

fn end_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encode a request frame (length prefix included). The filler payload
/// is `min(declared, PAYLOAD_CAP)` zero bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    append_request(req, &mut out);
    out
}

/// [`encode_request`] appended to `out`, which may already hold frames:
/// a pipelined batch is its frames back to back.
pub fn append_request(req: &Request, out: &mut Vec<u8>) {
    let filler = req.declared.min(PAYLOAD_CAP) as usize;
    let at = begin_frame(out, 38 + filler);
    out.push(TAG_RPC);
    out.push(req.kind.index() as u8);
    put_u32(out, req.from.0);
    put_u32(out, req.to.0);
    put_u64(out, req.seq);
    put_u64(out, req.declared);
    put_u64(out, req.delay_ns);
    put_u32(out, filler as u32);
    out.resize(out.len() + filler, 0);
    end_frame(out, at);
}

/// Encode the shutdown sentinel frame.
pub fn encode_shutdown() -> Vec<u8> {
    let mut out = Vec::new();
    let at = begin_frame(&mut out, 1);
    out.push(TAG_SHUTDOWN);
    end_frame(&mut out, at);
    out
}

/// Encode an ack frame (length prefix included).
pub fn encode_ack(ack: &Ack) -> Vec<u8> {
    let mut out = Vec::new();
    append_ack(ack, &mut out);
    out
}

/// [`encode_ack`] appended to `out`: a silo answers a pipelined batch
/// with its acks back to back.
pub fn append_ack(ack: &Ack, out: &mut Vec<u8>) {
    let at = begin_frame(out, 17);
    put_u64(out, ack.seq);
    out.push(if ack.ok { 0 } else { 1 });
    put_u64(out, ack.value);
    end_frame(out, at);
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

    /// A body is exactly its fields: bytes left over mean a length field
    /// disagrees with the body, which is corruption.
    fn end(&self) -> Result<(), String> {
        match self.buf.len() - self.at {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the frame's fields")),
        }
    }
}

/// Decode a request-direction frame body (without the length prefix).
pub fn decode_frame(body: &[u8]) -> Result<Frame, String> {
    let mut c = Cursor { buf: body, at: 0 };
    let frame = match c.u8()? {
        TAG_SHUTDOWN => Frame::Shutdown,
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
            Frame::Rpc(Request {
                kind,
                from,
                to,
                seq,
                declared,
                delay_ns,
            })
        }
        t => return Err(format!("unknown frame tag {t}")),
    };
    c.end()?;
    Ok(frame)
}

/// Decode an ack frame body (without the length prefix).
pub fn decode_ack(body: &[u8]) -> Result<Ack, String> {
    let mut c = Cursor { buf: body, at: 0 };
    let seq = c.u64()?;
    let ok = match c.u8()? {
        0 => true,
        1 => false,
        b => return Err(format!("unknown ack status {b}")),
    };
    let value = c.u64()?;
    c.end()?;
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
