//! The per-silo event loop: decode a frame, apply injected delay,
//! tally, ack.
//!
//! One [`SiloState`] per silo, shared (`Arc<Mutex>`) between the loop
//! threads that serve it and the harness that reads its tallies at
//! shutdown. The frame-handling core is transport-agnostic: the channel
//! loop and each TCP connection handler both feed [`handle_frame`].

use crate::membership::SiloSpec;
use crate::wire::{self, Ack, Frame};
use gdb_simclock::WallClock;
use gdb_simnet::SimTime;
use globaldb::ALL_RPC_KINDS;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of `RpcKind`s (array size of the per-kind tallies).
pub const NKINDS: usize = ALL_RPC_KINDS.len();

/// What one silo saw: message/byte totals and a per-kind split, plus the
/// real-clock instant of the last frame (receive timestamps come from
/// the silo's own [`WallClock`], not the driver's virtual time).
#[derive(Debug, Clone)]
pub struct SiloStats {
    pub msgs: u64,
    pub bytes: u64,
    pub per_kind: [u64; NKINDS],
    pub last_recv: SimTime,
    /// Writes of buffered acks back to a TCP client; `msgs / ack_flushes`
    /// is how many pipelined frames one wake-up served. The channel
    /// backend replies per frame and leaves it at 0.
    pub ack_flushes: u64,
}

impl Default for SiloStats {
    fn default() -> Self {
        SiloStats {
            msgs: 0,
            bytes: 0,
            per_kind: [0; NKINDS],
            last_recv: SimTime::ZERO,
            ack_flushes: 0,
        }
    }
}

/// The mutable half of a running silo.
#[derive(Debug)]
pub struct SiloState {
    pub spec: SiloSpec,
    pub stats: SiloStats,
    clock: WallClock,
}

/// A silo shared between its serving threads and the harness.
pub type SharedSilo = Arc<Mutex<SiloState>>;

impl SiloState {
    /// Build a silo hosting every node of `spec`, stamping received
    /// frames with `clock` (all silos of a cluster share one origin).
    pub fn new(spec: SiloSpec, clock: WallClock) -> SharedSilo {
        Arc::new(Mutex::new(SiloState {
            spec,
            stats: SiloStats::default(),
            clock,
        }))
    }
}

/// Handle one request-direction frame body: decode, physically sleep any
/// fault-injected delay, tally, and return the encoded ack: `ok` iff the
/// destination is one of this silo's nodes, `value` the echoed `seq`. `None`
/// means the shutdown sentinel (or an undecodable frame) — the serving
/// loop should exit (resp. drop the connection).
pub fn handle_frame(silo: &SharedSilo, body: &[u8]) -> Option<Vec<u8>> {
    let mut ack = Vec::new();
    handle_frame_into(silo, body, &mut ack, Instant::now()).then_some(ack)
}

/// [`handle_frame`] for a frame that `arrived` at that instant, appending
/// the encoded ack to `acks` (the acks a connection has not written
/// yet); `false` where that returns `None`.
pub fn handle_frame_into(
    silo: &SharedSilo,
    body: &[u8],
    acks: &mut Vec<u8>,
    arrived: Instant,
) -> bool {
    let Some(Frame::Rpc(req)) = decode(body) else {
        return false;
    };
    if req.delay_ns > 0 {
        // The fault-injected one-way delay is served *here*, at the
        // destination, like tc's netem on the receive path — the sender's
        // measured round trip includes it physically. Like netem, it
        // runs from the frame's arrival, so frames that arrived together
        // are delayed together, not one after another.
        let due = arrived + Duration::from_nanos(req.delay_ns);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
    }
    let mut s = silo.lock().expect("silo lock");
    s.stats.msgs += 1;
    s.stats.bytes += req.declared;
    s.stats.per_kind[req.kind.index()] += 1;
    s.stats.last_recv = s.clock.now();
    let ack = Ack {
        seq: req.seq,
        ok: s.spec.nodes.iter().any(|&(node, _)| node == req.to),
        value: req.seq,
    };
    wire::append_ack(&ack, acks);
    true
}

fn decode(body: &[u8]) -> Option<Frame> {
    match wire::decode_frame(body) {
        Ok(f) => Some(f),
        Err(e) => {
            // A corrupt frame on loopback is a bug, not line noise; be
            // loud but keep the silo alive for the other connections.
            eprintln!("silo: dropping undecodable frame: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_ack, encode_request, encode_shutdown, read_frame, Request};
    use gdb_simnet::{NetNodeId, NodeKind};
    use globaldb::RpcKind;

    fn test_silo() -> SharedSilo {
        SiloState::new(
            SiloSpec {
                host: 0,
                nodes: vec![
                    (NetNodeId(0), NodeKind::GtmServer),
                    (NetNodeId(1), NodeKind::DataNodePrimary),
                ],
            },
            WallClock::new(),
        )
    }

    fn body_of(encoded: &[u8]) -> Vec<u8> {
        read_frame(&mut &encoded[..]).unwrap()
    }

    #[test]
    fn frames_are_routed_and_tallied() {
        let silo = test_silo();
        let req = Request {
            kind: RpcKind::GtmBeginTs,
            from: NetNodeId(9),
            to: NetNodeId(0),
            seq: 5,
            declared: 128,
            delay_ns: 0,
        };
        let ack_bytes = handle_frame(&silo, &body_of(&encode_request(&req))).unwrap();
        let ack = decode_ack(&body_of(&ack_bytes)).unwrap();
        assert!(ack.ok);
        assert_eq!(ack.seq, 5);
        assert_eq!(ack.value, 5, "the ack echoes the sequence number");
        let s = silo.lock().unwrap();
        assert_eq!(s.stats.msgs, 1);
        assert_eq!(s.stats.bytes, 128);
        assert_eq!(s.stats.per_kind[RpcKind::GtmBeginTs.index()], 1);
        assert!(s.stats.last_recv > SimTime::ZERO);
    }

    #[test]
    fn misrouted_frames_are_rejected() {
        let silo = test_silo();
        let req = Request {
            kind: RpcKind::DnRead,
            from: NetNodeId(9),
            to: NetNodeId(9),
            seq: 3,
            declared: 0,
            delay_ns: 0,
        };
        let ack_bytes = handle_frame(&silo, &body_of(&encode_request(&req))).unwrap();
        let ack = decode_ack(&body_of(&ack_bytes)).unwrap();
        assert!(!ack.ok, "unhosted destination must be rejected");
        assert_eq!(ack.seq, 3);
    }

    #[test]
    fn injected_delay_is_physically_served() {
        let silo = test_silo();
        let req = Request {
            kind: RpcKind::DnRead,
            from: NetNodeId(9),
            to: NetNodeId(1),
            seq: 1,
            declared: 64,
            delay_ns: 3_000_000, // 3 ms
        };
        let start = std::time::Instant::now();
        handle_frame(&silo, &body_of(&encode_request(&req))).unwrap();
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(3),
            "delay_ns must be slept, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn shutdown_sentinel_ends_the_loop() {
        let silo = test_silo();
        assert!(handle_frame(&silo, &body_of(&encode_shutdown())).is_none());
        assert!(handle_frame(&silo, b"garbage").is_none());
        assert_eq!(silo.lock().unwrap().stats.msgs, 0);
    }
}
