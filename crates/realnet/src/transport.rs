//! Real transports: in-process channels ([`ThreadTransport`]) and
//! loopback TCP ([`TcpTransport`]).
//!
//! Both implement [`globaldb::Transport`] over the same plan:
//!
//! 1. consult the shared [`Topology`] — down nodes and region
//!    partitions make a message undeliverable exactly as in sim;
//! 2. consult the [`FaultController`] — realnet-native link drops kill
//!    the delivery, link delays ride along in the frame header and are
//!    physically slept by the destination silo;
//! 3. ship the frame, wait for the ack, and charge the *measured*
//!    wall-clock round trip to virtual time.
//!
//! The TCP transport also pipelines a scatter
//! ([`Transport::deliver_pairs`]): every leg is planned up front, then
//! all requests are put in flight at once — each silo's frames in one
//! write, the acks read back in leg order — and then, the same way, the
//! responses of the requests that delivered. A scatter's round trips
//! overlap instead of queueing, and each response is still handled only
//! after its request: a response bound for its request's own silo rides
//! in the request's write, behind it on the same connection.
//!
//! Neither path ever touches the topology's RNG (`one_way` is sim-only),
//! so installing a real transport cannot perturb sim traces; accounting
//! goes through [`Topology::record_delivery`].

use crate::fault::FaultController;
use crate::membership::StaticMembership;
use crate::silo::{handle_frame, handle_frame_into, SharedSilo, SiloState};
use crate::wire::{self, Request};
use gdb_simclock::WallClock;
use gdb_simnet::{SimDuration, Topology};
use globaldb::{Envelope, Transport};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Decide where an envelope goes and what fault-injected delay rides
/// along, or `None` if it is undeliverable. Shared by both transports so
/// they enact identical fault semantics.
///
/// Same-silo traffic gets no injected delay: `tc`-style shaping applies
/// to the inter-host network interface, and `Topology::one_way` likewise
/// routes same-host messages through the loopback path.
fn plan_delivery(
    topo: &Topology,
    membership: &StaticMembership,
    faults: &FaultController,
    env: &Envelope,
) -> Option<(usize, u64)> {
    if !topo.deliverable(env.from, env.to) {
        return None;
    }
    let src = membership.silo_of(env.from);
    let dst = membership.silo_of(env.to);
    if src == dst {
        return Some((dst, 0));
    }
    let (ha, hb) = (membership.host_of_silo(src), membership.host_of_silo(dst));
    if faults.is_dropped(ha, hb) {
        return None;
    }
    let extra = topo.injected_delay().as_nanos() + faults.delay_ns(ha, hb);
    Some((dst, extra))
}

/// Build the wire request for an envelope (monotonic per-transport seq).
fn make_request(env: &Envelope, seq: u64, delay_ns: u64) -> Request {
    Request {
        kind: env.kind,
        from: env.from,
        to: env.to,
        seq,
        declared: env.bytes,
        delay_ns,
    }
}

fn invalid(e: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Decode an ack body and check it answers request `seq`. A mismatch is
/// an error for the caller to treat as an undeliverable leg, never a
/// panic.
fn check_ack(body: &[u8], seq: u64, who: &str) -> io::Result<()> {
    let ack = wire::decode_ack(body).map_err(invalid)?;
    if ack.seq != seq {
        return Err(invalid(format!(
            "{who}: ack out of sequence: sent {seq}, got {}",
            ack.seq
        )));
    }
    if !ack.ok {
        // Membership covers every topology node, so a rejected route is a
        // wiring bug; the silo still tallied the frame, keep counters
        // consistent but be loud.
        eprintln!("{who}: silo rejected routed frame (seq {seq})");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// ThreadTransport
// ---------------------------------------------------------------------------

struct SiloMsg {
    /// Frame body (length prefix stripped).
    body: Vec<u8>,
    /// Where to send the encoded ack.
    reply: Sender<Vec<u8>>,
}

/// Each silo is an OS thread serving a channel of frames. The stepping
/// stone between sim and sockets: real threads and measured wall-clock
/// delays, in-process delivery.
pub struct ThreadTransport {
    membership: StaticMembership,
    faults: FaultController,
    silos: Vec<SharedSilo>,
    senders: Vec<Sender<SiloMsg>>,
    threads: Vec<JoinHandle<()>>,
    /// One shared reply pair — the driver issues requests strictly
    /// sequentially, so acks cannot interleave.
    reply_tx: Sender<Vec<u8>>,
    reply_rx: Receiver<Vec<u8>>,
    seq: u64,
    down: bool,
}

impl ThreadTransport {
    /// Spawn one serving thread per silo of `membership`.
    pub fn launch(membership: StaticMembership, faults: FaultController, clock: WallClock) -> Self {
        let mut silos = Vec::new();
        let mut senders = Vec::new();
        let mut threads = Vec::new();
        for spec in membership.silos() {
            let silo = SiloState::new(spec.clone(), clock);
            let (tx, rx) = channel::<SiloMsg>();
            let served = Arc::clone(&silo);
            let host = spec.host;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("silo-{host}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match handle_frame(&served, &msg.body) {
                                Some(ack) => {
                                    // Driver gone mid-ack means shutdown
                                    // already started; just exit.
                                    if msg.reply.send(ack).is_err() {
                                        break;
                                    }
                                }
                                None => break,
                            }
                        }
                    })
                    .expect("spawn silo thread"),
            );
            silos.push(silo);
            senders.push(tx);
        }
        let (reply_tx, reply_rx) = channel();
        ThreadTransport {
            membership,
            faults,
            silos,
            senders,
            threads,
            reply_tx,
            reply_rx,
            seq: 0,
            down: false,
        }
    }

    /// Handles on the running silos (for end-of-run verification).
    pub fn states(&self) -> Vec<SharedSilo> {
        self.silos.iter().map(Arc::clone).collect()
    }
}

impl Transport for ThreadTransport {
    fn name(&self) -> &'static str {
        "thread"
    }

    fn deliver(&mut self, topo: &mut Topology, env: Envelope) -> Option<SimDuration> {
        let (dst, delay_ns) = plan_delivery(topo, &self.membership, &self.faults, &env)?;
        self.seq += 1;
        let req = make_request(&env, self.seq, delay_ns);
        let encoded = wire::encode_request(&req);
        let body = wire::read_frame(&mut &encoded[..]).expect("self-encoded frame");
        let start = Instant::now();
        self.senders[dst]
            .send(SiloMsg {
                body,
                reply: self.reply_tx.clone(),
            })
            .ok()?;
        let ack_encoded = self.reply_rx.recv().ok()?;
        let ack_body = wire::read_frame(&mut &ack_encoded[..]).ok()?;
        check_ack(&ack_body, self.seq, "thread transport").ok()?;
        let measured = start.elapsed().as_nanos() as u64;
        topo.record_delivery(env.from, env.to, env.bytes);
        Some(SimDuration::from_nanos(measured))
    }

    fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        let shutdown = wire::encode_shutdown();
        let body = wire::read_frame(&mut &shutdown[..]).expect("shutdown frame");
        for tx in self.senders.drain(..) {
            let _ = tx.send(SiloMsg {
                body: body.clone(),
                reply: self.reply_tx.clone(),
            });
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ThreadTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

/// Per-silo accept loop state shared with the listener thread.
struct TcpSilo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

/// A client connection to one silo, read through a buffer so the acks of
/// a pipelined batch cost few reads.
type Conn = BufReader<TcpStream>;

/// One planned leg of the batch in flight.
struct Leg {
    env: Envelope,
    silo: usize,
    seq: u64,
    delay_ns: u64,
    /// When its ack came in, in nanoseconds since the batch's first
    /// write; `None` until then, and for good if it never does.
    acked: Option<u64>,
}

/// Each silo runs a loopback-TCP accept loop; envelopes travel as
/// length-prefixed frames over real sockets with Nagle disabled.
pub struct TcpTransport {
    membership: StaticMembership,
    faults: FaultController,
    silos: Vec<SharedSilo>,
    listeners: Vec<TcpSilo>,
    /// Lazily-connected client stream per destination silo.
    streams: Vec<Option<Conn>>,
    /// The batch in flight, all reused so a delivery allocates nothing:
    /// its planned legs in leg order, each silo's frames of the current
    /// phase (sent with one write), and the ack body being read.
    legs: Vec<Leg>,
    outbox: Vec<Vec<u8>>,
    ack: Vec<u8>,
    seq: u64,
    down: bool,
}

const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Read buffer of a silo connection: room for a whole pipelined batch of
/// full-size frames, so the frames of one batch arrive in one read.
const BATCH_READ_BUF: usize = 64 << 10;

/// Serve one client connection. Acks collect in a buffer that is written
/// only once every frame already received has been handled, so a
/// pipelined batch costs the silo one wake-up and one write. A frame
/// arrived when the read that brought its first byte returned, so the
/// frames of one batch share an arrival instant.
fn serve_connection(silo: SharedSilo, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut conn = BufReader::with_capacity(BATCH_READ_BUF, stream);
    let (mut body, mut acks) = (Vec::new(), Vec::new());
    let mut arrived = Instant::now();
    loop {
        let fresh = conn.buffer().is_empty();
        if wire::read_frame_into(&mut conn, &mut body).is_err() {
            return; // peer closed (or corrupt length): drop conn
        }
        if fresh {
            arrived = Instant::now();
        }
        if !handle_frame_into(&silo, &body, &mut acks, arrived) {
            return; // shutdown sentinel
        }
        if conn.buffer().is_empty() {
            if conn.get_mut().write_all(&acks).is_err() {
                return;
            }
            acks.clear();
            silo.lock().expect("silo lock").stats.ack_flushes += 1;
        }
    }
}

/// The open connection in `slot`, connecting to `addr` first if none is.
fn connect(slot: &mut Option<Conn>, addr: SocketAddr) -> io::Result<&mut Conn> {
    if slot.is_none() {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        *slot = Some(BufReader::new(stream));
    }
    Ok(slot.as_mut().expect("connected above"))
}

impl TcpTransport {
    /// Bind one loopback listener per silo and start its accept loop.
    pub fn launch(
        membership: StaticMembership,
        faults: FaultController,
        clock: WallClock,
    ) -> std::io::Result<Self> {
        let mut silos = Vec::new();
        let mut listeners = Vec::new();
        for spec in membership.silos() {
            let silo = SiloState::new(spec.clone(), clock);
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let stop = Arc::new(AtomicBool::new(false));
            let served = Arc::clone(&silo);
            let stop2 = Arc::clone(&stop);
            let host = spec.host;
            let accept_thread = std::thread::Builder::new()
                .name(format!("silo-{host}-accept"))
                .spawn(move || {
                    let mut conns: Vec<JoinHandle<()>> = Vec::new();
                    while let Ok((stream, _)) = listener.accept() {
                        if stop2.load(Ordering::SeqCst) {
                            break; // the wake-up dummy connect
                        }
                        let s = Arc::clone(&served);
                        conns.push(std::thread::spawn(move || serve_connection(s, stream)));
                    }
                    for c in conns {
                        let _ = c.join();
                    }
                })?;
            silos.push(silo);
            listeners.push(TcpSilo {
                addr,
                stop,
                accept_thread: Some(accept_thread),
            });
        }
        let n = listeners.len();
        Ok(TcpTransport {
            membership,
            faults,
            silos,
            listeners,
            streams: (0..n).map(|_| None).collect(),
            legs: Vec::new(),
            outbox: vec![Vec::new(); n],
            ack: Vec::new(),
            seq: 0,
            down: false,
        })
    }

    /// Handles on the running silos (for end-of-run verification).
    pub fn states(&self) -> Vec<SharedSilo> {
        self.silos.iter().map(Arc::clone).collect()
    }

    /// Plan `envs` in order, stopping at the first undeliverable one as
    /// sequential delivery would.
    fn plan<'e>(&mut self, topo: &Topology, envs: impl IntoIterator<Item = &'e Envelope>) {
        self.legs.clear();
        for env in envs {
            let Some((silo, delay_ns)) = plan_delivery(topo, &self.membership, &self.faults, env)
            else {
                break;
            };
            self.seq += 1;
            self.legs.push(Leg {
                env: *env,
                silo,
                seq: self.seq,
                delay_ns,
                acked: None,
            });
        }
    }

    /// Put the planned legs `in_phase` selects in flight at once — each
    /// silo's frames in one write — and read their acks in leg order,
    /// stamping each delivered leg with its ack time since `start`.
    ///
    /// A write, read, decode or sequence error drops that leg's stream,
    /// and the stream's remaining legs of the phase stay undelivered; the
    /// other streams' acks are still read. So no stream is left owing an
    /// ack (no later batch can read a stale one; the next write to a
    /// dropped stream reconnects), and every leg a silo acked is
    /// delivered — only the failed stream's legs can be in doubt.
    fn phase(&mut self, topo: &mut Topology, start: Instant, in_phase: fn(&[Leg], usize) -> bool) {
        for (i, leg) in self.legs.iter().enumerate() {
            if in_phase(&self.legs, i) {
                let req = make_request(&leg.env, leg.seq, leg.delay_ns);
                wire::append_request(&req, &mut self.outbox[leg.silo]);
            }
        }
        for (silo, frames) in self.outbox.iter_mut().enumerate() {
            if frames.is_empty() {
                continue;
            }
            let slot = &mut self.streams[silo];
            let sent = connect(slot, self.listeners[silo].addr)
                .and_then(|conn| conn.get_mut().write_all(frames));
            frames.clear();
            if sent.is_err() {
                *slot = None;
            }
        }
        for i in 0..self.legs.len() {
            if !in_phase(&self.legs, i) {
                continue;
            }
            let leg = &mut self.legs[i];
            let slot = &mut self.streams[leg.silo];
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            let read = wire::read_frame_into(conn, &mut self.ack)
                .and_then(|()| check_ack(&self.ack, leg.seq, "tcp transport"));
            if read.is_err() {
                *slot = None;
                continue;
            }
            leg.acked = Some(start.elapsed().as_nanos() as u64);
            topo.record_delivery(leg.env.from, leg.env.to, leg.env.bytes);
        }
    }
}

/// Phase selectors over a batch laid out as (request, response) legs.
/// The first phase carries every request, and each response bound for
/// the silo its request went to: a silo handles one connection's frames
/// in order, so that response is still handled after its request (and
/// both are same-silo legs, which carry no injected delay).
fn first_phase(legs: &[Leg], i: usize) -> bool {
    i.is_multiple_of(2) || legs[i].silo == legs[i - 1].silo
}

/// The other responses, once their request delivered.
fn second_phase(legs: &[Leg], i: usize) -> bool {
    !first_phase(legs, i) && legs[i - 1].acked.is_some()
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn deliver(&mut self, topo: &mut Topology, env: Envelope) -> Option<SimDuration> {
        self.plan(topo, [&env]);
        self.phase(topo, Instant::now(), first_phase);
        let acked = self.legs.first()?.acked?;
        Some(SimDuration::from_nanos(acked))
    }

    /// All requests in flight at once (with the responses that go to
    /// their request's silo), then the other responses of the requests
    /// that delivered. A request's delay is the time from the first write
    /// to its ack; its response's, the time from that ack to the
    /// response's own. A pair's round trip is thus the time until its
    /// response is acked, and the slowest pair's is the batch's wall
    /// time.
    fn deliver_pairs(
        &mut self,
        topo: &mut Topology,
        pairs: &[[Envelope; 2]],
        delays: &mut [[Option<SimDuration>; 2]],
    ) {
        self.plan(topo, pairs.iter().flatten());
        let start = Instant::now();
        self.phase(topo, start, first_phase);
        self.phase(topo, start, second_phase);
        for (legs, out) in self.legs.chunks(2).zip(delays) {
            let there = legs[0].acked;
            let back = legs.get(1).and_then(|l| l.acked).zip(there);
            out[0] = there.map(SimDuration::from_nanos);
            out[1] = back.map(|(back, there)| SimDuration::from_nanos(back.saturating_sub(there)));
        }
    }

    fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        // 1. Shutdown frame down every open client stream, then close it —
        //    the serving loop exits on the sentinel, others on EOF.
        let frame = wire::encode_shutdown();
        for s in self.streams.iter_mut() {
            if let Some(mut conn) = s.take() {
                let _ = conn.get_mut().write_all(&frame);
            }
        }
        // 2. Stop flags + a dummy connect to wake each accept loop.
        for l in &self.listeners {
            l.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(l.addr);
        }
        // 3. Join accept loops (each joins its connection handlers).
        for l in self.listeners.iter_mut() {
            if let Some(t) = l.accept_thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silo::SiloStats;
    use gdb_simnet::{NetNodeId, RegionId};
    use globaldb::{ClusterConfig, MessagePlane, RpcKind};

    fn fixture() -> (Topology, StaticMembership) {
        let (topo, _) = ClusterConfig::globaldb_three_city().build_topology();
        let m = StaticMembership::from_topology(&topo);
        (topo, m)
    }

    /// A cross-silo envelope between the first two silos' first nodes.
    fn cross_silo_env(m: &StaticMembership) -> Envelope {
        let from = m.silos()[0].nodes[0].0;
        let to = m.silos()[1].nodes[0].0;
        Envelope {
            kind: RpcKind::GtmBeginTs,
            from,
            to,
            bytes: 96,
        }
    }

    fn exercise(t: &mut dyn Transport, topo: &mut Topology, m: &StaticMembership) {
        let env = cross_silo_env(m);
        for i in 1..=5u64 {
            let d = t.deliver(topo, env).expect("healthy link delivers");
            assert!(d.as_nanos() > 0, "round trip {i} must take real time");
        }
        assert_eq!(topo.total_stats().messages, 5);
    }

    #[test]
    fn thread_transport_delivers_and_tallies() {
        let (mut topo, m) = fixture();
        let mut t =
            ThreadTransport::launch(m.clone(), FaultController::default(), WallClock::new());
        exercise(&mut t, &mut topo, &m);
        let states = t.states();
        t.shutdown();
        let dst = m.silo_of(cross_silo_env(&m).to);
        let s = states[dst].lock().unwrap();
        assert_eq!(s.stats.msgs, 5);
        assert_eq!(s.stats.per_kind[RpcKind::GtmBeginTs.index()], 5);
        assert_eq!(s.stats.bytes, 5 * 96);
    }

    #[test]
    fn tcp_transport_delivers_over_real_sockets() {
        let (mut topo, m) = fixture();
        let mut t = TcpTransport::launch(m.clone(), FaultController::default(), WallClock::new())
            .expect("bind loopback");
        exercise(&mut t, &mut topo, &m);
        let states = t.states();
        t.shutdown();
        t.shutdown(); // idempotent
        let dst = m.silo_of(cross_silo_env(&m).to);
        assert_eq!(states[dst].lock().unwrap().stats.msgs, 5);
    }

    #[test]
    fn dropped_link_makes_messages_undeliverable() {
        let (mut topo, m) = fixture();
        let faults = FaultController::default();
        let mut t = ThreadTransport::launch(m.clone(), faults.clone(), WallClock::new());
        let env = cross_silo_env(&m);
        let (ha, hb) = (
            m.host_of_silo(m.silo_of(env.from)),
            m.host_of_silo(m.silo_of(env.to)),
        );
        faults.drop_link(ha, hb);
        assert!(t.deliver(&mut topo, env).is_none(), "dropped link");
        faults.heal_link(ha, hb);
        assert!(t.deliver(&mut topo, env).is_some(), "healed link");
        assert_eq!(topo.total_stats().messages, 1, "drops are not accounted");
    }

    /// A scatter from silo 0's first node to a node on every silo, its
    /// own included.
    fn scatter_targets(m: &StaticMembership) -> (NetNodeId, [NetNodeId; 3]) {
        let node = |silo: usize, i: usize| m.silos()[silo].nodes[i].0;
        (node(0, 0), [node(0, 1), node(1, 0), node(2, 0)])
    }

    fn tcp_plane(m: &StaticMembership, faults: FaultController) -> (MessagePlane, Vec<SharedSilo>) {
        let t = TcpTransport::launch(m.clone(), faults, WallClock::new()).expect("bind loopback");
        let states = t.states();
        let mut plane = MessagePlane::new(RegionId(0));
        plane.set_transport(Box::new(t));
        (plane, states)
    }

    #[test]
    fn tcp_scatter_is_pipelined_and_accounted() {
        let (mut topo, m) = fixture();
        let (mut plane, states) = tcp_plane(&m, FaultController::default());
        let (cn, to) = scatter_targets(&m);
        for _ in 0..3 {
            let d = plane.scatter(&mut topo, RpcKind::DnRead, cn, to, 128, 512);
            assert!(d.expect("healthy scatter") > SimDuration::ZERO);
        }
        // The middle target's region partitioned away: the first pair
        // delivers, nothing from the middle request on is sent.
        let (a, b) = (topo.node_region(cn), topo.node_region(to[1]));
        assert_ne!(a, b);
        topo.partition(a, b);
        assert_eq!(
            plane.scatter(&mut topo, RpcKind::DnWrite, cn, to, 128, 128),
            None
        );
        plane.shutdown_transport();
        let stats: Vec<SiloStats> = states
            .iter()
            .map(|s| s.lock().unwrap().stats.clone())
            .collect();
        for kind in [RpcKind::DnRead, RpcKind::DnWrite] {
            let tallied: u64 = stats.iter().map(|s| s.per_kind[kind.index()]).sum();
            assert_eq!(tallied, plane.transport_msgs(kind), "{}", kind.name());
        }
        assert_eq!(plane.transport_msgs(RpcKind::DnRead), 3 * 6);
        assert_eq!(plane.transport_msgs(RpcKind::DnWrite), 2);
        // Silo 0 gets four frames per healthy scatter in two writes: its
        // own target's request and response, then the other two
        // responses. It answers each write with one.
        assert!(
            stats[0].ack_flushes < stats[0].msgs,
            "{} flushes for {} frames",
            stats[0].ack_flushes,
            stats[0].msgs
        );
    }

    #[test]
    fn a_same_silo_round_trip_is_one_write_and_one_ack_flush() {
        let (mut topo, m) = fixture();
        let (mut plane, states) = tcp_plane(&m, FaultController::default());
        let (cn, to) = scatter_targets(&m);
        for _ in 0..3 {
            plane.rtt(&mut topo, RpcKind::DnRead, cn, to[0]).unwrap();
        }
        plane.shutdown_transport();
        let s = states[0].lock().unwrap();
        assert_eq!((s.stats.msgs, s.stats.ack_flushes), (6, 3));
    }

    #[test]
    #[ignore = "wall-clock bound (sleeps 20 ms link delays); scripts/ci.sh realnet runs it"]
    fn tcp_scatter_overlaps_link_delays() {
        let (mut topo, m) = fixture();
        let faults = FaultController::default();
        let (mut plane, _) = tcp_plane(&m, faults.clone());
        let (cn, to) = scatter_targets(&m);
        let delay = SimDuration::from_millis(20);
        for silo in [1, 2] {
            faults.set_link_delay(m.host_of_silo(0), m.host_of_silo(silo), delay);
        }
        // A response leaves only once its request arrived: a round trip
        // over a delayed link pays the delay both ways.
        for _ in 0..2 {
            let d = plane
                .rtt(&mut topo, RpcKind::DnRead, cn, to[1])
                .expect("delayed but deliverable");
            assert!(
                d >= delay * 2,
                "measured {d:?}, the link delays 20ms each way"
            );
        }
        // Four legs cross a delayed link: 80 ms one after another. The two
        // requests sleep at silos 1 and 2 at once, then the two responses
        // at silo 0 at once: about 40 ms.
        let d = plane
            .scatter(&mut topo, RpcKind::DnRead, cn, [to[1], to[2]], 128, 128)
            .expect("delayed but deliverable");
        assert!(d >= delay * 2, "measured {d:?} must include both ways");
        assert!(
            d < delay * 3,
            "measured {d:?}; legs in turn take 80ms, responses in turn 60ms"
        );
        plane.shutdown_transport();
    }

    #[test]
    fn a_connection_closed_mid_batch_fails_only_its_legs_and_recovers() {
        let (mut topo, m) = fixture();
        let mut t = TcpTransport::launch(m.clone(), FaultController::default(), WallClock::new())
            .expect("bind loopback");
        let states = t.states();
        let (cn, to) = scatter_targets(&m);
        let env = |from, to| Envelope {
            kind: RpcKind::DnRead,
            from,
            to,
            bytes: 128,
        };
        let pairs = to.map(|node| [env(cn, node), env(node, cn)]);
        let mut delivered = 0;
        let mut scatter = |t: &mut TcpTransport| {
            let mut delays = [[None; 2]; 3];
            t.deliver_pairs(&mut topo, &pairs, &mut delays);
            delivered += delays.iter().flatten().filter(|d| d.is_some()).count() as u64;
            delays
        };
        assert!(scatter(&mut t).iter().flatten().all(Option::is_some));
        // Silo 1 ends its connection (the shutdown sentinel returns its
        // handler) while the next batch is being written to it.
        let conn = t.streams[1].as_mut().expect("connected");
        conn.get_mut().write_all(&wire::encode_shutdown()).unwrap();
        let delays = scatter(&mut t);
        assert_eq!(delays[1], [None; 2], "{delays:?}");
        for pair in [0, 2] {
            assert!(delays[pair].iter().all(Option::is_some), "{delays:?}");
        }
        assert!(t.streams[1].is_none(), "the failed stream is dropped");
        assert!(t.streams[0].is_some() && t.streams[2].is_some());
        // The next batch reconnects and reads in-sequence acks.
        assert!(scatter(&mut t).iter().flatten().all(Option::is_some));
        t.shutdown();
        // Every frame a silo handled was reported delivered, and no other.
        let tallied: u64 = states
            .iter()
            .map(|s| s.lock().unwrap().stats.per_kind[RpcKind::DnRead.index()])
            .sum();
        assert_eq!(tallied, delivered);
        assert_eq!(delivered, 6 + 4 + 6);
        assert_eq!(topo.total_stats().messages, delivered);
        // A stale ack is an error, not a panic.
        let stale = wire::encode_ack(&wire::Ack {
            seq: 5,
            ok: true,
            value: 0,
        });
        assert!(check_ack(&stale[4..], 6, "test").is_err());
    }

    #[test]
    #[ignore = "wall-clock bound (sleeps a 5 ms link delay); scripts/ci.sh realnet runs it"]
    fn link_delay_is_physically_enacted() {
        let (mut topo, m) = fixture();
        let faults = FaultController::default();
        let mut t = TcpTransport::launch(m.clone(), faults.clone(), WallClock::new())
            .expect("bind loopback");
        let env = cross_silo_env(&m);
        let (ha, hb) = (
            m.host_of_silo(m.silo_of(env.from)),
            m.host_of_silo(m.silo_of(env.to)),
        );
        faults.set_link_delay(ha, hb, SimDuration::from_millis(5));
        let d = t.deliver(&mut topo, env).expect("delayed but deliverable");
        assert!(
            d.as_nanos() >= 5_000_000,
            "measured {}ns must include the 5ms link delay",
            d.as_nanos()
        );
        faults.clear_link_delay(ha, hb);
        let d = t.deliver(&mut topo, env).unwrap();
        assert!(
            d.as_nanos() < 5_000_000,
            "cleared delay, got {}ns",
            d.as_nanos()
        );
    }

    #[test]
    fn partitioned_topology_blocks_real_delivery() {
        let (mut topo, m) = fixture();
        let mut t =
            ThreadTransport::launch(m.clone(), FaultController::default(), WallClock::new());
        let env = cross_silo_env(&m);
        let (ra, rb) = (topo.node_region(env.from), topo.node_region(env.to));
        topo.partition(ra, rb);
        assert!(t.deliver(&mut topo, env).is_none(), "partitioned regions");
        topo.heal(ra, rb);
        assert!(t.deliver(&mut topo, env).is_some(), "healed partition");
    }
}
