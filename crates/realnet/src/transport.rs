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
use std::io::Write;
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

fn check_ack(ack: &wire::Ack, seq: u64, who: &str) {
    if ack.seq != seq {
        panic!("{who}: ack out of sequence: sent {seq}, got {}", ack.seq);
    }
    if !ack.ok {
        // Membership covers every topology node, so a rejected route is a
        // wiring bug; the silo still tallied the frame, keep counters
        // consistent but be loud.
        eprintln!("{who}: silo rejected routed frame (seq {seq})");
    }
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

    pub fn fault_controller(&self) -> FaultController {
        self.faults.clone()
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
        let ack = wire::decode_ack(&ack_body).ok()?;
        check_ack(&ack, self.seq, "thread transport");
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

/// Each silo runs a loopback-TCP accept loop; envelopes travel as
/// length-prefixed frames over real sockets with Nagle disabled.
pub struct TcpTransport {
    membership: StaticMembership,
    faults: FaultController,
    silos: Vec<SharedSilo>,
    listeners: Vec<TcpSilo>,
    /// Lazily-connected client stream per destination silo.
    streams: Vec<Option<TcpStream>>,
    /// The request frame and the ack body of the round trip in flight,
    /// reused so a delivery allocates nothing.
    frame: Vec<u8>,
    ack: Vec<u8>,
    seq: u64,
    down: bool,
}

const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn serve_connection(silo: SharedSilo, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // One request body and one ack frame per connection, reused.
    let (mut body, mut ack) = (Vec::new(), Vec::new());
    loop {
        if wire::read_frame_into(&mut stream, &mut body).is_err() {
            return; // peer closed (or corrupt length): drop conn
        }
        if !handle_frame_into(&silo, &body, &mut ack) {
            return; // shutdown sentinel
        }
        if wire::write_frame(&mut stream, &ack).is_err() {
            return;
        }
    }
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
        let streams = (0..listeners.len()).map(|_| None).collect();
        Ok(TcpTransport {
            membership,
            faults,
            silos,
            listeners,
            streams,
            frame: Vec::new(),
            ack: Vec::new(),
            seq: 0,
            down: false,
        })
    }

    /// Handles on the running silos (for end-of-run verification).
    pub fn states(&self) -> Vec<SharedSilo> {
        self.silos.iter().map(Arc::clone).collect()
    }

    pub fn fault_controller(&self) -> FaultController {
        self.faults.clone()
    }

    fn stream_to(&mut self, silo: usize) -> Option<&mut TcpStream> {
        if self.streams[silo].is_none() {
            let stream = TcpStream::connect(self.listeners[silo].addr).ok()?;
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            self.streams[silo] = Some(stream);
        }
        self.streams[silo].as_mut()
    }

    /// Send the encoded request in `self.frame` to silo `dst` and wait
    /// for its ack; the measured round trip in nanoseconds.
    fn round_trip(&mut self, dst: usize, seq: u64) -> Option<u64> {
        self.stream_to(dst)?;
        let (stream, frame, ack) = (self.streams[dst].as_mut()?, &self.frame, &mut self.ack);
        let start = Instant::now();
        let io = (|| -> std::io::Result<wire::Ack> {
            stream.write_all(frame)?;
            stream.flush()?;
            wire::read_frame_into(stream, ack)?;
            wire::decode_ack(ack)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
        })();
        match io {
            Ok(ack) => {
                check_ack(&ack, seq, "tcp transport");
                Some(start.elapsed().as_nanos() as u64)
            }
            Err(_) => {
                // Broken pipe / timeout: drop the stream so the next
                // delivery reconnects, report undeliverable.
                self.streams[dst] = None;
                None
            }
        }
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn deliver(&mut self, topo: &mut Topology, env: Envelope) -> Option<SimDuration> {
        let (dst, delay_ns) = plan_delivery(topo, &self.membership, &self.faults, &env)?;
        self.seq += 1;
        let req = make_request(&env, self.seq, delay_ns);
        wire::encode_request_into(&req, &mut self.frame);
        let measured = self.round_trip(dst, self.seq)?;
        topo.record_delivery(env.from, env.to, env.bytes);
        Some(SimDuration::from_nanos(measured))
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
            if let Some(mut stream) = s.take() {
                let _ = stream.write_all(&frame);
                let _ = stream.flush();
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
    use globaldb::{ClusterConfig, RpcKind};

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

    #[test]
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
