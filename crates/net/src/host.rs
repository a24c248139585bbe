//! The thread-per-connection TCP driver.
//!
//! One [`TcpHost`] runs one [`NodeLogic`] instance:
//!
//! * a **listener thread** accepts inbound peers and spawns a reader
//!   thread per connection; readers decode `(sender, message)` frames into
//!   the driver's channel,
//! * the **driver thread** owns the node's [`HostCore`], a timer wheel of
//!   its own, and a cache of outbound connections; it processes one event
//!   at a time, so the logic sees exactly the same single-threaded world
//!   as under the simulator,
//! * applications call [`TcpHost::invoke`] to run a closure against the
//!   logic (the `with_node` of the real world).
//!
//! Every event — start, timer, inbound frame, invoke — is one *pass* of
//! the core: its frames are encoded into per-peer pass buffers that
//! leave in one `write_all` per peer, then its timers are armed and
//! cancelled on the wheel. A failed write over a cached
//! connection gets one redial before the pass's frames to that peer count
//! as dropped; repeated dial failures back off with a capped exponential
//! delay so a dead peer cannot stall the driver; every
//! drop/reconnect/throttle is counted in [`HostStats`]; inbound readers
//! throttle when the driver's queue backs up; shutdown answers the invokes
//! already queued.
//!
//! Clock: microseconds since the driver's epoch, satisfying the
//! [`SimTime`] contract. A fleet that crashes and revives hosts spawns
//! each one on a shared epoch, and a revived host on its predecessor's
//! core, so the clock stays monotone and timer ids never repeat across
//! incarnations.

use crate::frame::{read_frame, write_frame};
use crate::wire::{from_bytes, to_bytes};
use mind_types::host::HostCore;
use mind_types::node::{NodeLogic, Outbox, SimTime, TimerId};
use mind_types::scheduler::Scheduler;
use mind_types::NodeId;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A closure run on the hosted node by the driver thread.
type InvokeFn<L> = Box<dyn FnOnce(&mut L, SimTime, &mut Outbox<<L as NodeLogic>::Msg>) + Send>;

enum Cmd<L: NodeLogic> {
    Invoke(InvokeFn<L>),
    Inbound(NodeId, L::Msg),
    Shutdown,
}

/// Inbound frames the driver may have queued before readers throttle.
///
/// A slow driver (long invoke, GC pause) makes readers sleep instead of
/// buffering without bound; the TCP windows upstream push back from there.
const INBOUND_HIGH_WATER: usize = 8192;

/// Shared counters for one host's transport activity.
///
/// All counters are monotone over the host's lifetime; read them as a
/// coherent-enough snapshot via [`TcpHost::stats`].
#[derive(Default)]
pub struct HostStats {
    msgs_sent: AtomicU64,
    msgs_received: AtomicU64,
    sends_dropped: AtomicU64,
    reconnects: AtomicU64,
    inbound_pending: AtomicUsize,
    inbound_throttled: AtomicU64,
}

impl HostStats {
    fn snapshot(&self) -> HostStatsSnapshot {
        HostStatsSnapshot {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            msgs_received: self.msgs_received.load(Ordering::Relaxed),
            sends_dropped: self.sends_dropped.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            inbound_throttled: self.inbound_throttled.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a host's [`HostStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostStatsSnapshot {
    /// Frames written to a peer connection successfully.
    pub msgs_sent: u64,
    /// Frames decoded from inbound connections.
    pub msgs_received: u64,
    /// Sends dropped after the reconnect attempt (or while a dead peer's
    /// dial backoff is in effect). Never silent: every drop lands here.
    pub sends_dropped: u64,
    /// Successful dials of a peer that had a connection before or whose
    /// last dial failed; a first contact is not a reconnect.
    pub reconnects: u64,
    /// Times an inbound reader slept because the driver's queue was over
    /// the high-water mark.
    pub inbound_throttled: u64,
}

/// A MIND node (or any [`NodeLogic`]) running over real TCP.
pub struct TcpHost<L: NodeLogic> {
    id: NodeId,
    cmd_tx: Sender<Cmd<L>>,
    driver: Option<JoinHandle<HostCore<L>>>,
    listener_thread: Option<JoinHandle<()>>,
    listen_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<HostStats>,
}

/// A cloneable handle for invoking a [`TcpHost`] from other threads
/// (e.g. a control-protocol server living next to the host).
pub struct HostHandle<L: NodeLogic> {
    cmd_tx: Sender<Cmd<L>>,
    stats: Arc<HostStats>,
}

impl<L: NodeLogic> Clone for HostHandle<L> {
    fn clone(&self) -> Self {
        HostHandle {
            cmd_tx: self.cmd_tx.clone(),
            stats: Arc::clone(&self.stats),
        }
    }
}

impl<L: NodeLogic> HostHandle<L> {
    /// Runs `f` against the node logic on the driver thread; `None` if
    /// the host has shut down.
    pub fn invoke<R, F>(&self, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R + Send + 'static,
    {
        let (tx, rx) = mpsc::sync_channel(1);
        self.cmd_tx
            .send(Cmd::Invoke(Box::new(move |logic, now, out| {
                let _ = tx.send(f(logic, now, out));
            })))
            .ok()?;
        rx.recv().ok()
    }

    /// A snapshot of the host's transport counters.
    pub fn stats(&self) -> HostStatsSnapshot {
        self.stats.snapshot()
    }
}

impl<L> TcpHost<L>
where
    L: NodeLogic + Send + 'static,
    L::Msg: Serialize + DeserializeOwned + Send + 'static,
{
    /// Spawns the host on a pre-bound listener. `peers` maps every node id
    /// in the deployment (including this one) to its listen address.
    pub fn spawn(
        id: NodeId,
        listener: TcpListener,
        peers: HashMap<NodeId, SocketAddr>,
        logic: L,
    ) -> io::Result<Self> {
        Self::spawn_core(id, listener, peers, HostCore::new(logic), Instant::now())
    }

    /// [`TcpHost::spawn`] from a core and a clock epoch: a fleet spawns
    /// every host on its one epoch, and a revived host on the core its
    /// predecessor's [`TcpHost::halt`] returned.
    #[expect(
        clippy::expect_used,
        reason = "thread-spawn failure is fatal for the host"
    )]
    pub(crate) fn spawn_core(
        id: NodeId,
        listener: TcpListener,
        peers: HashMap<NodeId, SocketAddr>,
        core: HostCore<L>,
        epoch: Instant,
    ) -> io::Result<Self> {
        let listen_addr = listener.local_addr()?;
        let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd<L>>();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(HostStats::default());

        // Listener thread: accept → per-connection reader thread. The
        // handle is kept so `halt` can join it — the listener socket must
        // be provably closed before `halt` returns, or a same-address
        // rebind (crash/revive) races the accept loop's exit.
        let listener_thread = {
            let cmd_tx = cmd_tx.clone();
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name(format!("mind-listen-{}", id.0))
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let (cmd_tx, stop, stats) =
                            (cmd_tx.clone(), Arc::clone(&stop), Arc::clone(&stats));
                        std::thread::Builder::new()
                            .name(format!("mind-read-{}", id.0))
                            .spawn(move || read_peer::<L>(stream, &cmd_tx, &stop, &stats))
                            .expect("spawn reader");
                    }
                })
                .expect("spawn listener")
        };

        let driver = Driver {
            id,
            core,
            epoch,
            conns: Conns {
                peers,
                streams: HashMap::new(),
                touched: Vec::new(),
                stats: Arc::clone(&stats),
            },
            wheel: Scheduler::new(),
        };
        let driver = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("mind-drive-{}", id.0))
                .spawn(move || driver.run(&cmd_rx, &stop))
                .expect("spawn driver")
        };

        Ok(TcpHost {
            id,
            cmd_tx,
            driver: Some(driver),
            listener_thread: Some(listener_thread),
            listen_addr,
            stop,
            stats,
        })
    }

    /// This host's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The address peers dial.
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// A snapshot of the host's transport counters.
    pub fn stats(&self) -> HostStatsSnapshot {
        self.stats.snapshot()
    }

    /// A cloneable invoke handle (for control servers and harvesters).
    pub fn handle(&self) -> HostHandle<L> {
        HostHandle {
            cmd_tx: self.cmd_tx.clone(),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Runs `f` against the node logic on the driver thread and returns
    /// its result. Effects (sends, timers) are processed as usual.
    #[expect(
        clippy::expect_used,
        reason = "the driver lives as long as `self` and replies unless it panicked"
    )]
    pub fn invoke<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R + Send + 'static,
    {
        self.handle().invoke(f).expect("driver answered")
    }

    /// Stops the driver and returns the final logic state.
    pub fn shutdown(self) -> L {
        self.halt().into_logic()
    }

    /// Stops the driver and returns its core — the final logic state and
    /// the timer-id sequence, with no timer left live — everything a
    /// fleet needs to revive this node without timer-id collisions.
    #[expect(
        clippy::expect_used,
        reason = "halt consumes self, so the driver is not yet joined; surfacing a driver panic is correct"
    )]
    pub fn halt(mut self) -> HostCore<L> {
        let joined = self.stop_threads().expect("not yet joined");
        joined.expect("driver panicked")
    }
}

impl<L: NodeLogic> TcpHost<L> {
    /// Stops and joins the listener and driver threads; the driver's
    /// result, `None` once already joined. The listener is joined first:
    /// once this returns the listen address is free to rebind
    /// (crash/revive relies on this).
    fn stop_threads(&mut self) -> Option<std::thread::Result<HostCore<L>>> {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        // Unblock the accept loop so it sees `stop`.
        let _ = TcpStream::connect(self.listen_addr);
        if let Some(l) = self.listener_thread.take() {
            let _ = l.join();
        }
        self.driver.take().map(JoinHandle::join)
    }
}

impl<L: NodeLogic> Drop for TcpHost<L> {
    fn drop(&mut self) {
        let _ = self.stop_threads();
    }
}

/// One inbound connection's reader: decodes `(sender, message)` frames
/// into the driver's queue until EOF, a corrupt frame, or shutdown.
fn read_peer<L: NodeLogic>(
    stream: TcpStream,
    cmd_tx: &Sender<Cmd<L>>,
    stop: &AtomicBool,
    stats: &HostStats,
) where
    L::Msg: DeserializeOwned,
{
    let mut reader = BufReader::new(stream);
    while !stop.load(Ordering::Relaxed) {
        let Ok(Some(bytes)) = read_frame(&mut reader) else {
            break; // EOF or error
        };
        let Ok((from, msg)) = from_bytes::<(NodeId, L::Msg)>(&bytes) else {
            break; // corrupted peer
        };
        // Backpressure: sleep while the driver's queue is over the high
        // water mark instead of buffering without bound.
        while stats.inbound_pending.load(Ordering::Relaxed) > INBOUND_HIGH_WATER
            && !stop.load(Ordering::Relaxed)
        {
            stats.inbound_throttled.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(1));
        }
        stats.inbound_pending.fetch_add(1, Ordering::Relaxed);
        stats.msgs_received.fetch_add(1, Ordering::Relaxed);
        if cmd_tx.send(Cmd::Inbound(from, msg)).is_err() {
            break;
        }
    }
}

/// Dial backoff bounds for peers whose connections keep failing.
const DIAL_BACKOFF_FLOOR: Duration = Duration::from_millis(50);
const DIAL_BACKOFF_CAP: Duration = Duration::from_secs(2);

struct PeerConn {
    stream: Option<TcpStream>,
    /// The current pass's frames to this peer, encoded back to back.
    pass: Vec<u8>,
    /// Frames in `pass`.
    frames: u64,
    /// Consecutive dial failures; drives the backoff exponent.
    dial_failures: u32,
    /// No redial before this instant.
    next_dial: Instant,
}

impl PeerConn {
    fn fresh() -> Self {
        PeerConn {
            stream: None,
            pass: Vec::new(),
            frames: 0,
            dial_failures: 0,
            next_dial: Instant::now(),
        }
    }

    /// Writes the pass buffer with one `write_all`, dialing on demand;
    /// `true` if it left. A write over the cached stream that fails gets
    /// exactly one redial, which honours the backoff window of a peer
    /// whose dials keep failing, so the driver never stalls on it. A write
    /// that failed part way may have delivered some frames already, so the
    /// redial can repeat them; receivers dedup as they do any duplicate.
    fn write_pass(&mut self, addr: Option<&SocketAddr>, stats: &HostStats) -> bool {
        let mut had_stream = false;
        if let Some(s) = self.stream.as_mut() {
            if s.write_all(&self.pass).is_ok() {
                return true;
            }
            // The cached stream went bad: drop it and redial once.
            self.stream = None;
            had_stream = true;
        }
        // No address, or inside the backoff window: no dial.
        let Some(addr) = addr.filter(|_| Instant::now() >= self.next_dial) else {
            return false;
        };
        match TcpStream::connect_timeout(addr, Duration::from_millis(500)) {
            Ok(mut s) => {
                let _ = s.set_nodelay(true);
                if had_stream || self.dial_failures > 0 {
                    stats.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                self.dial_failures = 0;
                let sent = s.write_all(&self.pass).is_ok();
                if sent {
                    self.stream = Some(s);
                }
                sent
            }
            Err(_) => {
                self.dial_failures = self.dial_failures.saturating_add(1);
                let backoff = DIAL_BACKOFF_FLOOR
                    .saturating_mul(1u32 << self.dial_failures.min(5))
                    .min(DIAL_BACKOFF_CAP);
                self.next_dial = Instant::now() + backoff;
                false
            }
        }
    }
}

/// Outbound connections, owned by the driver thread alone.
struct Conns {
    peers: HashMap<NodeId, SocketAddr>,
    streams: HashMap<NodeId, PeerConn>,
    /// Peers with frames in their pass buffer, in first-send order.
    touched: Vec<NodeId>,
    stats: Arc<HostStats>,
}

impl Conns {
    /// Appends one encoded frame to `to`'s pass buffer.
    fn queue(&mut self, to: NodeId, frame: &[u8]) {
        let conn = self.streams.entry(to).or_insert_with(PeerConn::fresh);
        if write_frame(&mut conn.pass, frame).is_err() {
            // Oversized: it could never be framed.
            self.stats.sends_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if conn.frames == 0 {
            self.touched.push(to);
        }
        conn.frames += 1;
    }

    /// Ends a pass: one write per touched peer. Its frames count as sent
    /// together or as dropped together — never silently lost; the
    /// overlay's heartbeats and retries recover the drops.
    fn end_pass(&mut self) {
        for to in self.touched.drain(..) {
            let Some(conn) = self.streams.get_mut(&to) else {
                continue;
            };
            let counter = if conn.write_pass(self.peers.get(&to), &self.stats) {
                &self.stats.msgs_sent
            } else {
                &self.stats.sends_dropped
            };
            counter.fetch_add(std::mem::take(&mut conn.frames), Ordering::Relaxed);
            // One large pass (a big query answer) must not pin its peak
            // capacity for the connection's lifetime.
            conn.pass.clear();
            conn.pass.shrink_to(1 << 16);
        }
    }
}

/// The driver thread: the hosted core and everything its effects touch.
struct Driver<L: NodeLogic> {
    id: NodeId,
    core: HostCore<L>,
    epoch: Instant,
    conns: Conns,
    /// This host's timers as `(token, id)`; equal deadlines pop in arming
    /// order.
    wheel: Scheduler<(u64, TimerId)>,
}

impl<L> Driver<L>
where
    L: NodeLogic,
    L::Msg: Serialize,
{
    fn now(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime
    }

    /// One pass: runs `f` on the core, writes its frames, one `write_all`
    /// per peer, then arms and cancels its timers.
    fn pass(&mut self, f: impl FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>)) {
        let ((), fx) = self.core.pass(self.now(), f);
        let t = self.now();
        for (to, msg) in fx.sends {
            if let Ok(frame) = to_bytes(&(self.id, msg)) {
                self.conns.queue(to, &frame);
            }
        }
        self.conns.end_pass();
        for (delay, token, id) in fx.timers {
            self.core.arm(&mut self.wheel, t, delay, id, (token, id));
        }
        for id in fx.cancels {
            self.core.cancel(&mut self.wheel, id);
        }
    }

    /// The driver loop: fires the timers due at loop start, then waits for
    /// one command or the next deadline. Returns the core with no timer
    /// left live, since its wheel ends with this thread.
    fn run(mut self, cmd_rx: &Receiver<Cmd<L>>, stop: &AtomicBool) -> HostCore<L> {
        self.pass(|logic, now, out| logic.on_start(now, out));
        while !stop.load(Ordering::Relaxed) {
            let t = self.now();
            while self.wheel.peek_time().is_some_and(|deadline| deadline <= t) {
                let Some((_, _, (token, id))) = self.wheel.pop() else {
                    break;
                };
                if self.core.due(id) {
                    self.pass(|logic, now, out| logic.on_timer(now, token, out));
                }
            }
            let wait = self
                .wheel
                .peek_time()
                .map_or(Duration::from_millis(100), |deadline| {
                    Duration::from_micros(deadline.saturating_sub(self.now()))
                });
            match cmd_rx.recv_timeout(wait.min(Duration::from_millis(250))) {
                Ok(Cmd::Inbound(from, msg)) => {
                    self.conns
                        .stats
                        .inbound_pending
                        .fetch_sub(1, Ordering::Relaxed);
                    self.pass(|logic, now, out| logic.on_message(now, from, msg, out));
                }
                Ok(Cmd::Invoke(f)) => self.pass(f),
                Ok(Cmd::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        // Graceful drain: answer any invokes already queued (their callers
        // are blocked on the reply) and count off queued inbounds. Every
        // pass has already written its frames.
        while let Ok(cmd) = cmd_rx.try_recv() {
            match cmd {
                Cmd::Invoke(f) => self.pass(f),
                Cmd::Inbound(..) => {
                    self.conns
                        .stats
                        .inbound_pending
                        .fetch_sub(1, Ordering::Relaxed);
                }
                Cmd::Shutdown => break,
            }
        }
        self.core.retire_all(&mut self.wheel);
        self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_types::WireSize;
    use serde::Deserialize;

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Ping(u64);
    impl WireSize for Ping {}

    struct Echo {
        got: Vec<(NodeId, u64)>,
        timer_fired: bool,
    }

    impl NodeLogic for Echo {
        type Msg = Ping;
        fn on_start(&mut self, _now: SimTime, out: &mut Outbox<Ping>) {
            out.set_timer(10_000, 42); // 10 ms
        }
        fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Ping, out: &mut Outbox<Ping>) {
            self.got.push((from, msg.0));
            if msg.0 < 100 {
                out.send(from, Ping(msg.0 + 1));
            }
        }
        fn on_timer(&mut self, _now: SimTime, token: u64, _out: &mut Outbox<Ping>) {
            if token == 42 {
                self.timer_fired = true;
            }
        }
    }

    fn spawn_pair() -> (TcpHost<Echo>, TcpHost<Echo>) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers: HashMap<NodeId, SocketAddr> = [
            (NodeId(0), l0.local_addr().unwrap()),
            (NodeId(1), l1.local_addr().unwrap()),
        ]
        .into();
        let a = TcpHost::spawn(
            NodeId(0),
            l0,
            peers.clone(),
            Echo {
                got: vec![],
                timer_fired: false,
            },
        )
        .unwrap();
        let b = TcpHost::spawn(
            NodeId(1),
            l1,
            peers,
            Echo {
                got: vec![],
                timer_fired: false,
            },
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn messages_flow_over_real_tcp() {
        let (a, b) = spawn_pair();
        a.invoke(|_logic, _now, out| out.send(NodeId(1), Ping(98)));
        // 98 -> b, 99 -> a, 100 -> b (no further reply).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let done = b.invoke(|l, _n, _o| l.got.iter().map(|&(_, v)| v).collect::<Vec<_>>());
            if done == vec![98, 100] {
                break;
            }
            assert!(Instant::now() < deadline, "timed out; b saw {done:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let a_stats = a.stats();
        assert!(a_stats.msgs_sent >= 1);
        assert!(a_stats.msgs_received >= 1);
        let a_logic = a.shutdown();
        assert_eq!(
            a_logic.got.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            vec![99]
        );
        assert!(a_logic.timer_fired, "timers must fire on the real clock");
        drop(b);
    }

    #[test]
    fn send_to_unreachable_peer_counts_drops() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peers: HashMap<NodeId, SocketAddr> = HashMap::new();
        peers.insert(NodeId(0), l0.local_addr().unwrap());
        // Peer 9 does not exist.
        peers.insert(NodeId(9), "127.0.0.1:1".parse().unwrap());
        let a = TcpHost::spawn(
            NodeId(0),
            l0,
            peers,
            Echo {
                got: vec![],
                timer_fired: false,
            },
        )
        .unwrap();
        a.invoke(|_l, _n, out| out.send(NodeId(9), Ping(1)));
        a.invoke(|_l, _n, out| out.send(NodeId(9), Ping(2)));
        // One pass of three frames: all three count, none is lost silently.
        a.invoke(|_l, _n, out| (3..6).for_each(|v| out.send(NodeId(9), Ping(v))));
        // The driver survives; invoke still works; the drops are counted.
        let n = a.invoke(|l, _n, _o| l.got.len());
        assert_eq!(n, 0);
        let stats = a.stats();
        assert_eq!(stats.sends_dropped, 5, "every send must count as a drop");
        assert_eq!(stats.msgs_sent, 0);
        a.shutdown();
    }

    #[test]
    fn first_contact_is_not_a_reconnect() {
        let (a, b) = spawn_pair();
        a.invoke(|_logic, _now, out| out.send(NodeId(1), Ping(98)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.invoke(|l, _n, _o| l.got.is_empty()) {
            assert!(Instant::now() < deadline, "no reply arrived");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(a.stats().reconnects, 0);
        assert_eq!(b.stats().reconnects, 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn one_pass_reaches_a_peer_whole_and_in_order() {
        let (a, b) = spawn_pair();
        let sent_before = a.stats().msgs_sent;
        // Values past Echo's reply range, so b sends nothing back.
        a.invoke(|_l, _n, out| (1000..1500).for_each(|v| out.send(NodeId(1), Ping(v))));
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = loop {
            let got = b.invoke(|l, _n, _o| l.got.iter().map(|&(_, v)| v).collect::<Vec<_>>());
            if got.len() >= 500 {
                break got;
            }
            assert!(Instant::now() < deadline, "b saw {} of 500", got.len());
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(got, (1000..1500).collect::<Vec<_>>());
        // The driver is single-threaded: this invoke runs after the pass
        // above has counted its write.
        a.invoke(|_l, _n, _o| ());
        assert_eq!(a.stats().msgs_sent - sent_before, 500);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_held_driver_throttles_its_reader_and_loses_nothing() {
        let (a, b) = spawn_pair();
        // Hold b's driver in a long invoke from another thread.
        let (started_tx, started_rx) = mpsc::channel();
        let held = b.handle();
        let holder = std::thread::spawn(move || {
            held.invoke(move |_l, _n, _o| {
                started_tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(300));
                7
            })
        });
        started_rx.recv().unwrap();
        // One pass past the high-water mark, with values past Echo's reply
        // range, so b sends nothing back.
        let end = 1000 + INBOUND_HIGH_WATER as u64 + 2000;
        a.invoke(move |_l, _n, out| (1000..end).for_each(|v| out.send(NodeId(1), Ping(v))));
        assert_eq!(
            holder.join().unwrap(),
            Some(7),
            "the held invoke is answered"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let got = loop {
            let got = b.invoke(|l, _n, _o| l.got.iter().map(|&(_, v)| v).collect::<Vec<_>>());
            if got.len() as u64 >= end - 1000 {
                break got;
            }
            assert!(Instant::now() < deadline, "b saw {} frames", got.len());
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(got, (1000..end).collect::<Vec<_>>());
        assert!(
            b.stats().inbound_throttled > 0,
            "the reader never throttled"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn reconnects_after_peer_restart() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr1 = l1.local_addr().unwrap();
        let peers: HashMap<NodeId, SocketAddr> =
            [(NodeId(0), l0.local_addr().unwrap()), (NodeId(1), addr1)].into();
        let a = TcpHost::spawn(
            NodeId(0),
            l0,
            peers.clone(),
            Echo {
                got: vec![],
                timer_fired: false,
            },
        )
        .unwrap();
        let b = TcpHost::spawn(
            NodeId(1),
            l1,
            peers.clone(),
            Echo {
                got: vec![],
                timer_fired: false,
            },
        )
        .unwrap();

        // Establish a's cached connection to b.
        a.invoke(|_l, _n, out| out.send(NodeId(1), Ping(200)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.invoke(|l, _n, _o| l.got.is_empty()) {
            assert!(Instant::now() < deadline, "first send never arrived");
            std::thread::sleep(Duration::from_millis(10));
        }

        // Kill b; its listener dies with it.
        let b_core = b.halt();
        let seen = b_core.logic().got.len();

        // Restart b on the same address (SO_REUSEADDR) as a new
        // incarnation.
        let l1b = TcpListener::bind(addr1).expect("rebind b");
        let b2 = TcpHost::spawn_core(NodeId(1), l1b, peers, b_core, Instant::now()).unwrap();

        // a's cached connection is now dead. Sends must flow again —
        // possibly after a few tries (the dead socket may absorb writes
        // until TCP notices, and the reconnect backoff may defer a dial).
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut i = 0u64;
        while b2.invoke(move |l, _n, _o| l.got.len() == seen) {
            assert!(Instant::now() < deadline, "reconnect never delivered");
            a.invoke(move |_l, _n, out| out.send(NodeId(1), Ping(201 + i)));
            i += 1;
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(
            a.stats().reconnects >= 1,
            "the re-dial must be counted as a reconnect"
        );
        a.shutdown();
        b2.shutdown();
    }

    #[test]
    fn dropping_a_host_stops_it_like_halt() {
        let (a, b) = spawn_pair();
        let (addr, handle) = (a.listen_addr(), a.handle());
        assert_eq!(handle.invoke(|l, _n, _o| l.got.len()), Some(0));
        drop(a);
        // The listener is joined, so the address rebinds at once, and the
        // driver is gone, so a surviving handle gets `None`, not a hang.
        let _rebound = TcpListener::bind(addr).expect("rebind after drop");
        assert_eq!(handle.invoke(|l, _n, _o| l.got.len()), None);
        b.shutdown();
    }

    /// Records the token of every timer that fires.
    struct Fired(Vec<u64>);

    impl NodeLogic for Fired {
        type Msg = Ping;
        fn on_start(&mut self, _now: SimTime, _out: &mut Outbox<Ping>) {}
        fn on_message(
            &mut self,
            _now: SimTime,
            _from: NodeId,
            _msg: Ping,
            _out: &mut Outbox<Ping>,
        ) {
        }
        fn on_timer(&mut self, _now: SimTime, token: u64, _out: &mut Outbox<Ping>) {
            self.0.push(token);
        }
    }

    #[test]
    fn timers_on_the_real_clock_fire_in_arming_order_unless_cancelled() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = [(NodeId(0), l0.local_addr().unwrap())].into();
        let a = TcpHost::spawn(NodeId(0), l0, peers, Fired(vec![])).unwrap();
        let doomed = a.invoke(|_l, _n, out| {
            out.set_timer(0, 1);
            out.set_timer(200_000, 2);
            out.set_timer(200_000, 3);
            out.set_timer(200_000, 4)
        });
        // A later event's outbox cancels it, 200 ms before it is due.
        a.invoke(move |_l, _n, out| out.cancel_timer(doomed));
        let deadline = Instant::now() + Duration::from_secs(5);
        // 2, 3 and 4 share a deadline, so the driver pops them in one
        // batch before it takes the next invoke: 4 cannot fire later.
        while a.invoke(|l, _n, _o| l.0.len()) < 3 {
            assert!(Instant::now() < deadline, "timers never fired");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(a.shutdown().0, vec![1, 2, 3]);
    }
}
