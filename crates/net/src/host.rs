//! The thread-per-connection TCP driver.
//!
//! One [`TcpHost`] runs one [`NodeLogic`] instance:
//!
//! * a **listener thread** accepts inbound peers and spawns a reader
//!   thread per connection; readers decode `(sender, message)` frames into
//!   the driver's channel,
//! * the **driver thread** owns the logic, its timer heap, and a cache of
//!   outbound connections; it processes one event at a time, so the logic
//!   sees exactly the same single-threaded world as under the simulator,
//! * applications call [`TcpHost::invoke`] to run a closure against the
//!   logic (the `with_node` of the real world).
//!
//! Hardening (PR 9): sends to a live-but-disconnected peer attempt one
//! reconnect before counting a drop; repeated dial failures back off with
//! a capped exponential delay so a dead peer cannot stall the driver;
//! every drop/reconnect/throttle is counted in [`HostStats`]; inbound
//! readers throttle when the driver's queue backs up; shutdown drains
//! pending work and flushes outbound buffers.
//!
//! Clock: microseconds since the driver's epoch, satisfying the
//! [`SimTime`] contract. A fleet that crashes and revives hosts passes a
//! shared epoch through [`HostOptions`] so the clock stays monotone
//! across incarnations.

use crate::frame::{read_frame, write_frame};
use crate::wire::{from_bytes, to_bytes};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use mind_types::node::{NodeLogic, Outbox, SimTime};
use mind_types::NodeId;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// Successful re-dials of a peer whose cached connection had failed.
    pub reconnects: u64,
    /// Times an inbound reader slept because the driver's queue was over
    /// the high-water mark.
    pub inbound_throttled: u64,
}

/// Spawn-time knobs for [`TcpHost::spawn_with`].
///
/// The defaults reproduce [`TcpHost::spawn`]; a fleet reviving a crashed
/// node passes the previous incarnation's `timer_seq` (so timer ids never
/// collide across restarts) and the fleet-wide `epoch` (so `now` stays
/// monotone).
#[derive(Debug, Clone, Copy)]
pub struct HostOptions {
    /// First timer id the new incarnation may allocate.
    pub timer_seq: u64,
    /// Clock epoch; `None` means "this host's spawn instant".
    pub epoch: Option<Instant>,
}

impl Default for HostOptions {
    fn default() -> Self {
        HostOptions {
            timer_seq: 1,
            epoch: None,
        }
    }
}

/// A MIND node (or any [`NodeLogic`]) running over real TCP.
pub struct TcpHost<L: NodeLogic> {
    id: NodeId,
    cmd_tx: Sender<Cmd<L>>,
    driver: Option<JoinHandle<(L, u64)>>,
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
        let (tx, rx) = bounded(1);
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
        Self::spawn_with(id, listener, peers, logic, HostOptions::default())
    }

    /// [`TcpHost::spawn`] with explicit clock epoch and timer-id seed —
    /// the revive path for fleets that restart crashed hosts.
    pub fn spawn_with(
        id: NodeId,
        listener: TcpListener,
        peers: HashMap<NodeId, SocketAddr>,
        logic: L,
        options: HostOptions,
    ) -> io::Result<Self> {
        let listen_addr = listener.local_addr()?;
        let (cmd_tx, cmd_rx) = unbounded::<Cmd<L>>();
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
                        let cmd_tx = cmd_tx.clone();
                        let stop = Arc::clone(&stop);
                        let stats = Arc::clone(&stats);
                        std::thread::Builder::new()
                            .name(format!("mind-read-{}", id.0))
                            .spawn(move || {
                                let mut reader = BufReader::new(stream);
                                while !stop.load(Ordering::Relaxed) {
                                    match read_frame(&mut reader) {
                                        Ok(Some(bytes)) => {
                                            match from_bytes::<(NodeId, L::Msg)>(&bytes) {
                                                Ok((from, msg)) => {
                                                    // Backpressure: sleep while the
                                                    // driver's queue is over the high
                                                    // water mark instead of buffering
                                                    // without bound.
                                                    while stats
                                                        .inbound_pending
                                                        .load(Ordering::Relaxed)
                                                        > INBOUND_HIGH_WATER
                                                        && !stop.load(Ordering::Relaxed)
                                                    {
                                                        stats
                                                            .inbound_throttled
                                                            .fetch_add(1, Ordering::Relaxed);
                                                        std::thread::sleep(Duration::from_millis(
                                                            1,
                                                        ));
                                                    }
                                                    stats
                                                        .inbound_pending
                                                        .fetch_add(1, Ordering::Relaxed);
                                                    stats
                                                        .msgs_received
                                                        .fetch_add(1, Ordering::Relaxed);
                                                    if cmd_tx.send(Cmd::Inbound(from, msg)).is_err()
                                                    {
                                                        break;
                                                    }
                                                }
                                                Err(_) => break, // corrupted peer
                                            }
                                        }
                                        _ => break, // EOF or error
                                    }
                                }
                            })
                            .expect("spawn reader"); // lint:allow(unwrap) thread-spawn failure is fatal for the host
                    }
                })
                .expect("spawn listener") // lint:allow(unwrap) thread-spawn failure is fatal for the host
        };

        // Driver thread.
        let driver = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name(format!("mind-drive-{}", id.0))
                .spawn(move || driver_loop(id, logic, cmd_rx, peers, stop, stats, options))
                .expect("spawn driver") // lint:allow(unwrap) thread-spawn failure is fatal for the host
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
    pub fn invoke<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R + Send + 'static,
    {
        // lint:allow(unwrap) the driver lives as long as `self` and replies unless it panicked
        self.handle().invoke(f).expect("driver answered")
    }

    /// Stops the driver and returns the final logic state.
    pub fn shutdown(self) -> L {
        self.halt().0
    }

    /// Stops the driver and returns the final logic state plus the next
    /// free timer id — everything a fleet needs to revive this node
    /// without timer-id collisions.
    pub fn halt(mut self) -> (L, u64) {
        // lint:allow(unwrap) halt consumes self, so the driver is not yet joined
        let joined = self.stop_threads().expect("not yet joined");
        // lint:allow(unwrap) surfacing a driver panic is correct
        joined.expect("driver panicked")
    }
}

impl<L: NodeLogic> TcpHost<L> {
    /// Stops and joins the listener and driver threads; the driver's
    /// result, `None` once already joined. The listener is joined first:
    /// once this returns the listen address is free to rebind
    /// (crash/revive relies on this).
    fn stop_threads(&mut self) -> Option<std::thread::Result<(L, u64)>> {
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

#[derive(PartialEq, Eq)]
struct TimerEntry {
    deadline: SimTime,
    /// Raw [`mind_types::TimerId`]; monotonic per host, so it doubles as
    /// the FIFO tie-breaker for equal deadlines.
    id: u64,
    token: u64,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via reversed compare.
        (other.deadline, other.id).cmp(&(self.deadline, self.id))
    }
}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Dial backoff bounds for peers whose connections keep failing.
const DIAL_BACKOFF_FLOOR: Duration = Duration::from_millis(50);
const DIAL_BACKOFF_CAP: Duration = Duration::from_secs(2);

struct PeerConn {
    writer: Option<BufWriter<TcpStream>>,
    /// Consecutive dial failures; drives the backoff exponent.
    dial_failures: u32,
    /// No redial before this instant.
    next_dial: Instant,
}

impl PeerConn {
    fn fresh() -> Self {
        PeerConn {
            writer: None,
            dial_failures: 0,
            next_dial: Instant::now(),
        }
    }
}

/// Outbound connections, owned by the driver thread alone.
struct Conns {
    peers: HashMap<NodeId, SocketAddr>,
    streams: HashMap<NodeId, PeerConn>,
    stats: Arc<HostStats>,
}

impl Conns {
    /// Sends one encoded frame, dialing on demand. A send over a cached
    /// connection that fails gets exactly one reconnect attempt before
    /// the message counts as dropped; a peer whose dials keep failing
    /// enters a capped exponential backoff so the driver never stalls on
    /// it. Every dropped message is counted in [`HostStats`]; the
    /// overlay's heartbeats and retries recover the rest.
    fn send(&mut self, to: NodeId, frame: &[u8]) {
        let conn = self.streams.entry(to).or_insert_with(PeerConn::fresh);

        // Fast path: write over the cached connection.
        if let Some(w) = conn.writer.as_mut() {
            if write_frame(w, frame).is_ok() {
                self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // The cached connection went bad: drop it and fall through to
            // the single reconnect attempt below.
            conn.writer = None;
        }

        // Dial path (first contact, or the one reconnect after a failed
        // write). Honor the backoff window of a peer that keeps refusing.
        if Instant::now() < conn.next_dial {
            self.stats.sends_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let Some(addr) = self.peers.get(&to) else {
            self.stats.sends_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        match TcpStream::connect_timeout(addr, Duration::from_millis(500)) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                if conn.dial_failures > 0 || conn.writer.is_none() {
                    self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                conn.dial_failures = 0;
                let mut w = BufWriter::new(s);
                if write_frame(&mut w, frame).is_ok() {
                    self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
                    conn.writer = Some(w);
                } else {
                    self.stats.sends_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                conn.dial_failures = conn.dial_failures.saturating_add(1);
                let backoff = DIAL_BACKOFF_FLOOR
                    .saturating_mul(1u32 << conn.dial_failures.min(5))
                    .min(DIAL_BACKOFF_CAP);
                conn.next_dial = Instant::now() + backoff;
                self.stats.sends_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Flushes every cached outbound connection (shutdown drain).
    fn flush_all(&mut self) {
        for conn in self.streams.values_mut() {
            if let Some(w) = conn.writer.as_mut() {
                let _ = w.flush();
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn driver_loop<L>(
    id: NodeId,
    mut logic: L,
    cmd_rx: Receiver<Cmd<L>>,
    peers: HashMap<NodeId, SocketAddr>,
    stop: Arc<AtomicBool>,
    stats: Arc<HostStats>,
    options: HostOptions,
) -> (L, u64)
where
    L: NodeLogic,
    L::Msg: Serialize + DeserializeOwned,
{
    let epoch = options.epoch.unwrap_or_else(Instant::now);
    let now = || epoch.elapsed().as_micros() as SimTime;
    let mut conns = Conns {
        peers,
        streams: HashMap::new(),
        stats: Arc::clone(&stats),
    };
    let mut timers: BinaryHeap<TimerEntry> = BinaryHeap::new();
    // Pending (un-cancelled) timer ids. Cancellation removes the id here;
    // the heap entry is discarded lazily when its deadline comes up.
    let mut live: HashSet<u64> = HashSet::new();
    // Timer-id counter, threaded through every outbox so ids stay unique
    // for the lifetime of the host (and, via HostOptions, across
    // incarnations of a revived node).
    let mut timer_seq = options.timer_seq;

    let mut flush = |out: &mut Outbox<L::Msg>,
                     timers: &mut BinaryHeap<TimerEntry>,
                     live: &mut HashSet<u64>,
                     timer_seq: &mut u64,
                     t: SimTime| {
        let fx = out.drain();
        *timer_seq = fx.next_timer_id;
        for (to, msg) in fx.sends {
            if let Ok(frame) = to_bytes(&(id, msg)) {
                conns.send(to, &frame);
            }
        }
        for (delay, token, tid) in fx.timers {
            live.insert(tid.0);
            timers.push(TimerEntry {
                deadline: t + delay,
                id: tid.0,
                token,
            });
        }
        for tid in fx.cancels {
            live.remove(&tid.0);
        }
    };

    let mut out = Outbox::with_timer_seq(timer_seq);
    let t0 = now();
    logic.on_start(t0, &mut out);
    flush(&mut out, &mut timers, &mut live, &mut timer_seq, t0);

    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // Fire due timers, skipping cancelled ones.
        let t = now();
        while timers.peek().is_some_and(|e| e.deadline <= t) {
            let Some(e) = timers.pop() else { break };
            if !live.remove(&e.id) {
                continue; // cancelled while pending
            }
            let mut out = Outbox::with_timer_seq(timer_seq);
            logic.on_timer(now(), e.token, &mut out);
            flush(&mut out, &mut timers, &mut live, &mut timer_seq, now());
        }
        // Wait for the next command or timer deadline.
        let wait = timers
            .peek()
            .map(|e| Duration::from_micros(e.deadline.saturating_sub(now())))
            .unwrap_or(Duration::from_millis(100));
        match cmd_rx.recv_timeout(wait.min(Duration::from_millis(250))) {
            Ok(Cmd::Inbound(from, msg)) => {
                stats.inbound_pending.fetch_sub(1, Ordering::Relaxed);
                let mut out = Outbox::with_timer_seq(timer_seq);
                logic.on_message(now(), from, msg, &mut out);
                flush(&mut out, &mut timers, &mut live, &mut timer_seq, now());
            }
            Ok(Cmd::Invoke(f)) => {
                let mut out = Outbox::with_timer_seq(timer_seq);
                f(&mut logic, now(), &mut out);
                flush(&mut out, &mut timers, &mut live, &mut timer_seq, now());
            }
            Ok(Cmd::Shutdown) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    // Graceful drain: answer any invokes already queued (their callers
    // are blocked on the reply), count off queued inbounds, and flush
    // outbound buffers so acks written just before shutdown reach peers.
    loop {
        match cmd_rx.try_recv() {
            Ok(Cmd::Invoke(f)) => {
                let mut out = Outbox::with_timer_seq(timer_seq);
                f(&mut logic, now(), &mut out);
                flush(&mut out, &mut timers, &mut live, &mut timer_seq, now());
            }
            Ok(Cmd::Inbound(..)) => {
                stats.inbound_pending.fetch_sub(1, Ordering::Relaxed);
            }
            Ok(Cmd::Shutdown) | Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
        }
    }
    conns.flush_all();
    (logic, timer_seq)
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
        // The driver survives; invoke still works; the drops are counted.
        let n = a.invoke(|l, _n, _o| l.got.len());
        assert_eq!(n, 0);
        let stats = a.stats();
        assert_eq!(stats.sends_dropped, 2, "both sends must count as drops");
        a.shutdown();
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
        let (_b_logic, b_seq) = b.halt();

        // Restart b on the same address (SO_REUSEADDR) as a new
        // incarnation.
        let l1b = TcpListener::bind(addr1).expect("rebind b");
        let b2 = TcpHost::spawn_with(
            NodeId(1),
            l1b,
            peers,
            Echo {
                got: vec![],
                timer_fired: false,
            },
            HostOptions {
                timer_seq: b_seq,
                epoch: None,
            },
        )
        .unwrap();

        // a's cached connection is now dead. Sends must flow again —
        // possibly after a few tries (the dead socket may absorb writes
        // until TCP notices, and the reconnect backoff may defer a dial).
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut i = 0u64;
        while b2.invoke(|l, _n, _o| l.got.is_empty()) {
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
}
