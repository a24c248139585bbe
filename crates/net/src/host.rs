//! The thread-per-connection TCP driver.
//!
//! One [`TcpHost`] runs one [`NodeLogic`] instance. The node's
//! [`HostCore`] and its timer wheel sit behind one lock, and the thread
//! that has an event takes it and runs that event's pass there:
//!
//! * a **listener thread** accepts inbound peers and spawns a reader
//!   thread per connection. A reader decodes one frame, waits for the
//!   core, runs the frame's pass and writes what it sent before it reads
//!   the next; the socket buffer and TCP flow control bound what waits
//!   upstream of it,
//! * applications call [`TcpHost::invoke`] to run a closure against the
//!   logic (the `with_node` of the real world) on their own thread, under
//!   the lock,
//! * the **driver thread** keeps time: it parks until the wheel's next
//!   deadline and fires the due timers. A pass that arms an earlier
//!   deadline unparks it.
//!
//! The lock lets one pass run at a time, so the logic sees exactly the
//! same single-threaded world as under the simulator, and every thread
//! holds it for one event.
//!
//! Every event — start, timer, inbound frame, invoke — is one *pass* of
//! the core: its frames are appended to per-peer outbound queues under the
//! lock, then its timers are armed and cancelled on the wheel. The thread
//! that ran the pass writes the queues after unlocking, in queue order per
//! peer. Outbound sockets are non-blocking, and a write that would block
//! leaves its bytes for the driver thread, so no thread that reads a
//! socket ever blocks on a socket write; an invoke waits while a peer's
//! queue is over `OUTBOUND_HIGH_WATER`. A failed write over a cached
//! connection gets one redial before the queued frames to that peer count
//! as dropped; readers leave dials to the other threads; repeated dial
//! failures back off with a capped exponential delay so a dead peer cannot
//! stall the host; every drop, reconnect and reader wait for a busy core
//! is counted in [`HostStats`]. A panic inside a pass poisons the lock:
//! later invokes return `None` and [`TcpHost::halt`] panics.
//!
//! Clock: microseconds since the host's epoch, satisfying the
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
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Bytes queued to one peer past which an invoke waits for them to leave.
///
/// Readers never wait for a write, or they would stop draining their own
/// socket; an invoke, on an application thread, pushes back instead.
const OUTBOUND_HIGH_WATER: usize = 4 << 20;

/// How long a thread waits before it retries a write the socket refused.
const WRITE_RETRY: Duration = Duration::from_micros(200);

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
    /// Times an inbound reader found the core busy and waited for it.
    pub inbound_throttled: u64,
}

/// A MIND node (or any [`NodeLogic`]) running over real TCP.
pub struct TcpHost<L: NodeLogic> {
    shared: Arc<Shared<L>>,
    driver: Option<JoinHandle<()>>,
    listener_thread: Option<JoinHandle<()>>,
    listen_addr: SocketAddr,
}

/// A cloneable handle for invoking a [`TcpHost`] from other threads
/// (e.g. a control-protocol server living next to the host).
pub struct HostHandle<L: NodeLogic> {
    shared: Arc<Shared<L>>,
}

impl<L: NodeLogic> Clone for HostHandle<L> {
    fn clone(&self) -> Self {
        HostHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<L: NodeLogic> HostHandle<L>
where
    L::Msg: Serialize,
{
    /// Runs `f` against the node logic on this thread, under the core
    /// lock; `None` if the host has shut down or a pass panicked.
    pub fn invoke<R, F>(&self, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R + Send + 'static,
    {
        self.shared.invoke(f)
    }

    /// A snapshot of the host's transport counters.
    pub fn stats(&self) -> HostStatsSnapshot {
        self.shared.stats.snapshot()
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
        let shared = Arc::new(Shared {
            id,
            epoch,
            core: Mutex::new(Some(Core {
                host: core,
                wheel: Scheduler::new(),
                touched: Vec::new(),
                wakes_at: 0,
            })),
            links: peers
                .into_iter()
                .map(|(peer, addr)| (peer, Mutex::new(Link::new(addr))))
                .collect(),
            backlog: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            stats: HostStats::default(),
            driver: OnceLock::new(),
        });
        // The start pass runs before any other thread can reach the core.
        shared.invoke(|logic, now, out| logic.on_start(now, out));

        let driver = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("mind-drive-{}", id.0))
                .spawn(move || shared.drive())
                .expect("spawn driver")
        };
        let _ = shared.driver.set(driver.thread().clone());

        // Listener thread: accept → per-connection reader thread. The
        // handle is kept so `halt` can join it — the listener socket must
        // be provably closed before `halt` returns, or a same-address
        // rebind (crash/revive) races the accept loop's exit.
        let listener_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("mind-listen-{}", id.0))
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shared.stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let shared = Arc::clone(&shared);
                        std::thread::Builder::new()
                            .name(format!("mind-read-{}", id.0))
                            .spawn(move || shared.read_peer(stream))
                            .expect("spawn reader");
                    }
                })
                .expect("spawn listener")
        };

        Ok(TcpHost {
            shared,
            driver: Some(driver),
            listener_thread: Some(listener_thread),
            listen_addr,
        })
    }

    /// This host's node id.
    pub fn id(&self) -> NodeId {
        self.shared.id
    }

    /// The address peers dial.
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// A snapshot of the host's transport counters.
    pub fn stats(&self) -> HostStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// A cloneable invoke handle (for control servers and harvesters).
    pub fn handle(&self) -> HostHandle<L> {
        HostHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs `f` against the node logic on this thread, under the core
    /// lock, and returns its result. Effects (sends, timers) are processed
    /// as usual.
    #[expect(
        clippy::expect_used,
        reason = "the host runs as long as `self`, so only a panicked pass refuses an invoke"
    )]
    pub fn invoke<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R + Send + 'static,
    {
        self.shared.invoke(f).expect("no pass panicked")
    }

    /// Stops the host and returns the final logic state.
    pub fn shutdown(self) -> L {
        self.halt().into_logic()
    }

    /// Stops the host and returns its core — the final logic state and
    /// the timer-id sequence, with no timer left live — everything a
    /// fleet needs to revive this node without timer-id collisions.
    #[expect(
        clippy::expect_used,
        reason = "halt consumes self, so the core is still there unless a pass panicked; surfacing that panic is correct"
    )]
    pub fn halt(mut self) -> HostCore<L> {
        self.stop_threads().expect("no pass panicked")
    }
}

impl<L: NodeLogic> TcpHost<L> {
    /// Stops and joins the listener and driver threads, takes the core out
    /// of the lock and closes the outbound connections. Returns the core;
    /// `None` once already stopped or if a pass panicked. The listener is
    /// joined first: once this returns the listen address is free to
    /// rebind (crash/revive relies on this).
    fn stop_threads(&mut self) -> Option<HostCore<L>> {
        let shared = &self.shared;
        shared.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop so it sees `stop`.
        let _ = TcpStream::connect(self.listen_addr);
        if let Some(l) = self.listener_thread.take() {
            let _ = l.join();
        }
        let driver = self.driver.take()?;
        driver.thread().unpark();
        let _ = driver.join();
        // No pass runs once the core is out; what the queues still hold
        // gets one last write, and the rest counts as dropped.
        let core = shared.lock().and_then(|mut core| core.take());
        for link in shared.links.values() {
            hold(link).close(&shared.stats);
        }
        let mut core = core?;
        core.host.retire_all(&mut core.wheel);
        Some(core.host)
    }
}

impl<L: NodeLogic> Drop for TcpHost<L> {
    fn drop(&mut self) {
        let _ = self.stop_threads();
    }
}

/// Locks a mutex no pass runs under, so no panic can poison it.
fn hold<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The core and everything a pass touches, behind the host's one lock.
struct Core<L: NodeLogic> {
    host: HostCore<L>,
    /// This host's timers as `(token, id)`; equal deadlines pop in arming
    /// order.
    wheel: Scheduler<(u64, TimerId)>,
    /// Peers the passes of this lock hold queued frames to; the holder
    /// writes their queues after unlocking.
    touched: Vec<NodeId>,
    /// When the parked driver thread wakes on its own; 0 while it is
    /// awake. A pass that arms an earlier deadline unparks it.
    wakes_at: SimTime,
}

/// What a host's threads share.
struct Shared<L: NodeLogic> {
    id: NodeId,
    epoch: Instant,
    /// `None` once the host has halted.
    core: Mutex<Option<Core<L>>>,
    /// One outbound queue per peer in the deployment.
    links: HashMap<NodeId, Mutex<Link>>,
    /// Some queue holds bytes a refused write left for the driver thread.
    backlog: AtomicBool,
    stop: AtomicBool,
    stats: HostStats,
    /// The driver thread, set once it is spawned.
    driver: OnceLock<Thread>,
}

/// Who writes the queues a pass filled.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Writer {
    /// Reads a socket: never dials, never waits for a write.
    Reader,
    /// Keeps time and finishes refused writes.
    Driver,
    /// An application thread: waits while a queue is over the bound.
    Invoke,
}

impl<L: NodeLogic> Shared<L> {
    fn now(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime
    }

    /// Takes the core, waiting for it; `None` if a pass panicked.
    fn lock(&self) -> Option<MutexGuard<'_, Option<Core<L>>>> {
        self.core.lock().ok()
    }

    fn unpark_driver(&self) {
        if let Some(driver) = self.driver.get() {
            driver.unpark();
        }
    }

    /// Writes the queues to `peers`. A queue the socket refuses (or a
    /// reader cannot dial for) is left to the driver thread.
    fn write(&self, peers: &[NodeId], by: Writer) {
        for link in peers.iter().filter_map(|to| self.links.get(to)) {
            loop {
                let mut link = hold(link);
                if link.write(by != Writer::Reader, &self.stats) {
                    break;
                }
                if by != Writer::Invoke || link.queued() <= OUTBOUND_HIGH_WATER {
                    self.backlog.store(true, Ordering::SeqCst);
                    if by != Writer::Driver {
                        self.unpark_driver();
                    }
                    break;
                }
                drop(link);
                std::thread::sleep(WRITE_RETRY);
            }
        }
    }
}

impl<L: NodeLogic> Shared<L>
where
    L::Msg: Serialize,
{
    /// One pass on the held core: runs `f`, appends its frames to their
    /// peers' queues, then arms and cancels its timers.
    fn pass<R>(
        &self,
        core: &mut Core<L>,
        f: impl FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R,
    ) -> R {
        let (r, fx) = core.host.pass(self.now(), f);
        let t = self.now();
        for (to, msg) in fx.sends {
            let Ok(frame) = to_bytes(&(self.id, msg)) else {
                continue;
            };
            if !self.links.get(&to).is_some_and(|l| hold(l).queue(&frame)) {
                self.stats.sends_dropped.fetch_add(1, Ordering::Relaxed);
            } else if !core.touched.contains(&to) {
                core.touched.push(to);
            }
        }
        for (delay, token, id) in fx.timers {
            core.host.arm(&mut core.wheel, t, delay, id, (token, id));
        }
        for id in fx.cancels {
            core.host.cancel(&mut core.wheel, id);
        }
        if let Some(d) = core.wheel.peek_time().filter(|&d| d < core.wakes_at) {
            core.wakes_at = d;
            self.unpark_driver();
        }
        r
    }

    /// Runs `f` on this thread under the core lock, then writes its
    /// frames. A panicking pass unwinds through the guard, which poisons
    /// the lock: this invoke and every later one return `None`.
    fn invoke<R>(&self, f: impl FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R) -> Option<R> {
        let (r, touched) = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut guard = self.lock()?;
            let core = guard.as_mut()?;
            let r = self.pass(core, f);
            Some((r, std::mem::take(&mut core.touched)))
        }))
        .ok()??;
        self.write(&touched, Writer::Invoke);
        Some(r)
    }

    /// One inbound connection's reader: until EOF, a corrupt frame, a
    /// halt or shutdown, decodes one `(sender, message)` frame, runs its
    /// pass under the core lock and writes what it sent.
    fn read_peer(&self, stream: TcpStream)
    where
        L::Msg: DeserializeOwned,
    {
        let mut reader = BufReader::new(stream);
        while !self.stop.load(Ordering::Relaxed) {
            let Ok(Some(bytes)) = read_frame(&mut reader) else {
                break; // EOF or error
            };
            let Ok((from, msg)) = from_bytes::<(NodeId, L::Msg)>(&bytes) else {
                break; // corrupted peer
            };
            self.stats.msgs_received.fetch_add(1, Ordering::Relaxed);
            let guard = match self.core.try_lock() {
                Err(TryLockError::WouldBlock) => {
                    self.stats.inbound_throttled.fetch_add(1, Ordering::Relaxed);
                    self.lock()
                }
                taken => taken.ok(),
            };
            let Some(mut guard) = guard else { break };
            let Some(core) = guard.as_mut() else { break };
            self.pass(core, |node, now, out| node.on_message(now, from, msg, out));
            let touched = std::mem::take(&mut core.touched);
            drop(guard);
            self.write(&touched, Writer::Reader);
        }
    }

    /// The driver thread: finishes refused writes, fires due timers, then
    /// parks until the next deadline (or a retry of a refused write).
    fn drive(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            if self.backlog.swap(false, Ordering::SeqCst) {
                let peers: Vec<NodeId> = self.links.keys().copied().collect();
                self.write(&peers, Writer::Driver);
            }
            let Some(mut guard) = self.lock() else {
                return;
            };
            let Some(core) = guard.as_mut() else {
                return;
            };
            core.wakes_at = 0;
            let t = self.now();
            while core.wheel.peek_time().is_some_and(|deadline| deadline <= t) {
                let Some((_, _, (token, id))) = core.wheel.pop() else {
                    break;
                };
                if core.host.due(id) {
                    self.pass(core, |logic, now, out| logic.on_timer(now, token, out));
                }
            }
            let next = core.wheel.peek_time();
            core.wakes_at = next.unwrap_or(SimTime::MAX);
            let touched = std::mem::take(&mut core.touched);
            drop(guard);
            self.write(&touched, Writer::Driver);
            let wait = next.map(|d| Duration::from_micros(d.saturating_sub(self.now())));
            match wait {
                _ if self.backlog.load(Ordering::SeqCst) => {
                    std::thread::park_timeout(wait.map_or(WRITE_RETRY, |w| w.min(WRITE_RETRY)));
                }
                Some(w) => std::thread::park_timeout(w),
                None => std::thread::park(),
            }
        }
    }
}

/// Dial backoff bounds for peers whose connections keep failing.
const DIAL_BACKOFF_FLOOR: Duration = Duration::from_millis(50);
const DIAL_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// One peer's outbound queue and connection.
///
/// Frames count as sent once every byte of their chunk has left, and as
/// dropped together when the peer cannot be reached — never silently
/// lost; the overlay's heartbeats and retries recover the drops.
struct Link {
    addr: SocketAddr,
    /// Non-blocking once dialed.
    stream: Option<TcpStream>,
    /// The chunk being written; `out[head..]` has not left yet.
    out: Vec<u8>,
    head: usize,
    /// Frames in `out`.
    out_frames: u64,
    /// Frames queued behind `out`, encoded back to back.
    next: Vec<u8>,
    next_frames: u64,
    /// The last stream failed, so the next dial is a reconnect.
    lost: bool,
    /// Consecutive dial failures; drives the backoff exponent.
    dial_failures: u32,
    /// No redial before this instant.
    next_dial: Instant,
}

impl Link {
    fn new(addr: SocketAddr) -> Self {
        Link {
            addr,
            stream: None,
            out: Vec::new(),
            head: 0,
            out_frames: 0,
            next: Vec::new(),
            next_frames: 0,
            lost: false,
            dial_failures: 0,
            next_dial: Instant::now(),
        }
    }

    /// Appends one encoded frame; `false` if it is oversized and could
    /// never be framed.
    fn queue(&mut self, frame: &[u8]) -> bool {
        let framed = write_frame(&mut self.next, frame).is_ok();
        self.next_frames += u64::from(framed);
        framed
    }

    /// Bytes queued that have not left yet.
    fn queued(&self) -> usize {
        self.out.len() - self.head + self.next.len()
    }

    /// Writes until the queue is empty (`true`) or the socket refuses more
    /// (`false`). Without `dial`, a missing connection also answers
    /// `false`. A write over the cached stream that fails resends its chunk
    /// whole over exactly one redial, which honours the backoff window of
    /// a peer whose dials keep failing; receivers dedup any frame it
    /// repeats. If that fails too, everything queued counts as dropped.
    fn write(&mut self, dial: bool, stats: &HostStats) -> bool {
        let mut dialed = false;
        loop {
            if self.head == self.out.len() {
                let sent = std::mem::take(&mut self.out_frames);
                stats.msgs_sent.fetch_add(sent, Ordering::Relaxed);
                self.out.clear();
                self.head = 0;
                // One large chunk (a big query answer) must not pin its
                // peak capacity for the connection's lifetime.
                self.out.shrink_to(1 << 16);
                if self.next.is_empty() {
                    return true;
                }
                std::mem::swap(&mut self.out, &mut self.next);
                self.out_frames = std::mem::take(&mut self.next_frames);
            }
            let Some(stream) = self.stream.as_mut() else {
                if !dial {
                    return false;
                }
                if dialed || !self.dial(stats) {
                    self.drop_queued(stats);
                    return true;
                }
                dialed = true;
                continue;
            };
            match stream.write(&self.out[self.head..]) {
                Ok(n) if n > 0 => self.head += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => {
                    self.stream = None;
                    self.lost = true;
                    self.head = 0;
                }
            }
        }
    }

    /// Dials the peer unless inside its backoff window; `true` if a
    /// non-blocking stream is up.
    fn dial(&mut self, stats: &HostStats) -> bool {
        if Instant::now() < self.next_dial {
            return false;
        }
        let dialed = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500))
            .and_then(|s| s.set_nonblocking(true).map(|()| s));
        match dialed {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                if self.lost || self.dial_failures > 0 {
                    stats.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                self.lost = false;
                self.dial_failures = 0;
                self.stream = Some(s);
                true
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

    fn drop_queued(&mut self, stats: &HostStats) {
        let frames = std::mem::take(&mut self.out_frames) + std::mem::take(&mut self.next_frames);
        stats.sends_dropped.fetch_add(frames, Ordering::Relaxed);
        self.out.clear();
        self.next.clear();
        self.head = 0;
    }

    /// At halt: one last write without waiting, the rest dropped, and the
    /// connection closed.
    fn close(&mut self, stats: &HostStats) {
        let _ = self.write(false, stats);
        self.drop_queued(stats);
        self.stream = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_types::WireSize;
    use serde::Deserialize;
    use std::sync::mpsc;

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
    fn a_held_core_makes_its_reader_wait_and_loses_nothing() {
        let (a, b) = spawn_pair();
        // Hold b's core in a long invoke from another thread.
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
        // One pass of 10,192 frames, with values past Echo's reply range,
        // so b sends nothing back.
        let end = 1000 + 10_192;
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
            "the reader never waited for the core"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn an_invoke_is_not_starved_by_a_flooding_peer() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers: HashMap<NodeId, SocketAddr> = [
            (NodeId(0), l0.local_addr().unwrap()),
            (NodeId(1), l1.local_addr().unwrap()),
        ]
        .into();
        let a = TcpHost::spawn(NodeId(0), l0, peers.clone(), Fired(vec![])).unwrap();
        let b = TcpHost::spawn(NodeId(1), l1, peers, Fired(vec![])).unwrap();
        // a floods b from its own thread while b's application thread
        // times how long each of its invokes waits for the core. A reader
        // holds it for one pass at a time, so a wait is short unless the
        // scheduler preempts the holder; on a busy two-core box that hits
        // a few waits a second, so the p99 is taken over 1,000 waits,
        // where a few stalls cannot set it.
        let done = AtomicBool::new(false);
        let mut waits = std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    a.invoke(|_l, _n, out| (0..500).for_each(|v| out.send(NodeId(1), Ping(v))));
                }
            });
            let waits: Vec<Duration> = (0..1000)
                .map(|_| {
                    std::thread::sleep(Duration::from_millis(2));
                    let asked = Instant::now();
                    b.invoke(move |_l, _n, _o| asked.elapsed())
                })
                .collect();
            done.store(true, Ordering::Relaxed);
            waits
        });
        waits.sort_unstable();
        let (p50, p99, worst) = (waits[500], waits[989], waits[999]);
        let flood = b.stats().msgs_received;
        println!("invoke wait under {flood} frames: p50 {p50:?}, p99 {p99:?}, worst {worst:?}");
        assert!(flood > 0, "a never reached b");
        assert!(p99 < Duration::from_millis(10), "p99 wait {p99:?}");
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

    #[test]
    fn a_panicking_pass_refuses_later_invokes_and_halt_reports_it() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = [(NodeId(0), l0.local_addr().unwrap())].into();
        let a = TcpHost::spawn(NodeId(0), l0, peers, Fired(vec![])).unwrap();
        let handle = a.handle();
        assert_eq!(
            handle.invoke(|_l, _n, _o| -> u8 { panic!("a failing pass") }),
            None
        );
        // The node may be half-updated: nothing runs on it any more.
        assert_eq!(handle.invoke(|l, _n, _o| l.0.len()), None);
        assert!(panic::catch_unwind(AssertUnwindSafe(move || a.halt())).is_err());
    }

    /// A bulk frame with its round in a flood.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Bulk {
        round: u8,
        body: String,
    }
    impl WireSize for Bulk {}

    /// Counts bulk frames and answers each below round 8 with the next
    /// round.
    struct Flood(u64);

    impl NodeLogic for Flood {
        type Msg = Bulk;
        fn on_start(&mut self, _now: SimTime, _out: &mut Outbox<Bulk>) {}
        fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Bulk, out: &mut Outbox<Bulk>) {
            self.0 += 1;
            if msg.round < 8 {
                out.send(
                    from,
                    Bulk {
                        round: msg.round + 1,
                        body: msg.body,
                    },
                );
            }
        }
        fn on_timer(&mut self, _now: SimTime, _token: u64, _out: &mut Outbox<Bulk>) {}
    }

    #[test]
    fn two_hosts_flooding_each_other_both_drain() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers: HashMap<NodeId, SocketAddr> = [
            (NodeId(0), l0.local_addr().unwrap()),
            (NodeId(1), l1.local_addr().unwrap()),
        ]
        .into();
        let a = TcpHost::spawn(NodeId(0), l0, peers.clone(), Flood(0)).unwrap();
        let b = TcpHost::spawn(NodeId(1), l1, peers, Flood(0)).unwrap();
        // Each host sends 64 frames of 256 KiB in one pass, from its own
        // thread, so both floods run at once; every frame then bounces
        // until round 8. A reader that blocked on its replies' writes
        // would stop draining its socket, and both hosts would hang.
        let body = "x".repeat(256 << 10);
        std::thread::scope(|s| {
            for (host, to) in [(&a, NodeId(1)), (&b, NodeId(0))] {
                let body = body.clone();
                s.spawn(move || {
                    host.invoke(move |_l, _n, out| {
                        for _ in 0..64 {
                            let body = body.clone();
                            out.send(to, Bulk { round: 0, body });
                        }
                    });
                });
            }
        });
        // Nine rounds of 64 frames reach each host: its peer's rounds 0,
        // 2, .., 8 and the answers 1, 3, .., 7 to its own.
        let deadline = Instant::now() + Duration::from_secs(20);
        let got = loop {
            let got = [&a, &b].map(|h| h.invoke(|l, _n, _o| l.0));
            if got.iter().all(|&n| n >= 576) {
                break got;
            }
            assert!(Instant::now() < deadline, "received {got:?} of 576 each");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(got, [576, 576]);
        a.shutdown();
        b.shutdown();
    }

    /// Arms a 10 s timer at start and a 5 ms one on every frame; records
    /// when the 5 ms timer was armed and when it fired.
    struct Alarm {
        armed: Option<SimTime>,
        fired: Option<SimTime>,
    }

    impl NodeLogic for Alarm {
        type Msg = Ping;
        fn on_start(&mut self, _now: SimTime, out: &mut Outbox<Ping>) {
            out.set_timer(10_000_000, 1);
        }
        fn on_message(&mut self, now: SimTime, _from: NodeId, _msg: Ping, out: &mut Outbox<Ping>) {
            self.armed = Some(now);
            out.set_timer(5_000, 2);
        }
        fn on_timer(&mut self, now: SimTime, token: u64, _out: &mut Outbox<Ping>) {
            if token == 2 {
                self.fired = Some(now);
            }
        }
    }

    #[test]
    fn a_timer_armed_in_a_readers_pass_fires_on_time() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers: HashMap<NodeId, SocketAddr> = [
            (NodeId(0), l0.local_addr().unwrap()),
            (NodeId(1), l1.local_addr().unwrap()),
        ]
        .into();
        let a = TcpHost::spawn(NodeId(0), l0, peers.clone(), Fired(vec![])).unwrap();
        let alarm = Alarm {
            armed: None,
            fired: None,
        };
        let b = TcpHost::spawn(NodeId(1), l1, peers, alarm).unwrap();
        // b's driver thread is parked on the 10 s timer when the frame
        // arrives, so only the wake-up the reader's pass gives it fires
        // the 5 ms one in time.
        std::thread::sleep(Duration::from_millis(50));
        a.invoke(|_l, _n, out| out.send(NodeId(1), Ping(1)));
        let deadline = Instant::now() + Duration::from_secs(5);
        let (armed, fired) = loop {
            if let (Some(armed), Some(fired)) = b.invoke(|l, _n, _o| (l.armed, l.fired)) {
                break (armed, fired);
            }
            assert!(Instant::now() < deadline, "the 5 ms timer never fired");
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(
            fired - armed < 200_000,
            "the 5 ms timer fired {} us after it was armed",
            fired - armed
        );
        a.shutdown();
        b.shutdown();
    }
}
