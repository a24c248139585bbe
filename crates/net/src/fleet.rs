//! A [`ClusterDriver`] over a fleet of in-process [`TcpHost`]s.
//!
//! [`TcpFleet`] is the real-transport twin of `mind-netsim`'s `World`:
//! the same `MindCluster` API drives either one through the
//! [`ClusterDriver`] seam. Each node runs as a `TcpHost` — its own
//! threads, listener, and real-clock timers — and nodes talk over actual
//! localhost sockets, so the reliability layer's retries, acks and
//! batch-flush timers run against wall time.
//!
//! Semantics mirror the simulator where the physics allow:
//!
//! * the clock is shared (one fleet epoch) and monotone across
//!   crash/revive of any node,
//! * `crash` halts the node's host — its listener closes, peers' sends
//!   to it fail and count as drops — but keeps its [`HostCore`]: the
//!   logic state and its timer-id sequence; `with_node` on it runs the
//!   closure and drops its effects, as the simulator does,
//! * `revive` rebinds the same address and respawns the host on that core
//!   as a new incarnation (`on_start` runs again, the overlay observes a
//!   restart), so ids never collide,
//! * `run_for` is a wall-clock sleep (the nodes run on their own
//!   threads); `quiesce` samples fleet-wide traffic counters and returns
//!   early once they stop moving.
//!
//! What does **not** carry over is determinism: message interleavings are
//! whatever TCP and the scheduler produce. Protocol logic above the seam
//! cannot tell the difference except through timing.

use crate::host::TcpHost;
use mind_types::host::HostCore;
use mind_types::node::{NodeLogic, Outbox, SimTime, MILLIS};
use mind_types::{ClusterDriver, NodeId};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

enum Slot<L: NodeLogic> {
    Up(TcpHost<L>),
    /// Halted node: its parked core, everything revival needs.
    Down(HostCore<L>),
    /// Transient state while a slot is being moved; never observable.
    Vacant,
}

/// A fixed-size deployment of [`TcpHost`]s behind the [`ClusterDriver`]
/// seam.
pub struct TcpFleet<L: NodeLogic> {
    slots: Vec<Slot<L>>,
    peers: HashMap<NodeId, SocketAddr>,
    epoch: Instant,
}

impl<L> TcpFleet<L>
where
    L: NodeLogic + Send + 'static,
    L::Msg: Serialize + DeserializeOwned + Send + 'static,
{
    /// Binds one localhost listener per node and spawns the hosts.
    ///
    /// Node `k` gets `NodeId(k)`. The logic factory receives each node's
    /// id; every host learns the full peer map before it starts.
    pub fn spawn(n: usize, mut logic_for: impl FnMut(NodeId) -> L) -> io::Result<Self> {
        let mut listeners = Vec::with_capacity(n);
        let mut peers = HashMap::with_capacity(n);
        for k in 0..n {
            let l = TcpListener::bind("127.0.0.1:0")?;
            peers.insert(NodeId(k as u32), l.local_addr()?);
            listeners.push(l);
        }
        let epoch = Instant::now();
        let mut slots = Vec::with_capacity(n);
        for (k, listener) in listeners.into_iter().enumerate() {
            let id = NodeId(k as u32);
            let core = HostCore::new(logic_for(id));
            let host = TcpHost::spawn_core(id, listener, peers.clone(), core, epoch)?;
            slots.push(Slot::Up(host));
        }
        Ok(TcpFleet {
            slots,
            peers,
            epoch,
        })
    }

    /// The address node `id` listens on.
    pub fn addr(&self, id: NodeId) -> SocketAddr {
        self.peers[&id]
    }

    /// Transport counters summed over all live hosts.
    pub fn total_traffic(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match s {
                Slot::Up(h) => {
                    let st = h.stats();
                    st.msgs_sent + st.msgs_received
                }
                Slot::Down(_) | Slot::Vacant => 0,
            })
            .sum()
    }

    /// Per-node transport stats (`None` for halted nodes).
    pub fn host_stats(&self, id: NodeId) -> Option<crate::host::HostStatsSnapshot> {
        match &self.slots[id.0 as usize] {
            Slot::Up(h) => Some(h.stats()),
            Slot::Down(_) | Slot::Vacant => None,
        }
    }

    /// Halts every host and returns the final logic states in id order.
    pub fn shutdown(self) -> Vec<L> {
        self.slots
            .into_iter()
            .map(|s| match s {
                Slot::Up(h) => h.shutdown(),
                Slot::Down(core) => core.into_logic(),
                Slot::Vacant => unreachable!("vacant slot outside crash/revive"),
            })
            .collect()
    }
}

impl<L> ClusterDriver<L> for TcpFleet<L>
where
    L: NodeLogic + Send + 'static,
    L::Msg: Serialize + DeserializeOwned + Send + 'static,
{
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn now(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime
    }

    fn is_alive(&self, id: NodeId) -> bool {
        matches!(self.slots[id.0 as usize], Slot::Up(_))
    }

    fn with_node<R, F>(&mut self, id: NodeId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R + Send + 'static,
    {
        match &mut self.slots[id.0 as usize] {
            Slot::Up(h) => h.invoke(f),
            // The closure still runs against a crashed node's logic and
            // its timer ids are spent, but its effects are dropped, as on
            // every plane (see `ClusterDriver::with_node`).
            Slot::Down(core) => core.pass(self.epoch.elapsed().as_micros() as SimTime, f).0,
            Slot::Vacant => unreachable!("vacant slot outside crash/revive"),
        }
    }

    fn read<R, F>(&self, id: NodeId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&L) -> R + Send + 'static,
    {
        match &self.slots[id.0 as usize] {
            Slot::Up(h) => h.invoke(move |logic, _now, _out| f(&*logic)),
            Slot::Down(core) => f(core.logic()),
            Slot::Vacant => unreachable!("vacant slot outside crash/revive"),
        }
    }

    fn run_for(&mut self, d: SimTime) {
        // Nodes run on their own threads; advancing fleet time is just
        // letting the wall clock pass.
        std::thread::sleep(Duration::from_micros(d));
    }

    fn quiesce(&mut self, limit: SimTime) {
        // Best effort: traffic counters stable across two consecutive
        // samples ≈ nothing in flight. Bounded by `limit`.
        let deadline = Instant::now() + Duration::from_micros(limit);
        let mut last = self.total_traffic();
        let mut stable = 0;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(30));
            let cur = self.total_traffic();
            if cur == last {
                stable += 1;
                if stable >= 2 {
                    return;
                }
            } else {
                stable = 0;
                last = cur;
            }
        }
    }

    fn poll_interval(&self) -> SimTime {
        // Every step is a real sleep: keep it fine so condition polls
        // stay responsive.
        20 * MILLIS
    }

    fn crash(&mut self, id: NodeId) {
        let slot = std::mem::replace(&mut self.slots[id.0 as usize], Slot::Vacant);
        self.slots[id.0 as usize] = match slot {
            Slot::Up(h) => Slot::Down(h.halt()),
            down @ (Slot::Down(_) | Slot::Vacant) => down,
        };
    }

    fn revive(&mut self, id: NodeId) {
        let slot = std::mem::replace(&mut self.slots[id.0 as usize], Slot::Vacant);
        self.slots[id.0 as usize] = match slot {
            Slot::Down(core) => {
                let addr = self.peers[&id];
                let listener = TcpListener::bind(addr)
                    .unwrap_or_else(|e| panic!("revive {id:?}: cannot rebind {addr}: {e}"));
                #[expect(
                    clippy::expect_used,
                    reason = "thread-spawn failure is fatal for the fleet"
                )]
                let host = TcpHost::spawn_core(id, listener, self.peers.clone(), core, self.epoch)
                    .expect("revive spawn");
                Slot::Up(host)
            }
            up @ (Slot::Up(_) | Slot::Vacant) => up,
        };
    }
}
