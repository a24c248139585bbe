//! The cluster-driver seam: one contract for "something that runs a set
//! of [`NodeLogic`] state machines and a clock".
//!
//! Everything the high-level experiment API (`mind-core`'s `MindCluster`)
//! needs from its substrate fits behind this trait:
//!
//! * **invoke**: run a closure against one node's logic, routing the
//!   effects it emits ([`ClusterDriver::with_node`], [`ClusterDriver::read`]),
//! * **clock**: a monotone microsecond clock shared by every node of the
//!   deployment ([`ClusterDriver::now`]) — simulated time on the
//!   discrete-event simulator, wall time since fleet start on a real
//!   transport,
//! * **time advance**: let the deployment make progress for a bounded
//!   interval ([`ClusterDriver::run_for`], [`ClusterDriver::quiesce`]),
//! * **fault injection**: crash and revive individual nodes
//!   ([`ClusterDriver::crash`], [`ClusterDriver::revive`]).
//!
//! Two implementations exist: `mind-netsim`'s `World` (deterministic
//! discrete-event simulation — `run_for` *is* the event loop, replay is
//! byte-identical under the same seed) and `mind-net`'s `TcpFleet`
//! (one thread-per-connection TCP host per node, real clocks driving the
//! reliability layer's retry/ack/batch-flush timers — `run_for` sleeps
//! wall time and delivery is best-effort ordered). The determinism
//! boundary lives exactly here: protocol logic above the seam cannot
//! observe which driver it runs on except through timing.
//!
//! Closures crossing the seam are `Send + 'static` and return
//! `Send + 'static` values because a real-transport driver executes them
//! on the hosted node's driver thread; the simulator runs them inline and
//! the bounds cost it nothing.

use crate::node::{NodeLogic, Outbox, SimTime};
use crate::NodeId;

/// Drives a fixed-size deployment of [`NodeLogic`] instances.
///
/// Node ids are dense: `NodeId(0) .. NodeId(len() - 1)`. A driver never
/// forgets a node — crashed nodes keep their id and may be revived.
pub trait ClusterDriver<L: NodeLogic> {
    /// Number of nodes in the deployment, alive or dead.
    fn len(&self) -> usize;

    /// `true` when the deployment has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deployment clock, in microseconds: simulated time on the
    /// simulator, time since fleet start on a real transport. Monotone
    /// across crash/revive of any node.
    fn now(&self) -> SimTime;

    /// `true` if the node is currently up.
    fn is_alive(&self, id: NodeId) -> bool;

    /// Runs `f` against node `id`'s logic at the driver's current time,
    /// routing any effects (sends, timers) the closure emits. This is how
    /// an application invokes the MIND interface on its local node.
    ///
    /// On a crashed node `f` still runs and its result returns, but its
    /// effects are dropped: a dead node sends nothing and arms nothing, so
    /// a row inserted there is lost.
    fn with_node<R, F>(&mut self, id: NodeId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut L, SimTime, &mut Outbox<L::Msg>) -> R + Send + 'static;

    /// Runs a read-only closure against node `id`'s logic (metrics
    /// harvesting, test oracles). Must not perturb the deployment: no
    /// effects are routed.
    fn read<R, F>(&self, id: NodeId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&L) -> R + Send + 'static;

    /// Lets the deployment make progress for `d` microseconds: the
    /// simulator processes events up to `now + d`; a real transport
    /// sleeps while its nodes run on their own threads.
    fn run_for(&mut self, d: SimTime);

    /// Best-effort settle barrier, bounded by `limit` microseconds: the
    /// simulator drains its event queue (stopping early if it empties); a
    /// real transport waits until traffic stops flowing. On return the
    /// deployment is *likely* quiescent — callers that need a hard
    /// guarantee must poll an application-level condition via [`Self::read`].
    fn quiesce(&mut self, limit: SimTime);

    /// The natural condition-polling step for this driver: how far
    /// [`Self::run_for`] should advance between checks of an
    /// application-level predicate. Coarse on the simulator (50 ms of
    /// simulated time costs nothing), fine on a real transport (every
    /// step is a wall-clock sleep).
    fn poll_interval(&self) -> SimTime {
        50 * crate::node::MILLIS
    }

    /// Crashes node `id`: its pending timers die, in-flight messages to
    /// it are lost, and further sends to it are dropped until revival.
    fn crash(&mut self, id: NodeId);

    /// Revives a crashed node: its logic observes a restart (`on_start`
    /// runs again) and rejoins the deployment.
    fn revive(&mut self, id: NodeId);
}
