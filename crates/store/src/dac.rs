//! The cost model of the database access control (DAC) queue.
//!
//! Section 3.9: "the database access control (DAC) module, one for each
//! index, buffers database access requests in a queue and communicates with
//! the local database". The queue itself lives in `mind-core` (`dac_drive`):
//! it batches pending insertions — tuned for the high insertion rates of
//! network monitoring — and resolves queries in arrival order.
//!
//! What lives here is the explicit [`DacCostModel`] the discrete-event
//! simulator charges per batch for realistic per-node processing time. The
//! paper attributes part of its latency tails to exactly this queue ("one
//! of these queries was queued behind the other... query database access is
//! not interleaved with network transmission").

use mind_types::node::SimTime;

/// Per-operation processing costs used to model node execution time.
///
/// Defaults approximate a mid-2000s PlanetLab node running the prototype's
/// Java + MySQL stack — deliberately slow, so that simulated insertion and
/// query latencies land in the paper's observed ranges.
#[derive(Debug, Clone, Copy)]
pub struct DacCostModel {
    /// Fixed cost to pick up a batch.
    pub batch_overhead: SimTime,
    /// Cost per inserted record.
    pub per_insert: SimTime,
    /// Fixed cost per query (SQL build + planner in the prototype).
    pub per_query: SimTime,
    /// Cost per record returned by a query.
    pub per_result: SimTime,
}

impl DacCostModel {
    /// No modelled cost: what a node without MySQL behind it pays, where
    /// a batch costs only the store's own work.
    pub const FREE: DacCostModel = DacCostModel {
        batch_overhead: 0,
        per_insert: 0,
        per_query: 0,
        per_result: 0,
    };

    /// `true` when every cost is 0: the DAC then stores a pass's jobs and
    /// releases their effects at the end of that pass.
    pub fn is_free(&self) -> bool {
        self.batch_overhead == 0
            && self.per_insert == 0
            && self.per_query == 0
            && self.per_result == 0
    }
}

impl Default for DacCostModel {
    fn default() -> Self {
        DacCostModel {
            batch_overhead: 2_000, // 2 ms
            per_insert: 150,       // 0.15 ms
            per_query: 8_000,      // 8 ms
            per_result: 40,        // 0.04 ms
        }
    }
}
