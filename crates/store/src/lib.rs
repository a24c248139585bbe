//! Local per-node storage engine for MIND.
//!
//! The paper's prototype stored each node's share of every index in a MySQL
//! database reached over JDBC, fronted by a *database access control* (DAC)
//! module that queues requests and batches insertions (Section 3.9,
//! Figure 6). This crate replaces that stack with a native engine:
//!
//! * [`KdTree`] — a columnar (structure-of-arrays) k-d tree over the
//!   indexed attribute values with bounding-box subtree pruning, answering
//!   the multi-dimensional range scans that MySQL's B-trees served in the
//!   prototype ([`NaiveKdTree`] is the pre-columnar tree, kept as the
//!   differential-testing oracle),
//! * [`MemStore`] — the per-(index, version) record store: append-only
//!   rows held once, indexed values in levelled [`KdTree`] runs (merged
//!   four at a time) plus a columnar tail of under 1,024 rows, carried
//!   values in one strided slab (versions are dropped wholesale when they
//!   age out, so there is no per-record delete path),
//! * [`DacCostModel`] — what a DAC batch costs in simulated time, which is
//!   what gives the simulator realistic per-node processing delays (the
//!   paper attributes its latency tails partly to DAC queuing; the queue
//!   itself is `mind-core`'s `dac_drive`).
//!
//! [`MemStore`] sits behind the dyn-safe [`Store`] trait: `mind-core` and
//! the baselines hold `Box<dyn Store>` built by [`StoreKind`]. It is raced
//! differentially against [`NaiveKdTree`] and brute force by proptests and
//! the `store_range` fuzz target.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod dac;
pub mod kdtree;
pub mod mem;
pub mod naive;
pub mod store;

pub use dac::DacCostModel;
pub use kdtree::KdTree;
pub use mem::MemStore;
pub use naive::NaiveKdTree;
pub use store::{fuzz_store_range, Store, StoreKind};
