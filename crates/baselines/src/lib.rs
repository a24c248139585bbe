//! Baseline querying architectures (Section 2.1 of the paper).
//!
//! The paper motivates MIND's distributed design by contrasting it with
//! the two classical alternatives:
//!
//! * **query flooding** — flow records stay at the monitor that produced
//!   them; every query is broadcast to every monitor and all of them
//!   evaluate it. No insert traffic, but per-query work scales with the
//!   deployment size and every node evaluates every query.
//! * **centralized** — every record is shipped to one collector node (or
//!   cluster); queries go only there. Minimal query fan-out, but the
//!   collector's links and CPU are a scaling bottleneck and a single
//!   point of failure.
//!
//! Both are implemented as [`NodeLogic`](mind_types::NodeLogic) state
//! machines over the same simulated testbed as MIND, so the ablation
//! benches can compare query latency, message cost and per-link load
//! like-for-like.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod centralized;
pub mod flooding;
pub mod messages;

pub use centralized::CentralizedNode;
pub use flooding::FloodingNode;
pub use messages::BaselineMsg;
