//! The MIND hypercube overlay (Section 3.3 and 3.8 of the paper).
//!
//! A MIND deployment organizes its nodes into a (possibly unbalanced)
//! hypercube: every node owns a [`BitCode`](mind_types::BitCode), the code
//! set is prefix-free and complete (the leaves of a binary tree), and the
//! dimension-`i` neighbor of a node is a representative of the subtree
//! reached by flipping bit `i` of its code. This crate implements:
//!
//! * **greedy bit-fixing routing** — each hop forwards to the neighbor
//!   whose code extends the longest common prefix with the target by at
//!   least one more bit, guaranteeing monotone progress on a healthy
//!   overlay ([`Overlay::route`]),
//! * **Adler-style randomized join** — a joiner lands on a random node via
//!   a short random walk, picks the shortest-code node in that
//!   neighborhood, and splits its code; concurrent joins are serialized by
//!   the paper's deadlock-free preemption rule (a join at a shallower node
//!   aborts uncommitted deeper joins) — Figure 4,
//! * **failure handling** — neighbor heartbeats, sibling takeover by code
//!   shortening, recursive sibling-subtree claims, and self-healing
//!   neighbor tables (Section 3.8),
//! * **expanding-ring recovery** — when greedy routing dead-ends during a
//!   transient, a scoped broadcast finds a node with equal-or-better code
//!   overlap and forwarding resumes from there (Section 3.8),
//! * **scoped flooding** — index creation/drop reach every node with
//!   duplicate suppression (Section 3.4),
//! * **static construction** — experiments can instantiate a pre-built
//!   balanced overlay directly, the way the paper "carefully constructed"
//!   its 34-node PlanetLab overlay ([`builder`]).
//!
//! The overlay is transport-free: it is a [`NodeLogic`]-style state machine
//! component embedded in `mind-core`'s node and driven by `mind-netsim` or
//! `mind-net`.
//!
//! [`NodeLogic`]: mind_types::NodeLogic

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod builder;
pub mod messages;
pub mod overlay;
pub mod table;

pub use builder::{balanced_codes, StaticTopology};
pub use messages::{OverlayEvent, OverlayMsg};
pub use overlay::{Overlay, OverlayConfig};
pub use table::{NeighborEntry, NeighborTable};
