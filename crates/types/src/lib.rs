//! Core data model shared by every MIND crate.
//!
//! This crate defines the vocabulary of the MIND system from the ICDE 2005
//! paper *Advanced Indexing Techniques for Wide-Area Network Monitoring*:
//!
//! * [`Value`]s and [`Record`]s — multi-attribute data items (aggregated flow
//!   records in the paper's driving application),
//! * [`IndexSchema`] — the per-index attribute layout a user supplies to
//!   `create_index` (the paper used an XML description; we use a typed,
//!   serde-serializable struct),
//! * [`HyperRect`] — axis-aligned hyper-rectangles in the attribute space,
//!   used both for data-space cuts and for range queries,
//! * [`BitCode`] — variable-length bit strings that name hypercube vertices
//!   and data-space hyper-rectangles,
//! * [`NodeId`] / [`NodeLogic`] — the transport-agnostic, event-driven node
//!   abstraction that lets the same overlay logic run on the deterministic
//!   discrete-event simulator (`mind-netsim`) or on real TCP (`mind-net`),
//! * [`host::HostCore`] and [`scheduler::Scheduler`] — the per-node core
//!   and the timer wheel that every driver of a [`NodeLogic`] shares,
//! * [`wire`] — the one encoder of the wire layout, with the three things
//!   done to its bytes: buffer them, count them, hash them.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod code;
pub mod driver;
pub mod error;
pub mod host;
pub mod node;
pub mod record;
pub mod rect;
pub mod scheduler;
pub mod schema;
pub mod wire;

pub use code::BitCode;
pub use driver::ClusterDriver;
pub use error::MindError;
pub use node::{NodeId, NodeLogic, Outbox, SimTime, TimerId, WireSize};
pub use record::{Record, RecordId};
pub use rect::HyperRect;
pub use schema::{AttrDef, AttrKind, IndexSchema, Replication};

/// std's `HashMap` with a fixed-key hasher (SipHash-1-3, as `RandomState`,
/// but keyed the same in every process), so its iteration order is a
/// function of its insert/remove sequence and same-seed runs replay it.
#[expect(
    clippy::disallowed_types,
    reason = "the one place std's randomly seeded map is named"
)]
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// std's `HashSet` over the fixed-key hasher of [`DetHashMap`].
#[expect(
    clippy::disallowed_types,
    reason = "the one place std's randomly seeded set is named"
)]
pub type DetHashSet<T> = std::collections::HashSet<T, FixedState>;

type FixedState = std::hash::BuildHasherDefault<std::hash::DefaultHasher>;

/// A single attribute value.
///
/// All attribute domains in MIND are encoded into `u64`: IPv4 addresses and
/// prefixes map to their 32-bit integer form, timestamps to seconds (or any
/// finer unit), byte counts and fan-outs directly. This mirrors the paper,
/// where every indexed attribute is an ordered numeric domain and the
/// data-space cuts are defined by numeric thresholds.
pub type Value = u64;
