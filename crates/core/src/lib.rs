//! `mind-core` — the MIND distributed multi-dimensional index.
//!
//! This crate assembles the substrates (`mind-overlay`, `mind-store`,
//! `mind-histogram`) into the full system of Section 3 of the paper:
//!
//! * the **MIND interface** — `create_index`, `drop_index`,
//!   `insert_record`, `query_index`, callable on any node
//!   ([`MindNode`]),
//! * **data-space embedding** — records hash through the index's
//!   [`CutTree`](mind_histogram::CutTree) to a code and route to the owner
//!   (Sections 3.4–3.5),
//! * **query processing** — a query routes to the node owning its
//!   covering prefix, is split there into per-region sub-queries, and the
//!   responsible nodes reply *directly* to the originator, which detects
//!   completion from the announced plan (Section 3.6),
//! * **replication** — each stored record is pushed to the prefix
//!   neighbors that would take over on failure (Section 3.8),
//! * **versioned load balancing** — per-index versions, each with its own
//!   balanced cuts; an on-line daily histogram collection protocol
//!   aggregates per-node distributions at a designated node and floods the
//!   next day's cuts (Section 3.7 — the part the paper's prototype left
//!   offline, implemented here),
//! * a **DAC** processing queue per node with explicit costs, reproducing
//!   the prototype's batched, non-interleaved storage access (Section 3.9)
//!   and its latency consequences (Figure 11),
//! * [`cluster::MindCluster`] — the experiment harness that deploys a full
//!   MIND system on the `mind-netsim` testbed and gathers every metric the
//!   evaluation reports.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod audit;
pub mod cluster;
mod dac_drive;
pub mod index;
pub mod messages;
pub mod metrics;
pub mod node;
pub mod query;
mod query_track;
mod reliability;
mod rollover;
pub mod trigger;

/// Exact wire-size accounting and the catalog digest: two sinks on the one
/// wire encoder ([`mind_types::wire`]).
pub mod wire_len {
    pub use mind_types::wire::{fnv1a_digest, serialized_len};
}

pub use cluster::{ClusterConfig, MindCluster};
pub use messages::{CarriedFilter, MindPayload};
pub use metrics::{percentile, Census, FlushCounts, LatencySummary, NodeMetrics};
pub use mind_store::DacCostModel;
pub use mind_types::Replication;
pub use node::{MindConfig, MindNode};
pub use query::{QueryOutcome, QueryTracker};
pub use trigger::{Trigger, TriggerSet};
