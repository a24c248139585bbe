//! Distributed-invariant auditing for the MIND cluster.
//!
//! MIND's correctness rests on a handful of global invariants that no single
//! node can check locally: the live overlay codes must tile the hypercube,
//! neighbor tables must stay dimension-consistent and symmetric, every index
//! version's cut tree must partition the attribute space, replicas must sit
//! at the prefix neighbors that would take over on failure, and query splits
//! must cover the query rectangle exactly once. This crate makes those
//! invariants executable:
//!
//! * [`Snapshot`] is a plain-data, side-effect-free capture of the state the
//!   invariants range over. `mind-core` knows how to extract one from a
//!   running cluster (`MindCluster::audit_snapshot`); tests can also build
//!   (and deliberately corrupt) snapshots by hand.
//! * [`Auditor`] deterministically verifies a snapshot and reports precise
//!   [`Violation`]s — each one names the node, index, version, code or
//!   rectangle at fault, so a failing audit is directly actionable.
//!
//! The crate deliberately depends only on `mind-types` and `mind-histogram`
//! so that every higher layer (overlay, core, netsim) can be audited without
//! a dependency cycle.
//!
//! This is the dynamic half of the wall; the static half — forbidden source
//! patterns, reported as `file:line` diagnostics — is `mind-analysis`
//! (`cargo run -p mind-analysis --bin analyze -- .`).

pub mod auditor;
pub mod snapshot;

pub use auditor::{check_query_split, AuditConfig, AuditReport, Auditor, Violation, ViolationKind};
pub use snapshot::{
    IndexSnapshot, NeighborSnapshot, NodeSnapshot, ReplicationSnapshot, Snapshot, VersionSnapshot,
};
