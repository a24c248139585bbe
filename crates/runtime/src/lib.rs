//! The process-per-node MIND runtime.
//!
//! The simulator proves the protocol; this crate deploys it. One
//! `mind-node` process hosts one `MindNode` over `mind-net`'s `TcpHost`
//! (real sockets, real clocks) and serves a small length-framed control
//! protocol for client operations — the shape the paper ran on its
//! PlanetLab and Abilene deployments, one monitor process per site.
//!
//! Pieces:
//!
//! * [`config`] — the cluster spec file (`id node_addr control_addr` per
//!   line) every process reads at startup,
//! * [`control`] — the control protocol: serde-encoded request/response
//!   frames over the same length-framing the overlay uses,
//! * [`server`] — the per-process control server, bridging control
//!   connections onto the hosted node's driver thread,
//! * [`loadgen`] — the load-generator core (also used by the smoke
//!   tests): drive a cluster with inserts and queries, then verify
//!   conservation, complete queries and audit cleanliness. It times
//!   nothing; the socket plane's costs are `BENCHMARK.json`'s.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod control;
pub mod loadgen;
pub mod server;

pub use config::ClusterSpec;
pub use control::{ControlClient, ControlRequest, ControlResponse, NodeStats};
pub use loadgen::{LoadOptions, LoadReport};
