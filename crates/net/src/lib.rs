//! Real TCP transport for MIND nodes.
//!
//! The same [`NodeLogic`](mind_types::NodeLogic) state machines that run
//! on the deterministic simulator run here over `std::net` TCP sockets —
//! the proof that the MIND implementation is not simulator-bound, and the
//! path a real (non-simulated) deployment would use. The prototype in the
//! paper was a Java TCP dispatcher (Figure 6); this is its Rust
//! equivalent:
//!
//! * [`wire`] — a compact, non-self-describing binary serde format for
//!   the message enums (the paper used hand-framed Java serialization),
//! * [`frame`] — length-prefixed framing over a TCP stream,
//! * [`host`] — a thread-per-connection driver: a listener thread accepts
//!   inbound peers, reader threads decode frames into a channel, and a
//!   single driver thread owns the node logic, its timers, and the
//!   outbound connection cache — so the logic itself stays single-threaded
//!   and identical to the simulated one.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod fleet;
pub mod frame;
pub mod host;
pub mod wire;

pub use fleet::TcpFleet;
pub use host::{HostHandle, HostOptions, HostStatsSnapshot, TcpHost};
pub use wire::{from_bytes, to_bytes, WireError};
