//! A deterministic discrete-event wide-area network simulator.
//!
//! This crate is the repository's substitute for the paper's PlanetLab
//! testbed. The paper's latency and robustness results are driven by four
//! mechanisms, all modeled explicitly here:
//!
//! 1. **Wide-area propagation delay** — [`latency::GeoPoint`]s with real
//!    coordinates for Abilene and GÉANT router cities (and representative
//!    PlanetLab sites) feed a great-circle propagation model with routing
//!    inflation and jitter ([`latency::LatencyModel`]).
//! 2. **Per-link queuing** — every overlay link has a serialization rate
//!    and a single-server queue, so bursts of tuples experience the
//!    queuing pathologies of Figure 8.
//! 3. **Heterogeneous node load** — per-node service-time multipliers model
//!    the notoriously overloaded PlanetLab machines responsible for the
//!    paper's long latency tails.
//! 4. **Transient failures** — scheduled link outages and node
//!    crashes/revivals drive the recovery machinery of Section 3.8 and the
//!    robustness experiment of Figure 16.
//!
//! The simulator is single-threaded and fully deterministic: a given seed
//! and schedule always produce the identical event trace, which is what
//! makes every figure in `EXPERIMENTS.md` reproducible bit-for-bit.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod fault;
pub mod latency;
pub mod stats;
pub mod topology;
pub mod world;

pub use fault::{CrashEvent, FaultPlan, LinkFault, Partition};
pub use latency::{GeoPoint, LatencyModel};
pub use stats::{LinkStats, NetStats, SimStats};
pub use topology::{abilene_sites, geant_sites, planetlab_sites, Site};
pub use world::{SimConfig, World};
