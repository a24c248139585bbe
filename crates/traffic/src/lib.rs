//! Synthetic backbone traffic: the repository's substitute for the paper's
//! Abilene and GÉANT NetFlow trace archives.
//!
//! The paper's evaluation depends on *statistical properties* of backbone
//! traffic, not on any individual packet:
//!
//! * heavy-tailed flow sizes and address popularity, which make the
//!   attribute-space distribution severely skewed (Figure 2),
//! * approximate stationarity over diurnal timescales combined with
//!   substantial hour-over-hour churn, which justifies MIND's daily
//!   re-cutting strategy (Figure 3),
//! * massive reducibility under windowed aggregation and small-flow
//!   filtering (Figure 1),
//! * the asymmetric packet-sampling rates of the two backbones (1/100 on
//!   Abilene vs 1/1000 on GÉANT), which unbalance per-node insert volume
//!   (Figure 12),
//! * rare, large anomalies — alpha flows, DoS attacks, port scans — hiding
//!   in the mass of normal traffic (Figure 17).
//!
//! [`generator::TrafficGenerator`] reproduces each property with tunable
//! parameters, deterministically from a seed; [`aggregate`] implements the
//! paper's 30-second aggregation windows and per-index filtering;
//! [`anomaly`] injects attacks with exact ground truth so recall is
//! measurable; [`schemas`] defines the paper's three evaluation indices.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod aggregate;
pub mod anomaly;
pub mod flow;
pub mod generator;
pub mod schemas;

pub use aggregate::{aggregate_window, AggRecord};
pub use anomaly::{Anomaly, AnomalyKind};
pub use flow::RawFlow;
pub use generator::{TrafficConfig, TrafficGenerator};
pub use schemas::{index1_schema, index2_schema, index3_schema};
