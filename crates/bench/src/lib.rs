//! Shared experiment scaffolding for regenerating the paper's tables and
//! figures.
//!
//! Each module under [`figures`] reproduces one figure or table from the
//! evaluation (Sections 2, 4 and 5) and is run by the `mind-figures`
//! binary; the rest of this library holds the common machinery: standing
//! up the paper's deployments, streaming synthetic Abilene/GÉANT traffic
//! into the indices at the paper's 30-second cadence, issuing the paper's
//! uniform random monitoring queries, and formatting results next to the
//! paper's reported numbers.
//!
//! Scale: the paper inserted ~9 M records/day for 3 days. The figures
//! default to a proportionally scaled-down workload (set via
//! [`ExperimentScale`]) so each regenerates in seconds; `mind-figures
//! --scale <x> --hours <n>` pushes toward paper scale.

#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod report;
