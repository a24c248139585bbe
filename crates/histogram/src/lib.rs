//! Multi-dimensional histograms and balanced data-space cut trees.
//!
//! This crate implements the statistical machinery behind MIND's
//! locality-preserving, load-balanced data-space embedding (Sections 2.2,
//! 3.4 and 3.7 of the paper, plus Appendix A):
//!
//! * [`GridHistogram`] — the `k^d`-bin equi-width multi-dimensional
//!   histogram MIND nodes collect over their local data and ship to the
//!   designated aggregator once a day,
//! * [`mismatch`] — the Appendix A mismatch metric between two histograms,
//!   which upper-bounds the re-balancing cost of reusing yesterday's data
//!   distribution for today's cuts (Figure 3),
//! * [`CutTree`] — the recursive sequence of data-space cuts that assigns a
//!   [`BitCode`](mind_types::BitCode) to every point and hyper-rectangle of
//!   the attribute space. Even cuts split each axis at its midpoint
//!   (Figure 5, top left); *balanced* cuts split at the weighted median of
//!   the observed distribution so every leaf holds roughly the same number
//!   of records (Figure 5, bottom right).
//!
//! [`CutTree`] is the flat-arena layout traversed on the routing hot paths
//! (see [`flat`]); the boxed [`NaiveCutTree`] it is built from remains as
//! the property-test oracle (see [`cuts`]).

#![warn(missing_docs)]

pub mod cuts;
pub mod flat;
pub mod fuzz;
pub mod grid;
pub mod mismatch;

pub use cuts::{CutStrategy, NaiveCutTree};
pub use flat::CutTree;
pub use fuzz::fuzz_cut_columns;
pub use grid::GridHistogram;
pub use mismatch::{mismatch, mismatch_fraction};
