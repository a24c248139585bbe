//! The paper's evaluation as one table: every figure and ablation is a
//! function that writes its series to a sink and returns its shape check
//! as a [`Verdict`]. `mind-figures` (the only caller) picks entries from
//! [`FIGURES`], owns argument parsing, printing and the exit code, and
//! diffs the sink against `results/<name>.txt` under `--check`.
//!
//! All runs are deterministic (fixed seeds, virtual clock): the bytes a
//! figure writes at its default [`Scale`] are the bytes committed under
//! `results/`.

use std::fmt;
use std::io::{self, Write};

use crate::harness::ExperimentScale;

mod ablation_cut_depth;
mod ablation_granularity;
mod ablation_replication;
mod arch_comparison;
mod fig01_aggregation;
mod fig02_skew;
mod fig03_mismatch;
mod fig04_concurrent_join;
mod fig05_cuts;
mod fig07_insert_latency;
mod fig08_slow_link;
mod fig09_query_cost;
mod fig10_query_latency;
mod fig11_outage;
mod fig12_link_traffic;
mod fig13_storage_balance;
mod fig14_large_scale;
mod fig16_robustness;
mod fig17_anomalies;
mod replay_pins;

/// The workload knobs of one `mind-figures` invocation. The default is
/// the committed scale: what `results/` holds and `--check` runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `--scale`: multiplier on generated traffic volume.
    pub volume: f64,
    /// `--hours`: trace length (or 10-minute windows, per figure) in
    /// place of the figure's own default.
    pub hours: Option<u64>,
    /// `--loss`: an additional series under this uniform message loss
    /// rate ([`Figure::loss`]).
    pub loss: Option<f64>,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            volume: 1.0,
            hours: None,
            loss: None,
        }
    }
}

impl Scale {
    /// The traffic scale for a figure whose default trace length is
    /// `default_hours`.
    pub fn experiment(&self, default_hours: u64) -> ExperimentScale {
        ExperimentScale {
            volume: self.volume,
            hours: self.hours.unwrap_or(default_hours),
        }
    }
}

/// A figure's shape check: does the measured series have the shape the
/// paper reports, and the numbers that decided it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// `true` when the paper's claim holds on this run.
    pub reproduced: bool,
    /// The measured values the claim was judged on.
    pub note: String,
}

impl Verdict {
    /// A verdict with its deciding numbers.
    pub fn new(reproduced: bool, note: impl Into<String>) -> Self {
        Verdict {
            reproduced,
            note: note.into(),
        }
    }

    /// The one spelling of the outcome.
    pub fn word(&self) -> &'static str {
        if self.reproduced {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    }
}

/// `<note> — reproduced` / `<note> — NOT reproduced`: the tail of every
/// printed shape-check line.
impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — {}", self.note, self.word())
    }
}

/// A figure's body: writes its series to the sink, returns its shape check.
pub type Run = fn(&mut dyn Write, &Scale) -> io::Result<Verdict>;

/// One entry of the evaluation.
pub struct Figure {
    /// The subcommand, and the stem of its `results/<name>.txt`.
    pub name: &'static str,
    /// Runs the experiment.
    pub run: Run,
    /// `true` if the figure has a loss axis for `--loss`.
    pub loss: bool,
}

const fn figure(name: &'static str, run: Run) -> Figure {
    Figure {
        name,
        run,
        loss: false,
    }
}

/// Every figure and ablation, in the paper's order, then the replay pins
/// (what `all` runs).
pub const FIGURES: &[Figure] = &[
    figure("fig01_aggregation", fig01_aggregation::run),
    figure("fig02_skew", fig02_skew::run),
    figure("fig03_mismatch", fig03_mismatch::run),
    figure("fig04_concurrent_join", fig04_concurrent_join::run),
    figure("fig05_cuts", fig05_cuts::run),
    figure("fig07_insert_latency", fig07_insert_latency::run),
    figure("fig08_slow_link", fig08_slow_link::run),
    figure("fig09_query_cost", fig09_query_cost::run),
    figure("fig10_query_latency", fig10_query_latency::run),
    Figure {
        loss: true,
        ..figure("fig11_outage", fig11_outage::run)
    },
    figure("fig12_link_traffic", fig12_link_traffic::run),
    figure("fig13_storage_balance", fig13_storage_balance::run),
    figure("fig14_large_scale", fig14_large_scale::run),
    Figure {
        loss: true,
        ..figure("fig16_robustness", fig16_robustness::run)
    },
    figure("fig17_anomalies", fig17_anomalies::run),
    figure("arch_comparison", arch_comparison::run),
    figure("ablation_granularity", ablation_granularity::run),
    figure("ablation_replication", ablation_replication::run),
    figure("ablation_cut_depth", ablation_cut_depth::run),
    figure("replay_pins", replay_pins::run),
];
