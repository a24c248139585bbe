//! Day-boundary histogram collection and version rollover (Section 3.7).
//!
//! At each day boundary every node ships its local data distribution to
//! the designated collector (the owner of the all-zeros code), which
//! merges the reports, computes balanced cuts for the next day, and
//! floods them as a new index version.

use crate::index::HIST_GRANULARITY;
use crate::messages::MindPayload;
use crate::node::{token, MindNode, Out};
use mind_histogram::{CutTree, GridHistogram};
use mind_types::node::{SimTime, SECONDS};
use mind_types::{BitCode, MindError};

pub(crate) const KIND_COLLECT: u64 = 3;

/// Depth of the balanced cut trees computed from collected histograms.
const CUT_DEPTH: u8 = 10;
/// Length of a "day" in record-timestamp seconds.
const DAY_LEN: u64 = 86_400;
/// How long the collector waits for stragglers after the first report.
const COLLECT_GRACE: SimTime = 10 * SECONDS;

/// The region code all histogram reports route to: the node owning the
/// all-zeros corner of the code space acts as the designated collector of
/// Section 3.7.
pub(crate) fn collector_code() -> BitCode {
    BitCode::from_raw(0, 16)
}

impl MindNode {
    /// Ships the current day's histogram for `index` to the designated
    /// collector and resets the local accumulator (called at each day
    /// boundary — by the harness in experiments, mirroring how the
    /// paper's operators would schedule it).
    pub fn report_day_histogram(
        &mut self,
        now: SimTime,
        index: &str,
        day: u64,
        out: &mut Out,
    ) -> Result<(), MindError> {
        let state = self
            .indexes
            .get_mut(index)
            .ok_or_else(|| MindError::UnknownIndex(index.to_string()))?;
        let bounds = state.schema.bounds();
        let hist = std::mem::replace(
            &mut state.day_histogram,
            GridHistogram::new(bounds, HIST_GRANULARITY),
        );
        let payload = MindPayload::HistReport {
            index: index.to_string(),
            day,
            reporter: self.id(),
            hist,
        };
        self.route(now, collector_code(), payload, out);
        Ok(())
    }

    /// Collector role: merge one node's day histogram into the pending
    /// collection, arming the straggler grace timer on the first report.
    pub(crate) fn on_hist_report(
        &mut self,
        _now: SimTime,
        index: String,
        day: u64,
        hist: GridHistogram,
        out: &mut Out,
    ) {
        if !self.cfg.auto_versioning {
            return;
        }
        let key = (index.clone(), day);
        let seq = *self.collect_keys.entry(key).or_insert_with(|| {
            let s = self.collect_seq;
            self.collect_seq += 1;
            s
        });
        match self.collecting.get_mut(&seq) {
            Some((_, _, acc, n)) => {
                acc.merge(&hist);
                *n += 1;
            }
            None => {
                // First report for this (index, day): arm the grace timer.
                out.set_timer(COLLECT_GRACE, token(KIND_COLLECT, seq));
                self.collecting.insert(seq, (index, day, hist, 1));
            }
        }
    }

    /// The grace period expired: compute balanced cuts from the merged
    /// histogram and flood them as the next version.
    fn finish_collection(&mut self, seq: u64, out: &mut Out) {
        let Some((index, day, hist, _reports)) = self.collecting.remove(&seq) else {
            return;
        };
        self.collect_keys.remove(&(index.clone(), day));
        let Some(state) = self.indexes.get(&index) else {
            return;
        };
        let bounds = state.schema.bounds();
        let cuts = CutTree::balanced_from_histogram(bounds, CUT_DEPTH, &hist);
        let version = state.versions.len() as u32;
        let from_ts = (day + 1) * DAY_LEN;
        self.flood(
            MindPayload::NewVersion {
                index,
                version,
                from_ts,
                cuts: std::sync::Arc::new(cuts),
            },
            out,
        );
    }

    /// Handles rollover-class timers; `true` if `kind` was ours.
    pub(crate) fn handle_rollover_timer(&mut self, kind: u64, arg: u64, out: &mut Out) -> bool {
        if kind == KIND_COLLECT {
            self.finish_collection(arg, out);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_code_is_all_zeros() {
        let c = collector_code();
        assert!(c.iter_bits().all(|b| !b));
    }
}
