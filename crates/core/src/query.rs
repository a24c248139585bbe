//! Originator-side query tracking (Section 3.6).
//!
//! The originator of a query learns its sub-query *plan* (the covering
//! region codes, per index version) from the splitting node, and collects
//! per-region responses sent directly by the responsible nodes. "The
//! originator can then determine, by examining which nodes responded, when
//! the query response is complete."

use crate::messages::CarriedFilter;
use mind_types::node::{SimTime, TimerId};
use mind_types::{BitCode, HyperRect, NodeId, Record};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The in-flight state of one query at its originator, and all it needs
/// to re-dispatch unanswered work (`crate::query_track`).
#[derive(Debug)]
pub struct QueryTracker {
    /// Index queried.
    pub index: String,
    /// The query's range and carried filters, re-sent by every retry round.
    pub(crate) rect: HyperRect,
    pub(crate) filters: Vec<CarriedFilter>,
    /// Retry rounds run so far.
    pub(crate) retry_rounds: u32,
    /// The pending retry-round and deadline timers: each handle is taken
    /// when its timer fires or is cancelled, so a finished tracker holds
    /// none.
    pub(crate) retry_timer: Option<TimerId>,
    pub(crate) deadline_timer: Option<TimerId>,
    /// When the query was issued.
    pub issued_at: SimTime,
    /// Versions whose plan has not arrived yet.
    pub plans_pending: BTreeSet<u32>,
    /// `(version, code)` sub-queries announced by plans.
    pub expected: BTreeSet<(u32, BitCode)>,
    /// `(version, code)` sub-queries answered so far.
    pub answered: BTreeSet<(u32, BitCode)>,
    /// `|expected \ answered|`, kept in step with every key newly inserted
    /// into either set, so the completion check is O(1) instead of a walk
    /// of `expected` per plan and per response (~140 × 140 set probes for
    /// a wide query).
    outstanding: usize,
    /// Distinct responding nodes (the paper's *query cost*).
    pub responders: BTreeSet<NodeId>,
    /// Records accumulated: the rows of every answered region, moved in as
    /// they arrive (a local answer's rows were copied out of the store
    /// once, a remote answer's decoded off the wire).
    pub records: Vec<Record>,
    /// Set when all plans arrived and every expected region answered.
    pub completed_at: Option<SimTime>,
    /// Set when the deadline passed first.
    pub timed_out: bool,
}

impl QueryTracker {
    /// Starts tracking a query over `rect` that expects plans for
    /// `versions`.
    pub fn new(
        index: String,
        rect: HyperRect,
        filters: Vec<CarriedFilter>,
        issued_at: SimTime,
        versions: &[u32],
    ) -> Self {
        QueryTracker {
            index,
            rect,
            filters,
            retry_rounds: 0,
            retry_timer: None,
            deadline_timer: None,
            issued_at,
            plans_pending: versions.iter().copied().collect(),
            expected: BTreeSet::new(),
            answered: BTreeSet::new(),
            outstanding: 0,
            responders: BTreeSet::new(),
            records: Vec::new(),
            completed_at: None,
            timed_out: false,
        }
    }

    /// Absorbs a plan for one version. A refinement plan (`replaces`
    /// set) atomically marks the coarser region answered and expects its
    /// finer pieces instead.
    pub fn on_plan(
        &mut self,
        now: SimTime,
        version: u32,
        codes: Vec<BitCode>,
        replaces: Option<BitCode>,
    ) {
        if self.done() {
            return;
        }
        match replaces {
            None => {
                self.plans_pending.remove(&version);
            }
            Some(coarse) => {
                self.mark_answered((version, coarse));
            }
        }
        for c in codes {
            // A response may have preceded its plan: only a region still
            // unanswered becomes outstanding.
            if self.expected.insert((version, c)) && !self.answered.contains(&(version, c)) {
                self.outstanding += 1;
            }
        }
        self.maybe_complete(now);
    }

    /// Absorbs one region response.
    pub fn on_response(
        &mut self,
        now: SimTime,
        version: u32,
        code: BitCode,
        responder: NodeId,
        mut records: Vec<Record>,
    ) {
        if self.done() {
            return;
        }
        // Responses can arrive before their plan; record them regardless.
        if self.mark_answered((version, code)) {
            self.records.append(&mut records);
            self.responders.insert(responder);
        }
        self.maybe_complete(now);
    }

    /// Records `key` as answered; `true` if it was not before.
    fn mark_answered(&mut self, key: (u32, BitCode)) -> bool {
        let new = self.answered.insert(key);
        if new && self.expected.contains(&key) {
            self.outstanding -= 1;
        }
        new
    }

    /// Marks the query failed if it has not completed.
    pub fn on_deadline(&mut self) {
        if !self.done() {
            self.timed_out = true;
        }
    }

    fn maybe_complete(&mut self, now: SimTime) {
        if self.plans_pending.is_empty() && self.outstanding == 0 {
            self.completed_at = Some(now);
        }
    }

    /// `true` once completed or timed out.
    pub fn done(&self) -> bool {
        self.completed_at.is_some() || self.timed_out
    }

    /// Freezes the tracker into an outcome, a copy for the caller.
    pub fn outcome(&self) -> QueryOutcome {
        QueryOutcome {
            complete: self.completed_at.is_some(),
            latency: self.completed_at.map(|t| t - self.issued_at),
            records: self.records.clone(),
            cost_nodes: self.responders.len(),
        }
    }
}

/// The result of a finished (or failed) query; the default never finished.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// `true` when every planned region answered before the deadline.
    pub complete: bool,
    /// Time from issue to completion (None when timed out).
    pub latency: Option<SimTime>,
    /// All matching records received.
    pub records: Vec<Record>,
    /// Number of distinct nodes that answered — the paper's query cost
    /// metric (Figure 9).
    pub cost_nodes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(s: &str) -> BitCode {
        BitCode::parse(s).unwrap()
    }

    fn tracker(issued_at: SimTime, versions: &[u32]) -> QueryTracker {
        QueryTracker::new("i".into(), HyperRect::full(1), vec![], issued_at, versions)
    }

    #[test]
    fn completes_when_all_regions_answer() {
        let mut t = tracker(100, &[0]);
        t.on_plan(110, 0, vec![code("00"), code("01")], None);
        assert!(!t.done());
        t.on_response(120, 0, code("00"), NodeId(1), vec![Record::new(vec![1])]);
        assert!(!t.done());
        t.on_response(130, 0, code("01"), NodeId(2), vec![]);
        assert!(t.done());
        let o = t.outcome();
        assert!(o.complete);
        assert_eq!(o.latency, Some(30));
        assert_eq!(o.records.len(), 1);
        assert_eq!(o.cost_nodes, 2);
    }

    #[test]
    fn response_before_plan_counts() {
        let mut t = tracker(0, &[0]);
        t.on_response(5, 0, code("1"), NodeId(3), vec![]);
        t.on_plan(10, 0, vec![code("1")], None);
        assert!(t.done());
        assert!(t.outcome().complete);
    }

    #[test]
    fn responses_before_a_refinement_and_its_root_plan_count() {
        // Both halves of a refined region answer, then the refinement,
        // then the root plan that first names the coarse region: nothing
        // is outstanding at any point, and only the root plan completes.
        let mut t = tracker(0, &[0]);
        t.on_response(1, 0, code("10"), NodeId(1), vec![]);
        t.on_response(2, 0, code("11"), NodeId(2), vec![]);
        t.on_plan(3, 0, vec![code("10"), code("11")], Some(code("1")));
        assert!(!t.done(), "the root plan is still pending");
        t.on_plan(4, 0, vec![code("0"), code("1")], None);
        assert!(!t.done(), "region 0 is unanswered");
        t.on_response(5, 0, code("0"), NodeId(3), vec![]);
        assert!(t.done());
        assert_eq!(t.outcome().latency, Some(5));
        // The same arrivals with the refinement last: the coarse region is
        // outstanding until it is replaced.
        let mut t = tracker(0, &[0]);
        t.on_plan(1, 0, vec![code("0"), code("1")], None);
        t.on_response(2, 0, code("0"), NodeId(3), vec![]);
        t.on_response(3, 0, code("10"), NodeId(1), vec![]);
        t.on_response(4, 0, code("11"), NodeId(2), vec![]);
        assert!(!t.done(), "region 1 is neither answered nor replaced");
        t.on_plan(5, 0, vec![code("10"), code("11")], Some(code("1")));
        assert!(t.done());
    }

    #[test]
    fn multi_version_waits_for_all_plans() {
        let mut t = tracker(0, &[0, 1]);
        t.on_plan(1, 0, vec![code("0")], None);
        t.on_response(2, 0, code("0"), NodeId(1), vec![]);
        assert!(!t.done(), "version 1's plan still outstanding");
        t.on_plan(3, 1, vec![], None);
        assert!(t.done());
    }

    #[test]
    fn duplicate_responses_ignored() {
        let mut t = tracker(0, &[0]);
        t.on_plan(1, 0, vec![code("0"), code("1")], None);
        t.on_response(2, 0, code("0"), NodeId(1), vec![Record::new(vec![1])]);
        t.on_response(3, 0, code("0"), NodeId(1), vec![Record::new(vec![1])]);
        assert_eq!(
            t.records.len(),
            1,
            "duplicate region answer must not double-count"
        );
        assert!(!t.done());
    }

    #[test]
    fn timeout_freezes_incomplete() {
        let mut t = tracker(0, &[0]);
        t.on_plan(1, 0, vec![code("0"), code("1")], None);
        t.on_response(2, 0, code("0"), NodeId(1), vec![]);
        t.on_deadline();
        assert!(t.done());
        let o = t.outcome();
        assert!(!o.complete);
        assert_eq!(o.latency, None);
        // Late responses change nothing.
        t.on_response(99, 0, code("1"), NodeId(2), vec![Record::new(vec![9])]);
        assert_eq!(t.outcome().records.len(), 0);
    }

    #[test]
    fn empty_plan_completes_immediately() {
        // A query missing the data space entirely.
        let mut t = tracker(7, &[0]);
        t.on_plan(9, 0, vec![], None);
        assert!(t.done());
        assert!(t.outcome().complete);
        assert_eq!(t.outcome().cost_nodes, 0);
    }
}
