//! Query issue, split, retry, and completion tracking (Section 3.6).
//!
//! The originator keeps one [`QueryTracker`] per query: its plans and
//! answers, and what a retry round re-sends. It arms a deadline and a
//! retry cadence when the query is issued, and the tracker holds both
//! handles; both timers are *cancelled the moment the tracker completes*,
//! so finished queries leave no stale timer events in the event plane —
//! under sustained query load this is the difference between
//! O(in-flight) and O(ever-issued) pending timers.

use crate::dac_drive::DacJob;
use crate::messages::{CarriedFilter, MindPayload};
use crate::node::{token, MindNode, Out};
use crate::query::QueryTracker;
use crate::reliability::MAX_RETRIES;
use mind_overlay::OverlayMsg;
use mind_types::node::{SimTime, SECONDS};
use mind_types::{BitCode, HyperRect, MindError, NodeId};
use std::collections::BTreeMap;

pub(crate) const KIND_QUERY_DEADLINE: u64 = 2;
pub(crate) const KIND_QUERY_RETRY: u64 = 5;

/// Interval between re-dispatch rounds for a query's unanswered plans
/// and sub-queries.
const QUERY_RETRY_INTERVAL: SimTime = 8 * SECONDS;

impl MindNode {
    /// `query_index`: issues a multi-dimensional range query with optional
    /// carried-attribute filters; returns the query id to poll.
    pub fn query(
        &mut self,
        now: SimTime,
        index: &str,
        rect: HyperRect,
        filters: Vec<CarriedFilter>,
        out: &mut Out,
    ) -> Result<u64, MindError> {
        let state = self
            .indexes
            .get(index)
            .ok_or_else(|| MindError::UnknownIndex(index.to_string()))?;
        if rect.dims() != state.schema.indexed_dims {
            return Err(MindError::SchemaMismatch {
                index: index.to_string(),
                reason: format!(
                    "query has {} dims, index has {}",
                    rect.dims(),
                    state.schema.indexed_dims
                ),
            });
        }
        let time_range = state.schema.time_dim().map(|d| (rect.lo(d), rect.hi(d)));
        let versions = state.versions_for_range(time_range);
        let query_id = ((self.id().0 as u64) << 20) | (self.query_seq & 0xF_FFFF);
        self.query_seq += 1;
        let mut tracker = QueryTracker::new(index.to_string(), rect, filters, now, &versions);
        // Arm the timers *before* routing: a root that answers locally can
        // complete the tracker synchronously, and completion must find the
        // handles to cancel.
        tracker.retry_timer =
            Some(out.set_timer(QUERY_RETRY_INTERVAL, token(KIND_QUERY_RETRY, query_id)));
        tracker.deadline_timer = Some(out.set_timer(
            self.cfg.query_deadline,
            token(KIND_QUERY_DEADLINE, query_id),
        ));
        self.queries.insert(query_id, tracker);
        self.route_root_queries(now, query_id, out);
        // All versions may have missed the domain: the tracker is already
        // done and the timers just armed must be retired again.
        self.settle_query_timers(query_id, out);
        Ok(query_id)
    }

    /// Routes one `RootQuery` per version whose plan has not arrived
    /// toward the version's query prefix, or records an empty plan for a
    /// version the query misses (its domain, or a version gone here).
    fn route_root_queries(&mut self, now: SimTime, query_id: u64, out: &mut Out) {
        let Some(t) = self.queries.get(&query_id) else {
            return;
        };
        let Some(state) = self.indexes.get(&t.index) else {
            return;
        };
        let prefixes: Vec<(u32, Option<BitCode>)> = t
            .plans_pending
            .iter()
            .map(|&v| {
                (
                    v,
                    state
                        .version(v)
                        .and_then(|ver| ver.cuts.query_prefix(&t.rect)),
                )
            })
            .collect();
        let origin = self.id();
        for (version, prefix) in prefixes {
            let Some(t) = self.queries.get_mut(&query_id) else {
                return;
            };
            let Some(prefix) = prefix else {
                t.on_plan(now, version, vec![], None);
                continue;
            };
            let payload = MindPayload::RootQuery {
                query_id,
                index: t.index.clone(),
                version,
                rect: t.rect.clone(),
                filters: t.filters.clone(),
                origin,
            };
            self.route(now, prefix, payload, out);
        }
    }

    /// If the query is finished, cancels the deadline/retry timers its
    /// tracker still holds. Called wherever a tracker can transition to
    /// done.
    pub(crate) fn settle_query_timers(&mut self, query_id: u64, out: &mut Out) {
        if let Some(t) = self.queries.get_mut(&query_id).filter(|t| t.done()) {
            for timer in [t.retry_timer.take(), t.deadline_timer.take()]
                .into_iter()
                .flatten()
            {
                out.cancel_timer(timer);
            }
        }
    }

    /// The deadline fired: close the tracker and retire the retry timer.
    fn on_query_deadline(&mut self, query_id: u64, out: &mut Out) {
        if let Some(t) = self.queries.get_mut(&query_id) {
            t.deadline_timer = None;
            t.on_deadline();
        }
        self.settle_query_timers(query_id, out);
    }

    /// Re-drives a query's unanswered work: re-routes `RootQuery`s for
    /// versions whose plan never arrived and re-dispatches the expected
    /// sub-queries still missing answers. The tracker dedups whatever
    /// duplicate plans/responses this produces.
    fn retry_query(&mut self, now: SimTime, query_id: u64, out: &mut Out) {
        let Some(t) = self.queries.get_mut(&query_id) else {
            return;
        };
        t.retry_timer = None;
        if t.done() {
            // Finished: retire the deadline timer.
            self.settle_query_timers(query_id, out);
            return;
        }
        if t.retry_rounds >= MAX_RETRIES {
            return; // budget spent; the deadline timer will close the query
        }
        t.retry_rounds += 1;
        let missing: Vec<(u32, BitCode)> = t
            .expected
            .iter()
            .filter(|k| !t.answered.contains(k))
            .cloned()
            .collect();
        if !t.plans_pending.is_empty() || !missing.is_empty() {
            self.metrics.query_retries += 1;
        }
        let (index, rect, filters) = (t.index.clone(), t.rect.clone(), t.filters.clone());
        // Versions still missing their plan: re-route the root query.
        self.route_root_queries(now, query_id, out);
        // Announced but unanswered regions: re-dispatch their sub-queries,
        // grouped by owner like the first round (`missing` is in
        // `(version, code)` order, so a version's codes are one run).
        for run in missing.chunk_by(|a, b| a.0 == b.0) {
            let codes: Vec<BitCode> = run.iter().map(|&(_, code)| code).collect();
            self.dispatch_subqueries(
                now,
                query_id,
                &index,
                run[0].0,
                &codes,
                0,
                &rect,
                &filters,
                self.id(),
                out,
            );
        }
        // Re-dispatch can complete the tracker synchronously (local
        // answers): only schedule the next round for a live query.
        match self.queries.get_mut(&query_id) {
            Some(t) if !t.done() => {
                t.retry_timer =
                    Some(out.set_timer(QUERY_RETRY_INTERVAL, token(KIND_QUERY_RETRY, query_id)));
            }
            _ => self.settle_query_timers(query_id, out),
        }
    }

    /// The outcome of a query, once [`QueryTracker::done`].
    pub fn query_outcome(&self, query_id: u64) -> Option<crate::query::QueryOutcome> {
        self.queries
            .get(&query_id)
            .filter(|t| t.done())
            .map(|t| t.outcome())
    }

    /// [`Self::query_outcome`] for a long-lived host: a finished query's
    /// tracker leaves the node, and its rows move out with it.
    pub fn take_query_outcome(&mut self, query_id: u64) -> Option<crate::query::QueryOutcome> {
        if !self.queries.get(&query_id)?.done() {
            return None;
        }
        let mut t = self.queries.remove(&query_id)?;
        let records = std::mem::take(&mut t.records);
        Some(crate::query::QueryOutcome {
            records,
            ..t.outcome()
        })
    }

    /// Section 3.6: the first node whose region abuts the query splits it
    /// into per-region sub-queries, announces the plan to the originator,
    /// answers its own regions, and routes the rest.
    #[expect(
        clippy::too_many_arguments,
        reason = "one root query's wire fields plus the outbox"
    )]
    pub(crate) fn split_root_query(
        &mut self,
        now: SimTime,
        query_id: u64,
        index: &str,
        version: u32,
        rect: HyperRect,
        filters: Vec<CarriedFilter>,
        origin: NodeId,
        out: &mut Out,
    ) {
        // Take the scratch buffer up front: the index lookup below borrows
        // `self` for the rest of the split.
        let mut codes = std::mem::take(&mut self.cover_scratch);
        let ver = match self.indexes.get(index).and_then(|s| s.version(version)) {
            Some(ver) => ver,
            None => {
                // Index or version unknown here (flood race): report an
                // empty plan so the originator is not left hanging.
                self.cover_scratch = codes;
                out.send(
                    origin,
                    OverlayMsg::Direct {
                        payload: MindPayload::QueryPlan {
                            query_id,
                            version,
                            codes: vec![],
                            replaces: None,
                        },
                    },
                );
                return;
            }
        };
        // Split down to at least this node's code length so that, on a
        // balanced overlay, every sub-query region maps to one node. Deeper
        // nodes refine further on arrival (see `dispatch_subqueries`).
        let min_len = self.overlay.code().map(|c| c.len()).unwrap_or(0);
        ver.cuts.covering_codes_into(&rect, min_len, &mut codes);
        out.send(
            origin,
            OverlayMsg::Direct {
                payload: MindPayload::QueryPlan {
                    query_id,
                    version,
                    codes: codes.to_vec(),
                    replaces: None,
                },
            },
        );
        self.dispatch_subqueries(
            now, query_id, index, version, &codes, 0, &rect, &filters, origin, out,
        );
        self.cover_scratch = codes;
    }

    /// Sends every region code of one query version to its owner — paper
    /// §3.6's "sub-queries, one per node" — for the root split, a received
    /// `SubQuery`, refinement and retry alike.
    ///
    /// Codes this node should answer stay here: a region that spans
    /// several nodes (this node's code strictly extends the region code,
    /// unbalanced overlay) is split one level, the refinement announced
    /// atomically to the originator, and its halves dispatched in turn;
    /// the rest become **one** scan job. The other codes are grouped by
    /// their prefix at depth `max(own depth, min_group_len)` (a shorter
    /// code stands alone) and routed as one `SubQuery` per group toward
    /// that prefix. A receiver calls this with `min_group_len` one past
    /// the length of the prefix it was routed under, so every hand-over
    /// groups strictly deeper and ends at the single code.
    #[expect(
        clippy::too_many_arguments,
        reason = "one sub-query frame's wire fields plus the outbox"
    )]
    pub(crate) fn dispatch_subqueries(
        &mut self,
        now: SimTime,
        query_id: u64,
        index: &str,
        version: u32,
        codes: &[BitCode],
        min_group_len: u8,
        rect: &HyperRect,
        filters: &[CarriedFilter],
        origin: NodeId,
        out: &mut Out,
    ) {
        let own = self.overlay.code();
        let group_len = own.map_or(0, |c| c.len()).max(min_group_len);
        // Refinement requires the cut tree to be deeper than the region
        // code; a leaf region is answered whole (the tree depth is always
        // chosen above the overlay depth, see `rollover::CUT_DEPTH`).
        let tree_depth = self
            .indexes
            .get(index)
            .and_then(|s| s.version(version))
            .map_or(0, |v| v.cuts.depth());
        let mut scan = Vec::new();
        // Keyed by the group's routing prefix: replay-stable order.
        let mut groups: BTreeMap<BitCode, Vec<BitCode>> = BTreeMap::new();
        let mut work = Vec::new();
        for &code in codes {
            work.push(code);
            while let Some(code) = work.pop() {
                if !self.overlay.should_answer(&code) {
                    let prefix = code.prefix(group_len.min(code.len()));
                    groups.entry(prefix).or_default().push(code);
                } else if tree_depth > code.len()
                    && own.is_some_and(|mine| code.len() < mine.len() && code.is_prefix_of(&mine))
                {
                    let halves = [code.child(false), code.child(true)];
                    out.send(
                        origin,
                        OverlayMsg::Direct {
                            payload: MindPayload::QueryPlan {
                                query_id,
                                version,
                                codes: halves.to_vec(),
                                replaces: Some(code),
                            },
                        },
                    );
                    work.extend(halves.into_iter().rev());
                } else {
                    scan.push(code);
                }
            }
        }
        if !scan.is_empty() {
            self.enqueue(
                DacJob::Scan {
                    query_id,
                    index: index.to_string(),
                    version,
                    codes: scan,
                    rect: rect.clone(),
                    filters: filters.to_vec(),
                    origin,
                },
                out,
            );
        }
        for (prefix, codes) in groups {
            let payload = MindPayload::SubQuery {
                query_id,
                index: index.to_string(),
                version,
                codes,
                rect: rect.clone(),
                filters: filters.to_vec(),
                origin,
            };
            self.route(now, prefix, payload, out);
        }
    }

    /// Handles query-class timers; `true` if `kind` was ours.
    pub(crate) fn handle_query_timer(
        &mut self,
        now: SimTime,
        kind: u64,
        arg: u64,
        out: &mut Out,
    ) -> bool {
        match kind {
            KIND_QUERY_DEADLINE => self.on_query_deadline(arg, out),
            KIND_QUERY_RETRY => self.retry_query(now, arg, out),
            _ => return false,
        }
        true
    }
}
