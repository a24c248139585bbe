//! Query issue, split, retry, and completion tracking (Section 3.6).
//!
//! The originator arms a deadline and a retry cadence when the query is
//! issued; both timers are *cancelled the moment the tracker completes*,
//! so finished queries leave no stale timer events in the event plane —
//! under sustained query load this is the difference between
//! O(in-flight) and O(ever-issued) pending timers.

use crate::dac_drive::DacJob;
use crate::messages::{CarriedFilter, MindPayload};
use crate::node::{token, MindNode, Out};
use crate::query::QueryTracker;
use crate::reliability::MAX_RETRIES;
use mind_overlay::OverlayMsg;
use mind_types::node::{SimTime, TimerId, SECONDS};
use mind_types::{BitCode, HyperRect, MindError, NodeId};
use std::collections::BTreeMap;

pub(crate) const KIND_QUERY_DEADLINE: u64 = 2;
pub(crate) const KIND_QUERY_RETRY: u64 = 5;

/// Interval between re-dispatch rounds for a query's unanswered plans
/// and sub-queries.
const QUERY_RETRY_INTERVAL: SimTime = 8 * SECONDS;

/// What a query originator needs beside its tracker (which names the
/// index) to re-dispatch unanswered work, plus the live timer handles
/// retired at completion.
#[derive(Debug)]
pub(crate) struct QueryRetryMeta {
    rect: HyperRect,
    filters: Vec<CarriedFilter>,
    attempts: u32,
    /// The pending retry-round timer (None once the budget is spent).
    retry_timer: Option<TimerId>,
    /// The query's deadline timer.
    deadline_timer: TimerId,
}

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
        let mut tracker = QueryTracker::new(index.to_string(), now, &versions);
        // Route one root query per overlapping version.
        let mut routed = Vec::new();
        for v in versions {
            #[expect(
                clippy::unwrap_used,
                reason = "versions_for_range returns installed versions"
            )]
            match state.version(v).unwrap().cuts.query_prefix(&rect) {
                None => tracker.on_plan(now, v, vec![], None), // misses the domain
                Some(prefix) => routed.push((v, prefix)),
            }
        }
        self.queries.insert(query_id, tracker);
        // Arm the timers *before* routing: a root that answers locally can
        // complete the tracker synchronously, and completion must find the
        // handles to cancel.
        let retry_timer = out.set_timer(QUERY_RETRY_INTERVAL, token(KIND_QUERY_RETRY, query_id));
        let deadline_timer = out.set_timer(
            self.cfg.query_deadline,
            token(KIND_QUERY_DEADLINE, query_id),
        );
        self.query_meta.insert(
            query_id,
            QueryRetryMeta {
                rect: rect.clone(),
                filters: filters.clone(),
                attempts: 0,
                retry_timer: Some(retry_timer),
                deadline_timer,
            },
        );
        for (v, prefix) in routed {
            let payload = MindPayload::RootQuery {
                query_id,
                index: index.to_string(),
                version: v,
                rect: rect.clone(),
                filters: filters.clone(),
                origin: self.id(),
            };
            self.route(now, prefix, payload, out);
        }
        // All versions may have missed the domain: the tracker is already
        // done and the timers just armed must be retired again.
        self.settle_query_timers(query_id, out);
        Ok(query_id)
    }

    /// If the query is finished (or gone), cancels its outstanding
    /// deadline/retry timers and drops its retry metadata. Called wherever
    /// a tracker can transition to done.
    pub(crate) fn settle_query_timers(&mut self, query_id: u64, out: &mut Out) {
        let finished = self
            .queries
            .get(&query_id)
            .map(|t| t.done())
            .unwrap_or(true);
        if finished {
            if let Some(meta) = self.query_meta.remove(&query_id) {
                if let Some(t) = meta.retry_timer {
                    out.cancel_timer(t);
                }
                out.cancel_timer(meta.deadline_timer);
            }
        }
    }

    /// The deadline fired: close the tracker and retire the retry timer.
    fn on_query_deadline(&mut self, query_id: u64, out: &mut Out) {
        if let Some(meta) = self.query_meta.remove(&query_id) {
            if let Some(t) = meta.retry_timer {
                out.cancel_timer(t);
            }
        }
        if let Some(t) = self.queries.get_mut(&query_id) {
            t.on_deadline();
        }
    }

    /// Re-drives a query's unanswered work: re-routes `RootQuery`s for
    /// versions whose plan never arrived and re-dispatches the expected
    /// sub-queries still missing answers. The tracker dedups whatever
    /// duplicate plans/responses this produces.
    fn retry_query(&mut self, now: SimTime, query_id: u64, out: &mut Out) {
        let Some((index, pending_versions, missing)) = self.queries.get(&query_id).and_then(|t| {
            if t.done() {
                None
            } else {
                let pending: Vec<u32> = t.plans_pending.iter().copied().collect();
                let missing: Vec<(u32, BitCode)> = t
                    .expected
                    .iter()
                    .filter(|k| !t.answered.contains(k))
                    .cloned()
                    .collect();
                Some((t.index.clone(), pending, missing))
            }
        }) else {
            // Finished (or never existed): retire the remaining timers.
            self.settle_query_timers(query_id, out);
            return;
        };
        let Some(meta) = self.query_meta.get_mut(&query_id) else {
            return;
        };
        if meta.attempts >= MAX_RETRIES {
            meta.retry_timer = None;
            return; // budget spent; the deadline timer will close the query
        }
        meta.attempts += 1;
        let rect = meta.rect.clone();
        let filters = meta.filters.clone();
        if !pending_versions.is_empty() || !missing.is_empty() {
            self.metrics.query_retries += 1;
        }
        // Versions still missing their plan: re-route the root query.
        let mut reroutes = Vec::new();
        if let Some(state) = self.indexes.get(&index) {
            for v in pending_versions {
                reroutes.push((
                    v,
                    state
                        .version(v)
                        .and_then(|ver| ver.cuts.query_prefix(&rect)),
                ));
            }
        }
        for (v, prefix) in reroutes {
            match prefix {
                None => {
                    if let Some(t) = self.queries.get_mut(&query_id) {
                        t.on_plan(now, v, vec![], None);
                    }
                }
                Some(prefix) => {
                    let payload = MindPayload::RootQuery {
                        query_id,
                        index: index.clone(),
                        version: v,
                        rect: rect.clone(),
                        filters: filters.clone(),
                        origin: self.id(),
                    };
                    self.route(now, prefix, payload, out);
                }
            }
        }
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
        let still_open = self.queries.get(&query_id).is_some_and(|t| !t.done());
        if still_open {
            let t = out.set_timer(QUERY_RETRY_INTERVAL, token(KIND_QUERY_RETRY, query_id));
            if let Some(meta) = self.query_meta.get_mut(&query_id) {
                meta.retry_timer = Some(t);
            }
        } else {
            self.settle_query_timers(query_id, out);
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
