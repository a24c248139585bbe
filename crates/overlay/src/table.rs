//! Per-node neighbor tables.
//!
//! A node with code `c` of length `L` keeps one entry per hypercube
//! dimension `i ∈ 0..L`: a live representative of the subtree named by
//! `c.flip_prefix(i)`. The table is the *only* routing state a MIND node
//! maintains (Section 3.3), which is why a balanced hypercube — about
//! `log N` dimensions everywhere — evens out routing table sizes.

use mind_types::node::SimTime;
use mind_types::{BitCode, NodeId};

/// One neighbor: the representative of one flip subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborEntry {
    /// The neighbor's last-known code (always inside the dimension's
    /// subtree).
    pub code: BitCode,
    /// The neighbor's transport address.
    pub node: NodeId,
    /// `false` once declared dead by the failure detector.
    pub alive: bool,
    /// Last time we heard anything from this neighbor.
    pub last_seen: SimTime,
}

impl NeighborEntry {
    /// A fresh, live entry.
    pub fn new(code: BitCode, node: NodeId, now: SimTime) -> Self {
        NeighborEntry {
            code,
            node,
            alive: true,
            last_seen: now,
        }
    }
}

/// Cap on auxiliary contacts (see [`NeighborTable::extras`]).
const MAX_EXTRAS: usize = 16;

/// The neighbor table: entry `i` represents the dimension-`i` flip subtree
/// of the owning node's code.
///
/// Besides the per-dimension representatives, the table keeps a small set
/// of *extra* contacts learned from heartbeats of nodes that are not a
/// representative. On a balanced hypercube these are redundant; after
/// failures and takeovers the hypercube becomes unbalanced, a flip
/// subtree can contain several nodes, and one representative per
/// dimension is no longer enough for greedy routing — the extras keep
/// alternative routes alive (the k-bucket idea).
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    entries: Vec<NeighborEntry>,
    extras: Vec<NeighborEntry>,
}

impl NeighborTable {
    /// An empty table (a single-node overlay has no neighbors).
    pub fn new() -> Self {
        NeighborTable {
            entries: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Replaces the whole table (static construction, join commit).
    pub fn set_all(&mut self, entries: Vec<NeighborEntry>) {
        self.entries = entries;
    }

    /// Appends the entry for a newly added dimension (the node's code grew
    /// by one bit after accepting a join; the new last dimension's subtree
    /// holds exactly the joiner).
    pub fn push(&mut self, entry: NeighborEntry) {
        self.entries.push(entry);
    }

    /// Drops the last dimension (the node shortened its code after taking
    /// over for its failed sibling). Returns the removed entry.
    pub fn pop(&mut self) -> Option<NeighborEntry> {
        self.entries.pop()
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry for dimension `i`, if present.
    pub fn get(&self, i: usize) -> Option<&NeighborEntry> {
        self.entries.get(i)
    }

    /// All entries.
    pub fn iter(&self) -> impl Iterator<Item = &NeighborEntry> {
        self.entries.iter()
    }

    /// All live entries.
    pub fn alive(&self) -> impl Iterator<Item = &NeighborEntry> {
        self.entries.iter().filter(|e| e.alive)
    }

    /// Live contacts (representatives and extras), deduplicated — the
    /// broadcast fan-out set.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        live_nodes(self.entries.iter().chain(&self.extras))
    }

    /// Live representatives only — the per-round heartbeat set (extras are
    /// pinged at a slower cadence to keep maintenance traffic at the
    /// paper's ~log N per node).
    pub fn rep_nodes(&self) -> Vec<NodeId> {
        live_nodes(self.entries.iter())
    }

    /// Live extra contacts.
    pub fn extra_nodes(&self) -> Vec<NodeId> {
        live_nodes(self.extras.iter())
    }

    /// The auxiliary contacts.
    pub fn extras(&self) -> &[NeighborEntry] {
        &self.extras
    }

    /// Mutable contact lookup by node id (representatives first).
    pub fn find_by_node_mut(&mut self, node: NodeId) -> Option<&mut NeighborEntry> {
        if let Some(i) = self.entries.iter().position(|e| e.node == node) {
            return self.entries.get_mut(i);
        }
        self.extras.iter_mut().find(|e| e.node == node)
    }

    /// Contact lookup by node id (representatives first).
    pub fn find_by_node(&self, node: NodeId) -> Option<&NeighborEntry> {
        self.entries
            .iter()
            .find(|e| e.node == node)
            .or_else(|| self.extras.iter().find(|e| e.node == node))
    }

    /// Records liveness evidence from `node` claiming `code`.
    ///
    /// If the node is known, its entry is refreshed (and its code updated —
    /// codes drift as neighbors accept joins or take over for siblings).
    /// Otherwise, if `code` falls into a dimension subtree whose current
    /// representative is dead, the sender is *adopted* as the new
    /// representative — this is how tables self-heal after failures.
    pub fn observe(&mut self, my_code: &BitCode, node: NodeId, code: BitCode, now: SimTime) {
        if let Some(e) = self.find_by_node_mut(node) {
            e.code = code;
            e.alive = true;
            e.last_seen = now;
            return;
        }
        for i in 0..self.entries.len().min(my_code.len() as usize) {
            let subtree = my_code.flip_prefix(i as u8);
            if subtree.compatible(&code) && !self.entries[i].alive {
                self.entries[i] = NeighborEntry::new(code, node, now);
                return;
            }
        }
        // Not a representative: remember it as an extra contact (evicting
        // the stalest when full) so that routing has alternatives on an
        // unbalanced overlay.
        if self.extras.len() >= MAX_EXTRAS {
            if let Some(i) = self
                .extras
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.alive, e.last_seen))
                .map(|(i, _)| i)
            {
                self.extras.swap_remove(i);
            }
        }
        self.extras.push(NeighborEntry::new(code, node, now));
    }

    /// Declares dead every live entry not heard from since `deadline`.
    /// Returns the newly dead entries.
    pub fn expire(&mut self, deadline: SimTime, extras_deadline: SimTime) -> Vec<NeighborEntry> {
        let mut dead = Vec::new();
        for e in &mut self.entries {
            if e.alive && e.last_seen < deadline {
                e.alive = false;
                dead.push(e.clone());
            }
        }
        // Silent extras are dropped outright — they carry no takeover
        // duty, so no death handling is needed for them. They are pinged
        // at a slower cadence, hence the longer deadline.
        self.extras.retain(|e| e.last_seen >= extras_deadline);
        dead
    }

    /// The best live next hop toward `target` from a node with `my_code`:
    /// a live entry whose code shares a strictly longer prefix with the
    /// target than `my_code` does. Prefers the greedy dimension's entry,
    /// falls back to any improving entry (routing around a dead neighbor).
    pub fn next_hop(&self, my_code: &BitCode, target: &BitCode) -> Option<&NeighborEntry> {
        let my_cpl = my_code.common_prefix_len(target);
        // Prefer the contact (representative or extra) with the longest
        // live progress toward the target. One prefix computation per
        // candidate; `>=` keeps the last maximum, matching what
        // `max_by_key` over the same chain used to pick.
        let mut best: Option<(&NeighborEntry, u8)> = None;
        for e in self.alive().chain(self.extras.iter().filter(|e| e.alive)) {
            let cpl = e.code.common_prefix_len(target);
            if cpl > my_cpl && best.is_none_or(|(_, b)| cpl >= b) {
                best = Some((e, cpl));
            }
        }
        best.map(|(e, _)| e)
    }
}

/// The live nodes among `entries`, sorted and deduplicated.
fn live_nodes<'a>(entries: impl Iterator<Item = &'a NeighborEntry>) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = entries.filter(|e| e.alive).map(|e| e.node).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(s: &str) -> BitCode {
        BitCode::parse(s).unwrap()
    }

    fn table_for_000() -> NeighborTable {
        // Node 000 in a balanced 3-cube: dims 1xx, 01x, 001.
        let mut t = NeighborTable::new();
        t.set_all(vec![
            NeighborEntry::new(code("100"), NodeId(4), 0),
            NeighborEntry::new(code("010"), NodeId(2), 0),
            NeighborEntry::new(code("001"), NodeId(1), 0),
        ]);
        t
    }

    #[test]
    fn greedy_next_hop_fixes_first_differing_bit() {
        let t = table_for_000();
        let me = code("000");
        // Target 110: first differing bit is 0 -> dim-0 neighbor 100.
        assert_eq!(t.next_hop(&me, &code("110")).unwrap().node, NodeId(4));
        // Target 011: cpl=1 -> dim-1 neighbor 010.
        assert_eq!(t.next_hop(&me, &code("011")).unwrap().node, NodeId(2));
        // Target 001: cpl=2 -> dim-2 neighbor 001.
        assert_eq!(t.next_hop(&me, &code("001")).unwrap().node, NodeId(1));
    }

    #[test]
    fn next_hop_routes_around_dead_neighbor() {
        let mut t = table_for_000();
        let me = code("000");
        t.find_by_node_mut(NodeId(4)).unwrap().alive = false;
        // Dim-0 dead; no other entry improves on cpl(000,110)=0?
        // 010 has cpl(010,110)=0, 001 has cpl=0 -> no progress possible.
        assert!(t.next_hop(&me, &code("110")).is_none());
        // But for target 011 (cpl=1), entry 010 still improves (cpl=2).
        assert_eq!(t.next_hop(&me, &code("011")).unwrap().node, NodeId(2));
    }

    #[test]
    fn observe_refreshes_and_updates_code() {
        let mut t = table_for_000();
        let me = code("000");
        t.observe(&me, NodeId(4), code("1000"), 99);
        let e = t.find_by_node(NodeId(4)).unwrap();
        assert_eq!(e.code, code("1000"));
        assert_eq!(e.last_seen, 99);
    }

    #[test]
    fn observe_adopts_replacement_for_dead_entry() {
        let mut t = table_for_000();
        let me = code("000");
        t.find_by_node_mut(NodeId(4)).unwrap().alive = false;
        // Node 9 claims code 101 — inside the dim-0 subtree (1xx).
        t.observe(&me, NodeId(9), code("101"), 50);
        let e = t.get(0).unwrap();
        assert_eq!(e.node, NodeId(9));
        assert!(e.alive);
    }

    #[test]
    fn observe_keeps_stranger_as_extra_when_entries_alive() {
        let mut t = table_for_000();
        let me = code("000");
        t.observe(&me, NodeId(9), code("101"), 50);
        // Representatives are untouched; the stranger lands in extras.
        assert_eq!(t.get(0).unwrap().node, NodeId(4));
        let extra = t.find_by_node(NodeId(9)).expect("stranger kept as extra");
        assert_eq!(extra.code, code("101"));
        assert!(t.alive_nodes().contains(&NodeId(9)));
    }

    #[test]
    fn extras_improve_next_hop_on_unbalanced_overlay() {
        // Representative for subtree 1xx is 100; an extra contact 101
        // gives strictly better progress toward target 1011.
        let mut t = table_for_000();
        let me = code("000");
        t.observe(&me, NodeId(9), code("101"), 50);
        let hop = t.next_hop(&me, &code("1011")).unwrap();
        assert_eq!(hop.node, NodeId(9), "extra with longer cpl must win");
    }

    #[test]
    fn extras_capped_with_lru_eviction() {
        let mut t = table_for_000();
        let me = code("000");
        for i in 0..40u32 {
            t.observe(&me, NodeId(100 + i), code("101"), i as SimTime);
        }
        assert!(
            t.extras().len() <= 16,
            "extras bounded, got {}",
            t.extras().len()
        );
        // The most recent stranger survived.
        assert!(t.find_by_node(NodeId(139)).is_some());
    }

    #[test]
    fn silent_extras_pruned_on_expire() {
        let mut t = table_for_000();
        let me = code("000");
        t.observe(&me, NodeId(9), code("101"), 10);
        for e in t.entries.iter_mut() {
            e.last_seen = 100;
        }
        t.expire(50, 50);
        assert!(t.find_by_node(NodeId(9)).is_none(), "stale extra dropped");
    }

    #[test]
    fn expire_marks_silent_entries() {
        let mut t = table_for_000();
        t.find_by_node_mut(NodeId(2)).unwrap().last_seen = 100;
        let dead = t.expire(50, 50);
        // Entries with last_seen = 0 (< 50) die; NodeId(2) (100) survives.
        assert_eq!(dead.len(), 2);
        assert!(t.find_by_node(NodeId(2)).unwrap().alive);
        assert_eq!(t.alive_nodes(), vec![NodeId(2)]);
    }

    #[test]
    fn alive_nodes_dedup() {
        let mut t = NeighborTable::new();
        t.set_all(vec![
            NeighborEntry::new(code("1"), NodeId(7), 0),
            NeighborEntry::new(code("01"), NodeId(7), 0),
        ]);
        assert_eq!(t.alive_nodes(), vec![NodeId(7)]);
    }
}
