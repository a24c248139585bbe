//! Equi-width multi-dimensional histograms.
//!
//! Appendix A of the paper partitions a `d`-dimensional index domain into
//! `k^d` equal-sized bins (`k` is the *histogram granularity*). For the
//! six-attribute index of Figure 3 and `k = 64` that is ~7 × 10^10 virtual
//! bins, so the histogram must be sparse: real traffic summaries occupy a
//! vanishing fraction of the attribute space (that skew is exactly what
//! Figure 2 shows). [`GridHistogram`] therefore stores only non-empty bins
//! in a hash map keyed by the packed per-dimension bin coordinates.

use mind_types::{HyperRect, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Maximum number of dimensions a histogram supports (bin coordinates are
/// packed 8 bits per dimension into a `u64`).
pub const MAX_DIMS: usize = 8;

/// Maximum per-dimension granularity (bin coordinates must fit in 8 bits).
pub const MAX_GRANULARITY: u32 = 256;

/// A sparse `k^d`-bin equi-width histogram over a bounded attribute space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridHistogram {
    bounds: HyperRect,
    granularity: u32,
    /// Non-empty bins: packed bin coordinates → tuple count.
    bins: BTreeMap<u64, u64>,
    total: u64,
}

impl GridHistogram {
    /// Creates an empty histogram over `bounds` with `granularity` bins per
    /// dimension.
    ///
    /// # Panics
    /// Panics if `bounds.dims() > 8`, `granularity` is 0, 1, not a power of
    /// two, or exceeds 256. Power-of-two granularity keeps bin boundaries
    /// aligned with recursive binary cuts.
    pub fn new(bounds: HyperRect, granularity: u32) -> Self {
        assert!(
            bounds.dims() <= MAX_DIMS,
            "at most {MAX_DIMS} dimensions supported"
        );
        assert!(
            (2..=MAX_GRANULARITY).contains(&granularity) && granularity.is_power_of_two(),
            "granularity must be a power of two in 2..=256, got {granularity}"
        );
        GridHistogram {
            bounds,
            granularity,
            bins: BTreeMap::new(),
            total: 0,
        }
    }

    /// The domain this histogram covers.
    pub fn bounds(&self) -> &HyperRect {
        &self.bounds
    }

    /// Bins per dimension (the paper's `k`).
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    /// Total number of tuples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bin coordinate of `v` on axis `d` (clamped to the domain).
    fn coord(&self, d: usize, v: Value) -> u64 {
        let lo = self.bounds.lo(d);
        let v = v.clamp(lo, self.bounds.hi(d));
        let width = self.bounds.width(d);
        let off = (v - lo) as u128;
        // bin = floor(off * k / width), guaranteed < k.
        ((off * self.granularity as u128) / width) as u64
    }

    /// Packs per-dimension bin coordinates into the map key.
    fn pack(&self, coords: &[u64]) -> u64 {
        let mut key = 0u64;
        for &c in coords {
            debug_assert!(c < self.granularity as u64);
            key = (key << 8) | c;
        }
        key
    }

    /// Unpacks a map key into per-dimension bin coordinates.
    fn unpack(&self, mut key: u64) -> Vec<u64> {
        let d = self.bounds.dims();
        let mut coords = vec![0u64; d];
        for i in (0..d).rev() {
            coords[i] = key & 0xff;
            key >>= 8;
        }
        coords
    }

    /// Records one tuple at `point` (out-of-domain values are clamped, as
    /// the paper assigns out-of-bound tuples to the largest range).
    pub fn add(&mut self, point: &[Value]) {
        self.add_n(point, 1);
    }

    /// Records `n` tuples at `point`.
    pub fn add_n(&mut self, point: &[Value], n: u64) {
        assert_eq!(
            point.len(),
            self.bounds.dims(),
            "point dimensionality mismatch"
        );
        let coords: Vec<u64> = (0..point.len()).map(|d| self.coord(d, point[d])).collect();
        let key = self.pack(&coords);
        *self.bins.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Merges another histogram of identical shape into this one.
    ///
    /// This is the aggregation step of Section 3.7: the designated node sums
    /// the per-node histograms into the global data distribution.
    ///
    /// # Panics
    /// Panics if bounds or granularity differ.
    pub fn merge(&mut self, other: &GridHistogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch");
        assert_eq!(
            self.granularity, other.granularity,
            "histogram granularity mismatch"
        );
        for (&k, &v) in &other.bins {
            *self.bins.entry(k).or_insert(0) += v;
        }
        self.total += other.total;
    }

    /// Iterates over `(bin coordinates, count)` for every non-empty bin.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<u64>, u64)> + '_ {
        self.bins.iter().map(move |(&k, &v)| (self.unpack(k), v))
    }

    /// Count in the bin with the given coordinates (zero when absent).
    pub fn bin_count(&self, coords: &[u64]) -> u64 {
        assert_eq!(coords.len(), self.bounds.dims());
        self.bins.get(&self.pack(coords)).copied().unwrap_or(0)
    }

    /// The bin occupancy counts in descending order — the series Figure 2
    /// plots to demonstrate traffic skew.
    pub fn occupancy_series(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.bins.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// The hyper-rectangle covered by the bin with the given coordinates.
    pub fn bin_rect(&self, coords: &[u64]) -> HyperRect {
        assert_eq!(coords.len(), self.bounds.dims());
        let k = self.granularity as u128;
        let mut lo = Vec::with_capacity(coords.len());
        let mut hi = Vec::with_capacity(coords.len());
        for (d, &c) in coords.iter().enumerate() {
            let width = self.bounds.width(d);
            let base = self.bounds.lo(d);
            let start = base + ((c as u128 * width) / k) as u64;
            let end_off = ((c as u128 + 1) * width) / k;
            let end = base + (end_off - 1) as u64;
            lo.push(start);
            hi.push(end);
        }
        HyperRect::new(lo, hi)
    }

    /// Internal access for the cut-tree builder: `(packed key, count)`.
    pub(crate) fn raw_bins(&self) -> impl Iterator<Item = (Vec<u64>, u64)> + '_ {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bounds2() -> HyperRect {
        HyperRect::new(vec![0, 0], vec![1023, 1023])
    }

    #[test]
    fn add_and_count() {
        let mut h = GridHistogram::new(bounds2(), 4);
        h.add(&[0, 0]); // bin (0,0)
        h.add(&[255, 255]); // still bin (0,0): 1024/4 = 256 per bin
        h.add(&[256, 0]); // bin (1,0)
        h.add(&[1023, 1023]); // bin (3,3)
        assert_eq!(h.total(), 4);
        assert_eq!(h.bin_count(&[0, 0]), 2);
        assert_eq!(h.bin_count(&[1, 0]), 1);
        assert_eq!(h.bin_count(&[3, 3]), 1);
        assert_eq!(h.bin_count(&[2, 2]), 0);
    }

    #[test]
    fn out_of_domain_clamped() {
        let mut h = GridHistogram::new(HyperRect::new(vec![10], vec![20]), 2);
        h.add(&[100]);
        h.add(&[0]);
        assert_eq!(h.bin_count(&[1]), 1);
        assert_eq!(h.bin_count(&[0]), 1);
    }

    #[test]
    fn iteration_is_insertion_order_independent() {
        // Same-seed replay regression for the HashMap→BTreeMap bin-store
        // conversion: `iter()` feeds both the wire encoding (HistReport)
        // and the cut builder, so its order must be a function of the
        // histogram's *contents*, never of arrival order. Under the old
        // HashMap bins this failed: two maps with identical contents but
        // separate RandomStates iterate in unrelated orders.
        let mut fwd = GridHistogram::new(bounds2(), 16);
        let mut rev = GridHistogram::new(bounds2(), 16);
        let points: Vec<[Value; 2]> = (0..1024)
            .step_by(13)
            .flat_map(|x| (0..1024).step_by(37).map(move |y| [x, y]))
            .collect();
        for p in &points {
            fwd.add(p);
        }
        for p in points.iter().rev() {
            rev.add(p);
        }
        let a: Vec<(Vec<u64>, u64)> = fwd.iter().collect();
        let b: Vec<(Vec<u64>, u64)> = rev.iter().collect();
        assert!(
            a.len() > 100,
            "need enough bins to make order collisions impossible"
        );
        assert_eq!(a, b, "bin iteration must not depend on insertion order");
        assert_eq!(fwd.occupancy_series(), rev.occupancy_series());
    }

    #[test]
    fn merge_sums() {
        let mut a = GridHistogram::new(bounds2(), 4);
        let mut b = GridHistogram::new(bounds2(), 4);
        a.add(&[0, 0]);
        b.add(&[0, 0]);
        b.add(&[512, 512]);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.bin_count(&[0, 0]), 2);
        assert_eq!(a.bin_count(&[2, 2]), 1);
    }

    #[test]
    fn occupancy_series_sorted() {
        let mut h = GridHistogram::new(bounds2(), 4);
        for _ in 0..5 {
            h.add(&[0, 0]);
        }
        h.add(&[512, 0]);
        assert_eq!(h.occupancy_series(), vec![5, 1]);
    }

    #[test]
    fn bin_rect_partitions_domain() {
        let h = GridHistogram::new(HyperRect::new(vec![0], vec![1023]), 4);
        assert_eq!(h.bin_rect(&[0]), HyperRect::new(vec![0], vec![255]));
        assert_eq!(h.bin_rect(&[3]), HyperRect::new(vec![768], vec![1023]));
    }

    #[test]
    fn full_domain_bins() {
        // The full u64 domain must not overflow bin arithmetic.
        let mut h = GridHistogram::new(HyperRect::full(3), 64);
        h.add(&[0, u64::MAX, u64::MAX / 2]);
        assert_eq!(h.bin_count(&[0, 63, 31]), 1);
        let r = h.bin_rect(&[63, 63, 63]);
        assert_eq!(r.hi(0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn non_power_of_two_rejected() {
        GridHistogram::new(bounds2(), 3);
    }

    proptest! {
        #[test]
        fn prop_point_lands_in_its_bin_rect(
            x in 0u64..=1023, y in 0u64..=1023,
            gran in prop::sample::select(vec![2u32, 4, 8, 16, 64])
        ) {
            let mut h = GridHistogram::new(bounds2(), gran);
            h.add(&[x, y]);
            let (coords, n) = h.iter().next().unwrap();
            prop_assert_eq!(n, 1);
            prop_assert!(h.bin_rect(&coords).contains_point(&[x, y]));
        }

        #[test]
        fn prop_total_is_sum_of_bins(points in prop::collection::vec((0u64..=1023, 0u64..=1023), 0..50)) {
            let mut h = GridHistogram::new(bounds2(), 8);
            for (x, y) in &points {
                h.add(&[*x, *y]);
            }
            let sum: u64 = h.iter().map(|(_, n)| n).sum();
            prop_assert_eq!(sum, points.len() as u64);
            prop_assert_eq!(h.total(), points.len() as u64);
        }

        #[test]
        fn prop_bin_rects_disjoint(a in 0u64..4, b in 0u64..4) {
            let h = GridHistogram::new(HyperRect::new(vec![0], vec![1000]), 4);
            if a != b {
                prop_assert!(!h.bin_rect(&[a]).intersects(&h.bin_rect(&[b])));
            }
        }
    }
}
