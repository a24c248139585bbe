//! Seeded inputs: flow rows, the query mix, the cuts, and the oracle that
//! says what every query must return.
//!
//! `--seed` drives this module and nothing else; the program under test
//! only ever receives what is generated here. The generator is the
//! benchmark's own (splitmix64), so a change to the repository's `rand`
//! stand-in cannot change the inputs.

use mind_histogram::CutTree;
use mind_types::{AttrDef, AttrKind, HyperRect, IndexSchema, Record};

/// Index tag of the benchmark's one index.
pub const INDEX: &str = "bench-flows";
/// Timestamps cover one day, so every row lives in index version 0.
pub const DAY: u64 = 86_400;
/// Upper bound of the `octets` dimension.
pub const OCTETS_BOUND: u64 = u32::MAX as u64;
/// A narrow query covers one /16 destination network for this long.
pub const NARROW_WINDOW: u64 = 300;
/// Depth of the data-space cuts (1024 leaf regions, as `MindConfig`).
pub const CUT_DEPTH: u8 = 10;
/// Number of distinct destination networks the Zipf draw ranks.
const NETWORKS: u64 = 4096;

/// splitmix64: small, seedable, and the same everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// splitmix64's output function; also the per-row hash of the checksum.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated flow aggregate, packed (the oracle keeps millions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Destination prefix: /16 network in the high half, host bits low.
    pub prefix: u32,
    /// Second of the day.
    pub ts: u32,
    /// Bytes carried.
    pub octets: u32,
}

impl Row {
    /// The record MIND stores: the three indexed values plus the row's
    /// sequence number as a carried attribute, which is what lets the
    /// oracle name exactly which rows an answer holds.
    pub fn record(&self, seq: u64) -> Record {
        Record::new(vec![
            self.prefix as u64,
            self.ts as u64,
            self.octets as u64,
            seq,
        ])
    }

    /// The indexed point.
    pub fn point(&self) -> [u64; 3] {
        [self.prefix as u64, self.ts as u64, self.octets as u64]
    }

    fn inside(&self, rect: &HyperRect) -> bool {
        rect.contains_point(&self.point())
    }
}

/// `(dst_prefix, timestamp, octets | seq)`: the paper's Index-2 shape.
pub fn schema() -> IndexSchema {
    IndexSchema::new(
        INDEX,
        vec![
            AttrDef::new("dst_prefix", AttrKind::IpPrefix, 0, u32::MAX as u64),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, DAY),
            AttrDef::new("octets", AttrKind::Octets, 0, OCTETS_BOUND),
            AttrDef::new("seq", AttrKind::Generic, 0, u64::MAX),
        ],
        3,
    )
}

/// `n` rows: Zipf-ranked destination networks scattered over the prefix
/// space, timestamps uniform over the day (so all region owners take
/// writes at once), Pareto-tailed octets (`P(octets >= t) = 64 / t`).
pub fn rows(seed: u64, n: usize) -> Vec<Row> {
    let mut rng = Rng::new(seed, 1);
    (0..n)
        .map(|_| {
            let rank = (((rng.unit().powf(-0.8) - 1.0) * 8.0) as u64) % NETWORKS;
            // Odd multiplier: a bijection on 16 bits, so popular networks
            // are spread over the prefix space rather than adjacent.
            let net = rank.wrapping_mul(40_503) & 0xFFFF;
            let host = rng.below(1 << 16);
            let octets = (64.0 / rng.unit()).min(OCTETS_BOUND as f64) as u64;
            Row {
                prefix: ((net << 16) | host) as u32,
                ts: rng.below(DAY) as u32,
                octets: octets as u32,
            }
        })
        .collect()
}

/// Balanced cuts from a 1 % sample of the rows — the paper builds today's
/// cuts from yesterday's histogram; the sample stands in for yesterday.
pub fn cuts(seed: u64, rows: &[Row]) -> CutTree {
    let mut rng = Rng::new(seed, 2);
    let sample: Vec<[u64; 3]> = (0..(rows.len() / 100).max(64))
        .map(|_| rows[rng.below(rows.len() as u64) as usize].point())
        .collect();
    let refs: Vec<&[u64]> = sample.iter().map(|p| p.as_slice()).collect();
    CutTree::balanced_from_points(schema().bounds(), CUT_DEPTH, &refs)
}

/// The two query classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QClass {
    /// One /16 network × one 5-minute slice × any size: 1–2 regions.
    Narrow,
    /// Every network × the whole day × `octets >= t` (the alpha-flow
    /// query): every node answers.
    Wide,
}

/// One generated query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Its class.
    pub class: QClass,
    /// The range it asks for.
    pub rect: HyperRect,
}

/// `n` queries, 80 % narrow and 20 % wide: every fifth one is wide, so
/// that equal-work slices hold equal numbers of each class. Narrow
/// queries are anchored on rows among the first `anchors` (the preloaded
/// ones), so they ask about traffic that exists, popular networks more
/// often.
pub fn queries(seed: u64, n: usize, rows: &[Row], anchors: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 3);
    (0..n)
        .map(|i| {
            if i % 5 == 4 {
                wide_query(&mut rng)
            } else {
                narrow_query(&mut rng, rows, anchors)
            }
        })
        .collect()
}

/// `n` queries of one class (the traced run samples each class apart).
pub fn queries_of(seed: u64, class: QClass, n: usize, rows: &[Row], anchors: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 4 + class as u64);
    (0..n)
        .map(|_| match class {
            QClass::Narrow => narrow_query(&mut rng, rows, anchors),
            QClass::Wide => wide_query(&mut rng),
        })
        .collect()
}

fn narrow_query(rng: &mut Rng, rows: &[Row], anchors: usize) -> Query {
    let anchor = rows[rng.below(anchors.min(rows.len()) as u64) as usize];
    let net = (anchor.prefix as u64) & 0xFFFF_0000;
    let t0 = anchor.ts as u64 - anchor.ts as u64 % NARROW_WINDOW;
    Query {
        class: QClass::Narrow,
        rect: HyperRect::new(
            vec![net, t0, 0],
            vec![net | 0xFFFF, t0 + NARROW_WINDOW - 1, OCTETS_BOUND],
        ),
    }
}

fn wide_query(rng: &mut Rng) -> Query {
    // 64 / t of all rows: about 0.05 %.
    let t = ALPHA_FLOOR as u64 + rng.below(ALPHA_FLOOR as u64 / 8);
    Query {
        class: QClass::Wide,
        rect: HyperRect::new(vec![0, 0, t], vec![u32::MAX as u64, DAY, OCTETS_BOUND]),
    }
}

/// `n` monitoring ranges for the simulated feed: a sixteenth of the
/// prefix space at a random offset, flows of at least 512 octets (an
/// eighth of the rows). `bench_sim` draws both ends of its ranges at
/// random; equal-sized ranges keep the work of a simulated second the
/// same from seed to seed. The caller sets the time window to the last
/// five minutes before the query is issued.
pub fn range_queries(seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 6);
    let width = 1u64 << 28;
    (0..n)
        .map(|_| {
            let lo = rng.below((1 << 32) - width);
            Query {
                class: QClass::Wide,
                rect: HyperRect::new(vec![lo, 0, 512], vec![lo + width - 1, DAY, OCTETS_BOUND]),
            }
        })
        .collect()
}

/// FNV-1a over everything generated: printed in the header so two runs
/// can be seen to have had the same inputs.
pub fn input_hash(rows: &[Row], queries: &[Query]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for r in rows {
        eat(r.prefix as u64);
        eat(r.ts as u64);
        eat(r.octets as u64);
    }
    for q in queries {
        for d in 0..3 {
            eat(q.rect.lo(d));
            eat(q.rect.hi(d));
        }
    }
    h
}

/// An order-independent checksum of a set of rows: how many, and the
/// wrapping sum of a hash of each row's sequence number and values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checksum {
    /// Number of rows.
    pub count: u64,
    /// Wrapping sum of per-row hashes.
    pub sum: u64,
}

impl Checksum {
    /// Adds one row.
    pub fn add(&mut self, seq: u64, point: &[u64]) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(row_hash(seq, point));
    }

    /// The checksum of a set of records `[prefix, ts, octets, seq]`.
    #[cfg(test)]
    pub fn of_records<'a>(records: impl Iterator<Item = &'a [u64]>) -> Self {
        let mut c = Checksum::default();
        for v in records {
            c.add(v[3], &v[..3]);
        }
        c
    }
}

fn row_hash(seq: u64, point: &[u64]) -> u64 {
    mix(seq ^ mix(point[0] ^ mix(point[1] ^ mix(point[2]))))
}

/// What every query must return, for any prefix of the rows issued:
/// the rows sorted by timestamp for the narrow queries' 5-minute windows,
/// plus the large rows sorted by size for the wide ones.
pub struct Oracle {
    /// `(row, seq)` sorted by timestamp.
    by_ts: Vec<(Row, u32)>,
    /// `(row, seq)` with `octets >= ALPHA_FLOOR`, sorted by octets.
    large: Vec<(Row, u32)>,
}

/// No wide query asks below this size, so the oracle indexes only rows
/// at or above it.
const ALPHA_FLOOR: u32 = 120_000;

impl Oracle {
    /// An oracle over `rows`; a row's sequence number is its index.
    pub fn new(rows: &[Row]) -> Self {
        let mut by_ts: Vec<(Row, u32)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, i as u32))
            .collect();
        by_ts.sort_unstable_by_key(|(r, seq)| (r.ts, *seq));
        let mut large: Vec<(Row, u32)> = by_ts
            .iter()
            .filter(|(r, _)| r.octets >= ALPHA_FLOOR)
            .copied()
            .collect();
        large.sort_unstable_by_key(|(r, seq)| (r.octets, *seq));
        Oracle { by_ts, large }
    }

    /// The checksum a complete, correct answer to `rect` has once the
    /// rows with sequence numbers below `horizon` are stored.
    pub fn answer(&self, rect: &HyperRect, horizon: usize) -> Checksum {
        let mut c = Checksum::default();
        let scan = if rect.lo(2) >= ALPHA_FLOOR as u64 {
            let from = self
                .large
                .partition_point(|(r, _)| (r.octets as u64) < rect.lo(2));
            &self.large[from..]
        } else {
            let from = self
                .by_ts
                .partition_point(|(r, _)| (r.ts as u64) < rect.lo(1));
            let to = self
                .by_ts
                .partition_point(|(r, _)| (r.ts as u64) <= rect.hi(1));
            &self.by_ts[from..to]
        };
        for (r, seq) in scan {
            if (*seq as usize) < horizon && r.inside(rect) {
                c.add(*seq as u64, &r.point());
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = rows(7, 5_000);
        let b = rows(7, 5_000);
        let c = rows(8, 5_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let qa = queries(7, 100, &a, 5_000);
        let qb = queries(7, 100, &b, 5_000);
        assert_eq!(input_hash(&a, &qa), input_hash(&b, &qb));
        assert_ne!(
            input_hash(&a, &qa),
            input_hash(&c, &queries(8, 100, &c, 5_000))
        );
    }

    #[test]
    fn rows_are_in_bounds_and_skewed() {
        let r = rows(1, 20_000);
        assert!(r.iter().all(|x| (x.ts as u64) < DAY && x.octets >= 64));
        let top_net = (0u64.wrapping_mul(40_503) & 0xFFFF) as u32;
        let top = r.iter().filter(|x| x.prefix >> 16 == top_net).count();
        assert!(top > 20_000 / 20, "rank-0 network holds {top} rows");
        let large = r.iter().filter(|x| x.octets >= 32_000).count();
        assert!((10..=120).contains(&large), "{large} rows >= 32000 octets");
    }

    #[test]
    fn query_mix_is_80_20_and_narrow_hits_its_anchor() {
        let r = rows(3, 10_000);
        let q = queries(3, 2_000, &r, 10_000);
        let wide = q.iter().filter(|q| q.class == QClass::Wide).count();
        assert_eq!(wide, 400);
        let oracle = Oracle::new(&r);
        for q in q.iter().filter(|q| q.class == QClass::Narrow) {
            assert!(oracle.answer(&q.rect, r.len()).count >= 1);
            assert_eq!(q.rect.hi(1) - q.rect.lo(1) + 1, NARROW_WINDOW);
        }
    }

    #[test]
    fn oracle_checksum_is_order_independent_and_matches_brute_force() {
        let r = rows(5, 8_000);
        let oracle = Oracle::new(&r);
        for q in queries(5, 200, &r, r.len()) {
            let hits: Vec<(u64, Row)> = r
                .iter()
                .enumerate()
                .filter(|(_, x)| x.inside(&q.rect))
                .map(|(i, x)| (i as u64, *x))
                .collect();
            let recs: Vec<Vec<u64>> = hits
                .iter()
                .map(|(i, x)| x.record(*i).values().to_vec())
                .collect();
            let fwd = Checksum::of_records(recs.iter().map(|v| v.as_slice()));
            let rev = Checksum::of_records(recs.iter().rev().map(|v| v.as_slice()));
            assert_eq!(fwd, rev);
            assert_eq!(fwd, oracle.answer(&q.rect, r.len()), "{:?}", q.rect);
            // Below a horizon: only the rows issued before it.
            let early = recs.iter().filter(|v| v[3] < 3_000).map(|v| v.as_slice());
            assert_eq!(Checksum::of_records(early), oracle.answer(&q.rect, 3_000));
        }
    }

    #[test]
    fn checksum_tells_a_missing_a_duplicated_and_a_swapped_row() {
        let r = rows(9, 100);
        let full: Vec<Vec<u64>> = r
            .iter()
            .enumerate()
            .map(|(i, x)| x.record(i as u64).values().to_vec())
            .collect();
        let sum = |v: &[Vec<u64>]| Checksum::of_records(v.iter().map(|x| x.as_slice()));
        let whole = sum(&full);
        assert_ne!(whole, sum(&full[1..]));
        let mut dup = full.clone();
        dup.push(full[0].clone());
        assert_ne!(whole, sum(&dup));
        let mut swapped = full.clone();
        swapped[0][3] = 1; // row 0's values under row 1's sequence number
        swapped[1][3] = 0;
        assert_ne!(whole, sum(&swapped));
    }

    #[test]
    fn cuts_balance_the_rows_over_four_owners() {
        let r = rows(11, 40_000);
        let tree = cuts(11, &r);
        let mut per_owner = [0usize; 4];
        for x in &r {
            let code = tree.code_for_point(&x.point());
            per_owner[code.prefix(2).as_index() as usize] += 1;
        }
        for n in per_owner {
            assert!((7_000..=13_000).contains(&n), "{per_owner:?}");
        }
    }
}
