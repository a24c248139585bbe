//! Index schemas.
//!
//! When a user calls `create_index`, they supply an [`IndexSchema`]: the
//! globally unique tag of the index plus a description of each attribute.
//! The paper used an XML document for this; we use a typed struct that is
//! serde-serializable, which gives the same "self-describing schema travels
//! with the create-index flood" behaviour without an XML parser.
//!
//! The first [`IndexSchema::indexed_dims`] attributes are the *indexed*
//! dimensions (they define the data space the cut tree partitions); the
//! remaining attributes are carried along in the record and returned by
//! queries but do not participate in routing — exactly like the
//! `(source_prefix, node)` tail of the paper's Index-1 records.

use crate::rect::HyperRect;
use crate::Value;
use serde::{Deserialize, Serialize};

/// The semantic kind of an attribute, used for display and for choosing
/// sensible default bounds. MIND routing only ever sees the `u64` encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrKind {
    /// An IPv4 address or prefix, encoded as the 32-bit integer form of the
    /// address (prefixes cover contiguous integer ranges, as the paper
    /// exploits for range queries on prefixes).
    IpPrefix,
    /// A timestamp in seconds.
    Timestamp,
    /// A byte count (the paper's `octets`).
    Octets,
    /// A count of distinct connections/hosts (the paper's `fanout`).
    Count,
    /// A transport port number.
    Port,
    /// Any other ordered numeric domain.
    Generic,
}

/// One attribute of an index schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrDef {
    /// Attribute name, unique within the schema.
    pub name: String,
    /// Semantic kind (display / defaults only).
    pub kind: AttrKind,
    /// Inclusive lower bound of the indexed domain.
    pub min: Value,
    /// Inclusive upper bound of the indexed domain.
    ///
    /// The paper chooses per-attribute upper bounds such that fewer than
    /// 0.1 % of tuples exceed them and assigns out-of-range tuples to the
    /// largest range; `Record` values are clamped on insert accordingly.
    pub max: Value,
}

impl AttrDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, kind: AttrKind, min: Value, max: Value) -> Self {
        let name = name.into();
        assert!(min <= max, "attribute {name}: min {min} > max {max}");
        AttrDef {
            name,
            kind,
            min,
            max,
        }
    }
}

/// The schema of one MIND index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexSchema {
    /// Globally unique index tag (the paper's XML `tag`).
    pub tag: String,
    /// All attributes: indexed dimensions first, carried attributes after.
    pub attrs: Vec<AttrDef>,
    /// How many leading attributes are indexed (define the data space).
    pub indexed_dims: usize,
}

impl IndexSchema {
    /// Creates a schema; validates attribute names and dimension counts.
    ///
    /// # Panics
    /// Panics if `indexed_dims` is zero or exceeds the attribute count, or
    /// if two attributes share a name.
    pub fn new(tag: impl Into<String>, attrs: Vec<AttrDef>, indexed_dims: usize) -> Self {
        let tag = tag.into();
        assert!(
            indexed_dims >= 1,
            "index {tag}: at least one indexed dimension required"
        );
        assert!(
            indexed_dims <= attrs.len(),
            "index {tag}: indexed_dims {indexed_dims} exceeds attribute count {}",
            attrs.len()
        );
        for i in 0..attrs.len() {
            for j in (i + 1)..attrs.len() {
                assert_ne!(
                    attrs[i].name, attrs[j].name,
                    "index {tag}: duplicate attribute name"
                );
            }
        }
        IndexSchema {
            tag,
            attrs,
            indexed_dims,
        }
    }

    /// Total number of attributes (indexed + carried).
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The bounding hyper-rectangle of the indexed data space.
    pub fn bounds(&self) -> HyperRect {
        let lo = self.attrs[..self.indexed_dims]
            .iter()
            .map(|a| a.min)
            .collect();
        let hi = self.attrs[..self.indexed_dims]
            .iter()
            .map(|a| a.max)
            .collect();
        HyperRect::new(lo, hi)
    }

    /// The position of the timestamp attribute among the indexed dimensions,
    /// if the schema has one. Index versioning (Section 3.7) selects the
    /// version(s) a query must consult from the query's time range.
    pub fn time_dim(&self) -> Option<usize> {
        self.attrs[..self.indexed_dims]
            .iter()
            .position(|a| a.kind == AttrKind::Timestamp)
    }
}

/// How many copies of each record an index keeps (Section 3.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Replication {
    /// Primary copy only.
    #[default]
    None,
    /// Primary plus replicas at the `m` prefix neighbors that would take
    /// over on failure. `Level(1)` survives any 1 failure per sibling
    /// pair; the paper's Figure 16 shows it tolerating 15 % random node
    /// loss with no recall loss.
    Level(u8),
    /// Primary plus a replica at every overlay neighbor (the paper's
    /// "full replication": survives > 50 % random loss).
    Full,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IndexSchema {
        IndexSchema::new(
            "index-1",
            vec![
                AttrDef::new("dst_prefix", AttrKind::IpPrefix, 0, u32::MAX as u64),
                AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400 * 14),
                AttrDef::new("fanout", AttrKind::Count, 0, 5024),
                AttrDef::new("src_prefix", AttrKind::IpPrefix, 0, u32::MAX as u64),
                AttrDef::new("node", AttrKind::Generic, 0, 1000),
            ],
            3,
        )
    }

    #[test]
    fn bounds_cover_indexed_dims_only() {
        let s = sample();
        let b = s.bounds();
        assert_eq!(b.dims(), 3);
        assert_eq!(b.hi(2), 5024);
        assert_eq!(s.arity(), 5);
    }

    #[test]
    fn time_dim_found() {
        assert_eq!(sample().time_dim(), Some(1));
    }

    #[test]
    #[should_panic(expected = "duplicate attribute name")]
    fn duplicate_names_rejected() {
        IndexSchema::new(
            "bad",
            vec![
                AttrDef::new("a", AttrKind::Generic, 0, 10),
                AttrDef::new("a", AttrKind::Generic, 0, 10),
            ],
            1,
        );
    }

    #[test]
    #[should_panic(expected = "at least one indexed dimension")]
    fn zero_dims_rejected() {
        IndexSchema::new("bad", vec![AttrDef::new("a", AttrKind::Generic, 0, 1)], 0);
    }
}
