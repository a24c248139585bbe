//! Multi-attribute data records.

use crate::schema::IndexSchema;
use crate::{MindError, Value};
use serde::{Deserialize, Serialize};

/// A stable identifier a node assigns to a locally stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RecordId(pub u64);

/// A multi-attribute data item, e.g. one aggregated flow record.
///
/// Values appear in schema order: the first `indexed_dims` values are the
/// point in the indexed data space, the rest are carried attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// Creates a record from values in schema order.
    pub fn new(values: Vec<Value>) -> Self {
        assert!(!values.is_empty(), "empty record");
        Record { values }
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value of attribute `i`.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        self.values[i]
    }

    /// The point in the indexed data space (the first `dims` values).
    #[inline]
    pub fn point(&self, dims: usize) -> &[Value] {
        &self.values[..dims]
    }

    /// Validates the record against `schema` and clamps indexed values onto
    /// the schema bounds (the paper assigns the < 0.1 % of out-of-bound
    /// tuples to the largest range).
    ///
    /// Returns an error when the arity does not match — that is a caller
    /// bug, not a data property, so it is not silently repaired.
    pub fn conform(mut self, schema: &IndexSchema) -> Result<Record, MindError> {
        if self.values.len() != schema.arity() {
            return Err(MindError::SchemaMismatch {
                index: schema.tag.clone(),
                reason: format!(
                    "expected {} values, got {}",
                    schema.arity(),
                    self.values.len()
                ),
            });
        }
        for (d, attr) in schema.attrs[..schema.indexed_dims].iter().enumerate() {
            self.values[d] = self.values[d].clamp(attr.min, attr.max);
        }
        Ok(self)
    }

    /// Exact encoded size in bytes under the wire codec (`u32` count +
    /// 8 bytes per value), used by the simulator's bandwidth model; pinned
    /// against the encoder by `mind-net`'s `wire_size_exact` test.
    pub fn wire_size(&self) -> usize {
        8 * self.values.len() + 4
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrDef, AttrKind};

    fn schema() -> IndexSchema {
        IndexSchema::new(
            "t",
            vec![
                AttrDef::new("a", AttrKind::Generic, 10, 100),
                AttrDef::new("b", AttrKind::Generic, 0, 50),
                AttrDef::new("c", AttrKind::Generic, 0, u64::MAX),
            ],
            2,
        )
    }

    #[test]
    fn conform_clamps_indexed_dims_only() {
        let r = Record::new(vec![5, 500, 999]).conform(&schema()).unwrap();
        assert_eq!(r.values(), &[10, 50, 999]); // carried attr untouched
    }

    #[test]
    fn conform_rejects_bad_arity() {
        let err = Record::new(vec![1, 2]).conform(&schema()).unwrap_err();
        assert!(matches!(err, MindError::SchemaMismatch { .. }));
    }

    #[test]
    fn point_projection() {
        let r = Record::new(vec![42, 7, 9]);
        assert_eq!(r.point(2), &[42, 7]);
        assert_eq!(r.value(2), 9);
    }

    #[test]
    fn wire_size_scales_with_arity() {
        assert!(Record::new(vec![0; 6]).wire_size() > Record::new(vec![0; 3]).wire_size());
    }
}
