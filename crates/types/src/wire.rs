//! The wire layout, stated once: a compact, non-self-describing binary
//! encoding of serde types.
//!
//! Layout rules (all integers little-endian):
//!
//! * fixed-width primitives as-is; `bool` as one byte,
//! * `str` / `bytes`: `u32` length + raw bytes,
//! * `Option`: 1-byte tag (0 = None, 1 = Some),
//! * sequences and maps: `u32` length + elements,
//! * structs and tuples: fields in declaration order, no framing,
//! * enums: `u32` variant index + variant content.
//!
//! Both ends must agree on the Rust types (like bincode); the frame layer
//! guarantees message boundaries. The decoder lives in `mind_net::wire`.
//!
//! One encoder walks a value and hands the bytes to a sink; which sink
//! decides what comes out. [`to_bytes`] appends them to a buffer (what a
//! socket carries), [`serialized_len`] counts them (what the simulator's
//! bandwidth model charges, via [`WireSize`](crate::WireSize)), and
//! [`Fnv1a`] folds them into a hash (what the anti-entropy catalog
//! exchange compares, DESIGN.md §16). The three cannot disagree about the
//! layout because only the encoder knows it.

use serde::ser::{
    SerializeMap, SerializeSeq, SerializeStruct, SerializeStructVariant, SerializeTuple,
    SerializeTupleStruct, SerializeTupleVariant,
};
use serde::Serialize;
use std::fmt;

/// Encoding/decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl serde::ser::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError(msg.to_string())
    }
}

impl serde::de::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError(msg.to_string())
    }
}

/// Serializes `v` into a fresh buffer.
pub fn to_bytes<T: Serialize + ?Sized>(v: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(128);
    v.serialize(Encoder(&mut out))?;
    Ok(out)
}

/// Exact number of bytes [`to_bytes`] would produce, without a buffer.
///
/// The only failure modes of the codec are unknown-length sequences and
/// lengths above `u32::MAX`, neither of which any MIND payload produces;
/// should one ever appear, this debug-asserts and returns the bytes
/// counted up to the error (an under-estimate, never a panic in release).
pub fn serialized_len<T: Serialize + ?Sized>(v: &T) -> usize {
    let mut count = ByteCount(0);
    let r = v.serialize(Encoder(&mut count));
    debug_assert!(r.is_ok(), "uncountable wire payload: {r:?}");
    count.0
}

/// FNV-1a digest of the byte stream [`to_bytes`] would produce. Two nodes
/// that would put identical bytes on the wire produce identical digests.
pub fn fnv1a_digest<T: Serialize + ?Sized>(v: &T) -> u64 {
    let mut d = Fnv1a::default();
    d.absorb(v);
    d.finish()
}

/// A streaming FNV-1a hash over the wire layout. Callers can absorb
/// several values in sequence (the catalog digest streams every index and
/// trigger through one `Fnv1a` without materializing a response message).
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The hash of no bytes.
    fn default() -> Self {
        Fnv1a(Self::OFFSET)
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Folds `v`'s wire bytes into the hash.
    pub fn absorb<T: Serialize + ?Sized>(&mut self, v: &T) {
        let r = v.serialize(Encoder(self));
        debug_assert!(r.is_ok(), "undigestable wire payload: {r:?}");
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Where encoded bytes go.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct ByteCount(usize);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

impl Sink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }
}

/// The layout rules, generic over the sink (monomorphised per sink).
struct Encoder<'a, S>(&'a mut S);

impl<S: Sink> Encoder<'_, S> {
    fn put_len(&mut self, len: usize, what: &str) -> Result<(), WireError> {
        let len = u32::try_from(len).map_err(|_| WireError(format!("{what} too long")))?;
        self.0.put(&len.to_le_bytes());
        Ok(())
    }
}

macro_rules! put_le {
    ($($method:ident: $ty:ty),*) => {$(
        fn $method(self, v: $ty) -> Result<(), WireError> {
            self.0.put(&v.to_le_bytes());
            Ok(())
        }
    )*};
}

impl<'a, S: Sink> serde::Serializer for Encoder<'a, S> {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    put_le!(
        serialize_i8: i8, serialize_i16: i16, serialize_i32: i32, serialize_i64: i64,
        serialize_u8: u8, serialize_u16: u16, serialize_u32: u32, serialize_u64: u64,
        serialize_f32: f32, serialize_f64: f64
    );

    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.serialize_u8(v as u8)
    }
    fn serialize_char(self, v: char) -> Result<(), WireError> {
        self.serialize_u32(v as u32)
    }
    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.serialize_bytes(v.as_bytes())
    }
    fn serialize_bytes(mut self, v: &[u8]) -> Result<(), WireError> {
        self.put_len(v.len(), "bytes")?;
        self.0.put(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), WireError> {
        self.serialize_u8(0)
    }
    fn serialize_some<T: Serialize + ?Sized>(self, v: &T) -> Result<(), WireError> {
        self.0.put(&[1]);
        v.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), WireError> {
        self.serialize_u32(variant_index)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        v: &T,
    ) -> Result<(), WireError> {
        v.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        v: &T,
    ) -> Result<(), WireError> {
        self.0.put(&variant_index.to_le_bytes());
        v.serialize(self)
    }
    fn serialize_seq(mut self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or_else(|| WireError("sequences must know their length".into()))?;
        self.put_len(len, "sequence")?;
        Ok(self)
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.0.put(&variant_index.to_le_bytes());
        Ok(self)
    }
    fn serialize_map(mut self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or_else(|| WireError("maps must know their length".into()))?;
        self.put_len(len, "map")?;
        Ok(self)
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.0.put(&variant_index.to_le_bytes());
        Ok(self)
    }
    fn is_human_readable(&self) -> bool {
        false
    }
}

// Compound values add no framing of their own: every element, field, key
// and value goes through the encoder it belongs to.
macro_rules! compound {
    ($($trait_:ident { $($method:ident($($key:ty)?)),+ })*) => {$(
        impl<S: Sink> $trait_ for Encoder<'_, S> {
            type Ok = ();
            type Error = WireError;
            $(fn $method<T: Serialize + ?Sized>(
                &mut self,
                $(_key: $key,)?
                v: &T,
            ) -> Result<(), WireError> {
                v.serialize(Encoder(&mut *self.0))
            })+
            fn end(self) -> Result<(), WireError> {
                Ok(())
            }
        }
    )*};
}

compound! {
    SerializeSeq { serialize_element() }
    SerializeTuple { serialize_element() }
    SerializeTupleStruct { serialize_field() }
    SerializeTupleVariant { serialize_field() }
    SerializeMap { serialize_key(), serialize_value() }
    SerializeStruct { serialize_field(&'static str) }
    SerializeStructVariant { serialize_field(&'static str) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;
    use std::collections::BTreeMap;

    #[derive(Serialize)]
    enum Sample {
        Unit,
        New(u64),
        Tuple(u8, String),
        Struct {
            a: Vec<u32>,
            b: Option<bool>,
            c: BTreeMap<u64, u64>,
        },
    }

    #[test]
    fn counts_match_layout_rules() {
        assert_eq!(serialized_len(&true), 1);
        assert_eq!(serialized_len(&7u32), 4);
        assert_eq!(serialized_len(&7u64), 8);
        assert_eq!(serialized_len(&-1i16), 2);
        assert_eq!(serialized_len(&3.5f64), 8);
        assert_eq!(serialized_len("héllo"), 4 + 6); // 2-byte é
        assert_eq!(serialized_len(&Option::<u32>::None), 1);
        assert_eq!(serialized_len(&Some(42u32)), 1 + 4);
        assert_eq!(serialized_len(&vec![1u64, 2, 3]), 4 + 24);
        assert_eq!(serialized_len(&(1u8, 2u16)), 3);
        assert_eq!(serialized_len(&Sample::Unit), 4);
        assert_eq!(serialized_len(&Sample::New(9)), 4 + 8);
        assert_eq!(
            serialized_len(&Sample::Tuple(1, "ab".into())),
            4 + 1 + 4 + 2
        );
        let mut m = BTreeMap::new();
        m.insert(1u64, 2u64);
        let s = Sample::Struct {
            a: vec![5, 6],
            b: Some(false),
            c: m,
        };
        assert_eq!(serialized_len(&s), 4 + (4 + 8) + (1 + 1) + (4 + 16));
    }

    #[test]
    fn digest_is_deterministic_and_value_sensitive() {
        let a = Sample::Struct {
            a: vec![5, 6],
            b: Some(false),
            c: BTreeMap::new(),
        };
        assert_eq!(fnv1a_digest(&a), fnv1a_digest(&a));
        let b = Sample::Struct {
            a: vec![5, 7],
            b: Some(false),
            c: BTreeMap::new(),
        };
        assert_ne!(
            fnv1a_digest(&a),
            fnv1a_digest(&b),
            "payload edit must move the digest"
        );
        assert_ne!(
            fnv1a_digest(&Sample::Unit),
            fnv1a_digest(&Sample::New(0)),
            "variant index is part of the digested bytes"
        );
    }

    #[test]
    fn streaming_absorb_equals_one_shot_digest() {
        // The catalog digest absorbs pieces in sequence; that must hash
        // the same bytes as serializing the equivalent tuple directly.
        let mut d = Fnv1a::default();
        d.absorb("tag");
        d.absorb(&7u32);
        assert_eq!(d.finish(), fnv1a_digest(&("tag", 7u32)));
    }

    /// The layout and the anti-entropy digest, pinned: bytes and hash
    /// were captured from the separate `mind-net` encoder and `mind-core`
    /// digest serializer this module replaced. A failure here means
    /// deployed peers would stop understanding each other's frames (or
    /// stop agreeing on catalog digests), not that the constant is stale.
    #[test]
    fn golden_bytes_and_digest() {
        const BYTES: &str = "040000006d696e6405000000000000000100000008070605040302010200\
            0000070600000068c3a96c6c6f030000000200000005000000060000000101020000000100\
            0000000000000200000000000000ffffffffffffffff000000000000000003000000000000\
            000000000000feff";
        const DIGEST: u64 = 0x9f30_a378_a0c2_7304;

        let mut m = BTreeMap::new();
        m.insert(1u64, 2u64);
        m.insert(u64::MAX, 0);
        let golden = (
            "mind",
            vec![
                Sample::Unit,
                Sample::New(0x0102_0304_0506_0708),
                Sample::Tuple(7, "héllo".into()),
                Sample::Struct {
                    a: vec![5, 6],
                    b: Some(true),
                    c: m,
                },
                Sample::Struct {
                    a: vec![],
                    b: None,
                    c: BTreeMap::new(),
                },
            ],
            -2i16,
        );
        let bytes = to_bytes(&golden).expect("encode");
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, BYTES);
        assert_eq!(serialized_len(&golden), bytes.len());
        assert_eq!(fnv1a_digest(&golden), DIGEST);
    }
}
