//! The decoding half of the wire codec, and the validator of everything a
//! socket hands us. The layout and its one encoder are
//! [`mind_types::wire`]; [`to_bytes`] and [`WireError`] are re-exported
//! from there.

use bytes::Buf;
use serde::de::{
    DeserializeOwned, EnumAccess, IntoDeserializer, MapAccess, SeqAccess, VariantAccess, Visitor,
};

pub use mind_types::wire::{to_bytes, WireError};

/// Deserializes a value of type `T` from `buf` (must consume it exactly).
pub fn from_bytes<T: DeserializeOwned>(buf: &[u8]) -> Result<T, WireError> {
    let mut de = De { buf };
    let v = T::deserialize(&mut de)?;
    if !de.buf.is_empty() {
        return Err(WireError(format!("{} trailing bytes", de.buf.len())));
    }
    Ok(v)
}

/// Fuzz entry point: arbitrary bytes either fail to decode as a
/// [`mind_core::MindPayload`] with a clean error, or decode to a payload
/// whose re-encoding is a canonical fixed point (encode ∘ decode ∘
/// encode = encode — the decoder is strict on scalars and tags, but map
/// entries may arrive unsorted and re-encode canonically) and whose
/// advertised [`WireSize`](mind_types::WireSize) equals its real encoded
/// length — the simulator's bandwidth-model invariant, checked here on
/// every structurally valid payload the decoder accepts, batched insert
/// frames included (the committed corpus seeds them).
///
/// Pure and deterministic — the in-tree fuzz target
/// (`fuzz/fuzz_targets/batch_decode.rs`) and the CI smoke run both drive
/// this function; corpus crashes replay as ordinary unit-test calls.
/// Panics only on an invariant violation, never on malformed input.
pub fn fuzz_batch_decode(data: &[u8]) {
    use mind_types::WireSize;

    let Ok(payload) = from_bytes::<mind_core::MindPayload>(data) else {
        return;
    };
    let Ok(encoded) = to_bytes(&payload) else {
        unreachable!("a decoded payload is always re-encodable");
    };
    let Ok(back) = from_bytes::<mind_core::MindPayload>(&encoded) else {
        panic!("canonical re-encoding failed to decode");
    };
    let Ok(again) = to_bytes(&back) else {
        unreachable!("a decoded payload is always re-encodable");
    };
    assert_eq!(encoded, again, "canonical encoding is not a fixed point");
    assert_eq!(
        payload.wire_size(),
        encoded.len(),
        "wire_size diverges from the encoder"
    );
}

/// Fuzz entry point for the **full transport envelope**: arbitrary bytes
/// either fail to decode as the `(sender, OverlayMsg<MindPayload>)` pair
/// every [`crate::TcpHost`] frame carries, or decode to an envelope whose
/// re-encoding is a canonical fixed point (encode ∘ decode ∘ encode =
/// encode). For envelopes that carry an application payload, the payload's
/// advertised [`WireSize`](mind_types::WireSize) must equal its real
/// encoded length — the envelope's own `wire_size` is a deliberate
/// bandwidth-model approximation (flat per-variant overhead), so only the
/// inner payload is held to exactness.
///
/// Pure and deterministic — the in-tree fuzz target
/// (`fuzz/fuzz_targets/wire_decode.rs`) and the CI smoke run both drive
/// this function; corpus crashes replay as ordinary unit-test calls.
/// Panics only on an invariant violation, never on malformed input.
pub fn fuzz_wire_decode(data: &[u8]) {
    use mind_types::WireSize;
    type Envelope = (
        mind_types::NodeId,
        mind_overlay::OverlayMsg<mind_core::MindPayload>,
    );

    let Ok(envelope) = from_bytes::<Envelope>(data) else {
        return;
    };
    let Ok(encoded) = to_bytes(&envelope) else {
        unreachable!("a decoded envelope is always re-encodable");
    };
    let Ok(back) = from_bytes::<Envelope>(&encoded) else {
        panic!("canonical re-encoding failed to decode");
    };
    let Ok(again) = to_bytes(&back) else {
        unreachable!("a decoded envelope is always re-encodable");
    };
    assert_eq!(encoded, again, "canonical encoding is not a fixed point");

    use mind_overlay::OverlayMsg;
    if let OverlayMsg::Route { payload, .. }
    | OverlayMsg::Flood { payload, .. }
    | OverlayMsg::Direct { payload } = &envelope.1
    {
        let Ok(inner) = to_bytes(payload) else {
            unreachable!("a decoded payload is always re-encodable");
        };
        assert_eq!(
            payload.wire_size(),
            inner.len(),
            "payload wire_size diverges from the encoder"
        );
    }
}

struct De<'de> {
    buf: &'de [u8],
}

impl<'de> De<'de> {
    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            Err(WireError(format!(
                "need {n} bytes, have {}",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }
    fn take_len(&mut self) -> Result<usize, WireError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le() as usize)
    }
    fn take_slice(&mut self, n: usize) -> Result<&'de [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError(format!(
                "need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }
}

macro_rules! de_num {
    ($method:ident, $visit:ident, $get:ident, $n:expr) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
            self.need($n)?;
            let v = self.buf.$get();
            visitor.$visit(v)
        }
    };
}

impl<'de> serde::Deserializer<'de> for &mut De<'de> {
    type Error = WireError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError("format is not self-describing".into()))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.need(1)?;
        match self.buf.get_u8() {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(WireError(format!("invalid bool byte {b}"))),
        }
    }

    de_num!(deserialize_i8, visit_i8, get_i8, 1);
    de_num!(deserialize_i16, visit_i16, get_i16_le, 2);
    de_num!(deserialize_i32, visit_i32, get_i32_le, 4);
    de_num!(deserialize_i64, visit_i64, get_i64_le, 8);
    de_num!(deserialize_u8, visit_u8, get_u8, 1);
    de_num!(deserialize_u16, visit_u16, get_u16_le, 2);
    de_num!(deserialize_u32, visit_u32, get_u32_le, 4);
    de_num!(deserialize_u64, visit_u64, get_u64_le, 8);
    de_num!(deserialize_f32, visit_f32, get_f32_le, 4);
    de_num!(deserialize_f64, visit_f64, get_f64_le, 8);

    fn deserialize_i128<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError("i128 unsupported".into()))
    }
    fn deserialize_u128<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError("u128 unsupported".into()))
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.need(4)?;
        let c = char::from_u32(self.buf.get_u32_le())
            .ok_or_else(|| WireError("invalid char".into()))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let n = self.take_len()?;
        let s = std::str::from_utf8(self.take_slice(n)?)
            .map_err(|e| WireError(format!("invalid utf8: {e}")))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let n = self.take_len()?;
        visitor.visit_borrowed_bytes(self.take_slice(n)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.need(1)?;
        match self.buf.get_u8() {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(WireError(format!("invalid option tag {b}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let n = self.take_len()?;
        visitor.visit_seq(Counted { de: self, left: n })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let n = self.take_len()?;
        visitor.visit_map(Counted { de: self, left: n })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(Counted {
            de: self,
            left: fields.len(),
        })
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_enum(Enum { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError("identifiers are positional".into()))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError("cannot skip unknown fields".into()))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'a, 'de> {
    de: &'a mut De<'de>,
    left: usize,
}

impl<'a, 'de> SeqAccess<'de> for Counted<'a, 'de> {
    type Error = WireError;
    fn next_element_seed<T: serde::de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'a, 'de> MapAccess<'de> for Counted<'a, 'de> {
    type Error = WireError;
    fn next_key_seed<K: serde::de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn next_value_seed<V: serde::de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, WireError> {
        seed.deserialize(&mut *self.de)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct Enum<'a, 'de> {
    de: &'a mut De<'de>,
}

impl<'a, 'de> EnumAccess<'de> for Enum<'a, 'de> {
    type Error = WireError;
    type Variant = Self;
    fn variant_seed<V: serde::de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), WireError> {
        self.de.need(4)?;
        let idx = self.de.buf.get_u32_le();
        let v = seed.deserialize(idx.into_deserializer())?;
        Ok((v, self))
    }
}

impl<'a, 'de> VariantAccess<'de> for Enum<'a, 'de> {
    type Error = WireError;
    fn unit_variant(self) -> Result<(), WireError> {
        Ok(())
    }
    fn newtype_variant_seed<T: serde::de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, WireError> {
        seed.deserialize(self.de)
    }
    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_seq(Counted {
            de: self.de,
            left: len,
        })
    }
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(Counted {
            de: self.de,
            left: fields.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::HashMap;
    use std::fmt;

    fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v).expect("serialize");
        let back: T = from_bytes(&bytes).expect("deserialize");
        assert_eq!(back, v);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    enum Sample {
        Unit,
        New(u64),
        Tuple(u8, String),
        Struct {
            a: Vec<u32>,
            b: Option<bool>,
            c: HashMap<u64, u64>,
        },
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(-5i64);
        roundtrip(u64::MAX);
        roundtrip(3.5f64);
        roundtrip(true);
        roundtrip("héllo".to_string());
        roundtrip(Option::<u32>::None);
        roundtrip(Some(42u32));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((1u8, "x".to_string(), vec![9u64]));
    }

    #[test]
    fn enums_roundtrip() {
        roundtrip(Sample::Unit);
        roundtrip(Sample::New(77));
        roundtrip(Sample::Tuple(3, "abc".into()));
        let mut m = HashMap::new();
        m.insert(5u64, 6u64);
        roundtrip(Sample::Struct {
            a: vec![1, 2],
            b: Some(false),
            c: m,
        });
    }

    #[test]
    fn mind_messages_roundtrip() {
        use mind_core::MindPayload;
        use mind_overlay::OverlayMsg;
        use mind_types::{BitCode, NodeId, Record};

        let msg: OverlayMsg<MindPayload> = OverlayMsg::Route {
            target: BitCode::parse("010110").unwrap(),
            hops: 3,
            payload: MindPayload::Insert {
                index: "index-1".into(),
                version: 2,
                record: Record::new(vec![1, 2, 3, 4, 5]),
                origin: NodeId(7),
                sent_at: 123_456,
                op_id: 99,
                horizon: 42,
            },
        };
        let bytes = to_bytes(&msg).unwrap();
        let back: OverlayMsg<MindPayload> = from_bytes(&bytes).unwrap();
        match back {
            OverlayMsg::Route {
                target,
                hops,
                payload:
                    MindPayload::Insert {
                        index,
                        version,
                        record,
                        origin,
                        sent_at,
                        op_id,
                        horizon,
                    },
            } => {
                assert_eq!(target.to_string(), "010110");
                assert_eq!(hops, 3);
                assert_eq!(index, "index-1");
                assert_eq!(version, 2);
                assert_eq!(record.values(), &[1, 2, 3, 4, 5]);
                assert_eq!(origin, NodeId(7));
                assert_eq!(sent_at, 123_456);
                assert_eq!(op_id, 99);
                assert_eq!(horizon, 42);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn cut_tree_roundtrips() {
        use mind_histogram::CutTree;
        use mind_types::HyperRect;
        let bounds = HyperRect::new(vec![0, 0], vec![1023, 1023]);
        let pts: Vec<Vec<u64>> = (0..50).map(|i| vec![i * 7 % 1024, i * 13 % 1024]).collect();
        let refs: Vec<&[u64]> = pts.iter().map(|p| p.as_slice()).collect();
        let tree = CutTree::balanced_from_points(bounds, 6, &refs);
        let bytes = to_bytes(&tree).unwrap();
        let back: CutTree = from_bytes(&bytes).unwrap();
        assert_eq!(back, tree);
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&"hello".to_string()).unwrap();
        let r: Result<String, _> = from_bytes(&bytes[..3]);
        assert!(r.is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0);
        let r: Result<u32, _> = from_bytes(&bytes);
        assert!(r.is_err());
    }
}
