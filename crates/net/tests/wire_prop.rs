//! Property tests for the wire format: arbitrary MIND messages round-trip
//! bit-exactly, and corrupted frames never panic.

use mind_core::wire_len::serialized_len;
use mind_core::{CarriedFilter, MindPayload, Replication};
use mind_histogram::{CutTree, GridHistogram};
use mind_net::{from_bytes, to_bytes};
use mind_overlay::OverlayMsg;
use mind_types::{AttrDef, AttrKind, BitCode, HyperRect, IndexSchema, NodeId, Record};
use proptest::prelude::*;

fn arb_code() -> impl Strategy<Value = BitCode> {
    (any::<u64>(), 0u8..=64).prop_map(|(bits, len)| BitCode::from_raw(bits, len))
}

fn arb_rect() -> impl Strategy<Value = HyperRect> {
    prop::collection::vec((any::<u64>(), any::<u64>()), 1..5).prop_map(|axes| {
        let lo = axes.iter().map(|&(a, b)| a.min(b)).collect();
        let hi = axes.iter().map(|&(a, b)| a.max(b)).collect();
        HyperRect::new(lo, hi)
    })
}

fn arb_record() -> impl Strategy<Value = Record> {
    prop::collection::vec(any::<u64>(), 1..8).prop_map(Record::new)
}

fn arb_filters() -> impl Strategy<Value = Vec<CarriedFilter>> {
    prop::collection::vec(
        (0usize..8, any::<u64>(), any::<u64>()).prop_map(|(attr, a, b)| CarriedFilter {
            attr,
            lo: a.min(b),
            hi: a.max(b),
        }),
        0..3,
    )
}

fn arb_schema() -> impl Strategy<Value = IndexSchema> {
    ("[a-z]{1,12}", 1usize..5).prop_map(|(tag, dims)| {
        let attrs = (0..dims + 1)
            .map(|i| AttrDef::new(format!("a{i}"), AttrKind::Generic, 0, u64::MAX))
            .collect();
        IndexSchema::new(tag, attrs, dims)
    })
}

fn arb_payload() -> impl Strategy<Value = MindPayload> {
    let insert = (
        "[a-z]{1,10}",
        any::<u32>(),
        arb_record(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(index, version, record, origin, sent_at, op_id, horizon)| MindPayload::Insert {
                index,
                version,
                record,
                origin: NodeId(origin),
                sent_at,
                op_id,
                horizon,
            },
        );
    let subquery = (
        any::<u64>(),
        "[a-z]{1,10}",
        any::<u32>(),
        prop::collection::vec(arb_code(), 0..40),
        arb_rect(),
        arb_filters(),
        any::<u32>(),
    )
        .prop_map(|(query_id, index, version, codes, rect, filters, origin)| {
            MindPayload::SubQuery {
                query_id,
                index,
                version,
                codes,
                rect,
                filters,
                origin: NodeId(origin),
            }
        });
    let response = (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(
            (arb_code(), prop::collection::vec(arb_record(), 0..6)),
            0..12,
        ),
    )
        .prop_map(
            |(query_id, version, responder, answers)| MindPayload::QueryResponse {
                query_id,
                version,
                responder: NodeId(responder),
                answers,
            },
        );
    let create = (arb_schema(), 0u8..4).prop_map(|(schema, r)| {
        let cuts = std::sync::Arc::new(CutTree::even(schema.bounds(), 6));
        MindPayload::CreateIndex {
            schema,
            cuts,
            replication: match r {
                0 => Replication::None,
                1 => Replication::Level(1),
                2 => Replication::Level(3),
                _ => Replication::Full,
            },
        }
    });
    let plan = (
        any::<u64>(),
        any::<u32>(),
        prop::collection::vec(arb_code(), 0..8),
        prop::option::of(arb_code()),
    )
        .prop_map(
            |(query_id, version, codes, replaces)| MindPayload::QueryPlan {
                query_id,
                version,
                codes,
                replaces,
            },
        );
    prop_oneof![insert, subquery, response, create, plan]
}

fn arb_msg() -> impl Strategy<Value = OverlayMsg<MindPayload>> {
    prop_oneof![
        (arb_code(), any::<u32>(), arb_payload()).prop_map(|(target, hops, payload)| {
            OverlayMsg::Route {
                target,
                hops,
                payload,
            }
        }),
        (any::<u64>(), arb_payload())
            .prop_map(|(flood_id, payload)| OverlayMsg::Flood { flood_id, payload }),
        arb_payload().prop_map(|payload| OverlayMsg::Direct { payload }),
        arb_code().prop_map(|code| OverlayMsg::Heartbeat { code }),
        (
            any::<u64>(),
            arb_code(),
            any::<u8>(),
            any::<u32>(),
            any::<u8>()
        )
            .prop_map(
                |(probe_id, target, need_cpl, origin, ttl)| OverlayMsg::RingProbe {
                    probe_id,
                    target,
                    need_cpl,
                    origin: NodeId(origin),
                    ttl,
                }
            ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_messages_roundtrip(msg in arb_msg()) {
        let bytes = to_bytes(&msg).expect("encode");
        prop_assert_eq!(serialized_len(&msg), bytes.len(), "counting and buffering must agree");
        let back: OverlayMsg<MindPayload> = from_bytes(&bytes).expect("decode");
        // The enums don't implement PartialEq end-to-end (CutTree does, but
        // OverlayMsg intentionally stays lean); compare re-encodings.
        let bytes2 = to_bytes(&back).expect("re-encode");
        prop_assert_eq!(bytes, bytes2, "decode/encode must be a fixpoint");
    }

    #[test]
    fn prop_truncation_never_panics(msg in arb_msg(), cut in any::<prop::sample::Index>()) {
        let bytes = to_bytes(&msg).unwrap();
        if bytes.is_empty() {
            return Ok(());
        }
        let n = cut.index(bytes.len());
        let _ = from_bytes::<OverlayMsg<MindPayload>>(&bytes[..n]); // must not panic
    }

    #[test]
    fn prop_bitflips_never_panic(msg in arb_msg(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = to_bytes(&msg).unwrap();
        if bytes.is_empty() {
            return Ok(());
        }
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let _ = from_bytes::<OverlayMsg<MindPayload>>(&bytes); // must not panic
    }

    #[test]
    fn prop_histograms_roundtrip(points in prop::collection::vec((any::<u64>(), any::<u64>()), 0..100)) {
        let mut h = GridHistogram::new(HyperRect::full(2), 64);
        for (x, y) in points {
            h.add(&[x, y]);
        }
        let bytes = to_bytes(&h).unwrap();
        let back: GridHistogram = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, h);
    }
}
