//! Pins `MindPayload::wire_size` — the simulator's bandwidth model —
//! against the wire encoder, for **every** payload kind. What can drift is
//! the insert plane's hand-computed arithmetic (`insert_header_size`,
//! `records_size`, `Record::wire_size`, shared between
//! `Insert`/`InsertBatch` and `Replica`/`ReplicaBatch` so batching
//! amortization is measured honestly); every other kind is counted by the
//! same encoder that produces the bytes, and is here so a variant moved
//! onto hand arithmetic later is already covered.
//!
//! The `variant_name` match is deliberately wildcard-free: adding a
//! `MindPayload` variant fails this file at compile time until the new
//! kind is added to the sample list below.

use mind_core::messages::IndexDef;
use mind_core::{CarriedFilter, MindPayload, Replication, Trigger};
use mind_histogram::{CutTree, GridHistogram};
use mind_net::wire;
use mind_types::{AttrDef, AttrKind, BitCode, HyperRect, IndexSchema, NodeId, Record};

fn schema() -> IndexSchema {
    IndexSchema::new(
        "exact",
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, 1 << 16),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400),
            AttrDef::new("dst_port", AttrKind::Generic, 0, 65_535),
        ],
        2,
    )
}

fn cuts() -> std::sync::Arc<CutTree> {
    std::sync::Arc::new(CutTree::even(schema().bounds(), 4))
}

fn hist() -> GridHistogram {
    let mut h = GridHistogram::new(HyperRect::new(vec![0, 0], vec![256, 256]), 16);
    h.add(&[3, 200]);
    h.add(&[77, 19]);
    h
}

fn trigger() -> Trigger {
    Trigger {
        trigger_id: 9,
        index: "exact".into(),
        rect: HyperRect::new(vec![0, 0], vec![10, 10]),
        filters: vec![CarriedFilter {
            attr: 2,
            lo: 80,
            hi: 443,
        }],
        origin: NodeId(3),
    }
}

fn records(n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new(vec![i, i * 7, i * 13]))
        .collect()
}

/// Names a variant with no wildcard arm: a new `MindPayload` variant
/// breaks this function (and therefore this test file) at compile time,
/// forcing its sample — and so its size accounting — to be added here.
fn variant_name(p: &MindPayload) -> &'static str {
    match p {
        MindPayload::CreateIndex { .. } => "CreateIndex",
        MindPayload::NewVersion { .. } => "NewVersion",
        MindPayload::DropIndex { .. } => "DropIndex",
        MindPayload::Insert { .. } => "Insert",
        MindPayload::InsertBatch { .. } => "InsertBatch",
        MindPayload::Replica { .. } => "Replica",
        MindPayload::ReplicaBatch { .. } => "ReplicaBatch",
        MindPayload::Ack { .. } => "Ack",
        MindPayload::RootQuery { .. } => "RootQuery",
        MindPayload::SubQuery { .. } => "SubQuery",
        MindPayload::QueryPlan { .. } => "QueryPlan",
        MindPayload::QueryResponse { .. } => "QueryResponse",
        MindPayload::CreateTrigger { .. } => "CreateTrigger",
        MindPayload::DropTrigger { .. } => "DropTrigger",
        MindPayload::TriggerFired { .. } => "TriggerFired",
        MindPayload::CatalogRequest => "CatalogRequest",
        MindPayload::CatalogDigest { .. } => "CatalogDigest",
        MindPayload::CatalogResponse { .. } => "CatalogResponse",
        MindPayload::HandoffScan { .. } => "HandoffScan",
        MindPayload::HandoffRecords { .. } => "HandoffRecords",
        MindPayload::HistReport { .. } => "HistReport",
    }
}

/// A `SubQuery` naming the given region codes.
fn subquery(codes: &[&str]) -> MindPayload {
    MindPayload::SubQuery {
        query_id: 5,
        index: "exact".into(),
        version: 1,
        codes: codes.iter().map(|c| BitCode::parse(c).unwrap()).collect(),
        rect: HyperRect::new(vec![0, 0], vec![100, 100]),
        filters: vec![],
        origin: NodeId(1),
    }
}

/// A `QueryResponse` answering each `(code, row count)`.
fn response(answers: Vec<(&str, u64)>) -> MindPayload {
    MindPayload::QueryResponse {
        query_id: 5,
        version: 1,
        responder: NodeId(6),
        answers: answers
            .into_iter()
            .map(|(c, n)| (BitCode::parse(c).unwrap(), records(n)))
            .collect(),
    }
}

/// Representative (non-degenerate) samples of every payload kind; the
/// two multi-region kinds also at 0, 1 and many regions, with empty and
/// non-empty answers.
fn samples() -> Vec<MindPayload> {
    vec![
        MindPayload::CreateIndex {
            schema: schema(),
            cuts: cuts(),
            replication: Replication::Level(1),
        },
        MindPayload::NewVersion {
            index: "exact".into(),
            version: 3,
            from_ts: 86_400,
            cuts: cuts(),
        },
        MindPayload::DropIndex {
            index: "exact".into(),
        },
        MindPayload::Insert {
            index: "exact".into(),
            version: 2,
            record: Record::new(vec![1, 2, 3]),
            origin: NodeId(7),
            sent_at: 123_456,
            op_id: (7 << 24) | 99,
            horizon: 42,
        },
        MindPayload::InsertBatch {
            index: "exact".into(),
            version: 2,
            records: records(5),
            origin: NodeId(7),
            sent_at: 123_456,
            op_id: (7 << 24) | 100,
            horizon: 42,
        },
        MindPayload::Replica {
            index: "exact".into(),
            version: 2,
            record: Record::new(vec![4, 5, 6]),
            op_id: (2 << 24) | 11,
            horizon: 8,
        },
        MindPayload::ReplicaBatch {
            index: "exact".into(),
            version: 2,
            records: records(4),
            op_id: (2 << 24) | 12,
            horizon: 8,
        },
        MindPayload::Ack {
            op_id: (7 << 24) | 99,
        },
        MindPayload::RootQuery {
            query_id: 5,
            index: "exact".into(),
            version: 1,
            rect: HyperRect::new(vec![0, 0], vec![100, 100]),
            filters: vec![CarriedFilter {
                attr: 2,
                lo: 1,
                hi: 2,
            }],
            origin: NodeId(1),
        },
        subquery(&[]),
        subquery(&["0101"]),
        subquery(&["0100", "01010", "01011", "011"]),
        MindPayload::QueryPlan {
            query_id: 5,
            version: 1,
            codes: vec![BitCode::parse("01").unwrap(), BitCode::parse("10").unwrap()],
            replaces: Some(BitCode::parse("0").unwrap()),
        },
        response(vec![]),
        response(vec![("01", 0)]),
        response(vec![("01", 3)]),
        response(vec![("0100", 2), ("01010", 0), ("011", 5)]),
        MindPayload::CreateTrigger { trigger: trigger() },
        MindPayload::DropTrigger { trigger_id: 9 },
        MindPayload::TriggerFired {
            trigger_id: 9,
            at: NodeId(4),
            record: Record::new(vec![5, 5, 100]),
        },
        MindPayload::CatalogRequest,
        MindPayload::CatalogDigest {
            digest: 0xDEAD_BEEF_CAFE_F00D,
        },
        MindPayload::CatalogResponse {
            indexes: vec![IndexDef {
                schema: schema(),
                replication: Replication::Full,
                versions: vec![(0, cuts()), (86_400, cuts())],
            }],
            triggers: vec![trigger()],
        },
        MindPayload::HandoffScan {
            handoff_id: 2,
            index: "exact".into(),
            version: 0,
            code: BitCode::parse("11").unwrap(),
            rect: HyperRect::new(vec![0, 0], vec![50, 50]),
            filters: vec![],
        },
        MindPayload::HandoffRecords {
            handoff_id: 2,
            records: records(2),
        },
        MindPayload::HistReport {
            index: "exact".into(),
            day: 1,
            reporter: NodeId(9),
            hist: hist(),
        },
    ]
}

#[test]
fn wire_size_is_exact_for_every_payload_kind() {
    use mind_types::WireSize;

    let samples = samples();
    // Every kind is represented (the compile-time guard in
    // `variant_name` only helps if the sample actually exists).
    let mut names: Vec<&str> = samples.iter().map(variant_name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 21, "a payload kind is missing from samples()");

    for p in &samples {
        let encoded = wire::to_bytes(p).unwrap();
        assert_eq!(
            p.wire_size(),
            encoded.len(),
            "{}: wire_size diverges from the encoder",
            variant_name(p)
        );
    }
}

#[test]
fn batch_framing_amortizes_per_record_overhead() {
    use mind_types::WireSize;

    // One InsertBatch of n records must cost exactly one header more
    // than the bare record bytes, while n single Inserts pay the header
    // n times — the arithmetic the ingest fast path banks on.
    let n = 64u64;
    let batch = MindPayload::InsertBatch {
        index: "exact".into(),
        version: 0,
        records: records(n),
        origin: NodeId(1),
        sent_at: 0,
        op_id: 1 << 24,
        horizon: 0,
    };
    let single = MindPayload::Insert {
        index: "exact".into(),
        version: 0,
        record: Record::new(vec![0, 0, 0]),
        origin: NodeId(1),
        sent_at: 0,
        op_id: 1 << 24,
        horizon: 0,
    };
    let record_bytes = Record::new(vec![0, 0, 0]).wire_size();
    let header = single.wire_size() - record_bytes;
    // The batch pays the header once plus a 4-byte count; n singles pay
    // it n times.
    assert_eq!(
        batch.wire_size() as u64,
        header as u64 + 4 + n * record_bytes as u64
    );
    // For 3-value records the header is ~1.6× the record itself, so the
    // batched frame is well under half the bytes of n singles.
    assert!(single.wire_size() as u64 * n > batch.wire_size() as u64 * 2);
}
