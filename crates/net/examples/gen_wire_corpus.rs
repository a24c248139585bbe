//! Regenerates the committed seed corpus for the `wire_decode` fuzz
//! target (`fuzz/corpus/wire_decode/`):
//!
//! ```sh
//! cargo run -p mind-net --example gen_wire_corpus
//! ```
//!
//! Seeds cover the envelopes a `TcpHost` actually frames — a routed
//! insert, the three broadcasts (a flooded index creation, a takeover
//! announcement and a ring probe), a direct replica batch, and a bare
//! heartbeat — plus a truncated envelope and an out-of-range overlay
//! variant tag, so the smoke run always replays both the accept and the
//! reject paths.

use mind_core::{MindPayload, Replication};
use mind_histogram::CutTree;
use mind_net::wire;
use mind_overlay::{BroadcastId, OverlayMsg};
use mind_types::{AttrDef, AttrKind, BitCode, HyperRect, IndexSchema, NodeId, Record};
use std::fs;
use std::path::Path;

type Envelope = (NodeId, OverlayMsg<MindPayload>);

fn encode(e: &Envelope) -> Vec<u8> {
    wire::to_bytes(e).expect("encode")
}

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus/wire_decode");
    fs::create_dir_all(&dir).expect("create corpus dir");

    let routed_insert = encode(&(
        NodeId(2),
        OverlayMsg::Route {
            target: BitCode::parse("0110").unwrap(),
            hops: 2,
            payload: MindPayload::Insert {
                index: "flows".into(),
                version: 1,
                record: Record::new(vec![10, 20, 30]),
                origin: NodeId(2),
                sent_at: 99,
                op_id: (2 << 24) | 7,
                horizon: (1 << 24) | 3,
            },
        },
    ));

    let schema = IndexSchema::new(
        "flows",
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, 1023),
            AttrDef::new("t", AttrKind::Timestamp, 0, 86_399),
        ],
        2,
    );
    let bounds = HyperRect::new(vec![0, 0], vec![1023, 86_399]);
    // A process's boot epoch is its start time in wall-clock milliseconds.
    let id = |origin, seq| BroadcastId {
        origin: NodeId(origin),
        boot: 1_760_000_000_000,
        seq,
    };
    let flooded_create = encode(&(
        NodeId(0),
        OverlayMsg::Flood {
            id: id(0, 5),
            payload: MindPayload::CreateIndex {
                schema,
                cuts: std::sync::Arc::new(CutTree::even(bounds, 4)),
                replication: Replication::Level(1),
            },
        },
    ));

    let takeover_announce = encode(&(
        NodeId(4),
        OverlayMsg::TakeoverAnnounce {
            id: id(6, 2),
            new_code: BitCode::parse("01").unwrap(),
        },
    ));

    let ring_probe = encode(&(
        NodeId(1),
        OverlayMsg::RingProbe {
            id: id(0, 9),
            target: BitCode::parse("1101").unwrap(),
            need_cpl: 1,
            ttl: 2,
        },
    ));

    let direct_replicas = encode(&(
        NodeId(3),
        OverlayMsg::Direct {
            payload: MindPayload::ReplicaBatch {
                index: "flows".into(),
                version: 1,
                records: (0..4).map(|i| Record::new(vec![i, i * 3, i * 5])).collect(),
                op_id: (3 << 24) | 11,
                horizon: 9,
            },
        },
    ));

    let heartbeat = encode(&(
        NodeId(1),
        OverlayMsg::Heartbeat {
            code: BitCode::parse("10").unwrap(),
        },
    ));

    let truncated = routed_insert[..routed_insert.len() - 7].to_vec();
    // Sender id, then an overlay variant index far past the enum's arm
    // count: must reject cleanly.
    let mut bad_tag = 9u32.to_le_bytes().to_vec();
    bad_tag.extend_from_slice(&0xFFFF_FFF0u32.to_le_bytes());

    for (name, bytes) in [
        ("routed_insert.bin", &routed_insert),
        ("flooded_create.bin", &flooded_create),
        ("takeover_announce.bin", &takeover_announce),
        ("ring_probe.bin", &ring_probe),
        ("direct_replica_batch.bin", &direct_replicas),
        ("heartbeat.bin", &heartbeat),
        ("truncated_envelope.bin", &truncated),
        ("bad_variant_tag.bin", &bad_tag),
    ] {
        fs::write(dir.join(name), bytes).expect("write seed");
        println!("wrote {name}: {} bytes", bytes.len());
    }
}
