// analyze-as: crates/overlay/src/timer_token_good2.rs
pub const TOKEN_TAG: u64 = 0xA5 << 56;
pub const KIND_HEARTBEAT: u64 = 0;
pub const KIND_RING: u64 = 2;
// retrytimer is scoped to crates/core/src/: the name is free in another crate
pub const KIND_OP_RETRY: u64 = 3;
