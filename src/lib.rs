//! MIND — a distributed multi-dimensional index for wide-area network
//! monitoring.
//!
//! This is the façade crate of the workspace: it re-exports the public API
//! of every subsystem so that applications (and the `examples/`) can depend
//! on a single crate. See `README.md` for the architecture overview and
//! `DESIGN.md` for the paper-to-module map.
//!
//! ```
//! use mind::types::{AttrDef, AttrKind, IndexSchema};
//!
//! let schema = IndexSchema::new(
//!     "alpha-flows",
//!     vec![
//!         AttrDef::new("dst_prefix", AttrKind::IpPrefix, 0, u32::MAX as u64),
//!         AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400),
//!         AttrDef::new("octets", AttrKind::Octets, 0, 2 << 20),
//!     ],
//!     3,
//! );
//! assert_eq!(schema.bounds().dims(), 3);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub use mind_audit as audit;
pub use mind_baselines as baselines;
pub use mind_core as core;
pub use mind_histogram as histogram;
pub use mind_net as net;
pub use mind_netsim as netsim;
pub use mind_overlay as overlay;
pub use mind_store as store;
pub use mind_traffic as traffic;
pub use mind_types as types;
