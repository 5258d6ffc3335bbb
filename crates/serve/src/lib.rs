//! # hydra-serve
//!
//! The first piece of the system that runs forever instead of to
//! completion: a long-running TCP server that boots the index zoo from
//! `hydra-persist` snapshot directories and answers k-NN requests through
//! a micro-batching queue, so the per-batch amortizations the offline
//! harness measures (one ADC codebook pass per batch in IMI, shared
//! scratch buffers in VA+file/SRS/QALSH) actually pay off in serving mode.
//!
//! Three design rules, each proven by a test layer:
//!
//! 1. **Boot-time validation, never query-time surprises** ([`boot`]):
//!    every snapshot is fully validated — container checksums, kind tag,
//!    build fingerprint against the registry's configuration, structural
//!    invariants — before the listener accepts its first connection. A bad
//!    directory aborts the boot with a typed error naming the file.
//! 2. **Batching amortizes work, never changes answers** ([`server`]):
//!    the batcher groups compatible queries (same index, same
//!    [`hydra::SearchKey`]) and issues one
//!    [`hydra::AnnIndex::search_batch`] call per group per tick; by that
//!    method's contract the served answers are bit-identical to offline
//!    per-query `search` calls — asserted zoo-wide against the offline
//!    runner in `tests/integration_serve.rs`.
//! 3. **No input can panic or hang the server** ([`protocol`]): the wire
//!    format reuses the snapshot codec primitives; every malformed frame —
//!    truncation, flipped magic/version/length, oversized declared
//!    lengths, unknown tags, trailing bytes — maps to a typed
//!    [`protocol::ProtocolError`] (fuzzed in `tests/serve_protocol.rs`),
//!    answered with one error response, and followed by a hangup of that
//!    connection only.
//!
//! Scale-out adds a fourth rule: **a routed answer is complete or it is a
//! typed error** ([`router`]). The router fans each query out to shard
//! workers over this same protocol, merges their top-k by (distance,
//! global id), and turns any worker failure — dead, stalled, or
//! babbling — into one [`protocol::ErrorCode::Unavailable`] response
//! within the per-worker timeout, never a hang and never a silently
//! partial answer.
//!
//! Both roles are one connection engine (`listener.rs`: accept, read
//! frames, meter the wire, the protocol-error contract, write responses,
//! tear down) with a different request handler plugged in; the threading
//! diagram for both is in [`server`].
//!
//! The `hydra-serve` binary (`src/main.rs`) wires these together behind a
//! small CLI; `hydra-bench`'s `serve_client` binary replays figure
//! workloads against it and emits the same CSV schema as `fig3`/`fig4`,
//! which is how CI diffs serving-path accuracy against the offline path.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod boot;
pub mod cli;
pub mod client;
mod listener;
pub mod protocol;
pub mod router;
pub mod server;

pub use boot::{
    boot_from_dir, boot_from_dir_with, BootError, BootOptions, BootReport, IndexLoad,
};
pub use hydra::persist::layout::dataset_for_index;
pub use client::ServeClient;
pub use hydra_obs::MetricsRegistry;
pub use router::{Router, RouterConfig, RouterHandle, RouterStats};
pub use protocol::{
    ErrorCode, IndexInfo, ProtocolError, Request, Response, ResponseBody, MAX_FRAME_LEN, MAX_K,
    PROTOCOL_VERSION, REQUEST_MAGIC, RESPONSE_MAGIC,
};
pub use server::{Reloader, ServedIndex, Server, ServerConfig, ServerHandle, ServerStats};
