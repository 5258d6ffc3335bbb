//! The benchmark of the Lernaean Hydra reproduction: five named workloads,
//! six end-to-end metrics and a per-layer trace. See `README.md`.

#![warn(missing_docs)]

pub mod inputs;
pub mod json;
pub mod measure;
pub mod probes;
pub mod report;
pub mod run;
pub mod schema;
pub mod sut;
pub mod trace;
pub mod workloads;
