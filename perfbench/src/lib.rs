//! End-to-end and per-layer host-time benchmark of the HawkEye
//! simulator. `scenarios` defines the three workloads and runs one
//! iteration of each, `probe` holds the span decorators the traced
//! iterations install at the simulator's plug-in traits, and `layers`
//! times single crates outside the engine.

pub mod layers;
mod probe;
pub mod scenarios;
