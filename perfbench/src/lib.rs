//! Whole-cluster benchmark for the GaussDB-Global reproduction.
//!
//! Drives the in-process simulated cluster (`globaldb::Cluster` on the
//! default sim transport) from one thread with closed-loop terminals in
//! virtual time, and reports wall-clock metrics (what a run of this
//! reproduction costs) and virtual-time metrics (what the paper's users
//! see). A traced run adds per-layer numbers. See `README.md` in this
//! directory for every metric, its unit, direction and layer.

pub mod percentile;
pub mod point_select;
pub mod report;
pub mod run;
pub mod trace;
