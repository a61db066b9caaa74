//! Shared-nothing MVCC storage engine (one instance per data node).
//!
//! GaussDB data nodes host horizontal portions of tables selected by the
//! distribution key (paper §II-A) and use multi-version concurrency control
//! for visibility checking. This crate implements:
//!
//! * [`table::Table`] — a B-tree keyed heap of version chains with
//!   timestamp-based snapshot visibility (the paper's R.1/R.2 rules reduce
//!   to `commit_ts ≤ snapshot_ts` once timestamps are assigned correctly).
//!   Each version also carries the *virtual time* its commit completed, so
//!   the simulation can model readers waiting on in-flight commits.
//! * [`lock::LockTable`] — row write locks with virtual-time release,
//!   giving PostgreSQL-style read-committed update semantics (writers wait
//!   for the current holder, then update the latest committed version).
//! * [`catalog::Catalog`] — table/index metadata, shared by CNs and DNs.
//! * [`engine::DataNodeStorage`] — the per-DN facade combining all of the
//!   above, plus secondary index maintenance.

pub mod catalog;
pub mod engine;
pub mod lock;
pub mod reference;
pub mod table;

pub use catalog::Catalog;
pub use engine::DataNodeStorage;
pub use lock::{LockOutcome, LockTable};
pub use table::{Table, Version, VisibleRow};

/// Metric names exported by the storage layer.
pub mod metrics {
    /// Per-shard gauge prefix: allocator bytes pinned by the shard
    /// primary's version arenas. Full name `{prefix}.s{shard}`.
    pub const ARENA_RESIDENT_BYTES_PREFIX: &str = "storage.arena_resident_bytes";
    /// Shard storages (primary or replica) compacted under arena memory
    /// pressure: `arena_soft_limit_bytes` exceeded at a vacuum tick.
    pub const PRESSURE_COMPACTIONS: &str = "storage.pressure_compactions";

    /// The per-shard arena footprint gauge name.
    pub fn arena_resident_bytes_gauge(shard: usize) -> String {
        format!("{ARENA_RESIDENT_BYTES_PREFIX}.s{shard}")
    }
}

#[cfg(test)]
mod tests {
    /// Dashboards and the scale bench key on these names.
    #[test]
    fn metric_names_are_frozen() {
        assert_eq!(
            super::metrics::arena_resident_bytes_gauge(3),
            "storage.arena_resident_bytes.s3"
        );
        assert_eq!(
            super::metrics::PRESSURE_COMPACTIONS,
            "storage.pressure_compactions"
        );
    }
}
