//! Pre-registered metric handles: the engine counts every event once,
//! where it happens.
//!
//! One `HotMetrics` is resolved against the cluster's registry at
//! construction and stored on [`crate::cluster::GlobalDb`]; every record
//! site — per transaction, per read, per batch, per RCP round, per
//! migration step — indexes a `Vec` slot through it instead of doing a
//! string `BTreeMap` lookup. Each subsystem owns its handle struct next
//! to its metric names, so the "names live with the subsystem" rule from
//! DESIGN.md carries over to handles. Counters that every snapshot must
//! list (commits, aborts, reads by target, RCP rounds, migrations, …)
//! are registered listed, at 0 until their first event; the rest surface
//! once touched.
//!
//! Totals owned by a layer below `gdb-obs` are still mirrored at
//! snapshot time (`GlobalDb::sync_derived_metrics`): the routing epoch,
//! per-shard load, arena gauges, topology totals and
//! [`crate::net::MessagePlane::mirror_metrics`], whose hot path already
//! accumulates into per-`RpcKind` arrays. Storage sits below `gdb-obs`
//! too, so its one counter handle is registered here.

use gdb_obs::{CounterId, MetricsRegistry};

/// Every hot-path handle, grouped by owning subsystem.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotMetrics {
    pub txn: gdb_txnmgr::metrics::TxnHandles,
    pub ship: gdb_replication::metrics::ShipHandles,
    pub rcp: gdb_consistency::metrics::RcpHandles,
    pub router: gdb_router::metrics::RouterHandles,
    pub migrate: crate::migrate::metrics::MigrateHandles,
    pub pressure_compactions: CounterId,
}

impl HotMetrics {
    pub fn register(m: &mut MetricsRegistry) -> Self {
        HotMetrics {
            txn: gdb_txnmgr::metrics::TxnHandles::register(m),
            ship: gdb_replication::metrics::ShipHandles::register(m),
            rcp: gdb_consistency::metrics::RcpHandles::register(m),
            router: gdb_router::metrics::RouterHandles::register(m),
            migrate: crate::migrate::metrics::MigrateHandles::register(m),
            pressure_compactions: m.register_counter(gdb_storage::metrics::PRESSURE_COMPACTIONS),
        }
    }
}
