//! Metric names owned by the read-on-replica router.

/// Reads served by a replica.
pub const READS_ON_REPLICA: &str = "router.reads_on_replica";
/// Reads served by the primary.
pub const READS_ON_PRIMARY: &str = "router.reads_on_primary";
/// ROR reads that fell back to the primary because the chosen replica
/// was blocked on a PENDING_COMMIT lock.
pub const REPLICA_BLOCKED_FALLBACKS: &str = "router.replica_blocked_fallbacks";
/// Skyline evaluations (one per routed read).
pub const SKYLINE_SELECTIONS: &str = "router.skyline.selections";
/// Skyline evaluations whose pick differed from the previous pick for
/// the same (CN, shard) — each of these is also recorded as a
/// `skyline_reselect` trace span.
pub const SKYLINE_RESELECTIONS: &str = "router.skyline.reselections";
/// Requests rejected because the submitting CN's cached route table
/// carried a stale routing epoch (the shard migrated under it). The
/// reject is retryable; the retry re-routes at the fresh epoch.
pub const STALE_ROUTE_REJECTS: &str = "router.stale_route_rejects";
/// ROR reads sent to the primary because no skyline candidate met the
/// transaction's freshness bound.
pub const ROR_REJECTED_FRESHNESS: &str = "router.ror_rejected_freshness";
/// ROR statements downgraded to primary reads because their tables
/// carry DDL the replicas have not replayed yet.
pub const ROR_REJECTED_DDL: &str = "router.ror_rejected_ddl";

use gdb_obs::{CounterId, MetricsRegistry};

/// Pre-registered handles for the per-routed-read hot path. The read
/// and stale-route counters are listed in every snapshot, at 0 until
/// their first event; the others appear once counted.
#[derive(Debug, Clone, Copy)]
pub struct RouterHandles {
    pub reads_on_replica: CounterId,
    pub reads_on_primary: CounterId,
    pub replica_blocked_fallbacks: CounterId,
    pub stale_route_rejects: CounterId,
    pub skyline_selections: CounterId,
    pub skyline_reselections: CounterId,
    pub ror_rejected_freshness: CounterId,
    pub ror_rejected_ddl: CounterId,
}

impl RouterHandles {
    pub fn register(m: &mut MetricsRegistry) -> Self {
        RouterHandles {
            reads_on_replica: m.register_listed_counter(READS_ON_REPLICA),
            reads_on_primary: m.register_listed_counter(READS_ON_PRIMARY),
            replica_blocked_fallbacks: m.register_listed_counter(REPLICA_BLOCKED_FALLBACKS),
            stale_route_rejects: m.register_listed_counter(STALE_ROUTE_REJECTS),
            skyline_selections: m.register_counter(SKYLINE_SELECTIONS),
            skyline_reselections: m.register_counter(SKYLINE_RESELECTIONS),
            ror_rejected_freshness: m.register_counter(ROR_REJECTED_FRESHNESS),
            ror_rejected_ddl: m.register_counter(ROR_REJECTED_DDL),
        }
    }
}
