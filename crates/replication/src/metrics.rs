//! Metric names owned by the redo-replication subsystem.
//!
//! Shipping totals are recorded live at flush time (channels are replaced
//! on promote/rejoin, so their internal stats cannot be summed after the
//! fact).

/// Log-shipping batches sealed and sent.
pub const SHIP_BATCHES: &str = "replication.ship.batches";
/// Redo records shipped.
pub const SHIP_RECORDS: &str = "replication.ship.records";
/// Redo bytes before compression.
pub const SHIP_RAW_BYTES: &str = "replication.ship.raw_bytes";
/// Redo bytes on the wire (post-compression).
pub const SHIP_WIRE_BYTES: &str = "replication.ship.wire_bytes";
/// Seal-to-arrival latency of one shipped batch.
pub const SHIP_BATCH_US: &str = "replication.ship.batch_us";
/// Sealed redo records trimmed from shard shipping buffers once every
/// durable consumer (replica appliers, in-flight migrations) had
/// advanced past them.
pub const REDO_RECORDS_TRIMMED: &str = "replication.redo_records_trimmed";

/// Per-replica RCP lag gauge prefix: `<prefix>.s<shard>.r<replica>` is
/// how far (in µs of virtual time) the replica's replayed commit
/// timestamp trails the present — the freshness a DBA inspects before
/// redirecting read-only traffic (paper §IV).
pub const REPLICA_RCP_LAG_PREFIX: &str = "replication.replica_rcp_lag_us";
/// Per-replica log-ship backlog gauge prefix: `<prefix>.s<shard>.r<replica>`
/// is the number of sealed redo records the shipping channel has not yet
/// drained to the replica.
pub const REPLICA_BACKLOG_PREFIX: &str = "replication.replica_backlog_records";

/// Gauge name for one replica's RCP lag.
pub fn replica_rcp_lag_gauge(shard: usize, replica: usize) -> String {
    format!("{REPLICA_RCP_LAG_PREFIX}.s{shard}.r{replica}")
}

/// Gauge name for one replica's log-ship backlog.
pub fn replica_backlog_gauge(shard: usize, replica: usize) -> String {
    format!("{REPLICA_BACKLOG_PREFIX}.s{shard}.r{replica}")
}

use gdb_obs::{CounterId, HistId, MetricsRegistry};

/// Pre-registered handles for the per-batch shipping hot path (recorded
/// once per shipped batch at flush time) and for shipping-buffer trims.
#[derive(Debug, Clone, Copy)]
pub struct ShipHandles {
    pub batches: CounterId,
    pub records: CounterId,
    pub raw_bytes: CounterId,
    pub wire_bytes: CounterId,
    pub batch_us: HistId,
    pub records_trimmed: CounterId,
}

impl ShipHandles {
    pub fn register(m: &mut MetricsRegistry) -> Self {
        ShipHandles {
            batches: m.register_counter(SHIP_BATCHES),
            records: m.register_counter(SHIP_RECORDS),
            raw_bytes: m.register_counter(SHIP_RAW_BYTES),
            wire_bytes: m.register_counter(SHIP_WIRE_BYTES),
            batch_us: m.register_histogram(SHIP_BATCH_US),
            records_trimmed: m.register_counter(REDO_RECORDS_TRIMMED),
        }
    }
}
