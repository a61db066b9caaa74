//! Metric names owned by the transaction-management subsystem.
//!
//! Naming scheme: `subsystem.noun[_unit]` (see DESIGN.md "Observability").
//! The constants live here so recorders in `globaldb` and readers in
//! benches agree on spelling; the registry itself is in `gdb-obs`.

/// Transactions committed.
pub const COMMITTED: &str = "txnmgr.committed";
/// Transactions aborted.
pub const ABORTED: &str = "txnmgr.aborted";
/// Lock-wait events observed during execution.
pub const LOCK_WAITS: &str = "txnmgr.lock_waits";
/// Total virtual time spent in commit wait, microseconds.
pub const COMMIT_WAIT_TOTAL_US: &str = "txnmgr.commit_wait_total_us";

/// End-to-end committed-transaction latency histogram.
pub const LATENCY_US: &str = "txnmgr.latency_us";

/// Per-phase latency histograms. The five phases tile a transaction:
/// begin → snapshot acquire → execute → prepare → commit wait →
/// replication ack. Prepare / commit-wait / replication-ack are recorded
/// for write transactions only.
pub const PHASE_SNAPSHOT_US: &str = "txnmgr.phase.snapshot_acquire_us";
pub const PHASE_EXECUTE_US: &str = "txnmgr.phase.execute_us";
pub const PHASE_PREPARE_US: &str = "txnmgr.phase.prepare_us";
pub const PHASE_COMMIT_WAIT_US: &str = "txnmgr.phase.commit_wait_us";
pub const PHASE_REPLICATION_ACK_US: &str = "txnmgr.phase.replication_ack_us";

/// The prefix shared by all phase histograms; benches strip it to build
/// the `phases_us` artifact section.
pub const PHASE_PREFIX: &str = "txnmgr.phase.";

use gdb_obs::{CounterId, HistId, MetricsRegistry};

/// Pre-registered handles for the per-transaction hot path: the outcome
/// counters, the end-to-end latency histogram and the five phase
/// histograms recorded on every commit. Resolved once at cluster
/// construction; recording through them is a direct slot write (see
/// `gdb_obs::metrics`). The counters are listed in every snapshot, at 0
/// until their first event.
#[derive(Debug, Clone, Copy)]
pub struct TxnHandles {
    pub committed: CounterId,
    pub aborted: CounterId,
    pub lock_waits: CounterId,
    pub commit_wait_total_us: CounterId,
    pub latency_us: HistId,
    pub phase_snapshot_us: HistId,
    pub phase_execute_us: HistId,
    pub phase_prepare_us: HistId,
    pub phase_commit_wait_us: HistId,
    pub phase_replication_ack_us: HistId,
}

impl TxnHandles {
    pub fn register(m: &mut MetricsRegistry) -> Self {
        TxnHandles {
            committed: m.register_listed_counter(COMMITTED),
            aborted: m.register_listed_counter(ABORTED),
            lock_waits: m.register_listed_counter(LOCK_WAITS),
            commit_wait_total_us: m.register_listed_counter(COMMIT_WAIT_TOTAL_US),
            latency_us: m.register_histogram(LATENCY_US),
            phase_snapshot_us: m.register_histogram(PHASE_SNAPSHOT_US),
            phase_execute_us: m.register_histogram(PHASE_EXECUTE_US),
            phase_prepare_us: m.register_histogram(PHASE_PREPARE_US),
            phase_commit_wait_us: m.register_histogram(PHASE_COMMIT_WAIT_US),
            phase_replication_ack_us: m.register_histogram(PHASE_REPLICATION_ACK_US),
        }
    }
}
