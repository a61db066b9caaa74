//! Metric names owned by the replica-consistency subsystem (RCP).

/// RCP rounds completed (collect + finish).
pub const RCP_ROUNDS: &str = "consistency.rcp.rounds";
/// Two-phase rounds abandoned (collector died mid-round).
pub const RCP_ROUNDS_ABANDONED: &str = "consistency.rcp.rounds_abandoned";
/// Collector-CN leadership failovers.
pub const COLLECTOR_FAILOVERS: &str = "consistency.collector_failovers";
/// Collect-to-finish latency of one RCP round.
pub const RCP_ROUND_US: &str = "consistency.rcp.round_us";
/// Liveness heartbeats sent.
pub const HEARTBEATS_SENT: &str = "consistency.heartbeats_sent";
/// Old tuple versions reclaimed by vacuum.
pub const VERSIONS_VACUUMED: &str = "consistency.versions_vacuumed";

use gdb_obs::{CounterId, HistId, MetricsRegistry};

/// Pre-registered handles for the RCP rounds and the background services
/// beside them (heartbeats, vacuum). The counters are listed in every
/// snapshot, at 0 until their first event.
#[derive(Debug, Clone, Copy)]
pub struct RcpHandles {
    pub rounds: CounterId,
    pub rounds_abandoned: CounterId,
    pub collector_failovers: CounterId,
    pub heartbeats_sent: CounterId,
    pub versions_vacuumed: CounterId,
    pub round_us: HistId,
}

impl RcpHandles {
    pub fn register(m: &mut MetricsRegistry) -> Self {
        RcpHandles {
            rounds: m.register_listed_counter(RCP_ROUNDS),
            rounds_abandoned: m.register_listed_counter(RCP_ROUNDS_ABANDONED),
            collector_failovers: m.register_listed_counter(COLLECTOR_FAILOVERS),
            heartbeats_sent: m.register_listed_counter(HEARTBEATS_SENT),
            versions_vacuumed: m.register_listed_counter(VERSIONS_VACUUMED),
            round_us: m.register_histogram(RCP_ROUND_US),
        }
    }
}
