//! Ablation — RCP freshness vs heartbeat / collection cadence
//! (paper §IV-A: heartbeats guarantee the max commit timestamp advances
//! even on idle replicas; the collector CN periodically recomputes and
//! distributes the RCP).
//!
//! Sweeps the heartbeat interval under the read-only TPC-C workload and
//! reports the RCP lag (how stale ROR snapshots are) and throughput.
//!
//! Regenerate with: `cargo run -p gdb-bench --release --bin ablation_rcp`

use gdb_bench::{print_table, rcp_lag_ms, tpcc_run, BenchParams};
use gdb_simnet::SimDuration;
use gdb_workloads::tpcc::TpccMix;
use globaldb::ClusterConfig;

fn main() {
    let params = BenchParams::from_env();
    let mut rows = Vec::new();
    for hb_ms in [5u64, 10, 50, 200, 1000] {
        let config = ClusterConfig {
            heartbeat_interval: SimDuration::from_millis(hb_ms),
            rcp_interval: SimDuration::from_millis((hb_ms / 2).max(5)),
            ..ClusterConfig::globaldb_three_city()
        };
        let (cluster, report) = tpcc_run(config, &params, TpccMix::read_only(), |wl| {
            wl.multi_shard_read_fraction = 0.5;
        });
        let metrics = &cluster.db.obs().metrics;
        let rounds = metrics.counter(gdb_consistency::metrics::RCP_ROUNDS);
        rows.push(vec![
            format!("{hb_ms} ms"),
            format!("{:.0}", report.throughput_per_sec()),
            format!("{:.1} ms", rcp_lag_ms(&cluster)),
            format!("{rounds}"),
            format!("{}", report.reads_on_replica),
        ]);
    }
    print_table(
        "Ablation — heartbeat cadence vs RCP freshness (read-only TPC-C)",
        &[
            "heartbeat",
            "txn/s (sim)",
            "RCP lag",
            "RCP rounds",
            "replica reads",
        ],
        &rows,
    );
    println!(
        "Expected: slower heartbeats ⇒ staler RCP snapshots (bounded \
         freshness knob); throughput is largely unaffected."
    );
}
