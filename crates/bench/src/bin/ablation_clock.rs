//! Ablation — commit-wait cost vs clock quality (paper §III).
//!
//! The GClock commit wait is `≈ T_err = T_sync + T_drift`. Sweeping the
//! clock-sync round trip (the paper's hardware achieves ≤ 60 µs) shows how
//! timestamp-oracle quality turns into commit latency — the reason the
//! paper deploys GPS/atomic time devices rather than NTP (whose errors are
//! milliseconds, as in CockroachDB's HLC approach).
//!
//! Regenerate with: `cargo run -p gdb-bench --release --bin ablation_clock`

use gdb_bench::{print_table, tpcc_run, BenchParams};
use gdb_simclock::GClockConfig;
use gdb_simnet::SimDuration;
use gdb_workloads::tpcc::TpccMix;
use globaldb::ClusterConfig;

fn main() {
    let params = BenchParams::from_env();
    let sync_rtts_us = [10u64, 60, 500, 2_000, 10_000];
    let mut rows = Vec::new();
    for &rtt_us in &sync_rtts_us {
        let config = ClusterConfig {
            gclock: GClockConfig {
                sync_rtt: SimDuration::from_micros(rtt_us),
                ..GClockConfig::default()
            },
            ..ClusterConfig::globaldb_three_city()
        };
        let (cluster, report) = tpcc_run(config, &params, TpccMix::standard(), |wl| {
            wl.set_all_local();
        });
        // Both totals span the cluster's whole life (load, warm-up and
        // window), so the mean is over the same committed transactions.
        let m = &cluster.db.obs().metrics;
        let commits = m.counter(gdb_txnmgr::metrics::COMMITTED).max(1);
        let mean_wait_us =
            m.counter(gdb_txnmgr::metrics::COMMIT_WAIT_TOTAL_US) as f64 / commits as f64;
        rows.push(vec![
            format!("{rtt_us} us"),
            format!("{:.0}", report.tpmc()),
            format!("{:.0} us", mean_wait_us),
            format!("{}", report.mean_latency("new_order")),
        ]);
    }
    print_table(
        "Ablation — clock sync quality vs commit wait (GClock, Three-City)",
        &[
            "sync RTT (T_sync)",
            "tpmC (sim)",
            "mean commit wait",
            "NewOrder mean",
        ],
        &rows,
    );
    println!(
        "Expected: commit wait tracks the clock error bound; NTP-grade \
         (ms) errors visibly tax every commit, the paper's 60 us device \
         does not."
    );
}
