//! Shared harness for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one figure of the paper's
//! evaluation (§V, Fig. 1a and Fig. 6a–d) or one ablation. Absolute
//! numbers are simulated (the substrate is a deterministic virtual-time
//! cluster, not the authors' hardware); the *shape* — who wins, by what
//! factor, where the crossovers are — is the reproduction target.
//!
//! Environment knobs:
//! * `GDB_BENCH_SCALE` = `tiny` | `small` (default) | `medium`
//! * `GDB_BENCH_SECS`  = measured virtual seconds (default 10)
//! * `GDB_BENCH_TERMINALS` = closed-loop terminals (default 24)

pub mod txnpath;

use gdb_obs::{BenchArtifact, BenchSeries, Gate, HistSummary, NetStats};
use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::SimDuration;
use gdb_workloads::driver::{run_workload, RunConfig, Workload};
use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};
use gdb_workloads::WorkloadReport;
use globaldb::{Cluster, ClusterConfig, Metric};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Scale/duration parameters shared by the binaries.
#[derive(Debug, Clone, Copy)]
pub struct BenchParams {
    pub scale: TpccScale,
    /// The resolved `GDB_BENCH_SCALE` name (recorded in artifacts).
    pub scale_name: &'static str,
    pub run: RunConfig,
    pub seed: u64,
}

impl BenchParams {
    /// Read from the environment (defaults: small scale, 10 virtual s).
    pub fn from_env() -> Self {
        let (scale, scale_name) = match std::env::var("GDB_BENCH_SCALE").as_deref() {
            Ok("tiny") => (TpccScale::tiny(), "tiny"),
            Ok("medium") => (TpccScale::medium(), "medium"),
            _ => (TpccScale::small(), "small"),
        };
        let secs: u64 = std::env::var("GDB_BENCH_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10);
        let terminals: usize = std::env::var("GDB_BENCH_TERMINALS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(24);
        BenchParams {
            scale,
            scale_name,
            run: RunConfig {
                terminals,
                duration: SimDuration::from_secs(secs),
                warmup: SimDuration::from_secs(1),
                think_time: SimDuration::from_millis(10),
            },
            seed: 42,
        }
    }
}

/// Build a cluster, load TPC-C, run the mix, and return the report.
pub fn tpcc_run(
    config: ClusterConfig,
    params: &BenchParams,
    mix: TpccMix,
    tweak: impl FnOnce(&mut TpccWorkload),
) -> (Cluster, WorkloadReport) {
    tpcc_run_with(config, params, mix, tweak, |_| {})
}

/// [`tpcc_run`] with a pre-load cluster hook (e.g. enabling the span
/// tracer for a `--trace` export). The hook must not perturb virtual
/// time or the topology RNG, or the run diverges from its untraced twin.
pub fn tpcc_run_with(
    config: ClusterConfig,
    params: &BenchParams,
    mix: TpccMix,
    tweak: impl FnOnce(&mut TpccWorkload),
    prep: impl FnOnce(&mut Cluster),
) -> (Cluster, WorkloadReport) {
    let mut cluster = Cluster::new(config);
    prep(&mut cluster);
    let mut wl = TpccWorkload::new(params.scale, mix, params.seed);
    tweak(&mut wl);
    wl.setup(&mut cluster).expect("tpcc setup");
    let report = run_workload(&mut cluster, &mut wl, params.run);
    (cluster, report)
}

/// Print an aligned results table (one figure per binary, paper-style).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    println!();
}

/// Format a throughput relative to a baseline ("3.2x").
pub fn ratio(value: f64, base: f64) -> String {
    if base <= 0.0 {
        "n/a".into()
    } else {
        format!("{:.2}x", value / base)
    }
}

/// The path given by `--json <path>` on the binary's command line.
pub fn json_out_path() -> Option<PathBuf> {
    gdb_obs::cli_path("--json")
}

/// The path given by `--trace <path>`: where to write a Chrome
/// trace-event JSON of the instrumented run's span tree.
pub fn trace_out_path() -> Option<PathBuf> {
    gdb_obs::cli_path("--trace")
}

/// Start a `gdb-bench/v1` artifact for one figure, recording the run
/// configuration (scale, virtual seconds, terminals, seed) and gated by
/// [`Gate::Figure`]: deterministic virtual-time throughput and phases.
pub fn artifact(figure: &str, params: &BenchParams) -> BenchArtifact {
    let mut a = BenchArtifact::new(figure);
    a.gates.push(Gate::Figure);
    a.config_kv("scale", params.scale_name);
    a.config_kv("secs", params.run.duration.as_secs_f64());
    a.config_kv("terminals", params.run.terminals);
    a.config_kv("seed", params.seed);
    a
}

/// Build one artifact series from a finished run: workload-window
/// throughput/latency plus the cluster's full metrics snapshot, with the
/// per-phase breakdown (`txnmgr.phase.*`) and network totals lifted into
/// their schema fields.
pub fn series_from_run(
    label: impl Into<String>,
    cluster: &mut Cluster,
    report: &WorkloadReport,
) -> BenchSeries {
    let snap = cluster.metrics_snapshot();
    // Measured-window latency across all transaction types.
    let mut lat = LatencyHistogram::bounded();
    for h in report.latency.values() {
        lat.merge(h);
    }
    let mut phases = BTreeMap::new();
    for (name, m) in &snap.metrics {
        if let (Some(rest), Metric::Histogram(h)) =
            (name.strip_prefix(gdb_txnmgr::metrics::PHASE_PREFIX), m)
        {
            phases.insert(rest.trim_end_matches("_us").to_string(), h.clone());
        }
    }
    let c = |n: &str| snap.counter(n).unwrap_or(0);
    let net = NetStats {
        wire_bytes: c(gdb_replication::metrics::SHIP_WIRE_BYTES),
        raw_bytes: c(gdb_replication::metrics::SHIP_RAW_BYTES),
        batches: c(gdb_replication::metrics::SHIP_BATCHES),
        cross_region_msgs: c(gdb_simnet::metrics::CROSS_REGION_MSGS),
        cross_region_bytes: c(gdb_simnet::metrics::CROSS_REGION_BYTES),
    };
    BenchSeries {
        label: label.into(),
        throughput_txn_s: report.throughput_per_sec(),
        tpmc: report.tpmc(),
        commits: report.total_commits(),
        aborts: report.total_aborts(),
        latency: HistSummary::of(&lat),
        phases,
        net,
        metrics: snap,
    }
}

/// Write the artifact to the `--json` path, if one was given.
pub fn emit_artifact(a: &BenchArtifact) {
    if let Some(path) = json_out_path() {
        std::fs::write(&path, a.to_pretty())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

/// Mean RCP lag across regions in milliseconds (freshness metric).
pub fn rcp_lag_ms(cluster: &Cluster) -> f64 {
    let now_us = cluster.now().as_micros() as f64;
    let regions = cluster.db.rcp_calculators().len().max(1) as f64;
    let total: f64 = cluster
        .db
        .rcp_calculators()
        .iter()
        .map(|r| (now_us - r.current().as_micros() as f64).max(0.0))
        .sum();
    total / regions / 1_000.0
}
