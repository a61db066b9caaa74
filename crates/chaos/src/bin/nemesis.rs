//! Replayable chaos runs from the command line:
//!
//! ```text
//! cargo run -p gdb-chaos --bin nemesis -- --seed 7 --duration 10s
//! cargo run -p gdb-chaos --bin nemesis -- --plan primary-failover
//! ```
//!
//! The same `--seed` always produces the identical fault schedule, event
//! interleaving, and trace. Exits non-zero if any invariant was violated.

use gdb_chaos::plan::canned;
use gdb_chaos::{run_nemesis, run_plan, ChaosConfig, ChaosReport};
use gdb_obs::{flag_value, parse_duration, BenchArtifact, BenchSeries, Gate, NetStats};
use gdb_simnet::SimDuration;
use std::process::ExitCode;

/// Encode one run as a `gdb-bench/v1` artifact (figure `nemesis`).
fn to_artifact(report: &ChaosReport, seed: u64) -> BenchArtifact {
    let mut art = BenchArtifact::new("nemesis");
    art.gates.push(Gate::Figure);
    art.config_kv("seed", seed);
    art.config_kv("plan", &report.plan_name);
    art.config_kv("duration_s", report.duration.as_secs_f64());
    art.config_kv("violations", report.violations.len());
    let c = |n: &str| report.metrics.counter(n).unwrap_or(0);
    let secs = report.duration.as_secs_f64().max(1e-9);
    art.series.push(BenchSeries {
        label: report.plan_name.clone(),
        throughput_txn_s: report.txns_committed as f64 / secs,
        tpmc: 0.0,
        commits: report.txns_committed,
        aborts: report.txns_aborted,
        latency: report.latency.clone(),
        phases: report
            .metrics
            .metrics
            .iter()
            .filter_map(|(name, m)| {
                let rest = name.strip_prefix(gdb_txnmgr::metrics::PHASE_PREFIX)?;
                match m {
                    globaldb::Metric::Histogram(h) => {
                        Some((rest.trim_end_matches("_us").to_string(), h.clone()))
                    }
                    _ => None,
                }
            })
            .collect(),
        net: NetStats {
            wire_bytes: c(gdb_replication::metrics::SHIP_WIRE_BYTES),
            raw_bytes: c(gdb_replication::metrics::SHIP_RAW_BYTES),
            batches: c(gdb_replication::metrics::SHIP_BATCHES),
            cross_region_msgs: c(gdb_simnet::metrics::CROSS_REGION_MSGS),
            cross_region_bytes: c(gdb_simnet::metrics::CROSS_REGION_BYTES),
        },
        metrics: report.metrics.clone(),
    });
    art
}

fn usage() -> ! {
    eprintln!(
        "usage: nemesis [--seed N] [--duration 60s|500ms] [--plan NAME] [--json PATH] \
         [--overlap] [--migrations] [--elastic]\n\
         plans: {}",
        canned::all()
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Reject typos up front: every flag must be one we know, and value
    // flags must have their value.
    let value_flags = ["--seed", "--duration", "--plan", "--json"];
    let bool_flags = ["--overlap", "--migrations", "--elastic"];
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            if args.get(i + 1).is_none() {
                usage();
            }
            i += 2;
        } else if bool_flags.contains(&a) {
            i += 1;
        } else {
            usage();
        }
    }

    let seed: u64 = match flag_value(&args, "--seed") {
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
        None => 1,
    };
    let duration = match flag_value(&args, "--duration") {
        Some(v) => parse_duration(v).unwrap_or_else(|| usage()),
        None => SimDuration::from_secs(3),
    };
    let plan_name = flag_value(&args, "--plan").map(str::to_string);
    let json_path = flag_value(&args, "--json").map(str::to_string);
    let overlap = args.iter().any(|a| a == "--overlap");
    let migrations = args.iter().any(|a| a == "--migrations");
    let elastic = args.iter().any(|a| a == "--elastic");

    let mut cfg = ChaosConfig::quick(seed);
    cfg.duration = duration;
    cfg.overlap = overlap;
    cfg.migrations = migrations;
    cfg.elastic = elastic;

    let report = match plan_name {
        Some(name) => match canned::by_name(&name) {
            Some(plan) => run_plan(plan, &cfg),
            None => usage(),
        },
        None => run_nemesis(seed, &cfg),
    };

    print!("{}", report.render());
    if let Some(path) = json_path {
        let art = to_artifact(&report, seed);
        std::fs::write(&path, art.to_pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
