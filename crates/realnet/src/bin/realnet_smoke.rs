//! Real-cluster smoke: a small TPC-C mix on a 3-node loopback cluster,
//! once per execution backend.
//!
//! * `sim` — the ordinary deterministic simulation (reference run,
//!   printed but not gated: its wall speed has no physical meaning);
//! * `thread` — one OS thread per silo, in-process channel delivery;
//! * `tcp` — one loopback-TCP listener per silo, framed sockets.
//!
//! Every run must commit transactions end-to-end and pass the
//! plane-vs-silo accounting cross-check (each charged message routed by
//! exactly one silo). The artifact's one gate is a throughput ratio over
//! the `thread` series as in-run baseline: the CI gate ratios `tcp /
//! thread` committed-txn throughput measured on this machine in this
//! process — never absolute numbers, which are machine-local. The floor
//! (0.02) only guards against collapse: real sockets are legitimately
//! slower than channels.
//!
//! Regenerate the blessed baseline with `scripts/regen_bench.sh` (or:
//! `cargo run --release -p gdb-realnet --bin realnet_smoke -- --json
//! BENCH_realnet.json`). Knobs: `GDB_BENCH_SCALE` (default `tiny`
//! here), `GDB_BENCH_SECS` (default 2), `GDB_BENCH_TERMINALS`
//! (default 8).

use gdb_bench::{artifact, emit_artifact, print_table, series_from_run, BenchParams};
use gdb_obs::{Gate, Quantity};
use gdb_realnet::{Backend, RealCluster, RealnetReport};
use gdb_simnet::SimDuration;
use gdb_workloads::driver::{run_workload, RunConfig, Workload};
use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};
use globaldb::ClusterConfig;
use std::time::Instant;

/// Like [`BenchParams::from_env`] but with smoke-sized defaults: the
/// point is exercising the transport, not generating load, and every
/// message here costs a real round trip.
fn smoke_params() -> BenchParams {
    let (scale, scale_name) = match std::env::var("GDB_BENCH_SCALE").as_deref() {
        Ok("small") => (TpccScale::small(), "small"),
        Ok("medium") => (TpccScale::medium(), "medium"),
        _ => (TpccScale::tiny(), "tiny"),
    };
    let secs: u64 = std::env::var("GDB_BENCH_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let terminals: usize = std::env::var("GDB_BENCH_TERMINALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
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

struct BackendRun {
    backend: Backend,
    wall: std::time::Duration,
    commits: u64,
    aborts: u64,
    virtual_txn_s: f64,
    real: RealnetReport,
    series: gdb_obs::BenchSeries,
}

impl BackendRun {
    /// Committed transactions per *wall-clock* second (the gated metric).
    fn wall_txn_s(&self) -> f64 {
        self.commits as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn run_backend(backend: Backend, params: &BenchParams) -> BackendRun {
    eprintln!("realnet_smoke: running {} backend...", backend.label());
    let mut rc = RealCluster::launch(ClusterConfig::globaldb_three_city(), backend);
    let mut wl = TpccWorkload::new(params.scale, TpccMix::standard(), params.seed);
    wl.setup(&mut rc.cluster).expect("tpcc setup");
    let start = Instant::now();
    let report = run_workload(&mut rc.cluster, &mut wl, params.run);
    let wall = start.elapsed();
    let real = rc.shutdown();
    real.verify_against_plane(rc.cluster.db.plane())
        .expect("plane/silo accounting must agree");
    let commits = report.total_commits();
    assert!(
        commits > 0,
        "{} backend committed nothing — the cluster is not executing",
        backend.label()
    );
    let mut series = series_from_run(backend.label(), &mut rc.cluster, &report);
    let run = BackendRun {
        backend,
        wall,
        commits,
        aborts: report.total_aborts(),
        virtual_txn_s: report.throughput_per_sec(),
        real,
        series: {
            // The artifact is wall-clock: the gated throughput field holds
            // committed txn per wall second, not virtual-time txn/s.
            series.throughput_txn_s = commits as f64 / wall.as_secs_f64().max(1e-9);
            series
        },
    };
    eprintln!(
        "realnet_smoke: {} done — {} commits in {:.2}s wall ({} msgs physically routed)",
        backend.label(),
        commits,
        wall.as_secs_f64(),
        run.real.msgs
    );
    run
}

fn row(r: &BackendRun) -> Vec<String> {
    let routed = if r.backend == Backend::Sim {
        "-".to_string()
    } else {
        format!("{}", r.real.msgs)
    };
    vec![
        r.backend.label().into(),
        format!("{}", r.commits),
        format!("{}", r.aborts),
        format!("{:.2}", r.wall.as_secs_f64()),
        format!("{:.0}", r.wall_txn_s()),
        format!("{:.0}", r.virtual_txn_s),
        routed,
    ]
}

fn main() {
    let params = smoke_params();
    eprintln!(
        "realnet_smoke: {} scale, {:.0} virtual s, {} terminals",
        params.scale_name,
        params.run.duration.as_secs_f64(),
        params.run.terminals
    );

    let sim = run_backend(Backend::Sim, &params);
    let thread = run_backend(Backend::Thread, &params);
    let tcp = run_backend(Backend::Tcp, &params);

    // The same deterministic workload ran on all three backends; the
    // real ones must have routed every silo's share of it.
    for r in [&thread, &tcp] {
        assert_eq!(r.real.silos.len(), 3, "three silos on the 3-node cluster");
        assert!(r.real.msgs > 0);
    }

    print_table(
        "realnet smoke: TPC-C on three execution backends",
        &[
            "backend",
            "commits",
            "aborts",
            "wall s",
            "commit/s (wall)",
            "txn/s (virtual)",
            "msgs routed",
        ],
        &[row(&sim), row(&thread), row(&tcp)],
    );
    for r in [&thread, &tcp] {
        let per_silo: Vec<String> = r
            .real
            .silos
            .iter()
            .map(|s| format!("host{}={}m/{}b", s.host, s.msgs, s.bytes))
            .collect();
        println!(
            "{} silo tallies: {}",
            r.backend.label(),
            per_silo.join("  ")
        );
    }
    println!(
        "tcp/thread wall throughput ratio: {:.3}",
        tcp.wall_txn_s() / thread.wall_txn_s().max(1e-9)
    );

    // Artifact: thread + tcp only. The sim series' wall speed would gate
    // a meaningless ratio (simulation does no physical work per message).
    let mut a = artifact("realnet_smoke", &params);
    // Wall-clock throughput is machine-local: gate only the in-run
    // ratio, not the helper's figure gate.
    a.gates = vec![Gate::Ratio {
        of: Quantity::Throughput,
        baseline: "thread".into(),
        floor: 0.02,
    }];
    a.series.push(thread.series);
    a.series.push(tcp.series);
    emit_artifact(&a);
}
