//! Wall-clock transaction hot-path benchmark.
//!
//! Drives the identical fixed-seed write script through the live
//! primary→replica pipeline and the frozen pre-pass pipeline (see
//! [`gdb_bench::txnpath`]), asserting byte-identical durable segments
//! and identical committed state before reporting:
//!
//! * **speedup** — committed txns/sec, fast over legacy, gated in CI by
//!   `benchcmp check` as a machine-local *ratio* (never an absolute);
//! * **allocations per committed transaction** — measured by a counting
//!   global allocator; a second ratio gate over the
//!   `txn.allocs_per_txn` gauge enforces the lower-is-better allocation
//!   improvement (floor: 10× fewer).
//!
//! Regenerate the baseline with `scripts/regen_bench.sh` (or directly:
//! `cargo run --release -p gdb-bench --bin txn_bench -- --json
//! BENCH_txn.json`). Knobs: `GDB_TXN_TXNS` (default 60,000),
//! `GDB_TXN_WINDOW` (group-commit/ship window, default 64).

use gdb_bench::txnpath::{
    assert_equivalent, generate_script, run_fast, run_reference, Script, TxnPathResult,
};
use gdb_bench::{json_out_path, print_table};
use gdb_obs::{
    bundle, BenchArtifact, BenchSeries, Gate, HistSummary, MetricsRegistry, NetStats, Quantity,
};
use gdb_simnet::stats::LatencyHistogram;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// ---- Counting allocator ---------------------------------------------------
// Counts every heap allocation so the gate can enforce the ≥10× reduction
// in allocations per committed transaction (pooled rows + borrowed decode
// vs clones + owned decode). Counts are deterministic per build, making
// this leg far less noisy than the wall-clock leg.

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

const SCRIPT_SEED: u64 = 42;

struct Measured {
    result: TxnPathResult,
    allocs: u64,
    alloc_bytes: u64,
}

fn measure(f: impl Fn() -> TxnPathResult) -> Measured {
    let (a0, b0) = alloc_counts();
    let result = f();
    let (a1, b1) = alloc_counts();
    Measured {
        result,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// Best-of-N wall time: reruns absorb scheduler / cache warmup noise.
/// Allocation counts are kept from the same round as the winning wall
/// time so every series is one self-consistent run.
fn best_of(rounds: u32, f: impl Fn() -> Measured) -> Measured {
    let mut best = f();
    for _ in 1..rounds {
        let r = f();
        if r.result.wall < best.result.wall {
            best = r;
        }
    }
    best
}

fn txn_series(label: &str, m: &Measured) -> BenchSeries {
    let r = &m.result;
    let tps = r.committed as f64 / r.wall.as_secs_f64().max(1e-9);
    let per_txn = m.allocs as f64 / r.committed.max(1) as f64;
    let mut reg = MetricsRegistry::default();
    reg.set_counter("txn.committed", r.committed);
    reg.set_counter("txn.records", r.records);
    reg.set_counter("txn.wall_ms", r.wall.as_millis() as u64);
    reg.set_counter("txn.allocs", m.allocs);
    reg.set_counter("txn.alloc_bytes", m.alloc_bytes);
    reg.set_counter("txn.fsyncs", r.fsyncs);
    reg.set_counter("txn.synced_txns", r.synced_txns);
    reg.set_counter("txn.raw_bytes", r.raw_bytes);
    reg.set_counter("txn.wire_bytes", r.wire_bytes);
    reg.set_counter("txn.segment_bytes", r.segment_len as u64);
    reg.gauge("txn.txn_per_sec", tps);
    reg.gauge("txn.allocs_per_txn", per_txn);
    BenchSeries {
        label: label.into(),
        throughput_txn_s: tps,
        tpmc: 0.0,
        commits: r.committed,
        aborts: 0,
        latency: HistSummary::of(&LatencyHistogram::bounded()),
        phases: Default::default(),
        net: NetStats::default(),
        metrics: reg.snapshot(),
    }
}

fn main() {
    let txns: usize = std::env::var("GDB_TXN_TXNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000)
        .max(1);
    let window: usize = std::env::var("GDB_TXN_WINDOW")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
        .max(1);

    eprintln!("txn_bench: {txns} txns, ship window {window}, best of 3 rounds");
    let script: Script = generate_script(SCRIPT_SEED, txns);

    // Warmup round each (untimed), then best-of-3 measured.
    run_fast(&script, window);
    run_reference(&script, window);
    let fast = best_of(3, || measure(|| run_fast(&script, window)));
    let legacy = best_of(3, || measure(|| run_reference(&script, window)));

    // Differential gate: both pipelines must have written the identical
    // durable segment and committed the identical state.
    assert_equivalent(&fast.result, &legacy.result);

    let tps = |m: &Measured| m.result.committed as f64 / m.result.wall.as_secs_f64().max(1e-9);
    let speedup = tps(&fast) / tps(&legacy);
    let per_txn = |m: &Measured| m.allocs as f64 / m.result.committed.max(1) as f64;
    let alloc_improvement = per_txn(&legacy) / per_txn(&fast).max(1e-9);

    let mut txn = BenchArtifact::new("txn");
    // Gate floors: ≥1.5× wall-clock speedup, ≥10× fewer allocs/txn —
    // both ratios of in-run series, portable across machines.
    txn.gates = vec![
        Gate::Ratio {
            of: Quantity::Throughput,
            baseline: "legacy".into(),
            floor: 1.5,
        },
        Gate::Ratio {
            of: Quantity::Gauge("txn.allocs_per_txn".into()),
            baseline: "legacy".into(),
            floor: 10.0,
        },
    ];
    txn.config_kv("txns", txns);
    txn.config_kv("window", window);
    txn.config_kv("seed", SCRIPT_SEED);
    txn.config_kv("writes", script.writes());
    txn.series.push(txn_series("fast", &fast));
    txn.series.push(txn_series("legacy", &legacy));

    let ktps = |m: &Measured| format!("{:.0}k", tps(m) / 1e3);
    print_table(
        "txn hot path (wall clock, primary→replica)",
        &["path", "txn/s", "wall ms", "allocs/txn", "fsyncs"],
        &[
            vec![
                "fast (arena+group-commit+zero-copy)".into(),
                ktps(&fast),
                format!("{:.1}", fast.result.wall.as_secs_f64() * 1e3),
                format!("{:.2}", per_txn(&fast)),
                fast.result.fsyncs.to_string(),
            ],
            vec![
                "legacy (clones+per-txn-sync+owned decode)".into(),
                ktps(&legacy),
                format!("{:.1}", legacy.result.wall.as_secs_f64() * 1e3),
                format!("{:.2}", per_txn(&legacy)),
                legacy.result.fsyncs.to_string(),
            ],
        ],
    );
    println!("txn speedup: {speedup:.2}x, alloc improvement: {alloc_improvement:.1}x fewer/txn");

    if let Some(path) = json_out_path() {
        let doc = bundle(&[txn]).to_pretty();
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}
