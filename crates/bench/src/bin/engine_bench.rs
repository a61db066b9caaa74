//! Wall-clock engine benchmark: how many simulation events per second
//! does the event engine actually execute on this machine?
//!
//! Every other artifact in the repo measures *virtual* time — perfect for
//! reproducibility, blind to real engine cost. This binary times two
//! things for real:
//!
//! 1. **Event storm** — a fixed-seed, self-replicating storm of
//!    short-delay events runs through the optimized engine (timing
//!    wheel, typed events, handle-based metrics) and, identically,
//!    through the frozen pre-optimization engine
//!    ([`gdb_simnet::reference::HeapSim`]: one `BinaryHeap` of boxed
//!    closures with string-keyed metrics). Both engines execute the
//!    exact same event sequence; the wall-clock ratio is the engine
//!    speedup, re-measured on every machine.
//! 2. **Cluster workload** — a tiny TPC-C run, reporting the end-to-end
//!    events/sec the full simulator sustains (informational).
//!
//! The `engine` artifact's one gate is a throughput ratio: the CI gate
//! (`benchcmp check BENCH_engine.json ...`) compares only the *speedup*
//! of `fast` over `legacy` (generous slack + absolute floor 1.2×), never
//! the machine-local absolute numbers. `engine_cluster` has no gates.
//!
//! Regenerate the baseline with `scripts/regen_bench.sh` (or directly:
//! `cargo run --release -p gdb-bench --bin engine_bench -- --json
//! BENCH_engine.json`). Knob: `GDB_ENGINE_EVENTS` (default 2,000,000).

use gdb_bench::{json_out_path, print_table, tpcc_run, BenchParams};
use gdb_obs::{
    bundle, BenchArtifact, BenchSeries, CounterId, Gate, HistId, HistSummary, MetricsRegistry,
    NetStats, Quantity,
};
use gdb_simnet::reference::HeapSim;
use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::{Sim, SimDuration, SimTime, TypedEvent};
use gdb_workloads::driver::RunConfig;
use gdb_workloads::tpcc::{TpccMix, TpccScale};
use globaldb::ClusterConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---- Counting allocator ---------------------------------------------------
// Counts every heap allocation so the artifact records how many the storm
// costs per engine (the wheel's arena reuse vs one box per closure).

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

// ---- The event storm ------------------------------------------------------
// A self-replicating storm: each tick records one counter bump and one
// histogram observation (the hot per-event metrics cost), then schedules
// 1-2 children while the budget lasts. Delays are drawn so the wheel
// exercises all three levels: mostly near-future buckets, some at-cursor
// inserts, a few far-future heap spills. Both engines run the identical
// seed, so they draw the identical delay sequence and execute the
// identical event set.

struct Storm {
    rng: SmallRng,
    /// Events still allowed to be scheduled (budget, counted at
    /// schedule time so both engines stop at the same total).
    budget: u64,
    fired: u64,
    metrics: MetricsRegistry,
    /// Handle-path instruments (fast engine only).
    ticks: CounterId,
    delay_us: HistId,
}

const STORM_TICKS: &str = "engine.storm.ticks";
const STORM_DELAY_US: &str = "engine.storm.delay_us";

impl Storm {
    fn new(seed: u64, budget: u64) -> Self {
        let mut metrics = MetricsRegistry::default();
        let ticks = metrics.register_counter(STORM_TICKS);
        let delay_us = metrics.register_histogram(STORM_DELAY_US);
        Storm {
            rng: SmallRng::seed_from_u64(seed),
            budget,
            fired: 0,
            metrics,
            ticks,
            delay_us,
        }
    }

    /// Draw the children of one tick: up to two delays, mostly short
    /// (near buckets), sometimes sub-slot (cursor heap), rarely beyond
    /// the wheel window (far heap).
    fn child_delays(&mut self, out: &mut [SimDuration; 2]) -> usize {
        let fanout = if self.rng.gen_bool(0.55) { 2 } else { 1 };
        let mut n = 0;
        for slot in out.iter_mut().take(fanout) {
            if self.budget == 0 {
                break;
            }
            self.budget -= 1;
            let roll = self.rng.gen_range(0u32..100);
            let nanos = if roll < 80 {
                // Near future: lands in the wheel's bucket ring.
                self.rng.gen_range(300_000u64..8_000_000)
            } else if roll < 96 {
                // Sub-slot: at/before the cursor slot (fine-order heap).
                self.rng.gen_range(0u64..200_000)
            } else {
                // Beyond the ~134 ms wheel window: far-future heap.
                self.rng.gen_range(150_000_000u64..600_000_000)
            };
            *slot = SimDuration::from_nanos(nanos);
            n += 1;
        }
        n
    }
}

enum StormEvent {
    Tick { delay: SimDuration },
}

impl TypedEvent<Storm> for StormEvent {
    fn fire(self, w: &mut Storm, sim: &mut Sim<Storm, StormEvent>) {
        let StormEvent::Tick { delay } = self;
        w.fired += 1;
        w.metrics.bump(w.ticks);
        w.metrics.record(w.delay_us, delay);
        let mut delays = [SimDuration::ZERO; 2];
        let n = w.child_delays(&mut delays);
        for &d in &delays[..n] {
            sim.schedule_event_after(d, StormEvent::Tick { delay: d });
        }
    }
}

/// The same tick on the frozen engine: boxed closure + string metrics.
fn legacy_tick(w: &mut Storm, sim: &mut HeapSim<Storm>, delay: SimDuration) {
    w.fired += 1;
    w.metrics.count(STORM_TICKS, 1);
    w.metrics.observe(STORM_DELAY_US, delay);
    let mut delays = [SimDuration::ZERO; 2];
    let n = w.child_delays(&mut delays);
    for &d in &delays[..n] {
        sim.schedule_after(d, move |w, sim| legacy_tick(w, sim, d));
    }
}

/// Initial seeding shared by both engines: `SEEDS` staggered root ticks.
const SEEDS: u64 = 64;
const STORM_SEED: u64 = 42;

struct StormResult {
    fired: u64,
    wall: std::time::Duration,
    allocs: u64,
    alloc_bytes: u64,
    final_now: SimTime,
}

fn run_fast_storm(total_events: u64) -> StormResult {
    let mut world = Storm::new(STORM_SEED, total_events - SEEDS);
    let mut sim: Sim<Storm, StormEvent> = Sim::new();
    for i in 0..SEEDS {
        sim.schedule_event_at(
            SimTime::from_micros(i * 37),
            StormEvent::Tick {
                delay: SimDuration::ZERO,
            },
        );
    }
    let (a0, b0) = alloc_counts();
    let start = Instant::now();
    sim.run_to_completion(&mut world, u64::MAX);
    let wall = start.elapsed();
    let (a1, b1) = alloc_counts();
    assert_eq!(world.fired, total_events, "storm budget accounting");
    assert_eq!(sim.events_executed(), total_events);
    let snap = world.metrics.snapshot();
    assert_eq!(snap.counter(STORM_TICKS), Some(total_events));
    StormResult {
        fired: world.fired,
        wall,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        final_now: sim.now(),
    }
}

fn run_legacy_storm(total_events: u64) -> StormResult {
    let mut world = Storm::new(STORM_SEED, total_events - SEEDS);
    let mut sim: HeapSim<Storm> = HeapSim::new();
    for i in 0..SEEDS {
        sim.schedule_at(SimTime::from_micros(i * 37), |w, sim| {
            legacy_tick(w, sim, SimDuration::ZERO)
        });
    }
    let (a0, b0) = alloc_counts();
    let start = Instant::now();
    sim.run_to_completion(&mut world, u64::MAX);
    let wall = start.elapsed();
    let (a1, b1) = alloc_counts();
    assert_eq!(world.fired, total_events, "storm budget accounting");
    let snap = world.metrics.snapshot();
    assert_eq!(snap.counter(STORM_TICKS), Some(total_events));
    StormResult {
        fired: world.fired,
        wall,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        final_now: sim.now(),
    }
}

/// Best-of-N wall time: reruns absorb scheduler / cache warmup noise.
fn best_of<R>(
    rounds: u32,
    mut f: impl FnMut() -> R,
    wall: impl Fn(&R) -> std::time::Duration,
) -> R {
    let mut best = f();
    for _ in 1..rounds {
        let r = f();
        if wall(&r) < wall(&best) {
            best = r;
        }
    }
    best
}

/// One artifact series for a storm run: `throughput_txn_s` holds
/// events/sec (the quantity the speedup gate ratios); the metrics
/// snapshot carries the raw wall-clock and allocation numbers.
fn storm_series(label: &str, r: &StormResult) -> BenchSeries {
    let eps = r.fired as f64 / r.wall.as_secs_f64().max(1e-9);
    let mut m = MetricsRegistry::default();
    m.set_counter("engine.events", r.fired);
    m.set_counter("engine.wall_ms", r.wall.as_millis() as u64);
    m.gauge("engine.events_per_sec", eps);
    m.set_counter("engine.allocs", r.allocs);
    m.set_counter("engine.alloc_bytes", r.alloc_bytes);
    m.set_counter("engine.virtual_ms", r.final_now.as_nanos() / 1_000_000);
    BenchSeries {
        label: label.into(),
        throughput_txn_s: eps,
        tpmc: 0.0,
        commits: r.fired,
        aborts: 0,
        latency: HistSummary::of(&LatencyHistogram::bounded()),
        phases: Default::default(),
        net: NetStats::default(),
        metrics: m.snapshot(),
    }
}

fn main() {
    let total_events: u64 = std::env::var("GDB_ENGINE_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000)
        .max(SEEDS);

    eprintln!("engine_bench: {total_events} events per engine, best of 3 rounds");

    // Warmup round each (untimed), then best-of-3 measured.
    run_fast_storm(total_events);
    run_legacy_storm(total_events);
    let fast = best_of(3, || run_fast_storm(total_events), |r| r.wall);
    let legacy = best_of(3, || run_legacy_storm(total_events), |r| r.wall);
    assert_eq!(
        fast.final_now, legacy.final_now,
        "engines diverged: same seed must replay the same storm"
    );

    let eps = |r: &StormResult| r.fired as f64 / r.wall.as_secs_f64().max(1e-9);
    let speedup = eps(&fast) / eps(&legacy);

    let mut engine = BenchArtifact::new("engine");
    engine.gates.push(Gate::Ratio {
        of: Quantity::Throughput,
        baseline: "legacy".into(),
        floor: 1.2,
    });
    engine.config_kv("events", total_events);
    engine.config_kv("seed", STORM_SEED);
    engine.series.push(storm_series("fast", &fast));
    engine.series.push(storm_series("legacy", &legacy));

    // Cluster leg: a tiny TPC-C run, end-to-end events/sec of the full
    // simulator (informational — no in-run baseline, so never gated).
    let params = BenchParams {
        scale: TpccScale::tiny(),
        scale_name: "tiny",
        run: RunConfig {
            terminals: 8,
            duration: SimDuration::from_secs(2),
            warmup: SimDuration::from_secs(1),
            think_time: SimDuration::from_millis(10),
        },
        seed: 42,
    };
    let start = Instant::now();
    let (cluster, report) = tpcc_run(
        ClusterConfig::globaldb_three_city(),
        &params,
        TpccMix::standard(),
        |_| {},
    );
    let cluster_wall = start.elapsed();
    let cluster_events = cluster.sim.events_executed();
    let cluster_eps = cluster_events as f64 / cluster_wall.as_secs_f64().max(1e-9);
    let mut cm = MetricsRegistry::default();
    cm.set_counter("engine.events", cluster_events);
    cm.set_counter("engine.wall_ms", cluster_wall.as_millis() as u64);
    cm.gauge("engine.events_per_sec", cluster_eps);
    cm.gauge("workload.txn_s", report.throughput_per_sec());
    let mut engine_cluster = BenchArtifact::new("engine_cluster");
    engine_cluster.config_kv("scale", "tiny");
    engine_cluster.config_kv("seed", params.seed);
    engine_cluster.series.push(BenchSeries {
        label: "tpcc".into(),
        throughput_txn_s: cluster_eps,
        tpmc: report.tpmc(),
        commits: report.total_commits(),
        aborts: report.total_aborts(),
        latency: HistSummary::of(&LatencyHistogram::bounded()),
        phases: Default::default(),
        net: NetStats::default(),
        metrics: cm.snapshot(),
    });

    let meps = |r: &StormResult| format!("{:.2}M", eps(r) / 1e6);
    let per_event = |r: &StormResult| format!("{:.2}", r.allocs as f64 / r.fired as f64);
    print_table(
        "engine events/sec (wall clock)",
        &["engine", "events/s", "wall ms", "allocs/event"],
        &[
            vec![
                "fast (wheel+typed+handles)".into(),
                meps(&fast),
                format!("{:.1}", fast.wall.as_secs_f64() * 1e3),
                per_event(&fast),
            ],
            vec![
                "legacy (heap+boxed+strings)".into(),
                meps(&legacy),
                format!("{:.1}", legacy.wall.as_secs_f64() * 1e3),
                per_event(&legacy),
            ],
            vec![
                "cluster tpcc (end-to-end)".into(),
                format!("{:.2}M", cluster_eps / 1e6),
                format!("{:.1}", cluster_wall.as_secs_f64() * 1e3),
                "-".into(),
            ],
        ],
    );
    println!("engine speedup: {speedup:.2}x (fast over legacy, same storm)");

    if let Some(path) = json_out_path() {
        let doc = bundle(&[engine, engine_cluster]).to_pretty();
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}
