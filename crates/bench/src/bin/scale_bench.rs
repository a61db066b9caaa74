//! Scale-out hot-path benchmark: 256 shards, 5 regions, 10⁵ terminals.
//!
//! Two artifacts in one `gdb-bench/v1` bundle:
//!
//! * **`scale`** (gated) — the routing fast path. A fixed-seed routing
//!   script (epoch checks, primary lookups, periodic nearest-shard
//!   picks, synchronized epoch bumps that force rebuilds) extracted
//!   from a real scale-tier cluster is driven through both routers:
//!   the flat [`RouteTable`] with shared-Zipf terminals and pooled
//!   scratch (*fast*) vs the frozen [`MapRouteTable`] map walk with
//!   per-terminal Zipf setup and per-op scratch allocation (*legacy*,
//!   the pre-table behavior). An FNV digest over every routing decision
//!   asserts the two made identical calls; two ratio gates then enforce
//!   the machine-local ops/s ratio (floor 2×) and the lower-is-better
//!   `workload.terminal_bytes` ratio (allocator bytes charged per
//!   terminal, floor 4×).
//! * **`scale_cluster`** (informational, no gates) — the same
//!   cluster runs the closed-loop TPC-C + Zipf-sysbench mix through the
//!   real storage path, reporting virtual throughput, counting-
//!   allocator peak footprint, and bytes per terminal.
//!
//! Knobs (defaults are the full scale tier; CI runs a reduced shape):
//! `GDB_SCALE_SHARDS` (256), `GDB_SCALE_REGIONS` (5),
//! `GDB_SCALE_TERMINALS` (100 000), `GDB_SCALE_KEYS` (2048),
//! `GDB_SCALE_EPOCHS` (8), `GDB_SCALE_OPS` (8 per terminal per epoch),
//! `GDB_SCALE_MOVES` (8 primaries per bump), `GDB_SCALE_CLUSTER_MS`
//! (1000 measured virtual ms), `GDB_SCALE_THINK_MS` (250).
//! Regenerate the baseline with `scripts/regen_bench.sh`.

use gdb_bench::{json_out_path, print_table, series_from_run};
use gdb_obs::{
    bundle, BenchArtifact, BenchSeries, Gate, HistSummary, MetricsRegistry, NetStats, Quantity,
};
use gdb_router::{MapRouteTable, RouteTable};
use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::{NetNodeId, SimDuration};
use gdb_workloads::driver::{run_workload, KeyDistribution, KeySampler, RunConfig, Workload};
use gdb_workloads::sysbench::{SysbenchMode, SysbenchScale, SysbenchWorkload};
use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};
use globaldb::{Cluster, ClusterConfig, GdbResult, SimTime, TxnOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// ---- Counting allocator with a live-bytes high-water mark -----------------
// Besides allocation counts/bytes (the per-terminal state leg), the scale
// tier cares about *peak footprint*: 10⁵ terminals must not pin unbounded
// heap. `dealloc` subtracts, so LIVE tracks resident bytes and PEAK their
// high-water mark.

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}

fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

const SEED: u64 = 42;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
        .max(1)
}

#[derive(Clone, Copy)]
struct Params {
    shards: usize,
    regions: usize,
    terminals: usize,
    keys: i64,
    epochs: usize,
    ops: usize,
    moves: usize,
    cluster_ms: u64,
    think_ms: u64,
}

impl Params {
    fn from_env() -> Self {
        Params {
            shards: env_usize("GDB_SCALE_SHARDS", 256),
            regions: env_usize("GDB_SCALE_REGIONS", 5),
            terminals: env_usize("GDB_SCALE_TERMINALS", 100_000),
            keys: env_usize("GDB_SCALE_KEYS", 2_048) as i64,
            epochs: env_usize("GDB_SCALE_EPOCHS", 8),
            ops: env_usize("GDB_SCALE_OPS", 8),
            moves: env_usize("GDB_SCALE_MOVES", 8),
            cluster_ms: env_usize("GDB_SCALE_CLUSTER_MS", 1_000) as u64,
            think_ms: env_usize("GDB_SCALE_THINK_MS", 250) as u64,
        }
    }
}

// ---- The routing script ---------------------------------------------------

/// Key → shard, the same pure hash both paths use.
#[inline]
fn shard_of(key: i64, shards: usize) -> usize {
    ((key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17) as usize % shards
}

/// FNV-1a fold of one routing decision.
#[inline]
fn fold(digest: u64, v: u64) -> u64 {
    (digest ^ v).wrapping_mul(0x1000_0000_01b3)
}

/// The frozen pre-cache Zipf terminal: recomputes the normalization
/// constants at construction — the O(keys) cost every terminal paid
/// before `zipf_constants` — and draws with the same Gray et al.
/// approximation, so its key sequence is bit-identical to the shared
/// sampler's.
struct LegacyZipf {
    n: i64,
    theta: f64,
    alpha: f64,
    eta: f64,
    zetan: f64,
}

impl LegacyZipf {
    fn new(n: i64, theta: f64) -> Self {
        let zeta = |n: i64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(n.min(2));
        LegacyZipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            zetan,
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> i64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let uz = u * self.zetan;
        if uz < 1.0 {
            1
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            2
        } else {
            let r = 1.0 + self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha);
            (r as i64).clamp(1, self.n)
        }
    }
}

/// One epoch bump of the script: the primaries that move and where to.
struct EpochBump {
    moves: Vec<(usize, NetNodeId)>,
}

/// Deterministic move schedule: each bump relocates `moves` primaries
/// onto other shards' (original) primary nodes — every target is a live
/// data node of the extracted topology.
fn synth_bumps(placement: &[(NetNodeId, u64)], p: &Params) -> Vec<EpochBump> {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x5ca1_eb0b);
    (0..p.epochs)
        .map(|_| EpochBump {
            moves: (0..p.moves.min(p.shards))
                .map(|_| {
                    let s = rng.gen_range(0..p.shards);
                    let donor = rng.gen_range(0..p.shards);
                    (s, placement[donor].0)
                })
                .collect(),
        })
        .collect()
}

struct RouteRun {
    ops: u64,
    stale: u64,
    digest: u64,
    wall: std::time::Duration,
    alloc_bytes: u64,
}

const ZIPF_THETA: f64 = 0.99;
/// Every Nth op also asks for the CN's nearest shard (the read-only
/// anchor pick) — the O(shards) scan of the legacy path.
const NEAREST_EVERY: usize = 16;

/// Drive the routing script through one router. `fast` selects the flat
/// table + shared sampler + pooled scratch; otherwise the frozen map
/// walk + per-terminal setup + per-op allocation.
fn run_routing(
    fast: bool,
    placement: &[(NetNodeId, u64)],
    cns: &[NetNodeId],
    rtt: &impl Fn(NetNodeId, NetNodeId) -> SimDuration,
    bumps: &[EpochBump],
    p: &Params,
) -> RouteRun {
    let bytes0 = alloc_bytes();
    let start = std::time::Instant::now();

    let mut placement = placement.to_vec();
    let mut version = 0u64;
    let mut flat = fast.then(|| RouteTable::build(version, &placement, cns, rtt));
    let mut map = (!fast).then(|| MapRouteTable::build(version, &placement, cns));

    // Terminal state. Fast: one shared sampler (cache-backed) and one
    // pooled scratch buffer. Legacy: every terminal rebuilds the Zipf
    // constants and allocates fresh per-op scratch.
    let shared =
        fast.then(|| KeySampler::new(KeyDistribution::Zipfian { theta: ZIPF_THETA }, p.keys));
    let legacy: Vec<LegacyZipf> = if fast {
        Vec::new()
    } else {
        (0..p.terminals)
            .map(|_| LegacyZipf::new(p.keys, ZIPF_THETA))
            .collect()
    };
    let mut rngs: Vec<SmallRng> = (0..p.terminals)
        .map(|t| SmallRng::seed_from_u64(SEED ^ (t as u64).wrapping_mul(0x9e3779b9)))
        .collect();
    let mut route_epoch = vec![0u64; p.terminals];
    let mut pooled: Vec<i64> = Vec::with_capacity(8);

    let mut ops = 0u64;
    let mut stale = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for bump in bumps {
        for t in 0..p.terminals {
            let rng = &mut rngs[t];
            for i in 0..p.ops {
                let key = match &shared {
                    Some(s) => s.sample(rng),
                    None => legacy[t].sample(rng),
                };
                let shard = shard_of(key, p.shards);
                let check = match (&flat, &map) {
                    (Some(f), _) => f.check_epoch(shard, route_epoch[t]),
                    (_, Some(m)) => m.check_epoch(shard, route_epoch[t]),
                    _ => unreachable!(),
                };
                let primary = match check {
                    Ok(node) => node,
                    Err(owner) => {
                        // One retryable stale-route reject: refresh the
                        // terminal's epoch and retry exactly once.
                        stale += 1;
                        digest = fold(digest, 0xdead ^ owner);
                        route_epoch[t] = version;
                        match (&flat, &map) {
                            (Some(f), _) => f.check_epoch(shard, route_epoch[t]),
                            (_, Some(m)) => m.check_epoch(shard, route_epoch[t]),
                            _ => unreachable!(),
                        }
                        .expect("retry at the current epoch must route")
                    }
                };
                if i % NEAREST_EVERY == 0 {
                    let cn = t % cns.len();
                    let near = match (&flat, &map) {
                        (Some(f), _) => f.nearest(cn),
                        (_, Some(m)) => m.nearest(cn, rtt),
                        _ => unreachable!(),
                    };
                    digest = fold(digest, near as u64);
                }
                // Per-op scratch: the fast path reuses one pooled
                // buffer; the legacy path allocates fresh, as the
                // pre-PR terminals did.
                if fast {
                    pooled.clear();
                    pooled.push(key);
                    pooled.push(primary.0 as i64);
                    std::hint::black_box(&pooled);
                } else {
                    let mut fresh: Vec<i64> = Vec::with_capacity(8);
                    fresh.push(key);
                    fresh.push(primary.0 as i64);
                    std::hint::black_box(&fresh);
                }
                digest = fold(digest, key as u64);
                digest = fold(digest, ((shard as u64) << 32) | primary.0 as u64);
                ops += 1;
            }
        }
        // Synchronized cutover: apply the batch, bump the epoch once,
        // rebuild whichever router is live.
        version += 1;
        for &(s, node) in &bump.moves {
            placement[s] = (node, version);
        }
        if let Some(f) = &mut flat {
            *f = RouteTable::build(version, &placement, cns, rtt);
        }
        if let Some(m) = &mut map {
            *m = MapRouteTable::build(version, &placement, cns);
        }
        digest = fold(digest, version);
    }

    RouteRun {
        ops,
        stale,
        digest,
        wall: start.elapsed(),
        alloc_bytes: alloc_bytes() - bytes0,
    }
}

fn best_of(rounds: u32, f: impl Fn() -> RouteRun) -> RouteRun {
    let mut best = f();
    for _ in 1..rounds {
        let r = f();
        if r.wall < best.wall {
            best = r;
        }
    }
    best
}

fn routing_series(label: &str, r: &RouteRun, p: &Params) -> BenchSeries {
    let ops_s = r.ops as f64 / r.wall.as_secs_f64().max(1e-9);
    let per_terminal = r.alloc_bytes as f64 / p.terminals as f64;
    let mut reg = MetricsRegistry::default();
    reg.set_counter("scale.routed_ops", r.ops);
    reg.set_counter("scale.stale_route_rejects", r.stale);
    reg.set_counter("scale.wall_ms", r.wall.as_millis() as u64);
    reg.set_counter("scale.alloc_bytes", r.alloc_bytes);
    reg.set_counter("scale.digest", r.digest);
    reg.gauge("scale.ops_per_sec", ops_s);
    reg.gauge(gdb_workloads::metrics::TERMINAL_BYTES, per_terminal);
    BenchSeries {
        label: label.into(),
        throughput_txn_s: ops_s,
        tpmc: 0.0,
        commits: r.ops,
        aborts: 0,
        latency: HistSummary::of(&LatencyHistogram::bounded()),
        phases: Default::default(),
        net: NetStats::default(),
        metrics: reg.snapshot(),
    }
}

// ---- The cluster leg ------------------------------------------------------

/// TPC-C on even terminals, Zipf-skewed sysbench point ops on odd ones —
/// the scale tier's mixed tenant population over one cluster.
struct MixWorkload {
    tpcc: TpccWorkload,
    sysbench: SysbenchWorkload,
}

impl Workload for MixWorkload {
    fn setup(&mut self, cluster: &mut Cluster) -> GdbResult<()> {
        self.tpcc.setup(cluster)?;
        self.sysbench.setup(cluster)
    }

    fn run_one(
        &mut self,
        cluster: &mut Cluster,
        terminal: usize,
        at: SimTime,
    ) -> (&'static str, GdbResult<TxnOutcome>) {
        if terminal.is_multiple_of(2) {
            self.tpcc.run_one(cluster, terminal / 2, at)
        } else {
            self.sysbench.run_one(cluster, terminal / 2, at)
        }
    }
}

fn main() {
    let p = Params::from_env();
    eprintln!(
        "scale_bench: {} shards, {} regions, {} terminals, {} keys, {} epochs x {} ops, best of 3",
        p.shards, p.regions, p.terminals, p.keys, p.epochs, p.ops
    );

    // One real scale-tier cluster: the routing script's placement and
    // RTT source, then the substrate for the workload leg.
    let mut cluster =
        Cluster::new(ClusterConfig::globaldb_scale(p.regions, p.shards).with_seed(SEED));
    let placement: Vec<(NetNodeId, u64)> = cluster
        .db
        .shards()
        .iter()
        .map(|s| (s.primary, s.owner_epoch))
        .collect();
    let cns: Vec<NetNodeId> = cluster.db.cns().iter().map(|c| c.node).collect();
    let bumps = synth_bumps(&placement, &p);

    let (fast, legacy) = {
        let topo = cluster.db.topo();
        let rtt = |a: NetNodeId, b: NetNodeId| topo.nominal_rtt(a, b);
        // Warmup (also primes the process-wide Zipf cache the fast path
        // is entitled to), then best-of-3 measured rounds.
        run_routing(true, &placement, &cns, &rtt, &bumps, &p);
        run_routing(false, &placement, &cns, &rtt, &bumps, &p);
        (
            best_of(3, || run_routing(true, &placement, &cns, &rtt, &bumps, &p)),
            best_of(3, || run_routing(false, &placement, &cns, &rtt, &bumps, &p)),
        )
    };

    // Differential gate: both routers saw the identical op stream and
    // made the identical decisions (keys, shards, primaries, nearest
    // picks, stale rejects), or the bench refuses to report.
    assert_eq!(
        fast.digest, legacy.digest,
        "routing decision divergence between flat table and map walk"
    );
    assert_eq!(fast.ops, legacy.ops);
    assert_eq!(fast.stale, legacy.stale);

    let ops_s = |r: &RouteRun| r.ops as f64 / r.wall.as_secs_f64().max(1e-9);
    let speedup = ops_s(&fast) / ops_s(&legacy);
    let per_t = |r: &RouteRun| r.alloc_bytes as f64 / p.terminals as f64;
    let state_improvement = per_t(&legacy) / per_t(&fast).max(1e-9);

    let mut scale = BenchArtifact::new("scale");
    // Gate floors: ≥2× routed ops/s over the map walk, ≥4× fewer
    // allocator bytes per terminal — machine-local ratios.
    scale.gates = vec![
        Gate::Ratio {
            of: Quantity::Throughput,
            baseline: "legacy".into(),
            floor: 2.0,
        },
        Gate::Ratio {
            of: Quantity::Gauge(gdb_workloads::metrics::TERMINAL_BYTES.into()),
            baseline: "legacy".into(),
            floor: 4.0,
        },
    ];
    scale.config_kv("shards", p.shards);
    scale.config_kv("regions", p.regions);
    scale.config_kv("terminals", p.terminals);
    scale.config_kv("keys", p.keys);
    scale.config_kv("epochs", p.epochs);
    scale.config_kv("ops_per_terminal", p.ops);
    scale.config_kv("moves_per_epoch", p.moves);
    scale.config_kv("seed", SEED);
    scale.series.push(routing_series("fast", &fast, &p));
    scale.series.push(routing_series("legacy", &legacy, &p));

    print_table(
        "scale routing hot path (wall clock)",
        &[
            "path",
            "ops/s",
            "wall ms",
            "bytes/terminal",
            "stale rejects",
        ],
        &[
            vec![
                "fast (flat table + shared zipf + pooled)".into(),
                format!("{:.0}k", ops_s(&fast) / 1e3),
                format!("{:.1}", fast.wall.as_secs_f64() * 1e3),
                format!("{:.0}", per_t(&fast)),
                fast.stale.to_string(),
            ],
            vec![
                "legacy (map walk + per-terminal zipf)".into(),
                format!("{:.0}k", ops_s(&legacy) / 1e3),
                format!("{:.1}", legacy.wall.as_secs_f64() * 1e3),
                format!("{:.0}", per_t(&legacy)),
                legacy.stale.to_string(),
            ],
        ],
    );
    println!(
        "routing speedup: {speedup:.2}x, terminal-state improvement: {state_improvement:.1}x fewer bytes"
    );

    // ---- Cluster leg: the mix through the real storage path. ----
    let live0 = live_bytes();
    reset_peak();
    let mut mix = MixWorkload {
        tpcc: TpccWorkload::new(
            TpccScale {
                warehouses: (p.shards as i64 / 4).max(2),
                districts_per_warehouse: 2,
                customers_per_district: 30,
                items: 200,
                initial_orders_per_district: 20,
            },
            TpccMix::standard(),
            SEED,
        ),
        sysbench: SysbenchWorkload::new(
            SysbenchScale {
                tables: 8,
                rows_per_table: 10_000,
            },
            SysbenchMode::PointSelect,
            SEED,
        )
        .with_key_dist(KeyDistribution::Zipfian { theta: ZIPF_THETA }),
    };
    mix.setup(&mut cluster).expect("mix setup");
    let run = RunConfig {
        terminals: p.terminals,
        duration: SimDuration::from_millis(p.cluster_ms),
        warmup: SimDuration::from_millis(p.cluster_ms / 4),
        think_time: SimDuration::from_millis(p.think_ms),
    };
    let report = run_workload(&mut cluster, &mut mix, run);
    let peak = peak_bytes().saturating_sub(live0);
    let peak_per_terminal = peak as f64 / p.terminals as f64;

    let mut series = series_from_run("scale", &mut cluster, &report);
    series.metrics.metrics.insert(
        "scale.peak_footprint_bytes".into(),
        gdb_obs::Metric::Counter(peak),
    );
    series.metrics.metrics.insert(
        gdb_workloads::metrics::TERMINAL_BYTES.into(),
        gdb_obs::Metric::Gauge(peak_per_terminal),
    );

    let mut scale_cluster = BenchArtifact::new("scale_cluster");
    // Wall-clock-local and without a baseline series: no gates (the
    // gated ratios live in the `scale` artifact above).
    scale_cluster.config_kv("shards", p.shards);
    scale_cluster.config_kv("regions", p.regions);
    scale_cluster.config_kv("terminals", p.terminals);
    scale_cluster.config_kv("cluster_ms", p.cluster_ms);
    scale_cluster.config_kv("think_ms", p.think_ms);
    scale_cluster.config_kv("seed", SEED);
    scale_cluster.series.push(series);

    print_table(
        "scale cluster (virtual time, real storage path)",
        &["metric", "value"],
        &[
            vec![
                "txn/s (virtual)".into(),
                format!("{:.0}", report.throughput_per_sec()),
            ],
            vec!["commits".into(), report.total_commits().to_string()],
            vec!["aborts".into(), report.total_aborts().to_string()],
            vec![
                "peak footprint".into(),
                format!("{:.1} MiB", peak as f64 / (1024.0 * 1024.0)),
            ],
            vec![
                "bytes/terminal (peak)".into(),
                format!("{peak_per_terminal:.0}"),
            ],
        ],
    );

    if let Some(path) = json_out_path() {
        let doc = bundle(&[scale, scale_cluster]).to_pretty();
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}
