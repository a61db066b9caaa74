//! Set-up, the closed-loop driver, the output checks and the metrics.
//!
//! One run builds the cluster several times (the set-up metric is their
//! median), then drives the last one. Terminals are closed-loop in
//! virtual time. After a virtual warm-up the run has two windows:
//!
//! * a fixed **virtual window** (per workload, see [`Shape`]): every
//!   virtual-time metric and every per-layer count is taken over it, so
//!   for one seed they repeat exactly on any machine;
//! * a **wall window** that starts with the virtual window and lasts for
//!   the requested wall seconds (or until the virtual window closes, if
//!   that is later): wall-clock throughput and the per-layer wall times
//!   are taken over it. On the write workload the wall window is the
//!   virtual window (see [`Shape::fixed_work`]).

use crate::percentile::Summary;
use crate::point_select::PointSelect;
use crate::trace::{self, span, CountingTransport, SpanKind, Totals, Traffic};
use gdb_model::GdbResult;
use gdb_workloads::sysbench::SysbenchScale;
use gdb_workloads::tpcc::{consistency, TpccMix, TpccScale, TpccWorkload, TxnKind};
use gdb_workloads::Workload;
use globaldb::{Cluster, ClusterConfig, Metric, MetricsReport, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Standard TPC-C mix: the only write-heavy workload (locks, WAL,
    /// group commit, shipping, replay, RCP).
    TpccMix,
    /// Read-only TPC-C (Order-Status + Stock-Level, 50% multi-shard):
    /// replica scans at the RCP snapshot; WAL and shipping sit idle.
    TpccRor,
    /// Sysbench Point-Select: one row per transaction, so fixed
    /// per-transaction coordination overhead dominates.
    PointSelect,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::TpccMix,
        WorkloadKind::TpccRor,
        WorkloadKind::PointSelect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::TpccMix => "tpcc-mix",
            WorkloadKind::TpccRor => "tpcc-ror",
            WorkloadKind::PointSelect => "point-select",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed run shape of this workload.
    pub fn shape(self) -> Shape {
        let ms = SimDuration::from_millis;
        let s = SimDuration::from_secs;
        // Windows are sized so each reported p99 has at least ten samples
        // beyond it, with room to spare: tpcc-mix commits ~350 txn per
        // virtual second, of which ~8% are read-only (the staleness
        // sample), so it needs ~36 virtual seconds; 80 give ~2200 samples,
        // and its window also fills most of a 20 s wall window. The
        // read-only workloads commit ~21-23k txn per virtual second.
        match self {
            WorkloadKind::TpccMix => Shape {
                terminals: 24,
                think: ms(10),
                warmup: s(1),
                window: s(80),
                fixed_work: true,
            },
            WorkloadKind::TpccRor => Shape {
                terminals: 24,
                think: ms(1),
                warmup: ms(200),
                window: s(1),
                fixed_work: false,
            },
            WorkloadKind::PointSelect => Shape {
                terminals: 24,
                think: ms(1),
                warmup: ms(500),
                window: s(10),
                fixed_work: false,
            },
        }
    }
}

/// Closed-loop shape of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub terminals: usize,
    /// Think time between a completion and the terminal's next request.
    pub think: SimDuration,
    /// Unmeasured virtual warm-up.
    pub warmup: SimDuration,
    /// The measured virtual window.
    pub window: SimDuration,
    /// End the run when the virtual window closes, whatever the wall
    /// budget, so the wall window covers a fixed amount of work and the
    /// output checks read a state that is a function of the seed. Set for
    /// the write workload: its tables, MVCC state and WAL grow as it runs,
    /// so over a fixed wall duration a faster program would be measured on
    /// a larger state. The read-only workloads' state does not grow.
    pub fixed_work: bool,
}

/// Times of one set-up, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// `Cluster::new`.
    pub cluster_new_s: f64,
    /// Schema, bulk load, `finish_load` and statement prepare.
    pub load_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.cluster_new_s + self.load_s
    }
}

/// Counter deltas over the virtual window, plus a few levels read at its
/// close. All are functions of the seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub lock_waits: u64,
    pub wal_records: u64,
    pub wal_durable_bytes: u64,
    pub ship_batches: u64,
    pub ship_raw_bytes: u64,
    pub ship_wire_bytes: u64,
    pub replay_records: u64,
    pub rcp_rounds: u64,
    pub rcp_rounds_abandoned: u64,
    pub reads_on_replica: u64,
    pub reads_on_primary: u64,
    pub replica_blocked_fallbacks: u64,
    /// Mean virtual µs of the `txnmgr.phase.*` histograms over the window.
    pub snapshot_acquire_us_mean: f64,
    pub commit_wait_us_mean: f64,
    pub replication_ack_us_mean: f64,
    /// Median RCP round (virtual µs), whole run up to the window's close.
    pub rcp_round_us_p50: u64,
    /// Sum of `storage.arena_resident_bytes.s*` at the window's close.
    pub resident_bytes: f64,
}

/// Everything measured over the virtual window: a pure function of the
/// seed, compared bit for bit by the determinism checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    pub window_s: f64,
    pub attempts: u64,
    pub commits: u64,
    /// Transactions that ended in a retryable abort (lock conflicts, the
    /// TPC-C spec's 1% New-Order rollback).
    pub retryable: u64,
    /// Commit latency, virtual ns.
    pub latency_ns: Option<Summary>,
    /// Start time minus snapshot timestamp of committed read-only
    /// transactions, virtual ns.
    pub staleness_ns: Option<Summary>,
    pub counts: Counts,
}

/// Length of one slice of the wall window.
pub const SLICE: Duration = Duration::from_millis(250);

/// The wall window.
#[derive(Debug, Clone)]
pub struct Wall {
    pub secs: f64,
    pub attempts: u64,
    pub commits: u64,
    /// Commit rate of each completed [`SLICE`] of the window.
    pub slice_rates: Vec<f64>,
}

impl Wall {
    /// Median commit rate over the window's slices: a burst of load from
    /// outside the benchmark moves a few slices, not the median.
    pub fn commits_per_s(&self) -> f64 {
        if self.slice_rates.is_empty() {
            self.commits as f64 / self.secs
        } else {
            crate::report::median(&self.slice_rates)
        }
    }
}

/// Running wall-window clock: elapsed time and per-slice commit rates.
struct WallClock {
    t0: Instant,
    slice_t0: Instant,
    slice_commits: u64,
    rates: Vec<f64>,
}

impl WallClock {
    fn start() -> Self {
        let now = Instant::now();
        WallClock {
            t0: now,
            slice_t0: now,
            slice_commits: 0,
            rates: Vec::new(),
        }
    }

    /// Close the current slice if it is over; returns the time since start.
    fn tick(&mut self, commits: u64) -> Duration {
        let now = Instant::now();
        let d = now - self.slice_t0;
        if d >= SLICE {
            self.rates
                .push((commits - self.slice_commits) as f64 / d.as_secs_f64());
            self.slice_t0 = now;
            self.slice_commits = commits;
        }
        now - self.t0
    }
}

/// One driven cluster.
#[derive(Debug, Clone)]
pub struct Measured {
    pub virt: Virtual,
    pub wall: Wall,
    /// Spans and traffic of a traced measurement (empty when untraced).
    pub totals: Totals,
    /// Traffic over the virtual window (traced measurements only).
    pub traffic: Traffic,
    /// Peak resident memory of the process when the virtual window
    /// closed: a fixed amount of work, unlike the wall window.
    pub peak_mem_mib: f64,
    /// Every transaction attempted, warm-up included.
    pub attempts: u64,
}

/// Why a run is not correct, and how far it got.
#[derive(Debug)]
pub struct Failure {
    pub reason: String,
    /// Transactions attempted before the failure, warm-ups included.
    pub attempted: u64,
    /// Transactions that returned a wrong result or an error the client
    /// cannot retry; the run stops at the first. 0 when a check over the
    /// whole run failed instead.
    pub failed: u64,
}

impl Failure {
    pub fn new(reason: String, attempted: u64, failed: u64) -> Self {
        Failure {
            reason,
            attempted,
            failed,
        }
    }

    /// Count `earlier` attempts of a measurement that ran before this one.
    fn after(mut self, earlier: u64) -> Self {
        self.attempted += earlier;
        self
    }
}

/// A failure before any transaction ran (set-up).
impl From<String> for Failure {
    fn from(reason: String) -> Self {
        Failure::new(reason, 0, 0)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: WorkloadKind,
    pub seed: u64,
    pub shape: Shape,
    /// Length of the wall window.
    pub wall: Duration,
}

impl Spec {
    pub fn new(workload: WorkloadKind, seed: u64, wall: Duration) -> Self {
        Spec {
            workload,
            seed,
            shape: workload.shape(),
            wall,
        }
    }
}

/// The result of an untraced run (end-to-end metrics).
#[derive(Debug, Clone)]
pub struct Plain {
    pub setups: Vec<Setup>,
    pub measured: Measured,
}

/// The result of a traced run: a traced and an untraced measurement of
/// the same seed, each over half the wall budget.
#[derive(Debug, Clone)]
pub struct Traced {
    pub setups: Vec<Setup>,
    pub untraced: Measured,
    pub traced: Measured,
}

/// A workload as the benchmark drives it.
pub trait Driven: Workload {
    /// Runs once on the driven cluster after its set-up and outside the
    /// set-up time: reads back what the output checks compare against.
    fn after_setup(&mut self, _cluster: &mut Cluster) -> GdbResult<()> {
        Ok(())
    }
}

impl Driven for TpccWorkload {}

impl Driven for PointSelect {
    fn after_setup(&mut self, cluster: &mut Cluster) -> GdbResult<()> {
        self.read_expected(cluster)
    }
}

type Built = (Cluster, Box<dyn Driven>, Setup);

fn tpcc_scale() -> TpccScale {
    TpccScale::small()
}

/// Build and load one cluster for `kind`.
pub fn build(kind: WorkloadKind, seed: u64) -> GdbResult<Built> {
    let t0 = Instant::now();
    let mut cluster = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(seed));
    let cluster_new_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut wl: Box<dyn Driven> = match kind {
        WorkloadKind::TpccMix => {
            Box::new(TpccWorkload::new(tpcc_scale(), TpccMix::standard(), seed))
        }
        WorkloadKind::TpccRor => {
            let mut wl = TpccWorkload::new(tpcc_scale(), TpccMix::read_only(), seed);
            wl.multi_shard_read_fraction = 0.5;
            wl.remote_cn_fraction = 0.0;
            Box::new(wl)
        }
        WorkloadKind::PointSelect => Box::new(PointSelect::new(SysbenchScale::small(), seed)),
    };
    wl.setup(&mut cluster)?;
    let load_s = t1.elapsed().as_secs_f64();
    Ok((
        cluster,
        wl,
        Setup {
            cluster_new_s,
            load_s,
        },
    ))
}

/// Fewest set-ups per run. Set-ups continue past it until they have taken
/// [`SETUP_BUDGET`], or until there are [`MAX_SETUPS`]: a set-up of a few
/// tens of milliseconds needs many samples, spread over a few seconds of
/// the host's varying speed, for a steady median.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const MAX_SETUPS: usize = 60;

/// Build at least `min` clusters, keeping only the last; appends every
/// set-up's times to `setups`.
fn build_n(spec: &Spec, min: usize, setups: &mut Vec<Setup>) -> Result<Built, String> {
    let t0 = Instant::now();
    let mut last: Option<Built> = None;
    for i in 0..MAX_SETUPS {
        if i >= min && t0.elapsed() >= SETUP_BUDGET {
            break;
        }
        // Drop the previous cluster first: one cluster alive at a time.
        drop(last.take());
        let built = build(spec.workload, spec.seed).map_err(|e| format!("set-up: {e}"))?;
        setups.push(built.2);
        last = Some(built);
    }
    ready(last.ok_or("no set-up")?)
}

/// Make a built cluster ready to drive: [`Driven::after_setup`].
fn ready(mut built: Built) -> Result<Built, String> {
    built
        .1
        .after_setup(&mut built.0)
        .map_err(|e| format!("after set-up: {e}"))?;
    Ok(built)
}

/// Untraced run: the end-to-end metrics.
pub fn run_plain(spec: &Spec) -> Result<Plain, Failure> {
    let mut setups = Vec::new();
    let (mut cluster, mut wl, _) = build_n(spec, MIN_SETUPS, &mut setups)?;
    let measured = measure(&mut cluster, wl.as_mut(), spec, spec.wall, false)?;
    check(spec, &mut cluster).map_err(|e| Failure::new(e, measured.attempts, 0))?;
    Ok(Plain { setups, measured })
}

/// Traced run: the same seed traced, then untraced, each over half the
/// wall budget. Running the traced half first charges it any cost of a
/// fresh heap, so the reported tracing overhead errs high, not low.
/// Fails if tracing changed any virtual-time result.
pub fn run_traced(spec: &Spec) -> Result<Traced, Failure> {
    let half = spec.wall / 2;
    let mut setups = Vec::new();
    let (mut cluster, mut wl, _) = build_n(spec, MIN_SETUPS - 1, &mut setups)?;
    cluster
        .db
        .set_transport(Box::new(CountingTransport::default()));
    let traced = measure(&mut cluster, wl.as_mut(), spec, half, true)?;
    let done = traced.attempts;
    check(spec, &mut cluster).map_err(|e| Failure::new(e, done, 0))?;
    drop((cluster, wl));
    let built = build(spec.workload, spec.seed).map_err(|e| format!("set-up: {e}"));
    let (mut cluster, mut wl, _) = built
        .and_then(|b| {
            setups.push(b.2);
            ready(b)
        })
        .map_err(|e| Failure::from(e).after(done))?;
    let untraced =
        measure(&mut cluster, wl.as_mut(), spec, half, false).map_err(|f| f.after(done))?;
    let done = done + untraced.attempts;
    check(spec, &mut cluster).map_err(|e| Failure::new(e, done, 0))?;
    if traced.virt != untraced.virt {
        return Err(Failure::new(
            format!(
                "tracing changed virtual-time results:\nuntraced {:?}\ntraced   {:?}",
                untraced.virt, traced.virt
            ),
            done,
            0,
        ));
    }
    Ok(Traced {
        setups,
        untraced,
        traced,
    })
}

/// Checks run on the driven cluster after the measurement: the TPC-C
/// consistency conditions for the write workload. (Point-Select results
/// and commit reconciliation are checked inside [`measure`].)
fn check(spec: &Spec, cluster: &mut Cluster) -> Result<(), String> {
    if spec.workload == WorkloadKind::TpccMix {
        consistency::verify(cluster, &tpcc_scale())
            .map_err(|e| format!("TPC-C consistency: {e}"))?;
    }
    Ok(())
}

/// Transaction kinds submitted as read-only (ROR-eligible).
fn is_read_only(kind: &str) -> bool {
    kind == "point_select"
        || [TxnKind::OrderStatus, TxnKind::StockLevel]
            .iter()
            .any(|k| k.name() == kind)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_mem_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Counter levels read at a window boundary.
struct Snap {
    reg: MetricsReport,
    wal_records: u64,
    wal_durable_bytes: u64,
    replay_records: u64,
    resident_bytes: f64,
    traffic: Traffic,
}

fn snap(cluster: &mut Cluster) -> Snap {
    let reg = cluster.metrics_snapshot();
    let (mut wal_records, mut wal_durable_bytes, mut replay_records) = (0, 0, 0);
    for shard in cluster.db.shards() {
        wal_records += shard.log.sealed_head().0;
        wal_durable_bytes += shard.log.durable().durable().len() as u64;
        replay_records += shard
            .replicas
            .iter()
            .map(|r| r.applier.applied_lsn().0)
            .sum::<u64>();
    }
    let resident_bytes = reg
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with(gdb_storage::metrics::ARENA_RESIDENT_BYTES_PREFIX))
        .filter_map(|(_, m)| match m {
            Metric::Gauge(v) => Some(*v),
            _ => None,
        })
        .sum();
    Snap {
        reg,
        wal_records,
        wal_durable_bytes,
        replay_records,
        resident_bytes,
        traffic: trace::traffic(),
    }
}

fn counts(a: &Snap, b: &Snap) -> Counts {
    let d = |name: &str| b.reg.counter(name).unwrap_or(0) - a.reg.counter(name).unwrap_or(0);
    let mean = |name: &str| {
        let (ha, hb) = (a.reg.histogram(name), b.reg.histogram(name));
        let (sa, ca) = ha.map_or((0, 0), |h| (h.sum_us, h.count));
        let (sb, cb) = hb.map_or((0, 0), |h| (h.sum_us, h.count));
        if cb > ca {
            (sb - sa) as f64 / (cb - ca) as f64
        } else {
            0.0
        }
    };
    use gdb_consistency::metrics as cm;
    use gdb_replication::metrics as rm;
    use gdb_router::metrics as ro;
    use gdb_txnmgr::metrics as tm;
    Counts {
        lock_waits: d(tm::LOCK_WAITS),
        wal_records: b.wal_records - a.wal_records,
        wal_durable_bytes: b.wal_durable_bytes - a.wal_durable_bytes,
        ship_batches: d(rm::SHIP_BATCHES),
        ship_raw_bytes: d(rm::SHIP_RAW_BYTES),
        ship_wire_bytes: d(rm::SHIP_WIRE_BYTES),
        replay_records: b.replay_records - a.replay_records,
        rcp_rounds: d(cm::RCP_ROUNDS),
        rcp_rounds_abandoned: d(cm::RCP_ROUNDS_ABANDONED),
        reads_on_replica: d(ro::READS_ON_REPLICA),
        reads_on_primary: d(ro::READS_ON_PRIMARY),
        replica_blocked_fallbacks: d(ro::REPLICA_BLOCKED_FALLBACKS),
        snapshot_acquire_us_mean: mean(tm::PHASE_SNAPSHOT_US),
        commit_wait_us_mean: mean(tm::PHASE_COMMIT_WAIT_US),
        replication_ack_us_mean: mean(tm::PHASE_REPLICATION_ACK_US),
        rcp_round_us_p50: b.reg.histogram(cm::RCP_ROUND_US).map_or(0, |h| h.p50_us),
        resident_bytes: b.resident_bytes,
    }
}

/// Drive `cluster` closed-loop for one measurement.
fn measure(
    cluster: &mut Cluster,
    wl: &mut dyn Driven,
    spec: &Spec,
    wall_budget: Duration,
    traced: bool,
) -> Result<Measured, Failure> {
    let shape = spec.shape;
    let t0 = cluster.now();
    let window_start = t0 + shape.warmup;
    let window_end = window_start + shape.window;
    let committed_before = cluster
        .metrics_snapshot()
        .counter(gdb_txnmgr::metrics::COMMITTED)
        .unwrap_or(0);

    // Stagger terminal starts to avoid a thundering herd at t0.
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = (0..shape.terminals)
        .map(|i| Reverse((t0 + SimDuration::from_micros(1 + i as u64 * 137), i)))
        .collect();

    let mut latency_ns = Vec::new();
    let mut staleness_ns = Vec::new();
    let (mut attempts, mut commits, mut retryable) = (0u64, 0u64, 0u64);
    let (mut wall_attempts, mut wall_commits) = (0u64, 0u64);
    let mut all_commits = 0u64;
    let mut start: Option<(Snap, WallClock)> = None;
    let mut end: Option<(Snap, f64)> = None;
    let mut txn = 0u64;

    let mut next = heap.pop();
    while let Some(Reverse((at, terminal))) = next {
        if start.is_none() && at >= window_start {
            if traced {
                trace::start();
            }
            start = Some((snap(cluster), WallClock::start()));
        }
        if end.is_none() && at >= window_end {
            let mem = peak_mem_mib().map_err(|e| Failure::new(e, txn, 0))?;
            end = Some((snap(cluster), mem));
            if shape.fixed_work {
                break;
            }
        }
        if let Some((_, clock)) = start.as_mut().filter(|_| txn.is_multiple_of(16)) {
            if clock.tick(wall_commits) >= wall_budget && end.is_some() {
                break;
            }
        }
        txn += 1;
        trace::set_txn(txn);
        span(SpanKind::RunUntil, || cluster.run_until(at));
        let (kind, result) = span(SpanKind::RunOne, || wl.run_one(cluster, terminal, at));
        let in_window = at >= window_start && at < window_end;
        let in_wall = start.is_some();
        next = span(SpanKind::Driver, || {
            attempts += u64::from(in_window);
            wall_attempts += u64::from(in_wall);
            let resume = match result {
                Ok(outcome) => {
                    if !outcome.aborted {
                        all_commits += 1;
                        wall_commits += u64::from(in_wall);
                        if in_window {
                            commits += 1;
                            latency_ns.push(outcome.latency.as_nanos());
                            if is_read_only(kind) {
                                // GClock timestamps count microseconds.
                                let snapshot_ns = outcome.snapshot.0.saturating_mul(1000);
                                staleness_ns.push(at.as_nanos().saturating_sub(snapshot_ns));
                            }
                        }
                    }
                    outcome.completed_at + shape.think
                }
                Err(e) if e.is_retryable() => {
                    retryable += u64::from(in_window);
                    at + shape.think
                }
                Err(e) => return Err(Failure::new(format!("{kind} at {at:?}: {e}"), txn, 1)),
            };
            heap.push(Reverse((resume, terminal)));
            Ok(heap.pop())
        })?;
    }
    let fail = |reason: &str| Failure::new(reason.to_string(), txn, 0);
    let (start, clock) = start.ok_or_else(|| fail("the run never reached its virtual window"))?;
    let wall_secs = clock.t0.elapsed().as_secs_f64();
    let totals = if traced {
        trace::finish()
    } else {
        Totals::default()
    };
    let (end, peak_mem_mib) = end.ok_or_else(|| fail("the run never closed its virtual window"))?;

    let committed = cluster
        .metrics_snapshot()
        .counter(gdb_txnmgr::metrics::COMMITTED)
        .unwrap_or(0)
        - committed_before;
    if committed != all_commits {
        return Err(fail(&format!(
            "commit count mismatch: driver saw {all_commits}, txnmgr.committed grew by {committed}"
        )));
    }

    Ok(Measured {
        virt: Virtual {
            window_s: shape.window.as_secs_f64(),
            attempts,
            commits,
            retryable,
            latency_ns: Summary::of(&mut latency_ns),
            staleness_ns: Summary::of(&mut staleness_ns),
            counts: counts(&start, &end),
        },
        wall: Wall {
            secs: wall_secs,
            attempts: wall_attempts,
            commits: wall_commits,
            slice_rates: clock.rates,
        },
        traffic: end.traffic.since(start.traffic),
        totals,
        peak_mem_mib,
        attempts: txn,
    })
}
