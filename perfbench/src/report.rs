//! Turning measurements into named metrics and the result line.

use crate::run::{Plain, Setup, Traced};
use crate::trace::SpanKind;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of a non-empty list (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn setup_median(setups: &[Setup], f: impl Fn(&Setup) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of an untraced run. Fails when a reported
/// percentile has fewer than ten samples beyond it.
pub fn end_to_end(run: &Plain) -> Result<Vec<Metric>, String> {
    let v = &run.measured.virt;
    let lat = v.latency_ns.ok_or("no commits in the virtual window")?;
    let stale = v
        .staleness_ns
        .ok_or("no read-only commits in the virtual window")?;
    for (what, s) in [("latency", lat), ("staleness", stale)] {
        if !s.supported() {
            return Err(format!(
                "{what}: {} samples are too few for a p99 with ten samples beyond it",
                s.count
            ));
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    Ok(vec![
        m("setup_s", "s", setup_median(&run.setups, Setup::total_s)),
        m(
            "wall_commits_per_s",
            "1/s",
            run.measured.wall.commits_per_s(),
        ),
        m("peak_mem_mib", "MiB", run.measured.peak_mem_mib),
        m(
            "virt_commits_per_s",
            "1/virtual_s",
            v.commits as f64 / v.window_s,
        ),
        m("lat_p50_ms", "virtual_ms", ms(lat.p50)),
        m("lat_p99_ms", "virtual_ms", ms(lat.p99)),
        m("staleness_p50_ms", "virtual_ms", ms(stale.p50)),
        m("staleness_p99_ms", "virtual_ms", ms(stale.p99)),
        m("commit_share", "ratio", ratio(v.commits, v.attempts)),
    ])
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &Traced) -> Vec<Metric> {
    let t = &run.traced;
    let (v, c, tr) = (&t.virt, &t.virt.counts, &t.totals);
    // Wall times are per commit of the wall window; counts per commit of
    // the virtual window.
    let us_per_commit = |kind: SpanKind| tr.ns(kind) as f64 / 1000.0 / t.wall.commits as f64;
    let per_commit = |x: u64| ratio(x, v.commits);
    let us_per_call = |ns: u64, calls: u64| ratio(ns, calls) / 1000.0;
    let reads = c.reads_on_replica + c.reads_on_primary;
    let covered = [SpanKind::Driver, SpanKind::RunUntil, SpanKind::RunOne]
        .into_iter()
        .map(|k| tr.ns(k))
        .sum::<u64>() as f64;
    let exec_ns = tr.ns(SpanKind::Execute);
    vec![
        m(
            "workloads.driver_self_us_per_commit",
            "us",
            us_per_commit(SpanKind::Driver),
        ),
        m(
            "workloads.setup_load_s",
            "s",
            setup_median(&run.setups, |s| s.load_s),
        ),
        m(
            "core.run_one_us_per_commit",
            "us",
            us_per_commit(SpanKind::RunOne),
        ),
        m(
            "core.cluster_new_s",
            "s",
            setup_median(&run.setups, |s| s.cluster_new_s),
        ),
        m(
            "simnet.run_until_us_per_commit",
            "us",
            us_per_commit(SpanKind::RunUntil),
        ),
        m(
            "simnet.deliver_us_per_commit",
            "us",
            us_per_commit(SpanKind::Deliver),
        ),
        m(
            "simnet.msgs_per_commit",
            "count",
            per_commit(t.traffic.msgs),
        ),
        m("simnet.bytes_per_commit", "B", per_commit(t.traffic.bytes)),
        m(
            "simnet.cross_region_msgs_per_commit",
            "count",
            per_commit(t.traffic.cross_region_msgs),
        ),
        m(
            "sqlengine.execute_us_per_stmt",
            "us",
            us_per_call(exec_ns, tr.calls(SpanKind::Execute)),
        ),
        m(
            "txnmgr.begin_commit_us_per_txn",
            "us",
            us_per_call(
                tr.ns(SpanKind::RunTransaction).saturating_sub(exec_ns),
                tr.calls(SpanKind::RunTransaction),
            ),
        ),
        m(
            "txnmgr.snapshot_acquire_us_mean",
            "virtual_us",
            c.snapshot_acquire_us_mean,
        ),
        m(
            "txnmgr.commit_wait_us_mean",
            "virtual_us",
            c.commit_wait_us_mean,
        ),
        m(
            "txnmgr.replication_ack_us_mean",
            "virtual_us",
            c.replication_ack_us_mean,
        ),
        m(
            "storage.lock_waits_per_commit",
            "count",
            per_commit(c.lock_waits),
        ),
        m(
            "storage.resident_mib",
            "MiB",
            c.resident_bytes / (1024.0 * 1024.0),
        ),
        m("wal.records_per_commit", "count", per_commit(c.wal_records)),
        m(
            "wal.durable_bytes_per_commit",
            "B",
            per_commit(c.wal_durable_bytes),
        ),
        m(
            "replication.ship_batches_per_commit",
            "count",
            per_commit(c.ship_batches),
        ),
        m(
            "replication.wire_bytes_per_commit",
            "B",
            per_commit(c.ship_wire_bytes),
        ),
        m(
            "compress.ratio",
            "ratio",
            ratio(c.ship_raw_bytes, c.ship_wire_bytes),
        ),
        m(
            "replication.replay_records_per_commit",
            "count",
            per_commit(c.replay_records),
        ),
        m(
            "consistency.rcp_rounds_per_virtual_s",
            "1/virtual_s",
            c.rcp_rounds as f64 / v.window_s,
        ),
        m(
            "consistency.rcp_round_us_p50",
            "virtual_us",
            c.rcp_round_us_p50 as f64,
        ),
        m(
            "consistency.rcp_abandoned_share",
            "ratio",
            ratio(c.rcp_rounds_abandoned, c.rcp_rounds),
        ),
        m(
            "router.replica_read_share",
            "ratio",
            ratio(c.reads_on_replica, reads),
        ),
        m(
            "router.blocked_fallback_share",
            "ratio",
            ratio(c.replica_blocked_fallbacks, reads),
        ),
        m(
            "unattributed_share",
            "ratio",
            1.0 - covered / (t.wall.secs * 1e9),
        ),
        m(
            "trace.overhead_share",
            "ratio",
            1.0 - t.wall.commits_per_s() / run.untraced.wall.commits_per_s(),
        ),
    ]
}

/// The result line: one JSON object.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// A finite f64 with all its digits (shortest round-trip form).
fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a finite number");
    format!("{x:?}")
}
