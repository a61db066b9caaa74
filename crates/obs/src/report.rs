//! The `gdb-bench/v1` artifact schema and the baseline comparison the CI
//! perf gate runs.
//!
//! Every figure binary emits one [`BenchArtifact`] per run via `--json`:
//! the figure name, the configuration key/values, and one [`BenchSeries`]
//! per plotted line/bar (throughput, latency quantiles, per-phase
//! breakdown, network bytes, full metrics snapshot). Multiple artifacts
//! bundle into a single file (`{"schema": "gdb-bench/bundle/v1",
//! "artifacts": [...]}`) — `BENCH_smoke.json` is such a bundle covering
//! all five figures at tiny scale.
//!
//! [`compare_artifacts`] implements the regression gate: each baseline
//! artifact lists the [`Gate`]s it is held to (figure throughput and
//! phases, an in-run ratio with a floor, a counter ceiling), and the
//! comparison runs every listed gate against the current run.

use crate::json::Json;
use crate::metrics::{HistSummary, MetricsReport};
use crate::span::Tracer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub const SCHEMA: &str = "gdb-bench/v1";
pub const BUNDLE_SCHEMA: &str = "gdb-bench/bundle/v1";

/// Network-traffic totals for one series' cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Redo bytes shipped on the wire (post-compression).
    pub wire_bytes: u64,
    /// Redo bytes before compression.
    pub raw_bytes: u64,
    /// Log-shipping batches sealed.
    pub batches: u64,
    /// Messages that crossed a region boundary.
    pub cross_region_msgs: u64,
    /// Bytes that crossed a region boundary.
    pub cross_region_bytes: u64,
}

impl NetStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("wire_bytes", Json::u64(self.wire_bytes)),
            ("raw_bytes", Json::u64(self.raw_bytes)),
            ("batches", Json::u64(self.batches)),
            ("cross_region_msgs", Json::u64(self.cross_region_msgs)),
            ("cross_region_bytes", Json::u64(self.cross_region_bytes)),
        ])
    }

    fn from_json(v: &Json, ctx: &str) -> Result<Self, String> {
        let f = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{ctx}: missing {k}"))
        };
        Ok(NetStats {
            wire_bytes: f("wire_bytes")?,
            raw_bytes: f("raw_bytes")?,
            batches: f("batches")?,
            cross_region_msgs: f("cross_region_msgs")?,
            cross_region_bytes: f("cross_region_bytes")?,
        })
    }
}

/// One plotted line/bar of a figure: a single cluster + workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSeries {
    pub label: String,
    pub throughput_txn_s: f64,
    /// TPC-C transactions-per-minute-C (0 for non-TPC-C workloads).
    pub tpmc: f64,
    pub commits: u64,
    pub aborts: u64,
    /// End-to-end transaction latency.
    pub latency: HistSummary,
    /// Per-phase latency breakdown (`snapshot_acquire`, `execute`,
    /// `prepare`, `commit_wait`, `replication_ack`).
    pub phases: BTreeMap<String, HistSummary>,
    pub net: NetStats,
    /// Full metrics snapshot of the series' cluster.
    pub metrics: MetricsReport,
}

impl BenchSeries {
    fn to_json(&self) -> Json {
        let phases = self
            .phases
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        Json::obj(vec![
            ("label", Json::str(&self.label)),
            ("throughput_txn_s", Json::Num(self.throughput_txn_s)),
            ("tpmc", Json::Num(self.tpmc)),
            ("commits", Json::u64(self.commits)),
            ("aborts", Json::u64(self.aborts)),
            ("latency_us", self.latency.to_json()),
            ("phases_us", Json::Obj(phases)),
            ("net", self.net.to_json()),
            ("metrics", self.metrics.to_json()),
        ])
    }

    fn from_json(v: &Json, ctx: &str) -> Result<Self, String> {
        let label = v
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing label"))?
            .to_string();
        let num = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{ctx}[{label}]: missing {k}"))
        };
        let latency = HistSummary::from_json(
            v.get("latency_us")
                .ok_or_else(|| format!("{ctx}[{label}]: missing latency_us"))?,
            &format!("{ctx}[{label}].latency_us"),
        )?;
        let mut phases = BTreeMap::new();
        if let Some(pairs) = v.get("phases_us").and_then(Json::as_obj) {
            for (k, ph) in pairs {
                phases.insert(
                    k.clone(),
                    HistSummary::from_json(ph, &format!("{ctx}[{label}].phases_us.{k}"))?,
                );
            }
        }
        let net = match v.get("net") {
            Some(n) => NetStats::from_json(n, &format!("{ctx}[{label}].net"))?,
            None => NetStats::default(),
        };
        let metrics = match v.get("metrics") {
            Some(m) => MetricsReport::from_json(m)?,
            None => MetricsReport::default(),
        };
        let throughput_txn_s = num("throughput_txn_s")?;
        let tpmc = num("tpmc")?;
        let commits = num("commits")? as u64;
        let aborts = num("aborts")? as u64;
        Ok(BenchSeries {
            label,
            throughput_txn_s,
            tpmc,
            commits,
            aborts,
            latency,
            phases,
            net,
            metrics,
        })
    }
}

/// One figure run: configuration, the gates it is held to, and all its
/// series.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BenchArtifact {
    /// Figure name (`fig1a`, `fig6a`, …, `nemesis`).
    pub figure: String,
    /// Run configuration as ordered key/value strings (scale, seconds,
    /// terminals, seed, …).
    pub config: Vec<(String, String)>,
    /// What [`compare_artifacts`] checks when this artifact is the
    /// blessed baseline.
    pub gates: Vec<Gate>,
    pub series: Vec<BenchSeries>,
}

impl BenchArtifact {
    pub fn new(figure: impl Into<String>) -> Self {
        BenchArtifact {
            figure: figure.into(),
            ..Default::default()
        }
    }

    pub fn config_kv(&mut self, key: impl Into<String>, value: impl ToString) {
        self.config.push((key.into(), value.to_string()));
    }

    pub fn to_json(&self) -> Json {
        let config = self
            .config
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
            .collect();
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("figure", Json::str(&self.figure)),
            ("config", Json::Obj(config)),
            (
                "gates",
                Json::Arr(self.gates.iter().map(Gate::to_json).collect()),
            ),
            (
                "series",
                Json::Arr(self.series.iter().map(BenchSeries::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        match v.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("artifact: bad schema {other:?}")),
        }
        let figure = v
            .get("figure")
            .and_then(Json::as_str)
            .ok_or("artifact: missing figure")?
            .to_string();
        let mut config = Vec::new();
        if let Some(pairs) = v.get("config").and_then(Json::as_obj) {
            for (k, val) in pairs {
                config.push((
                    k.clone(),
                    val.as_str().map(str::to_string).unwrap_or_default(),
                ));
            }
        }
        let ctx = format!("artifact[{figure}].series");
        let series = v
            .get("series")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("artifact[{figure}]: missing series"))?
            .iter()
            .map(|s| BenchSeries::from_json(s, &ctx))
            .collect::<Result<Vec<_>, _>>()?;
        let ctx = format!("artifact[{figure}].gates");
        let gates = v
            .get("gates")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("artifact[{figure}]: missing gates"))?
            .iter()
            .map(|g| Gate::from_json(g, &series, &ctx))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchArtifact {
            figure,
            config,
            gates,
            series,
        })
    }

    /// The pretty document written to a `--json` path.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }
}

/// Bundle several artifacts into one document (`BENCH_smoke.json`).
pub fn bundle(artifacts: &[BenchArtifact]) -> Json {
    Json::obj(vec![
        ("schema", Json::str(BUNDLE_SCHEMA)),
        (
            "artifacts",
            Json::Arr(artifacts.iter().map(BenchArtifact::to_json).collect()),
        ),
    ])
}

/// Load artifacts from a parsed document: accepts a single artifact, a
/// bundle, or a bare array of artifacts.
pub fn load_artifacts(v: &Json) -> Result<Vec<BenchArtifact>, String> {
    if let Some(items) = v.as_arr() {
        return items.iter().map(BenchArtifact::from_json).collect();
    }
    match v.get("schema").and_then(Json::as_str) {
        Some(BUNDLE_SCHEMA) => v
            .get("artifacts")
            .and_then(Json::as_arr)
            .ok_or("bundle: missing artifacts")?
            .iter()
            .map(BenchArtifact::from_json)
            .collect(),
        Some(SCHEMA) => Ok(vec![BenchArtifact::from_json(v)?]),
        other => Err(format!("unknown schema {other:?}")),
    }
}

/// Export a tracer's spans as a Chrome trace-event JSON document (the
/// `chrome://tracing` / Perfetto `traceEvents` format, loadable as-is).
///
/// Each span becomes one complete (`"X"`) event with microsecond `ts` /
/// `dur` derived from its virtual-time interval. Events are grouped into
/// tracks (`tid`) by their *root ancestor* span, so every transaction or
/// transition renders as its own row with its phase children nested
/// beneath it; `pid` is constant (one simulated cluster per trace).
pub fn to_chrome_trace(tracer: &Tracer) -> String {
    let spans = tracer.spans();
    // Spans are recorded parent-first (a child's id is always greater
    // than its parent's), so one forward pass resolves root ancestors.
    let mut track = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        track[i] = if s.is_root() {
            s.id
        } else {
            track[s.parent as usize]
        };
    }
    let events: Vec<Json> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj(vec![
                ("name", Json::str(s.kind.name())),
                ("cat", Json::str(if s.is_root() { "root" } else { "phase" })),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start.as_nanos() as f64 / 1000.0)),
                (
                    "dur",
                    Json::Num(s.end.since(s.start).as_nanos() as f64 / 1000.0),
                ),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(track[i] as u64)),
                (
                    "args",
                    Json::obj(vec![
                        ("label", Json::u64(s.label)),
                        ("span_id", Json::u64(s.id as u64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
    .to_pretty()
}

/// The phase components a [`Gate::Figure`] diffs in addition to
/// throughput: the geo-distribution costs the paper's figures are about
/// (GClock commit wait, synchronous replication acknowledgement).
pub const GATED_PHASES: &[&str] = &["commit_wait", "replication_ack"];

/// Relative slack on virtual-time figures (throughput, phase means) and
/// counters: a change fails the gate only when it moves a blessed
/// number by more than this.
pub const TOLERANCE: f64 = 0.20;

/// Absolute slack on counter comparisons: event counts are small
/// integers, so a ±1 wobble around a tiny baseline must not fail the
/// gate the way a relative check alone would.
pub const COUNTER_SLACK: f64 = 1.0;

/// Relative slack on in-run ratios: wall-clock runs are noisy (CPU
/// contention, thermal state), so the gate only fails on a large move.
const WALL_SLACK: f64 = 0.35;

/// Absolute slack for phase-mean comparisons: sub-50 µs phases are
/// dominated by quantization and scheduling noise, not regressions.
const PHASE_SLACK_US: f64 = 50.0;

/// One check the regression gate runs on an artifact. An artifact is
/// gated by exactly the gates it lists; an empty list makes it
/// informational.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    /// Every blessed series must be present, lose at most [`TOLERANCE`]
    /// of its throughput, and grow each of its [`GATED_PHASES`] means by
    /// at most [`TOLERANCE`] plus [`PHASE_SLACK_US`]. For deterministic
    /// virtual-time figures.
    Figure,
    /// Every other series' ratio over the `baseline` series of the same
    /// run must hold within [`WALL_SLACK`] of the blessed ratio and never
    /// drop below `floor`. Wall-clock numbers are machine-local: the same
    /// commit runs at wildly different speeds on a laptop and a CI
    /// runner, so their absolute values are never compared across
    /// machines. A baseline re-measured on the same machine in the same
    /// process makes the ratio portable.
    Ratio {
        of: Quantity,
        baseline: String,
        floor: f64,
    },
    /// The `metric` counter of the `series` series (lower is better) must
    /// stay at or under `max` and grow past the blessed count by at most
    /// [`TOLERANCE`] plus [`COUNTER_SLACK`]. This pins "converges in ≤ N
    /// migrations": a ping-pong regression quadruples the count and fails
    /// even if throughput barely moves.
    Counter {
        metric: String,
        series: String,
        max: u64,
    },
}

/// What a [`Gate::Ratio`] divides; every ratio reads higher-is-better.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Quantity {
    /// Throughput: `series / baseline`, the speedup over the baseline.
    Throughput,
    /// A lower-is-better gauge in each series' metrics (e.g.
    /// `txn.allocs_per_txn`): `baseline / series`, how many times less
    /// the series spends. Allocation counts are deterministic per build,
    /// so this ratio is far less noisy than a speedup.
    Gauge(String),
}

impl Quantity {
    /// This quantity's ratio for series `label` over series `baseline`
    /// of `a`; `None` when either series or gauge is missing.
    fn ratio(&self, a: &BenchArtifact, baseline: &str, label: &str) -> Option<f64> {
        let series = |l: &str| a.series.iter().find(|s| s.label == l);
        let (b, s) = (series(baseline)?, series(label)?);
        let (num, denom) = match self {
            Quantity::Throughput => (s.throughput_txn_s, b.throughput_txn_s),
            Quantity::Gauge(g) => (b.metrics.gauge(g)?, s.metrics.gauge(g)?),
        };
        (denom > 0.0).then(|| num / denom)
    }
}

impl Gate {
    fn to_json(&self) -> Json {
        match self {
            Gate::Figure => Json::obj(vec![("kind", Json::str("figure"))]),
            Gate::Ratio {
                of,
                baseline,
                floor,
            } => {
                let mut pairs = vec![("kind", Json::str("ratio"))];
                match of {
                    Quantity::Throughput => pairs.push(("of", Json::str("throughput"))),
                    Quantity::Gauge(g) => {
                        pairs.push(("of", Json::str("gauge")));
                        pairs.push(("gauge", Json::str(g)));
                    }
                }
                pairs.push(("baseline", Json::str(baseline)));
                pairs.push(("floor", Json::Num(*floor)));
                Json::obj(pairs)
            }
            Gate::Counter {
                metric,
                series,
                max,
            } => Json::obj(vec![
                ("kind", Json::str("counter")),
                ("metric", Json::str(metric)),
                ("series", Json::str(series)),
                ("max", Json::u64(*max)),
            ]),
        }
    }

    /// Parse one gate of an artifact whose `series` are already parsed:
    /// every field is required, a floor must be finite and positive, and
    /// a named series must exist.
    fn from_json(v: &Json, series: &[BenchSeries], ctx: &str) -> Result<Self, String> {
        let text = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{ctx}: missing {k}"))
        };
        let label = |k: &str| {
            let l = text(k)?;
            match series.iter().any(|s| s.label == l) {
                true => Ok(l),
                false => Err(format!("{ctx}: {k} names absent series {l:?}")),
            }
        };
        match v.get("kind").and_then(Json::as_str) {
            Some("figure") => Ok(Gate::Figure),
            Some("ratio") => {
                let of = match text("of")?.as_str() {
                    "throughput" => Quantity::Throughput,
                    "gauge" => Quantity::Gauge(text("gauge")?),
                    other => return Err(format!("{ctx}: unknown ratio quantity {other:?}")),
                };
                let floor = v
                    .get("floor")
                    .and_then(Json::as_f64)
                    .filter(|f| f.is_finite() && *f > 0.0)
                    .ok_or_else(|| format!("{ctx}: floor is not a finite positive number"))?;
                Ok(Gate::Ratio {
                    of,
                    baseline: label("baseline")?,
                    floor,
                })
            }
            Some("counter") => Ok(Gate::Counter {
                metric: text("metric")?,
                series: label("series")?,
                max: v
                    .get("max")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{ctx}: missing max"))?,
            }),
            other => Err(format!("{ctx}: unknown gate kind {other:?}")),
        }
    }

    /// Append this gate's comparisons of `base` against `cur` (the
    /// current run's artifact of the same figure, if any) to `out`.
    fn compare(
        &self,
        base: &BenchArtifact,
        cur: Option<&BenchArtifact>,
        out: &mut Vec<Comparison>,
    ) {
        let cur_series = |label: &str| cur.and_then(|a| a.series.iter().find(|s| s.label == label));
        let row = |label: &str, metric: String, unit, baseline: f64, current: f64, ok| Comparison {
            figure: base.figure.clone(),
            label: label.to_string(),
            metric,
            unit,
            baseline,
            current,
            ratio: ratio(baseline, current),
            ok,
        };
        match self {
            Gate::Figure => {
                for bs in &base.series {
                    let (b, label) = (bs.throughput_txn_s, bs.label.as_str());
                    let Some(cs) = cur_series(label) else {
                        out.push(row(label, "throughput".into(), "txn/s", b, 0.0, false));
                        continue;
                    };
                    let c = cs.throughput_txn_s;
                    let ok = ratio(b, c) >= 1.0 - TOLERANCE;
                    out.push(row(label, "throughput".into(), "txn/s", b, c, ok));
                    for &phase in GATED_PHASES {
                        let Some(bh) = bs.phases.get(phase) else {
                            continue;
                        };
                        let b = bh.mean_us as f64;
                        // A phase the current run no longer records
                        // counts as infinitely regressed, not absent.
                        let c = cs
                            .phases
                            .get(phase)
                            .map_or(f64::INFINITY, |h| h.mean_us as f64);
                        let ok = c <= b * (1.0 + TOLERANCE) + PHASE_SLACK_US;
                        out.push(row(label, format!("phase:{phase}"), "us mean", b, c, ok));
                    }
                }
            }
            Gate::Ratio {
                of,
                baseline,
                floor,
            } => {
                let (metric, unit) = match of {
                    Quantity::Throughput => ("speedup", "x over in-run baseline"),
                    Quantity::Gauge(_) => {
                        ("alloc_improvement", "x fewer allocs than in-run baseline")
                    }
                };
                for bs in base.series.iter().filter(|s| s.label != *baseline) {
                    // No in-run baseline series in the blessed artifact:
                    // nothing machine-portable to gate.
                    let Some(b) = of.ratio(base, baseline, &bs.label) else {
                        continue;
                    };
                    let c = cur.and_then(|a| of.ratio(a, baseline, &bs.label));
                    let threshold = (b * (1.0 - WALL_SLACK)).max(*floor);
                    let ok = c.is_some_and(|c| c >= threshold);
                    out.push(row(&bs.label, metric.into(), unit, b, c.unwrap_or(0.0), ok));
                }
            }
            Gate::Counter {
                metric,
                series,
                max,
            } => {
                for bs in base.series.iter().filter(|s| s.label == *series) {
                    // Every registered counter appears in every snapshot,
                    // so a missing one was renamed: that fails, the way a
                    // missing phase does, instead of reading as zero.
                    let b = bs.metrics.counter(metric).map(|b| b as f64);
                    let c = cur_series(series)
                        .and_then(|s| s.metrics.counter(metric))
                        .map_or(f64::INFINITY, |c| c as f64);
                    let ok = b.is_some_and(|b| {
                        c <= *max as f64 && c <= b * (1.0 + TOLERANCE) + COUNTER_SLACK
                    });
                    let (metric, b) = (format!("counter:{metric}"), b.unwrap_or(0.0));
                    out.push(row(series, metric, "(lower is better)", b, c, ok));
                }
            }
        }
    }
}

/// `current / baseline`, or 1.0 when the baseline is zero.
fn ratio(baseline: f64, current: f64) -> f64 {
    if baseline > 0.0 {
        current / baseline
    } else {
        1.0
    }
}

/// One `(figure, series, metric)` comparison of the regression gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    pub figure: String,
    pub label: String,
    /// What is compared: `throughput`, `phase:<name>`, `speedup`,
    /// `alloc_improvement` or `counter:<name>`.
    pub metric: String,
    /// How `baseline` and `current` read (`txn/s`, `us mean`, …).
    pub unit: &'static str,
    pub baseline: f64,
    pub current: f64,
    /// current / baseline (1.0 when the baseline is zero).
    pub ratio: f64,
    /// False when the series regressed beyond its gate or is missing
    /// from the current run.
    pub ok: bool,
}

impl Comparison {
    pub fn render(&self) -> String {
        format!(
            "{:4} {}/{} {}: baseline {:.1} {}, current {:.1} ({:+.1}%)",
            if self.ok { "ok" } else { "FAIL" },
            self.figure,
            self.label,
            self.metric,
            self.baseline,
            self.unit,
            self.current,
            (self.ratio - 1.0) * 100.0
        )
    }
}

/// Compare `current` against `baseline`: every gate of every baseline
/// artifact runs against the current artifact of the same figure.
/// Figures and series only in `current` are ignored (adding figures
/// never fails the gate).
pub fn compare_artifacts(baseline: &[BenchArtifact], current: &[BenchArtifact]) -> Vec<Comparison> {
    let mut out = Vec::new();
    for base in baseline {
        let cur = current.iter().find(|a| a.figure == base.figure);
        for gate in &base.gates {
            gate.compare(base, cur, &mut out);
        }
    }
    out
}

/// Schema-sanity validation of committed artifacts: every oddity a
/// hand-edited or drifted `BENCH_*.json` could carry that the gate
/// would otherwise silently mis-compare. Returns one message per
/// problem (empty = valid). Run by `benchcmp validate` in the lint
/// stage over every committed baseline; a malformed gate already fails
/// to parse.
pub fn validate_artifacts(artifacts: &[BenchArtifact]) -> Vec<String> {
    let mut errs = Vec::new();
    let mut figures = std::collections::BTreeSet::new();
    for a in artifacts {
        let fig = &a.figure;
        if fig.is_empty() {
            errs.push("artifact with empty figure name".into());
            continue;
        }
        if !figures.insert(fig.clone()) {
            errs.push(format!("{fig}: duplicate figure in one document"));
        }
        if a.series.is_empty() {
            errs.push(format!("{fig}: no series"));
        }
        for (key, _) in &a.config {
            if key.is_empty() {
                errs.push(format!("{fig}: empty config key"));
            }
        }
        for gate in &a.gates {
            match gate {
                Gate::Ratio {
                    of: Quantity::Gauge(g),
                    ..
                } => {
                    for s in a.series.iter().filter(|s| s.metrics.gauge(g).is_none()) {
                        errs.push(format!(
                            "{fig}/{}: gauge {g:?} missing from metrics",
                            s.label
                        ));
                    }
                }
                Gate::Counter { metric, series, .. } => {
                    let gated = a.series.iter().find(|s| s.label == *series);
                    if gated.is_some_and(|s| s.metrics.counter(metric).is_none()) {
                        errs.push(format!(
                            "{fig}/{series}: counter {metric:?} missing from metrics"
                        ));
                    }
                }
                Gate::Figure | Gate::Ratio { .. } => {}
            }
        }
        let mut labels = std::collections::BTreeSet::new();
        for s in &a.series {
            let label = &s.label;
            if label.is_empty() {
                errs.push(format!("{fig}: series with empty label"));
            }
            if !labels.insert(label.clone()) {
                errs.push(format!("{fig}: duplicate series label {label:?}"));
            }
            for (name, v) in [("throughput_txn_s", s.throughput_txn_s), ("tpmc", s.tpmc)] {
                if !v.is_finite() || v < 0.0 {
                    errs.push(format!(
                        "{fig}/{label}: {name} = {v} not a finite non-negative"
                    ));
                }
            }
            let mut hists: Vec<(String, &HistSummary)> = vec![("latency_us".into(), &s.latency)];
            hists.extend(s.phases.iter().map(|(k, h)| (format!("phases_us.{k}"), h)));
            for (name, h) in hists {
                let quantiles = [h.p50_us, h.p95_us, h.p99_us, h.p999_us];
                if quantiles.windows(2).any(|w| w[0] > w[1]) {
                    errs.push(format!("{fig}/{label}: {name} quantiles not monotone"));
                }
                if h.count > 0 && (h.min_us > h.max_us || h.mean_us > h.max_us) {
                    errs.push(format!("{fig}/{label}: {name} min/mean/max inconsistent"));
                }
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_simnet::stats::LatencyHistogram;
    use gdb_simnet::SimDuration;

    fn summary(vals_us: &[u64]) -> HistSummary {
        let mut h = LatencyHistogram::bounded();
        for &v in vals_us {
            h.record(SimDuration::from_micros(v));
        }
        HistSummary::of(&h)
    }

    fn artifact(figure: &str, label: &str, txn_s: f64) -> BenchArtifact {
        let mut a = BenchArtifact::new(figure);
        a.config_kv("scale", "tiny");
        a.config_kv("seed", 42);
        a.gates.push(Gate::Figure);
        a.series.push(BenchSeries {
            label: label.to_string(),
            throughput_txn_s: txn_s,
            tpmc: txn_s * 60.0 * 0.45,
            commits: 1000,
            aborts: 3,
            latency: summary(&[900, 1100, 5000]),
            phases: [
                ("execute".to_string(), summary(&[400, 500])),
                ("commit_wait".to_string(), summary(&[300, 4000])),
            ]
            .into_iter()
            .collect(),
            net: NetStats {
                wire_bytes: 1 << 20,
                raw_bytes: 1 << 21,
                batches: 64,
                cross_region_msgs: 100,
                cross_region_bytes: 1 << 18,
            },
            metrics: MetricsReport::default(),
        });
        a
    }

    #[test]
    fn artifact_round_trip() {
        let a = artifact("fig6a", "gclock", 123.5);
        let text = a.to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(BenchArtifact::from_json(&parsed).unwrap(), a);
        // Required top-level fields of the stable schema.
        for key in ["schema", "figure", "config", "gates", "series"] {
            assert!(parsed.get(key).is_some(), "missing {key}");
        }
        let s0 = &parsed.get("series").unwrap().as_arr().unwrap()[0];
        for key in ["throughput_txn_s", "latency_us", "phases_us", "net"] {
            assert!(s0.get(key).is_some(), "missing series.{key}");
        }
        assert!(s0.get("latency_us").unwrap().get("p99_us").is_some());
    }

    #[test]
    fn bundle_round_trip_and_single_load() {
        let arts = vec![
            artifact("fig1a", "tpcc", 50.0),
            artifact("fig6a", "gtm", 40.0),
        ];
        let doc = bundle(&arts).to_pretty();
        let loaded = load_artifacts(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(loaded, arts);
        // A single artifact document loads as a one-element list.
        let single = artifact("fig6b", "x", 1.0);
        let loaded = load_artifacts(&Json::parse(&single.to_pretty()).unwrap()).unwrap();
        assert_eq!(loaded, vec![single]);
        assert!(load_artifacts(&Json::obj(vec![("schema", Json::str("nope"))])).is_err());
    }

    #[test]
    fn chrome_trace_shape() {
        use crate::span::SpanKind;
        use gdb_simnet::SimTime;
        let mut tr = Tracer::default();
        tr.enable(16);
        let t = SimTime::from_micros;
        let txn = tr.record(SpanKind::Txn, 7, t(100), t(350));
        tr.record_child(txn, SpanKind::Execute, 7, t(100), t(200));
        tr.record_child(txn, SpanKind::CommitWait, 7, t(200), t(350));
        let other = tr.record(SpanKind::Transition, 0, t(400), t(900));
        tr.record_child(other, SpanKind::TransitionDualAcks, 0, t(400), t(900));

        let doc = Json::parse(&to_chrome_trace(&tr)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 5);
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(ev.get("pid").and_then(Json::as_u64), Some(1));
            for key in ["name", "ts", "dur", "tid", "args"] {
                assert!(ev.get(key).is_some(), "missing {key}");
            }
        }
        // Microsecond timestamps, straight from virtual time.
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(100.0));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(250.0));
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("txn"));
        // Children land on their root ancestor's track.
        let tid = |i: usize| events[i].get("tid").and_then(Json::as_u64).unwrap();
        assert_eq!(tid(1), tid(0));
        assert_eq!(tid(2), tid(0));
        assert_eq!(tid(4), tid(3));
        assert_ne!(tid(0), tid(3), "separate roots get separate tracks");
    }

    #[test]
    fn comparison_gate() {
        let base = vec![artifact("fig6a", "gclock", 100.0)];
        // Within tolerance: 15% down. The helper's series carries a
        // `commit_wait` phase, so a matched series yields a throughput
        // row plus one gated-phase row.
        let ok = compare_artifacts(&base, &[artifact("fig6a", "gclock", 85.0)]);
        assert_eq!(ok.len(), 2, "{ok:?}");
        assert_eq!(ok[1].metric, "phase:commit_wait");
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        // Beyond tolerance: 25% down.
        let bad = compare_artifacts(&base, &[artifact("fig6a", "gclock", 75.0)]);
        assert!(!bad[0].ok);
        assert!(bad[0].render().contains("FAIL"));
        assert!(bad[1].ok, "identical phase means must pass: {:?}", bad[1]);
        // Missing series fails (single row; no phase rows to compare).
        let missing = compare_artifacts(&base, &[artifact("fig6a", "gtm", 100.0)]);
        assert_eq!(missing.len(), 1);
        assert!(!missing[0].ok);
        // Faster never fails; extra current series ignored.
        let faster = compare_artifacts(
            &base,
            &[
                artifact("fig6a", "gclock", 140.0),
                artifact("fig9", "z", 1.0),
            ],
        );
        assert_eq!(faster.len(), 2);
        assert!(faster.iter().all(|c| c.ok));
    }

    /// A throughput ratio gate over `baseline` with `floor`.
    fn speedup(baseline: &str, floor: f64) -> Gate {
        Gate::Ratio {
            of: Quantity::Throughput,
            baseline: baseline.into(),
            floor,
        }
    }

    /// A wall-clock artifact: in-run `legacy` baseline plus a `fast`
    /// series, absolute numbers machine-local by construction, gated on
    /// the speedup with a 1.2x floor.
    fn wall_artifact(fast_eps: f64, legacy_eps: f64) -> BenchArtifact {
        let mut a = artifact("engine", "fast", fast_eps);
        a.gates = vec![speedup("legacy", 1.2)];
        a.series[0].phases.clear();
        let mut legacy = a.series[0].clone();
        legacy.label = "legacy".into();
        legacy.throughput_txn_s = legacy_eps;
        a.series.push(legacy);
        a
    }

    #[test]
    fn wall_clock_gate_compares_speedup_only() {
        // Blessed: 3x speedup at 6M events/s.
        let base = vec![wall_artifact(6_000_000.0, 2_000_000.0)];
        // A machine 10x slower in absolute terms but with the same
        // speedup passes — wall-clock absolutes are never gated.
        let out = compare_artifacts(&base, &[wall_artifact(600_000.0, 200_000.0)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].metric, "speedup");
        assert!(out[0].ok, "{out:?}");
        assert!(out[0].render().contains("x over in-run baseline"));
        // Speedup held within slack (3.0 -> 2.2 with 35% slack) passes.
        let out = compare_artifacts(&base, &[wall_artifact(4_400_000.0, 2_000_000.0)]);
        assert!(out[0].ok, "{out:?}");
        // Speedup collapsed to 1.1x: below both the relative slack and
        // the absolute floor — fails.
        let out = compare_artifacts(&base, &[wall_artifact(2_200_000.0, 2_000_000.0)]);
        assert!(!out[0].ok, "{out:?}");
        // Series missing from the current run fails.
        let mut gone = wall_artifact(1.0, 1.0);
        gone.series.retain(|s| s.label == "legacy");
        let out = compare_artifacts(&base, &[gone]);
        assert!(!out[0].ok, "{out:?}");
        // An informational artifact (no gates, or no baseline series to
        // take a ratio over) is never gated.
        let mut info = wall_artifact(5.0, 5.0);
        info.figure = "engine_cluster".into();
        info.gates.clear();
        assert!(compare_artifacts(&[info.clone()], &[]).is_empty());
        info.gates = vec![speedup("legacy", 1.2)];
        info.series.retain(|s| s.label == "fast");
        let out = compare_artifacts(&[info], &[]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn wall_clock_floor_binds_even_when_baseline_was_modest() {
        // Blessed speedup 1.5x: the 35% slack alone would allow 0.98x,
        // but the absolute floor keeps the gate at 1.2x.
        let base = vec![wall_artifact(1_500_000.0, 1_000_000.0)];
        let out = compare_artifacts(&base, &[wall_artifact(1_190_000.0, 1_000_000.0)]);
        assert!(!out[0].ok, "below floor must fail: {out:?}");
        let out = compare_artifacts(&base, &[wall_artifact(1_250_000.0, 1_000_000.0)]);
        assert!(out[0].ok, "above floor within slack must pass: {out:?}");
    }

    /// A realnet-shaped wall-clock artifact: the in-run baseline is the
    /// `thread` backend and the gated ratio (`tcp / thread`) sits below
    /// 1, so the gate names its own baseline and a collapse-only floor.
    fn realnet_artifact(tcp_eps: f64, thread_eps: f64) -> BenchArtifact {
        let mut a = artifact("realnet_smoke", "tcp", tcp_eps);
        a.gates = vec![speedup("thread", 0.02)];
        a.series[0].phases.clear();
        let mut thread = a.series[0].clone();
        thread.label = "thread".into();
        thread.throughput_txn_s = thread_eps;
        a.series.push(thread);
        a
    }

    #[test]
    fn wall_clock_gate_honors_config_baseline_and_floor() {
        // The gate's baseline and floor survive the JSON encoding.
        let a = realnet_artifact(1.0, 1.0);
        let parsed = BenchArtifact::from_json(&Json::parse(&a.to_pretty()).unwrap()).unwrap();
        assert_eq!(parsed.gates, vec![speedup("thread", 0.02)]);
        // Blessed ratio 0.5 (tcp at half the thread throughput): a
        // sub-1 ratio must be gateable, so a speedup-sized floor cannot
        // apply.
        let base = vec![realnet_artifact(500.0, 1_000.0)];
        let out = compare_artifacts(&base, &[realnet_artifact(40.0, 100.0)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].ok, "ratio 0.4 vs blessed 0.5 within slack: {out:?}");
        // Collapse below the relative slack fails even above the floor.
        let out = compare_artifacts(&base, &[realnet_artifact(10.0, 100.0)]);
        assert!(!out[0].ok, "ratio 0.1 vs blessed 0.5 must fail: {out:?}");
        // The custom floor still binds: a blessed ratio so small that
        // slack would allow near-zero is caught at 0.02.
        let tiny = vec![realnet_artifact(25.0, 1_000.0)];
        let out = compare_artifacts(&tiny, &[realnet_artifact(10.0, 1_000.0)]);
        assert!(!out[0].ok, "ratio 0.01 under floor 0.02 must fail: {out:?}");
    }

    /// A txn-bench-shaped wall-clock artifact: fast + legacy series with
    /// an allocations-per-transaction gauge, gated by a second ratio over
    /// that gauge with a 10x floor.
    fn alloc_artifact(fast_eps: f64, fast_allocs: f64, legacy_allocs: f64) -> BenchArtifact {
        let mut a = wall_artifact(fast_eps, 1_000_000.0);
        a.gates.push(Gate::Ratio {
            of: Quantity::Gauge("txn.allocs_per_txn".into()),
            baseline: "legacy".into(),
            floor: 10.0,
        });
        for (i, allocs) in [fast_allocs, legacy_allocs].into_iter().enumerate() {
            let mut m = crate::metrics::MetricsRegistry::default();
            m.gauge("txn.allocs_per_txn", allocs);
            a.series[i].metrics = m.snapshot();
        }
        a
    }

    #[test]
    fn wall_clock_gate_checks_alloc_improvement() {
        // Blessed: 3x speedup, 30x fewer allocations (0.9 vs 27).
        let base = vec![alloc_artifact(3_000_000.0, 0.9, 27.0)];
        let rows = |cur: &BenchArtifact| compare_artifacts(&base, std::slice::from_ref(cur));
        // Same shape passes and yields speedup + alloc rows.
        let out = rows(&alloc_artifact(3_000_000.0, 0.9, 27.0));
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(out[1].metric, "alloc_improvement");
        assert!(out.iter().all(|c| c.ok), "{out:?}");
        assert!(out[1].render().contains("x fewer allocs"));
        // Improvement held within slack (30x -> 21x with 35% slack).
        let out = rows(&alloc_artifact(3_000_000.0, 1.25, 27.0));
        assert!(out[1].ok, "{out:?}");
        // Fast path regressed to only 3x fewer allocations: below the
        // 10x floor — fails even though slack alone would be generous.
        let out = rows(&alloc_artifact(3_000_000.0, 9.0, 27.0));
        assert!(!out[1].ok, "{out:?}");
        // Gauge missing from the current run fails the alloc row.
        let mut gone = alloc_artifact(3_000_000.0, 0.9, 27.0);
        gone.series[0].metrics = MetricsReport::default();
        let out = rows(&gone);
        assert!(!out[1].ok, "{out:?}");
        // The speedup gate is unaffected by the alloc gate.
        assert_eq!(out[0].metric, "speedup");
        assert!(out[0].ok, "{out:?}");
    }

    /// A rebalance-ablation-shaped artifact: a static control plus a
    /// rebalancing series whose migration count is gated (ceiling 4,
    /// lower is better) next to the figure gate.
    fn counter_artifact(migrations: u64) -> BenchArtifact {
        let mut a = artifact("ablation_rebalance", "static-skew", 90.0);
        a.gates.push(Gate::Counter {
            metric: "rebalance.migrations_started".into(),
            series: "rebalance-skew".into(),
            max: 4,
        });
        let mut rebal = a.series[0].clone();
        rebal.label = "rebalance-skew".into();
        rebal.throughput_txn_s = 100.0;
        let mut m = crate::metrics::MetricsRegistry::default();
        let id = m.register_counter("rebalance.migrations_started");
        m.add(id, migrations);
        rebal.metrics = m.snapshot();
        a.series.push(rebal);
        a
    }

    #[test]
    fn counter_gate_is_lower_is_better_with_a_ceiling() {
        let base = vec![counter_artifact(3)];
        let rows = |cur: &BenchArtifact| compare_artifacts(&base, std::slice::from_ref(cur));
        let counter_row = |out: &[Comparison]| {
            out.iter()
                .find(|c| c.metric.starts_with("counter:"))
                .cloned()
                .unwrap()
        };
        // Same count passes; the gate applies only to the gated series.
        let out = rows(&counter_artifact(3));
        let counters: Vec<_> = out
            .iter()
            .filter(|c| c.metric.starts_with("counter:"))
            .collect();
        assert_eq!(counters.len(), 1, "{out:?}");
        assert_eq!(counters[0].label, "rebalance-skew");
        assert!(counters[0].ok, "{out:?}");
        assert!(counters[0].render().contains("(lower is better)"));
        // One fewer migration (an improvement) passes.
        let out = rows(&counter_artifact(2));
        assert!(out.iter().all(|c| c.ok), "{out:?}");
        // Past the absolute ceiling fails even against a high baseline.
        let out = rows(&counter_artifact(5));
        assert!(
            !counter_row(&out).ok,
            "count 5 over max 4 must fail: {out:?}"
        );
        // Ping-pong regression: under a far ceiling, still way past
        // baseline*(1+tol)+slack.
        let mut far = counter_artifact(3);
        far.gates[1] = Gate::Counter {
            metric: "rebalance.migrations_started".into(),
            series: "rebalance-skew".into(),
            max: 100,
        };
        let out = compare_artifacts(&[far], &[counter_artifact(16)]);
        assert!(!counter_row(&out).ok, "16 vs blessed 3 must fail: {out:?}");
        // A counter absent from the current snapshot was renamed, not
        // left at zero: the gate fails rather than passing vacuously.
        let mut renamed = counter_artifact(3);
        renamed.series[1].metrics = MetricsReport::default();
        let out = rows(&renamed);
        assert!(!counter_row(&out).ok, "missing counter must fail: {out:?}");
    }

    #[test]
    fn validate_catches_counter_gate_drift() {
        assert!(validate_artifacts(&[counter_artifact(3)]).is_empty());
        // The blessed gated series must carry the counter it is gated on.
        let mut a = counter_artifact(3);
        a.series[1].metrics = MetricsReport::default();
        assert!(validate_artifacts(&[a])
            .iter()
            .any(|e| e.contains("rebalance.migrations_started")));
        // Only the gated series needs it.
        let mut a = counter_artifact(3);
        a.series[0].metrics = MetricsReport::default();
        assert!(validate_artifacts(&[a]).is_empty());
    }

    #[test]
    fn validate_catches_schema_drift() {
        // A healthy document validates clean.
        let good = vec![
            artifact("fig1a", "tpcc", 50.0),
            alloc_artifact(3_000_000.0, 0.9, 27.0),
        ];
        assert!(
            validate_artifacts(&good).is_empty(),
            "{:?}",
            validate_artifacts(&good)
        );

        let errs = |arts: &[BenchArtifact]| validate_artifacts(arts);
        // Duplicate figures in one document.
        let dup = vec![artifact("fig1a", "a", 1.0), artifact("fig1a", "b", 1.0)];
        assert!(errs(&dup).iter().any(|e| e.contains("duplicate figure")));
        // Duplicate series labels.
        let mut a = artifact("fig1a", "x", 1.0);
        a.series.push(a.series[0].clone());
        assert!(errs(&[a])
            .iter()
            .any(|e| e.contains("duplicate series label")));
        // Non-finite throughput.
        let mut a = artifact("fig1a", "x", 1.0);
        a.series[0].throughput_txn_s = f64::NAN;
        assert!(errs(&[a]).iter().any(|e| e.contains("throughput_txn_s")));
        // Ratio gauge absent from a series' metrics.
        let mut a = alloc_artifact(3_000_000.0, 0.9, 27.0);
        a.series[1].metrics = MetricsReport::default();
        assert!(errs(&[a]).iter().any(|e| e.contains("txn.allocs_per_txn")));
        // Quantile ordering violated.
        let mut a = artifact("fig1a", "x", 1.0);
        a.series[0].latency.p95_us = a.series[0].latency.p99_us + 1_000_000;
        assert!(errs(&[a]).iter().any(|e| e.contains("not monotone")));
        // Empty figure and empty series list.
        assert!(!errs(&[BenchArtifact::new("")]).is_empty());
        assert!(errs(&[BenchArtifact::new("f")])
            .iter()
            .any(|e| e.contains("no series")));

        // A malformed gate does not even parse.
        let parse_err = |text: &str| {
            BenchArtifact::from_json(&Json::parse(text).unwrap())
                .expect_err("malformed gate must not parse")
        };
        // Unknown gate kind.
        let text = artifact("fig1a", "x", 1.0).to_pretty();
        let text = text.replace(r#""kind": "figure""#, r#""kind": "speedup""#);
        assert!(parse_err(&text).contains("unknown gate kind"));
        // Non-finite or non-positive floor.
        for floor in [f64::NAN, f64::INFINITY, 0.0, -1.5] {
            let mut a = wall_artifact(2.0, 1.0);
            a.gates = vec![speedup("legacy", floor)];
            assert!(parse_err(&a.to_pretty()).contains("floor"), "{floor}");
        }
        // A gate naming an absent series: a ratio baseline, a counter's
        // gated series.
        let mut a = wall_artifact(2.0, 1.0);
        a.gates = vec![speedup("thread", 1.2)];
        assert!(parse_err(&a.to_pretty()).contains("absent series"));
        let mut a = counter_artifact(3);
        a.gates[1] = Gate::Counter {
            metric: "rebalance.migrations_started".into(),
            series: "ghost".into(),
            max: 4,
        };
        assert!(parse_err(&a.to_pretty()).contains("absent series"));
    }
    #[test]
    fn comparison_gate_catches_phase_regressions() {
        let phased = |commit_wait_us: &[u64]| {
            let mut a = artifact("fig6a", "gclock", 100.0);
            a.series[0].phases = [
                ("commit_wait".to_string(), summary(commit_wait_us)),
                ("replication_ack".to_string(), summary(&[800, 1200])),
            ]
            .into_iter()
            .collect();
            a
        };
        let base = vec![phased(&[2000, 2200])];
        // Throughput unchanged, commit-wait mean tripled: the phase row
        // fails even though the throughput row passes.
        let out = compare_artifacts(&base, &[phased(&[6000, 6600])]);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[0].ok, "throughput row: {:?}", out[0]);
        assert_eq!(out[1].metric, "phase:commit_wait");
        assert!(!out[1].ok, "tripled commit wait must fail: {:?}", out[1]);
        assert!(out[1].render().contains("us mean"));
        assert_eq!(out[2].metric, "phase:replication_ack");
        assert!(out[2].ok);
        // A current run that dropped a gated phase entirely fails it.
        let mut gone = phased(&[2000, 2200]);
        gone.series[0].phases.remove("commit_wait");
        let out = compare_artifacts(&base, &[gone]);
        assert!(!out[1].ok, "missing phase must fail: {:?}", out[1]);
        // Tiny phases live inside the absolute slack: a jump from 5 µs
        // to 40 µs is noise, not a regression.
        let out = compare_artifacts(&[phased(&[5, 5])], &[phased(&[40, 40])]);
        assert!(out[1].ok, "sub-slack phase flagged: {:?}", out[1]);
    }
}
