//! The traced mode: wall-clock spans recorded from outside the program.
//!
//! Spans wrap the benchmark's calls into each layer's public entry points
//! (`Cluster::run_until`, `Workload::run_one`, `Cluster::run_transaction`,
//! `TxnHandle::execute`) and every `Transport::deliver`, reached through
//! [`CountingTransport`], a delegating transport around the default
//! `SimTransport`. Spans are kept in memory (up to [`SPAN_CAP`]; totals
//! keep accumulating past it) and written out when the run ends.
//!
//! The recorder is thread-local: the cluster, the driver loop and the
//! transport all run on the benchmark's one thread, and a transport must
//! be `Send`, so it cannot hold a shared handle to the recorder itself.
//! With no recorder installed every hook is a single thread-local check.

use gdb_simnet::Topology;
use globaldb::{Envelope, SimDuration, SimTransport, Transport};
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Spans kept in memory per run; later spans still count in the totals.
pub const SPAN_CAP: usize = 1 << 18;

/// The layer boundary a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The driver loop's own work: picking the next terminal, recording
    /// the outcome, checking results.
    Driver,
    RunUntil,
    RunOne,
    RunTransaction,
    Execute,
    Deliver,
}

pub const SPAN_KINDS: usize = 6;

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Driver => "driver",
            SpanKind::RunUntil => "run_until",
            SpanKind::RunOne => "run_one",
            SpanKind::RunTransaction => "run_transaction",
            SpanKind::Execute => "execute",
            SpanKind::Deliver => "deliver",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder started;
/// `parent` indexes the enclosing span in the same run, if any.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub txn: u64,
}

/// Messages seen by [`CountingTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    pub msgs: u64,
    pub bytes: u64,
    pub cross_region_msgs: u64,
}

impl Traffic {
    /// `self - earlier`, field by field.
    pub fn since(self, earlier: Traffic) -> Traffic {
        Traffic {
            msgs: self.msgs - earlier.msgs,
            bytes: self.bytes - earlier.bytes,
            cross_region_msgs: self.cross_region_msgs - earlier.cross_region_msgs,
        }
    }
}

/// What a traced run accumulated: inclusive wall time and call count per
/// span kind, the message traffic seen by [`CountingTransport`], and the
/// retained spans.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub ns: [u64; SPAN_KINDS],
    pub calls: [u64; SPAN_KINDS],
    pub traffic: Traffic,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

impl Totals {
    pub fn ns(&self, kind: SpanKind) -> u64 {
        self.ns[kind as usize]
    }

    pub fn calls(&self, kind: SpanKind) -> u64 {
        self.calls[kind as usize]
    }

    /// Write the retained spans as JSON lines, one span per line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"txn\":{}}}",
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.txn
            )?;
        }
        out.flush()
    }
}

struct Recorder {
    epoch: Instant,
    /// Open spans: kind, start, index in `totals.spans` (if retained).
    stack: Vec<(SpanKind, u64, Option<u32>)>,
    txn: u64,
    totals: Totals,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, discarding any earlier recording.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            txn: 0,
            totals: Totals::default(),
        })
    });
}

/// Stop recording and return what was recorded (empty if not started).
pub fn finish() -> Totals {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.totals)
        .unwrap_or_default()
}

/// Traffic counted so far by [`CountingTransport`] (zero when not
/// recording).
pub fn traffic() -> Traffic {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map_or_else(Traffic::default, |rec| rec.totals.traffic)
    })
}

/// The transaction id later spans carry.
pub fn set_txn(txn: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.txn = txn;
        }
    });
}

fn open(kind: SpanKind) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let parent = rec.stack.last().and_then(|s| s.2);
            let slot = if rec.totals.spans.len() < SPAN_CAP {
                rec.totals.spans.push(Span {
                    kind,
                    start_ns: 0,
                    end_ns: 0,
                    parent,
                    txn: rec.txn,
                });
                Some((rec.totals.spans.len() - 1) as u32)
            } else {
                rec.totals.spans_dropped += 1;
                None
            };
            let start = rec.epoch.elapsed().as_nanos() as u64;
            if let Some(i) = slot {
                rec.totals.spans[i as usize].start_ns = start;
            }
            rec.stack.push((kind, start, slot));
        }
    });
}

fn close() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end = rec.epoch.elapsed().as_nanos() as u64;
            let (kind, start, slot) = rec.stack.pop().expect("close matches an open span");
            rec.totals.ns[kind as usize] += end - start;
            rec.totals.calls[kind as usize] += 1;
            if let Some(i) = slot {
                rec.totals.spans[i as usize].end_ns = end;
            }
        }
    });
}

/// Run `f` inside a span of `kind` (just `f` when not recording).
pub fn span<R>(kind: SpanKind, f: impl FnOnce() -> R) -> R {
    open(kind);
    let out = f();
    close();
    out
}

/// A delegating transport: delivery is exactly `SimTransport`'s (one
/// `topo.one_way` call per envelope, so virtual time and the topology RNG
/// are untouched); around it the recorder counts messages, bytes and
/// cross-region messages and times the call.
#[derive(Debug, Default)]
pub struct CountingTransport {
    inner: SimTransport,
}

impl Transport for CountingTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn deliver(&mut self, topo: &mut Topology, env: Envelope) -> Option<SimDuration> {
        let cross = topo.node_region(env.from) != topo.node_region(env.to);
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let t = &mut rec.totals.traffic;
                t.msgs += 1;
                t.bytes += env.bytes;
                t.cross_region_msgs += u64::from(cross);
            }
        });
        span(SpanKind::Deliver, || self.inner.deliver(topo, env))
    }
}
