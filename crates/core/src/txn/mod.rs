//! Transaction execution: the [`TxnHandle`] drives SQL plans against the
//! distributed cluster, accumulating latency from every message the
//! transaction would send (shard RTTs, GTM round trips, lock waits, commit
//! waits, 2PC rounds, quorum waits). Every message goes through the typed
//! message plane ([`crate::net::MessagePlane`]), so per-[`RpcKind`]
//! traffic and latency are accounted at one chokepoint.
//!
//! The pipeline is phase-structured: begin acquires the snapshot
//! ([`TxnHandle::begin`]), the statement operations in [`ops`] accumulate
//! reads/locks/staged writes, and [`commit`] runs the explicit commit
//! phases — prepare → commit-point → commit-wait → replicate-ack — each
//! returning a phase-state struct that carries its timing boundaries.

mod commit;
mod ops;

use crate::cluster::GlobalDb;
use crate::config::RoutingPolicy;
use crate::net::RpcKind;
use gdb_model::{Datum, GdbError, GdbResult, Row, RowKey, TableId, Timestamp, TxnId};
use gdb_simnet::{SimDuration, SimTime};
use gdb_sqlengine::{execute, ExecOutput, Prepared};
use gdb_txnmgr::BeginPlan;
use gdb_wal::RedoPayload;
use std::collections::{BTreeSet, HashMap};

/// Nominal request/response payload size for point operations.
const OP_MSG_BYTES: u64 = 256;
/// Placeholder lock lease; replaced with the exact commit-apply time at
/// commit (nothing else runs between acquire and commit within one event).
const LOCK_LEASE: SimDuration = SimDuration(10_000_000_000);

#[derive(Debug, Clone)]
struct WriteOp {
    shard: usize,
    table: TableId,
    key: RowKey,
    /// `None` = delete.
    row: Option<Row>,
}

/// What happened to one transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnOutcome {
    /// Commit timestamp (None for pure reads in ROR mode, which carry the
    /// RCP snapshot instead).
    pub commit_ts: Option<Timestamp>,
    /// The snapshot the transaction read at.
    pub snapshot: Timestamp,
    /// Virtual time the client observed completion.
    pub completed_at: SimTime,
    /// End-to-end latency as the client saw it.
    pub latency: SimDuration,
    /// Which shards the transaction wrote.
    pub shards_written: Vec<usize>,
    /// True if any read was served by a replica.
    pub used_replica: bool,
    /// True if the transaction rolled back instead of committing.
    pub aborted: bool,
}

/// An open transaction bound to one computing node.
pub struct TxnHandle<'a> {
    pub(crate) db: &'a mut GlobalDb,
    cn: usize,
    txn: TxnId,
    started_at: SimTime,
    /// When snapshot acquisition finished (phase boundary for
    /// observability; the begin→begin_done interval is the
    /// `snapshot_acquire` phase).
    begin_done: SimTime,
    /// The running virtual-time cursor (start + accumulated latency).
    pub now: SimTime,
    snapshot: Timestamp,
    /// Routing epoch the CN's route table carried when this transaction
    /// began. Every shard access validates it against the shard's
    /// `owner_epoch`; a migration cutover between begin and the access
    /// yields a retryable [`GdbError::StaleRoute`].
    pub(crate) route_epoch: u64,
    /// True while this transaction reads at the RCP from replicas.
    ror: bool,
    freshness_bound: Option<SimDuration>,
    single_shard_hint: bool,
    overlay: HashMap<(TableId, RowKey), Option<Row>>,
    write_log: Vec<WriteOp>,
    first_write: HashMap<usize, SimTime>,
    locked: Vec<(usize, TableId, RowKey)>,
    shards_written: BTreeSet<usize>,
    used_replica: bool,
    finished: bool,
    /// Set once a COMMIT / COMMIT_PREPARED record has been appended to any
    /// shard's redo log: past this point a failure must not emit ABORT
    /// records (the replicas may already have replayed the commit).
    commit_appended: bool,
}

impl<'a> TxnHandle<'a> {
    pub(crate) fn begin(
        db: &'a mut GlobalDb,
        cn: usize,
        at: SimTime,
        read_only: bool,
        single_shard: bool,
    ) -> GdbResult<Self> {
        if db.topo.is_node_down(db.cns[cn].node) {
            return Err(GdbError::NodeUnavailable(format!("cn {cn} is down")));
        }
        db.sync_cn_clock(cn, at);
        let route_epoch = db.cns[cn].route_epoch;
        let mut now = at;
        let mut ror = false;
        let mut freshness_bound = None;
        let mut snapshot = Timestamp::ZERO;

        if read_only {
            if let RoutingPolicy::ReadOnReplica {
                freshness_bound: fb,
            } = db.config.routing
            {
                let rcp = db.cns[cn].rcp;
                if rcp > Timestamp::ZERO {
                    ror = true;
                    freshness_bound = fb;
                    snapshot = rcp;
                }
            }
        }
        if !ror {
            match db.cns[cn].tm.plan_begin(now, single_shard) {
                BeginPlan::ViaGtm => {
                    let cn_node = db.cns[cn].node;
                    let gtm_node = db.gtm_node;
                    let rtt = db
                        .plane
                        .rtt(&mut db.topo, RpcKind::GtmBeginTs, cn_node, gtm_node)
                        .ok_or_else(|| GdbError::NodeUnavailable("GTM unreachable".into()))?;
                    now += rtt;
                    snapshot = db.gtm.begin_snapshot();
                }
                BeginPlan::Local {
                    snapshot: s,
                    invocation_wait,
                } => {
                    now += invocation_wait;
                    snapshot = s;
                }
            }
        }

        let txn = db.next_txn_id(cn);
        Ok(TxnHandle {
            db,
            cn,
            txn,
            started_at: at,
            begin_done: now,
            now,
            snapshot,
            route_epoch,
            ror,
            freshness_bound,
            single_shard_hint: single_shard,
            overlay: HashMap::new(),
            write_log: Vec::new(),
            first_write: HashMap::new(),
            locked: Vec::new(),
            shards_written: BTreeSet::new(),
            used_replica: false,
            finished: false,
            commit_appended: false,
        })
    }

    /// The snapshot this transaction reads at.
    pub fn snapshot(&self) -> Timestamp {
        self.snapshot
    }

    /// True while reads are served from replicas at the RCP.
    pub fn is_ror(&self) -> bool {
        self.ror
    }

    /// Execute a prepared statement inside this transaction.
    pub fn execute(&mut self, prepared: &Prepared, params: &[Datum]) -> GdbResult<ExecOutput> {
        if matches!(prepared.bound, gdb_sqlengine::BoundStatement::Ddl(_)) {
            return Err(GdbError::Plan(
                "DDL cannot run inside a transaction; use Cluster::ddl".into(),
            ));
        }
        if self.ror {
            if !prepared.bound.is_read_only() {
                return Err(GdbError::Execution(
                    "write statement in a read-only (ROR) transaction".into(),
                ));
            }
            // DDL-visibility conditions (§IV-A): if the query's tables have
            // unreplayed DDL, fall back to primary reads for the whole txn.
            if !self
                .db
                .ddl
                .ror_allowed(self.snapshot, &prepared.bound.tables())
            {
                self.db
                    .obs
                    .metrics
                    .bump(self.db.hot.router.ror_rejected_ddl);
                self.fallback_to_primary()?;
            }
        }
        execute(&prepared.bound, params, self)
    }

    /// Downgrade an ROR transaction to primary reads (DDL gate or
    /// persistent replica blockage): acquire a normal snapshot.
    fn fallback_to_primary(&mut self) -> GdbResult<()> {
        self.ror = false;
        let db = &mut *self.db;
        match db.cns[self.cn]
            .tm
            .plan_begin(self.now, self.single_shard_hint)
        {
            BeginPlan::ViaGtm => {
                let cn_node = db.cns[self.cn].node;
                let gtm_node = db.gtm_node;
                let rtt = db
                    .plane
                    .rtt(&mut db.topo, RpcKind::GtmBeginTs, cn_node, gtm_node)
                    .ok_or_else(|| GdbError::NodeUnavailable("GTM unreachable".into()))?;
                self.now += rtt;
                self.snapshot = db.gtm.begin_snapshot();
            }
            BeginPlan::Local {
                snapshot,
                invocation_wait,
            } => {
                self.now += invocation_wait;
                self.snapshot = snapshot;
            }
        }
        Ok(())
    }

    fn abort_inner(&mut self) {
        for (shard, table, key) in std::mem::take(&mut self.locked) {
            self.db.shards[shard]
                .storage
                .locks
                .set_release(table, &key, self.txn, self.now);
        }
        for &s in &self.shards_written.clone() {
            self.db.shards[s]
                .log
                .append(self.now, self.txn, RedoPayload::Abort);
        }
        self.overlay.clear();
        self.write_log.clear();
        self.finished = true;
    }

    /// Abort the transaction: release locks, discard buffered writes, and
    /// emit ABORT records so replicas unlock the tuples. Returns the
    /// rolled-back outcome (snapshot, latency, replica use).
    pub fn abort(mut self) -> TxnOutcome {
        self.abort_inner();
        TxnOutcome {
            commit_ts: None,
            snapshot: self.snapshot,
            completed_at: self.now,
            latency: self.now.since(self.started_at),
            shards_written: vec![],
            used_replica: self.used_replica,
            aborted: true,
        }
    }
}
