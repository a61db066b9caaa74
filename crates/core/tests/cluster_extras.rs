//! Additional cluster behaviours: statement atomicity, GTM-mode ROR,
//! automatic clock-failure fallback, freshness-bound accounting, and the
//! registry counters the cluster keeps at the source.

use gdb_consistency::metrics as consistency;
use gdb_replication::metrics::REDO_RECORDS_TRIMMED;
use gdb_router::metrics as router;
use gdb_storage::metrics::PRESSURE_COMPACTIONS;
use gdb_txnmgr::metrics as txnmgr;
use globaldb::migrate::metrics as migrate;
use globaldb::{
    Cluster, ClusterConfig, Datum, GdbError, SimDuration, SimTime, TmMode, TransitionDirection,
};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn kv_cluster(config: ClusterConfig) -> Cluster {
    let mut c = Cluster::new(config);
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    c.bulk_load(
        table,
        (0..50i64)
            .map(|i| gdb_model::Row(vec![Datum::Int(i), Datum::Int(0)]))
            .collect(),
    )
    .unwrap();
    c.finish_load();
    c
}

/// Multi-row INSERT is one transaction on the cluster: a duplicate in the
/// middle rolls the whole statement back.
#[test]
fn multi_row_insert_is_atomic() {
    let mut c = kv_cluster(ClusterConfig::globaldb_one_region());
    let err = c
        .execute_sql(
            0,
            t(10),
            "INSERT INTO kv VALUES (100, 1), (3, 1), (101, 1)",
            &[],
        )
        .unwrap_err();
    assert!(matches!(err, GdbError::DuplicateKey(_)));
    // Neither 100 nor 101 exists: the statement rolled back atomically.
    let (out, _) = c
        .execute_sql(
            0,
            t(50),
            "SELECT COUNT(*) FROM kv WHERE k BETWEEN 100 AND 101",
            &[],
        )
        .unwrap();
    assert_eq!(out.scalar_int(), Some(0));
}

/// ROR also works in centralized GTM mode, using the GTM-rate staleness
/// estimator (paper §IV-B: "When running under GTM mode, we estimate the
/// staleness based on the gap between the RCP and the last committed
/// timestamp, and the rate at which new timestamps were issued").
#[test]
fn ror_in_gtm_mode() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.tm_mode = TmMode::Gtm;
    let mut c = kv_cluster(config);
    // Generate commits so the GTM issue rate is non-zero.
    for i in 0..30u64 {
        c.execute_sql(
            (i % 3) as usize,
            t(10) + SimDuration::from_millis(i * 5),
            "UPDATE kv SET v = v + 1 WHERE k = ?",
            &[Datum::Int((i % 50) as i64)],
        )
        .unwrap();
    }
    c.run_until(t(800));
    // Pick a key whose shard primary is NOT co-hosted with the reading CN
    // (otherwise reading the local primary is the optimal choice).
    let table = c.db.catalog().table_by_name("kv").unwrap().clone();
    let cn1_host = c.db.topo().node_host(c.db.cns()[1].node);
    let key = (0..50i64)
        .find(|&k| {
            let s = table
                .shard_of_pk(&gdb_model::RowKey::single(k), c.db.shards().len() as u16)
                .0 as usize;
            c.db.topo().node_host(c.db.shards()[s].primary) != cn1_host
        })
        .expect("remote-shard key");
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let ((), o) = c
        .run_transaction(1, t(810), true, true, |txn| {
            assert!(txn.is_ror());
            txn.execute(&sel, &[Datum::Int(key)]).map(|_| ())
        })
        .unwrap();
    assert!(o.used_replica, "GTM-mode ROR must serve from replicas");
    assert!(o.snapshot > globaldb::Timestamp::ZERO);
}

/// A clock synchronization failure triggers the automatic online fallback
/// to GTM mode (paper: "keeps the system fully operational in the event of
/// a clock synchronization failure").
#[test]
fn clock_failure_auto_falls_back_to_gtm() {
    let mut c = kv_cluster(ClusterConfig::globaldb_one_region());
    assert_eq!(c.db.cn_mode(0), TmMode::GClock);
    // Clock fault on CN 1.
    c.db.cns_mut()[1].tm.gclock.set_healthy(false);
    // The heartbeat watchdog picks it up and drives the transition.
    c.run_until(t(2000));
    assert_eq!(
        c.db.last_transition_completed(),
        Some(TransitionDirection::ToGtm)
    );
    for cn in 0..3 {
        assert_eq!(c.db.cn_mode(cn), TmMode::Gtm);
    }
    // Writes keep working afterwards.
    c.execute_sql(1, t(2010), "UPDATE kv SET v = 9 WHERE k = 1", &[])
        .unwrap();
}

/// An unsatisfiable freshness bound with a dead primary is counted and
/// still answered (by whatever is reachable).
#[test]
fn freshness_bound_with_dead_primary_counts_rejections() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.routing = globaldb::RoutingPolicy::ReadOnReplica {
        // Nothing is ever this fresh except the primary itself.
        freshness_bound: Some(SimDuration::from_nanos(1)),
    };
    let mut c = kv_cluster(config);
    c.run_until(t(300));
    // With the primary up: bound satisfied by the primary, no rejections.
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let ((), o) = c
        .run_transaction(0, t(310), true, true, |txn| {
            txn.execute(&sel, &[Datum::Int(1)]).map(|_| ())
        })
        .unwrap();
    assert!(!o.used_replica, "1ns bound forces primary reads");
    let rejected = c.db.obs().metrics.counter(router::ROR_REJECTED_FRESHNESS);
    assert_eq!(rejected, 0);
}

/// (committed, aborted, latency samples) as the registry has them.
fn txn_counts(c: &Cluster) -> (u64, u64, usize) {
    let m = &c.db.obs().metrics;
    (
        m.counter(txnmgr::COMMITTED),
        m.counter(txnmgr::ABORTED),
        m.histogram(txnmgr::LATENCY_US).map_or(0, |h| h.len()),
    )
}

/// Both abort paths — the transaction body fails, or its commit fails —
/// count one abort, no commit, and no client-visible latency sample.
#[test]
fn aborts_count_as_aborts_not_commits() {
    let mut c = kv_cluster(ClusterConfig::globaldb_one_region());
    let upd = c.prepare("UPDATE kv SET v = ? WHERE k = ?").unwrap();
    let write = |k: i64| [Datum::Int(k), Datum::Int(k)];
    c.run_transaction(0, t(100), false, true, |txn| {
        txn.execute(&upd, &write(1)).map(|_| ())
    })
    .unwrap();
    assert_eq!(txn_counts(&c), (1, 0, 1));

    // The body errs after a write: the handle rolls back.
    let err = c
        .run_transaction(0, t(200), false, true, |txn| {
            txn.execute(&upd, &write(2))?;
            Err::<(), _>(GdbError::TxnAborted("client rollback".into()))
        })
        .unwrap_err();
    assert!(matches!(err, GdbError::TxnAborted(_)), "{err}");
    assert_eq!(txn_counts(&c), (1, 1, 1));

    // The commit fails: CN 0 still plans in GTM mode while the GTM runs
    // GClock mode, so its commit is a straggler the GTM refuses.
    c.db.cns_mut()[0].tm.mode = TmMode::Gtm;
    let err = c
        .run_transaction(0, t(300), false, true, |txn| {
            txn.execute(&upd, &write(3)).map(|_| ())
        })
        .unwrap_err();
    assert!(matches!(err, GdbError::TxnAborted(_)), "{err}");
    assert_eq!(txn_counts(&c), (1, 2, 1));
}

/// The cluster's event counters are listed from the first snapshot on,
/// at 0 before any event.
#[test]
fn first_snapshot_lists_event_counters_at_zero() {
    let mut c = Cluster::new(ClusterConfig::globaldb_one_region());
    let snap = c.metrics_snapshot();
    for name in [
        txnmgr::COMMITTED,
        txnmgr::ABORTED,
        txnmgr::LOCK_WAITS,
        txnmgr::COMMIT_WAIT_TOTAL_US,
        router::READS_ON_REPLICA,
        router::READS_ON_PRIMARY,
        router::REPLICA_BLOCKED_FALLBACKS,
        router::STALE_ROUTE_REJECTS,
        consistency::RCP_ROUNDS,
        consistency::RCP_ROUNDS_ABANDONED,
        consistency::COLLECTOR_FAILOVERS,
        consistency::HEARTBEATS_SENT,
        consistency::VERSIONS_VACUUMED,
        migrate::MIGRATIONS_STARTED,
        migrate::MIGRATIONS_COMPLETED,
        migrate::MIGRATIONS_ABORTED,
    ] {
        assert_eq!(snap.counter(name), Some(0), "{name}");
    }
}

/// Arena-pressure compactions and shipping-buffer trims are counted at
/// the vacuum tick, under names outside the `replication.ship` prefix
/// the operator console dumps.
#[test]
fn vacuum_counts_pressure_compactions_and_trimmed_redo() {
    assert_eq!(REDO_RECORDS_TRIMMED, "replication.redo_records_trimmed");
    assert_eq!(
        router::ROR_REJECTED_FRESHNESS,
        "router.ror_rejected_freshness"
    );
    assert_eq!(router::ROR_REJECTED_DDL, "router.ror_rejected_ddl");
    assert!(!REDO_RECORDS_TRIMMED.starts_with("replication.ship"));

    let mut config = ClusterConfig::globaldb_one_region();
    config.vacuum_interval = Some(SimDuration::from_millis(200));
    config.arena_soft_limit_bytes = Some(1);
    let mut c = kv_cluster(config);
    for i in 0..20u64 {
        c.execute_sql(
            0,
            t(10 + i * 5),
            "UPDATE kv SET v = ? WHERE k = ?",
            &[Datum::Int(i as i64), Datum::Int((i % 5) as i64)],
        )
        .unwrap();
    }
    c.run_until(t(1000));
    let snap = c.metrics_snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert!(
        count(PRESSURE_COMPACTIONS) > 0 && count(REDO_RECORDS_TRIMMED) > 0,
        "compactions {}, trimmed {}",
        count(PRESSURE_COMPACTIONS),
        count(REDO_RECORDS_TRIMMED)
    );
}

/// Replica freshness is a first-class metrics surface: the snapshot
/// carries one RCP-lag gauge and one log-ship backlog gauge per
/// (shard, replica), under the names the operator console reads.
#[test]
fn metrics_snapshot_carries_replica_lag_gauges() {
    let mut c = kv_cluster(ClusterConfig::globaldb_three_city());
    c.execute_sql(0, t(100), "UPDATE kv SET v = 1 WHERE k = 7", &[])
        .unwrap();
    c.run_until(t(500));
    let snap = c.metrics_snapshot();
    for s in 0..c.db.shards().len() {
        for r in 0..c.db.shards()[s].replicas.len() {
            let lag = gdb_replication::metrics::replica_rcp_lag_gauge(s, r);
            let backlog = gdb_replication::metrics::replica_backlog_gauge(s, r);
            let lag_v = snap
                .gauge(&lag)
                .unwrap_or_else(|| panic!("missing gauge {lag}"));
            assert!(lag_v >= 0.0);
            assert!(snap.gauge(&backlog).is_some(), "missing gauge {backlog}");
        }
    }
    // The exact names are an API other tooling greps for; pin them.
    assert!(snap.gauge("replication.replica_rcp_lag_us.s0.r0").is_some());
    assert!(snap
        .gauge("replication.replica_backlog_records.s0.r0")
        .is_some());
}
