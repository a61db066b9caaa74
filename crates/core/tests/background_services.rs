//! Background-service tests: collector-CN failover for RCP distribution,
//! and the periodic vacuum pruning MVCC versions below the RCP horizon.

use gdb_consistency::metrics::VERSIONS_VACUUMED;
use globaldb::{Cluster, ClusterConfig, Datum, SimDuration, SimTime};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

#[test]
fn rcp_survives_collector_cn_failure() {
    let mut c = Cluster::new(ClusterConfig::globaldb_one_region());
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    c.execute_sql(0, t(5), "INSERT INTO kv VALUES (1, 0)", &[])
        .unwrap();
    c.run_until(t(300));
    let rcp_before = c.db.cn_rcp(1);
    assert!(rcp_before.as_micros() > 0);

    // Kill CN 0 — the initial collector.
    let cn0 = c.db.cns()[0].node;
    c.db.topo_mut().set_node_down(cn0, true);
    c.run_until(t(800));
    let rcp_after = c.db.cn_rcp(1);
    assert!(
        rcp_after > rcp_before,
        "a surviving CN must take over RCP collection: {rcp_before:?} vs {rcp_after:?}"
    );

    // CN 0 comes back: it resumes receiving the RCP and stays monotone.
    c.db.topo_mut().set_node_down(cn0, false);
    let rcp_cn0_at_revival = c.db.cn_rcp(0);
    c.run_until(t(1200));
    assert!(c.db.cn_rcp(0) > rcp_cn0_at_revival);
}

#[test]
fn periodic_vacuum_prunes_dead_versions() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.vacuum_interval = Some(SimDuration::from_millis(500));
    let mut c = Cluster::new(config);
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    c.execute_sql(0, t(5), "INSERT INTO kv VALUES (1, 0)", &[])
        .unwrap();
    // Hammer one row with updates: a long version chain accumulates.
    for i in 0..50u64 {
        c.execute_sql(
            0,
            t(10) + SimDuration::from_millis(i * 4),
            "UPDATE kv SET v = ? WHERE k = 1",
            &[Datum::Int(i as i64)],
        )
        .unwrap();
    }
    // After the vacuum interval (and RCP catching up), old versions go.
    c.run_until(t(3000));
    assert!(
        c.db.obs().metrics.counter(VERSIONS_VACUUMED) > 20,
        "vacuum must prune the dead chain: {}",
        c.db.obs().metrics.counter(VERSIONS_VACUUMED)
    );
    // The newest value is intact.
    let (out, _) = c
        .execute_sql(0, t(3010), "SELECT v FROM kv WHERE k = 1", &[])
        .unwrap();
    assert_eq!(out.rows()[0].0[0], Datum::Int(49));
}

#[test]
fn vacuum_disabled_keeps_versions() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.vacuum_interval = None;
    let mut c = Cluster::new(config);
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    c.execute_sql(0, t(5), "INSERT INTO kv VALUES (1, 0)", &[])
        .unwrap();
    for i in 0..20u64 {
        c.execute_sql(
            0,
            t(10) + SimDuration::from_millis(i * 4),
            "UPDATE kv SET v = ? WHERE k = 1",
            &[Datum::Int(i as i64)],
        )
        .unwrap();
    }
    c.run_until(t(3000));
    assert_eq!(c.db.obs().metrics.counter(VERSIONS_VACUUMED), 0);
}
