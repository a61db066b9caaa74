//! Scale-tier routing gate: epoch-checked routing stays exact while a
//! batched migration rewires primaries under a 256-shard cluster.
//!
//! The contract (DESIGN.md "Scale tier"): during a cutover every
//! submitted operation either lands on the *current* owner or is
//! rejected with exactly one retryable [`GdbError::StaleRoute`] — a
//! stale CN is never silently served by the wrong shard. The values
//! read back prove it: each key carries a value derived from the key,
//! so a wrong-shard read would surface as a missing/mismatched row.

use gdb_router::metrics::STALE_ROUTE_REJECTS;
use globaldb::migrate::metrics::{MIGRATIONS_COMPLETED, MIGRATIONS_STARTED};
use globaldb::{Cluster, ClusterConfig, Datum, GdbError, SimDuration};

const SHARDS: usize = 256;
const REGIONS: usize = 5;
/// Primaries moved by the batched plan.
const MOVES: usize = 16;

#[test]
fn routing_stays_exact_under_batched_migration_at_256_shards() {
    let mut c = Cluster::new(ClusterConfig::globaldb_scale(REGIONS, SHARDS).with_seed(3));
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    let keys: Vec<i64> = (0..2_000i64).collect();
    c.bulk_load(
        table,
        keys.iter()
            .map(|&k| gdb_model::Row(vec![Datum::Int(k), Datum::Int(k * 10)]))
            .collect(),
    )
    .unwrap();
    c.finish_load();
    c.run_until(c.now() + SimDuration::from_secs(1));

    // Pick one probe key per migrated shard (they see the cutover) plus
    // a spread of others (they must be untouched by it).
    let schema = c.db.catalog().table(table).unwrap().clone();
    let shard_of = |k: i64| {
        schema
            .shard_of_pk(&gdb_model::RowKey::single(k), SHARDS as u16)
            .0 as usize
    };
    let mut probes: Vec<i64> = Vec::new();
    for s in 0..MOVES {
        if let Some(&k) = keys.iter().find(|&&k| shard_of(k) == s) {
            probes.push(k);
        }
    }
    assert!(probes.len() >= MOVES / 2, "hash spread too narrow");
    probes.extend(keys.iter().step_by(97).copied());

    // One batched plan: move the first MOVES primaries one host over.
    let specs: Vec<globaldb::MigrationSpec> = (0..MOVES)
        .map(|s| {
            let host = c.db.topo().node_host(c.db.shards()[s].primary) as usize;
            globaldb::MigrationSpec {
                shard: s,
                kind: globaldb::MigrationKind::Primary,
                to_region: c.db.regions()[(host + 1) % REGIONS],
                to_host: ((host + 1) % REGIONS) as u16,
            }
        })
        .collect();
    c.start_plan(specs).unwrap();
    assert_eq!(c.db.obs().metrics.counter(MIGRATIONS_STARTED), MOVES as u64);

    // Interleave probing with the migration's progress: every step,
    // every probe key is read from a rotating CN. A StaleRoute must be
    // retryable, must refresh the CN, and the single retry must land.
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let cn_count = c.db.cns().len();
    let mut stale_seen = 0u64;
    for step in 0..24 {
        c.run_until(c.now() + SimDuration::from_millis(250));
        for (i, &k) in probes.iter().enumerate() {
            let cn = (step + i) % cn_count;
            let read = |c: &mut Cluster| {
                let at = c.now() + SimDuration::from_millis(1);
                let mut got: Option<i64> = None;
                c.run_transaction(cn, at, true, false, |txn| {
                    let out = txn.execute(&sel, &[Datum::Int(k)])?;
                    got = match out.rows().first().and_then(|r| r.0.first()) {
                        Some(Datum::Int(v)) => Some(*v),
                        _ => None,
                    };
                    Ok(())
                })
                .map(|_| got)
            };
            let v = match read(&mut c) {
                Ok(v) => v,
                Err(e) => {
                    assert!(
                        matches!(e, GdbError::StaleRoute(_)),
                        "only StaleRoute may surface mid-cutover, got {e}"
                    );
                    assert!(e.is_retryable());
                    stale_seen += 1;
                    // Exactly one retry: the reject refreshed the CN.
                    read(&mut c).expect("retry at the refreshed epoch must land")
                }
            };
            assert_eq!(
                v,
                Some(k * 10),
                "key {k} (shard {}) read a wrong/missing value mid-migration",
                shard_of(k)
            );
        }
    }
    assert_eq!(c.db.obs().metrics.counter(STALE_ROUTE_REJECTS), stale_seen);

    // The batch finished under exactly one epoch bump, and the table-
    // backed router agrees with the authoritative placement everywhere.
    c.run_until(c.now() + SimDuration::from_secs(30));

    // Force the stale path deterministically: a CN that missed the
    // announcement gets exactly one retryable reject, then lands.
    c.db.cns_mut()[0].route_epoch = 0;
    let k = probes[0];
    let at = c.now() + SimDuration::from_millis(1);
    let before = c.db.obs().metrics.counter(STALE_ROUTE_REJECTS);
    let err = c
        .run_transaction(0, at, true, false, |txn| {
            txn.execute(&sel, &[Datum::Int(k)]).map(|_| ())
        })
        .expect_err("stale CN must be rejected");
    assert!(matches!(err, GdbError::StaleRoute(_)), "got {err}");
    assert!(err.is_retryable());
    assert_eq!(c.db.obs().metrics.counter(STALE_ROUTE_REJECTS), before + 1);
    assert_eq!(c.db.cns()[0].route_epoch, c.db.routing_epoch());
    let at = c.now() + SimDuration::from_millis(1);
    c.run_transaction(0, at, true, false, |txn| {
        txn.execute(&sel, &[Datum::Int(k)]).map(|_| ())
    })
    .expect("single retry after refresh must succeed");
    assert_eq!(
        c.db.obs().metrics.counter(STALE_ROUTE_REJECTS),
        before + 1,
        "no second reject"
    );
    assert_eq!(
        c.db.obs().metrics.counter(MIGRATIONS_COMPLETED),
        MOVES as u64
    );
    assert_eq!(c.db.routing_epoch(), 1, "one bump for the whole batch");
    for (s, shard) in c.db.shards().iter().enumerate() {
        assert_eq!(c.db.routes().primary(s), shard.primary);
        assert_eq!(c.db.routes().owner_epoch(s), shard.owner_epoch);
    }
    // And the moved shards still serve their rows from every CN.
    for &k in &probes {
        let at = c.now() + SimDuration::from_millis(1);
        let mut got = None;
        c.run_transaction(0, at, true, false, |txn| {
            let out = txn.execute(&sel, &[Datum::Int(k)])?;
            got = out.rows().first().map(|r| r.0.clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(got, Some(vec![Datum::Int(k * 10)]));
    }
}
