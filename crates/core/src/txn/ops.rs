//! Statement operations inside an open transaction: shard routing, the
//! primary and Read-On-Replica read paths, lock acquisition, and write
//! staging. All data-node round trips are charged through the message
//! plane as [`RpcKind::DnRead`] / [`RpcKind::DnWrite`].

use super::{TxnHandle, WriteOp, LOCK_LEASE, OP_MSG_BYTES};
use crate::net::RpcKind;
use crate::ror::ReadTarget;
use gdb_model::{
    Datum, DistributionKind, GdbError, GdbResult, IndexId, Row, RowKey, TableId, TableSchema,
};
use gdb_replication::ReplicaReadResult;
use gdb_simnet::SimDuration;
use gdb_sqlengine::plan::BoundDdl;
use gdb_sqlengine::DataAccess;
use gdb_storage::{Catalog, LockOutcome};
use gdb_wal::RedoPayload;

impl<'a> TxnHandle<'a> {
    // ---- Shard routing helpers ---------------------------------------

    pub(super) fn schema(&self, table: TableId) -> GdbResult<TableSchema> {
        self.db.catalog.table(table).cloned()
    }

    /// Validate this handle's cached routing epoch against `shard`'s
    /// ownership epoch, and note the access in the per-shard load
    /// counters the rebalance detector consumes. A stale epoch (the
    /// shard migrated after this transaction began) refreshes the CN's
    /// route cache immediately and returns the retryable
    /// [`GdbError::StaleRoute`], so the client's retry re-routes at the
    /// fresh epoch.
    fn route_to_shard(&mut self, shard: usize, bytes: u64) -> GdbResult<()> {
        let db = &mut *self.db;
        // O(1) epoch check off the flat routing table; the table is
        // rebuilt at every placement change, so it always mirrors
        // `shards[shard].owner_epoch` (pinned by the debug assert).
        let owner = db.routes.owner_epoch(shard);
        debug_assert_eq!(owner, db.shards[shard].owner_epoch);
        if self.route_epoch < owner {
            db.obs.metrics.bump(db.hot.router.stale_route_rejects);
            db.cns[self.cn].route_epoch = db.routing_epoch;
            return Err(GdbError::StaleRoute(format!(
                "shard {shard}: route epoch {} < owner epoch {owner}",
                self.route_epoch
            )));
        }
        let region = db.region_idx_of_cn(self.cn);
        let load = &mut db.shard_load[shard];
        load.ops += 1;
        load.bytes += bytes;
        load.by_region[region] += 1;
        Ok(())
    }

    /// Charge one CN↔node round trip of kind `kind`.
    fn charge_rtt_to(
        &mut self,
        kind: RpcKind,
        node: gdb_simnet::NetNodeId,
        bytes: u64,
    ) -> GdbResult<()> {
        let db = &mut *self.db;
        let cn_node = db.cns[self.cn].node;
        let there = db
            .plane
            .send(&mut db.topo, kind, cn_node, node, OP_MSG_BYTES)
            .ok_or_else(|| GdbError::NodeUnavailable("data node unreachable".into()))?;
        let back = db
            .plane
            .send(&mut db.topo, kind, node, cn_node, bytes.max(OP_MSG_BYTES))
            .ok_or_else(|| GdbError::NodeUnavailable("data node unreachable".into()))?;
        self.now += there + back + db.config.op_cpu_cost;
        Ok(())
    }

    /// Charge a parallel scatter to several shards (max of the RTTs).
    fn charge_scatter(&mut self, kind: RpcKind, shards: &[usize], bytes: u64) -> GdbResult<()> {
        let db = &mut *self.db;
        let cn_node = db.cns[self.cn].node;
        let mut max = SimDuration::ZERO;
        for &s in shards {
            let primary = db.shards[s].primary;
            let there = db
                .plane
                .send(&mut db.topo, kind, cn_node, primary, OP_MSG_BYTES)
                .ok_or_else(|| GdbError::NodeUnavailable("shard unreachable".into()))?;
            let back = db
                .plane
                .send(
                    &mut db.topo,
                    kind,
                    primary,
                    cn_node,
                    bytes.max(OP_MSG_BYTES),
                )
                .ok_or_else(|| GdbError::NodeUnavailable("shard unreachable".into()))?;
            max = max.max(there + back);
        }
        self.now += max + db.config.op_cpu_cost;
        Ok(())
    }

    /// Which shards a range over `[lo, hi]` must touch.
    fn shards_for_range(
        &self,
        schema: &TableSchema,
        lo: Option<&RowKey>,
        hi: Option<&RowKey>,
    ) -> Vec<usize> {
        let all: Vec<usize> = (0..self.db.shards.len()).collect();
        if matches!(schema.distribution, DistributionKind::Replicated) {
            return vec![self.db.nearest_shard(self.cn)];
        }
        let (Some(lo), Some(hi)) = (lo, hi) else {
            return all;
        };
        // Length of the common prefix of lo and hi.
        let mut common = 0;
        while common < lo.0.len()
            && common < hi.0.len()
            && lo.0[common].key_cmp(&hi.0[common]) == std::cmp::Ordering::Equal
        {
            common += 1;
        }
        // Every distribution-key column must sit inside that common prefix
        // (positions are relative to the primary key ordering).
        let mut dist_vals = Vec::new();
        for dc in &schema.distribution_key {
            match schema.primary_key.iter().position(|pk| pk == dc) {
                Some(pos) if pos < common => dist_vals.push(lo.0[pos].clone()),
                _ => return all,
            }
        }
        vec![
            schema
                .shard_of_key(&RowKey(dist_vals), self.db.shards.len() as u16)
                .0 as usize,
        ]
    }

    /// Shard(s) an index prefix read must touch.
    fn shards_for_index_prefix(
        &self,
        schema: &TableSchema,
        index_cols: &[usize],
        prefix: &[Datum],
    ) -> Vec<usize> {
        if matches!(schema.distribution, DistributionKind::Replicated) {
            return vec![self.db.nearest_shard(self.cn)];
        }
        let mut dist_vals = Vec::new();
        for dc in &schema.distribution_key {
            match index_cols.iter().position(|c| c == dc) {
                Some(pos) if pos < prefix.len() => dist_vals.push(prefix[pos].clone()),
                _ => return (0..self.db.shards.len()).collect(),
            }
        }
        vec![
            schema
                .shard_of_key(&RowKey(dist_vals), self.db.shards.len() as u16)
                .0 as usize,
        ]
    }

    // ---- Read paths ----------------------------------------------------

    /// Primary point read with in-flight-commit wait.
    fn primary_point_read(
        &mut self,
        shard: usize,
        table: TableId,
        key: &RowKey,
    ) -> GdbResult<Option<Row>> {
        let primary = self.db.shards[shard].primary;
        self.charge_rtt_to(RpcKind::DnRead, primary, OP_MSG_BYTES)?;
        self.db
            .obs
            .metrics
            .bump(self.db.hot.router.reads_on_primary);
        let snapshot = self.snapshot;
        let vis = self.db.shards[shard].storage.read(table, key, snapshot)?;
        Ok(match vis {
            Some(v) => {
                if v.commit_vtime > self.now {
                    // The writing transaction's commit is still in flight
                    // at our virtual time: wait for it (in-doubt wait).
                    self.now = v.commit_vtime;
                }
                Some(v.row.clone())
            }
            None => None,
        })
    }

    /// ROR point read: pick a node off the skyline; blocked tuples fall
    /// back to the primary.
    fn ror_point_read(
        &mut self,
        shard: usize,
        table: TableId,
        key: &RowKey,
    ) -> GdbResult<Option<Row>> {
        let target = self.db.select_read_node(
            self.cn,
            shard,
            self.snapshot,
            self.now,
            self.freshness_bound,
        );
        match target {
            ReadTarget::Primary => self.primary_point_read(shard, table, key),
            ReadTarget::Replica(ri) => {
                let node = self.db.shards[shard].replicas[ri].node;
                self.charge_rtt_to(RpcKind::DnRead, node, OP_MSG_BYTES)?;
                let snapshot = self.snapshot;
                let res = self.db.shards[shard].replicas[ri]
                    .applier
                    .read(table, key, snapshot)?;
                match res {
                    ReplicaReadResult::Row(r) => {
                        self.used_replica = true;
                        self.db
                            .obs
                            .metrics
                            .bump(self.db.hot.router.reads_on_replica);
                        Ok(r.map(|(row, _)| row))
                    }
                    ReplicaReadResult::Blocked { .. } => {
                        self.db
                            .obs
                            .metrics
                            .bump(self.db.hot.router.replica_blocked_fallbacks);
                        self.primary_point_read(shard, table, key)
                    }
                }
            }
        }
    }

    fn merge_overlay_into_range(
        &self,
        table: TableId,
        lo: Option<&RowKey>,
        hi: Option<&RowKey>,
        rows: &mut Vec<(RowKey, Row)>,
    ) {
        let mut changed = false;
        for ((t, key), row) in &self.overlay {
            if *t != table {
                continue;
            }
            if lo.is_some_and(|l| key < l) || hi.is_some_and(|h| key > h) {
                continue;
            }
            match rows.iter().position(|(k, _)| k == key) {
                Some(i) => match row {
                    Some(r) => rows[i].1 = r.clone(),
                    None => {
                        rows.remove(i);
                    }
                },
                None => {
                    if let Some(r) = row {
                        rows.push((key.clone(), r.clone()));
                        changed = true;
                    }
                }
            }
        }
        if changed {
            rows.sort_by(|a, b| a.0.cmp(&b.0));
        }
    }
}

impl<'a> DataAccess for TxnHandle<'a> {
    fn catalog(&self) -> &Catalog {
        &self.db.catalog
    }

    fn point_read(&mut self, table: TableId, key: &RowKey) -> GdbResult<Option<Row>> {
        if let Some(hit) = self.overlay.get(&(table, key.clone())) {
            return Ok(hit.clone());
        }
        let schema = self.schema(table)?;
        let shard = if matches!(schema.distribution, DistributionKind::Replicated) {
            self.db.nearest_shard(self.cn)
        } else {
            self.db.shard_of(&schema, key)
        };
        self.route_to_shard(shard, OP_MSG_BYTES)?;
        if self.ror {
            self.ror_point_read(shard, table, key)
        } else {
            self.primary_point_read(shard, table, key)
        }
    }

    fn multi_point_read(&mut self, table: TableId, keys: &[RowKey]) -> GdbResult<Vec<Option<Row>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let schema = self.schema(table)?;
        let replicated = matches!(schema.distribution, DistributionKind::Replicated);
        // Group keys by shard; one parallel scatter round trip total.
        let mut shard_of_key: Vec<usize> = Vec::with_capacity(keys.len());
        let mut shards: Vec<usize> = Vec::new();
        for key in keys {
            let s = if replicated {
                self.db.nearest_shard(self.cn)
            } else {
                self.db.shard_of(&schema, key)
            };
            shard_of_key.push(s);
            if !shards.contains(&s) {
                shards.push(s);
            }
        }
        for &s in &shards {
            self.route_to_shard(s, OP_MSG_BYTES)?;
        }
        let snapshot = self.snapshot;
        // Pick the read target per shard (skyline under ROR, else the
        // primary) and charge ONE parallel scatter over the chosen nodes.
        // `targets` parallels the deduped `shards` list — the touched
        // shard count per statement is small, so a position scan beats
        // hashing on this per-op path.
        let mut targets: Vec<ReadTarget> = Vec::with_capacity(shards.len());
        let mut nodes: Vec<gdb_simnet::NetNodeId> = Vec::new();
        for &s in &shards {
            let t = if self.ror {
                self.db
                    .select_read_node(self.cn, s, snapshot, self.now, self.freshness_bound)
            } else {
                ReadTarget::Primary
            };
            let node = match t {
                ReadTarget::Primary => self.db.shards[s].primary,
                ReadTarget::Replica(ri) => self.db.shards[s].replicas[ri].node,
            };
            targets.push(t);
            nodes.push(node);
        }
        let bytes = OP_MSG_BYTES * (keys.len() as u64 / 4).max(1);
        let db = &mut *self.db;
        let cn_node = db.cns[self.cn].node;
        let mut max_rtt = SimDuration::ZERO;
        for &node in &nodes {
            let there = db
                .plane
                .send(&mut db.topo, RpcKind::DnRead, cn_node, node, OP_MSG_BYTES)
                .ok_or_else(|| GdbError::NodeUnavailable("read target unreachable".into()))?;
            let back = db
                .plane
                .send(&mut db.topo, RpcKind::DnRead, node, cn_node, bytes)
                .ok_or_else(|| GdbError::NodeUnavailable("read target unreachable".into()))?;
            max_rtt = max_rtt.max(there + back);
        }
        self.now += max_rtt + db.config.op_cpu_cost;

        let mut out = Vec::with_capacity(keys.len());
        let mut max_wait = self.now;
        for (key, &s) in keys.iter().zip(&shard_of_key) {
            if let Some(hit) = self.overlay.get(&(table, key.clone())) {
                out.push(hit.clone());
                continue;
            }
            let target = shards.iter().position(|&u| u == s).map(|i| targets[i]);
            if let Some(ReadTarget::Replica(ri)) = target.as_ref() {
                let res = self.db.shards[s].replicas[*ri]
                    .applier
                    .read(table, key, snapshot)?;
                match res {
                    ReplicaReadResult::Row(r) => {
                        self.used_replica = true;
                        self.db
                            .obs
                            .metrics
                            .bump(self.db.hot.router.reads_on_replica);
                        out.push(r.map(|(row, _)| row));
                        continue;
                    }
                    ReplicaReadResult::Blocked { .. } => {
                        // Blocked tuple: pay an extra primary round trip.
                        self.db
                            .obs
                            .metrics
                            .bump(self.db.hot.router.replica_blocked_fallbacks);
                        let primary = self.db.shards[s].primary;
                        self.charge_rtt_to(RpcKind::DnRead, primary, OP_MSG_BYTES)?;
                    }
                }
            }
            self.db
                .obs
                .metrics
                .bump(self.db.hot.router.reads_on_primary);
            let vis = self.db.shards[s].storage.read(table, key, snapshot)?;
            out.push(match vis {
                Some(v) => {
                    if v.commit_vtime > max_wait {
                        max_wait = v.commit_vtime;
                    }
                    Some(v.row.clone())
                }
                None => None,
            });
        }
        self.now = self.now.max(max_wait);
        Ok(out)
    }

    fn range_read(
        &mut self,
        table: TableId,
        lo: Option<&RowKey>,
        hi: Option<&RowKey>,
    ) -> GdbResult<Vec<(RowKey, Row)>> {
        let schema = self.schema(table)?;
        let shards = self.shards_for_range(&schema, lo, hi);
        for &s in &shards {
            self.route_to_shard(s, OP_MSG_BYTES * 4)?;
        }
        let snapshot = self.snapshot;
        let mut out: Vec<(RowKey, Row)> = Vec::new();
        // Decide per shard: replica or primary.
        let mut primary_shards = Vec::new();
        if self.ror {
            for &s in &shards {
                let target =
                    self.db
                        .select_read_node(self.cn, s, snapshot, self.now, self.freshness_bound);
                match target {
                    ReadTarget::Replica(ri) => {
                        let blocked = self.db.shards[s].replicas[ri]
                            .applier
                            .is_range_blocked(table, lo, hi);
                        if blocked {
                            self.db
                                .obs
                                .metrics
                                .bump(self.db.hot.router.replica_blocked_fallbacks);
                            primary_shards.push(s);
                            continue;
                        }
                        let node = self.db.shards[s].replicas[ri].node;
                        self.charge_rtt_to(RpcKind::DnRead, node, OP_MSG_BYTES * 4)?;
                        self.used_replica = true;
                        self.db
                            .obs
                            .metrics
                            .bump(self.db.hot.router.reads_on_replica);
                        let rows = self.db.shards[s].replicas[ri]
                            .applier
                            .storage
                            .range(table, lo, hi, snapshot)?;
                        out.extend(rows.into_iter().map(|v| (v.key.clone(), v.row.clone())));
                    }
                    ReadTarget::Primary => primary_shards.push(s),
                }
            }
        } else {
            primary_shards = shards;
        }
        if !primary_shards.is_empty() {
            self.charge_scatter(RpcKind::DnRead, &primary_shards, OP_MSG_BYTES * 4)?;
            self.db
                .obs
                .metrics
                .bump(self.db.hot.router.reads_on_primary);
            let mut max_wait = self.now;
            for &s in &primary_shards {
                let rows = self.db.shards[s].storage.range(table, lo, hi, snapshot)?;
                for v in rows {
                    if v.commit_vtime > max_wait {
                        max_wait = v.commit_vtime;
                    }
                    out.push((v.key.clone(), v.row.clone()));
                }
            }
            self.now = max_wait;
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        self.merge_overlay_into_range(table, lo, hi, &mut out);
        Ok(out)
    }

    fn index_read(&mut self, index: IndexId, prefix: &[Datum]) -> GdbResult<Vec<(RowKey, Row)>> {
        let def = self.db.catalog.index(index)?.clone();
        let schema = self.schema(def.table)?;
        let shards = self.shards_for_index_prefix(&schema, &def.columns, prefix);
        for &s in &shards {
            self.route_to_shard(s, OP_MSG_BYTES * 2)?;
        }
        let snapshot = self.snapshot;
        let mut out: Vec<(RowKey, Row)> = Vec::new();
        let mut primary_shards = Vec::new();
        if self.ror {
            for &s in &shards {
                let target =
                    self.db
                        .select_read_node(self.cn, s, snapshot, self.now, self.freshness_bound);
                match target {
                    ReadTarget::Replica(ri) => {
                        // Conservative: any pending write to this table on
                        // the replica forces a primary fallback.
                        let blocked = self.db.shards[s].replicas[ri]
                            .applier
                            .is_range_blocked(def.table, None, None);
                        if blocked {
                            self.db
                                .obs
                                .metrics
                                .bump(self.db.hot.router.replica_blocked_fallbacks);
                            primary_shards.push(s);
                            continue;
                        }
                        let node = self.db.shards[s].replicas[ri].node;
                        self.charge_rtt_to(RpcKind::DnRead, node, OP_MSG_BYTES * 2)?;
                        self.used_replica = true;
                        self.db
                            .obs
                            .metrics
                            .bump(self.db.hot.router.reads_on_replica);
                        let rows = self.db.shards[s].replicas[ri]
                            .applier
                            .storage
                            .index_lookup(index, prefix, snapshot)?;
                        out.extend(rows);
                    }
                    ReadTarget::Primary => primary_shards.push(s),
                }
            }
        } else {
            primary_shards = shards;
        }
        if !primary_shards.is_empty() {
            self.charge_scatter(RpcKind::DnRead, &primary_shards, OP_MSG_BYTES * 2)?;
            self.db
                .obs
                .metrics
                .bump(self.db.hot.router.reads_on_primary);
            for &s in &primary_shards {
                let rows = self.db.shards[s]
                    .storage
                    .index_lookup(index, prefix, snapshot)?;
                out.extend(rows);
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        // Overlay merge: recheck added/updated rows against the prefix.
        let overlay_keys: Vec<(RowKey, Option<Row>)> = self
            .overlay
            .iter()
            .filter(|((t, _), _)| *t == def.table)
            .map(|((_, k), r)| (k.clone(), r.clone()))
            .collect();
        for (key, row) in overlay_keys {
            out.retain(|(k, _)| *k != key);
            if let Some(r) = row {
                let matches = def
                    .columns
                    .iter()
                    .zip(prefix)
                    .all(|(&c, p)| r.0[c].key_cmp(p) == std::cmp::Ordering::Equal);
                if matches {
                    out.push((key, r));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    fn full_scan(&mut self, table: TableId) -> GdbResult<Vec<(RowKey, Row)>> {
        self.range_read(table, None, None)
    }

    fn read_for_update(&mut self, table: TableId, key: &RowKey) -> GdbResult<Option<Row>> {
        if self.ror {
            return Err(GdbError::Execution(
                "FOR UPDATE in a read-only (ROR) transaction".into(),
            ));
        }
        let schema = self.schema(table)?;
        let shards: Vec<usize> = if matches!(schema.distribution, DistributionKind::Replicated) {
            (0..self.db.shards.len()).collect()
        } else {
            vec![self.db.shard_of(&schema, key)]
        };
        for &s in &shards {
            self.route_to_shard(s, OP_MSG_BYTES)?;
        }
        self.charge_scatter(RpcKind::DnWrite, &shards, OP_MSG_BYTES)?;
        for &s in &shards {
            self.lock_key(s, table, key)?;
        }
        if let Some(hit) = self.overlay.get(&(table, key.clone())) {
            return Ok(hit.clone());
        }
        let s0 = shards[0];
        let vis = self.db.shards[s0].storage.read_newest(table, key)?;
        Ok(match vis {
            Some(v) => {
                if v.commit_vtime > self.now {
                    self.now = v.commit_vtime;
                }
                Some(v.row.clone())
            }
            None => None,
        })
    }

    fn insert(&mut self, table: TableId, row: Row) -> GdbResult<()> {
        if self.ror {
            return Err(GdbError::Execution(
                "INSERT in a read-only (ROR) transaction".into(),
            ));
        }
        let schema = self.schema(table)?;
        let mut row = row;
        schema.coerce_row(&mut row);
        schema.check_row(&row)?;
        let key = schema.primary_key_of(&row);
        let replicated = matches!(schema.distribution, DistributionKind::Replicated);
        let shards: Vec<usize> = if replicated {
            (0..self.db.shards.len()).collect()
        } else {
            vec![self.db.shard_of(&schema, &key)]
        };
        for &s in &shards {
            self.route_to_shard(s, OP_MSG_BYTES)?;
        }
        // Duplicate check: overlay first, then committed state.
        match self.overlay.get(&(table, key.clone())) {
            Some(Some(_)) => return Err(GdbError::DuplicateKey(format!("{table} {key}"))),
            Some(None) => {} // deleted in this txn; reinsert ok
            None => {
                if self.db.shards[shards[0]]
                    .storage
                    .table(table)?
                    .exists_newest(&key)
                {
                    return Err(GdbError::DuplicateKey(format!("{table} {key}")));
                }
            }
        }
        self.charge_scatter(RpcKind::DnWrite, &shards, OP_MSG_BYTES)?;
        for &s in &shards {
            self.lock_key(s, table, &key)?;
            self.stage_write(s, table, key.clone(), Some(row.clone()), true);
        }
        self.overlay.insert((table, key), Some(row));
        Ok(())
    }

    fn update(&mut self, table: TableId, key: &RowKey, new_row: Row) -> GdbResult<()> {
        if self.ror {
            return Err(GdbError::Execution(
                "UPDATE in a read-only (ROR) transaction".into(),
            ));
        }
        let schema = self.schema(table)?;
        let mut new_row = new_row;
        schema.coerce_row(&mut new_row);
        schema.check_row(&new_row)?;
        let replicated = matches!(schema.distribution, DistributionKind::Replicated);
        let shards: Vec<usize> = if replicated {
            (0..self.db.shards.len()).collect()
        } else {
            vec![self.db.shard_of(&schema, key)]
        };
        for &s in &shards {
            self.route_to_shard(s, OP_MSG_BYTES)?;
        }
        self.charge_scatter(RpcKind::DnWrite, &shards, OP_MSG_BYTES)?;
        for &s in &shards {
            self.lock_key(s, table, key)?;
            self.stage_write(s, table, key.clone(), Some(new_row.clone()), false);
        }
        self.overlay.insert((table, key.clone()), Some(new_row));
        Ok(())
    }

    fn delete(&mut self, table: TableId, key: &RowKey) -> GdbResult<()> {
        if self.ror {
            return Err(GdbError::Execution(
                "DELETE in a read-only (ROR) transaction".into(),
            ));
        }
        let schema = self.schema(table)?;
        let replicated = matches!(schema.distribution, DistributionKind::Replicated);
        let shards: Vec<usize> = if replicated {
            (0..self.db.shards.len()).collect()
        } else {
            vec![self.db.shard_of(&schema, key)]
        };
        for &s in &shards {
            self.route_to_shard(s, OP_MSG_BYTES)?;
        }
        self.charge_scatter(RpcKind::DnWrite, &shards, OP_MSG_BYTES)?;
        for &s in &shards {
            self.lock_key(s, table, key)?;
            self.stage_write(s, table, key.clone(), None, false);
        }
        self.overlay.insert((table, key.clone()), None);
        Ok(())
    }

    fn apply_ddl(&mut self, _ddl: &BoundDdl) -> GdbResult<()> {
        Err(GdbError::Plan(
            "DDL cannot run inside a transaction; use Cluster::ddl".into(),
        ))
    }
}

impl<'a> TxnHandle<'a> {
    fn lock_key(&mut self, shard: usize, table: TableId, key: &RowKey) -> GdbResult<()> {
        loop {
            let outcome = self.db.shards[shard].storage.locks.acquire(
                table,
                key,
                self.txn,
                self.now,
                self.now + LOCK_LEASE,
            );
            match outcome {
                LockOutcome::Acquired => break,
                LockOutcome::WaitUntil(t) => {
                    self.db.obs.metrics.bump(self.db.hot.txn.lock_waits);
                    self.now = t;
                }
            }
        }
        self.locked.push((shard, table, key.clone()));
        Ok(())
    }

    fn stage_write(
        &mut self,
        shard: usize,
        table: TableId,
        key: RowKey,
        row: Option<Row>,
        is_insert: bool,
    ) {
        // PENDING_COMMIT is written before the transaction obtains its
        // invocation timestamp / first write lands (paper §IV-A).
        if !self.first_write.contains_key(&shard) {
            self.first_write.insert(shard, self.now);
            self.db.shards[shard]
                .log
                .append(self.now, self.txn, RedoPayload::PendingCommit);
        }
        let payload = match &row {
            Some(r) => {
                if is_insert {
                    RedoPayload::Insert {
                        table,
                        key: key.clone(),
                        row: r.clone(),
                    }
                } else {
                    RedoPayload::Update {
                        table,
                        key: key.clone(),
                        new_row: r.clone(),
                    }
                }
            }
            None => RedoPayload::Delete {
                table,
                key: key.clone(),
            },
        };
        self.db.shards[shard]
            .log
            .append(self.now, self.txn, payload);
        self.write_log.push(WriteOp {
            shard,
            table,
            key,
            row,
        });
        self.shards_written.insert(shard);
    }
}
