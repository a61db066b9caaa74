//! Sysbench Point-Select issued by the benchmark itself.
//!
//! The tables, rows and key stream are Sysbench's: set-up is
//! `SysbenchWorkload::setup`. The benchmark then reads every row's `c`
//! back once, so each returned `c` can be checked against the value loaded
//! for its key, and it issues the prepared `SELECT` itself, so the traced
//! run can time `TxnHandle::execute` apart from begin and commit.

use crate::trace::{span, SpanKind};
use gdb_model::{Datum, GdbError, GdbResult, Row};
use gdb_workloads::sysbench::{SysbenchMode, SysbenchScale, SysbenchWorkload};
use gdb_workloads::{KeyDistribution, KeySampler, Workload};
use globaldb::{Cluster, Prepared, SimTime, TxnOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub struct PointSelect {
    scale: SysbenchScale,
    load: SysbenchWorkload,
    selects: Vec<Prepared>,
    /// `expected[t][id - 1]`: the `c` loaded for row `id` of `sbtest{t}`.
    expected: Vec<Vec<String>>,
    sampler: KeySampler,
    rng: SmallRng,
}

impl PointSelect {
    pub fn new(scale: SysbenchScale, seed: u64) -> Self {
        PointSelect {
            scale,
            load: SysbenchWorkload::new(scale, SysbenchMode::PointSelect, seed),
            selects: Vec::new(),
            expected: Vec::new(),
            sampler: KeySampler::new(KeyDistribution::Uniform, scale.rows_per_table),
            rng: SmallRng::seed_from_u64(seed ^ 0x5b_5eed),
        }
    }

    /// Read every loaded `(id, c)` back through SQL: what the output check
    /// compares against. Not part of the timed set-up.
    pub fn read_expected(&mut self, cluster: &mut Cluster) -> GdbResult<()> {
        self.expected.clear();
        for t in 0..self.scale.tables {
            let now = cluster.now();
            let (out, _) =
                cluster.execute_sql(0, now, &format!("SELECT id, c FROM sbtest{t}"), &[])?;
            let mut cs = vec![None; self.scale.rows_per_table as usize];
            for Row(cols) in out.rows() {
                match cols.as_slice() {
                    [Datum::Int(id), Datum::Text(c)]
                        if (1..=self.scale.rows_per_table).contains(id) =>
                    {
                        cs[(*id - 1) as usize] = Some(c.clone());
                    }
                    _ => return Err(GdbError::Internal(format!("sbtest{t}: bad row {cols:?}"))),
                }
            }
            let cs = cs.into_iter().enumerate().map(|(i, c)| {
                c.ok_or_else(|| GdbError::Internal(format!("sbtest{t}: id {} missing", i + 1)))
            });
            self.expected.push(cs.collect::<GdbResult<_>>()?);
        }
        Ok(())
    }
}

impl Workload for PointSelect {
    fn setup(&mut self, cluster: &mut Cluster) -> GdbResult<()> {
        self.load.setup(cluster)?;
        for t in 0..self.scale.tables {
            self.selects
                .push(cluster.prepare(&format!("SELECT c FROM sbtest{t} WHERE id = ?"))?);
        }
        Ok(())
    }

    fn run_one(
        &mut self,
        cluster: &mut Cluster,
        terminal: usize,
        at: SimTime,
    ) -> (&'static str, GdbResult<TxnOutcome>) {
        let t = self.rng.gen_range(0..self.scale.tables);
        let id = self.sampler.sample(&mut self.rng);
        let cn = terminal % cluster.db.cns().len();
        let stmt = &self.selects[t];
        let res = span(SpanKind::RunTransaction, || {
            cluster.run_transaction(cn, at, true, true, |txn| {
                span(SpanKind::Execute, || txn.execute(stmt, &[Datum::Int(id)]))
            })
        });
        let res = res.and_then(|(out, outcome)| {
            let rows = out.rows();
            let want = &self.expected[t][(id - 1) as usize];
            match rows.as_slice() {
                [Row(cols)] if matches!(cols.as_slice(), [Datum::Text(c)] if c == want) => {
                    Ok(outcome)
                }
                _ => Err(GdbError::Internal(format!(
                    "sbtest{t} id {id}: expected c = {want}, got {rows:?}"
                ))),
            }
        });
        ("point_select", res)
    }
}
