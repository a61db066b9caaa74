//! Virtual-time results are a pure function of the seed: two runs of one
//! seed agree bit for bit, and tracing (the delegating transport and the
//! wall-clock timers) disturbs neither virtual time nor the topology RNG.
//! Windows are shortened here; the full shapes only take longer.

use gdb_perfbench::report;
use gdb_perfbench::run::{run_plain, run_traced, Spec, WorkloadKind};
use globaldb::SimDuration;
use std::time::Duration;

/// Per-layer metrics read from the wall clock; every other one is a count
/// or a virtual time.
const WALL_CLOCK: [&str; 10] = [
    "workloads.driver_self_us_per_commit",
    "workloads.setup_load_s",
    "core.run_one_us_per_commit",
    "core.cluster_new_s",
    "simnet.run_until_us_per_commit",
    "simnet.deliver_us_per_commit",
    "sqlengine.execute_us_per_stmt",
    "txnmgr.begin_commit_us_per_txn",
    "unattributed_share",
    "trace.overhead_share",
];

fn short(workload: WorkloadKind, seed: u64) -> Spec {
    let mut spec = Spec::new(workload, seed, Duration::ZERO);
    spec.shape.warmup = SimDuration::from_millis(100);
    spec.shape.window = match workload {
        WorkloadKind::TpccMix => SimDuration::from_millis(1_500),
        WorkloadKind::TpccRor => SimDuration::from_millis(50),
        WorkloadKind::PointSelect => SimDuration::from_millis(300),
    };
    spec
}

#[test]
fn same_seed_same_virtual_results_traced_or_not() {
    for workload in WorkloadKind::ALL {
        let a = run_traced(&short(workload, 7)).expect("traced run");
        let b = run_traced(&short(workload, 7)).expect("traced run");
        let plain = run_plain(&short(workload, 7)).expect("plain run");
        let name = workload.name();
        assert!(a.traced.virt.commits > 0, "{name}: nothing committed");
        assert_eq!(
            a.untraced.virt, a.traced.virt,
            "{name}: tracing moved virtual time"
        );
        assert_eq!(
            a.traced.virt, b.traced.virt,
            "{name}: same seed, different results"
        );
        assert_eq!(
            plain.measured.virt, a.traced.virt,
            "{name}: plain run differs"
        );
        assert_eq!(
            a.traced.traffic, b.traced.traffic,
            "{name}: message counts differ"
        );
        assert!(
            a.traced.traffic.msgs > 0,
            "{name}: the transport counted nothing"
        );

        let layer = |r: &gdb_perfbench::run::Traced| {
            report::per_layer(r)
                .into_iter()
                .filter(|m| !WALL_CLOCK.contains(&m.name))
                .map(|m| (m.name, m.value.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(layer(&a), layer(&b), "{name}: per-layer counts differ");
    }
}

#[test]
fn another_seed_gives_other_results() {
    let a = run_plain(&short(WorkloadKind::TpccMix, 1)).expect("run");
    let b = run_plain(&short(WorkloadKind::TpccMix, 2)).expect("run");
    assert_ne!(a.measured.virt, b.measured.virt);
}
