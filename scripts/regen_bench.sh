#!/usr/bin/env bash
# Regenerate and bless the committed bench baselines:
#
#   BENCH_smoke.json  - tiny-scale bundle of all five figures + one
#                       nemesis run; the CI perf gate compares every
#                       push against it (scripts/ci.sh bench-smoke).
#   BENCH_fig6a.json  - the small-scale Fig. 6a artifact, with the
#                       per-phase commit-wait vs execute breakdown.
#   BENCH_engine.json - wall-clock engine benchmark (timing wheel vs the
#                       frozen heap engine). Absolute events/sec are
#                       machine-local; the artifact's one ratio gate
#                       checks only the fast-over-legacy speedup (floor
#                       1.2x), so regenerating on a different machine is
#                       safe.
#   BENCH_realnet.json - 3-node loopback TPC-C smoke on the real
#                       backends. One ratio gate: the tcp-over-thread
#                       throughput ratio (floor 0.02).
#   BENCH_scale.json  - scale-out routing + terminal-state benchmark at
#                       the reduced CI shape (the full 256-shard /
#                       10^5-terminal default is a manual run). Two ratio
#                       gates: the fast-over-legacy routing speedup
#                       (floor 2x) and the bytes-per-terminal reduction
#                       (floor 4x). The parameters here must match
#                       stage_scale in scripts/ci.sh.
#   BENCH_txn.json    - transaction hot-path benchmark (live pipeline vs
#                       the frozen pre-pass reference). Two ratio gates:
#                       the fast-over-legacy speedup (floor 1.5x) and the
#                       allocations-per-txn reduction (floor 10x), both
#                       in-run, so cross-machine re-blessing is safe.
#
# Each bench binary writes the gates its artifact is held to; the
# floors, ceilings and baselines live in the emitting code, not here.
#
# Run this after an intended performance change, eyeball the diff
# (throughput should move the way you expect, nothing else), and commit
# the updated files.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "==> tiny-scale smoke bundle -> BENCH_smoke.json"
for fig in fig1a fig6a fig6b fig6c fig6d ablation_rebalance; do
    GDB_BENCH_SCALE=tiny GDB_BENCH_SECS=2 GDB_BENCH_TERMINALS=8 \
        cargo run --release -q -p gdb-bench --bin "$fig" -- \
        --json "$tmp/$fig.json" >/dev/null
done
cargo run --release -q -p gdb-chaos --bin nemesis -- \
    --seed 1 --duration 2s --json "$tmp/nemesis.json" >/dev/null
cargo run --release -q -p gdb-bench --bin benchcmp -- merge \
    BENCH_smoke.json \
    "$tmp"/fig1a.json "$tmp"/fig6a.json "$tmp"/fig6b.json \
    "$tmp"/fig6c.json "$tmp"/fig6d.json "$tmp"/ablation_rebalance.json \
    "$tmp"/nemesis.json

echo "==> small-scale Fig. 6a -> BENCH_fig6a.json"
GDB_BENCH_SCALE=small GDB_BENCH_SECS=10 GDB_BENCH_TERMINALS=24 \
    cargo run --release -q -p gdb-bench --bin fig6a -- --json BENCH_fig6a.json

echo "==> wall-clock engine benchmark -> BENCH_engine.json"
cargo run --release -q -p gdb-bench --bin engine_bench -- --json BENCH_engine.json

echo "==> wall-clock txn hot-path benchmark -> BENCH_txn.json"
cargo run --release -q -p gdb-bench --bin txn_bench -- --json BENCH_txn.json

echo "==> scale-out reduced-shape benchmark -> BENCH_scale.json"
GDB_SCALE_SHARDS=64 GDB_SCALE_REGIONS=5 GDB_SCALE_TERMINALS=5000 \
    GDB_SCALE_KEYS=1024 GDB_SCALE_EPOCHS=4 GDB_SCALE_OPS=8 GDB_SCALE_MOVES=8 \
    GDB_SCALE_CLUSTER_MS=500 GDB_SCALE_THINK_MS=100 \
    cargo run --release -q -p gdb-bench --bin scale_bench -- --json BENCH_scale.json

echo "==> realnet loopback smoke -> BENCH_realnet.json"
GDB_BENCH_SCALE=tiny GDB_BENCH_SECS=2 GDB_BENCH_TERMINALS=8 \
    cargo run --release -q -p gdb-realnet --bin realnet_smoke -- --json BENCH_realnet.json

echo "baselines regenerated; review the diff and commit"
