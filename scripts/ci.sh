#!/usr/bin/env bash
# Full CI gate: formatting, lints, release build, tests, a 5-seed smoke
# run of the chaos nemesis binary, and the bench perf-regression gate.
# Everything runs offline against the vendored dependency set.
#
# Usage: scripts/ci.sh [STAGE]
#   all            every stage below (default; what local runs use)
#   main           lint + build + test + bench-smoke (the CI "ci" job)
#   lint           cargo fmt --check && cargo clippy -D warnings, plus
#                  benchcmp validate over every committed BENCH_*.json
#   build          cargo build --release
#   test           cargo test -q (the umbrella package and every
#                  crates/* suite: the workspace default-members)
#   nemesis-smoke  nemesis seeds 1..5 (the CI "nemesis" job)
#   shell          gdb-shell tests + committed scenario replays (the CI
#                  "shell" job)
#   bench-smoke    tiny-scale figure runs gated against BENCH_smoke.json
#   txn            transaction hot-path wall-clock + allocation gate
#                  against BENCH_txn.json (the CI "txn" job)
#   scale          scale-out routing + terminal-state gate at a reduced
#                  shape against BENCH_scale.json (the CI "scale" job)
#   realnet        real-backend tests + loopback smoke gated against
#                  BENCH_realnet.json (the CI "realnet" job)
set -euo pipefail
cd "$(dirname "$0")/.."

stage_lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy --workspace -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo bench --no-run (benches must keep compiling)"
    cargo bench --workspace --no-run -q

    echo "==> benchcmp validate (committed baselines + scenario files)"
    cargo run --release -q -p gdb-bench --bin benchcmp -- validate BENCH_*.json scenarios/*.toml
}

stage_build() {
    echo "==> cargo build --release"
    cargo build --release
}

stage_test() {
    echo "==> cargo test -q"
    cargo test -q
}

stage_nemesis_smoke() {
    echo "==> nemesis smoke (5 seeds)"
    for seed in 1 2 3 4 5; do
        cargo run --release -q -p gdb-chaos --bin nemesis -- --seed "$seed" --duration 2s \
            | tail -n 1
    done

    # Elastic membership under fire: node add, host drain with a
    # mid-flight source crash, and the re-issued drain that retires the
    # host. Virtual time cannot wedge, but a drain that never finishes
    # would loop the executor forever — hence the hard timeout.
    echo "==> elastic-under-fire canned plan"
    timeout 300 cargo run --release -q -p gdb-chaos --bin nemesis -- \
        --plan elastic-under-fire | tail -n 1
    echo "==> elastic nemesis (3 seeds)"
    for seed in 51 52 53; do
        timeout 300 cargo run --release -q -p gdb-chaos --bin nemesis -- \
            --seed "$seed" --duration 2s --elastic | tail -n 1
    done

    # The same two drills as committed scenario files, replayed through
    # the operator console (oracle must stay green).
    echo "==> committed scenario replays"
    for scn in scenarios/*.toml; do
        timeout 300 cargo run --release -q -p gdb-shell --bin gdb-shell -- \
            scenario run "$scn" | tail -n 1
    done
}

# Operator-console gate: the shell's unit + golden-transcript tests
# (byte-identical replay, thread-backend agreement), then both committed
# scenario files replayed end to end. Scenario runs are virtual-time
# chaos runs and cannot wedge, but the thread-backend test joins real
# threads — hence the hard timeouts.
stage_shell() {
    echo "==> gdb-shell tests (golden transcript + thread backend)"
    timeout 600 cargo test --release -q -p gdb-shell

    echo "==> committed scenario replays via gdb-shell"
    for scn in scenarios/*.toml; do
        timeout 300 cargo run --release -q -p gdb-shell --bin gdb-shell -- \
            scenario run "$scn" | tail -n 1
    done
}

# Regenerate every figure artifact at tiny scale and compare throughput
# against the committed baseline. The simulation is deterministic, so on
# unchanged code this reproduces the baseline exactly; the gate's fixed
# 20% tolerance only absorbs intended performance shifts (bless bigger
# ones with scripts/regen_bench.sh).
stage_bench_smoke() {
    echo "==> bench smoke (tiny scale) + perf gate"
    local out=target/bench-smoke
    rm -rf "$out"
    mkdir -p "$out"
    for fig in fig1a fig6a fig6b fig6c fig6d ablation_rebalance; do
        GDB_BENCH_SCALE=tiny GDB_BENCH_SECS=2 GDB_BENCH_TERMINALS=8 \
            cargo run --release -q -p gdb-bench --bin "$fig" -- \
            --json "$out/$fig.json" >/dev/null
    done
    cargo run --release -q -p gdb-chaos --bin nemesis -- \
        --seed 1 --duration 2s --json "$out/nemesis.json" >/dev/null
    cargo run --release -q -p gdb-bench --bin benchcmp -- merge \
        "$out/BENCH_smoke.json" \
        "$out"/fig1a.json "$out"/fig6a.json "$out"/fig6b.json \
        "$out"/fig6c.json "$out"/fig6d.json "$out"/ablation_rebalance.json \
        "$out"/nemesis.json
    cargo run --release -q -p gdb-bench --bin benchcmp -- check \
        BENCH_smoke.json "$out/BENCH_smoke.json"

    # Wall-clock engine gate: re-measures the timing-wheel engine against
    # the frozen heap engine on *this* machine and checks only the
    # speedup ratio (absolute events/sec are machine-local by design).
    echo "==> engine wall-clock gate"
    GDB_ENGINE_EVENTS=1000000 \
        cargo run --release -q -p gdb-bench --bin engine_bench -- \
        --json "$out/engine.json" >/dev/null
    cargo run --release -q -p gdb-bench --bin benchcmp -- check \
        BENCH_engine.json "$out/engine.json"
}

# Transaction hot-path gate: drives the fixed-seed write script through
# the optimized pipeline and the frozen pre-pass reference, asserts
# byte-identical durable segments, then checks two *ratios* against
# BENCH_txn.json: wall-clock speedup (floor 1.5x) and allocations per
# committed transaction (floor 10x fewer). Absolutes are machine-local
# and never compared. The timeout guards against a wedged run — the
# whole stage normally finishes in well under a minute.
stage_txn() {
    echo "==> txn hot-path wall-clock + allocation gate"
    local out=target/txn-bench
    rm -rf "$out"
    mkdir -p "$out"
    GDB_TXN_TXNS=60000 GDB_TXN_WINDOW=64 \
        timeout 600 cargo run --release -q -p gdb-bench --bin txn_bench -- \
        --json "$out/txn.json"
    cargo run --release -q -p gdb-bench --bin benchcmp -- check \
        BENCH_txn.json "$out/txn.json"
}

# Scale-out gate: scale_bench at a reduced parameterization (CI machines
# cannot afford the full 256-shard/10⁵-terminal default, which is a
# manual/nightly run). The "scale" artifact's gates are in-run ratios, so
# only the routing-speedup and bytes-per-terminal *ratios* are compared
# (floors 2x / 4x); the in-bench FNV digest assert already proved the
# fast and legacy routers made identical decisions. The parameters here
# must match scripts/regen_bench.sh, which blesses the baseline.
stage_scale() {
    echo "==> scale-out routing + terminal-state gate"
    local out=target/scale-bench
    rm -rf "$out"
    mkdir -p "$out"
    GDB_SCALE_SHARDS=64 GDB_SCALE_REGIONS=5 GDB_SCALE_TERMINALS=5000 \
        GDB_SCALE_KEYS=1024 GDB_SCALE_EPOCHS=4 GDB_SCALE_OPS=8 GDB_SCALE_MOVES=8 \
        GDB_SCALE_CLUSTER_MS=500 GDB_SCALE_THINK_MS=100 \
        timeout 600 cargo run --release -q -p gdb-bench --bin scale_bench -- \
        --json "$out/scale.json"
    cargo run --release -q -p gdb-bench --bin benchcmp -- check \
        BENCH_scale.json "$out/scale.json"
}

# Real-backend gate: the realnet crate's tests (unit + sim/real
# divergence + seam scans), then the 3-node loopback TPC-C smoke gated
# against BENCH_realnet.json. The artifact's one gate is an in-run ratio,
# so only the tcp/thread throughput *ratio* is compared — never the
# machine-local absolute numbers. Real threads and sockets can wedge in
# ways virtual time cannot, hence the hard timeouts.
stage_realnet() {
    echo "==> realnet tests (thread + tcp backends)"
    timeout 600 cargo test --release -q -p gdb-realnet

    echo "==> realnet loopback smoke + wall-clock gate"
    local out=target/realnet-smoke
    rm -rf "$out"
    mkdir -p "$out"
    GDB_BENCH_SCALE=tiny GDB_BENCH_SECS=2 GDB_BENCH_TERMINALS=8 \
        timeout 600 cargo run --release -q -p gdb-realnet --bin realnet_smoke -- \
        --json "$out/realnet.json"
    cargo run --release -q -p gdb-bench --bin benchcmp -- check \
        BENCH_realnet.json "$out/realnet.json"
}

case "${1:-all}" in
lint) stage_lint ;;
build) stage_build ;;
test) stage_test ;;
nemesis-smoke) stage_nemesis_smoke ;;
shell) stage_shell ;;
bench-smoke) stage_bench_smoke ;;
txn) stage_txn ;;
scale) stage_scale ;;
realnet) stage_realnet ;;
main)
    stage_lint
    stage_build
    stage_test
    stage_bench_smoke
    echo "CI OK"
    ;;
all)
    stage_lint
    stage_build
    stage_test
    stage_nemesis_smoke
    stage_shell
    stage_bench_smoke
    stage_txn
    stage_scale
    stage_realnet
    echo "CI OK"
    ;;
*)
    echo "unknown stage: $1 (see scripts/ci.sh header)" >&2
    exit 2
    ;;
esac
