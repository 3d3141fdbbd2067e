#!/usr/bin/env bash
# Tier-1 verification: normal build + full test suite, then the FULL
# suite again under ThreadSanitizer, AddressSanitizer, and
# UndefinedBehaviorSanitizer Debug builds (docs/TESTING.md).
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the sanitizer and perf-gate stages
#           (normal build + ctest only)
#
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "== tier-1: ctest -j =="
ctest --test-dir build --output-on-failure -j "$JOBS"

# Seeded fault plans over the golden batch: the process must exit
# through the 0/1/2/3 contract (never abort) and surviving jobs must
# render byte-identically to the fault-free goldens
# (docs/ROBUSTNESS.md).
echo "== tier-1: chaos (seeded fault plans) =="
scripts/chaos.sh build/tools/macs

# `macs serve` end to end on an ephemeral port: /healthz, /metrics,
# one /v1/analyze byte-identical to the CLI, then SIGTERM with an
# in-flight batch — clean drain, flushed checkpoint, exit 0
# (docs/SERVER.md).
echo "== tier-1: server (smoke + graceful drain) =="
scripts/server_smoke.sh build/tools/macs

# Machine sweep over every shipped .machine file: the JSON matrix must
# be byte-identical at 1/4/16 workers AND to the committed golden
# (tests/golden/sweep_machines_all.json) — one cmp pins both the
# determinism contract and the differential oracle (the c240 column is
# the parsed machines/c240.machine, not the built-in table). To
# regenerate after an intentional model change:
#   build/tools/macs sweep --machines machines --workers 1 \
#       --json tests/golden/sweep_machines_all.json all
echo "== tier-1: sweep (machine grid: determinism + golden) =="
for w in 1 4 16; do
    build/tools/macs sweep --machines machines --workers "$w" \
        --json "build/sweep_w$w.json" all > /dev/null
    cmp "build/sweep_w$w.json" tests/golden/sweep_machines_all.json
done

# Report-level differential oracle for the two-tier simulator
# (docs/SIMULATOR.md): the reference interpreter tier must render the
# same machine grid byte-identically to the fast tier's golden above.
echo "== tier-1: sweep (reference tier vs golden) =="
build/tools/macs sweep --machines machines --sim-tier reference \
    --json build/sweep_ref.json all > /dev/null
cmp build/sweep_ref.json tests/golden/sweep_machines_all.json

# Multi-CPU stage (docs/MULTICPU.md): 1-CPU `macs mp` degenerates to
# the plain simulator for every kernel on every .machine file; the
# 4-CPU mix/engine matrix is deterministic and matches its golden
# (tests/golden/mp_matrix.json); POST /v1/multicpu is byte-identical
# to the CLI at 1/4/16 workers.
echo "== tier-1: mp (coupled engine: degeneracy + golden + server) =="
scripts/mp_smoke.sh build/tools/macs

if [[ "${1:-}" == "--fast" ]]; then
    echo "== skipping sanitizer + perf-gate stages (--fast) =="
    exit 0
fi

# Perf regression gate: run the server bench (in-bench floors assert
# warm RPS >= 5x the single-shot RPS and bounded C10k p99), then diff
# the gated RATIO metrics against the committed baseline; >15% drop
# fails the build. Absolute RPS is informative only — see
# scripts/perf_gate.py. Never run under sanitizers.
echo "== perf: server_throughput bench + regression gate =="
cmake --build build -j "$JOBS" --target server_throughput >/dev/null
build/bench/server_throughput --json build/BENCH_server_throughput.json
scripts/perf_gate.py build/BENCH_server_throughput.json \
    bench/baselines/BENCH_server_throughput.json

echo "== perf: sweep_throughput bench + regression gate =="
cmake --build build -j "$JOBS" --target sweep_throughput >/dev/null
build/bench/sweep_throughput --json build/BENCH_sweep_throughput.json
scripts/perf_gate.py build/BENCH_sweep_throughput.json \
    bench/baselines/BENCH_sweep_throughput.json

# Simulator tier gate: the bench re-verifies bit-identical stats
# between the tiers, asserts hard speedup floors (min/geomean/
# refresh-heavy), and the gate pins the measured ratios — all
# host-speed-independent ratios of two runs on the same machine.
echo "== perf: sim_throughput bench + regression gate =="
cmake --build build -j "$JOBS" --target sim_throughput >/dev/null
build/bench/sim_throughput --json build/BENCH_sim_throughput.json
scripts/perf_gate.py build/BENCH_sim_throughput.json \
    bench/baselines/BENCH_sim_throughput.json

# Contention gate: the bench's own asserts pin the paper's section-4.2
# story (56-64 ns independent band, ~20% mixed-fleet degradation,
# bounded lock step, strip speedup > 1); the gate then pins the margin
# ratios against the committed baseline so calibration drift shows up
# before it walks out of a band (docs/MULTICPU.md).
echo "== perf: mp_contention bench + regression gate =="
cmake --build build -j "$JOBS" --target mp_contention >/dev/null
build/bench/mp_contention --json build/BENCH_mp_contention.json
scripts/perf_gate.py build/BENCH_mp_contention.json \
    bench/baselines/BENCH_mp_contention.json

# Each sanitizer stage builds and runs the FULL test suite: TSan
# audits the worker pool, memo cache, and the metrics registry's
# lock-free hot path (ObsRegistry.ConcurrentIncrementsAreExact); ASan
# and UBSan cover the whole modeling + simulation stack, including
# both simulator tiers (the differential tests run reference and fast
# side by side, so the chime-batched kernels get sanitized too).
sanitize_stage() {
    local kind="$1" dir="build-$1"
    echo "== sanitizer: $kind (full suite) =="
    cmake -B "$dir" -S . \
        -DCMAKE_BUILD_TYPE=Debug -DMACS_SANITIZE="$kind" >/dev/null
    cmake --build "$dir" -j "$JOBS"
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

sanitize_stage thread
sanitize_stage address
sanitize_stage undefined

echo "== all checks passed =="
