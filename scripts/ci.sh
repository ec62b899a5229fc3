#!/usr/bin/env bash
# Full CI gate: release build, tests, and lint-clean clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Benchmark-build guard: perfbench/ is its own package with a committed
# lockfile, built with --locked. A crate change that would rewrite
# perfbench/Cargo.lock (a dependency added or dropped) fails here instead
# of silently breaking the benchmark command in BENCHMARK.json.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml

# Paper-scale output guard: every gate above runs at test scale. One short
# pass of each perfbench workload must reproduce its committed digest (a
# fold of every simulated statistic), so a change to paper-scale simulated
# output fails here.
./scripts/perfbench_digests.sh

# Profiler regression gates: golden counters must match the checked-in
# snapshots byte-for-byte, and every workload must stay equivalent to its
# scalar reference across the slave-size x np-type sweep.
cargo test --release -q --test golden_counters
cargo test --release -q -p cuda-np --test equivalence

# Trace-replay gate: capture/replay must be byte-identical to direct
# launches for every workload x transform config, the tuner must interpret
# each candidate exactly once, the np-trace-v1 codec must round-trip and
# reject corruption with typed errors, and the checked-in golden trace
# artifacts must match byte-for-byte.
cargo test --release -q -p np-gpu-sim --test golden_traces
cargo test --release -q -p np-gpu-sim --test trace_codec_properties
cargo test --release -q -p cuda-np --test replay_equivalence

# Race-freedom gate: every paper workload's transformed kernel must pass
# the happens-before checker at slave sizes {2,4,8} (and its dropped-barrier
# / un-gated-broadcast mutants must fail it), both through the test suites
# and through the npcc --check-races CLI exit codes.
cargo test --release -q -p cuda-np --test conformance
cargo test --release -q --test racecheck_properties
cargo test --release -q -p cuda-np --test npcc_cli

# Bench-trajectory gate: regenerate the machine-readable perf record twice
# (it must be byte-identical — the simulator is deterministic), then diff it
# against the committed baseline with a ±2% cycle tolerance.
cargo run --release -q -p np-harness -- --test-scale --json BENCH_results.json
cp BENCH_results.json BENCH_results.rerun.json
cargo run --release -q -p np-harness -- --test-scale --json BENCH_results.json \
  --check-bench BENCH_baseline.gtx680.json --tolerance 0.02
cmp BENCH_results.json BENCH_results.rerun.json \
  || { echo "BENCH_results.json is not deterministic" >&2; exit 1; }
rm -f BENCH_results.rerun.json

# Perf smoke: time the sweep on the host (parallel per-block interpretation)
# and keep the measurement as a non-gated artifact. The gate is purely
# functional — the trajectory must still match the committed baseline; the
# wall-clock number itself never fails the build.
cargo run --release -q -p np-harness -- --test-scale --wall-clock \
  --check-bench BENCH_baseline.gtx680.json --tolerance 0.02
test -s BENCH_wallclock.json \
  || { echo "BENCH_wallclock.json was not written" >&2; exit 1; }
cargo test --release -q -p cuda-np --test parallel_determinism

# Serve robustness gate: the suites above already cover shedding, deadlines,
# quarantine, and corruption recovery in-process; here the real `npcc serve`
# binary takes a 30-second seeded chaos soak — delays, worker panics, forced
# sim faults, cache corruption, and more clients than queue slots so
# overload shedding fires. The soak's own gate enforces exactly-once
# delivery, byte-identical ok payloads, and zero escaped worker panics
# (exit nonzero otherwise). Then the SIGTERM drain check: deliver a request
# over a held-open pipe, signal, and require a clean flush-and-exit.
cargo test --release -q -p cuda-np --test serve --test serve_cache_properties
cargo build --release -q -p cuda-np --bin npcc
./target/release/npcc serve --soak 30 --chaos 42 --workers 2 --queue 4 \
  --clients 8 --bench-out BENCH_serve.json
grep -q '"schema":"np-serve-bench-v1"' BENCH_serve.json \
  || { echo "BENCH_serve.json missing or malformed" >&2; exit 1; }
# The chaos harness corrupts the capture-artifact cache alongside the
# result cache; the soak report must carry the trace-cache counters
# proving that path was exercised and survived.
grep -q '"trace_replays"' BENCH_serve.json \
  || { echo "BENCH_serve.json missing trace-cache counters" >&2; exit 1; }
./scripts/serve_drain_check.sh

# Observability gate: stripped np-obs logs and registry snapshots must be
# byte-identical across reruns (two workloads, including the tuner's
# thread pool), the obs property suite must pass, and a chaos soak with
# `--log` must keep correlation ids unique and on every request event.
cargo test --release -q -p np-obs
cargo test --release -q -p cuda-np --test obs_determinism
./scripts/obs_determinism_check.sh

# Device-matrix gate: descriptor validation/round-trip properties, the
# cross-device invariance contract (functional outputs and race reports
# byte-identical across the registry; cycles must differ) with per-device
# golden metric snapshots, then the sharded sweep matrix: each device's
# trajectory gated against its own committed BENCH_baseline.<device>.json,
# with a rerun cmp proving the matrix output is byte-deterministic and
# independent of worker scheduling. With --devices, `BENCH_baseline.json`
# is a path template: each device reads `BENCH_baseline.<device>.json`.
cargo test --release -q -p np-gpu-sim --test device_descriptor_properties
cargo test --release -q -p cuda-np --test device_invariance
cargo run --release -q -p np-harness -- --test-scale \
  --devices gtx680,k20c,maxwell --json BENCH_results.json \
  --check-bench BENCH_baseline.json --tolerance 0.02
for d in gtx680 k20c maxwell; do
  cp "BENCH_results.$d.json" "BENCH_results.$d.rerun.json"
done
cargo run --release -q -p np-harness -- --test-scale \
  --devices gtx680,k20c,maxwell --json BENCH_results.json
for d in gtx680 k20c maxwell; do
  cmp "BENCH_results.$d.json" "BENCH_results.$d.rerun.json" \
    || { echo "BENCH_results.$d.json is not deterministic" >&2; exit 1; }
  rm -f "BENCH_results.$d.rerun.json"
done
# The matrix and the single-device path must agree exactly.
cmp BENCH_results.gtx680.json BENCH_results.json \
  || { echo "matrix gtx680 trajectory diverges from the serial sweep" >&2; exit 1; }

# Tuner-policy gate: the cost model's pruned and predict policies must be
# *never slower* than the exhaustive sweep — bit-identical winner cycles
# across all ten workloads x the device registry, the exhaustive winner
# always inside the evaluated set, strictly fewer evaluations on at least
# half the workloads, and the measured winner inside the model's static
# top-2 on >=80% of workload x device cells. Then the CLI surface: a
# pruned --explain must report the same winner as an exhaustive one.
cargo test --release -q -p np-harness --test tuner_policy
cargo test --release -q -p cuda-np --lib costmodel
cargo build --release -q -p cuda-np --bin npcc
cat > /tmp/tuner_policy_smoke.cu <<'CU'
__global__ void tmv(const float* a, const float* x, float* out, int n) {
    int row = blockIdx.x * blockDim.x + threadIdx.x;
    float sum = 0.0f;
    #pragma np parallel for reduction(+:sum)
    for (int j = 0; j < n; j++) {
        sum += a[j * n + row] * x[j];
    }
    out[row] = sum;
}
CU
./target/release/npcc --explain /tmp/tuner_policy_smoke.cu \
  > /dev/null 2> /tmp/tp_exh.txt
./target/release/npcc --explain --tune-policy pruned /tmp/tuner_policy_smoke.cu \
  > /dev/null 2> /tmp/tp_pruned.txt
./target/release/npcc --explain --tune-policy predict /tmp/tuner_policy_smoke.cu \
  > /dev/null 2> /tmp/tp_predict.txt
for f in /tmp/tp_pruned.txt /tmp/tp_predict.txt; do
  cmp <(grep '^npcc: winner' /tmp/tp_exh.txt) <(grep '^npcc: winner' "$f") \
    || { echo "$f: non-exhaustive policy picked a different winner" >&2; exit 1; }
done
