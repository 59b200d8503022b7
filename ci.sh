#!/usr/bin/env bash
# Repo CI gate, split into stages so the workflow can run them as a
# job matrix:
#
#   ./ci.sh lint    # fmt, clippy, rustdoc — all warnings denied
#   ./ci.sh test    # release build + full test suite + benchmark smoke
#   ./ci.sh gate    # smokes, golden regression, bench + server gates
#   ./ci.sh portable # RUSTFLAGS-cleared build, scalar/AVX2-dispatch agreement
#   ./ci.sh         # all four, in order
#
# Run from the repo root; exits nonzero on the first failure.
# Artifacts (run manifest, traces, golden diff, server smoke logs)
# land in target/ci-artifacts for the workflow to upload.
set -euo pipefail
cd "$(dirname "$0")"

# Toolchain pin: rust-toolchain.toml tracks "stable" (offline
# environments cannot resolve a versioned channel), so the exact
# version is single-sourced in ci/rust-pin; the workflow reads the
# same file. A literal pin anywhere else is a mismatch bug.
PINNED_RUST="$(tr -d '[:space:]' < ci/rust-pin)"
if grep -qE 'RUSTUP_TOOLCHAIN: *"?[0-9]' .github/workflows/ci.yml; then
  echo "ci.yml hard-codes a toolchain version; the pin lives in ci/rust-pin only" >&2
  exit 1
fi
have_rust="$(rustc --version | awk '{print $2}')"
if [ "$have_rust" != "$PINNED_RUST" ]; then
  if [ "${CI:-false}" = "true" ]; then
    echo "CI requires rustc $PINNED_RUST, found $have_rust" >&2
    exit 1
  fi
  echo "warning: rustc $have_rust differs from the pinned $PINNED_RUST" >&2
fi

stage="${1:-all}"
case "$stage" in
  lint|test|gate|portable|all) ;;
  *) echo "usage: ci.sh [lint|test|gate|portable|all]" >&2; exit 2 ;;
esac

artifacts="target/ci-artifacts"
mkdir -p "$artifacts"

# Runs a fast-fidelity experiments smoke, accepting exit 0 (all shape
# checks pass) and exit 3 (the harness completed but known
# fast-fidelity shape checks failed — an expected outcome at smoke
# settings). Any other exit code is a crash and fails CI.
run_smoke() {
  local rc=0
  "$@" || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
    echo "smoke crashed (exit $rc, not a shape-check failure): $*" >&2
    exit "$rc"
  fi
}

# Prints one line per shape check of an experiments report on stdin:
# the experiment id, the check's index within its experiment, and its
# ✅/❌ verdict. Checks are keyed by index because their descriptions
# carry measured numbers.
verdicts() {
  awk '/^## /{id=$2; n=0} /^- (✅|❌)/{n++; print id, n, $2}'
}

lint_stage() {
  echo "==> cargo fmt --check"
  cargo fmt --all -- --check

  echo "==> cargo clippy (warnings denied)"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "==> cargo doc (warnings denied)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
}

test_stage() {
  echo "==> cargo build --release"
  cargo build --release

  echo "==> cargo test"
  cargo test -q

  # The benchmark is a package of its own, outside the workspace, so the
  # workspace test run never builds it. Its smoke test runs every
  # workload at smoke size, untraced and traced, and checks the outputs
  # and the metric keys BENCHMARK.json names.
  echo "==> benchmark smoke (cargo test --manifest-path benchmark/Cargo.toml)"
  cargo test -q --manifest-path benchmark/Cargo.toml
}

# Kills a smoke daemon left behind by a failed check so neither a
# local run nor a CI job leaks the process.
server_pid=""
cleanup() {
  if [ -n "$server_pid" ]; then
    kill "$server_pid" 2>/dev/null || true
  fi
}
trap cleanup EXIT

server_smoke() {
  echo "==> server smoke (daemon, two-topology job mix, metrics, drain)"
  rm -f "$artifacts/server.port"
  ./target/release/rotsv-server --lanes 4 --workers 2 \
    --metrics-out "$artifacts/server-metrics.prom" \
    --port-file "$artifacts/server.port" \
    > "$artifacts/server-log.txt" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$artifacts/server.port" ] && break
    sleep 0.1
  done
  if ! [ -s "$artifacts/server.port" ]; then
    echo "server never wrote its port file" >&2
    kill "$server_pid" 2>/dev/null || true
    exit 1
  fi
  local addr
  addr="$(tr -d '[:space:]' < "$artifacts/server.port")"

  # Two jobs with different ring topologies: they land in different
  # engine groups, so this exercises cross-group scheduling, streamed
  # verdicts, and the per-job manifest trailer in one session.
  ./target/release/rotsv-client submit "$addr" \
    '{"type":"submit","id":1,"n_segments":1,"dies":2,"seed":7}' \
    '{"type":"submit","id":2,"n_segments":2,"dies":2,"seed":8}' \
    > "$artifacts/server-smoke.txt"
  [ "$(grep -cE '"type": ?"verdict"' "$artifacts/server-smoke.txt")" -eq 4 ]
  [ "$(grep -cE '"type": ?"done"' "$artifacts/server-smoke.txt")" -eq 2 ]
  grep -q '"manifest"' "$artifacts/server-smoke.txt"

  # Live metrics exposition must already report the completed dies.
  ./target/release/rotsv-client metrics "$addr" > "$artifacts/server-metrics-live.txt"
  grep -q 'rotsv_server_dies_completed 4' "$artifacts/server-metrics-live.txt"

  # Clean drain: the daemon must exit 0 and leave a final snapshot.
  ./target/release/rotsv-client shutdown "$addr" >/dev/null
  wait "$server_pid"
  server_pid=""
  test -s "$artifacts/server-metrics.prom" \
    || { echo "missing server Prometheus snapshot" >&2; exit 1; }
}

gate_stage() {
  # The gate drives the release binaries; build is a no-op when the
  # test stage (or the CI cache) already produced them.
  echo "==> cargo build --release (gate binaries)"
  cargo build --release

  echo "==> observability smoke (e1 --fast --metrics-out)"
  ./target/release/experiments e1 --fast --metrics-out --out "$artifacts"
  ./target/release/experiments validate-manifest "$artifacts/manifest_e1.json"
  test -s "$artifacts/metrics.prom" || { echo "missing Prometheus snapshot" >&2; exit 1; }

  # Telemetry smoke: one MC experiment with the event ring on must emit
  # a Chrome trace that parses and carries at least one mc_sample slice
  # and one counter track (validate-trace enforces exactly that
  # contract). run_smoke accepts the harness's exit 3 ("completed, but
  # known fast-fidelity shape checks failed") and fails on anything
  # else — a crashed run can no longer hide behind the smoke.
  echo "==> telemetry smoke (e3 --fast --trace-out)"
  run_smoke ./target/release/experiments e3 --fast \
    --trace-out "$artifacts/trace_e3.json" --out "$artifacts/mc-trace" >/dev/null
  ./target/release/experiments validate-trace "$artifacts/trace_e3.json"

  # Claim gate: every experiment at fast fidelity must reach exactly the
  # committed verdict on each of the paper's shape checks. The two ❌ in
  # ci/fast-verdicts.txt are effects of the reduced MC size (e3's
  # aliasing check at the highest V_DD, e5's separation ordering); a
  # check flipping either way fails here.
  echo "==> fast-fidelity claim verdicts (experiments all --fast vs ci/fast-verdicts.txt)"
  run_smoke ./target/release/experiments all --fast --out "$artifacts/all-fast" \
    > "$artifacts/all-fast-out.txt"
  verdicts < "$artifacts/all-fast-out.txt" > "$artifacts/fast-verdicts.txt"
  diff ci/fast-verdicts.txt "$artifacts/fast-verdicts.txt"

  echo "==> MC engine agreement (every engine, bit for bit)"
  cargo test -q -p rotsv --release --test batched_engine

  # The MC engine smoke: one real MC experiment on the scalar schedule
  # (one die per one-lane session) and on the default (auto, which
  # resolves to the batched refill queue) at fast fidelity. Every engine
  # schedules the same per-die lane-engine measurement, so engine
  # selection must never change a number: the two runs must reach the
  # same verdict on every shape check and write byte-identical CSVs.
  # Fast fidelity intentionally misses some paper shape checks (on both
  # engines); run_smoke classifies exit codes: 3 (shape checks failed)
  # is expected, a crash fails here rather than producing an empty
  # verdict file.
  echo "==> MC engine smoke (e3/e5 --fast, scalar vs default-auto verdicts and CSVs)"
  for exp in e3 e5; do
    run_smoke ./target/release/experiments "$exp" --fast --engine scalar \
      --out "$artifacts/mc-scalar" > "$artifacts/mc-scalar-out-$exp.txt"
    run_smoke ./target/release/experiments "$exp" --fast \
      --out "$artifacts/mc-auto" > "$artifacts/mc-auto-out-$exp.txt"
    grep -E '✅|❌' "$artifacts/mc-scalar-out-$exp.txt" | sed 's/ (.*//' \
      > "$artifacts/mc-scalar-checks-$exp.txt"
    grep -E '✅|❌' "$artifacts/mc-auto-out-$exp.txt" | sed 's/ (.*//' \
      > "$artifacts/mc-auto-checks-$exp.txt"
    diff "$artifacts/mc-scalar-checks-$exp.txt" "$artifacts/mc-auto-checks-$exp.txt"
    cmp "$artifacts/mc-scalar/$exp.csv" "$artifacts/mc-auto/$exp.csv"
  done

  # Golden signatures are measured per sample with measure_delta_t on
  # the lane engine every population runs on: no --engine
  # flag here (the golden subcommand does not take one), and since
  # engine selection cannot change a number, the check holds under the
  # auto default that this binary's figure runs use.
  echo "==> golden regression check (experiments golden --check)"
  ./target/release/experiments golden --check 2>&1 | tee "$artifacts/golden-check.txt"

  server_smoke

  echo "==> bench_solver --check (fail beyond 25 %, warn beyond 15 %)"
  ./target/release/bench_solver --check
}

portable_stage() {
  # The tree carries no target-cpu pin (runtime dispatch covers the
  # wide vectors), so "portable" here means: any ambient RUSTFLAGS
  # cleared, and the runtime dispatch capped below the host's level.
  # ROTSV_SIMD=scalar is the configuration a machine without AVX lands
  # on; ROTSV_SIMD=avx2 one without AVX-512 (and the arm every lane
  # count with 4 | k and 8 ∤ k runs even on an AVX-512 host). The
  # agreement suites then prove each capped path produces the same
  # bits as the others (the wide-lane suite re-raises the level
  # internally, so on an AVX host it compares the arms directly).
  echo "==> portable build (RUSTFLAGS cleared)"
  RUSTFLAGS="" cargo build --release -p rotsv

  for level in scalar avx2; do
    echo "==> $level-dispatch agreement suites (batched_engine, simd_wide_lanes)"
    RUSTFLAGS="" ROTSV_SIMD="$level" cargo test -q -p rotsv --release \
      --test batched_engine --test simd_wide_lanes
  done
}

case "$stage" in
  lint) lint_stage ;;
  test) test_stage ;;
  gate) gate_stage ;;
  portable) portable_stage ;;
  all)
    lint_stage
    test_stage
    gate_stage
    portable_stage
    ;;
esac

echo "CI stage '$stage' green."
