#!/usr/bin/env bash
# The full pre-merge gate: format, lints, build, docs, tests.
# Runs every step even after a failure and reports all failures at the end,
# so one iteration surfaces everything that needs fixing.
set -uo pipefail
cd "$(dirname "$0")/.."

failed=()
step() {
  local name=$1
  shift
  echo "==> ${name}: $*"
  if ! "$@"; then
    failed+=("${name}")
  fi
}

# The serving loop must be seed-deterministic: the same `repro serve`
# sweep at two worker counts must emit byte-identical results. The
# manifest header records wall times, so compare from "result" down.
serve_determinism() {
  local dir=target/serve-determinism out1 out2
  rm -rf "${dir}" && mkdir -p "${dir}/j1" "${dir}/j2"
  ./target/release/repro serve --quick --jobs 1 --metrics-out "${dir}/j1" >/dev/null || return 1
  ./target/release/repro serve --quick --jobs 2 --metrics-out "${dir}/j2" >/dev/null || return 1
  out1=$(sed -n '/"result"/,$p' "${dir}/j1/serve.json")
  out2=$(sed -n '/"result"/,$p' "${dir}/j2/serve.json")
  [[ -n ${out1} ]] && diff <(echo "${out1}") <(echo "${out2}")
}

# The scheduling replay must be seed-deterministic too: the same
# `repro sched` study at two worker counts must emit byte-identical results.
sched_determinism() {
  local dir=target/sched-determinism out1 out2
  rm -rf "${dir}" && mkdir -p "${dir}/j1" "${dir}/j2"
  ./target/release/repro sched --quick --jobs 1 --metrics-out "${dir}/j1" >/dev/null || return 1
  ./target/release/repro sched --quick --jobs 2 --metrics-out "${dir}/j2" >/dev/null || return 1
  out1=$(sed -n '/"result"/,$p' "${dir}/j1/sched.json")
  out2=$(sed -n '/"result"/,$p' "${dir}/j2/sched.json")
  [[ -n ${out1} ]] && diff <(echo "${out1}") <(echo "${out2}")
}

# The event-driven memory engine must be externally indistinguishable
# from the cycle-exact reference (DESIGN.md §11): the same quick co-run
# on both engines must print byte-identical results.
engine_parity() {
  local cyc evt
  cyc=$(./target/release/pccs corun --soc xavier --pu GPU --bench streamcluster \
    --quick --engine cycle) || return 1
  evt=$(./target/release/pccs corun --soc xavier --pu GPU --bench streamcluster \
    --quick --engine event) || return 1
  diff <(echo "${cyc}") <(echo "${evt}")
}

# The committed model-accuracy baseline (ACCURACY_<host>_<date>.json,
# DESIGN.md §12) must exist and satisfy the pccs-accuracy/v1 schema.
accuracy_baseline() {
  local f found=0
  for f in ACCURACY_*.json; do
    [[ -e ${f} ]] || break
    found=1
    ./target/release/pccs audit --validate "${f}" || return 1
  done
  if ((!found)); then
    echo "no committed ACCURACY_*.json baseline at the repo root" >&2
    return 1
  fi
}

# Every workspace crate must appear in the rustdoc output; a crate missing
# from target/doc means it fell out of the doc build (e.g. dropped from the
# workspace members) without anyone noticing.
doc_complete() {
  local missing=0 name found candidate
  for manifest in crates/*/Cargo.toml; do
    # Binary-only crates are documented under their [[bin]] name, not the
    # package name, so accept any name declared in the manifest.
    found=0
    while IFS= read -r name; do
      candidate="target/doc/${name//-/_}"
      [[ -d ${candidate} ]] && found=1
    done < <(sed -n 's/^name = "\(.*\)"/\1/p' "${manifest}")
    if ((!found)); then
      echo "crate $(dirname "${manifest}") missing from target/doc" >&2
      missing=1
    fi
  done
  return "${missing}"
}

step fmt    cargo fmt --all -- --check
step clippy cargo clippy --workspace --all-targets -- -D warnings
step build  cargo build --release --workspace
step lint   ./target/release/pccs-lint --root .
# Workspace-rule smoke: the full two-phase analysis via the CLI (symbol
# index + cross-file rules), restricted to workspace scope so a clean
# tree proves the dead-pub/drift/cycle/expiry/stale-waiver rules pass.
step lint-workspace ./target/release/pccs lint --scope workspace
# Diff-aware smoke: `pccs lint --changed` must run end to end against
# the previous commit (its findings are a subset of the full run).
step lint-changed ./target/release/pccs lint --changed HEAD~1
step sched-smoke ./target/release/pccs sched --quick
# Serving smoke: the online loop must run end to end under the greedy
# policy (pccs-policy calibration is exercised by the repro sweep below).
step serve-smoke ./target/release/pccs serve --quick --policy greedy
step serve-determinism serve_determinism
step sched-determinism sched_determinism
# Repro smoke also exports a Perfetto trace, validated below.
step repro-smoke ./target/release/repro oblivious --quick --jobs 2 \
  --trace-out target/trace-smoke.json
# Trace smoke: the exported trace must be structurally sound with the
# nesting depth and counter coverage DESIGN.md §9 promises.
step trace-check ./target/release/pccs trace-check --file target/trace-smoke.json \
  --min-depth 3 --min-counters 10
# Bench smoke: a quick `pccs bench` run must produce a schema-valid
# BENCH_*.json (the CLI validates before writing; failure exits non-zero).
step bench-smoke ./target/release/pccs bench --quick --out target/BENCH_smoke.json
# Audit smoke: a quick `pccs audit` must replay the validation figures
# with the prediction-audit ledger on and produce a schema-valid
# ACCURACY_*.json (the CLI validates before writing, and run_accuracy
# asserts the ledger MAE matches each figure's headline error).
step audit-smoke ./target/release/pccs audit --quick --out target/ACCURACY_smoke.json
# The committed accuracy baseline must pass schema validation.
step accuracy-baseline accuracy_baseline
# Conformance smoke: a short co-run with the DDR protocol sanitizer
# attached must replay with zero JEDEC timing violations.
step conformance-smoke ./target/release/pccs corun --soc xavier --pu GPU \
  --bench streamcluster --quick --conformance
# Engine-parity smoke: the event fast path and the cycle-exact reference
# must agree byte-for-byte on a real co-run.
step engine-parity engine_parity
step doc    cargo doc --no-deps --workspace
step doc-complete doc_complete
step test   cargo test --release --workspace
# perfbench is a package of its own that links the crates' public API:
# build and test it here, so an API change that breaks the benchmark
# fails the gate instead of the next benchmark run.
step perfbench-test cargo test --release --offline --manifest-path perfbench/Cargo.toml

if ((${#failed[@]})); then
  echo "FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "all checks passed"
