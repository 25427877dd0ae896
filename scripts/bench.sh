#!/usr/bin/env bash
# Machine-readable benchmark trajectory (BENCH_pr10.json).
#
# Builds the harness benches and runs the three pipeline-level binaries
# under BCCLAP_THREADS=1 and BCCLAP_THREADS=N (default 4), then merges the
# per-run JSON into one trajectory file at the repo root. The counters of
# the two configurations must be identical — the engine's determinism
# contract, which since PR 3 also covers the blocked LDLT factorization
# and the sparsifier's pure-oracle sampling fast path, and since PR 4 the
# `concurrent_runtimes` case: two bcclap::Runtimes (1 worker and the
# env-resolved count) running the n=128 pipeline concurrently, whose
# `identical` counter asserts byte-identical results in-run. Since PR 5
# the laplacian/pipeline benches carry `batched_solve` cases (k = 1/8/32
# right-hand sides at n = 256 on the bounded-degree sparse generator), and
# a second gate checks the amortization claim: per-RHS wall time at k = 32
# must land strictly below the k = 1 case (factor once, solve many). Since
# PR 6 the pipeline bench carries `pipeline_sparse_*` cases (sparse-first
# CSC LDL^T at n = 1024 / 4096 / 10^4 on the bounded-degree generator),
# and a third gate checks the dispatch: the large cases must report
# sparse_factors >= 1 and dense_factors = 0 — the preconditioner
# factorization actually ran on the sparse path, not the dense kernel.
# Since PR 7 the pipeline bench carries `pipeline_engine_auto/n=1024`
# (facade default engine = "auto"), and a fourth gate checks the registry
# tuner's selection: its engine_is_exact_sparse counter must be 1 — the
# tuner routed the large sparse instance to the exact-sparse engine.
# Since PR 8 the pipeline bench carries `pipeline_cached_solve/n=1024`
# (cold + warm solve on one cache-enabled Runtime), and a fifth gate
# checks the factorization cache: the warm run must report
# warm_cache_hits >= 1 with warm_sparsify_count = 0 and
# identical_to_uncached = 1 — served from the cache, zero prepare work,
# byte-identical to the cache-off facade.
# Since PR 9 the bench_service binary runs `service_solve` throughput
# cases (a 16-request same-topology burst through service::SolverService
# at 1 and 4 workers, cold vs warm shared FactorCache), and a sixth gate
# checks the serving layer: every case must report
# identical_to_reference = 1 (reply bytes equal the direct facade panel),
# the warm cases warm_all_hits = 1 with warm_prepare_work = 0 (served
# from cache residency, zero sparsify/factor work), and the warm mean
# wall time at workers = 1 must land strictly below the cold mean, read on
# an exact-sparse n = 1024 burst pair whose cold prepare is large against
# the noise.
# Since PR 10 the harness emits a per-case "timings" object (wall-clock
# phase splits, exempt from the counter gate by construction), and two
# more gates read it: the AMD quotient-graph ordering must be >= 5x
# faster than the retained exact-MD reference at n = 10^4
# (ordering_amd_vs_exact), and the ordering phase of
# pipeline_sparse_solve/n=10000 must cost at most 25% of the total
# factorization time (ordering + symbolic + numeric) — ordering stays a
# minor phase, not the bottleneck it was with the std::set ordering.
# The script fails loudly if any counter differs between configurations.
#
# Environment knobs:
#   BUILD_DIR=<path>      build tree location (default: build)
#   BENCH_THREADS=<n>     the multi-threaded configuration (default: 4)
#   BENCH_REPEATS=<n>     measured repetitions per case (default: 3)
#   BENCH_OUT=<path>      output file (default: BENCH_pr10.json)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
BENCH_THREADS="${BENCH_THREADS:-4}"
BENCH_REPEATS="${BENCH_REPEATS:-3}"
BENCH_OUT="${BENCH_OUT:-BENCH_pr10.json}"
BENCHES=(bench_pipeline bench_sparsifier bench_laplacian bench_service)

if [ "$BENCH_THREADS" -le 1 ]; then
  echo "BENCH_THREADS must be > 1 (the trajectory compares a 1-thread and" >&2
  echo "a multi-thread configuration; comparing t1 against itself would" >&2
  echo "make the determinism gate vacuous)" >&2
  exit 2
fi

cmake -B "$BUILD_DIR" -S . > /dev/null
cmake --build "$BUILD_DIR" -j --target bcclap_benches > /dev/null

json_dir="$BUILD_DIR/bench-json"
mkdir -p "$json_dir"

runs=()
for bench in "${BENCHES[@]}"; do
  for threads in 1 "$BENCH_THREADS"; do
    out="$json_dir/${bench}_t${threads}.json"
    echo "== $bench (BCCLAP_THREADS=$threads)"
    BCCLAP_THREADS="$threads" "$BUILD_DIR/bench/$bench" \
      --repeats "$BENCH_REPEATS" --json "$out"
    runs+=("$out")
  done
done

# Determinism gate: counters (rounds, sizes, fingerprints) must not depend
# on the thread count; only wall times may differ.
for bench in "${BENCHES[@]}"; do
  a="$json_dir/${bench}_t1.json"
  b="$json_dir/${bench}_t${BENCH_THREADS}.json"
  if ! diff <(grep -o '"counters": {[^}]*}' "$a") \
            <(grep -o '"counters": {[^}]*}' "$b") > /dev/null; then
    echo "ERROR: $bench counters differ between 1 and $BENCH_THREADS threads" >&2
    exit 1
  fi
done
echo "determinism gate: counters identical across thread counts"

# Batched-solve amortization gate: per-RHS wall time of the k=32 panel must
# be strictly below the k=1 case (same instance, same eps — the only
# difference is amortizing sparsify+factor+dispatch across the panel).
wall_of() {  # wall_of <json> <case-name> -> mean wall ms
  grep -F "\"name\": \"$2\"" "$1" \
    | sed 's/.*"mean": \([0-9.eE+-]*\).*/\1/'
}
lap_t1="$json_dir/bench_laplacian_t1.json"
w1="$(wall_of "$lap_t1" "batched_solve/n=256/k=1")"
w32="$(wall_of "$lap_t1" "batched_solve/n=256/k=32")"
if [ -z "$w1" ] || [ -z "$w32" ]; then
  echo "ERROR: batched_solve cases missing from $lap_t1" >&2
  exit 1
fi
if ! awk -v w1="$w1" -v w32="$w32" 'BEGIN { exit !(w32 / 32 < w1) }'; then
  echo "ERROR: batched per-RHS cost did not amortize:" >&2
  echo "  k=1 wall ${w1} ms vs k=32 per-RHS $(awk -v w=$w32 'BEGIN{print w/32}') ms" >&2
  exit 1
fi
echo "batched gate: k=32 per-RHS $(awk -v w=$w32 'BEGIN{printf "%.3f", w/32}') ms < k=1 ${w1} ms"

# Sparse-dispatch gate: the large pipeline cases must have factored their
# preconditioner on the sparse path (sparse_factors >= 1, dense_factors
# = 0) — otherwise the "break the dense O(n^2) wall" claim silently
# regressed to the dense kernel.
counter_of() {  # counter_of <json> <case-name> <counter> -> value
  grep -F "\"name\": \"$2\"" "$1" \
    | sed "s/.*\"$3\": \([0-9.eE+-]*\).*/\1/"
}
pipe_t1="$json_dir/bench_pipeline_t1.json"
for case in "pipeline_sparse_solve/n=1024" \
            "pipeline_sparse_solve/n=4096" \
            "pipeline_sparse_solve/n=10000" \
            "pipeline_sparse_batched/n=10000/k=32"; do
  sf="$(counter_of "$pipe_t1" "$case" sparse_factors)"
  df="$(counter_of "$pipe_t1" "$case" dense_factors)"
  if [ -z "$sf" ] || [ -z "$df" ]; then
    echo "ERROR: $case missing from $pipe_t1" >&2
    exit 1
  fi
  if ! awk -v sf="$sf" -v df="$df" 'BEGIN { exit !(sf >= 1 && df == 0) }'; then
    echo "ERROR: $case ran on the dense path" >&2
    echo "  sparse_factors=$sf dense_factors=$df" >&2
    exit 1
  fi
done
echo "sparse gate: large pipeline cases factored on the sparse path"

# Engine-auto gate: under the facade default engine = "auto", the registry
# tuner must route the n=1024 sparse instance to the exact-sparse engine
# (RunStats engine string, surfaced as the engine_is_exact_sparse counter).
ea="$(counter_of "$pipe_t1" "pipeline_engine_auto/n=1024" engine_is_exact_sparse)"
if [ -z "$ea" ]; then
  echo "ERROR: pipeline_engine_auto/n=1024 missing from $pipe_t1" >&2
  exit 1
fi
if ! awk -v ea="$ea" 'BEGIN { exit !(ea == 1) }'; then
  echo "ERROR: the auto tuner did not select exact-sparse at n=1024" >&2
  echo "  engine_is_exact_sparse=$ea" >&2
  exit 1
fi
echo "engine gate: auto tuner selected exact-sparse at n=1024"

# Factor-cache gate: the warm half of pipeline_cached_solve must have been
# served from the cache (warm_cache_hits >= 1) with zero prepare work
# (warm_sparsify_count = 0) and bytes identical to the cache-off facade
# (identical_to_uncached = 1).
ch="$(counter_of "$pipe_t1" "pipeline_cached_solve/n=1024" warm_cache_hits)"
cs="$(counter_of "$pipe_t1" "pipeline_cached_solve/n=1024" warm_sparsify_count)"
ci="$(counter_of "$pipe_t1" "pipeline_cached_solve/n=1024" identical_to_uncached)"
if [ -z "$ch" ] || [ -z "$cs" ] || [ -z "$ci" ]; then
  echo "ERROR: pipeline_cached_solve/n=1024 missing from $pipe_t1" >&2
  exit 1
fi
if ! awk -v ch="$ch" -v cs="$cs" -v ci="$ci" \
     'BEGIN { exit !(ch >= 1 && cs == 0 && ci == 1) }'; then
  echo "ERROR: the factorization cache did not serve the warm solve" >&2
  echo "  warm_cache_hits=$ch warm_sparsify_count=$cs identical_to_uncached=$ci" >&2
  exit 1
fi
echo "cache gate: warm solve hit the cache with zero prepare work"

# Service gate: every service_solve case must have replied with bytes
# identical to the direct facade panel; the warm cases must have been
# served purely from cache residency (no misses, at least one hit, zero
# sparsify/factor prepare work); and a warm burst at workers=1 must be
# strictly faster than the cold one — the throughput the shared cache buys.
# The timing half reads the exact-sparse n=1024 pair, whose cold burst
# pays an AMD ordering and a supernodal factor (tens of ms): the n=256
# pair's cold prepare is small enough that one-sample noise alone put its
# warm burst above its cold one.
svc_t1="$json_dir/bench_service_t1.json"
for case in "service_solve/n=256/workers=1/cold" \
            "service_solve/n=256/workers=1/warm" \
            "service_solve/n=256/workers=4/cold" \
            "service_solve/n=256/workers=4/warm" \
            "service_solve/exact-sparse/n=1024/workers=1/cold" \
            "service_solve/exact-sparse/n=1024/workers=1/warm"; do
  ir="$(counter_of "$svc_t1" "$case" identical_to_reference)"
  if [ -z "$ir" ]; then
    echo "ERROR: $case missing from $svc_t1" >&2
    exit 1
  fi
  if ! awk -v ir="$ir" 'BEGIN { exit !(ir == 1) }'; then
    echo "ERROR: $case replies differ from the facade reference (ir=$ir)" >&2
    exit 1
  fi
done
for case in "service_solve/n=256/workers=1/warm" \
            "service_solve/n=256/workers=4/warm" \
            "service_solve/exact-sparse/n=1024/workers=1/warm"; do
  wh="$(counter_of "$svc_t1" "$case" warm_all_hits)"
  wp="$(counter_of "$svc_t1" "$case" warm_prepare_work)"
  if ! awk -v wh="$wh" -v wp="$wp" 'BEGIN { exit !(wh == 1 && wp == 0) }'; then
    echo "ERROR: $case was not served from cache residency" >&2
    echo "  warm_all_hits=$wh warm_prepare_work=$wp" >&2
    exit 1
  fi
done
sc="$(wall_of "$svc_t1" "service_solve/exact-sparse/n=1024/workers=1/cold")"
sw="$(wall_of "$svc_t1" "service_solve/exact-sparse/n=1024/workers=1/warm")"
if ! awk -v sc="$sc" -v sw="$sw" 'BEGIN { exit !(sw < sc) }'; then
  echo "ERROR: warm service burst not faster than cold (warm ${sw} ms vs cold ${sc} ms)" >&2
  exit 1
fi
echo "service gate: byte-identical replies; warm burst ${sw} ms < cold ${sc} ms"

# Ordering-speedup gate: the AMD quotient-graph ordering must be at least
# 5x faster than the retained exact-MD reference on the n = 10^4 topology.
# Both readings come from the "timings" object (wall clocks, deliberately
# outside the cross-config counter diff).
amd_ms="$(counter_of "$pipe_t1" "ordering_amd_vs_exact/n=10000" amd_ms)"
exact_ms="$(counter_of "$pipe_t1" "ordering_amd_vs_exact/n=10000" exact_md_ms)"
if [ -z "$amd_ms" ] || [ -z "$exact_ms" ]; then
  echo "ERROR: ordering_amd_vs_exact/n=10000 missing from $pipe_t1" >&2
  exit 1
fi
if ! awk -v a="$amd_ms" -v e="$exact_ms" 'BEGIN { exit !(a * 5 <= e) }'; then
  echo "ERROR: AMD ordering not >= 5x faster than exact-MD at n=10000" >&2
  echo "  amd_ms=$amd_ms exact_md_ms=$exact_ms" >&2
  exit 1
fi
echo "ordering gate: AMD ${amd_ms} ms vs exact-MD ${exact_ms} ms (>= 5x)"

# Factor-phase gate: in the n = 10^4 pipeline factorization, ordering must
# cost at most 25% of the total factor time — the phase split that used
# to be dominated by the std::set ordering.
o_ms="$(counter_of "$pipe_t1" "pipeline_sparse_solve/n=10000" ordering_ms)"
s_ms="$(counter_of "$pipe_t1" "pipeline_sparse_solve/n=10000" symbolic_ms)"
n_ms="$(counter_of "$pipe_t1" "pipeline_sparse_solve/n=10000" numeric_ms)"
if [ -z "$o_ms" ] || [ -z "$s_ms" ] || [ -z "$n_ms" ]; then
  echo "ERROR: factor-phase timings missing from pipeline_sparse_solve/n=10000" >&2
  exit 1
fi
if ! awk -v o="$o_ms" -v s="$s_ms" -v n="$n_ms" \
     'BEGIN { exit !(o <= 0.25 * (o + s + n)) }'; then
  echo "ERROR: ordering phase exceeds 25% of factor time at n=10000" >&2
  echo "  ordering_ms=$o_ms symbolic_ms=$s_ms numeric_ms=$n_ms" >&2
  exit 1
fi
echo "phase gate: ordering ${o_ms} ms of $(awk -v o="$o_ms" -v s="$s_ms" -v n="$n_ms" 'BEGIN{printf "%.3f", o+s+n}') ms factor time"

{
  echo '{'
  echo '  "pr": 10,'
  echo '  "generated_by": "scripts/bench.sh",'
  echo "  \"thread_configs\": [1, $BENCH_THREADS],"
  echo '  "runs": ['
  first=1
  for f in "${runs[@]}"; do
    if [ "$first" -eq 0 ]; then echo '  ,'; fi
    first=0
    sed 's/^/  /' "$f"
  done
  echo '  ]'
  echo '}'
} > "$BENCH_OUT"
echo "wrote $BENCH_OUT"
