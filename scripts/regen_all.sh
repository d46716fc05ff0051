#!/usr/bin/env bash
# Regenerates every paper table/figure plus the ablations into outputs/.
#
# All ported benches run through the parallel experiment scheduler: --jobs
# shards grid points across host threads and the content-addressed cache
# (outputs/.cache) makes re-runs nearly free. Tables are byte-identical for
# any job count and for cache hits, so regenerating after a doc-only change
# costs seconds, not minutes.
#
# Usage: scripts/regen_all.sh [build-dir] [outputs-dir] [--jobs N] [--quick]
#   --jobs N   scheduler worker threads per binary (default: all host cores)
#   --quick    smoke-test problem sizes (CI; shapes, not paper numbers)
set -euo pipefail

BUILD="build"
OUT="outputs"
JOBS="$(nproc 2>/dev/null || echo 1)"
QUICK=0

pos=0
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    --jobs=*) JOBS="${1#--jobs=}"; shift ;;
    --quick) QUICK=1; shift ;;
    *)
      pos=$((pos + 1))
      case $pos in
        1) BUILD="$1" ;;
        2) OUT="$1" ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
      esac
      shift ;;
  esac
done

mkdir -p "$OUT"
CACHE="$OUT/.cache"

now_ms() { date +%s%3N; }

SUMMARY=""
TOTAL_MS=0

# Every ported binary goes through the scheduler: forward the job count and
# pin the cache under the chosen outputs dir.
run() {
  local name="$1"
  shift
  echo "== $name (--jobs $JOBS) =="
  local t0 t1 dt
  t0=$(now_ms)
  "$BUILD/bench/$name" --csv "$OUT/$name.csv" \
    --jobs "$JOBS" --cache-dir "$CACHE" "$@" | tee "$OUT/$name.txt"
  t1=$(now_ms)
  dt=$((t1 - t0))
  TOTAL_MS=$((TOTAL_MS + dt))
  SUMMARY+=$(printf '%-28s %8.2fs' "$name" "$(echo "$dt" | awk '{print $1/1000}')")$'\n'
  echo
}

# Unported host-wall-clock benches (no scheduler, no cache).
run_raw() {
  local name="$1"
  shift
  echo "== $name =="
  local t0 t1 dt
  t0=$(now_ms)
  "$BUILD/bench/$name" "$@" | tee "$OUT/$name.txt"
  t1=$(now_ms)
  dt=$((t1 - t0))
  TOTAL_MS=$((TOTAL_MS + dt))
  SUMMARY+=$(printf '%-28s %8.2fs' "$name" "$(echo "$dt" | awk '{print $1/1000}')")$'\n'
  echo
}

if [ "$QUICK" = 1 ]; then
  run bench_table3_network --words 4096
  run bench_fig1_prefix --nmin 4096 --nmax 16384 --reps 1
  run bench_fig2_samplesort --nmin 16384 --nmax 32768 --reps 1
  run bench_fig3_listrank --nmin 8192 --nmax 16384 --reps 1
  run bench_fig4_latency --nmin 4096 --nmax 16384 --reps 1 --lat-multipliers 1,8
  run bench_fig5_crossover_l --nmin 4096 --nmax 65536 --reps 1 --lat-multipliers 1,4
  run bench_fig6_crossover_o --nmin 4096 --nmax 65536 --reps 1 --ovh-multipliers 1,2
  run bench_table4_nmin --nmin 4096 --nmax 65536 --reps 1
  run bench_fig7_membank --accesses 200
  run bench_ablate_schedule
  run bench_ablate_layout
  run bench_ablate_batching --words 64
  run bench_ablate_wyllie --nmin 4096 --nmax 4096
  run bench_ablate_congestion --n 16384 --reps 1
  run bench_ablate_pipelining --accesses 300
  run bench_ablate_radix --n 16384
  run bench_related_logp
  run bench_sweep_gap --n 16384 --reps 1
  run bench_netcurve
  run bench_sweep_p --nmin 4096 --nmax 32768 --reps 1 --procs 4,8
  run bench_harness --points 4 --n 4096 --jobs-curve "1,$JOBS" \
    --out "$OUT/BENCH_harness.json" --scratch "$OUT/.bench_harness_scratch"
  run bench_lanes --procs 8,32 --phases 20 --reps 1 \
    --out "$OUT/BENCH_lanes.json"
else
  run bench_table3_network
  run bench_fig1_prefix
  run bench_fig2_samplesort
  run bench_fig3_listrank
  run bench_fig4_latency
  run bench_fig5_crossover_l
  run bench_fig6_crossover_o
  run bench_table4_nmin
  run bench_fig7_membank

  # Ablations / related work (no CSV flag needed but harmless).
  run bench_ablate_schedule
  run bench_ablate_layout
  run bench_ablate_batching
  run bench_ablate_wyllie
  run bench_ablate_congestion
  run bench_ablate_pipelining
  run bench_ablate_radix
  run bench_related_logp
  run bench_sweep_gap
  run bench_netcurve
  run bench_sweep_p

  # Scheduler benchmark: cold/warm points-per-second and the --jobs curve.
  run bench_harness --out "$OUT/BENCH_harness.json" \
    --scratch "$OUT/.bench_harness_scratch"

  # Lane sync floor: fiber-lane phases/sec at p >> host cores.
  run bench_lanes --out "$OUT/BENCH_lanes.json"

  run_raw bench_micro_host --benchmark_min_time=0.05
fi

echo "== wall-clock summary (--jobs $JOBS) =="
printf '%s' "$SUMMARY"
printf '%-28s %8.2fs\n' "total" "$(echo "$TOTAL_MS" | awk '{print $1/1000}')"
echo
echo "all outputs in $OUT/ (result cache: $CACHE)"
