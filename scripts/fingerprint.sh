#!/usr/bin/env bash
# Charge fingerprints: runs every deterministic bench at its default seed
# and writes one sha256 per bench, over its metrics JSONL, CSV and stdout,
# in that order.  Every bench/bench_*.cpp is either fingerprinted here or
# named in EXEMPT with the reason its output cannot be hashed; a new bench
# on neither list fails the run.  The checked-in bench/FINGERPRINTS is the oracle that a
# host-only change (speed, memory, refactoring) left every charge, counter
# and printed table exactly as it was.  A change that moves charges on
# purpose regenerates the file with --update and says why in CHANGES.md.
# Registered as the `charge_fingerprints` ctest.
#
# Usage: scripts/fingerprint.sh [build-dir] [--update]
#   Without --update, exits 1 when any fingerprint differs from the file.
set -euo pipefail

BUILD_DIR="${1:-build}"
UPDATE="${2:-}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FILE="$ROOT/bench/FINGERPRINTS"
BENCHES=(bench_e1_merge bench_e3_sort_shootout bench_e5_crossover
         bench_e8_counting bench_r1_faults bench_c1_cache bench_s1_shard
         bench_k1_store bench_f1_recovery bench_t1_traffic
         bench_w1_lowwrite bench_a1_layout bench_a2_wear bench_e2_mergesort
         bench_e4_permute_bound bench_e6_rounds bench_e7_flash_sim
         bench_e9_spmv)
# Benches whose stdout carries wall-clock timings, so no two runs hash alike.
declare -A EXEMPT=(
  [bench_m0_overhead]="prints host timings (simulator overhead and speedups)"
  [bench_e10_ablation]="google-benchmark run: prints per-variant wall-clock timings"
)

for src in "$ROOT"/bench/bench_*.cpp; do
  name="$(basename "$src" .cpp)"
  [[ -n "${EXEMPT[$name]:-}" ]] && continue
  listed=0
  for b in "${BENCHES[@]}"; do [[ "$b" == "$name" ]] && listed=1; done
  if [[ $listed -eq 0 ]]; then
    echo "fingerprint: $name is neither fingerprinted nor exempt" \
         "(add it to BENCHES, or to EXEMPT with a reason)" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

{
  echo "# sha256 over metrics JSONL + CSV + stdout per bench at its default"
  echo "# seed; regenerate with scripts/fingerprint.sh <build-dir> --update"
  for name in "${BENCHES[@]}"; do
    bin="$BUILD_DIR/bench/$name"
    if [[ ! -x "$bin" ]]; then
      echo "fingerprint: $bin not built" >&2
      exit 1
    fi
    "$bin" --csv="$WORK/$name.csv" --metrics="$WORK/$name.jsonl" \
      > "$WORK/$name.out"
    hash="$(cat "$WORK/$name.jsonl" "$WORK/$name.csv" "$WORK/$name.out" |
            sha256sum | cut -d' ' -f1)"
    echo "$hash  $name"
  done
} > "$WORK/FINGERPRINTS"

if [[ "$UPDATE" == "--update" ]]; then
  cp "$WORK/FINGERPRINTS" "$FILE"
  echo "wrote $FILE"
  exit 0
fi
if ! diff -u "$FILE" "$WORK/FINGERPRINTS"; then
  echo "charge fingerprints FAILED: outputs differ from bench/FINGERPRINTS"
  exit 1
fi
echo "charge fingerprints match bench/FINGERPRINTS (${#BENCHES[@]} benches)"
