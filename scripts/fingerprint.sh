#!/usr/bin/env bash
# Charge fingerprints: runs the deterministic bench subset (the default list
# of scripts/check_jobs_determinism.sh) at each bench's default seed and
# writes one sha256 per bench, over its metrics JSONL, CSV and stdout, in
# that order.  The checked-in bench/FINGERPRINTS is the oracle that a
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
         bench_w1_lowwrite)

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
