#!/bin/bash
# Regenerates the full evidence set: every test, then every benchmark.
# Fails fast and propagates the first non-zero exit code, so CI (and
# humans) can trust a zero exit to mean "everything ran and passed".
set -euo pipefail
cd "$(dirname "$0")"

ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt
ctest_rc=${PIPESTATUS[0]}
if [ "$ctest_rc" -ne 0 ]; then
  echo "ctest failed with exit code $ctest_rc" >&2
  exit "$ctest_rc"
fi

run_benches() {
  local b rc
  for b in build/bench/*; do
    [ -x "$b" ] || continue
    echo "== $b =="
    "$b" || { rc=$?; echo "FAILED ($rc): $b" >&2; return "$rc"; }
  done
}
run_benches 2>&1 | tee bench_output.txt
bench_rc=${PIPESTATUS[0]}
if [ "$bench_rc" -ne 0 ]; then
  exit "$bench_rc"
fi

# Offline protocol validation of the freshly written evidence, every
# file strictly.
for f in bench_results/*.json; do
  ./build/tools/zapc-trace --validate "$f"
done

# Introspection-plane acceptance (DESIGN.md §9): with an injected slow
# node, the live health snapshot must name that node's pod as the
# straggler with nonzero lag vs. the cluster median.
./build/tools/zapc-top --snapshot --check > /dev/null

# Downtime-attribution acceptance (DESIGN.md §10): every op in the
# fresh evidence must attribute cleanly, with critical-path segments
# summing to the measured downtime within 1%.
./build/tools/zapc-report --check bench_results > /dev/null

# Deterministic fault-injection soak (DESIGN.md §8.4): 200 seeded
# schedules, each asserting the failure-model invariants end-to-end.
./build/tools/zapc-soak --seeds 200

# Unattended-recovery soak (DESIGN.md §12): each seed kills a random
# supervised node at a random time mid-transfer and asserts byte-exact
# survival, exactly one recovery, and lost work bounded by one
# checkpoint interval.
./build/tools/zapc-soak --kill-nodes --seeds 200

echo "All tests, benches, soak, and trace validation passed; JSON evidence under bench_results/."
