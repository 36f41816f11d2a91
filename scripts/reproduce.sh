#!/usr/bin/env bash
# Reproduce every result: build, full test suite, every paper figure/table,
# the ablations and the micro benchmarks. Outputs land in ./results.
set -euo pipefail
cd "$(dirname "$0")/.."

# Whatever generator build/ was configured with (Makefiles by default).
cmake -B build -S .
cmake --build build -j"$(nproc)"
mkdir -p results

ctest --test-dir build --output-on-failure 2>&1 | tee results/tests.txt

for b in build/bench/*; do
  # Only the bench binaries: build/bench also holds CMakeFiles/, Makefile, ...
  [[ -f "$b" && -x "$b" ]] || continue
  name=$(basename "$b")
  echo "== $name"
  "$b" 2>&1 | tee "results/$name.txt"
done
echo "done; see ./results"
