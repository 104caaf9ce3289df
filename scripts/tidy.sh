#!/usr/bin/env bash
# clang-tidy gate over the exported compilation database. Probes for the
# tool first and skips (exit 0) when the toolchain lacks it, mirroring
# the sanitizer stages in tier1.sh, so the gate is advisory on minimal
# images and enforcing wherever clang-tidy exists.
#
# Usage: scripts/tidy.sh [build_dir] [-- extra clang-tidy args]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy not found in PATH; skipping tidy stage"
  exit 0
fi

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "== tidy: exporting compile_commands.json =="
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" >/dev/null
fi

echo "== tidy: clang-tidy over src/ =="
# Library sources only: tests lean on gtest macros that trip
# readability checks with no actionable fix.
mapfile -t SOURCES < <(find "$REPO_ROOT/src" -name '*.cc' | sort)

FAILED=0
for source in "${SOURCES[@]}"; do
  if ! clang-tidy -p "$BUILD_DIR" --quiet "$source"; then
    FAILED=1
  fi
done

if [ "$FAILED" -ne 0 ]; then
  echo "== tidy: FAIL =="
  exit 1
fi
echo "== tidy: PASS =="
