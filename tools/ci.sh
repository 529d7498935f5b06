#!/usr/bin/env bash
# Full local CI: the tier-1 build + test cycle (ROADMAP.md), a portable
# leg (-DTFJS_NATIVE_ARCH=OFF: the native f32 kernels at SSE2 width without
# FMA and the scalar int8 variant, checked bitwise against the same
# oracles, ops_test's per-element region oracle included), then the
# sanitizer legs (tools/run_tsan.sh: TSan, ASan, UBSan over the
# threading/memory/int8-sensitive subset plus the graph differential
# fuzzer, each followed by a fixed-seed extended fuzzer block). Mirrors
# what a hosted pipeline would run; each stage fails the script on first
# error.
#
# Usage: tools/ci.sh [--smoke]   (from the repo root)
#   --smoke   additionally run the graph-exec bench gates at reduced
#             timing repeats (bench_graph_exec --smoke): MobileNet >=1.2x,
#             elementwise chain >=1.5x fused vs unfused, zero plan
#             re-instantiations across a batch-size sweep — all at
#             bit-identical outputs. Wall-clock thresholds on a loaded CI
#             box are noisy; the bit-identical and zero-recompile gates
#             are the stable part.
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=0
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build =="
cmake -B build -S .
cmake --build build -j

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [ "$smoke" = 1 ]; then
  echo "== bench gates (smoke) =="
  cmake --build build -j --target bench_graph_exec
  ./build/bench/bench_graph_exec --smoke
fi

echo "== portable leg (TFJS_NATIVE_ARCH=OFF) =="
cmake -B build-portable -S . -DTFJS_NATIVE_ARCH=OFF
cmake --build build-portable -j --target native_gemm_test native_parity_test \
  fusion_test quant_test ops_test
ctest --test-dir build-portable --output-on-failure \
  -R 'native_gemm_test|native_parity_test|fusion_test|quant_test|ops_test'

echo "== sanitizer legs =="
tools/run_tsan.sh

echo "== CI green =="
