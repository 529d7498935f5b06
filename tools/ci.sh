#!/usr/bin/env bash
# Full local CI: the tier-1 build + test cycle (ROADMAP.md), a portable
# leg (-DTFJS_NATIVE_ARCH=OFF: the native f32 kernels at SSE2 width without
# FMA and the scalar int8 variant, checked bitwise against the same
# oracles, ops_test's per-element region oracle included, autodiff_test
# holding the native backward kernels to the cpu backend, and the graph
# differential fuzzer replaying the SSE2 kernels' fused epilogues, the
# depthwise one included, against eager, graph_test and serving_test running
# captured and served int8 through the non-VNNI dot bodies), then the
# sanitizer legs (tools/run_tsan.sh: TSan, ASan, UBSan over the
# threading/memory/int8-sensitive subset plus the graph differential
# fuzzer, each followed by a fixed-seed extended fuzzer block). Mirrors
# what a hosted pipeline would run; each stage fails the script on first
# error.
#
# Usage: tools/ci.sh [--smoke]   (from the repo root)
#   --smoke   additionally run every bench gate, each failing through its
#             exit code:
#               bench_graph_exec --smoke  MobileNet >=1.2x with >=90% fewer
#                 pool allocations, elementwise chain >=1.5x fused vs
#                 unfused, zero plan re-instantiations across a batch-size
#                 sweep;
#               bench_alloc_reuse  >=50% fewer allocations, optimized median
#                 time within the baseline's median + IQR;
#               bench_serving  batched tower >=2x unbatched at mean batch
#                 >=4;
#               bench_quantization --fast  int8 MobileNet 1.0_224 >=2x f32
#                 at >=99% top-1 agreement;
#             all at bit-identical outputs. They run in build/, so the
#             BENCH_*.json files they write never overwrite the committed
#             ones, and --benchmark_filter='^$' skips the google-benchmark
#             mirrors. Wall-clock thresholds on a loaded CI box are noisy;
#             the bit-identical and allocation-count gates are the stable
#             part.
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
  (
    cd build
    ./bench/bench_graph_exec --smoke --benchmark_filter='^$'
    ./bench/bench_alloc_reuse --benchmark_filter='^$'
    ./bench/bench_serving
    ./bench/bench_quantization --fast
  )
fi

echo "== portable leg (TFJS_NATIVE_ARCH=OFF) =="
cmake -B build-portable -S . -DTFJS_NATIVE_ARCH=OFF
cmake --build build-portable -j --target native_gemm_test native_parity_test \
  fusion_test quant_test ops_test autodiff_test graph_fuzz_test graph_test \
  serving_test
ctest --test-dir build-portable --output-on-failure \
  -R 'native_gemm_test|native_parity_test|fusion_test|quant_test|ops_test|autodiff_test|graph_fuzz_test|graph_test|serving_test'

echo "== sanitizer legs =="
tools/run_tsan.sh

echo "== CI green =="
