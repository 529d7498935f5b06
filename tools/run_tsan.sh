#!/usr/bin/env bash
# Builds the threading-sensitive tests under ThreadSanitizer and runs them,
# then repeats the memory-sensitive subset under AddressSanitizer (the
# buffer pool hands raw storage between tensors, in-place ops and backend
# scratch buffers — exactly where lifetime bugs would hide; native_parity_test
# drives the native region kernel, behind every native elementwise op, over
# its prefilled scratch rows and every broadcast class), and finally the
# int8 kernels under UndefinedBehaviorSanitizer (narrowing conversions,
# float-to-integer casts, shifts and overflow in the quantization math; the
# index kernels' casts through ops_test), any report failing the leg. native_gemm_test runs on
# every leg: the f32 GEMM's packed B block is written by the calling thread
# and read by every pool worker (TSan), im2col convs pack B again inside
# each parallel chunk (TSan, ASan), partial tail tiles use masked loads and
# stores and a padded bias row (ASan, UBSan), and the backward kernels
# borrow im2col/col2im scratch per chunk (ASan). autodiff_test runs on the
# ASan and UBSan legs: it drives those backward kernels through the tape,
# whose pullbacks skip the gradients of unwatched operands, and the
# optimizers' update regions, whose instructions are built from enum codes
# the sanitizer's enum check watches, next to the op chains they replace.
# async_test covers the multi-producer EventLoop::postTask path,
# serving_test the whole client-threads/scheduler-thread serving stack, and
# quant_test the quantized kernels whose packed-weight cache is shared
# across serving sessions and whose row-block chunks all read one packed
# weight matrix from every pool worker (a fresh race surface; its tile
# sweeps run at 4 threads on every leg, masked tails under ASan too). graph_fuzz_test runs on
# every leg: the differential fuzzer's random DAGs reach the capture
# recorder, every optimization pass (elementwise region fusion included),
# the arena allocator, and the replay path on the three CPU backends and
# three webgl-sim configurations — the widest single net over the graph
# subsystem. fusion_test and webgl_test run on the TSan and ASan legs:
# webgl-sim's fused-region and matMul/conv2d/depthwise epilogue shaders are
# closures that run on the GPU worker thread after the enqueueing call has
# returned, so they must own (not borrow) the program, the shapes and the
# bias texture they read; on native, fusion_test's depthwise cases drive
# the register epilogue's bias loads over channel tails (ASan). graph_test and
# graph_executor_test run on the ASan leg: every captured elementwise node
# whose first input dies there (standalone or fused) replays in place,
# handing that input's buffer to the region kernel as its destination.
# fusion_test, graph_test and graph_executor_test also run on the UBSan leg:
# producer nodes carry their epilogue as {act, hasBias} attrs that replay
# casts back into FusedActivation and PadMode, which the sanitizer's enum
# check watches. ops_test runs on the ASan and UBSan legs: its data-movement
# oracle drives Backend::copyStrided, whose odometer does signed step and
# offset arithmetic (reversed and wrapping walks) over raw buffer pointers,
# on every backend. After each leg's ctest, an
# extended fixed-seed fuzzer block replays the same seed set on that leg
# (both fuzz modes — general DAGs and elementwise-chain-heavy), so any
# divergence or sanitizer report reproduces bit-for-bit on every leg.
# Uses separate build trees (build-tsan/, build-asan/, build-ubsan/) so the
# regular build is untouched.
#
# Usage: tools/run_tsan.sh   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

# Fixed seeds beyond the in-test corpus (1..kNumSeeds); identical on every
# leg. TFJS_GRAPH_FUZZ_SEED=<n> switches both fuzz tests to single-seed
# replay, so each invocation runs one general case and one elementwise case.
extended_fuzz() {
  local build_dir="$1"
  echo "== extended fixed-seed fuzzer block ($build_dir) =="
  local seed
  for seed in 1001 1007 1013 1019 1025 1031; do
    TFJS_GRAPH_FUZZ_SEED="$seed" "$build_dir/tests/graph_fuzz_test"
  done
}

cmake -B build-tsan -S . -DTFJS_SANITIZE=thread
cmake --build build-tsan -j --target thread_pool_test native_parity_test \
  native_gemm_test quant_test trace_test buffer_pool_test async_test \
  serving_test graph_fuzz_test fusion_test webgl_test
ctest --test-dir build-tsan --output-on-failure \
  -R 'thread_pool_test|native_parity_test|native_gemm_test|quant_test|trace_test|buffer_pool_test|async_test|serving_test|graph_fuzz_test|fusion_test|webgl_test'
extended_fuzz build-tsan

cmake -B build-asan -S . -DTFJS_SANITIZE=address
cmake --build build-asan -j --target buffer_pool_test fusion_test \
  quant_test serving_test graph_fuzz_test native_parity_test native_gemm_test \
  webgl_test graph_test graph_executor_test autodiff_test ops_test
ctest --test-dir build-asan --output-on-failure \
  -R 'buffer_pool_test|fusion_test|quant_test|serving_test|graph_fuzz_test|native_parity_test|native_gemm_test|webgl_test|graph_test|graph_executor_test|autodiff_test|ops_test'
extended_fuzz build-asan

# GCC's -fsanitize=undefined leaves out float-cast-overflow (a NaN or
# out-of-range float converted to an integer), and by default a report
# neither aborts nor changes the exit code: name the check and make every
# report fatal, so the leg fails on one.
cmake -B build-ubsan -S . -DTFJS_SANITIZE=undefined,float-cast-overflow \
  -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=all
cmake --build build-ubsan -j --target quant_test native_parity_test \
  native_gemm_test serving_test graph_fuzz_test fusion_test graph_test \
  graph_executor_test ops_test autodiff_test
ctest --test-dir build-ubsan --output-on-failure \
  -R 'quant_test|native_parity_test|native_gemm_test|serving_test|graph_fuzz_test|fusion_test|graph_test|graph_executor_test|ops_test|autodiff_test'
extended_fuzz build-ubsan
