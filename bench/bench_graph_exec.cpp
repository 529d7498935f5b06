// Graph-capture bench (ISSUE 9 + ISSUE 10 acceptance gates), three parts:
//
//  1. MobileNet: a captured + optimized + memory-planned forward pass must
//     beat the eager Layers path by >= 1.2x with >= 90% fewer per-op pool
//     allocations — at bit-identical outputs (the executor replays through
//     the public ops layer, so every kernel is the one eager would have
//     dispatched). Workload: MobileNetV1 alpha=0.125 at 32x32 with
//     BatchNorm, batch 1, native backend — single-image inference is where
//     dispatch, scope bookkeeping, and allocator traffic dominate.
//
//  2. Elementwise chain: a 12-op chain captured WITH cross-op fusion must
//     beat the same graph captured WITHOUT it (all other passes on) by
//     >= 1.5x, bit-identical. The fused region loads each input element
//     once, runs the whole chain in registers, and stores once — versus 12
//     loop dispatches with a load+store each.
//
//  3. Shape polymorphism: plans are keyed by symbolic shape-class, so a
//     warm sweep over batch sizes {1, 4, 7, 16} must perform ZERO plan
//     re-instantiations (graph.plan_compiles stays flat).
//
// Per-op pool allocations are counted at the BufferPool: shared-pool
// acquires (hits + misses + bypasses) plus arena misses. Arena *hits* are
// planned reuse of graph-owned storage, not allocations.
//
// `--smoke` runs the same gates at reduced timing repeats (for CI legs).
//
// Emits BENCH_graph.json in the working directory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "backends/register.h"
#include "bench/harness.h"
#include "core/buffer_pool.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "graph/capture.h"
#include "graph/executor.h"
#include "models/mobilenet.h"
#include "ops/ops.h"

namespace o = tfjs::ops;
using tfjs::Tensor;
using tfjs::core::BufferPool;

namespace {

tfjs::models::MobileNetOptions benchOptions() {
  tfjs::models::MobileNetOptions opts;
  opts.alpha = 0.125f;
  opts.inputSize = 32;
  opts.numClasses = 10;
  opts.withBatchNorm = true;  // BN mul/add chains: fold + fuse fodder
  opts.seed = 7;
  return opts;
}

std::uint64_t counterValue(const char* name) {
  return tfjs::metrics::Registry::get().counter(name).value();
}

/// Pool allocations performed by `fn`: shared-pool acquires plus arena
/// misses. Warm captured runs should drive this to (near) zero.
template <typename Fn>
std::uint64_t poolAllocsDuring(Fn&& fn) {
  const auto before = BufferPool::get().stats();
  const std::uint64_t arenaMissBefore = counterValue("pool.arena_misses");
  fn();
  const auto after = BufferPool::get().stats();
  return (after.hits - before.hits) + (after.misses - before.misses) +
         (after.bypasses - before.bypasses) +
         (counterValue("pool.arena_misses") - arenaMissBefore);
}

/// Times two workloads interleaved (A,B,A,B,...) and reports each one's
/// minimum batch time. Interleaving means external load (this is a shared
/// 1-core box) perturbs both the same way; the min is the quiet-machine
/// cost, which is what the A/B ratio is about.
template <typename FnA, typename FnB>
std::pair<double, double> minPassMsInterleaved(FnA&& a, FnB&& b, int repeats,
                                               int inner) {
  double minA = 1e300, minB = 1e300;
  for (int r = 0; r < repeats; ++r) {
    minA = std::min(minA, tfjs::bench::passMs(a, inner));
    minB = std::min(minB, tfjs::bench::passMs(b, inner));
  }
  return {minA, minB};
}

using tfjs::bench::bitIdentical;
using tfjs::bench::reductionPct;

struct Harness {
  std::unique_ptr<tfjs::layers::Sequential> model;
  Tensor x;
  tfjs::graph::CapturedGraph captured;

  Harness() {
    model = tfjs::models::buildMobileNetV1(benchOptions());
    x = o::randomNormal(
        tfjs::Shape{1, benchOptions().inputSize, benchOptions().inputSize, 3},
        0, 1, 11);
    model->predict(x).dispose();  // build weights before capture
    tfjs::graph::Graph g = tfjs::graph::capture(
        [this](const std::vector<Tensor>& ins) {
          return std::vector<Tensor>{model->predict(ins[0])};
        },
        {x});
    captured = tfjs::graph::CapturedGraph(std::move(g),
                                          tfjs::graph::PassOptions::all());
  }

  std::vector<float> runEager() {
    Tensor y = model->predict(x);
    std::vector<float> out = y.dataSync();
    y.dispose();
    return out;
  }

  std::vector<float> runCaptured() {
    std::vector<Tensor> ys = captured.run({x});
    std::vector<float> out = ys[0].dataSync();
    for (Tensor& y : ys) y.dispose();
    return out;
  }
};

/// 12-op elementwise chain over [16, 4096] with suffix-broadcast leaves:
/// mixed unary/binary/scalar links, every one region-eligible, so the fuser
/// collapses the whole body into one kFusedRegion.
struct ChainHarness {
  Tensor x, bias, scale, bias2;
  tfjs::graph::CapturedGraph fused, unfused;

  std::vector<Tensor> body(const std::vector<Tensor>& ins) {
    Tensor t = o::add(ins[0], bias);           // 1  (suffix broadcast)
    t = o::relu(t);                            // 2
    t = o::mulScalar(t, 1.25f);                // 3
    t = o::addScalar(t, -0.5f);                // 4
    t = o::square(t);                          // 5
    t = o::neg(t);                             // 6
    t = o::relu6(t);                           // 7
    t = o::mul(t, scale);                      // 8  (suffix broadcast)
    t = o::sub(t, bias2);                      // 9
    t = o::clipByValue(t, -4.0f, 4.0f);        // 10
    t = o::leakyRelu(t, 0.1f);                 // 11
    t = o::addScalar(t, 0.25f);                // 12
    return {t};
  }

  ChainHarness() {
    x = o::randomNormal(tfjs::Shape{16, 4096}, 0, 1, 21);
    bias = o::randomNormal(tfjs::Shape{4096}, 0, 1, 22);
    scale = o::randomNormal(tfjs::Shape{4096}, 0, 0.5f, 23);
    bias2 = o::randomNormal(tfjs::Shape{4096}, 0, 1, 24);
    auto fn = [this](const std::vector<Tensor>& ins) { return body(ins); };
    fused = tfjs::graph::CapturedGraph(tfjs::graph::capture(fn, {x}),
                                       tfjs::graph::PassOptions::all());
    tfjs::graph::PassOptions noRegions = tfjs::graph::PassOptions::all();
    noRegions.fuseElementwise = false;  // everything else stays on
    unfused = tfjs::graph::CapturedGraph(tfjs::graph::capture(fn, {x}),
                                         noRegions);
  }

  std::vector<float> run(tfjs::graph::CapturedGraph& g, const Tensor& feed) {
    std::vector<Tensor> ys = g.run({feed});
    std::vector<float> out = ys[0].dataSync();
    for (Tensor& y : ys) y.dispose();
    return out;
  }

  std::vector<float> runEager() {
    std::vector<Tensor> ys = tfjs::tidyAll([&] { return body({x}); });
    std::vector<float> out = ys[0].dataSync();
    for (Tensor& y : ys) y.dispose();
    return out;
  }

  void dispose() {
    fused.dispose();
    unfused.dispose();
    for (Tensor* t : {&x, &bias, &scale, &bias2}) t->dispose();
  }
};

Harness* g_harness = nullptr;

// ------------------------------------------------- google-benchmark mirrors

void BM_MobileNetEager(benchmark::State& state) {
  for (auto _ : state) g_harness->runEager();
}
BENCHMARK(BM_MobileNetEager)->Unit(benchmark::kMillisecond);

void BM_MobileNetCaptured(benchmark::State& state) {
  for (auto _ : state) g_harness->runCaptured();
}
BENCHMARK(BM_MobileNetCaptured)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  tfjs::backends::registerAll();
  tfjs::setBackend("native");

  // --smoke: same gates, fewer timing repeats (CI sanitizer legs).
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  const int kRepeats = smoke ? 8 : 50;
  const int kInner = smoke ? 3 : 10;

  Harness harness;
  g_harness = &harness;

  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();

  // Warm both paths: thread pool, pool buckets, fold caches, the arena.
  std::vector<float> outEager, outCaptured;
  for (int i = 0; i < 3; ++i) {
    outEager = harness.runEager();
    outCaptured = harness.runCaptured();
  }

  const std::uint64_t allocsEager =
      poolAllocsDuring([&] { harness.runEager(); });
  const std::uint64_t allocsCaptured =
      poolAllocsDuring([&] { harness.runCaptured(); });
  const auto [msEager, msCaptured] = minPassMsInterleaved(
      [&] { harness.runEager(); }, [&] { harness.runCaptured(); }, kRepeats,
      kInner);

  const bool identical = bitIdentical(outEager, outCaptured);
  const double reduction = reductionPct(allocsEager, allocsCaptured);
  const double speedup = msCaptured > 0 ? msEager / msCaptured : 0.0;

  const auto& g = harness.captured;
  const std::size_t nodesOriginal = g.original().nodes.size();
  const std::size_t nodesOptimized = g.optimized().nodes.size();

  std::printf(
      "\nmobilenet (alpha 0.125, 32x32, BN): eager %.3f ms -> captured %.3f ms"
      " (%.2fx)\n"
      "pool allocs per run: %llu -> %llu (-%.1f%%)\n"
      "graph: %zu nodes captured -> %zu after fold/fuse/regions/dce\n"
      "outputs bit-identical: %s\n",
      msEager, msCaptured, speedup,
      static_cast<unsigned long long>(allocsEager),
      static_cast<unsigned long long>(allocsCaptured), reduction,
      nodesOriginal, nodesOptimized, identical ? "yes" : "NO");

  // ---- part 2: elementwise chain, fused vs unfused-captured ------------
  ChainHarness chain;
  std::vector<float> chainEager, chainFused, chainUnfused;
  for (int i = 0; i < 3; ++i) {
    chainEager = chain.runEager();
    chainFused = chain.run(chain.fused, chain.x);
    chainUnfused = chain.run(chain.unfused, chain.x);
  }
  const auto [msChainUnfused, msChainFused] = minPassMsInterleaved(
      [&] { chain.run(chain.unfused, chain.x); },
      [&] { chain.run(chain.fused, chain.x); }, kRepeats, kInner);
  const bool chainIdentical = bitIdentical(chainEager, chainFused) &&
                              bitIdentical(chainEager, chainUnfused);
  const double chainSpeedup =
      msChainFused > 0 ? msChainUnfused / msChainFused : 0.0;
  std::printf(
      "\nelementwise chain (12 ops, [16,4096]): unfused-captured %.3f ms ->"
      " fused %.3f ms (%.2fx)\n"
      "chain outputs bit-identical (eager == fused == unfused): %s\n",
      msChainUnfused, msChainFused, chainSpeedup,
      chainIdentical ? "yes" : "NO");

  // ---- part 3: shape-polymorphic plan reuse ----------------------------
  // Prime every batch size once (two classes: {1,·} and {n,·}), then a
  // warm sweep must instantiate nothing new.
  std::vector<Tensor> polyFeeds;
  for (int batch : {1, 4, 7, 16}) {
    polyFeeds.push_back(
        o::randomNormal(tfjs::Shape{batch, 4096}, 0, 1, 30 + batch));
  }
  for (const Tensor& f : polyFeeds) chain.run(chain.fused, f);
  const std::uint64_t compilesBefore = counterValue("graph.plan_compiles");
  bool polyIdentical = true;
  for (const Tensor& f : polyFeeds) {
    std::vector<float> got = chain.run(chain.fused, f);
    std::vector<Tensor> ys = tfjs::tidyAll([&] { return chain.body({f}); });
    polyIdentical = polyIdentical && bitIdentical(got, ys[0].dataSync());
    for (Tensor& y : ys) y.dispose();
  }
  const std::uint64_t planRecompiles =
      counterValue("graph.plan_compiles") - compilesBefore;
  std::printf(
      "shape polymorphism: %llu plan re-instantiations across batch sizes"
      " {1,4,7,16} (want 0); outputs bit-identical: %s\n",
      static_cast<unsigned long long>(planRecompiles),
      polyIdentical ? "yes" : "NO");

  tfjs::io::Json doc;
  doc["bench"] = "graph_exec";
  doc["backend"] = "native";
  doc["workload"] = "MobileNetV1 alpha=0.125 32x32 BN, batch 1";
  doc["ms_eager"] = msEager;
  doc["ms_captured"] = msCaptured;
  doc["speedup"] = speedup;
  doc["pool_allocs_eager"] = allocsEager;
  doc["pool_allocs_captured"] = allocsCaptured;
  doc["alloc_reduction_pct"] = reduction;
  doc["nodes_captured"] = nodesOriginal;
  doc["nodes_optimized"] = nodesOptimized;
  doc["bit_identical"] = identical;
  doc["ms_chain_unfused"] = msChainUnfused;
  doc["ms_chain_fused"] = msChainFused;
  doc["chain_speedup"] = chainSpeedup;
  doc["chain_bit_identical"] = chainIdentical;
  doc["plan_recompiles_batch_sweep"] = planRecompiles;
  doc["poly_bit_identical"] = polyIdentical;
  doc["folded_nodes"] = counterValue("graph.folded_nodes");
  doc["fused_nodes"] = counterValue("graph.fused_nodes");
  doc["dce_removed"] = counterValue("graph.dce_removed");
  doc["fused_regions"] = counterValue("graph.fused_regions");
  doc["region_ops"] = counterValue("graph.region_ops");
  doc["plan_compiles"] = counterValue("graph.plan_compiles");
  doc["arena_evictions"] = counterValue("pool.arena_evictions");
  doc["samples"] = kRepeats;
  doc["smoke"] = smoke;
  tfjs::bench::writeBench(std::move(doc), "BENCH_graph.json");

  const bool mobilenetPass = speedup >= 1.2 && reduction >= 90.0 && identical;
  const bool chainPass = chainSpeedup >= 1.5 && chainIdentical;
  const bool polyPass = planRecompiles == 0 && polyIdentical;
  std::printf(
      "gate mobilenet (>=1.2x, >=90%% fewer pool allocs, bit-identical):"
      " %s\n"
      "gate chain (fused >=1.5x over unfused-captured, bit-identical): %s\n"
      "gate shape-poly (0 recompiles across {1,4,7,16}, bit-identical):"
      " %s\n",
      mobilenetPass ? "PASS" : "FAIL", chainPass ? "PASS" : "FAIL",
      polyPass ? "PASS" : "FAIL");

  for (Tensor& f : polyFeeds) f.dispose();
  chain.dispose();
  harness.captured.dispose();
  harness.x.dispose();
  g_harness = nullptr;
  return mobilenetPass && chainPass && polyPass ? 0 : 1;
}
