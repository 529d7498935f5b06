// Allocation-reuse bench (ISSUE 5 acceptance gate): with the buffer pool,
// in-place move-consuming ops and fused Dense/Conv epilogues enabled, a
// steady-state pass must perform >= 50% fewer heap allocations than the
// naive allocate-per-op idiom with the pool disabled — at bit-identical
// outputs (the fused epilogue and in-place writes change where results are
// stored, never what they are).
//
// Two workloads on the native backend:
//  * chain  — a ~50-op elementwise chain on [256,256] (relu/add/mul),
//    move-consuming in the optimized config so every op overwrites its
//    input in place;
//  * model  — a MobileNet-flavoured stack (two 1x1 convs + GAP + two Dense
//    layers), fused layer path vs the manual matMul->add->activation
//    composition.
//
// Heap allocations are counted at the pool: every backend buffer request
// goes through BufferPool::acquire, so `misses + bypasses` is exactly the
// number of operator-new float allocations.
//
// The gate checks time too: baseline and optimized passes are sampled
// interleaved, and the optimized median may not exceed the baseline median
// by more than the baseline's interquartile range.
//
// Emits BENCH_alloc.json in the working directory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <vector>

#include "backends/register.h"
#include "bench/harness.h"
#include "core/buffer_pool.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "layers/conv_layers.h"
#include "layers/core_layers.h"
#include "ops/ops.h"

namespace o = tfjs::ops;
using tfjs::Tensor;
using tfjs::core::BufferPool;

namespace {

constexpr int kChainRounds = 16;  // 3 ops per round + head/tail ~ 50 ops

// ------------------------------------------------------------------- chain

/// Optimized idiom: move-consuming ops, every step writes into its input.
std::vector<float> chainOptimized(const Tensor& x, const Tensor& one,
                                  const Tensor& c, const Tensor& m) {
  Tensor y = o::mul(x, one);
  for (int i = 0; i < kChainRounds; ++i) {
    y = o::relu(std::move(y));
    y = o::add(std::move(y), c);
    y = o::mul(std::move(y), m);
  }
  Tensor s = o::sum(y);
  y.dispose();
  const std::vector<float> out = s.dataSync();
  s.dispose();
  return out;
}

/// Naive idiom: allocate-per-op, dispose the previous intermediate.
std::vector<float> chainBaseline(const Tensor& x, const Tensor& one,
                                 const Tensor& c, const Tensor& m) {
  Tensor y = o::mul(x, one);
  const auto step = [&y](Tensor next) {
    y.dispose();
    y = next;
  };
  for (int i = 0; i < kChainRounds; ++i) {
    step(o::relu(y));
    step(o::add(y, c));
    step(o::mul(y, m));
  }
  Tensor s = o::sum(y);
  y.dispose();
  const std::vector<float> out = s.dataSync();
  s.dispose();
  return out;
}

// ------------------------------------------------------------------- model

struct ModelStack {
  tfjs::layers::Conv2D conv1, conv2;
  tfjs::layers::Dense dense1, dense2;

  static tfjs::layers::Conv2DOptions convOpts(int filters) {
    tfjs::layers::Conv2DOptions opts;
    opts.filters = filters;
    opts.kernelH = opts.kernelW = 1;  // 1x1 = the pointwise MobileNet conv
    opts.activation = "relu";
    return opts;
  }
  static tfjs::layers::DenseOptions denseOpts(int units,
                                              const char* activation) {
    tfjs::layers::DenseOptions opts;
    opts.units = units;
    opts.activation = activation;
    return opts;
  }

  ModelStack()
      : conv1(convOpts(64)), conv2(convOpts(64)),
        dense1(denseOpts(128, "relu")), dense2(denseOpts(10, "sigmoid")) {}
};

/// Fused layer path: Dense/Conv2D route through fusedMatMul/fusedConv2d.
std::vector<float> modelFused(const Tensor& x, ModelStack& stack) {
  Tensor h1 = stack.conv1.apply(x);
  Tensor h2 = stack.conv2.apply(h1);
  h1.dispose();
  Tensor g = o::mean(h2, std::array<int, 2>{1, 2});
  h2.dispose();
  Tensor d1 = stack.dense1.apply(g);
  g.dispose();
  Tensor d2 = stack.dense2.apply(d1);
  d1.dispose();
  Tensor s = o::sum(d2);
  d2.dispose();
  const std::vector<float> out = s.dataSync();
  s.dispose();
  return out;
}

/// Manual composition from the same weights — the pre-fusion op sequence
/// the pattern matcher replaces. Must produce bit-identical values.
std::vector<float> modelUnfused(const Tensor& x, ModelStack& stack) {
  const auto convBlock = [](const Tensor& in, const tfjs::layers::Conv2D& l) {
    const auto& w = l.weights();
    Tensor y = o::conv2d(in, w[0].value(), 1, 1, tfjs::PadMode::kSame);
    Tensor yb = o::add(y, w[1].value());
    y.dispose();
    Tensor r = o::relu(yb);
    yb.dispose();
    return r;
  };
  const auto denseBlock = [](const Tensor& in, const tfjs::layers::Dense& l,
                             bool sigmoid) {
    const auto& w = l.weights();
    Tensor y = o::matMul(in, w[0].value());
    Tensor yb = o::add(y, w[1].value());
    y.dispose();
    Tensor a = sigmoid ? o::sigmoid(yb) : o::relu(yb);
    yb.dispose();
    return a;
  };
  Tensor h1 = convBlock(x, stack.conv1);
  Tensor h2 = convBlock(h1, stack.conv2);
  h1.dispose();
  Tensor g = o::mean(h2, std::array<int, 2>{1, 2});
  h2.dispose();
  Tensor d1 = denseBlock(g, stack.dense1, false);
  g.dispose();
  Tensor d2 = denseBlock(d1, stack.dense2, true);
  d1.dispose();
  Tensor s = o::sum(d2);
  d2.dispose();
  const std::vector<float> out = s.dataSync();
  s.dispose();
  return out;
}

// -------------------------------------------------------------- measurement

/// Heap allocations performed by `fn`, as seen at the pool: misses allocate
/// when the pool is on; every acquire is a bypass allocation when it is off.
template <typename Fn>
std::uint64_t allocsDuring(Fn&& fn) {
  const auto before = BufferPool::get().stats();
  fn();
  const auto after = BufferPool::get().stats();
  return (after.misses - before.misses) + (after.bypasses - before.bypasses);
}

/// Median and interquartile range of one pass's timing samples.
struct Band {
  double median = 0, iqr = 0;
};

Band band(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return {samples[n / 2], samples[3 * n / 4] - samples[n / 4]};
}

/// One workload's A/B result. The optimized pass must allocate >= 50% less
/// at bit-identical output, and its median time may not exceed the
/// baseline's median by more than the baseline's IQR.
struct Result {
  std::uint64_t allocsBase = 0, allocsOpt = 0;
  std::vector<float> outBase, outOpt;
  std::vector<double> msBase, msOpt;

  double reduction() const {
    return tfjs::bench::reductionPct(allocsBase, allocsOpt);
  }
  bool identical() const {
    return tfjs::bench::bitIdentical(outBase, outOpt);
  }
  bool pass() const {
    const Band b = band(msBase), o = band(msOpt);
    return reduction() >= 50.0 && identical() && o.median <= b.median + b.iqr;
  }

  tfjs::io::Json json(const char* workload) const {
    const Band b = band(msBase), o = band(msOpt);
    tfjs::io::Json j;
    j["workload"] = workload;
    j["allocs_baseline"] = allocsBase;
    j["allocs_optimized"] = allocsOpt;
    j["alloc_reduction_pct"] = reduction();
    j["ms_baseline"] = b.median;
    j["ms_baseline_iqr"] = b.iqr;
    j["ms_optimized"] = o.median;
    j["ms_optimized_iqr"] = o.iqr;
    j["bit_identical"] = identical();
    j["pass"] = pass();
    return j;
  }
};

// ------------------------------------------------- google-benchmark mirrors

void BM_ChainBaseline(benchmark::State& state) {
  tfjs::setBackend("native");
  BufferPool::get().setEnabled(false);
  Tensor x = o::randomNormal(tfjs::Shape{256, 256}, 0, 1, 1);
  Tensor one = o::scalar(1.f), c = o::scalar(0.001f), m = o::scalar(0.9995f);
  for (auto _ : state) chainBaseline(x, one, c, m);
  for (Tensor t : {x, one, c, m}) t.dispose();
  BufferPool::get().setEnabled(true);
}
BENCHMARK(BM_ChainBaseline)->Unit(benchmark::kMicrosecond);

void BM_ChainPooledInPlace(benchmark::State& state) {
  tfjs::setBackend("native");
  BufferPool::get().setEnabled(true);
  Tensor x = o::randomNormal(tfjs::Shape{256, 256}, 0, 1, 1);
  Tensor one = o::scalar(1.f), c = o::scalar(0.001f), m = o::scalar(0.9995f);
  for (auto _ : state) chainOptimized(x, one, c, m);
  for (Tensor t : {x, one, c, m}) t.dispose();
}
BENCHMARK(BM_ChainPooledInPlace)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  tfjs::backends::registerAll();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();

  tfjs::setBackend("native");
  auto& pool = BufferPool::get();
  constexpr int kSamples = 21;

  Tensor cx = o::randomNormal(tfjs::Shape{256, 256}, 0, 1, 1);
  Tensor one = o::scalar(1.f), c = o::scalar(0.001f), m = o::scalar(0.9995f);
  Tensor mx = o::randomNormal(tfjs::Shape{4, 14, 14, 32}, 0, 1, 2);
  ModelStack stack;
  // Build the layers (weight init) before any measurement.
  modelFused(mx, stack);

  // Baseline: pool off, allocate-per-op idiom, unfused composition.
  const auto chainBase = [&] { return chainBaseline(cx, one, c, m); };
  const auto modelBase = [&] { return modelUnfused(mx, stack); };
  // Optimized: pool on, move-consuming chain, fused layer path.
  const auto chainOpt = [&] { return chainOptimized(cx, one, c, m); };
  const auto modelOpt = [&] { return modelFused(mx, stack); };

  Result chain, model;
  pool.setEnabled(false);
  chainBase();  // warm thread pool / page cache
  modelBase();
  chain.allocsBase = allocsDuring([&] { chain.outBase = chainBase(); });
  model.allocsBase = allocsDuring([&] { model.outBase = modelBase(); });

  pool.setEnabled(true);
  auto& inplace = tfjs::metrics::Registry::get().counter(
      "engine.inplace_reuses");
  for (int i = 0; i < 3; ++i) {  // warm the pool buckets
    chainOpt();
    modelOpt();
  }
  const auto inplaceBefore = inplace.value();
  chain.allocsOpt = allocsDuring([&] { chain.outOpt = chainOpt(); });
  model.allocsOpt = allocsDuring([&] { model.outOpt = modelOpt(); });
  const std::uint64_t inplaceReuses = inplace.value() - inplaceBefore;

  // Interleaved timing: load on the machine perturbs both sides alike.
  // Disabling the pool empties it, so every optimized sample follows an
  // untimed pass that refills the buckets.
  using tfjs::bench::passMs;
  for (int r = 0; r < kSamples; ++r) {
    pool.setEnabled(false);
    chain.msBase.push_back(passMs(chainBase));
    model.msBase.push_back(passMs(modelBase));
    pool.setEnabled(true);
    chainOpt();
    modelOpt();
    chain.msOpt.push_back(passMs(chainOpt));
    model.msOpt.push_back(passMs(modelOpt));
  }

  for (Tensor t : {cx, one, c, m, mx}) t.dispose();

  const auto report = [](const char* name, const Result& r) {
    const Band b = band(r.msBase), opt = band(r.msOpt);
    std::printf("%s: %llu -> %llu allocs (-%.1f%%), median %.3f (IQR %.3f)"
                " -> %.3f (IQR %.3f) ms, bit-identical: %s\n",
                name, static_cast<unsigned long long>(r.allocsBase),
                static_cast<unsigned long long>(r.allocsOpt), r.reduction(),
                b.median, b.iqr, opt.median, opt.iqr,
                r.identical() ? "yes" : "NO");
  };
  report("chain", chain);
  report("model", model);
  std::printf("in-place takeovers per optimized pass: %llu\n",
              static_cast<unsigned long long>(inplaceReuses));

  tfjs::io::Json doc;
  doc["bench"] = "alloc_reuse";
  doc["backend"] = "native";
  doc["chain"] = chain.json("~50-op elementwise chain, 256x256");
  doc["model"] = model.json(
      "2x conv1x1(64)+relu, GAP, dense(128)+relu, dense(10)+sigmoid");
  doc["inplace_reuses_per_pass"] = inplaceReuses;
  doc["samples"] = kSamples;
  tfjs::bench::writeBench(std::move(doc), "BENCH_alloc.json");

  const bool pass = chain.pass() && model.pass();
  std::printf("gate (>=50%% fewer allocs, bit-identical, optimized median <="
              " baseline median + IQR): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
