// Differential fuzz harness for the graph capture + optimizing executor
// (DESIGN.md "Graph capture & optimization"): seeded random DAGs — mixed
// shapes and ranks, broadcast edges, dense/conv/depthwise chains,
// int8-quantized weights, folds, fusable patterns — each run eagerly and as
// a captured, fully-optimized graph on every CPU backend (ref / cpu /
// native). The two paths must agree BITWISE: the executor replays through
// the public ops layer and the passes are required to preserve every
// rounding step, so memcmp is the oracle, not a tolerance.
//
// Failures print the case seed; replay one case in isolation with
//   TFJS_GRAPH_FUZZ_SEED=<seed> ./graph_fuzz_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "backends/common/ref_backend.h"
#include "backends/webgl/webgl_backend.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "graph/capture.h"
#include "graph/executor.h"
#include "graph/passes.h"
#include "ops/ops.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;
using graph::CapturedGraph;
using graph::PassOptions;

constexpr unsigned kNumSeeds = 80;  // x6 backends (+ bypass legs) > 240 graphs
/// Seeds for the elementwise-chain-heavy mode (long chains, diamonds,
/// select, mixed broadcast — the fuse_elementwise pass's home turf).
constexpr unsigned kNumElemSeeds = 50;

/// Every backend a case runs on: test_main registers cpu/native/webgl; the
/// reference backend and the fp16 / unpacked webgl variants are added here.
constexpr const char* kBackends[] = {"ref",   "cpu",        "native",
                                     "webgl", "webgl-fp16", "webgl-unpacked"};

void ensureBackendsRegistered() {
  static const bool once = [] {
    Engine::get().registerBackend(
        "ref", [] { return std::make_unique<backends::RefBackend>(); },
        /*priority=*/0);
    backends::webgl::WebGLOptions fp16;
    fp16.precision = backends::webgl::TexPrecision::fp16;
    backends::webgl::registerBackendVariant("webgl-fp16", fp16);
    backends::webgl::WebGLOptions unpacked;
    unpacked.packed = false;
    backends::webgl::registerBackendVariant("webgl-unpacked", unpacked);
    return true;
  }();
  (void)once;
}

/// Constant pool shared by the two generator modes. A planning run creates
/// the constants (outside any capture, like real weights); execution runs
/// replay them by cursor. The structural RNG stream is identical in both
/// modes, so the cursor order always lines up.
struct ConstPool {
  std::vector<Tensor> consts;
  std::size_t cursor = 0;
  bool planning = true;
  int dataSeed = 0;

  Tensor take(const Shape& s, bool quantizeInt8 = false) {
    if (planning) {
      Tensor t = o::randomNormal(s, 0, 1, static_cast<std::uint64_t>(dataSeed++));
      if (quantizeInt8) {
        Tensor q = o::quantizePerChannel(t);
        t.dispose();
        t = q;
      }
      t.keep();  // survives the planning scope; owned by the pool
      consts.push_back(t);
      return t;
    }
    return consts[cursor++];
  }

  void disposeAll() {
    for (Tensor& t : consts) t.dispose();
    consts.clear();
  }
};

int pickWhere(std::mt19937& rng, const std::vector<Tensor>& vals,
              const std::function<bool(const Tensor&)>& ok) {
  std::vector<int> idx;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (ok(vals[i])) idx.push_back(static_cast<int>(i));
  }
  if (idx.empty()) return -1;
  return idx[rng() % idx.size()];
}

bool rank2Small(const Tensor& t) {
  return t.shape().rank() == 2 && t.shape().size() <= 1024;
}

/// Builds one random program over `inputs`, drawing structure from `seed`
/// and constants from `pool`. Deterministic: the same seed produces the
/// same op sequence in planning mode, eager mode, and under capture.
std::vector<Tensor> buildProgram(unsigned seed,
                                 const std::vector<Tensor>& inputs,
                                 ConstPool& pool) {
  std::mt19937 rng(seed * 2654435761u + 97u);
  pool.cursor = 0;
  pool.dataSeed = static_cast<int>(seed) * 1000 + 7;

  std::vector<Tensor> vals = inputs;
  const int nSteps = 5 + static_cast<int>(rng() % 6);

  auto any = [](const Tensor&) { return true; };
  auto pushUnary = [&](const Tensor& v) {
    switch (rng() % 10) {
      case 0: vals.push_back(o::relu(v)); break;
      case 1: vals.push_back(o::relu6(v)); break;
      case 2: vals.push_back(o::sigmoid(v)); break;
      case 3: vals.push_back(o::tanh(v)); break;
      case 4: vals.push_back(o::neg(v)); break;
      case 5: vals.push_back(o::abs(v)); break;
      case 6: vals.push_back(o::square(v)); break;
      case 7: vals.push_back(o::softplus(v)); break;
      case 8: vals.push_back(o::addScalar(v, 0.75f)); break;
      default: vals.push_back(o::mulScalar(v, 1.25f)); break;
    }
  };

  for (int step = 0; step < nSteps; ++step) {
    const unsigned kind = rng() % 14;
    switch (kind) {
      case 0: {  // unary chain link
        pushUnary(vals[static_cast<std::size_t>(pickWhere(rng, vals, any))]);
        break;
      }
      case 1: {  // binary with a broadcast edge
        const Tensor& a =
            vals[static_cast<std::size_t>(pickWhere(rng, vals, any))];
        Tensor b;
        const unsigned mode = rng() % 3;
        if (mode == 0) {
          // Same-shape constant operand.
          b = pool.take(a.shape());
        } else if (mode == 1 && a.shape().rank() >= 1) {
          // Broadcast operand: each dim collapses to 1 with p=1/2.
          std::vector<int> dims = a.shape().dims();
          for (int& d : dims) {
            if (rng() % 2 == 0) d = 1;
          }
          b = pool.take(Shape(dims));
        } else {
          b = pool.take(Shape{1});  // vector-vs-anything broadcast
        }
        switch (rng() % 5) {
          case 0: vals.push_back(o::add(a, b)); break;
          case 1: vals.push_back(o::sub(a, b)); break;
          case 2: vals.push_back(o::mul(a, b)); break;
          case 3: vals.push_back(o::maximum(a, b)); break;
          default: vals.push_back(o::minimum(a, b)); break;
        }
        break;
      }
      case 2: {  // binary between two existing same-shape values
        const int ai = pickWhere(rng, vals, any);
        const Tensor& a = vals[static_cast<std::size_t>(ai)];
        const int bi = pickWhere(rng, vals, [&](const Tensor& t) {
          return t.shape() == a.shape();
        });
        if (bi < 0) {
          pushUnary(a);
          break;
        }
        const Tensor& b = vals[static_cast<std::size_t>(bi)];
        vals.push_back(rng() % 2 == 0 ? o::add(a, b) : o::mul(a, b));
        break;
      }
      case 3: {  // dense layer: matMul [+ bias] [+ activation] — fusable
        const int vi = pickWhere(rng, vals, rank2Small);
        if (vi < 0) {
          pushUnary(vals[static_cast<std::size_t>(pickWhere(rng, vals, any))]);
          break;
        }
        const Tensor& v = vals[static_cast<std::size_t>(vi)];
        const int k = v.shape()[1];
        const int n = 2 + static_cast<int>(rng() % 4);
        Tensor w = pool.take(Shape{k, n});
        Tensor h = o::matMul(v, w);
        if (rng() % 2 == 0) {
          Tensor b = pool.take(Shape{n});
          h = o::add(h, b);
        }
        switch (rng() % 4) {
          case 0: h = o::relu(h); break;
          case 1: h = o::relu6(h); break;
          case 2: h = o::sigmoid(h); break;
          default: break;  // no activation
        }
        vals.push_back(h);
        break;
      }
      case 4: {  // dense layer against int8-quantized weights
        const int vi = pickWhere(rng, vals, rank2Small);
        if (vi < 0) {
          pushUnary(vals[static_cast<std::size_t>(pickWhere(rng, vals, any))]);
          break;
        }
        const Tensor& v = vals[static_cast<std::size_t>(vi)];
        const int k = v.shape()[1];
        const int n = 2 + static_cast<int>(rng() % 4);
        Tensor w8 = pool.take(Shape{k, n}, /*quantizeInt8=*/true);
        Tensor h = o::matMul(v, w8);  // routes to the quantized kernel
        if (rng() % 2 == 0) {
          Tensor b = pool.take(Shape{n});
          h = o::add(h, b);
        }
        vals.push_back(h);
        break;
      }
      case 5: {  // reduction
        const int vi = pickWhere(rng, vals, [](const Tensor& t) {
          return t.shape().rank() >= 1;
        });
        if (vi < 0) break;
        const Tensor& v = vals[static_cast<std::size_t>(vi)];
        const bool keep = rng() % 2 == 0;
        std::vector<int> axes;
        if (v.shape().rank() == 2 && rng() % 2 == 0) {
          axes = {static_cast<int>(rng() % 2)};
        }
        switch (rng() % 4) {
          case 0: vals.push_back(o::sum(v, axes, keep)); break;
          case 1: vals.push_back(o::mean(v, axes, keep)); break;
          case 2: vals.push_back(o::max(v, axes, keep)); break;
          default: vals.push_back(o::min(v, axes, keep)); break;
        }
        break;
      }
      case 6: {  // transpose
        const int vi = pickWhere(rng, vals, rank2Small);
        if (vi < 0) break;
        const std::vector<int> perm{1, 0};
        vals.push_back(o::transpose(vals[static_cast<std::size_t>(vi)], perm));
        break;
      }
      case 7: {  // reshape (alias node)
        const int vi = pickWhere(rng, vals, [](const Tensor& t) {
          return t.shape().rank() >= 1 && t.shape().size() >= 1;
        });
        if (vi < 0) break;
        const Tensor& v = vals[static_cast<std::size_t>(vi)];
        const int elems = static_cast<int>(v.shape().size());
        switch (rng() % 3) {
          case 0: vals.push_back(o::reshape(v, Shape{elems})); break;
          case 1: vals.push_back(o::reshape(v, Shape{1, elems})); break;
          default: vals.push_back(o::reshape(v, Shape{elems, 1})); break;
        }
        break;
      }
      case 8: {  // concat (self-concat keeps shapes trivially compatible)
        const int vi = pickWhere(rng, vals, [](const Tensor& t) {
          return t.shape().rank() >= 1 && t.shape().size() <= 512;
        });
        if (vi < 0) break;
        const Tensor& v = vals[static_cast<std::size_t>(vi)];
        const int axis =
            static_cast<int>(rng() % static_cast<unsigned>(v.shape().rank()));
        vals.push_back(o::concat({v, v}, axis));
        break;
      }
      case 9: {  // slice
        const int vi = pickWhere(rng, vals, rank2Small);
        if (vi < 0) break;
        const Tensor& v = vals[static_cast<std::size_t>(vi)];
        std::vector<int> begin(2), size(2);
        for (int d = 0; d < 2; ++d) {
          const int dim = v.shape()[d];
          const int b = static_cast<int>(rng() % static_cast<unsigned>(dim));
          begin[static_cast<std::size_t>(d)] = b;
          size[static_cast<std::size_t>(d)] =
              1 + static_cast<int>(rng() % static_cast<unsigned>(dim - b));
        }
        vals.push_back(o::slice(v, begin, size));
        break;
      }
      case 10: {  // pad + softmax flavor
        const int vi = pickWhere(rng, vals, [](const Tensor& t) {
          return t.shape().rank() == 2 && t.shape().size() <= 512;
        });
        if (vi < 0) break;
        const Tensor& v = vals[static_cast<std::size_t>(vi)];
        if (rng() % 2 == 0) {
          const std::vector<std::pair<int, int>> paddings{
              {static_cast<int>(rng() % 2), static_cast<int>(rng() % 2)},
              {static_cast<int>(rng() % 2), static_cast<int>(rng() % 2)}};
          vals.push_back(o::pad(v, paddings, 0.5f));
        } else {
          vals.push_back(o::softmax(v));
        }
        break;
      }
      case 11: {  // constant subexpression — exercises folding
        Tensor c1 = pool.take(Shape{2, 3});
        Tensor c2 = pool.take(Shape{2, 3});
        vals.push_back(rng() % 2 == 0 ? o::add(c1, c2) : o::mul(c1, c2));
        break;
      }
      default: {  // conv block over an NHWC view (int8 filters sometimes)
        const int vi = pickWhere(rng, vals, [](const Tensor& t) {
          return t.shape().rank() == 2 && t.shape()[0] >= 2 &&
                 t.shape()[1] >= 2 && t.shape().size() <= 256;
        });
        if (vi < 0) break;
        const Tensor& v = vals[static_cast<std::size_t>(vi)];
        const int h = v.shape()[0], w = v.shape()[1];
        Tensor x4 = o::reshape(v, Shape{1, h, w, 1});
        const int oc = 1 + static_cast<int>(rng() % 2);
        const bool int8Filter = rng() % 2 == 0;
        Tensor f = pool.take(Shape{3, 3, 1, oc}, int8Filter);
        Tensor y = o::conv2d(x4, f, 1, 1, PadMode::kSame, 1, 1);
        if (rng() % 2 == 0) y = o::relu(y);
        if (rng() % 2 == 0) y = o::maxPool(y, 2, 2, 2, 2, PadMode::kSame);
        vals.push_back(o::reshape(y, Shape{1, static_cast<int>(y.shape().size())}));
        break;
      }
      case 12: {  // depthwise block: the unfused chain or the fused op
        const int vi = pickWhere(rng, vals, [](const Tensor& t) {
          return t.shape().rank() == 2 && t.shape()[0] >= 3 &&
                 t.shape()[1] >= 3 && t.shape().size() <= 256;
        });
        if (vi < 0) break;
        const Tensor& v = vals[static_cast<std::size_t>(vi)];
        const int h = v.shape()[0], w = v.shape()[1];
        // Channel counts below, at and past a vector width, and a multiplier
        // of 1 or 2.
        const int channels[] = {1, 3, 8, 17};
        const int c = channels[rng() % 4];
        const int mult = 1 + static_cast<int>(rng() % 2);
        const int stride = 1 + static_cast<int>(rng() % 2);
        const PadMode pad = rng() % 2 == 0 ? PadMode::kSame : PadMode::kValid;
        // A broadcast product spreads the values over c distinct channels.
        Tensor x4 = o::mul(o::reshape(v, Shape{1, h, w, 1}),
                           pool.take(Shape{c}));
        const bool int8Filter = rng() % 4 == 0;
        Tensor f = pool.take(Shape{3, 3, c, mult}, int8Filter);
        const bool useBias = rng() % 2 == 0;
        Tensor bias = useBias ? pool.take(Shape{c * mult}) : Tensor();
        const FusedActivation acts[] = {
            FusedActivation::kNone, FusedActivation::kRelu,
            FusedActivation::kRelu6, FusedActivation::kSigmoid};
        const FusedActivation act = acts[rng() % 4];
        Tensor y;
        if (rng() % 3 == 0) {
          y = o::fusedDepthwiseConv2d(x4, f, bias, act, stride, stride, pad);
        } else {
          // What the fuse pass must absorb into one fused node.
          y = o::depthwiseConv2d(x4, f, stride, stride, pad);
          if (useBias) y = o::add(y, bias);
          switch (act) {
            case FusedActivation::kRelu: y = o::relu(y); break;
            case FusedActivation::kRelu6: y = o::relu6(y); break;
            case FusedActivation::kSigmoid: y = o::sigmoid(y); break;
            case FusedActivation::kNone: break;
          }
        }
        vals.push_back(
            o::reshape(y, Shape{1, static_cast<int>(y.shape().size())}));
        break;
      }
    }
  }

  // Outputs: the program tail plus sometimes one extra distinct value.
  // Extras never pick a raw input: the eager caller disposes its outputs,
  // and disposing a feed would poison the next backend's run.
  std::vector<Tensor> outs{vals.back()};
  const std::size_t lo = inputs.size();
  if (rng() % 2 == 0 && vals.size() > lo + 1) {
    const std::size_t extra = lo + rng() % (vals.size() - 1 - lo);
    outs.push_back(vals[extra]);
  }
  return outs;
}

/// Elementwise-chain-heavy generator: every value keeps the anchor shape,
/// so the fuser can grow large regions — long unary chains, diamonds whose
/// shared producer must be absorbed, select with comparison conditions, and
/// broadcast constants entering at the leaves. Occasional softmax links are
/// shape-preserving but NOT elementwise: they split regions mid-chain.
std::vector<Tensor> buildElemProgram(unsigned seed,
                                     const std::vector<Tensor>& inputs,
                                     ConstPool& pool) {
  std::mt19937 rng(seed * 1181783497u + 31u);
  pool.cursor = 0;
  pool.dataSeed = static_cast<int>(seed) * 1000 + 503;

  std::vector<Tensor> vals = inputs;
  const Shape shape = inputs[0].shape();
  auto sameShape = [&](const Tensor& t) { return t.shape() == shape; };
  auto pick = [&]() -> const Tensor& {
    return vals[static_cast<std::size_t>(pickWhere(rng, vals, sameShape))];
  };
  auto pushUnary = [&](const Tensor& v) {
    switch (rng() % 8) {
      case 0: vals.push_back(o::relu(v)); break;
      case 1: vals.push_back(o::relu6(v)); break;
      case 2: vals.push_back(o::neg(v)); break;
      case 3: vals.push_back(o::square(v)); break;
      case 4: vals.push_back(o::leakyRelu(v, 0.2f)); break;
      case 5: vals.push_back(o::clipByValue(v, -0.5f, 0.5f)); break;
      case 6: vals.push_back(o::addScalar(v, 0.75f)); break;
      default: vals.push_back(o::mulScalar(v, 1.25f)); break;
    }
  };
  auto pushBinary = [&](const Tensor& a, const Tensor& b) {
    switch (rng() % 5) {
      case 0: vals.push_back(o::add(a, b)); break;
      case 1: vals.push_back(o::sub(a, b)); break;
      case 2: vals.push_back(o::mul(a, b)); break;
      case 3: vals.push_back(o::maximum(a, b)); break;
      default: vals.push_back(o::minimum(a, b)); break;
    }
  };

  const int nSteps = 10 + static_cast<int>(rng() % 16);
  for (int step = 0; step < nSteps; ++step) {
    switch (rng() % 8) {
      case 0:  // chain link
        pushUnary(pick());
        break;
      case 1:  // binary between two existing same-shape values
        pushBinary(pick(), pick());
        break;
      case 2: {  // broadcast constant entering at a leaf
        const Tensor& a = pick();
        std::vector<int> dims = shape.dims();
        for (int& d : dims) {
          if (rng() % 2 == 0) d = 1;
        }
        Tensor b = rng() % 3 == 0 ? pool.take(Shape{1})
                                  : pool.take(Shape(dims));
        pushBinary(a, b);
        break;
      }
      case 3: {  // diamond: shared producer, two consumers, rejoin
        const Tensor v = pick();  // by value: pushUnary may grow vals
        pushUnary(v);
        const Tensor a = vals.back();
        pushUnary(v);
        pushBinary(a, vals.back());
        break;
      }
      case 4: {  // select with a computed condition
        const Tensor& a = pick();
        const Tensor& b = pick();
        Tensor cond = o::greater(a, o::mulScalar(b, 0.5f));
        vals.push_back(o::where(cond, a, b));
        break;
      }
      case 5: {  // comparison feeding boolean arithmetic
        const Tensor& a = pick();
        const Tensor& b = pick();
        vals.push_back(
            o::logicalAnd(o::greater(a, b), o::lessEqual(a, o::abs(b))));
        break;
      }
      case 6: {  // region splitter: shape-preserving, non-elementwise
        if (shape.rank() == 2) {
          vals.push_back(o::softmax(pick()));
        } else {
          pushUnary(pick());
        }
        break;
      }
      default: {  // deep pure chain: several links at once
        pushUnary(pick());
        for (int k = 0; k < 3; ++k) pushUnary(vals.back());
        break;
      }
    }
  }

  // Tail plus sometimes an interior output: an interior that is also an
  // output pins a region boundary (the pass must not absorb it).
  std::vector<Tensor> outs{vals.back()};
  const std::size_t lo = inputs.size();
  if (rng() % 2 == 0 && vals.size() > lo + 1) {
    const std::size_t extra = lo + rng() % (vals.size() - 1 - lo);
    outs.push_back(vals[extra]);
  }
  return outs;
}

::testing::AssertionResult bitwiseEqual(const Tensor& a, const Tensor& b,
                                        unsigned seed, const char* backend,
                                        std::size_t outIdx) {
  const auto av = a.dataSync();
  const auto bv = b.dataSync();
  if (av.size() != bv.size()) {
    return ::testing::AssertionFailure()
           << "seed=" << seed << " backend=" << backend << " output="
           << outIdx << ": size " << av.size() << " vs " << bv.size();
  }
  if (std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)) != 0) {
    std::size_t first = 0;
    while (first < av.size() && av[first] == bv[first]) ++first;
    return ::testing::AssertionFailure()
           << "seed=" << seed << " backend=" << backend << " output="
           << outIdx << ": first mismatch at flat index " << first << " ("
           << av[first] << " vs " << bv[first] << "); replay with "
           << "TFJS_GRAPH_FUZZ_SEED=" << seed;
  }
  return ::testing::AssertionSuccess();
}

using ProgramFn = std::vector<Tensor> (*)(unsigned, const std::vector<Tensor>&,
                                          ConstPool&);

/// Fused depthwise nodes in the optimized graphs run so far (a
/// kDepthwiseConv2d node with an activation or a bias): the fused op
/// captured directly, or the unfused chain the fuse pass absorbed.
int fusedDepthwiseNodes = 0;

/// Runs one seeded case: eager vs captured+optimized on every backend,
/// plus a pass-bypass leg on a subset. Returns the number of captured
/// graphs executed. `elemMode` switches to the elementwise-chain-heavy
/// generator (same-shape inputs so binaries always pair up).
int runCase(unsigned seed, bool elemMode = false) {
  setBackend("cpu");
  const ProgramFn buildFn = elemMode ? buildElemProgram : buildProgram;
  int graphsRun = 0;

  // Inputs and constants: created once (like an application's weights),
  // shared across backends — the engine migrates containers on demand.
  std::mt19937 shapeRng(seed * 48271u + 11u);
  std::vector<Tensor> inputs;
  const int nIn = elemMode ? 2 : 1 + static_cast<int>(shapeRng() % 2);
  int r0 = 0, c0 = 0;
  if (elemMode) {  // same shape for every input; keeps mode-1 corpus intact
    r0 = 2 + static_cast<int>(shapeRng() % 5);
    c0 = 2 + static_cast<int>(shapeRng() % 6);
  }
  for (int i = 0; i < nIn; ++i) {
    const int r = elemMode ? r0 : 2 + static_cast<int>(shapeRng() % 3);
    const int c = elemMode ? c0 : 2 + static_cast<int>(shapeRng() % 4);
    inputs.push_back(o::randomNormal(Shape{r, c}, 0, 1,
                                     static_cast<std::uint64_t>(seed) * 77 + i));
  }

  ConstPool pool;
  pool.planning = true;
  Engine::get().startScope();
  std::vector<Tensor> planOut = buildFn(seed, inputs, pool);
  (void)planOut;
  Engine::get().endScope({});  // plan intermediates die; consts are kept
  pool.planning = false;

  const std::size_t liveBefore = memory().numTensors;
  for (const char* backend : kBackends) {
    setBackend(backend);
    std::vector<Tensor> eager = tidyAll([&] {
      return buildFn(seed, inputs, pool);
    });

    CapturedGraph cg(
        graph::capture(
            [&](const std::vector<Tensor>& ins) {
              return buildFn(seed, ins, pool);
            },
            inputs),
        PassOptions::all());
    std::vector<Tensor> got = cg.run(inputs);
    std::vector<Tensor> warm = cg.run(inputs);  // arena-backed second run
    ++graphsRun;
    for (const graph::Node& n : cg.optimized().nodes) {
      // {sH, sW, pad, dH, dW, act, hasBias}
      fusedDepthwiseNodes += n.op == ops::OpId::kDepthwiseConv2d &&
                             (n.attrs[5] != 0 || n.attrs[6] != 0);
    }

    EXPECT_EQ(eager.size(), got.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < eager.size() && i < got.size(); ++i) {
      EXPECT_TRUE(bitwiseEqual(eager[i], got[i], seed, backend, i));
      EXPECT_TRUE(bitwiseEqual(eager[i], warm[i], seed, backend, i));
    }

    // Pass-bypass leg on a subset: the unoptimized replay must agree too.
    if (seed % 5 == 0) {
      CapturedGraph raw(graph::capture(
                            [&](const std::vector<Tensor>& ins) {
                              return buildFn(seed, ins, pool);
                            },
                            inputs),
                        PassOptions::none());
      std::vector<Tensor> rawOut = raw.run(inputs);
      ++graphsRun;
      for (std::size_t i = 0; i < eager.size() && i < rawOut.size(); ++i) {
        EXPECT_TRUE(bitwiseEqual(eager[i], rawOut[i], seed, backend, i));
      }
      for (Tensor& t : rawOut) t.dispose();
      raw.dispose();
    }

    for (Tensor& t : eager) t.dispose();
    for (Tensor& t : got) t.dispose();
    for (Tensor& t : warm) t.dispose();
    cg.dispose();
  }
  setBackend("cpu");
  // The executor and capture machinery leak nothing across a case.
  EXPECT_EQ(memory().numTensors, liveBefore) << "seed=" << seed;

  pool.disposeAll();
  for (Tensor& t : inputs) t.dispose();
  return graphsRun;
}

TEST(GraphFuzz, EagerVsCapturedBitwiseParity) {
  ensureBackendsRegistered();

  if (const char* s = std::getenv("TFJS_GRAPH_FUZZ_SEED")) {
    runCase(static_cast<unsigned>(std::atoi(s)));  // single-case replay
    return;
  }

  int graphs = 0;
  const int depthwise0 = fusedDepthwiseNodes;
  for (unsigned seed = 1; seed <= kNumSeeds; ++seed) {
    graphs += runCase(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The harness's own coverage bar: >240 captured graphs per ctest run.
  EXPECT_GE(graphs, 240);
  // ...and the depthwise block must actually reach the executor fused.
  EXPECT_GE(fusedDepthwiseNodes - depthwise0, 30);
}

TEST(GraphFuzz, ElementwiseChainHeavyBitwiseParity) {
  ensureBackendsRegistered();

  if (const char* s = std::getenv("TFJS_GRAPH_FUZZ_SEED")) {
    runCase(static_cast<unsigned>(std::atoi(s)), /*elemMode=*/true);
    return;
  }

  const std::uint64_t regions0 =
      metrics::Registry::get().counter("graph.fused_regions").value();
  const std::uint64_t regionOps0 =
      metrics::Registry::get().counter("graph.region_ops").value();
  int graphs = 0;
  for (unsigned seed = 1; seed <= kNumElemSeeds; ++seed) {
    graphs += runCase(seed, /*elemMode=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(graphs, 150);
  // The mode exists to stress the fuser: the corpus must actually form
  // regions, and sizeable ones (several ops per region on average).
  const std::uint64_t regions =
      metrics::Registry::get().counter("graph.fused_regions").value() -
      regions0;
  const std::uint64_t regionOps =
      metrics::Registry::get().counter("graph.region_ops").value() -
      regionOps0;
  EXPECT_GE(regions, 100u);
  EXPECT_GE(regionOps, 3 * regions);
}

}  // namespace
}  // namespace tfjs
