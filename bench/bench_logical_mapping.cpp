// E6 — the squeezed logical→physical mapping (paper section 4.1): "assume
// the logical shape of tensor A is 4D with shape 1x3x1x2 ... the compiler
// will generate a getA(a, b, c, d) method whose implementation ignores a and
// c ... We observed that this optimization leads to 1.3x speedup on
// average."
//
// The optimization matters for coordinate-addressed samplers: every fetch
// walks the (axis, stride) list the shader compiler generated, and dropping
// size-1 dimensions halves that list for typical batch-1 NHWC activations
// with unit dims. This bench runs coordinate-heavy ops (transpose, pad,
// tile) over [1, h, 1, c] tensors on two webgl-sim instances differing only
// in the squeeze flag, and reports:
//   * measured wall time of the real sampler executing both mappings: the
//     two alternate one pass each per pair, so both sides of a pair see the
//     same host phase, and the speedup is the median of the per-pair
//     generic/squeezed ratios;
//   * the per-fetch index-op count the cost model charges (2 ops/dim).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "backends/register.h"
#include "backends/webgl/webgl_backend.h"
#include "core/engine.h"
#include "ops/ops.h"

namespace o = tfjs::ops;
using namespace tfjs::backends::webgl;

namespace {

// The paper's shape family: unit batch and a unit spatial dim.
const tfjs::Shape kShape{1, 384, 1, 384};

/// One pass of the coordinate-heavy chain over `x` on `backend`, flushed;
/// returns its wall time in ms.
double passMs(const std::string& backend, const tfjs::Tensor& x) {
  tfjs::setBackend(backend);
  auto& b = dynamic_cast<WebGLBackend&>(tfjs::Engine::get().backend());
  const std::array<int, 4> perm{0, 3, 2, 1};
  const std::array<std::pair<int, int>, 4> pads{
      {{0, 0}, {1, 1}, {0, 0}, {1, 1}}};
  const std::array<int, 4> reps{1, 2, 1, 1};
  const auto t0 = std::chrono::steady_clock::now();
  tfjs::tidyVoid([&] {
    tfjs::Tensor t = o::transpose(x, perm);
    tfjs::Tensor p = o::pad(t, pads);
    tfjs::Tensor r = o::tile(x, reps);
    p.dataSync();
    r.dataSync();
  });
  b.flush();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The input on `backend`.
tfjs::Tensor input(const std::string& backend) {
  tfjs::setBackend(backend);
  return o::randomNormal(kShape, 0, 1, 1);
}

}  // namespace

int main() {
  tfjs::backends::registerAll();
  registerBackendVariant("webgl-generic-map", [] {
    WebGLOptions o;
    o.squeeze = false;
    o.packed = false;
    return o;
  }());
  registerBackendVariant("webgl-squeezed-map", [] {
    WebGLOptions o;
    o.squeeze = true;
    o.packed = false;
    return o;
  }());

  std::printf("== Squeezed coordinate mapping (section 4.1): transpose/pad/"
              "tile over [1,384,1,384] ==\n(paper: 1.3x average)\n\n");
  const int pairs = 20;
  const std::string generic = "webgl-generic-map";
  const std::string squeezed = "webgl-squeezed-map";
  tfjs::Tensor xg = input(generic);
  tfjs::Tensor xs = input(squeezed);
  passMs(generic, xg);  // warm-up
  passMs(squeezed, xs);
  double genericMs = 0, squeezedMs = 0;
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    const double g = passMs(generic, xg);
    const double q = passMs(squeezed, xs);
    genericMs += g / pairs;
    squeezedMs += q / pairs;
    ratios.push_back(g / q);
  }
  xg.dispose();
  xs.dispose();
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  const double s = ratios.size() % 2 == 1
                       ? ratios[mid]
                       : (ratios[mid - 1] + ratios[mid]) / 2;

  // The cost model's per-fetch index-op charge for this shape.
  std::printf("index ops per fetch: generic %d, squeezed %d\n",
              2 * kShape.rank(), 2 * kShape.squeezed().rank());
  std::printf("wall per pass (mean of %d alternating pairs): generic "
              "%8.2f ms, squeezed %8.2f ms\n",
              pairs, genericMs, squeezedMs);
  std::printf("measured speedup (median pair ratio): %.3fx\n", s);
  std::printf("\nShape check: squeezed mapping measurably faster "
              "(s > 1.02): %s\n", s > 1.02 ? "HOLDS" : "VIOLATED");
  return 0;
}
