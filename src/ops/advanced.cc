// Advanced ops: topk / cumsum (backend kernels) and composite utilities
// (l2Normalize, moments, logSumExp, prelu, norm). Composites run with the
// tape active, so their gradients come from the recorded elementary ops.
#include <algorithm>
#include <array>

#include "core/util.h"
#include "ops/common.h"

namespace tfjs::ops {

using internal::E;
using internal::record;

TopK topk(const Tensor& x, int k, bool sorted) {
  (void)sorted;  // results are always sorted descending
  TFJS_SHAPE_CHECK(x.rank() >= 1, "topk requires rank >= 1");
  const int lastDim = x.shape()[x.rank() - 1];
  TFJS_SHAPE_CHECK(k >= 1 && k <= lastDim,
                   "topk: k=" << k << " out of range for last dim " << lastDim);
  internal::KernelScope kvScope("topkValues");
  internal::TapePause pause;
  const TensorSpec sx = E().prepareInput(x);
  const std::size_t inner = static_cast<std::size_t>(lastDim);
  const std::size_t outer = x.size() / inner;
  const auto [values, indices] = E().backend().topk(sx, outer, inner, k);

  std::vector<int> outDims = x.shape().dims();
  outDims.back() = k;
  const Shape outShape(outDims);
  const auto shaped = [&](DataId id, DType dtype) {
    Tensor flat = E().makeTensorFromDataId(
        id, Shape{static_cast<int>(outer), k}, dtype);
    Tensor t = flat.reshape(outShape);
    flat.dispose();
    return t;
  };
  // One kernel, two op spans: the values, then the indices.
  TopK result;
  result.values = shaped(values, DType::f32);
  kvScope.notify(result.values);
  internal::KernelScope kiScope("topkIndices");
  result.indices = shaped(indices, DType::i32);
  kiScope.notify(result.indices);
  return result;
}

Tensor cumsum(const Tensor& x, int axis, bool exclusive, bool reverse) {
  const int norm = axis < 0 ? axis + x.rank() : axis;
  TFJS_SHAPE_CHECK(norm >= 0 && norm < x.rank(),
                   "cumsum axis " << axis << " out of range");
  internal::KernelScope k("cumsum");
  Tensor y;
  {
    internal::TapePause pause;
    // Move the scanned axis to the back, run the kernel on [outer, inner],
    // and move it back — the standard kernel-normalization dance.
    Tensor prepared;
    std::vector<int> perm;
    const bool trailing = norm == x.rank() - 1;
    if (trailing) {
      prepared = x.clone();
    } else {
      for (int d = 0; d < x.rank(); ++d) {
        if (d != norm) perm.push_back(d);
      }
      perm.push_back(norm);
      prepared = transpose(x, perm);
    }
    const std::size_t inner = static_cast<std::size_t>(x.shape()[norm]);
    const std::size_t outer = x.size() / std::max<std::size_t>(inner, 1);
    const TensorSpec spec = E().prepareInput(prepared);
    const DataId id =
        E().backend().cumsum(spec, outer, inner, exclusive, reverse);
    Tensor flat = E().makeTensorFromDataId(
        id, Shape{static_cast<int>(outer), static_cast<int>(inner)},
        x.dtype());
    Tensor shaped = flat.reshape(prepared.shape());
    flat.dispose();
    if (trailing) {
      y = shaped;
    } else {
      std::vector<int> inverse(perm.size());
      for (std::size_t i = 0; i < perm.size(); ++i) {
        inverse[static_cast<std::size_t>(perm[i])] = static_cast<int>(i);
      }
      y = transpose(shaped, inverse);
      shaped.dispose();
    }
    prepared.dispose();
  }
  k.notify(y);
  record("cumsum", {x}, y, [norm, exclusive, reverse](const Tensor& dy) {
    // Adjoint of a prefix sum is the suffix sum (and vice versa).
    return std::vector<Tensor>{cumsum(dy, norm, exclusive, !reverse)};
  });
  return y;
}

Tensor l2Normalize(const Tensor& x, std::span<const int> axes, float epsilon) {
  return Engine::get().tidy([&] {
    Tensor sq = sum(square(x), axes, /*keepDims=*/true);
    Tensor denom = sqrt(maximum(sq, scalar(epsilon)));
    return div(x, denom);
  });
}

Moments moments(const Tensor& x, std::span<const int> axes, bool keepDims) {
  // Composite with recorded ops: E[x] and E[(x - E[x])^2].
  Moments m;
  std::vector<Tensor> outs = Engine::get().tidy([&]() -> std::vector<Tensor> {
    Tensor mean_ = mean(x, axes, /*keepDims=*/true);
    Tensor variance = mean(square(sub(x, mean_)), axes, keepDims);
    Tensor meanOut =
        keepDims ? mean_.clone()
                 : mean_.reshape(util::reducedShape(
                       x.shape(),
                       axes.empty()
                           ? [&] {
                               std::vector<int> v;
                               for (int i = 0; i < x.rank(); ++i)
                                 v.push_back(i);
                               return v;
                             }()
                           : util::normalizeAxes(axes, x.rank()),
                       false));
    return {meanOut, variance};
  });
  m.mean = outs[0];
  m.variance = outs[1];
  return m;
}

Tensor logSumExp(const Tensor& x, std::span<const int> axes, bool keepDims) {
  return Engine::get().tidy([&] {
    Tensor mx = max(x, axes, /*keepDims=*/true);
    Tensor shifted = sub(x, mx);
    Tensor lse = add(log(sum(exp(shifted), axes, /*keepDims=*/true)), mx);
    if (keepDims) return lse;
    const std::vector<int> norm =
        axes.empty() ? [&] {
          std::vector<int> v;
          for (int i = 0; i < x.rank(); ++i) v.push_back(i);
          return v;
        }()
                     : util::normalizeAxes(axes, x.rank());
    return lse.reshape(util::reducedShape(x.shape(), norm, false));
  });
}

Tensor prelu(const Tensor& x, const Tensor& alpha) {
  return Engine::get().tidy([&] {
    Tensor positive = relu(x);
    Tensor negative = mul(alpha, minimum(x, scalar(0)));
    return add(positive, negative);
  });
}

Tensor norm(const Tensor& x, float p, std::span<const int> axes,
            bool keepDims) {
  return Engine::get().tidy([&] {
    if (p == 1) return sum(abs(x), axes, keepDims);
    if (p == 2) return sqrt(sum(square(x), axes, keepDims));
    TFJS_ARG_CHECK(p <= 0, "norm supports p = 1, 2 or infinity (p <= 0)");
    return max(abs(x), axes, keepDims);
  });
}

}  // namespace tfjs::ops
