// Reductions. The input is viewed as [outer, n, inner] with the reduced axes
// as the middle block and handed to the backend's reduce kernel as is; only
// reduced axes that are not one contiguous block (unit axes aside) are
// transposed last first. The internal steps run with the tape paused; each
// public op records one composite gradient.
#include <algorithm>
#include <array>

#include "core/util.h"
#include "ops/common.h"

namespace tfjs::ops {

using internal::E;
using internal::record;

namespace internal {

Tensor reduceGradTo(const Tensor& dy, const Shape& target) {
  if (dy.shape() == target) return dy.clone();
  const std::vector<int> axes = util::broadcastedAxes(target, dy.shape());
  TapePause pause;
  Tensor summed = axes.empty() ? dy.clone() : sum(dy, axes, /*keepDims=*/true);
  Tensor out = summed.reshape(target);
  summed.dispose();
  return out;
}

}  // namespace internal

namespace {

struct ReducePlan {
  Tensor prepared;     ///< x, or x transposed with the reduce axes last
  std::size_t outer = 1, n = 1, inner = 1;  ///< prepared as [outer, n, inner]
  Shape outShape;      ///< result shape (respecting keepDims)
  std::vector<int> axes;
};

/// Views x as [outer, n, inner] with the reduce axes as the middle block.
/// Axes of extent 1 never move an element, so only the others must be
/// contiguous; otherwise (or when `middleOk` is false and a kept axis of
/// extent > 1 follows the block) x is transposed to [kept..., reduced...]
/// and inner is 1. Either way each output folds the same elements in the
/// same order: row-major over the reduce axes.
ReducePlan plan(const Tensor& x, std::span<const int> axesIn, bool keepDims,
                bool middleOk) {
  ReducePlan p;
  const int rank = x.rank();
  if (axesIn.empty()) {
    for (int i = 0; i < rank; ++i) p.axes.push_back(i);
  } else {
    p.axes = util::normalizeAxes(axesIn, rank);
  }
  p.outShape = util::reducedShape(x.shape(), p.axes, keepDims);
  const std::vector<int>& dims = x.shape().dims();
  std::vector<bool> reduced(static_cast<std::size_t>(rank), false);
  for (int a : p.axes) reduced[static_cast<std::size_t>(a)] = true;
  // The block spans the first to the last reduce axis of extent != 1.
  int first = rank, last = -1;
  for (int d = 0; d < rank; ++d) {
    if (reduced[static_cast<std::size_t>(d)] &&
        dims[static_cast<std::size_t>(d)] != 1) {
      first = std::min(first, d);
      last = d;
    }
  }
  bool view = true;
  for (int d = 0; d < rank; ++d) {
    const auto u = static_cast<std::size_t>(d);
    if (reduced[u]) {
      p.n *= static_cast<std::size_t>(dims[u]);
    } else if (d < first) {
      p.outer *= static_cast<std::size_t>(dims[u]);
    } else {
      p.inner *= static_cast<std::size_t>(dims[u]);
      if (dims[u] != 1 && (d < last || !middleOk)) view = false;
    }
  }
  if (view) {
    p.prepared = x.clone();
    return p;
  }
  std::vector<int> perm;
  for (int d = 0; d < rank; ++d) {
    if (!reduced[static_cast<std::size_t>(d)]) perm.push_back(d);
  }
  perm.insert(perm.end(), p.axes.begin(), p.axes.end());
  p.prepared = transpose(x, perm);
  p.outer *= p.inner;
  p.inner = 1;
  return p;
}

Tensor dispatchReduce(const char* name, ReduceOp op, const Tensor& x,
                      std::span<const int> axes, bool keepDims, DType dtype) {
  internal::CaptureFrame frame;
  internal::KernelScope k(name);
  internal::TapePause pause;
  ReducePlan p = plan(x, axes, keepDims, /*middleOk=*/true);
  const TensorSpec spec = E().prepareInput(p.prepared);
  const DataId id = E().backend().reduce(op, spec, p.outer, p.n, p.inner);
  Tensor flat = E().makeTensorFromDataId(
      id, Shape{static_cast<int>(p.outer * p.inner)}, dtype);
  Tensor y = flat.reshape(p.outShape);
  flat.dispose();
  p.prepared.dispose();
  k.notify(y);
  if (internal::observing()) {
    // Record the resolved axes (empty input = all axes) so replay is exact.
    std::vector<double> attrs{static_cast<double>(op),
                              static_cast<double>(keepDims),
                              static_cast<double>(dtype)};
    for (int a : p.axes) attrs.push_back(static_cast<double>(a));
    internal::observeOp(OpId::kReduce, {x}, y, attrs);
  }
  return y;
}

}  // namespace

namespace {
/// x's shape with the reduced axes (empty `axes` = all) kept as 1s.
Shape keepDimsShape(const Tensor& x, std::span<const int> axes) {
  std::vector<int> all = util::normalizeAxes(axes, x.rank());
  if (axes.empty()) {
    for (int i = 0; i < x.rank(); ++i) all.push_back(i);
  }
  return util::reducedShape(x.shape(), all, true);
}

/// dy (viewed as `keep`) repeated along the reduced axes to x's shape: one
/// copy kernel whose reduced axes read their single element, bitwise
/// dy * onesLike(x).
Tensor broadcastGrad(const Tensor& dy, const Shape& keep, const Shape& x) {
  Tensor dyK = dy.reshape(keep);
  std::vector<CopyAxis> axes;
  for (int d = 0; d < x.rank(); ++d) {
    axes.push_back({.inAxis = d, .extent = x[d]});
  }
  Tensor dx = internal::copyKernel("tile", {&dyK, 1}, axes, x, dyK.dtype());
  dyK.dispose();
  return dx;
}

/// Shared gradient for max/min: route dy to the extremal positions.
GradFunc extremeGrad(const Tensor& x, const Tensor& y, const Shape& keep) {
  return [x, y, keep](const Tensor& dy) {
    Tensor yK = y.reshape(keep);
    Tensor dyK = dy.reshape(keep);
    Tensor mask = cast(equal(x, yK), DType::f32);
    Tensor dx = mul(dyK, mask);
    yK.dispose();
    dyK.dispose();
    mask.dispose();
    return std::vector<Tensor>{dx};
  };
}
}  // namespace

Tensor sum(const Tensor& x, std::span<const int> axes, bool keepDims) {
  Tensor y = dispatchReduce("sum", ReduceOp::kSum, x, axes, keepDims,
                            x.dtype() == DType::b8 ? DType::i32 : x.dtype());
  record("sum", {x}, y, [keep = keepDimsShape(x, axes), shape = x.shape()](
                            const Tensor& dy) {
    return std::vector<Tensor>{broadcastGrad(dy, keep, shape)};
  });
  return y;
}

Tensor mean(const Tensor& x, std::span<const int> axes, bool keepDims) {
  Tensor y = dispatchReduce("mean", ReduceOp::kMean, x, axes, keepDims,
                            DType::f32);
  const Shape keep = keepDimsShape(x, axes);
  const float n = static_cast<float>(x.size() / std::max<std::size_t>(
                                                    keep.size(), 1));
  record("mean", {x}, y, [keep, n, shape = x.shape()](const Tensor& dy) {
    Tensor scaled = divScalar(dy, n);
    Tensor dx = broadcastGrad(scaled, keep, shape);
    scaled.dispose();
    return std::vector<Tensor>{dx};
  });
  return y;
}

Tensor max(const Tensor& x, std::span<const int> axes, bool keepDims) {
  Tensor y =
      dispatchReduce("max", ReduceOp::kMax, x, axes, keepDims, x.dtype());
  record("max", {x}, y, extremeGrad(x, y, keepDimsShape(x, axes)));
  return y;
}

Tensor min(const Tensor& x, std::span<const int> axes, bool keepDims) {
  Tensor y =
      dispatchReduce("min", ReduceOp::kMin, x, axes, keepDims, x.dtype());
  record("min", {x}, y, extremeGrad(x, y, keepDimsShape(x, axes)));
  return y;
}

Tensor prod(const Tensor& x, std::span<const int> axes, bool keepDims) {
  return dispatchReduce("prod", ReduceOp::kProd, x, axes, keepDims, x.dtype());
}

Tensor any(const Tensor& x, std::span<const int> axes, bool keepDims) {
  return dispatchReduce("any", ReduceOp::kAny, x, axes, keepDims, DType::b8);
}

Tensor all(const Tensor& x, std::span<const int> axes, bool keepDims) {
  return dispatchReduce("all", ReduceOp::kAll, x, axes, keepDims, DType::b8);
}

namespace {
Tensor dispatchArg(const char* name, ArgOp op, const Tensor& x, int axis) {
  internal::CaptureFrame frame;
  internal::KernelScope k(name);
  internal::TapePause pause;
  const int norm = axis < 0 ? axis + x.rank() : axis;
  TFJS_SHAPE_CHECK(norm >= 0 && norm < x.rank(),
                   name << ": axis " << axis << " out of range for rank "
                        << x.rank());
  const std::array<int, 1> axes{norm};
  ReducePlan p = plan(x, axes, /*keepDims=*/false, /*middleOk=*/false);
  TFJS_SHAPE_CHECK(p.n > 0 || p.outer == 0,
                   name << ": axis " << axis << " is empty");
  const TensorSpec spec = E().prepareInput(p.prepared);
  const DataId id = E().backend().arg(op, spec, p.outer, p.n);
  Tensor flat = E().makeTensorFromDataId(
      id, Shape{static_cast<int>(p.outer)}, DType::i32);
  Tensor y = flat.reshape(p.outShape);
  flat.dispose();
  p.prepared.dispose();
  k.notify(y);
  internal::observeOp(OpId::kArg, {x}, y,
                      {static_cast<double>(op), static_cast<double>(norm)});
  return y;
}
}  // namespace

Tensor argMax(const Tensor& x, int axis) {
  return dispatchArg("argMax", ArgOp::kArgMax, x, axis);
}

Tensor argMin(const Tensor& x, int axis) {
  return dispatchArg("argMin", ArgOp::kArgMin, x, axis);
}

}  // namespace tfjs::ops
