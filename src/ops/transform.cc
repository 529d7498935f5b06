// Shape transforms and data movement ops.
#include <algorithm>
#include <numeric>

#include "core/util.h"
#include "ops/common.h"

namespace tfjs::ops {

using internal::E;
using internal::record;

Tensor internal::copyKernel(const char* name, std::span<const Tensor> xs,
                            std::span<const CopyAxis> axes,
                            const Shape& outShape, DType dtype,
                            float fillValue) {
  KernelScope k(name);
  std::vector<TensorSpec> specs;
  specs.reserve(xs.size());
  for (const Tensor& x : xs) specs.push_back(E().prepareInput(x));
  return k.wrap(E().backend().copyStrided(specs, axes, outShape, fillValue),
                outShape, dtype);
}

Tensor reshape(const Tensor& x, const Shape& shape) {
  // Resolve a single -1 ("infer this dimension").
  std::vector<int> dims = shape.dims();
  int inferAxis = -1;
  std::size_t known = 1;
  for (int i = 0; i < static_cast<int>(dims.size()); ++i) {
    if (dims[static_cast<std::size_t>(i)] == -1) {
      TFJS_SHAPE_CHECK(inferAxis == -1, "reshape allows at most one -1 dim");
      inferAxis = i;
    } else {
      known *= static_cast<std::size_t>(dims[static_cast<std::size_t>(i)]);
    }
  }
  Shape target = shape;
  if (inferAxis >= 0) {
    TFJS_SHAPE_CHECK(known > 0 && x.size() % known == 0,
                     "reshape cannot infer dim: " << x.size()
                         << " elements into " << shape.toString());
    dims[static_cast<std::size_t>(inferAxis)] =
        static_cast<int>(x.size() / known);
    target = Shape(dims);
  }
  // The alias creation itself records the gradient (Engine::makeAlias).
  return x.reshape(target);
}

Tensor flatten(const Tensor& x) {
  return reshape(x, Shape{static_cast<int>(x.size())});
}

Tensor transpose(const Tensor& x, std::span<const int> permIn) {
  std::vector<int> perm(permIn.begin(), permIn.end());
  if (perm.empty()) {  // default: reverse all axes
    perm.resize(static_cast<std::size_t>(x.rank()));
    std::iota(perm.rbegin(), perm.rend(), 0);
  }
  TFJS_SHAPE_CHECK(static_cast<int>(perm.size()) == x.rank(),
                   "transpose perm length " << perm.size()
                       << " != rank " << x.rank());
  std::vector<int> outDims(perm.size());
  std::vector<CopyAxis> axes;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    outDims[i] = x.shape()[perm[i]];
    axes.push_back({.inAxis = perm[i], .extent = outDims[i]});
  }
  const Shape outShape(outDims);
  internal::CaptureFrame frame;
  Tensor y = internal::copyKernel("transpose", {&x, 1}, axes, outShape,
                                  x.dtype());
  if (internal::observing()) {
    std::vector<double> attrs;
    for (int p : perm) attrs.push_back(static_cast<double>(p));
    internal::observeOp(OpId::kTranspose, {x}, y, attrs);
  }
  record("transpose", {x}, y, [x, perm](const Tensor& dy) {
    std::vector<int> inverse(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
      inverse[static_cast<std::size_t>(perm[i])] = static_cast<int>(i);
    }
    return std::vector<Tensor>{transpose(dy, inverse)};
  });
  return y;
}

Tensor slice(const Tensor& x, std::span<const int> begin,
             std::span<const int> size) {
  TFJS_SHAPE_CHECK(static_cast<int>(begin.size()) == x.rank() &&
                       static_cast<int>(size.size()) == x.rank(),
                   "slice begin/size must match rank " << x.rank());
  std::vector<int> outDims(size.begin(), size.end());
  std::vector<CopyAxis> axes;
  for (int d = 0; d < x.rank(); ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (outDims[du] == -1) outDims[du] = x.shape()[d] - begin[du];
    TFJS_SHAPE_CHECK(begin[du] >= 0 && begin[du] + outDims[du] <= x.shape()[d],
                     "slice out of bounds on axis " << d << " for shape "
                                                    << x.shape().toString());
    axes.push_back({.inAxis = d, .start = begin[du], .extent = outDims[du]});
  }
  const Shape outShape(outDims);
  internal::CaptureFrame frame;
  Tensor y = internal::copyKernel("slice", {&x, 1}, axes, outShape, x.dtype());
  if (internal::observing()) {
    // Record begin + the resolved sizes (a -1 size means "to the end").
    std::vector<double> attrs;
    for (int b : begin) attrs.push_back(static_cast<double>(b));
    for (int n : outDims) attrs.push_back(static_cast<double>(n));
    internal::observeOp(OpId::kSlice, {x}, y, attrs);
  }
  const std::vector<int> beginV(begin.begin(), begin.end());
  record("slice", {x}, y, [x, beginV](const Tensor& dy) {
    std::vector<std::pair<int, int>> pads;
    for (int d = 0; d < x.rank(); ++d) {
      const int b = beginV[static_cast<std::size_t>(d)];
      pads.emplace_back(b, x.shape()[d] - b - dy.shape()[d]);
    }
    return std::vector<Tensor>{pad(dy, pads, 0)};
  });
  return y;
}

Tensor concat(std::span<const Tensor> xs, int axis) {
  TFJS_ARG_CHECK(!xs.empty(), "concat requires at least one tensor");
  const int rank = xs[0].rank();
  const int norm = axis < 0 ? axis + rank : axis;
  TFJS_SHAPE_CHECK(norm >= 0 && norm < rank,
                   "concat axis " << axis << " out of range for rank "
                                  << rank);
  // One piece per input, each landing at its running offset on `axis`.
  std::vector<int> outDims = xs[0].shape().dims();
  outDims[static_cast<std::size_t>(norm)] = 0;
  std::vector<CopyAxis> axes;
  axes.reserve(xs.size() * static_cast<std::size_t>(rank));
  for (const Tensor& x : xs) {
    TFJS_SHAPE_CHECK(x.rank() == rank, "concat rank mismatch");
    for (int d = 0; d < rank; ++d) {
      TFJS_SHAPE_CHECK(
          d == norm || x.shape()[d] == outDims[static_cast<std::size_t>(d)],
          "concat shape mismatch on axis " << d);
      axes.push_back(
          {.inAxis = d,
           .offset = d == norm ? outDims[static_cast<std::size_t>(d)] : 0,
           .extent = x.shape()[d]});
    }
    outDims[static_cast<std::size_t>(norm)] += x.shape()[norm];
  }
  const Shape outShape(outDims);
  internal::CaptureFrame frame;
  Tensor y = internal::copyKernel("concat", xs, axes, outShape, xs[0].dtype());
  {
    const double axisAttr[] = {static_cast<double>(norm)};
    internal::observeOp(OpId::kConcat, xs, y, axisAttr);
  }

  std::vector<int> sizes;
  for (const Tensor& x : xs) sizes.push_back(x.shape()[norm]);
  record("concat", xs, y, [sizes, norm, rank](const Tensor& dy) {
    std::vector<Tensor> grads;
    std::vector<int> begin(static_cast<std::size_t>(rank), 0);
    std::vector<int> size = dy.shape().dims();
    for (int s : sizes) {
      size[static_cast<std::size_t>(norm)] = s;
      grads.push_back(slice(dy, begin, size));
      begin[static_cast<std::size_t>(norm)] += s;
    }
    return grads;
  });
  return y;
}

Tensor concat(std::initializer_list<Tensor> xs, int axis) {
  return concat(std::span<const Tensor>(xs.begin(), xs.size()), axis);
}

Tensor stack(std::span<const Tensor> xs, int axis) {
  TFJS_ARG_CHECK(!xs.empty(), "stack requires at least one tensor");
  std::vector<Tensor> expanded;
  expanded.reserve(xs.size());
  for (const auto& t : xs) expanded.push_back(expandDims(t, axis));
  Tensor y = concat(expanded, axis);
  for (auto& t : expanded) t.dispose();
  return y;
}

std::vector<Tensor> unstack(const Tensor& x, int axis) {
  const int norm = axis < 0 ? axis + x.rank() : axis;
  std::vector<Tensor> parts = split(x, x.shape()[norm], norm);
  std::vector<Tensor> out;
  out.reserve(parts.size());
  for (auto& p : parts) {
    std::vector<int> dims = p.shape().dims();
    dims.erase(dims.begin() + norm);
    out.push_back(reshape(p, Shape(dims)));
    p.dispose();
  }
  return out;
}

std::vector<Tensor> split(const Tensor& x, int numSplits, int axis) {
  const int norm = axis < 0 ? axis + x.rank() : axis;
  TFJS_SHAPE_CHECK(norm >= 0 && norm < x.rank(), "split axis out of range");
  const int dim = x.shape()[norm];
  TFJS_SHAPE_CHECK(numSplits > 0 && dim % numSplits == 0,
                   "split: axis size " << dim << " not divisible by "
                                       << numSplits);
  const int part = dim / numSplits;
  std::vector<Tensor> out;
  for (int i = 0; i < numSplits; ++i) {
    std::vector<int> begin(static_cast<std::size_t>(x.rank()), 0);
    std::vector<int> size = x.shape().dims();
    begin[static_cast<std::size_t>(norm)] = i * part;
    size[static_cast<std::size_t>(norm)] = part;
    out.push_back(slice(x, begin, size));
  }
  return out;
}

Tensor pad(const Tensor& x, std::span<const std::pair<int, int>> paddings,
           float constantValue) {
  TFJS_SHAPE_CHECK(static_cast<int>(paddings.size()) == x.rank(),
                   "pad expects one (before, after) pair per axis");
  std::vector<int> outDims = x.shape().dims();
  std::vector<CopyAxis> axes;
  for (int d = 0; d < x.rank(); ++d) {
    const auto& [before, after] = paddings[static_cast<std::size_t>(d)];
    TFJS_ARG_CHECK(before >= 0 && after >= 0, "pad amounts must be >= 0");
    outDims[static_cast<std::size_t>(d)] += before + after;
    axes.push_back({.inAxis = d, .offset = before, .extent = x.shape()[d]});
  }
  const Shape outShape(outDims);
  internal::CaptureFrame frame;
  Tensor y = internal::copyKernel("pad", {&x, 1}, axes, outShape, x.dtype(),
                                  constantValue);
  if (internal::observing()) {
    std::vector<double> attrs{static_cast<double>(constantValue)};
    for (const auto& [before, after] : paddings) {
      attrs.push_back(static_cast<double>(before));
      attrs.push_back(static_cast<double>(after));
    }
    internal::observeOp(OpId::kPad, {x}, y, attrs);
  }
  const std::vector<std::pair<int, int>> padsV(paddings.begin(),
                                               paddings.end());
  record("pad", {x}, y, [x, padsV](const Tensor& dy) {
    std::vector<int> begin;
    for (const auto& p : padsV) begin.push_back(p.first);
    return std::vector<Tensor>{slice(dy, begin, x.shape().dims())};
  });
  return y;
}

Tensor gather(const Tensor& x, const Tensor& indices, int axis) {
  const int norm = axis < 0 ? axis + x.rank() : axis;
  TFJS_SHAPE_CHECK(norm >= 0 && norm < x.rank(), "gather axis out of range");
  TFJS_SHAPE_CHECK(indices.rank() == 1, "gather expects 1-D indices");
  std::vector<int> outDims = x.shape().dims();
  outDims[static_cast<std::size_t>(norm)] =
      static_cast<int>(indices.size());
  const Shape outShape(outDims);
  internal::KernelScope k("gather");
  const TensorSpec sx = E().prepareInput(x);
  const TensorSpec si = E().prepareInput(indices);
  const DataId id = E().backend().gather(sx, si, norm, outShape);
  Tensor y = k.wrap(id, outShape, x.dtype());
  // Scatter-add adjoint expressed as a one-hot matmul on the gathered axis
  // moved to the front: dx = oneHot(indices)^T · dy, then the axis moves
  // back. The indices are a recorded input (so they stay alive for
  // backward) with no gradient.
  record("gather", {x, indices}, y, [x, indices, norm](const Tensor& dy) {
    internal::TapePause pause;
    std::vector<int> toFront{norm}, fromFront;
    for (int d = 0; d < x.rank(); ++d) {
      if (d != norm) toFront.push_back(d);
      fromFront.push_back(d < norm ? d + 1 : d == norm ? 0 : d);
    }
    const auto moved = [norm](const Tensor& t, std::span<const int> perm) {
      return norm == 0 ? t.clone() : transpose(t, perm);
    };
    const int axisDim = x.shape()[norm];
    const int inner = static_cast<int>(x.size()) / std::max(axisDim, 1);
    Tensor hot = oneHot(indices, axisDim);  // [n, axisDim]
    Tensor dyFront = moved(dy, toFront);
    Tensor dy2d =
        dyFront.reshape(Shape{static_cast<int>(indices.size()), inner});
    Tensor dx2d = matMul(hot, dy2d, /*transposeA=*/true);
    std::vector<int> frontDims = dyFront.shape().dims();
    frontDims[0] = axisDim;
    Tensor dxFront = dx2d.reshape(Shape(frontDims));
    Tensor dx = moved(dxFront, fromFront);
    for (Tensor* t : {&hot, &dyFront, &dy2d, &dx2d, &dxFront}) t->dispose();
    return std::vector<Tensor>{dx, Tensor()};  // indices: no gradient
  });
  return y;
}

Tensor tile(const Tensor& x, std::span<const int> reps) {
  TFJS_SHAPE_CHECK(static_cast<int>(reps.size()) == x.rank(),
                   "tile expects one repetition count per axis");
  // Each output axis reads its input axis forward, wrapping at its extent.
  std::vector<int> outDims = x.shape().dims();
  std::vector<CopyAxis> axes;
  std::vector<int> blockDims, repAxes;
  for (int d = 0; d < x.rank(); ++d) {
    const int r = reps[static_cast<std::size_t>(d)];
    TFJS_ARG_CHECK(r >= 1, "tile reps must be >= 1");
    outDims[static_cast<std::size_t>(d)] *= r;
    axes.push_back({.inAxis = d, .extent = r * x.shape()[d]});
    blockDims.insert(blockDims.end(), {r, x.shape()[d]});
    repAxes.push_back(2 * d);
  }
  const Shape outShape(outDims);
  Tensor y = internal::copyKernel("tile", {&x, 1}, axes, outShape, x.dtype());
  // dy viewed as [r0, x0, r1, x1, ...]: every repetition adds into dx.
  record("tile", {x}, y, [blockDims, repAxes](const Tensor& dy) {
    Tensor blocks = dy.reshape(Shape(blockDims));
    Tensor dx = sum(blocks, repAxes);
    blocks.dispose();
    return std::vector<Tensor>{dx};
  });
  return y;
}

Tensor reverse(const Tensor& x, std::span<const int> axes) {
  const std::vector<int> norm = util::normalizeAxes(axes, x.rank());
  std::vector<CopyAxis> box;
  for (int d = 0; d < x.rank(); ++d) {
    const bool back = std::find(norm.begin(), norm.end(), d) != norm.end();
    box.push_back({.inAxis = d,
                   .start = back ? x.shape()[d] - 1 : 0,
                   .step = back ? -1 : 1,
                   .extent = x.shape()[d]});
  }
  Tensor y = internal::copyKernel("reverse", {&x, 1}, box, x.shape(),
                                  x.dtype());
  record("reverse", {x}, y, [norm](const Tensor& dy) {
    return std::vector<Tensor>{reverse(dy, norm)};
  });
  return y;
}

Tensor expandDims(const Tensor& x, int axis) {
  const int norm = axis < 0 ? axis + x.rank() + 1 : axis;
  TFJS_SHAPE_CHECK(norm >= 0 && norm <= x.rank(),
                   "expandDims axis out of range");
  std::vector<int> dims = x.shape().dims();
  dims.insert(dims.begin() + norm, 1);
  return reshape(x, Shape(dims));
}

Tensor squeeze(const Tensor& x) { return reshape(x, x.shape().squeezed()); }

Tensor resizeBilinear(const Tensor& x, int newH, int newW,
                      bool alignCorners) {
  TFJS_SHAPE_CHECK(x.rank() == 4, "resizeBilinear expects NHWC input");
  TFJS_ARG_CHECK(newH > 0 && newW > 0, "resizeBilinear size must be > 0");
  internal::KernelScope k("resizeBilinear");
  const TensorSpec sx = E().prepareInput(x);
  const DataId id = E().backend().resizeBilinear(sx, newH, newW, alignCorners);
  const Shape outShape{x.shape()[0], newH, newW, x.shape()[3]};
  return k.wrap(id, outShape, x.dtype());
}

Tensor oneHot(const Tensor& indices, int depth, float onValue,
              float offValue) {
  TFJS_ARG_CHECK(depth > 0, "oneHot depth must be > 0");
  internal::KernelScope k("oneHot");
  const TensorSpec si = E().prepareInput(indices);
  const DataId id = E().backend().oneHot(si, depth, onValue, offValue);
  std::vector<int> outDims = indices.shape().dims();
  outDims.push_back(depth);
  return k.wrap(id, Shape(outDims), DType::f32);
}

}  // namespace tfjs::ops
