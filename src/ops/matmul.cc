// Matrix multiplication (rank-2 or batched rank-3, mirroring tf.matMul),
// with the standard four-case transpose gradients. The kernel dispatch is
// shared with fusedMatMul (fused.cc), which passes its bias and activation
// down to the same Backend::matMul.
#include <array>

#include "core/util.h"
#include "ops/common.h"

namespace tfjs::ops {

using internal::E;
using internal::KernelScope;
using internal::record;
using internal::reduceGradTo;
using internal::TapePause;
using internal::to3d;

Tensor internal::matMulKernel(const char* name, const Tensor& a,
                              const Tensor& b, bool transposeA,
                              bool transposeB, const Tensor& bias,
                              FusedActivation act) {
  TFJS_SHAPE_CHECK(a.rank() == 2 || a.rank() == 3,
                   name << " expects rank 2 or 3 for a, got " << a.rank());
  TFJS_SHAPE_CHECK(b.rank() == 2 || b.rank() == 3,
                   name << " expects rank 2 or 3 for b, got " << b.rank());
  // Every check runs on the rank-3 dims before any tensor is made.
  const auto dims3 = [](const Tensor& t) {
    const Shape& s = t.shape();
    return t.rank() == 3 ? std::array<int, 3>{s[0], s[1], s[2]}
                         : std::array<int, 3>{1, s[0], s[1]};
  };
  const std::array<int, 3> a3s = dims3(a), b3s = dims3(b);
  const int kA = transposeA ? a3s[1] : a3s[2];
  const int kB = transposeB ? b3s[2] : b3s[1];
  TFJS_SHAPE_CHECK(kA == kB, name << " inner dimensions must agree: "
                                  << a.shape().toString() << " x "
                                  << b.shape().toString());
  const int bA = a3s[0], bB = b3s[0];
  TFJS_SHAPE_CHECK(bA == bB || bA == 1 || bB == 1,
                   name << " batch dims must match or broadcast");
  const int m = transposeA ? a3s[2] : a3s[1];
  const int n = transposeB ? b3s[1] : b3s[2];
  TFJS_SHAPE_CHECK(
      !bias.defined() || (bias.rank() == 1 && bias.shape()[0] == n),
      name << " bias must be rank 1 of length " << n << ", got "
           << bias.shape().toString());

  KernelScope k(name);
  Tensor y;
  {
    TapePause pause;
    Tensor a3 = to3d(a);
    Tensor b3 = to3d(b);
    const TensorSpec sa = E().prepareInput(a3);
    const TensorSpec sb = E().prepareInput(b3);
    TensorSpec sbias;
    if (bias.defined()) sbias = E().prepareInput(bias);
    const DataId id = E().backend().matMul(
        sa, sb, transposeA, transposeB, bias.defined() ? &sbias : nullptr, act);
    Tensor y3 =
        E().makeTensorFromDataId(id, Shape{std::max(bA, bB), m, n}, DType::f32);
    if (a.rank() == 2 && b.rank() == 2) {
      y = y3.reshape(Shape{m, n});
      y3.dispose();
    } else {
      y = y3;
    }
    a3.dispose();
    b3.dispose();
  }
  k.notify(y);
  return y;
}

std::vector<Tensor> internal::matMulGrads(const Tensor& a, const Tensor& b,
                                          bool transposeA, bool transposeB,
                                          const Tensor& dy, bool needA,
                                          bool needB) {
  // Standard transpose-aware adjoints, each reduced over broadcast batch.
  const auto adjoint = [](const Tensor& l, const Tensor& r, bool tl, bool tr,
                          const Shape& target) {
    Tensor g3 = matMul(l, r, tl, tr);
    Tensor g = reduceGradTo(g3, target);
    g3.dispose();
    return g;
  };
  Tensor da, db;
  if (needA) {
    da = transposeA ? adjoint(b, dy, transposeB, true, a.shape())
                    : adjoint(dy, b, false, !transposeB, a.shape());
  }
  if (needB) {
    db = transposeB ? adjoint(dy, a, true, transposeA, b.shape())
                    : adjoint(a, dy, !transposeA, false, b.shape());
  }
  return {da, db};
}

Tensor matMul(const Tensor& a, const Tensor& b, bool transposeA,
              bool transposeB) {
  // Int8 weights route to the quantized kernel (inference-only; the
  // transposed cases fall back to dequantized f32 weights).
  if (b.dtype() == DType::i8 && b.quantParams() != nullptr) {
    if (!transposeA && !transposeB) {
      return quantizedMatMul(a, b, Tensor{}, FusedActivation::kNone);
    }
    Tensor bf = dequantize(b);
    Tensor y = matMul(a, bf, transposeA, transposeB);
    bf.dispose();
    return y;
  }

  // The frame opens after the delegation above so the quantized op records
  // itself; from here on this op is the recorded node.
  internal::CaptureFrame frame;
  Tensor y = internal::matMulKernel("matMul", a, b, transposeA, transposeB,
                                    Tensor{}, FusedActivation::kNone);
  internal::observeOp(OpId::kMatMul, {a, b}, y,
                      {static_cast<double>(transposeA),
                       static_cast<double>(transposeB)});
  record("matMul", {a, b}, y,
         [a, b, transposeA, transposeB, needA = internal::watched(a),
          needB = internal::watched(b)](const Tensor& dy) {
           return internal::matMulGrads(a, b, transposeA, transposeB, dy,
                                        needA, needB);
         });
  return y;
}

Tensor dot(const Tensor& a, const Tensor& b) {
  TFJS_SHAPE_CHECK(a.rank() == 1 && b.rank() == 1,
                   "dot expects two 1-D tensors");
  TFJS_SHAPE_CHECK(a.size() == b.size(), "dot length mismatch");
  Tensor a2 = a.reshape(Shape{1, static_cast<int>(a.size())});
  Tensor b2 = b.reshape(Shape{static_cast<int>(b.size()), 1});
  Tensor y2 = matMul(a2, b2);
  Tensor y = y2.reshape(Shape{});
  a2.dispose();
  b2.dispose();
  y2.dispose();
  return y;
}

Tensor outerProduct(const Tensor& a, const Tensor& b) {
  TFJS_SHAPE_CHECK(a.rank() == 1 && b.rank() == 1,
                   "outerProduct expects two 1-D tensors");
  Tensor a2 = a.reshape(Shape{static_cast<int>(a.size()), 1});
  Tensor b2 = b.reshape(Shape{1, static_cast<int>(b.size())});
  Tensor y = matMul(a2, b2);
  a2.dispose();
  b2.dispose();
  return y;
}

}  // namespace tfjs::ops
