// Matrix multiplication (rank-2 or batched rank-3, mirroring tf.matMul),
// with the standard four-case transpose gradients. matMul is fusedMatMul's
// body (fused.cc) with no bias and no activation.
#include "ops/common.h"

namespace tfjs::ops {

using internal::reduceGradTo;

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
  return internal::fusedMatMul("matMul", a, b, Tensor{},
                               FusedActivation::kNone, transposeA, transposeB);
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
