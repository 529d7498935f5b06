// Quantization parameters carried by int8 tensors (the metadata side of the
// end-to-end int8 inference path; DESIGN.md "Quantized execution").
//
// Scheme:
//  * Weights are quantized symmetrically per output channel along their LAST
//    axis (matMul weights are [k, n] with channel = n; conv filters are HWIO
//    with channel = O): q = clamp(round(w / scale[c]), -127, 127) with
//    zero point 0. A dead channel (all-zero weights) gets scale[c] == 0 and
//    all-zero codes — kernels multiply by the scale, so the column
//    dequantizes to exactly 0 without ever dividing by the zero scale.
//  * Activations are quantized dynamically *inside* the quantized kernels,
//    per GEMM row, to asymmetric uint8 (see backends/common/quant_math.h);
//    only their f32 values ever live in a tensor.
//  * An int8 tensor's elements are stored as float (like i32/b8 — see
//    core/dtype.h); memory accounting and the transport format advertise
//    1 byte per element.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/error.h"

namespace tfjs {

/// Symmetric int8 code range. ±127 (not -128) keeps the code space
/// symmetric, so negating a tensor never overflows a code.
inline constexpr std::int32_t kInt8Min = -127;
inline constexpr std::int32_t kInt8Max = 127;

/// Affine dequantization parameters of an int8 tensor:
///   real = (code - zeroPoint[c]) * scale[c]
/// Per-tensor when axis < 0 (scale/zeroPoint hold one entry); per-channel
/// along `axis` otherwise (one entry per channel). Weight tensors use
/// per-channel symmetric parameters (zeroPoint all 0) along their last axis.
struct QuantParams {
  std::vector<float> scale;
  std::vector<std::int32_t> zeroPoint;
  int axis = -1;  ///< quantized axis; -1 = per-tensor

  bool perChannel() const { return axis >= 0; }
  std::size_t channels() const { return scale.size(); }

  float scaleFor(std::size_t c) const {
    return scale.size() == 1 ? scale[0] : scale[c];
  }
  std::int32_t zeroPointFor(std::size_t c) const {
    return zeroPoint.size() == 1 ? zeroPoint[0] : zeroPoint[c];
  }
  bool symmetric() const {
    for (std::int32_t z : zeroPoint) {
      if (z != 0) return false;
    }
    return true;
  }

  void validate() const {
    TFJS_ARG_CHECK(!scale.empty(), "QuantParams needs at least one scale");
    TFJS_ARG_CHECK(scale.size() == zeroPoint.size(),
                   "QuantParams scale/zeroPoint size mismatch: "
                       << scale.size() << " vs " << zeroPoint.size());
  }

  /// Per-tensor parameters.
  static QuantParams perTensor(float s, std::int32_t zp) {
    QuantParams q;
    q.scale = {s};
    q.zeroPoint = {zp};
    q.axis = -1;
    return q;
  }
};

using QuantParamsPtr = std::shared_ptr<const QuantParams>;

}  // namespace tfjs
